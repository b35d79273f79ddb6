"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``quadrep`` modules from the
outside: nothing in the package changes.  Each wrapped call records one
span (name, start, end, parent span, size) in a list kept in memory; the
list is written out only when the run ends.  A function is replaced in
every ``quadrep`` namespace that holds it, because modules import each
other's functions by name (``cli`` calls its own binding of ``catalog``).

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Children can overlap when the numeric scans run
in worker threads, so the covered part is the union of the child
intervals, not their sum.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict

START, END, PARENT, NAME, SIZE, KEY = range(6)


# Size functions receive (args, result) of a traced call and return the work
# count summed into the layer's count metric.


def _mul_size(args, result):
    return len(args[0].terms) * len(args[1].terms)


def _square_size(args, result):
    n = len(args[0].terms)
    return n * (n + 1) // 2


def _terms(args, result):
    return len(args[0].terms)


def _term_rows(args, result):
    return len(args[0].terms) * len(result)


def _map_rows(args, result):
    return result.shape[0] if result.ndim == 2 else 1


def _read_bytes(args, result):
    return os.path.getsize(args[0])


def _write_bytes(args, result):
    return os.path.getsize(args[1])


# Key functions receive the args of a traced call and return the key stored
# on its span.


def _label_and_order(args):
    return args[0].label, args[1]


# (owner, attribute, span name, size function, key function) for every
# traced call.  The owner is "module" or "module:Class"; a size function of
# None records the call only, and a key function of None stores no key.
TARGETS = [
    ("quadrep.exact", "_mul_poly", "exact.mul", _mul_size, None),
    ("quadrep.exact", "_square_poly", "exact.square", _square_size, None),
    ("quadrep.exact:Polynomial", "__pow__", "exact.pow", None, None),
    ("quadrep.exact:Polynomial", "__add__", "exact.add", None, None),
    ("quadrep.exact:Polynomial", "__radd__", "exact.add", None, None),
    ("quadrep.exact:Polynomial", "eval_exact", "exact.eval_exact", _terms, None),
    ("quadrep.exact:Polynomial", "eval_batch", "exact.eval_batch", _term_rows, None),
    ("quadrep.coefficients", "suspension_triple", "coefficients.suspension_triple", None, None),
    ("quadrep.coefficients", "verify_triple", "coefficients.verify_triple", None, None),
    ("quadrep.maps", "catalog", "maps.catalog", None, None),
    ("quadrep.maps", "suspend", "maps.suspend", None, None),
    ("quadrep.maps", "compose_maps", "maps.compose_maps", None, None),
    ("quadrep.maps", "hopf_pair", "maps.hopf_pair", None, None),
    ("quadrep.maps", "certify_order", "maps.certify_order", None, _label_and_order),
    ("quadrep.maps", "_grid_cert", "maps.grid_cert", None, None),
    ("quadrep.maps", "bilinear_pairing", "maps.bilinear_pairing", None, None),
    ("quadrep.maps:PolyMap", "eval_exact", "maps.PolyMap.eval_exact", None, None),
    ("quadrep.maps:PolyMap", "eval_batch", "maps.PolyMap.eval_batch", _map_rows, None),
    ("quadrep.numeric", "hopf_invariant", "numeric.hopf_invariant", None, None),
    ("quadrep.numeric", "gauss_linking", "numeric.gauss_linking", None, None),
    ("quadrep.numeric", "sphere_degree", "numeric.sphere_degree", None, None),
    ("quadrep.numeric", "hemisphere_check", "numeric.hemisphere_check", None, None),
    ("quadrep.numeric", "quadric_residual_scan", "numeric.quadric_residual_scan", None, None),
    ("quadrep.serialize", "read_document", "serialize.read_document", _read_bytes, None),
    ("quadrep.serialize", "document_to_map", "serialize.document_to_map", None, None),
    ("quadrep.serialize", "map_to_document", "serialize.map_to_document", None, None),
    ("quadrep.serialize", "write_document", "serialize.write_document", _write_bytes, None),
    ("quadrep.cli", "main", "cli.main", None, None),
]

# Per-layer metrics reported from a traced pass, in report order.  Names
# ending in ".self_s" are summed self times; ".calls" count spans; the
# other counts sum the span sizes given by TARGETS.
LAYER_METRICS = [
    ("exact.mul.calls", "count"),
    ("exact.mul.products", "count"),
    ("exact.mul.self_s", "s"),
    ("exact.square.calls", "count"),
    ("exact.square.products", "count"),
    ("exact.square.self_s", "s"),
    ("exact.pow.self_s", "s"),
    ("exact.add.self_s", "s"),
    ("exact.eval_exact.calls", "count"),
    ("exact.eval_exact.terms", "count"),
    ("exact.eval_exact.self_s", "s"),
    ("exact.eval_batch.calls", "count"),
    ("exact.eval_batch.term_rows", "count"),
    ("exact.eval_batch.self_s", "s"),
    ("coefficients.suspension_triple.calls", "count"),
    ("coefficients.verify_triple.calls", "count"),
    ("coefficients.verify_triple.self_s", "s"),
    ("maps.catalog.calls", "count"),
    ("maps.suspend.calls", "count"),
    ("maps.suspend.self_s", "s"),
    ("maps.compose_maps.calls", "count"),
    ("maps.compose_maps.self_s", "s"),
    ("maps.hopf_pair.calls", "count"),
    ("maps.certify_order.calls", "count"),
    ("maps.certify_order.distinct", "count"),
    ("maps.certify_order.reuse_ratio", "ratio"),
    ("maps.certify_order.self_s", "s"),
    ("maps.certify_order.grid_s", "s"),
    ("maps.bilinear_pairing.self_s", "s"),
    ("maps.PolyMap.eval_exact.calls", "count"),
    ("maps.PolyMap.eval_exact.self_s", "s"),
    ("maps.PolyMap.eval_batch.calls", "count"),
    ("maps.PolyMap.eval_batch.rows", "count"),
    ("maps.PolyMap.eval_batch.self_s", "s"),
    ("numeric.hopf_invariant.self_s", "s"),
    ("numeric.gauss_linking.self_s", "s"),
    ("numeric.sphere_degree.self_s", "s"),
    ("numeric.hemisphere_check.self_s", "s"),
    ("numeric.quadric_residual_scan.self_s", "s"),
    ("serialize.read_document.bytes", "count"),
    ("serialize.read_document.self_s", "s"),
    ("serialize.document_to_map.self_s", "s"),
    ("serialize.map_to_document.self_s", "s"),
    ("serialize.write_document.bytes", "count"),
    ("serialize.write_document.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

# Count metrics whose value is the sum of span sizes, by span name.
_SIZE_METRICS = {
    "exact.mul.products": "exact.mul",
    "exact.square.products": "exact.square",
    "exact.eval_exact.terms": "exact.eval_exact",
    "exact.eval_batch.term_rows": "exact.eval_batch",
    "maps.PolyMap.eval_batch.rows": "maps.PolyMap.eval_batch",
    "serialize.read_document.bytes": "serialize.read_document",
    "serialize.write_document.bytes": "serialize.write_document",
}


class Tracer:
    """Records one span per wrapped call; spans live in ``self.spans``.

    A span is a list [start, end, parent, name, size, key]; ``parent`` is
    the index of the enclosing span or -1.  Each thread keeps its own stack
    of open spans; a span opened on a worker thread with an empty stack is
    parented to the main thread's innermost open span, the call that is
    waiting for the worker.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []
        # Span indices are taken under a lock: the sampled scan opens spans
        # on several threads at once.
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main_ident and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = [self.clock(), 0.0, parent, name, 0, key]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def close(self, span: list, size: int = 0):
        span[END] = self.clock()
        span[SIZE] = size
        self._stack().pop()

    def wrap(self, fn, name: str, size=None, key=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, key(args) if key is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, size(args, result) if size is not None else 0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target in every loaded ``quadrep`` namespace holding it."""
        modules = [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "quadrep" and mod]
        for owner, attr, name, size, key in targets:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._replace(cls, attr, self.wrap(original, name, size, key))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, size, key)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: str):
        """Write the spans as JSON lines: name, start, end, parent, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "size": span[SIZE],
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except trace.overhead_s."""
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        sizes[span[NAME]] += span[SIZE]
        selfs[span[NAME]] += own
    certify_keys = {span[KEY] for span in spans if span[NAME] == "maps.certify_order"}
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric in _SIZE_METRICS:
            out[metric] = sizes[_SIZE_METRICS[metric]]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s"):
            out[metric] = selfs[metric[: -len(".self_s")]]
    certify_calls = calls["maps.certify_order"]
    out["maps.certify_order.distinct"] = len(certify_keys)
    out["maps.certify_order.reuse_ratio"] = len(certify_keys) / certify_calls if certify_calls else 0.0
    grid = [span for span in spans if span[NAME] == "maps.grid_cert"]
    out["maps.certify_order.grid_s"] = sum(span[END] - span[START] for span in grid)
    out["trace.spans"] = len(spans)
    return out
