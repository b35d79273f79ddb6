"""One child process of the benchmark: a set-up, a measured pass, or the
recording of expected.json.

Each pass runs in a fresh process, so nothing the program keeps in memory
carries over from one pass to the next; only the repeats inside one pass
(the construct sweep) can share work.

    python3 perfbench/worker.py setup --workload W --seed N --work DIR --out FILE
    python3 perfbench/worker.py pass  --workload W --seed N --work DIR --out FILE [--spans FILE]
    python3 perfbench/worker.py record
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

# Reference loops timed before and after each run of ops; their mean is the
# host's speed at the time (see References).
REF_LOOPS = 3
# Worker threads of the "threaded" loop: the sampled scan's default.
REF_THREADS = 2


class References:
    """Fixed reference loops, timed just before and just after each run of
    ops of one group.

    The host's speed drifts by up to 2x over tens of seconds, so an op's
    time is also reported divided by the mean time of the reference loops
    measured around it.  The loops never change: they do the same work on
    every commit.  The "python" loop does dict updates and integer
    arithmetic in the interpreter; the "numpy" loop does complex
    multiply-adds on large arrays; the "threaded" loop does that work twice,
    in 16 chunks on a pool of REF_THREADS threads, as the sampled scan
    spreads its chunks over its thread pool.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._z = rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)

    def python(self) -> int:
        acc: dict[int, int] = {}
        for i in range(20_000):
            key = i % 97
            acc[key] = acc.get(key, 0) + (i * 7919) ** 3 % 1_000_003
        return len(acc)

    def numpy(self, chunk: slice = slice(None)) -> float:
        z = self._z[chunk]
        acc = z.copy()
        for _ in range(5):
            acc = acc * z + z
        return float(abs(acc[0]))

    def threaded(self) -> float:
        step = len(self._z) // 8
        chunks = [slice(i, i + step) for i in range(0, len(self._z), step)] * 2
        with ThreadPoolExecutor(max_workers=REF_THREADS) as pool:
            return max(pool.map(self.numpy, chunks))

    def seconds(self, kind: str) -> float:
        loop = getattr(self, kind)
        start = time.perf_counter()
        loop()
        return time.perf_counter() - start


def run_op(op: workloads.Op) -> dict:
    """Run one op, timing it alone, then check its result."""
    error = result = None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    if error is not None:
        print(error, file=sys.stderr, end="")
        error = "raised " + error.strip().splitlines()[-1]
    else:
        try:
            op.check(result)
        except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        print(f"perfbench: op {op.name!r} failed: {error}", file=sys.stderr)
    return {"group": op.group, "name": op.name, "seconds": elapsed, "ref": None, "ok": error is None, "error": error}


def run_ops(ops: list[workloads.Op], refs: References | None = None) -> list[dict]:
    """Run ops one after another.

    With ``refs``, each run of consecutive ops of one group and loop kind
    is bracketed by REF_LOOPS reference loops on each side, and each op's
    time divided by the mean of those loops is its ``ref`` time.
    """
    records = []
    for (_, kind), segment in itertools.groupby(ops, key=lambda op: (op.group, op.kind)):
        loops = [refs.seconds(kind) for _ in range(REF_LOOPS)] if refs else []
        first = len(records)
        records += [run_op(op) for op in segment]
        if refs:
            loops += [refs.seconds(kind) for _ in range(REF_LOOPS)]
            for record in records[first:]:
                record["ref"] = record["seconds"] / statistics.fmean(loops)
    return records


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    """The machine record, with the scan thread count capped at nproc."""
    import numpy
    from quadrep import numeric

    nproc = len(os.sched_getaffinity(0))
    if numeric.thread_count() > nproc:
        numeric.set_thread_count(nproc)
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": numeric.thread_count(),
    }


def cmd_setup(args) -> dict:
    """Imports and document preparation, with no reference loops: the wall
    time of this process is the set-up time."""
    import quadrep.cli  # noqa: F401  (imports are part of set-up)

    os.makedirs(args.work, exist_ok=True)
    return {"ops": run_ops(workloads.setup_ops(args.workload, args.work, args.seed))}


def cmd_pass(args) -> dict:
    import quadrep.cli  # noqa: F401
    from tracer import Tracer, layer_metrics

    info = machine()
    ops = workloads.pass_ops(args.workload, args.work, args.seed)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    try:
        records = run_ops(ops, References())
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": info,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
        tracer.write(args.spans)
    return out


def cmd_record() -> None:
    """Regenerate expected.json from the program at the current commit."""
    expected = {"documents": {}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-record-") as tmp:
        for target in workloads.all_generate_targets():
            path = os.path.join(tmp, workloads.file_name(target))
            code, stdout = workloads.run_cli(["generate", target, "-o", path])
            if code != 0:
                raise SystemExit(f"generate {target} exited {code}")
            report = json.loads(stdout)
            expected["documents"][target] = {
                "order": report["order"],
                "method": report["certificate"]["method"],
                "digest": workloads.document_digest(path),
            }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "pass", "record"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.command == "record":
        cmd_record()
        return 0
    if args.workload is None or args.work is None or args.out is None:
        parser.error("setup and pass need --workload, --work and --out")
    result = cmd_setup(args) if args.command == "setup" else cmd_pass(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
