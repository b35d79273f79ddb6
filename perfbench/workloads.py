"""Workload definitions: documents prepared in set-up, the ops of one pass,
and the correctness check of every op.

An op is either a CLI command run in-process through ``quadrep.cli.main``
with stdout captured, or a library call where the CLI has no command for
the job (``generate pi_np3:n`` exits 2 by design: those maps have no
materialized components).  Every op belongs to one of three groups; the
benchmark reports the per-pass time of each group as ``group1_s`` to
``group3_s``.  README.md gives the reason for each workload and group.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("construct", "certify", "numeric")

DEEP_TARGET = "pi_np2:4"
SUSPENSION_SWEEP = [f"pi_n:{n},{d}" for n in range(1, 5) for d in range(-3, 4)] + [
    f"pi_np1:{n}" for n in range(3, 7)
]
COMPOSITION_SWEEP = [f"pi3_s2:{d}" for d in range(-2, 3)] + ["pi_np2:2"]
SWEEPS_PER_PASS = 2

# The lineage document: its components exceed the exact expansion budget,
# so `verify --mode exact` refutes on the document and then certifies the
# map rebuilt from its catalog label.
LINEAGE_TARGET = "pi3_s2:7"
CHAIN_TARGET, CHAIN_ORDER = "pi_np3:3", 43
GRID_TARGET = "pi_n:4,2"

# Documents prepared in set-up, per workload: file name -> catalog target.
SETUP_DOCUMENTS = {
    "construct": {},
    "certify": {"lineage.json": LINEAGE_TARGET, "small.json": GRID_TARGET},
    "numeric": {
        "hopf.json": "pi3_s2:1",
        "degree_sphere.json": "pi_n:2,3",
        "degree_circle.json": "pi_n:1,5",
        "hemisphere.json": "pi_np1:4",
        "lineage.json": LINEAGE_TARGET,
    },
}
# Corrupted copies made in set-up: copy -> source document.
SETUP_CORRUPTIONS = {"certify": {"small_bad.json": "small.json"}}


class CheckFailed(Exception):
    pass


def ensure(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    group: int
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # Which reference loop the op's time is divided by: "python" for ops
    # that spend their time in the interpreter, "numpy" for ops that spend
    # it in numpy kernels on one thread, "threaded" for ops that spread numpy
    # kernels over a thread pool.
    kind: str = "python"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def document_digest(path: str) -> str:
    """sha256 of a document's components, order and dimensions.

    Certificates are left out, so that a richer certificate ``detail`` does
    not change the digest.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    core = {key: doc[key] for key in ("components", "order", "domain_dim", "codomain_dim")}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_name(target: str) -> str:
    return target.replace(":", "_").replace(",", "_") + ".json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    import quadrep.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = quadrep.cli.main(argv)
    return code, out.getvalue()


def corrupt_document(src: str, dst: str, seed: int) -> None:
    """Copy a document with one coefficient changed, chosen by the seed.

    Only terms whose monomial involves a variable other than the first are
    candidates.  The refutation scan's first point is (2, 0, ..., 0), which
    such a term does not see, so every seed is caught at the second point
    and the work of the op does not depend on the seed.
    """
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    candidates = [
        (ci, ti)
        for ci, comp in enumerate(doc["components"])
        for ti, term in enumerate(comp)
        if any(term["exponents"][1:])
    ]
    ci, ti = random.Random(seed).choice(candidates)
    term = doc["components"][ci][ti]
    new_re = Fraction(term["re"]) + 1
    if new_re == 0 and Fraction(term["im"]) == 0:
        new_re += 1
    term["re"] = str(new_re)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n")


# ------------------------------------------------------------------ checks


def _report(result, code: int) -> dict:
    got_code, stdout = result
    ensure(got_code == code, f"exit code {got_code}, expected {code}")
    return json.loads(stdout)


def check_generate(target: str, path: str, expected: dict):
    want = expected["documents"][target]

    def check(result):
        report = _report(result, 0)
        cert = report["certificate"]
        ensure(report["order"] == want["order"], f"order {report['order']}, expected {want['order']}")
        ensure(cert["verdict"] == "pass", "certificate verdict is not pass")
        ensure(cert["method"] == want["method"], f"method {cert['method']}, expected {want['method']}")
        ensure(document_digest(path) == want["digest"], f"document digest of {target} changed")

    return check


def check_chain(order: int):
    def check(pmap):
        cert = pmap.certificate
        ensure(pmap.order == order, f"order {pmap.order}, expected {order}")
        ensure(cert is not None and cert.verdict, "certificate missing or failing")
        ensure(cert.method == "factored-expansion", f"method {cert.method}")
        ensure(pmap.components is None, "torsion-chain map unexpectedly materialized")

    return check


def _single_check(result, code: int) -> dict:
    report = _report(result, code)
    ensure(len(report["checks"]) == 1, "expected exactly one check")
    return report["checks"][0]


def check_verify(order: int, method: str, passes: bool):
    def check(result):
        entry = _single_check(result, 0 if passes else 3)
        ensure(entry["name"] == f"order-{order}", f"check {entry['name']}, expected order-{order}")
        ensure(entry["verdict"] == ("pass" if passes else "fail"), f"verdict {entry['verdict']}")
        ensure(entry["method"] == method, f"method {entry['method']}, expected {method}")
        if not passes:
            ensure(bool(entry.get("witness")), "failure without a witness")

    return check


def check_export(src: str, dst: str):
    def check(result):
        ensure(result[0] == 0, f"exit code {result[0]}, expected 0")
        with open(src, "rb") as a, open(dst, "rb") as b:
            ensure(a.read() == b.read(), "export is not byte-identical")

    return check


def check_hopf(result):
    entry = _single_check(result, 0)
    ensure(entry["verdict"] == "pass", "hopf check failed")
    ensure(abs(entry["value"]) == 1, f"hopf invariant {entry['value']}, expected +-1")
    ensure(entry["defect"] < 0.05, f"linking defect {entry['defect']}")


def check_degree(degree: int):
    def check(result):
        entry = _single_check(result, 0)
        ensure(entry["verdict"] == "pass", "degree check failed")
        ensure(entry["value"] == degree, f"degree {entry['value']}, expected {degree}")

    return check


def check_hemisphere(result):
    entry = _single_check(result, 0)
    ensure(entry["verdict"] == "pass", "hemisphere check failed")


def check_sampled(result):
    entry = _single_check(result, 0)
    ensure(entry["verdict"] == "pass", "sampled residual scan failed")
    ensure(entry["value"] < 1e-9, f"residual {entry['value']}")


# -------------------------------------------------------------------- jobs


def _generate_op(group: int, target: str, gen_dir: str, expected: dict) -> Op:
    path = os.path.join(gen_dir, file_name(target))
    argv = ["generate", target, "-o", path]
    return Op(group, f"generate {target}", lambda: run_cli(argv), check_generate(target, path, expected))


def _cli_op(group: int, argv: list[str], check, kind: str = "python") -> Op:
    name = " ".join(os.path.basename(a) if a.endswith(".json") else a for a in argv)
    return Op(group, name, lambda: run_cli(argv), check, kind)


def _catalog_op(group: int, target: str, order: int) -> Op:
    def call():
        import quadrep.maps

        return quadrep.maps.catalog(target)

    return Op(group, f"catalog {target}", call, check_chain(order))


def pass_ops(workload: str, work: str, seed: int) -> list[Op]:
    """The ops of one pass, in the order they run."""
    expected = load_expected()

    def doc(name: str) -> str:
        return os.path.join(work, name)

    seed_args = ["--seed", str(seed)]
    if workload == "construct":
        gen_dir = doc("gen")
        os.makedirs(gen_dir, exist_ok=True)
        ops = [_generate_op(1, DEEP_TARGET, gen_dir, expected)]
        for _ in range(SWEEPS_PER_PASS):
            ops += [_generate_op(2, t, gen_dir, expected) for t in SUSPENSION_SWEEP]
            ops += [_generate_op(3, t, gen_dir, expected) for t in COMPOSITION_SWEEP]
        return ops
    if workload == "certify":
        lineage_order = expected["documents"][LINEAGE_TARGET]["order"]
        small_order = expected["documents"][GRID_TARGET]["order"]
        return [
            _catalog_op(1, CHAIN_TARGET, CHAIN_ORDER),
            _cli_op(2, ["verify", doc("lineage.json"), "--mode", "exact"],
                    check_verify(lineage_order, "factored-expansion", True)),
            _cli_op(2, ["verify", doc("small_bad.json"), "--mode", "exact"],
                    check_verify(small_order, "exact-evaluation", False)),
            _cli_op(3, ["verify", doc("small.json"), "--mode", "grid"],
                    check_verify(small_order, "exact-evaluation", True)),
            _cli_op(3, ["export", doc("lineage.json"), "-o", doc("export.json")],
                    check_export(doc("lineage.json"), doc("export.json"))),
        ]
    if workload == "numeric":
        # The sphere-degree quadrature sets the pass's peak RSS; running it
        # first keeps that peak independent of the seed-dependent Hopf ops.
        # Hopf tracing makes ~84k numpy calls on tiny arrays, so its time is
        # interpreter overhead; the other ops run numpy kernels on large arrays.
        # The sampled scan spreads its chunks over a thread pool.
        return [
            _cli_op(1, ["invariants", doc("degree_sphere.json"), "--check", "degree"], check_degree(3), "numpy"),
            _cli_op(1, ["invariants", doc("degree_circle.json"), "--check", "degree"], check_degree(5), "numpy"),
            _cli_op(1, ["invariants", doc("hemisphere.json"), "--check", "hemisphere"], check_hemisphere, "numpy"),
            _cli_op(2, ["invariants", doc("hopf.json"), "--check", "hopf", *seed_args], check_hopf),
            _cli_op(3, ["verify", doc("lineage.json"), "--mode", "sampled", *seed_args], check_sampled, "threaded"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_ops(workload: str, work: str, seed: int) -> list[Op]:
    """Generate (and check) the documents a workload's passes read."""
    expected = load_expected()
    ops = []
    for name, target in SETUP_DOCUMENTS[workload].items():
        path = os.path.join(work, name)
        argv = ["generate", target, "-o", path]
        ops.append(Op(0, f"generate {target}", lambda argv=argv: run_cli(argv), check_generate(target, path, expected)))
    for name, source in SETUP_CORRUPTIONS.get(workload, {}).items():
        src, dst = os.path.join(work, source), os.path.join(work, name)
        ops.append(Op(0, f"corrupt {source}", lambda src=src, dst=dst: corrupt_document(src, dst, seed), lambda _: None))
    return ops


def all_generate_targets() -> list[str]:
    """Every target whose document the gate checks against expected.json."""
    targets = [DEEP_TARGET, *SUSPENSION_SWEEP, *COMPOSITION_SWEEP]
    for docs in SETUP_DOCUMENTS.values():
        targets += docs.values()
    return sorted(set(targets))
