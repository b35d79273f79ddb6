"""Command-line surface: generate, verify, invariants, export.

One command produces one verdict and one JSON report on stdout, so CI
pipelines can compose generate/verify/invariants without parsing logs.
Exit codes: 0 pass, 2 usage or format problem, 3 mathematical failure;
``main`` alone turns an error into its code.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Optional

from . import numeric
from .maps import (
    DEFAULT_MATERIALIZE_BUDGET,
    CatalogError,
    DimensionMismatch,
    InfeasibleError,
    MapError,
    PolyMap,
    PreconditionError,
    catalog,
    certify_order,
    rebuild_from_lineage,
)
from .numeric import NumericError
from .serialize import (
    DocumentError,
    document_parts,
    dumps_canonical,
    read_document,
    write_document,
)

EXIT_PASS = 0
EXIT_USAGE = 2
EXIT_MATH = 3
# Errors that exit 2: an unreadable document, an unknown target, a value
# beyond the float range, or a request beyond a budget or outside a map's
# shape or construction.  Every other NumericError or MapError exits 3.
_USAGE_ERRORS = (DocumentError, CatalogError, OverflowError, InfeasibleError, DimensionMismatch, PreconditionError)


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _strict(value):
    """``value`` with every float that is not finite spelled as a string
    ("nan", "inf", "-inf"), so the report stays strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_canonical(_strict(report)))


# ----------------------------------------------------------------- commands


def _cmd_generate(args) -> int:
    t0 = time.time()
    pmap = catalog(args.target, materialize_budget=args.materialize_budget)
    write_document(pmap, args.output)
    _emit(
        {
            "command": "generate",
            "target": args.target,
            "output": args.output,
            "domain_dim": pmap.m,
            "codomain_dim": pmap.r,
            "order": pmap.order,
            "certificate": pmap.certificate.summary() if pmap.certificate else None,
            "wall_time_s": round(time.time() - t0, 6),
        }
    )
    return EXIT_PASS


def _check_order(pmap: PolyMap, args) -> list[dict]:
    if pmap.order is None:
        raise _Failure(EXIT_USAGE, "document carries no order claim to verify")
    method = "expansion" if args.mode == "exact" else "grid"
    try:
        cert = certify_order(pmap, pmap.order, method=method)
        note = None
    except InfeasibleError as exc:
        if args.mode == "grid":
            raise _Failure(EXIT_USAGE, f"{exc}; use --mode exact or --mode sampled")
        rebuilt = rebuild_from_lineage(pmap)
        cert = rebuilt.certificate
        if rebuilt.order != pmap.order:
            cert = certify_order(rebuilt, pmap.order, method="expansion")
        note = "components too large for direct expansion; certified the lineage rebuild, which matches the document exactly"
    return [
        {
            "name": f"order-{pmap.order}",
            "verdict": "pass" if cert.verdict else "fail",
            "method": cert.method,
            "witness": cert.witness,
            "note": note,
        }
    ]


def _entry(name: str, passed: bool, tolerance: float, **margins) -> dict:
    """The report entry of one numeric check: its name, verdict and
    tolerance, and the margins that show how far it was from failing."""
    return {"name": name, "verdict": "pass" if passed else "fail", "tolerance": tolerance, **margins}


def _check_residual(pmap: PolyMap, args) -> list[dict]:
    residual = numeric.quadric_residual_scan(pmap, samples=args.samples, seed=args.seed)
    tol = numeric.RESIDUAL_TOL
    return [_entry("quadric-residual-scan", residual < tol, tol, value=residual, samples=args.samples)]


def _check_degree(pmap: PolyMap, args) -> list[dict]:
    if pmap.m == 2 and pmap.r == 2:
        name, res, tol = "winding-degree", numeric.winding_degree(pmap), numeric.WINDING_DEFECT_TOL
    elif pmap.m == 3 and pmap.r == 3:
        name, res, tol = "sphere-degree", numeric.sphere_degree(pmap, grid=args.grid), numeric.DEGREE_DEFECT_TOL
    else:
        raise _Failure(EXIT_USAGE, "degree checks need m = r = 2 (winding) or m = r = 3 (quadrature)")
    return [_entry(name, True, tol, value=res.value, defect=res.defect)]


# the fields of numeric.HopfResult and numeric.HemisphereResult that their entries report
_HOPF_MARGINS = (
    "value", "defect", "nodes", "rejected_steps", "newton_iterations", "overflow_seeds",
    "rank_drop_seeds", "retries", "min_singular_values", "closure_gaps", "separation",
)
_HEMISPHERE_MARGINS = ("max_tail_deviation", "min_u_scale", "equator_max", "sign_violations")


def _check_hopf(pmap: PolyMap, args) -> list[dict]:
    res = numeric.hopf_invariant(pmap, seed=args.seed)
    margins = {name: getattr(res, name) for name in _HOPF_MARGINS}
    return [_entry("hopf-invariant", True, numeric.DEGREE_DEFECT_TOL, curves=len(res.curves), **margins)]


def _check_hemisphere(pmap: PolyMap, args) -> list[dict]:
    res = numeric.hemisphere_check(rebuild_from_lineage(pmap), samples=args.samples, seed=args.seed)
    margins = {name: getattr(res, name) for name in _HEMISPHERE_MARGINS}
    note = (
        "certifies equator/hemisphere sign preservation, the hypothesis of "
        "the suspension argument, not the homotopy-class conclusion itself"
    )
    return [_entry("hemisphere-preservation", res.passed, numeric.HEMISPHERE_TOL, note=note, **margins)]


def _check_homotopies(pmap: PolyMap, args) -> list[dict]:
    homotopies = [("retraction-homotopy-residual", numeric.retraction_homotopy_residual, pmap.m)]
    if pmap.order is not None and pmap.order % 2 == 0 and pmap.order > 0:
        homotopies.append(("even-order-contraction-residual", numeric.even_order_nullhomotopy_residual, pmap))
    out, tol = [], numeric.RESIDUAL_TOL
    for name, residual_of, arg in homotopies:
        residual = residual_of(arg, samples=max(args.samples // 10, 20), seed=args.seed)
        out.append(_entry(name, residual < tol, tol, value=residual))
    return out


# --mode and --check values -> the function that runs their checks on a document
_VERIFY_MODES = {"exact": _check_order, "grid": _check_order, "sampled": _check_residual}
_INVARIANT_CHECKS = {
    "degree": _check_degree,
    "hopf": _check_hopf,
    "hemisphere": _check_hemisphere,
    "homotopies": _check_homotopies,
}


def _checks_command(key: str, checks_by_value: dict):
    """The command that reads a document, runs the checks that its option
    ``key`` selects from ``checks_by_value`` and reports them; it exits 3
    when a check fails."""

    def command(args) -> int:
        t0 = time.time()
        checks = checks_by_value[getattr(args, key)](read_document(args.input), args)
        _emit(
            {
                "command": args.command,
                "input": args.input,
                key: getattr(args, key),
                "seed": args.seed,
                "checks": checks,
                "wall_time_s": round(time.time() - t0, 6),
            }
        )
        return EXIT_MATH if any(c["verdict"] != "pass" for c in checks) else EXIT_PASS

    return command


def _cmd_export(args) -> int:
    pmap = read_document(args.input)
    if args.output == "-":
        sys.stdout.writelines(document_parts(pmap))
    else:
        write_document(pmap, args.output)
    return EXIT_PASS


# -------------------------------------------------------------------- main


def _at_least(minimum: int):
    """argparse type: an integer >= minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.lower().split("x"))
    except ValueError:
        a = b = 0
    if a < 1 or b < 1:
        raise argparse.ArgumentTypeError("grid must be two integers >= 1, like 400x200")
    return a, b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrep",
        description="Construct, exactly verify and numerically certify polynomial maps between complex affine quadrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sampling(p):
        p.add_argument("--seed", type=_at_least(0), default=0, help="seed for all sampling")
        p.add_argument("--samples", type=_at_least(1), default=10_000, help="sample count for scans")

    p_gen = sub.add_parser("generate", help="build a catalog map and write its document")
    p_gen.add_argument("target", help="catalog target, e.g. pi_np1:3 or pi_n:1,2")
    p_gen.add_argument("-o", "--output", required=True, help="output document path")
    p_gen.add_argument(
        "--materialize-budget",
        type=_at_least(0),
        default=DEFAULT_MATERIALIZE_BUDGET,
        help="coefficient-product budget for the explicit components of every map "
        "the target is built from (the deep torsion-chain maps need billions of products)",
    )
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="verify a document's order claim")
    p_ver.add_argument("input", help="map document path")
    p_ver.add_argument("--mode", choices=tuple(_VERIFY_MODES), default="exact")
    sampling(p_ver)
    p_ver.set_defaults(func=_checks_command("mode", _VERIFY_MODES))

    p_inv = sub.add_parser("invariants", help="numeric invariant checks on a document")
    p_inv.add_argument("input", help="map document path")
    p_inv.add_argument("--check", choices=tuple(_INVARIANT_CHECKS), required=True)
    p_inv.add_argument("--grid", type=_parse_grid, default=(400, 200), help="quadrature grid, e.g. 400x200")
    sampling(p_inv)
    p_inv.set_defaults(func=_checks_command("check", _INVARIANT_CHECKS))

    p_exp = sub.add_parser("export", help="re-emit a document in canonical form")
    p_exp.add_argument("input", help="map document path")
    p_exp.add_argument("-o", "--output", required=True, help="output path, or - for stdout")
    p_exp.set_defaults(func=_cmd_export)

    return parser


@functools.cache  # one parser per process: building it costs more than many commands take
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (_Failure, DocumentError, OverflowError, NumericError, MapError) as exc:
        print(f"quadrep: {exc}", file=sys.stderr)
        if isinstance(exc, _Failure):
            return exc.code
        return EXIT_USAGE if isinstance(exc, _USAGE_ERRORS) else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
