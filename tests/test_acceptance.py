"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings.  Every tolerance is pinned here, not configurable.
"""

import time
from pathlib import Path

import pytest

from quadrep.coefficients import SuspensionTriple, suspension_triple, verify_triple
from quadrep.exact import GaussianRational, Polynomial
from quadrep.maps import (
    InfeasibleError,
    PolyMap,
    SuspensionNode,
    bilinear_pairing,
    blend_homotopy,
    catalog,
    certify_order,
    circle_pair,
    compose_maps,
    hopf_pair,
    suspend,
)
from quadrep.numeric import (
    even_order_nullhomotopy_residual,
    hemisphere_check,
    hopf_invariant,
    quadric_residual_scan,
    retraction_homotopy_residual,
    sphere_degree,
    winding_degree,
)

RESIDUAL_TOL = 1e-9
DEFECT_TOL = 0.05


def _line(ok: bool, text: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


@pytest.fixture(scope="module")
def chain():
    """The deep construction chain, built once: f, g, phi, f1, g1, Phi, f2, g2."""
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    f1 = compose_maps(f, phi)
    g1 = compose_maps(g, phi)
    big_phi = suspend(f1, g1, 1)
    f2 = compose_maps(f, big_phi)
    g2 = compose_maps(g, big_phi)
    return f, g, phi, f1, g1, big_phi, f2, g2


def test_criterion_1_triple_exactness():
    t0 = time.time()
    for k in range(1, 9):
        triple = suspension_triple(k)
        cert = verify_triple(triple)
        assert cert.verdict and cert.method == "full-expansion", f"k={k}"
        b = triple.f_coeff - Polynomial.constant(2, GaussianRational(1, 0).re / 4)
        assert triple.f_coeff.square() + triple.g_coeff.square() == b, f"k={k} split"
        assert all(c.is_real() and c.re > 0 for c in triple.series.terms.values()), f"k={k} positivity"
    elapsed = time.time() - t0
    _line(
        elapsed < 1.0,
        f"criterion 1: coefficient triples k=1..8 verified by full expansion, "
        f"split and positivity witnesses hold ({elapsed:.3f} s < 1 s)",
    )


def test_criterion_2_hopf_pair_exact():
    t0 = time.time()
    f, g = hopf_pair()
    cf = certify_order(f, 2, method="expansion")
    cg = certify_order(g, 2, method="expansion")
    orth = bilinear_pairing(f, g)
    ok = cf.verdict and cg.verdict and orth.is_zero()
    elapsed = time.time() - t0
    _line(
        ok and elapsed < 1.0,
        f"criterion 2: hopf pair has exact order 2 and exact b-orthogonality "
        f"({elapsed:.3f} s < 1 s)",
    )


def test_criterion_3_chain_exactness(chain):
    f, g, phi, f1, g1, big_phi, f2, g2 = chain
    t0 = time.time()
    c_phi = certify_order(phi, 3, method="expansion")
    assert c_phi.verdict, "phi must certify order 3"
    c_f1 = certify_order(f1, 6, method="expansion")
    c_g1 = certify_order(g1, 6, method="expansion")
    assert c_f1.verdict and c_g1.verdict, "f1, g1 must certify order 6"
    assert bilinear_pairing(f1, g1).is_zero(), "f1, g1 must be exactly b-orthogonal"
    c_big = certify_order(big_phi, 11, method="expansion")
    assert c_big.verdict, "Phi must certify order 11"

    # the literal grid zero test of q(f2) - q^22 is demonstrably out of
    # reach: print the exact point requirement, then certify exactly
    grid_note = ""
    try:
        certify_order(f2, 22, method="grid")
        grid_note = "grid unexpectedly feasible"
    except InfeasibleError as exc:
        grid_note = str(exc).split(";")[0]
    c_f2 = certify_order(f2, 22, method="expansion")
    assert c_f2.verdict, "f2 must certify order 22"
    assert c_f2.method == "factored-expansion"
    elapsed = time.time() - t0
    _line(
        elapsed < 600.0,
        f"criterion 3: chain certifies exactly (phi:3 {c_phi.method}, f1/g1:6 "
        f"full-expansion + orthogonality, Phi:11 {c_big.method}, f2:22 {c_f2.method}; "
        f"{grid_note}) ({elapsed:.1f} s < 600 s)",
    )


def test_criterion_4_suspension_order_law(chain):
    f, g, phi, f1, g1, big_phi, f2, g2 = chain
    t0 = time.time()
    pairs = [("hopf", f, g), ("order-6 pair", f1, g1), ("order-22 pair", f2, g2)]
    pairs += [(f"circle({d})", *circle_pair(d)) for d in (-3, -2, -1, 1, 2, 3)]
    checked = 0
    for name, a, b in pairs:
        for ell in (1, 2, 3):
            sus = suspend(a, b, ell)
            expect = 2 * a.order - 1
            assert sus.order == expect, f"{name} ell={ell}"
            assert sus.certificate.verdict, f"{name} ell={ell}"
            checked += 1
    elapsed = time.time() - t0
    _line(
        True,
        f"criterion 4: suspension order 2k-1 certified exactly for "
        f"{checked} pair/ell combinations ({elapsed:.1f} s)",
    )


def test_criterion_5_degree_reproduction():
    degrees = [-3, -2, -1, 1, 2, 3]
    worst_time = 0.0
    for d in degrees:
        t0 = time.time()
        wd = winding_degree(circle_pair(d)[0])
        assert wd.value == d and wd.defect < 0.01, f"winding d={d}"
        sd = sphere_degree(catalog(f"pi_n:2,{d}"), grid=(400, 200))
        assert sd.value == d and sd.defect < DEFECT_TOL, f"sphere degree d={d}"
        worst_time = max(worst_time, time.time() - t0)
    _line(
        worst_time < 30.0,
        f"criterion 5: winding and suspended S^2 degrees reproduce d in "
        f"{degrees}, defects < {DEFECT_TOL} (worst map {worst_time:.1f} s < 30 s)",
    )


def test_criterion_6_hopf_invariant():
    t0 = time.time()
    f, _ = hopf_pair()
    res = hopf_invariant(f, seed=0)
    elapsed = time.time() - t0
    _line(
        abs(res.value) == 1 and res.defect < DEFECT_TOL and elapsed < 120.0,
        f"criterion 6: |hopf invariant| = {abs(res.value)} with linking defect "
        f"{res.defect:.2e} < {DEFECT_TOL} ({elapsed:.1f} s < 120 s)",
    )


ACCEPTANCE_CATALOG = [
    "pi_n:1,1",
    "pi_n:1,-2",
    "pi_n:2,0",
    "pi_n:2,1",
    "pi_n:2,-2",
    "pi_n:2,3",
    "pi_n:3,2",
    "pi_np1:3",
    "pi_np1:4",
    "pi_np1:5",
    "pi_np2:2",
    "pi_np2:3",
    "pi_np2:4",
    "pi_np2:5",
    "pi3_s2:1",
    "pi3_s2:-1",
    "pi3_s2:2",
    "pi_np3:2",
    "pi_np3:3",
]


def test_criterion_7_structure_checks(chain):
    f, g, phi, f1, g1, big_phi, f2, g2 = chain
    t0 = time.time()

    hemi_targets = {"phi": phi, "Phi": big_phi}
    for n in (3, 4, 5):
        hemi_targets[f"pi_np1:{n}"] = catalog(f"pi_np1:{n}")
        hemi_targets[f"pi_np2:{n}"] = catalog(f"pi_np2:{n}")
    for name, pm in hemi_targets.items():
        res = hemisphere_check(pm, samples=1000, seed=0)
        assert res.passed, f"hemisphere check failed for {name}: {res}"

    worst = ("", 0.0)
    for target in ACCEPTANCE_CATALOG:
        pm = catalog(target)
        residual = quadric_residual_scan(pm, samples=10_000, seed=0)
        assert residual < RESIDUAL_TOL, f"{target}: residual {residual:.3e}"
        if residual > worst[1]:
            worst = (target, residual)

    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        blend = blend_homotopy(f, g, t)
        assert quadric_residual_scan(blend, samples=10_000, seed=0) < RESIDUAL_TOL, f"blend t={t}"

    retr = retraction_homotopy_residual(3, samples=100, seed=0)
    assert retr < RESIDUAL_TOL
    loop = even_order_nullhomotopy_residual(f, samples=200, seed=0)
    assert loop < RESIDUAL_TOL

    elapsed = time.time() - t0
    _line(
        True,
        f"criterion 7: hemisphere checks pass for {len(hemi_targets)} suspensions; "
        f"residual scans < 1e-9 for {len(ACCEPTANCE_CATALOG)} catalog maps "
        f"(worst {worst[1]:.2e} at {worst[0]}), blends, retraction "
        f"({retr:.2e}) and even-order loop ({loop:.2e}) ({elapsed:.1f} s)",
    )


def test_criterion_8_negative_controls(chain):
    f, g, phi, f1, g1, big_phi, f2, g2 = chain
    t0 = time.time()
    corrupted = 0
    for pm in (f, g, phi, f1, catalog("pi_n:2,2"), catalog("pi3_s2:1"), big_phi):
        comps = list(pm.components)
        for idx in range(len(comps)):
            target = comps[idx]
            mono = next(iter(target.terms))
            terms = dict(target.terms)
            terms[mono] = terms[mono] + GaussianRational(1)
            bad_comps = list(comps)
            bad_comps[idx] = Polynomial(target.nvars, terms)
            bad = PolyMap.explicit(bad_comps, f"corrupt({pm.label},{idx})")
            cert = certify_order(bad, pm.order)
            assert not cert.verdict, f"corruption of {pm.label}[{idx}] not caught"
            assert cert.witness, f"no witness for {pm.label}[{idx}]"
            corrupted += 1

    triple = phi.node.triple
    flipped = SuspensionTriple(
        triple.order, -triple.u_coeff, triple.f_coeff, triple.g_coeff,
        triple.series, triple.cofactor,
    )
    negated = PolyMap(phi.m, phi.r, node=SuspensionNode(f, g, flipped, 1), label="neg", order=3)
    hemi = hemisphere_check(negated, samples=500, seed=0)
    assert not hemi.passed, "negated u-coefficient must fail the hemisphere check"
    elapsed = time.time() - t0
    _line(
        True,
        f"criterion 8: {corrupted} single-coefficient corruptions all fail with "
        f"witnesses; negated suspension coefficient fails hemisphere check "
        f"({elapsed:.1f} s)",
    )


def test_criterion_9_nonreproducibility_note():
    note = (
        "homotopy nontriviality of the pi_(n+1), pi_(n+2) and pi_(n+3) torsion "
        "classes is not numerically decidable here; acceptance rests on the exact "
        "identity suite plus the degree, Hopf and hemisphere evidence"
    )
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    ok = "nontriviality" in text and "not numerically decidable" in text
    print(f"[NOTE] criterion 9: {note}")
    _line(ok, "criterion 9: the non-reproducibility note is recorded in README.md")
