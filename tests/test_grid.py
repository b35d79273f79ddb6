"""The multi-modular grid zero test against the per-point loop it replaced.

The reference below keeps the former ``_grid_cert`` loop: it visits every
grid point in ``itertools.product`` order, evaluates the numerators exactly
in Python ints and stops at the first point where the identity fails.  The
whole-grid test must give its verdict, witness, point count and bounds.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep.exact import GaussianRational, Polynomial
from quadrep.maps import (
    DEFAULT_EXPANSION_BUDGET,
    DEFAULT_GRID_BUDGET,
    InfeasibleError,
    PolyMap,
    _difference_at,
    _grid_cert,
    _grid_misses,
    catalog,
    certify_order,
    hopf_pair,
    quadratic_form,
    suspend,
)

# ------------------------------------------------------------ reference loop


def ref_grid(pmap: PolyMap, k: int):
    """(verdict, witness, grid points, per-variable bounds) by the point loop."""
    diff_bounds = [max(2 * b, 2 * k) for b in pmap.per_variable_bounds()]
    evaluator = pmap.evaluator()
    for combo in itertools.product(*(range(b + 1) for b in diff_bounds)):
        nums, scale = evaluator.numerators([(c, 0) for c in combo], 1)
        total_re = sum(re * re - im * im for re, im in nums)
        total_im = sum(re * im for re, im in nums)
        if total_im == 0 and total_re == sum(c * c for c in combo) ** k * scale * scale:
            continue
        diff = _difference_at(pmap, k, [GaussianRational(c) for c in combo])
        if diff.is_zero():
            continue
        coords = ", ".join(str(c) for c in combo)
        return False, f"difference {diff.canonical_str()} at grid point ({coords})", diff_bounds
    return True, None, diff_bounds


def check_against_reference(pmap: PolyMap, k: int):
    cert = _grid_cert(pmap, k, DEFAULT_GRID_BUDGET, DEFAULT_EXPANSION_BUDGET)
    verdict, witness, diff_bounds = ref_grid(pmap, k)
    assert (cert.verdict, cert.witness) == (verdict, witness)
    assert cert.detail["grid_points"] == math.prod(b + 1 for b in diff_bounds)
    assert list(cert.detail["per_variable_bounds"]) == diff_bounds
    assert math.prod(cert.detail["moduli"]).bit_length() >= cert.detail["height_bits"]
    return cert


# ---------------------------------------------------------------- strategies

# the first modulus of every grid test under the default budgets
FIRST_MODULUS = 16777213

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def polynomials(draw, nvars: int, degree: int):
    monos = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) <= degree]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return Polynomial(nvars, {m: draw(gaussians) for m in chosen})


@st.composite
def claimed_maps(draw):
    """An explicit map, its true order, and a claim: a valid base map times
    q^j, padded with isotropic pairs (g, i*g), then maybe corrupted."""
    m = draw(st.integers(1, 3))
    z = [Polynomial.variable(m, i) for i in range(m)]
    base = draw(st.sampled_from(["identity", "constant"] + (["circle"] * (m == 2))))
    if base == "identity":
        comps, order = z, 1
    elif base == "constant":
        comps, order = [Polynomial.constant(m, 1)], 0
    else:
        n = draw(st.integers(1, 3))
        w = (z[0] + z[1].scale(GaussianRational(0, 1))) ** n
        comps = [(w + w.conjugate()).scale(Fraction(1, 2)), (w - w.conjugate()).scale(GaussianRational(0, Fraction(-1, 2)))]
        order = n
    if draw(st.booleans()):
        comps, order = [c * quadratic_form(m) for c in comps], order + 2
    for _ in range(draw(st.integers(0, 2))):
        g = draw(polynomials(m, 2))
        comps = [*comps, g, g.scale(GaussianRational(0, 1))]
    if draw(st.booleans()):
        # a corruption that vanishes where z_i < s, so the first failing
        # point is not always the first grid point
        i = draw(st.integers(0, m - 1))
        delta = draw(polynomials(m, 1))
        for t in range(draw(st.integers(0, 2 if m == 3 else 3))):
            delta = delta * (z[i] - t)
        if draw(st.booleans()):
            # invisible to a test modulo the first modulus alone
            delta = delta.scale(FIRST_MODULUS * draw(st.integers(1, 3)))
        j = draw(st.integers(0, len(comps) - 1))
        comps = [*comps[:j], comps[j] + delta, *comps[j + 1 :]]
    claim = max(0, order + draw(st.integers(-1, 1)))
    return PolyMap.explicit(comps, "random", order=order), claim


# --------------------------------------------------------------------- tests


@settings(max_examples=80, deadline=None)
@given(claimed_maps())
def test_grid_matches_the_point_loop(case):
    pmap, k = case
    check_against_reference(pmap, k)


def test_catalog_grid_matches_the_point_loop():
    for target in ["pi_n:1,3", "pi_n:2,2", "pi_n:2,-2", "pi_n:1,-3", "pi3_s2:1"]:
        pm = catalog(target)
        for k in (pm.order - 1, pm.order):
            check_against_reference(pm, k)


def test_first_modulus_bump_fails_with_the_reference_witness():
    pm = catalog("pi_n:4,2")
    clean = _grid_cert(pm, 3, DEFAULT_GRID_BUDGET, DEFAULT_EXPANSION_BUDGET)
    assert clean.verdict and len(clean.detail["moduli"]) > 1
    p = clean.detail["moduli"][0]
    assert p == FIRST_MODULUS
    den, _ = pm.evaluator().integer_terms()
    # p added to one numerator coefficient: the difference is = 0 mod p on the
    # whole grid, so only the other moduli can see it
    mono, _ = pm.components[0].leading_term()
    comps = list(pm.components)
    comps[0] = comps[0] + Polynomial(pm.m, {mono: Fraction(p, den)})
    bad = PolyMap.explicit(comps, "bumped", order=3)
    bad_den, rows = bad.evaluator().integer_terms()
    assert bad_den == den
    dims = [b + 1 for b in bad.per_variable_bounds()]
    sides = [b + 1 for b in clean.detail["per_variable_bounds"]]
    assert not _grid_misses(rows, 3, den, dims, sides, [p]).any()
    cert = check_against_reference(bad, 3)
    assert not cert.verdict and cert.witness.startswith("difference ")


def _line(*coeffs):
    return [Polynomial(1, {(1,): c}) for c in coeffs]


@pytest.mark.parametrize(
    "comps",
    [
        # denominator p - 1: q(f) - q = (1 - (p-1)^2) z^2 = 0 mod p, and only
        # the q^k D^2 term of the height bound asks for a second modulus
        pytest.param(_line(Fraction(1, FIRST_MODULUS - 1)), id="denominator"),
        # 2467^2 + 2418^2 + 2201^2 = p + 1: the squared l1 norms ask for it
        pytest.param(_line(2467, 2418, 2201), id="norms"),
        # q(f) - q = 2i z^2 has a zero real part
        pytest.param(_line(1, GaussianRational(1, 1)), id="imaginary"),
    ],
)
def test_grid_sees_differences_a_weaker_test_misses(comps):
    cert = check_against_reference(PolyMap.explicit(comps, "line", order=1), 1)
    assert not cert.verdict


def test_grid_needs_materialized_components():
    f, g = hopf_pair()
    phi = suspend(f, g, 1, materialize_budget=0)
    assert phi.components is None and phi.node is not None
    # node-only maps, small and deep alike: no grid is counted without components
    for pmap, k in ((phi, 3), (catalog("pi_np3:2"), 22)):
        with pytest.raises(InfeasibleError, match="^grid zero test needs materialized components$"):
            certify_order(pmap, k, method="grid")


def test_grid_power_tables_are_charged_up_to_the_budget():
    pmap = catalog("pi_n:2,3")
    cost = pmap.evaluator().power_cost()
    assert _grid_cert(pmap, pmap.order, DEFAULT_GRID_BUDGET, cost).verdict
    with pytest.raises(InfeasibleError, match=f"^grid zero test power tables exceed the expansion budget {cost - 1}$"):
        _grid_cert(pmap, pmap.order, DEFAULT_GRID_BUDGET, cost - 1)
