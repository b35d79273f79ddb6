"""The refutation scan against the exact four-point loop it replaced.

``maps._refute`` decides on residues modulo ``exact.RESIDUE_MODULUS`` and
evaluates exactly only the first point whose residue is nonzero.  The
reference below is the exact loop: the first refutation point where
q(f(p)) - q(p)^k is nonzero.  The residue the scan should see at a point is
computed here from that exact difference, times the square of the scale
that ``Evaluator.numerators`` reports, so it shares no code with
``exact.numerator_residues``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evaluator import coordinates, poly_lists

from quadrep import exact, maps
from quadrep.exact import DEFAULT_EXPANSION_BUDGET, GR_I, RESIDUE_MODULUS, Evaluator, Polynomial, _integer_point, numerator_residues
from quadrep.maps import Certificate, PolyMap, _difference_at, _refutation_points, catalog, certify_order, quadratic_form


def reference_refute(pmap: PolyMap, k: int):
    """The exact four-point loop: (index, difference) at the first
    refutation point where the difference is nonzero, else None."""
    for index, point in enumerate(_refutation_points(pmap.m)):
        diff = _difference_at(pmap, k, point)
        if not diff.is_zero():
            return index, diff
    return None


def residue_is_nonzero(pmap: PolyMap, k: int, point) -> bool:
    """Whether scale**2 * (q(f(p)) - q(p)^k), a Gaussian integer for k up to
    the degree, is nonzero modulo the prime."""
    _, scale = Evaluator(pmap.components).numerators(*_integer_point(point))
    scaled = _difference_at(pmap, k, point) * scale**2
    assert scaled.re.denominator == scaled.im.denominator == 1
    return bool(scaled.re % RESIDUE_MODULUS or scaled.im % RESIDUE_MODULUS)


def scan_certificate(k: int, point, diff) -> Certificate:
    coords = ", ".join(v.canonical_str() for v in point)
    witness = f"q(f(p)) - q(p)^{k} = {diff.canonical_str()} at p = ({coords})"
    return Certificate(k, "exact-evaluation", False, {"stage": "refutation scan"}, witness)


@st.composite
def maps_and_claims(draw):
    """A small explicit map and a claimed order up to its degree.  The map
    is q^a beside drawn polynomials, each either alone or paired with i times
    itself (the pair adds nothing to q(f)), and sometimes a constant that is
    a multiple of the prime; so the difference is often zero, or nonzero
    with every residue zero."""
    polys = draw(poly_lists(max_polys=2, max_terms=4, max_exp=3))
    m, a = polys[0].nvars, draw(st.integers(0, 2))
    comps = [quadratic_form(m) ** a, *polys]
    if draw(st.booleans()):
        comps += [g.scale(GR_I) for g in polys]
    constant = draw(st.sampled_from([0, 1, RESIDUE_MODULUS, 3 * RESIDUE_MODULUS]))
    if constant:
        comps.append(Polynomial.constant(m, constant))
    bound = max(c.degree() for c in comps)
    k = draw(st.one_of(st.just(2 * a), st.integers(0, bound)))
    return PolyMap.explicit(comps, "drawn"), k


@settings(max_examples=200, deadline=None)
@given(drawn=maps_and_claims())
def test_the_scan_refutes_at_the_first_nonzero_residue(drawn):
    pmap, k = drawn
    points = _refutation_points(pmap.m)
    nonzero = [residue_is_nonzero(pmap, k, point) for point in points]
    reference = reference_refute(pmap, k)
    cert = maps._refute(pmap, k, DEFAULT_EXPANSION_BUDGET)
    for flag, point in zip(nonzero, points):
        if flag:  # a nonzero residue is a nonzero difference
            assert not _difference_at(pmap, k, point).is_zero()
    if True not in nonzero:
        assert cert is None  # a missed disproof is left to the proof route
        return
    first = nonzero.index(True)
    # every earlier point where the difference is nonzero has a zero residue
    assert reference is not None and reference[0] <= first
    assert not any(nonzero[:first])
    assert cert == scan_certificate(k, points[first], _difference_at(pmap, k, points[first]))
    if nonzero[reference[0]]:
        assert cert == scan_certificate(k, points[reference[0]], reference[1])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), polys=poly_lists())
def test_residues_are_the_numerators_reduced(data, polys):
    points = [data.draw(st.lists(coordinates, min_size=polys[0].nvars, max_size=polys[0].nvars)) for _ in range(3)]
    evaluator = Evaluator(polys)
    for point, (values, scale) in zip(points, numerator_residues(polys, points)):
        nums, want = evaluator.numerators(*_integer_point(point))
        assert scale == want
        assert values == [(re % RESIDUE_MODULUS, im % RESIDUE_MODULUS) for re, im in nums]


@pytest.mark.parametrize("rows", [1, 40, exact._RESIDUE_TABLE])
def test_every_joint_table_size_gives_the_same_residues(monkeypatch, rows):
    # one variable a table, a few, or all of them at once
    monkeypatch.setattr(exact, "_RESIDUE_TABLE", rows)
    polys = list(catalog("pi_np1:3").components)
    points = _refutation_points(5)
    evaluator = Evaluator(polys)
    for point, (values, _) in zip(points, numerator_residues(polys, points)):
        nums, _ = evaluator.numerators(*_integer_point(point))
        assert values == [(re % RESIDUE_MODULUS, im % RESIDUE_MODULUS) for re, im in nums]


def test_residues_of_numerators_past_int64():
    # reduced exactly, never through a float: 2**63 + 1 and -1 side by side
    z = Polynomial.variable(2, 0)
    polys = [z.scale(2**63 + 1) + Polynomial.constant(2, -1), z.scale(-(2**200) - 7).scale(GR_I)]
    points = _refutation_points(2)
    evaluator = Evaluator(polys)
    for point, (values, _) in zip(points, numerator_residues(polys, points)):
        nums, _ = evaluator.numerators(*_integer_point(point))
        assert values == [(re % RESIDUE_MODULUS, im % RESIDUE_MODULUS) for re, im in nums]


def test_a_difference_that_is_a_multiple_of_the_prime_is_left_to_the_proof_route():
    # q(f) - q = (2**31 - 1)**2 at every point: every residue is zero, and
    # the full expansion fails the claim with its own witness
    pmap = PolyMap.explicit([Polynomial.variable(1, 0), Polynomial.constant(1, RESIDUE_MODULUS)], "z, p")
    assert maps._refute(pmap, 1, DEFAULT_EXPANSION_BUDGET) is None
    assert certify_order(pmap, 1, method="expansion").summary() == {
        "claimed_order": 1,
        "method": "full-expansion",
        "verdict": "fail",
        "detail": {"difference_terms": 1},
        "witness": "nonzero difference term 4611686014132420609 * (0,)",
    }


def test_the_scan_is_skipped_only_above_the_price_of_one_exact_point():
    z = [Polynomial.variable(2, i) for i in range(2)]
    pmap = PolyMap.explicit([z[0] ** 5 + z[1], z[1] ** 3], "wrong")
    # power tables of one exact point: z_0 up to 5, z_1 up to 3, the denominator up to 5
    price = 15 + 6 + 15
    assert maps._refute(pmap, 3, price - 1) is None
    cert = maps._refute(pmap, 3, price)
    assert cert.detail == {"stage": "refutation scan"} and cert.witness.endswith("at p = (2, 0)")
    assert pmap._evaluator is not None  # compiled only to spell the witness
