"""Suspension coefficient triples: construction, frozen small cases, identity.

``oracle_difference`` keeps the two-variable expansion of the identity that
``verify_triple`` decides in one variable; the tests hold the two to the
same verdicts and the same identity witness.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep.coefficients import (
    SuspensionTriple,
    inverse_sqrt_series,
    series_pair,
    suspension_triple,
    verify_triple,
)
from quadrep.exact import GR_I, GaussianRational, Polynomial


def poly1(coeffs):
    """One-variable polynomial from a coefficient list (ascending powers)."""
    return Polynomial(1, {(j,): GaussianRational(c) for j, c in enumerate(coeffs)})


def poly2(entries):
    """Two-variable polynomial from {(i, j): coeff}."""
    return Polynomial(2, {mono: GaussianRational.coerce(c) for mono, c in entries.items()})


def oracle_difference(triple: SuspensionTriple) -> Polynomial:
    """Fully expanded (t-s)*u^2 + s^(2k-1) - t^k*(f^2 + g^2) in (s, t)."""
    k = triple.order
    s, t = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    lhs = (t - s) * triple.u_coeff.square() + s ** (2 * k - 1)
    return lhs - t**k * (triple.f_coeff.square() + triple.g_coeff.square())


# -------------------------------------------------------------- series pair


def test_series_pair_ell0():
    series, cofactor = series_pair(0)
    assert series == poly1([1])
    assert cofactor == poly1([1])


def test_series_pair_ell1_frozen():
    # expand (t-1)(1 + t/2)^2 + 1 = (3/4) t^2 + (1/4) t^3 by hand and divide by t^2
    series, cofactor = series_pair(1)
    assert series == poly1([1, Fraction(1, 2)])
    assert cofactor == poly1([Fraction(3, 4), Fraction(1, 4)])


def test_series_pair_ell2_frozen():
    series, cofactor = series_pair(2)
    assert series == poly1([1, Fraction(1, 2), Fraction(3, 8)])
    assert cofactor == poly1([Fraction(5, 8), Fraction(15, 64), Fraction(9, 64)])
    assert cofactor.eval_exact([GaussianRational(1)]) == GaussianRational(1)


def test_series_closed_form_matches_recurrence():
    # independent route: c_0 = 1, c_j = c_{j-1} (2j-1)/(2j)
    series = inverse_sqrt_series(9)
    c = Fraction(1)
    for j in range(10):
        assert series.terms[(j,)] == GaussianRational(c)
        c = c * Fraction(2 * (j + 1) - 1, 2 * (j + 1))


@pytest.mark.parametrize("ell", range(9))
def test_division_identity(ell):
    series, cofactor = series_pair(ell)
    t = Polynomial.variable(1, 0)
    assert (t - 1) * series.square() + 1 == t ** (ell + 1) * cofactor
    assert series.degree() == cofactor.degree() == ell
    # value 1 at t = 1 follows from the identity at t = 1
    assert cofactor.eval_exact([GaussianRational(1)]) == GaussianRational(1)


def test_series_coefficients_all_positive():
    for ell in range(9):
        series, _ = series_pair(ell)
        assert all(c.is_real() and c.re > 0 for c in series.terms.values())
        assert series.terms[(0,)] == GaussianRational(1)


# ------------------------------------------------------------------ triples


def test_triple_order1_frozen():
    triple = suspension_triple(1)
    assert triple.u_coeff == poly2({(0, 0): 1})
    assert triple.f_coeff == poly2({(0, 0): Fraction(5, 4)})
    assert triple.g_coeff == poly2({(0, 0): GaussianRational(0, Fraction(3, 4))})
    # 25/16 - 9/16 = 1 and (t - s) + s = t
    ssum = triple.f_coeff.square() + triple.g_coeff.square()
    assert ssum == poly2({(0, 0): 1})


def test_triple_order2_frozen():
    triple = suspension_triple(2)
    assert triple.u_coeff == poly2({(1, 0): 1, (0, 1): Fraction(1, 2)})
    b = poly2({(1, 0): Fraction(3, 4), (0, 1): Fraction(1, 4)})
    assert triple.f_coeff == b + Polynomial.constant(2, Fraction(1, 4))
    assert triple.g_coeff == b.scale(GaussianRational(0, 1)) - Polynomial.constant(
        2, GaussianRational(0, Fraction(1, 4))
    )


@pytest.mark.parametrize("k", range(1, 9))
def test_verify_triple_full_expansion(k):
    cert = verify_triple(suspension_triple(k))
    assert cert.verdict
    assert cert.method == "full-expansion"


@pytest.mark.parametrize("k", range(1, 9))
def test_blend_split_sums_to_cofactor(k):
    # f_coeff^2 + g_coeff^2 == homogenized cofactor ((b + 1/4)^2 - (b - 1/4)^2 = b)
    triple = suspension_triple(k)
    b = triple.f_coeff - Polynomial.constant(2, Fraction(1, 4))
    assert triple.f_coeff.square() + triple.g_coeff.square() == b


@pytest.mark.parametrize("k", range(1, 9))
def test_homogeneity_degrees(k):
    triple = suspension_triple(k)
    assert triple.u_coeff.degree() == k - 1
    b = triple.f_coeff - Polynomial.constant(2, Fraction(1, 4))
    assert b.degree() == k - 1
    for poly in (triple.u_coeff, b):
        assert all(sum(mono) == k - 1 for mono in poly.terms)
    assert triple.u_coeff.is_real()
    # g_coeff is purely imaginary
    assert all(c.re == 0 for c in triple.g_coeff.terms.values())


def test_identity_evaluation_oracle():
    # LHS - RHS vanishes exactly at 20 pseudo-random Gaussian-rational points
    import numpy as np

    rng = np.random.default_rng(5)
    for k in (1, 3, 5):
        diff = oracle_difference(suspension_triple(k))
        for _ in range(20):
            point = [
                GaussianRational(
                    Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
                    Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
                )
                for _ in range(2)
            ]
            assert diff.eval_exact(point).is_zero()


def test_corrupted_triple_fails_with_witness():
    triple = suspension_triple(3)
    bad = replace(triple, f_coeff=triple.f_coeff + Polynomial.constant(2, 1))
    cert = verify_triple(bad)
    assert not cert.verdict
    assert cert.witness and "nonzero term" in cert.witness


def test_bad_ell_rejected():
    with pytest.raises(ValueError):
        series_pair(-1)
    with pytest.raises(ValueError):
        suspension_triple(0)


# ------------------------------------------------- the one-variable proof


def mono(k: int, e: int, value) -> Polynomial:
    """value * s^(k-1-e) t^e, a term of the degree the triple's forms have."""
    return Polynomial(2, {(k - 1 - e, e): value})


def with_b(triple: SuspensionTriple, delta: Polynomial) -> SuspensionTriple:
    """The triple whose cofactor form b is moved by delta (f and g together)."""
    return replace(triple, f_coeff=triple.f_coeff + delta, g_coeff=triple.g_coeff + delta.scale(GR_I))


MUTATIONS = {
    "u": lambda tr, k: replace(tr, u_coeff=tr.u_coeff + mono(k, k - 1, Fraction(1, 10**9))),
    "u-off-degree": lambda tr, k: replace(tr, u_coeff=tr.u_coeff + Polynomial(2, {(0, k): 3})),
    # same value at s = 1: only the degree premise refutes these
    "u-same-at-s=1": lambda tr, k: replace(tr, u_coeff=tr.u_coeff + Polynomial(2, {(1, k - 1): 1, (0, k - 1): -1})),
    "b-same-at-s=1": lambda tr, k: with_b(tr, Polynomial(2, {(1, k - 1): 1, (0, k - 1): -1})),
    "f": lambda tr, k: replace(tr, f_coeff=tr.f_coeff + 1),
    "f-scaled": lambda tr, k: replace(tr, f_coeff=tr.f_coeff.scale(2)),
    "g": lambda tr, k: replace(tr, g_coeff=tr.g_coeff + mono(k, 0, GaussianRational(0, Fraction(1, 7)))),
    "b": lambda tr, k: with_b(tr, mono(k, 0, Fraction(1, 7))),
    "order": lambda tr, k: replace(tr, order=k + 1),
    # keeps the identity (u is squared): only the positivity witness refutes it
    "negated-u": lambda tr, k: replace(tr, u_coeff=-tr.u_coeff),
}


@pytest.mark.parametrize("k", [1, 2, 5, 9])
@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_mutated_triple_fails(mutation, k):
    cert = verify_triple(mutation(suspension_triple(k), k))
    assert not cert.verdict and cert.witness
    assert cert.method == "full-expansion"


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_negated_u_fails_with_the_positivity_witness(k):
    triple = suspension_triple(k)
    cert = verify_triple(replace(triple, u_coeff=-triple.u_coeff))
    assert not cert.verdict and dict(cert.detail) == {}
    assert cert.witness == "u(1, t) coefficient positivity witness failed"
    assert verify_triple(triple).detail["positivity_witness"] == "all coefficients of u(1, t) positive"


SYMMETRIES = {
    "negated-g": lambda tr: replace(tr, g_coeff=-tr.g_coeff),
    "swapped-f-g": lambda tr: replace(tr, f_coeff=tr.g_coeff, g_coeff=tr.f_coeff),
    "negated-f-and-g": lambda tr: replace(tr, f_coeff=-tr.f_coeff, g_coeff=-tr.g_coeff),
}


@pytest.mark.parametrize("k", [1, 2, 5, 9])
@pytest.mark.parametrize("symmetry", SYMMETRIES.values(), ids=SYMMETRIES.keys())
def test_identity_symmetries_pass(symmetry, k):
    triple = symmetry(suspension_triple(k))
    assert oracle_difference(triple).is_zero()
    assert verify_triple(triple).verdict


def test_identity_witness_is_the_expansion_leading_term():
    triple = suspension_triple(5)
    bad = replace(triple, u_coeff=triple.u_coeff + mono(5, 4, Fraction(1, 10**9)))
    cert = verify_triple(bad)
    assert cert.witness == "nonzero term -1/500000000 * s^5 t^4"
    diff = oracle_difference(bad)
    (i, j), coeff = diff.leading_term()
    assert cert.witness == f"nonzero term {coeff.canonical_str()} * s^{i} t^{j}"
    assert dict(cert.detail) == {"difference_terms": len(diff)}


def test_off_degree_witness_names_the_term():
    triple = suspension_triple(3)
    cert = verify_triple(replace(triple, u_coeff=triple.u_coeff + Polynomial(2, {(0, 3): 3})))
    assert cert.witness == "nonzero term 3 * s^0 t^3 of u off degree 2"
    cert = verify_triple(replace(triple, f_coeff=triple.f_coeff + 1))
    assert cert.witness == "nonzero term 3/2 * s^0 t^0 of f^2 + g^2 off degree 2"
    assert dict(cert.detail) == {}


small = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 4)])


@st.composite
def perturbed_triples(draw):
    """Canonical triples with b and u moved by forms of degree k-1, u
    sometimes by a term of another degree, and one symmetry on top."""
    k = draw(st.integers(1, 6))
    triple = suspension_triple(k)

    def form():
        """A form of degree k-1, zero half the time."""
        if draw(st.booleans()):
            return Polynomial.zero(2)
        return sum((mono(k, e, draw(small)) for e in range(k)), Polynomial.zero(2))

    delta_b, delta_u = form(), form()
    if draw(st.booleans()):
        delta_u += Polynomial(2, {(draw(st.integers(0, 2)), draw(st.integers(0, k + 1))): draw(small)})
    triple = replace(with_b(triple, delta_b), u_coeff=triple.u_coeff + delta_u)
    symmetry = draw(st.sampled_from([None, *SYMMETRIES.values()]))
    return symmetry(triple) if symmetry else triple


@settings(max_examples=120, deadline=None)
@given(perturbed_triples())
def test_pass_implies_oracle_zero(triple):
    cert = verify_triple(triple)
    zero = oracle_difference(triple).is_zero()
    if cert.verdict:
        assert zero
    homogeneous = all(sum(m) == triple.order - 1 for m in triple.u_coeff.terms)
    if homogeneous:
        # on forms of degree k-1 the reduced proof is complete as well as sound;
        # it passes exactly when the identity holds and u(1, t) has k positive coefficients
        coeffs = triple.u_coeff.terms.values()
        positive = len(coeffs) == triple.order and all(c.is_real() and c.re > 0 for c in coeffs)
        assert cert.verdict == (zero and positive)
