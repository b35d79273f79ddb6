"""Compiled evaluator: both backends against a plain reference evaluator.

The references below walk the terms one by one, in Fractions for the exact
backend and in Python complex arithmetic for the batch backend, so they
share no code with the compiled form they check.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep import exact
from quadrep.exact import _GATHER_BYTES, _ROW_BLOCK, _TERM_BLOCK, Evaluator, GaussianRational, Polynomial

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
gaussians = st.builds(GaussianRational, fractions, fractions)
# zero coordinates get their own branch so they are drawn often
coordinates = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, st.integers(-3, 3)), gaussians)
floats = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


def reference_exact(poly: Polynomial, point) -> tuple[Fraction, Fraction]:
    total_re, total_im = Fraction(0), Fraction(0)
    for mono, c in poly.terms.items():
        re, im = c.re, c.im
        for v, e in zip(point, mono):
            for _ in range(e):
                re, im = re * v.re - im * v.im, re * v.im + im * v.re
        total_re += re
        total_im += im
    return total_re, total_im


def reference_complex(poly: Polynomial, z) -> tuple[complex, float]:
    """Value at one point and the sum of the term magnitudes."""
    total, scale = 0j, 0.0
    for mono, c in poly.terms.items():
        term = complex(c)
        for v, e in zip(z, mono):
            for _ in range(e):
                term *= v
        total += term
        scale += abs(term)
    return total, scale


@st.composite
def poly_lists(draw, max_polys=4, max_terms=8, max_exp=5):
    nvars = draw(st.integers(1, 4))
    monos = st.tuples(*[st.integers(0, max_exp)] * nvars)
    count = draw(st.integers(1, max_polys))
    return [Polynomial(nvars, draw(st.dictionaries(monos, gaussians, max_size=max_terms))) for _ in range(count)]


# Below the smallest normal double a product keeps fewer significant bits, so
# a relative bound cannot hold there: a term of scale 6.5e-318 was evaluated
# one subnormal step (5e-324) away from the reference.  Every product that
# underflows loses at most 2**-1074, and later factors (at most 28 coordinates
# |z_i| < 2.2 and a coefficient below 29 per term) scale that by under 2**37;
# 12 terms of 29 products each stay far below this floor.
_UNDERFLOW = np.finfo(float).tiny


def assert_close(values, polys, Z):
    for row, z in zip(values, Z):
        for got, poly in zip(row, polys):
            want, scale = reference_complex(poly, z)
            assert abs(got - want) <= 1e-12 * scale + _UNDERFLOW


@settings(max_examples=150, deadline=None)
@given(data=st.data(), polys=poly_lists())
def test_exact_backend_equals_reference(data, polys):
    point = data.draw(st.lists(coordinates, min_size=polys[0].nvars, max_size=polys[0].nvars))
    values = Evaluator(polys).eval_exact(point)
    for value, poly in zip(values, polys):
        assert (value.re, value.im) == reference_exact(poly, point)
        assert poly.eval_exact(point) == value


@settings(max_examples=100, deadline=None)
@given(data=st.data(), polys=poly_lists(max_terms=12, max_exp=7))
def test_batch_backend_one_row(data, polys):
    nvars = polys[0].nvars
    z = [complex(a, b) for a, b in data.draw(st.lists(st.tuples(floats, floats), min_size=nvars, max_size=nvars))]
    values = Evaluator(polys).eval_batch(np.array([z]))
    assert values.shape == (1, len(polys))
    assert_close(values, polys, [z])


def many_term_polys(seed, nterms, npolys):
    """``npolys`` polynomials in 3 variables that share ``nterms`` monomials."""
    rng = random.Random(seed)
    monos = rng.sample(list(itertools.product(range(10), repeat=3)), nterms)
    return [
        Polynomial(3, {m: GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(-3, 3)) for m in monos})
        for _ in range(npolys)
    ]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nterms=st.integers(_TERM_BLOCK + 1, 2 * _TERM_BLOCK + 50))
def test_batch_backend_several_term_blocks(seed, nterms):
    [poly] = many_term_polys(seed, nterms, 1)
    rng = random.Random(seed)
    Z = np.array([[complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for _ in range(3)] for _ in range(5)])
    assert_close(poly.eval_batch(Z)[:, None], [poly], Z)


def test_batch_backend_several_row_blocks():
    rng = np.random.default_rng(41)
    poly = Polynomial(2, {(3, 1): GaussianRational(Fraction(1, 3), 2), (0, 2): GaussianRational(-5), (0, 0): GaussianRational(0, 1)})
    Z = rng.normal(size=(_ROW_BLOCK + 3, 2)) + 1j * rng.normal(size=(_ROW_BLOCK + 3, 2))
    assert_close(poly.eval_batch(Z)[:, None], [poly], Z)


@pytest.mark.parametrize("nterms", [100, _TERM_BLOCK + 40])
def test_row_block_does_not_change_a_value(monkeypatch, nterms):
    polys = many_term_polys(5, nterms, 3)
    evaluator = Evaluator(polys)
    rows = evaluator._rows_per_block()
    assert rows == 256  # 100 monomials alone would allow 327 points
    rng = np.random.default_rng(43)
    Z = rng.normal(size=(2 * rows + 3, 3)) + 1j * rng.normal(size=(2 * rows + 3, 3))
    values = evaluator.eval_batch(Z)
    blocks = [evaluator.eval_batch(Z[r0 : r0 + rows]) for r0 in range(0, len(Z), rows)]
    assert np.array_equal(values, np.vstack(blocks))
    # a lone point goes through another BLAS kernel at any row block, so it
    # agrees only to rounding
    assert_close(np.vstack([evaluator.eval_batch(z) for z in Z]), polys, Z)
    monkeypatch.setattr(exact, "_GATHER_BYTES", 16 * _TERM_BLOCK * _ROW_BLOCK)
    whole = Evaluator(polys)
    assert whole._rows_per_block() == _ROW_BLOCK
    assert np.array_equal(values, whole.eval_batch(Z))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), polys=poly_lists(max_polys=3, max_terms=6))
def test_fused_map_and_jacobian_equals_separate(data, polys):
    nvars = polys[0].nvars
    fused = polys + [p.derivative(i) for p in polys for i in range(nvars)]
    point = data.draw(st.lists(coordinates, min_size=nvars, max_size=nvars))
    assert Evaluator(fused).eval_exact(point) == [p.eval_exact(point) for p in fused]
    Z = np.array([[complex(v) for v in point], [complex(v) * 0.5 - 0.25j for v in point]])
    together = Evaluator(fused).eval_batch(Z)
    for j, p in enumerate(fused):
        alone = p.eval_batch(Z)
        for n in range(len(Z)):
            assert abs(together[n, j] - alone[n]) <= 1e-12 * reference_complex(p, Z[n])[1]


def formula_costs(polys, rows):
    """(power_cost, batch_cost(rows)) from the per-variable and total degrees
    and the number of distinct monomials, which sets the points per block."""
    tops = [max(col) for col in zip(*(p.per_variable_degrees() for p in polys))]
    dmax = max(0, *(p.degree() for p in polys))
    power = sum(e * (e + 1) // 2 for e in [*tops, dmax])
    gathered = max(1, min(len(set().union(*(p.terms for p in polys))), _TERM_BLOCK))
    block = _ROW_BLOCK  # halved until one gathered term block of complex values fits
    while 16 * gathered * block > _GATHER_BYTES:
        block //= 2
    return power, polys[0].nvars * (max(tops, default=0) + 1) * min(rows, block)


@settings(max_examples=60, deadline=None)
@given(polys=poly_lists(max_exp=9), rows=st.integers(1, 2 * _ROW_BLOCK))
def test_prices_read_the_maxima_without_building_tables(polys, rows):
    evaluator = Evaluator(polys)
    assert (evaluator.power_cost(), evaluator.batch_cost(rows)) == formula_costs(polys, rows)
    assert evaluator.batch_cost() == evaluator.batch_cost(_ROW_BLOCK)
    assert evaluator._batch is None  # no float table was built to price it


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nterms=st.integers(0, 2 * _TERM_BLOCK + 50),
    npolys=st.integers(1, 3),
    rows=st.integers(1, 2 * _ROW_BLOCK),
)
def test_batch_price_never_exceeds_the_fixed_block_price(seed, nterms, npolys, rows):
    # every evaluator was once priced by a fixed block of 4096 points; a
    # price at or below that one refuses no batch that it accepted
    polys = many_term_polys(seed, nterms, npolys)
    evaluator = Evaluator(polys)
    top = max((max(p.per_variable_degrees()) for p in polys), default=0)
    assert evaluator.batch_cost(rows) == formula_costs(polys, rows)[1]
    assert evaluator.batch_cost(rows) <= 3 * (top + 1) * min(rows, 4096)


def test_single_terms_over_distinct_large_denominators():
    dens = [3**60, 7**41 * 2**5, 2**127 - 1, 10**40 + 1]
    coeffs = [GaussianRational(Fraction(5**70 + j, d), Fraction(-(11**55) - j, d + 2)) for j, d in enumerate(dens)]
    polys = [Polynomial(2, {mono: c}) for mono, c in zip([(3, 1), (0, 2), (1, 0), (0, 0)], coeffs)]
    evaluator = Evaluator(polys)
    assert evaluator.eval_exact([GaussianRational(1)] * 2) == coeffs
    values = evaluator.eval_batch(np.ones((1, 2)))[0]
    assert list(values) == [complex(float(c.re), float(c.im)) for c in coeffs]
