"""Compiled evaluator: both backends against a plain reference evaluator.

The references below walk the terms one by one, in Fractions for the exact
backend and in Python complex arithmetic for the batch backend, so they
share no code with the compiled form they check.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep import exact, numeric
from quadrep.exact import _GATHER_BYTES, _ROW_BLOCK, _TERM_BLOCK, Evaluator, GaussianRational, Polynomial
from quadrep.maps import catalog

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


def forced(polys, split):
    """An evaluator of ``polys`` on the split with the variables ``split`` in
    group B, whatever the cost model would pick."""
    evaluator = Evaluator(polys)
    evaluator._grading = exact._grade(evaluator._exponents(), split)
    return evaluator


def every_split(nvars):
    return [split for size in range(nvars + 1) for split in itertools.combinations(range(nvars), size)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), polys=poly_lists(max_terms=12, max_exp=7))
def test_every_split_equals_the_reference(data, polys):
    nvars = polys[0].nvars
    pairs = st.lists(st.tuples(floats, floats), min_size=nvars, max_size=nvars)
    Z = np.array([[complex(a, b) for a, b in data.draw(pairs)] for _ in range(3)])
    for split in every_split(nvars):
        assert_close(forced(polys, split).eval_batch(Z), polys, Z)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nterms=st.integers(1, 2 * _TERM_BLOCK + 50), npolys=st.integers(1, 3))
def test_every_split_of_many_terms_equals_the_reference(seed, nterms, npolys):
    polys = many_term_polys(seed, nterms, npolys)
    rng = random.Random(seed)
    Z = np.array([[complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for _ in range(3)] for _ in range(4)])
    for split in every_split(3):
        assert_close(forced(polys, split).eval_batch(Z), polys, Z)


@pytest.mark.parametrize("nterms", [100, _TERM_BLOCK + 40])
def test_row_block_does_not_change_a_value(monkeypatch, nterms):
    polys = many_term_polys(5, nterms, 3)
    rng = np.random.default_rng(43)
    Z = rng.normal(size=(2 * 256 + 3, 3)) + 1j * rng.normal(size=(2 * 256 + 3, 3))
    for split in ((), (1, 2)):  # one table of all monomials, and two tables
        evaluator = forced(polys, split)
        rows = evaluator._rows_per_block()
        assert rows == 256  # 100 monomials alone would allow 327 points
        values = evaluator.eval_batch(Z)
        blocks = [evaluator.eval_batch(Z[r0 : r0 + rows]) for r0 in range(0, len(Z), rows)]
        assert np.array_equal(values, np.vstack(blocks))
        # a lone point goes through another BLAS kernel at any row block, so it
        # agrees only to rounding
        assert_close(np.vstack([evaluator.eval_batch(z) for z in Z]), polys, Z)
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_GATHER_BYTES", 16 * _TERM_BLOCK * _ROW_BLOCK)
            whole = forced(polys, split)
            assert whole._rows_per_block() == _ROW_BLOCK
            assert np.array_equal(values, whole.eval_batch(Z))


def test_cost_model_splits_only_large_evaluators(monkeypatch):
    # the Hopf check's fused map and partials of pi3_s2:1 and the degree
    # checks' evaluators make many small calls, where the blocks of a split
    # cost more calls than they save
    small = [
        numeric._MapAndJacobian(catalog("pi3_s2:1")).evaluator,
        numeric._MapAndJacobian(catalog("pi_n:2,3")).evaluator,
        catalog("pi_n:2,3").evaluator(),
        catalog("pi_n:1,5").evaluator(),
    ]
    assert [evaluator._layout().groups[1] for evaluator in small] == [()] * 4
    # the sampled scan of the pi3_s2:7 document: 4,104 monomials in 34 blocks
    lineage = catalog("pi3_s2:7").components
    grading = Evaluator(lineage)._layout()
    assert grading.groups == ((2, 3), (0, 1)) and len(grading.blocks) == 34
    assert grading.products == len(set().union(*(p.terms for p in lineage)))  # full slices, no padding
    monkeypatch.setattr(exact, "_DENSE_LIMIT", 0)
    assert Evaluator(lineage)._layout().groups[1] == ()


def test_a_split_fits_the_room_that_the_budget_allows(monkeypatch):
    # a split whose block of points would not fit is no candidate, so the
    # choice of a split never refuses a batch that the empty split fits
    lineage = catalog("pi3_s2:7").components
    room = Evaluator(lineage).batch_cost()
    monkeypatch.setattr(exact, "DEFAULT_EXPANSION_BUDGET", room - 1)
    evaluator = Evaluator(lineage)
    assert evaluator.batch_cost() < room


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


def formula_costs(polys, rows, split=()):
    """(power_cost, batch_cost(rows)) on the split with the variables
    ``split`` in group B, from the per-variable and total degrees, the number
    of distinct monomials, which sets the points per block, and the
    projections of the monomials onto each group."""
    tops = [max(col) for col in zip(*(p.per_variable_degrees() for p in polys))]
    dmax = max(0, *(p.degree() for p in polys))
    power = sum(e * (e + 1) // 2 for e in [*tops, dmax])
    monos = set().union(*(p.terms for p in polys))
    gathered = max(1, min(len(monos), _TERM_BLOCK))
    block = _ROW_BLOCK  # halved until one gathered term block of complex values fits
    while 16 * gathered * block > _GATHER_BYTES:
        block //= 2
    nvars = polys[0].nvars
    groups = [[i for i in range(nvars) if i not in split], list(split)]
    degrees = [[sum(m[i] for i in group) for m in monos] for group in groups]
    tables = [{tuple(m[i] for i in group) for m in monos} for group in groups]
    slices = [Counter(map(sum, table)) for table in tables]
    # a dense block spans the full degree slices of both tables
    products = sum(slices[0][da] * slices[1][db] for da, db in set(zip(*degrees)))
    widest = max(slices[1].values(), default=0)
    # the B table, the A rows of one block and the largest product of a block
    per_point = nvars * (max(tops, default=0) + 1) + len(tables[1]) + min(_TERM_BLOCK, len(tables[0])) + len(polys) * min(_TERM_BLOCK, widest)
    return power, per_point * min(rows, block) + len(polys) * products


def power_table_price(polys, rows):
    """The price of the power tables of a block alone."""
    top = max((max(p.per_variable_degrees(), default=0) for p in polys), default=0)
    return polys[0].nvars * (top + 1) * min(rows, Evaluator(polys)._rows_per_block())


@settings(max_examples=60, deadline=None)
@given(polys=poly_lists(max_exp=9), rows=st.integers(1, 2 * _ROW_BLOCK))
def test_prices_read_the_maxima_without_building_tables(polys, rows):
    evaluator = Evaluator(polys)
    split = evaluator._layout().groups[1]
    assert (evaluator.power_cost(), evaluator.batch_cost(rows)) == formula_costs(polys, rows, split)
    assert evaluator.batch_cost() == evaluator.batch_cost(_ROW_BLOCK)
    assert evaluator._batch is None  # no float table was built to price it


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nterms=st.integers(0, 2 * _TERM_BLOCK + 50),
    npolys=st.integers(1, 3),
    rows=st.integers(1, 2 * _ROW_BLOCK),
)
def test_batch_price_is_never_below_the_power_table_price(seed, nterms, npolys, rows):
    # the power tables are part of every price: the tables, blocks and
    # products of every split are priced on top of them
    polys = many_term_polys(seed, nterms, npolys)
    for split in every_split(3):
        evaluator = forced(polys, split)
        assert evaluator.batch_cost(rows) == formula_costs(polys, rows, split)[1]
        assert evaluator.batch_cost(rows) >= power_table_price(polys, rows)


@pytest.mark.parametrize("exponent", [2**62, 2**63 + 5])
def test_a_degree_beyond_int64_sums_is_refused_before_a_split_is_chosen(exponent):
    # the degrees of the tables are int64 sums of exponents
    evaluator = Evaluator([Polynomial(2, {(exponent, 0): 1, (0, 1): 1})])
    with pytest.raises(OverflowError, match="beyond the batch evaluator"):
        evaluator.batch_cost()


def test_single_terms_over_distinct_large_denominators():
    dens = [3**60, 7**41 * 2**5, 2**127 - 1, 10**40 + 1]
    coeffs = [GaussianRational(Fraction(5**70 + j, d), Fraction(-(11**55) - j, d + 2)) for j, d in enumerate(dens)]
    polys = [Polynomial(2, {mono: c}) for mono, c in zip([(3, 1), (0, 2), (1, 0), (0, 0)], coeffs)]
    evaluator = Evaluator(polys)
    assert evaluator.eval_exact([GaussianRational(1)] * 2) == coeffs
    values = evaluator.eval_batch(np.ones((1, 2)))[0]
    assert list(values) == [complex(float(c.re), float(c.im)) for c in coeffs]
