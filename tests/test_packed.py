"""The packed polynomial form against the tuple/Fraction kernel it replaced.

The reference kernel below keeps the former representation: a dict from
exponent tuples to (re, im) pairs of Fractions, multiplied term by term and
ordered by the graded-lex key (sum(mono), mono).  Every operation of the
packed form must agree with it exactly, including exponents of a few
hundred, whose products need wider key fields than their operands.  The
one decoder of packed keys, ``exact._fields``, must agree with the per-key
oracle in ``key_oracle`` at every field width.
"""

import contextlib
import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrep import exact
from quadrep.exact import GaussianRational, Polynomial, charged_mul, mul_cost, sum_of_products
from quadrep.maps import InfeasibleError, _Budget

from key_oracle import monomial

# ------------------------------------------------------------ reference kernel


def ref(p: Polynomial) -> dict:
    return {mono: (c.re, c.im) for mono, c in p.terms.items()}


def ref_poly(nvars: int, terms: dict) -> Polynomial:
    return Polynomial(nvars, {m: GaussianRational(re, im) for m, (re, im) in terms.items()})


def ref_clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c[0] or c[1]}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, (re, im) in b.items():
        r0, i0 = out.get(mono, (0, 0))
        out[mono] = (r0 + re, i0 + im)
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, (ra, ia) in a.items():
        for mb, (rb, ib) in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            r0, i0 = out.get(mono, (0, 0))
            out[mono] = (r0 + ra * rb - ia * ib, i0 + ra * ib + ia * rb)
    return ref_clean(out)


def ref_one(nvars: int) -> dict:
    return {(0,) * nvars: (Fraction(1), Fraction(0))}


def ref_compose(outer: dict, args: list[dict], nvars: int) -> tuple[dict, int]:
    """Substitution, and the coefficient products the former kernel charged."""
    products = 0
    powers = [[ref_one(nvars), arg] for arg in args]
    total = {}
    for mono, coeff in outer.items():
        piece = {(0,) * nvars: coeff}
        for i, e in enumerate(mono):
            if e:
                row = powers[i]
                while len(row) <= e:
                    products += len(row[-1]) * len(row[1])
                    row.append(ref_mul(row[-1], row[1]))
                products += len(piece) * len(row[e])
                piece = ref_mul(piece, row[e])
        total = ref_add(total, piece)
    return total, products


def ref_sorted(a: dict) -> list:
    return sorted(a.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


# ------------------------------------------------------------------ strategies

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
gaussians = st.tuples(fractions, fractions)
# small exponents, and exponents whose sums pass 255, the widest exponent
# an 8-bit key field holds
exponents = st.one_of(st.integers(0, 4), st.integers(100, 300))


@st.composite
def poly_sets(draw, count: int, max_terms: int = 5):
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[exponents] * nvars)
    return nvars, [draw(st.dictionaries(monos, gaussians, max_size=max_terms)) for _ in range(count)]


def packed(nvars: int, terms: dict) -> Polynomial:
    return ref_poly(nvars, ref_clean(terms))


# ------------------------------------------------------------------ properties


@settings(max_examples=80, deadline=None)
@given(poly_sets(2))
def test_ring_operations_match_reference(case):
    nvars, (ta, tb) = case
    a, b = packed(nvars, ta), packed(nvars, tb)
    ra, rb = ref(a), ref(b)
    assert ref(a * b) == ref_mul(ra, rb)
    assert ref(a.square()) == ref_mul(ra, ra)
    assert ref(a + b) == ref_add(ra, rb)
    neg_b = {m: (-re, -im) for m, (re, im) in rb.items()}
    assert ref(a - b) == ref_add(ra, neg_b)
    assert a * b == ref_poly(nvars, ref_mul(ra, rb))


@settings(max_examples=40, deadline=None)
@given(poly_sets(1, max_terms=3), st.integers(0, 4))
def test_power_matches_reference(case, e):
    nvars, (ta,) = case
    a = packed(nvars, ta)
    want = ref_one(nvars)
    for _ in range(e):
        want = ref_mul(want, ref(a))
    assert ref(a**e) == want


@settings(max_examples=60, deadline=None)
@given(poly_sets(1), gaussians)
def test_scale_matches_reference(case, c):
    nvars, (ta,) = case
    a = packed(nvars, ta)
    want = ref_mul(ref(a), {(0,) * nvars: c})
    assert ref(a.scale(GaussianRational(*c))) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_matches_reference_and_its_charges(data):
    n_outer, (outer_terms,) = data.draw(poly_sets(1, max_terms=3))
    nvars = data.draw(st.integers(1, 3))
    small = st.tuples(*[st.integers(0, 3)] * nvars)
    outer = ref_poly(n_outer, {m: c for m, c in ref_clean(outer_terms).items() if sum(m) <= 6})
    args = [ref_poly(nvars, data.draw(st.dictionaries(small, gaussians, max_size=3))) for _ in range(n_outer)]
    want, products = ref_compose(ref(outer), [ref(a) for a in args], nvars)
    budget = _Budget(10**9)
    assert ref(outer.compose(args, budget)) == want
    assert budget.spent == products
    if products:
        with pytest.raises(InfeasibleError):
            outer.compose(args, _Budget(products - 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sum_of_products_matches_the_separate_products_and_their_charges(data):
    count = data.draw(st.integers(1, 3))
    nvars, terms = data.draw(poly_sets(2 * count))
    polys = [packed(nvars, t) for t in terms]
    pairs = list(zip(polys[::2], polys[1::2]))
    if data.draw(st.booleans()):
        a, b = pairs[0]
        pairs.append((-a, b))  # cancels the first product term for term
    separate, kernel = _Budget(10**9), _Budget(10**9)
    want = Polynomial.zero(nvars)
    for a, b in pairs:
        want = want + charged_mul(a, b, separate)
    ref_want = {}
    for a, b in pairs:
        ref_want = ref_add(ref_want, ref_mul(ref(a), ref(b)))
    got = sum_of_products(pairs, kernel)
    assert got == want
    assert ref(got) == ref_want
    assert kernel.spent == separate.spent


def test_sum_of_products_over_budget_forms_no_product(monkeypatch):
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    small = [(x + y, x - y), (x.scale(Fraction(1, 3)) + 1, y + GaussianRational(0, 2))]
    wide = (x + y + 1) ** 9  # 55 terms, so two products of it pass the vector cutoff
    large = [(wide, wide + x), (wide * y, wide.scale(Fraction(1, 5)))]
    loop, vector = [], []
    monkeypatch.setattr(exact, "_accumulate", lambda *args: loop.append(args))
    monkeypatch.setattr(exact, "_vector_sum", lambda *args: vector.append(args))
    for pairs in (small, large):
        cost = sum(mul_cost(a, b) for a, b in pairs)
        # the budget holds the first product but not both
        with pytest.raises(InfeasibleError):
            sum_of_products(pairs, _Budget(cost - 1))
        assert loop == [] and vector == []
    # within budget, the large sum is one the vector kernel takes
    sum_of_products(large, _Budget(cost))
    assert loop == [] and len(vector) == 1


@settings(max_examples=60, deadline=None)
@given(poly_sets(1), st.integers(0, 2), st.data())
def test_extend_and_derivative_match_reference(case, extra, data):
    nvars, (ta,) = case
    a = packed(nvars, ta)
    ra = ref(a)
    assert ref(a.extend(nvars + extra)) == {m + (0,) * extra: c for m, c in ra.items()}
    i = data.draw(st.integers(0, nvars - 1))
    want = {}
    for mono, (re, im) in ra.items():
        if mono[i]:
            lower = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
            want[lower] = (re * mono[i], im * mono[i])
    assert ref(a.derivative(i)) == want


def table_terms(p: Polynomial) -> list:
    """``p.term_table()`` read back as (exponent tuple, (re text, im text)) per
    term, after checking that the coefficients are distinct and listed in
    order of first use."""
    exponents, index, spelled = p.term_table()
    assert exponents.shape == (len(p), p.nvars) and len(set(spelled)) == len(spelled)
    assert list(dict.fromkeys(index.tolist())) == list(range(len(spelled)))
    return [(tuple(row), spelled[i]) for row, i in zip(exponents.tolist(), index.tolist())]


@settings(max_examples=80, deadline=None)
@given(poly_sets(1, max_terms=8))
def test_order_and_structure_match_reference(case):
    nvars, (ta,) = case
    a = packed(nvars, ta)
    ra = ref(a)
    order = ref_sorted(ra)
    assert [(m, (c.re, c.im)) for m, c in a.sorted_terms()] == order
    assert list(a) == a.sorted_terms()
    assert a.degree() == max((sum(m) for m in ra), default=-1)
    assert a.per_variable_degrees() == tuple(max((m[i] for m in ra), default=0) for i in range(nvars))
    assert a.is_real() == all(im == 0 for _, im in ra.values())
    assert table_terms(a) == [(m, (str(c.re), str(c.im))) for m, c in a.sorted_terms()]
    if ra:
        mono, coeff = a.leading_term()
        assert (mono, (coeff.re, coeff.im)) == order[0]
    else:
        with pytest.raises(ValueError):
            a.leading_term()


@settings(max_examples=80, deadline=None)
@given(poly_sets(2))
def test_equality_hash_and_terms_view_match_reference(case):
    nvars, (ta, tb) = case
    a, b = packed(nvars, ta), packed(nvars, tb)
    ra = ref(a)
    assert ra == ref_clean(ta)  # the view gives back exactly the terms built from
    assert (a == b) == (ra == ref(b))
    shuffled = ref_poly(nvars, dict(reversed(list(ra.items()))))
    assert shuffled == a and hash(shuffled) == hash(a)
    assert Polynomial(nvars, dict(a.terms)) == a
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    assert len(a.terms) == len(a) == len(ra)
    for mono, (re, im) in ra.items():
        assert mono in a.terms and a.terms[mono] == GaussianRational(re, im)
    # a monomial beyond the degree cannot alias a stored key
    assert (a.degree() + 1,) + (0,) * (nvars - 1) not in a.terms
    assert (0,) * (nvars + 1) not in a.terms
    with pytest.raises(TypeError):
        a.terms[(0,) * nvars] = GaussianRational(1)


def test_width_change_keeps_values():
    # x^1500 needs 16-bit key fields; x needs 8
    x = Polynomial.variable(1, 0)
    big = Polynomial(1, {(1500,): 1})
    assert big * x == Polynomial(1, {(1501,): 1})
    assert ref(big * x + x) == {(1501,): (1, 0), (1,): (1, 0)}
    # cancellation brings the degree back under 256 and the keys back to 8 bits
    assert (big + x) - big == x and hash((big + x) - big) == hash(x)
    assert (x**255 * x).degree() == 256
    assert (x**256).derivative(0) == 256 * x**255


# ------------------------------------------------------------------- decoder

# field widths of one byte (uint8), two and seven bytes (int64), and eight
# and nine bytes, whose exponents may pass 2**63 (Python ints)
_FIELD_DTYPES = {8: np.uint8, 16: np.int64, 56: np.int64, 64: object, 72: object}


@st.composite
def key_lists(draw):
    """(width, nvars, monomials) whose total degrees fit a field of width bits."""
    width, nvars = draw(st.sampled_from(sorted(_FIELD_DTYPES))), draw(st.integers(0, 9))
    top = (2**width - 1) // max(nvars, 1)  # every exponent at most top keeps the degree in a field
    exponent = st.one_of(st.integers(0, 3), st.integers(top - 3, top), st.integers(0, top))
    return width, nvars, draw(st.lists(st.tuples(*[exponent] * nvars), max_size=6))


@settings(max_examples=200, deadline=None)
@given(key_lists())
@example((64, 1, [(2**64 - 1,), (2**63,), (0,)]))
@example((72, 9, [(2**63 + 5, 0, 0, 0, 0, 0, 0, 0, 2**64)]))
@example((8, 0, [()]))
@example((56, 3, []))
def test_field_matrix_matches_the_per_key_oracle(case):
    width, nvars, monos = case
    keys = [exact._key(mono, width) for mono in monos]
    fields = exact._fields(keys, width, nvars)
    assert fields.shape == (len(keys), nvars + 1) and fields.dtype == _FIELD_DTYPES[width]
    rows = [tuple(row) for row in fields.tolist()]
    assert rows == [(sum(mono), *mono) for mono in monos]
    assert [row[1:] for row in rows] == [monomial(k, width, nvars) for k in keys]


@settings(max_examples=80, deadline=None)
@given(poly_sets(1, max_terms=8))
def test_terms_is_a_read_only_mapping_in_canonical_order(case):
    nvars, (ta,) = case
    a = packed(nvars, ta)
    view = a.terms
    assert list(view.items()) == a.sorted_terms()  # canonical iteration order
    assert Polynomial(nvars, dict(view)) == a
    with pytest.raises(TypeError):
        view[(0,) * nvars] = GaussianRational(1)
    with pytest.raises(TypeError):
        del view[next(iter(view), (0,) * nvars)]
    # too short, too long, negative, beyond the degree, and the constant term when absent
    rest = (0,) * (nvars - 1)
    for mono in [rest, (0, 0, *rest), (-1, *rest), (a.degree() + 1, *rest), (0, *rest)]:
        if mono not in dict(a.sorted_terms()):
            with pytest.raises(KeyError):
                view[mono]


# ---------------------------------------------------------------- vector kernel
#
# Sums of at least ``exact._VECTOR_PRODUCTS`` products that provably stay in
# int64 run in ``exact._vector_sum``; all others in the ``exact._accumulate``
# loop.  Each test forces a path by the cutoff and records which one ran.


@contextlib.contextmanager
def forced(cutoff, slab: int = exact._SLAB):
    """Run with the vector cutoff and slab size given; yields the set of
    kernels ("vector", "loop") that ran."""
    ran = set()
    vector, accumulate = exact._vector_sum, exact._accumulate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_VECTOR_PRODUCTS", cutoff)
        mp.setattr(exact, "_SLAB", slab)
        mp.setattr(exact, "_vector_sum", lambda *args: ran.add("vector") or vector(*args))
        mp.setattr(exact, "_accumulate", lambda *args: ran.add("loop") or accumulate(*args))
        yield ran


def both_paths(pairs, slab: int = exact._SLAB):
    """The sum of products and the square of the first factor, on the vector
    path and on the loop, each checked to have run on its own path."""
    out = []
    for cutoff, path in ((1, "vector"), (math.inf, "loop")):
        with forced(cutoff, slab) as ran:
            out.append((sum_of_products(pairs), pairs[0][0].square()))
        assert ran == {path}
    return out


nonzero_gaussians = gaussians.filter(lambda c: c != (0, 0))


@st.composite
def product_sums(draw):
    """1 to 12 variables, exponents that keep keys at 8-bit fields or pass
    degree 256 and need 16, up to three pairs over different denominators,
    sometimes a pair that cancels the first one."""
    nvars = draw(st.integers(1, 12))
    exps = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 40), st.integers(100, 300)]))
    poly = st.dictionaries(st.tuples(*[exps] * nvars), nonzero_gaussians, min_size=1, max_size=6)
    polys = [packed(nvars, draw(poly)) for _ in range(2 * draw(st.integers(1, 3)))]
    pairs = list(zip(polys[::2], polys[1::2]))
    if draw(st.booleans()):
        a, b = pairs[0]
        pairs.append((b, -a))  # cancels the first product term for term
    return pairs


@settings(max_examples=80, deadline=None)
@given(product_sums(), st.sampled_from([1, 5, exact._SLAB]))
def test_vector_kernel_matches_the_loop_and_the_reference(pairs, slab):
    want = {}
    for a, b in pairs:
        want = ref_add(want, ref_mul(ref(a), ref(b)))
    a0 = ref(pairs[0][0])
    (vs, vq), (ls, lq) = both_paths(pairs, slab)
    assert vs == ls and vq == lq
    assert ref(vs) == want and ref(vq) == ref_mul(a0, a0)
    # the paths may insert terms in different orders; nothing may show it
    assert vs.sorted_terms() == ls.sorted_terms() and str(vq) == str(lq)
    assert list(vs.terms) == list(ls.terms) == [m for m, _ in vs.sorted_terms()]
    assert list(vq.terms.items()) == list(lq.terms.items()) == vq.sorted_terms()
    assert hash(vs) == hash(ls) and table_terms(vq) == table_terms(lq)


def test_a_pair_that_cancels_another_sums_to_zero_on_both_paths():
    x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 2)
    a, b = (x + y + 2) ** 4, (x - y.scale(Fraction(1, 3))) ** 5
    for total, square in both_paths([(a, b), (b, a.scale(-1))]):
        assert total.is_zero() and total == Polynomial.zero(3)
        assert square == ref_poly(3, ref_mul(ref(a), ref(a)))


@pytest.mark.parametrize(
    "nvars, top, slab",
    [(7, 3, exact._SLAB), (12, 3, 7), (3, 300, exact._SLAB), (9, 40, 50), (12, 300, 1000)],
    ids=["8-bit-fields-64-bit-keys", "13-fields", "16-bit-fields-64-bit-keys", "several-words", "12-vars-degree-3600"],
)
def test_vector_kernel_takes_keys_wider_than_one_word(nvars, top, slab):
    rng = random.Random(nvars * 1000 + top)

    def poly(terms):
        monos = [tuple(rng.randint(0, top) for _ in range(nvars)) for _ in range(terms)]
        return ref_poly(nvars, {m: (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)), Fraction(rng.randint(-9, 9))) for m in monos})

    pairs = [(poly(9), poly(12)), (poly(7), poly(10))]
    degree = max(a.degree() + b.degree() for a, b in pairs)
    assert exact._width(degree) * (nvars + 1) > 63  # a packed key of the sum is wider than an int64
    want = ref_add(*(ref_mul(ref(a), ref(b)) for a, b in pairs))
    (vs, vq), (ls, lq) = both_paths(pairs, slab)
    assert vs == ls and ref(vs) == want
    assert vq == lq and ref(vq) == ref_mul(ref(pairs[0][0]), ref(pairs[0][0]))


def test_vector_kernel_runs_just_below_the_int64_bound_and_the_loop_just_above():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    # (m + m*i)(x + y) times itself: the coefficient of x*y is 4*m**2*i, the
    # bound of each path's check; m = top keeps it below 2**63, top + 1 not
    top = math.isqrt((2**63 - 1) // 4)
    for m, path in ((top, "vector"), (top + 1, "loop")):
        c = GaussianRational(m, m)
        a, b = (x + y).scale(c), (y + x).scale(c)
        with forced(1) as ran:
            product, square = sum_of_products([(a, b)]), a.square()
        assert ran == {path}
        assert product == square == ref_poly(2, ref_mul(ref(a), ref(a)))
        assert product.terms[(1, 1)] == GaussianRational(0, 4 * m * m)
        assert (4 * m * m < 2**63) == (path == "vector")


def test_key_fields_wider_than_an_int64_stay_on_the_loop():
    x = Polynomial.variable(2, 0)
    huge = Polynomial(2, {(2**56, 0): 1, (0, 1): 3})  # a product needs 64-bit key fields
    with forced(1) as ran:
        square, product = huge.square(), huge * (huge + x)
    assert ran == {"loop"}
    assert square.terms[(2**57, 0)] == GaussianRational(1) and len(square) == 3
    assert product == square + huge * x


# ----------------------------------------------------------------- square rule
#
# A pair whose two factors are one object is a square: both kernels form only
# the products of terms i <= j and count those with i < j twice, also when
# the factor is widened to the keys of the sum.


@contextlib.contextmanager
def counted():
    """Yields {"products": n}: the products the kernels formed, counted from
    the terms the loop was handed and from the jobs of the vector kernel."""
    work = {"products": 0}
    vector, accumulate = exact._vector_sum, exact._accumulate

    def vector_sum(*args):
        work["products"] += formed_products(args[3])
        return vector(*args)

    def loop(*args):
        work["products"] += len(args[4])
        return accumulate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_vector_sum", vector_sum)
        mp.setattr(exact, "_accumulate", loop)
        yield work


def formed_products(pairs) -> int:
    """n(n+1)/2 for a square of n terms, |a|*|b| for any other pair (or job)."""
    return sum(len(a) * (len(a) + 1) // 2 if a is b else len(a) * len(b) for a, b, *_ in pairs)


def int64_bound(pairs) -> int:
    """The largest value a vector sum could reach: over the pairs, 2 * scale *
    max numerator of a * max numerator of b * min(|a|, |b|)."""
    den = math.lcm(*(a._den * b._den for a, b in pairs))
    top = lambda p: max(abs(v) for pair in p._num.values() for v in pair)  # noqa: E731
    return sum(2 * (den // (a._den * b._den)) * top(a) * top(b) * min(len(a), len(b)) for a, b in pairs)


@st.composite
def square_sums(draw):
    """One to three squares mixed with up to two plain pairs, sometimes one
    more of two equal but distinct factors; 1 to 4 variables; degrees under
    9, or 128-246, whose squares pass 255 and need wider keys than their
    factor; numerators of a few bits, or near 2**30, where the int64 bound
    of a sum passes 2**63 on one draw and not on the next."""
    nvars = draw(st.integers(1, 4))
    small = st.integers(0, 2)
    monos = st.tuples(*[small] * nvars)
    if draw(st.booleans()):
        monos = st.one_of(monos, st.tuples(st.integers(128, 240), *[small] * (nvars - 1)))
    ints = st.integers(-(2**30), 2**30) if draw(st.booleans()) else st.integers(-30, 30)
    parts = st.builds(Fraction, ints, st.integers(1, 4))
    coeffs = st.tuples(parts, parts).filter(lambda c: c != (0, 0))
    poly = st.dictionaries(monos, coeffs, min_size=1, max_size=12).map(lambda t: packed(nvars, t))
    squares = [(p, p) for p in draw(st.lists(poly, min_size=1, max_size=3))]
    plain = [draw(st.tuples(poly, poly)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        p = squares[0][0]
        plain.append((p, Polynomial(nvars, dict(p.terms))))
    return draw(st.permutations(squares + plain))


@settings(max_examples=100, deadline=None)
@given(square_sums(), st.sampled_from([1, 7, exact._SLAB]))
def test_square_pairs_mixed_with_plain_pairs_match_the_reference(pairs, slab):
    want = {}
    for a, b in pairs:
        want = ref_add(want, ref_mul(ref(a), ref(b)))
    fits, formed = int64_bound(pairs) < 2**63, formed_products(pairs)
    results = []
    for cutoff, path in ((1, "vector" if fits else "loop"), (math.inf, "loop")):
        with forced(cutoff, slab) as ran, counted() as work:
            total = sum_of_products(pairs)
        assert ran == {path} and work["products"] == formed
        assert ref(total) == want and list(total.terms) == [m for m, _ in total.sorted_terms()]
        results.append(total)
    assert results[0] == results[1] and hash(results[0]) == hash(results[1])
    if fits:  # the cutoff counts each square as n(n+1)/2 products
        for cutoff, path in ((formed, "vector"), (formed + 1, "loop")):
            with forced(cutoff) as ran:
                assert sum_of_products(pairs) == results[0]
            assert ran == {path}


def test_a_square_keeps_one_map_when_its_keys_widen():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = x**200 + (x * y) ** 3 * GaussianRational(2, -1) + y.scale(Fraction(1, 3)) + 1
    assert exact._width(p.degree()) == 8 and exact._width(2 * p.degree()) == 16
    want = ref_mul(ref(p), ref(p))
    for cutoff, path in ((1, "vector"), (math.inf, "loop")):
        with forced(cutoff) as ran, counted() as work:
            square, product = p.square(), p * p
        assert ran == {path} and work["products"] == 2 * (4 * 5 // 2)
        assert ref(square) == ref(product) == want
    # the budget is still charged every product of a*b, n**2 for a square
    budget = _Budget(10**9)
    assert charged_mul(p, p, budget) == square and budget.spent == 16
    assert sum_of_products([(p, p)], _Budget(10**9)) == square
    with pytest.raises(InfeasibleError):
        sum_of_products([(p, p), (x, y)], _Budget(16))
