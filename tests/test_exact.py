"""Exact arithmetic layer: ring axioms, composition, evaluation, text forms."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from quadrep import exact
from quadrep.exact import GR_I, GaussianRational, Polynomial, mul_cost
from quadrep.maps import InfeasibleError, _Budget, catalog


def random_poly(rng, nvars, max_deg=3, nterms=5, with_imag=True):
    terms = {}
    for _ in range(nterms):
        mono = tuple(int(e) for e in rng.integers(0, max_deg + 1, nvars))
        re = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        im = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) if with_imag else 0
        terms[mono] = GaussianRational(re, im)
    return Polynomial(nvars, terms)


# ----------------------------------------------------------- gaussian field


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(Fraction(-1, 3), Fraction(1, 5))
    assert (a + b) - b == a
    assert a * b == b * a
    prod = a * a.conjugate()
    assert prod.im == 0
    assert prod.re == Fraction(1, 4) + Fraction(9, 16)
    assert (a / b) * b == a
    assert GaussianRational(0, 1) ** 2 == GaussianRational(-1, 0)


def test_gaussian_rational_hash_matches_equality():
    assert GaussianRational(3) == 3 and hash(GaussianRational(3)) == hash(3)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({GaussianRational(3), 3, Fraction(3)}) == 1
    assert len({GaussianRational(3, 1), 3}) == 2


def test_gaussian_rational_canonical_text():
    cases = [
        GaussianRational(0),
        GaussianRational(Fraction(3, 4)),
        GaussianRational(Fraction(-3, 4)),
        GaussianRational(2),
        GaussianRational(Fraction(1, 2), Fraction(3, 4)),
        GaussianRational(Fraction(1, 2), Fraction(-3, 4)),
        GaussianRational(0, Fraction(3, 4)),
        GaussianRational(Fraction(-1, 2), Fraction(-5, 7)),
    ]
    for value in cases:
        text = value.canonical_str()
        assert GaussianRational.from_string(text) == value
    assert GaussianRational(Fraction(1, 2), Fraction(-3, 4)).canonical_str() == "1/2-3/4*i"
    assert GaussianRational(Fraction(3, 4)).canonical_str() == "3/4"
    assert GaussianRational(0, 1).canonical_str() == "0+1*i"


# ------------------------------------------------------------- ring axioms


def test_arith_example_affine():
    # (t - 1) * 1 + 1 == t
    t = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    assert (t - one) * one + one == t


def test_arith_example_quarter_split():
    # (b + 1/4)^2 + (i b - i/4)^2 == b, the identity behind the f/g blend
    b = Polynomial.variable(1, 0)
    quarter = Polynomial.constant(1, Fraction(1, 4))
    first = b + quarter
    second = b.scale(GR_I) - quarter.scale(GR_I)
    assert first.square() + second.square() == b


def test_annihilation():
    rng = np.random.default_rng(7)
    p = random_poly(rng, 3)
    assert (p * Polynomial.zero(3)).is_zero()
    assert (p * 0).is_zero()


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        c = random_poly(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mul_degree_adds():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_poly(rng, 2, nterms=3)
        b = random_poly(rng, 2, nterms=3)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()


def test_power_matches_repeated_mul():
    rng = np.random.default_rng(17)
    p = random_poly(rng, 2, max_deg=2, nterms=4)
    q = Polynomial.constant(2, 1)
    for e in range(6):
        assert p**e == q
        q = q * p


def test_square_matches_mul():
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = random_poly(rng, 3)
        assert p.square() == p * p


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)


# ------------------------------------------------------------- composition


def test_compose_sum_of_squares():
    s_plus_t = Polynomial.variable(2, 0) + Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 0).square()
    y2 = Polynomial.variable(2, 1).square()
    assert s_plus_t.compose([x2, y2]) == x2 + y2


def test_compose_halfshift_into_quadrics():
    # (s + t/2) at s = z1^2+z2^2+z3^2, t = z1^2+z2^2 gives
    # (3/2) z1^2 + (3/2) z2^2 + z3^2 (hand substitution)
    outer = Polynomial.variable(2, 0) + Polynomial.variable(2, 1).scale(Fraction(1, 2))
    z = [Polynomial.variable(3, i) for i in range(3)]
    q3 = z[0].square() + z[1].square() + z[2].square()
    q2 = z[0].square() + z[1].square()
    expected = (
        z[0].square().scale(Fraction(3, 2))
        + z[1].square().scale(Fraction(3, 2))
        + z[2].square()
    )
    assert outer.compose([q3, q2]) == expected


def test_compose_constant():
    c = Polynomial.constant(2, Fraction(5, 3))
    args = [Polynomial.variable(4, 0), Polynomial.variable(4, 1) ** 2]
    assert c.compose(args) == Polynomial.constant(4, Fraction(5, 3))


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).compose([Polynomial.variable(1, 0)])


def test_compose_is_ring_morphism():
    rng = np.random.default_rng(23)
    for _ in range(8):
        a = random_poly(rng, 2, max_deg=2, nterms=3)
        b = random_poly(rng, 2, max_deg=2, nterms=3)
        v = [random_poly(rng, 2, max_deg=2, nterms=2) for _ in range(2)]
        assert (a * b).compose(v) == a.compose(v) * b.compose(v)
        assert (a + b).compose(v) == a.compose(v) + b.compose(v)


def _compose_cases():
    """(outer, args) inputs of the composition tests above."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    z = [Polynomial.variable(3, i) for i in range(3)]
    q3 = z[0].square() + z[1].square() + z[2].square()
    q2 = z[0].square() + z[1].square()
    rng = np.random.default_rng(23)
    a = random_poly(rng, 2, max_deg=2, nterms=3)
    b = random_poly(rng, 2, max_deg=2, nterms=3)
    v = [random_poly(rng, 2, max_deg=2, nterms=2) for _ in range(2)]
    return [
        pytest.param(x + y, [x.square(), y.square()], id="sum-of-squares"),
        pytest.param(x + y.scale(Fraction(1, 2)), [q3, q2], id="halfshift"),
        pytest.param(Polynomial.constant(2, Fraction(5, 3)), [z[0], z[1] ** 2], id="constant"),
        pytest.param(a * b, v, id="random-product"),
        pytest.param((x + y) ** 4, [x + y.scale(GR_I), x * y], id="dense-power"),
    ]


@pytest.mark.parametrize("outer, args", _compose_cases())
def test_compose_charges_budget(monkeypatch, outer, args):
    plain = outer.compose(args)
    products = []
    real = exact._mul_poly

    def counted(a, b):
        products.append(mul_cost(a, b))
        return real(a, b)

    monkeypatch.setattr(exact, "_mul_poly", counted)
    budget = _Budget(10**9)
    assert outer.compose(args, budget) == plain
    cost = sum(products)
    assert budget.spent == cost
    assert outer.compose(args, _Budget(cost)) == plain
    if cost:
        products.clear()
        with pytest.raises(InfeasibleError):
            outer.compose(args, _Budget(cost - 1))
        # charged before it runs: the product that overdraws never happens
        assert sum(products) < cost


# -------------------------------------------------------------- evaluation


def test_eval_isotropic_vector():
    q2 = Polynomial.variable(2, 0).square() + Polynomial.variable(2, 1).square()
    assert q2.eval_complex([1, 1j]) == 0
    assert q2.eval_complex([1, 0]) == 1
    assert q2.eval_exact([GaussianRational(1), GaussianRational(0, 1)]).is_zero()
    assert q2.eval_exact([GaussianRational(1), GaussianRational(0)]) == GaussianRational(1)


def test_eval_exact_matches_complex():
    rng = np.random.default_rng(29)
    for _ in range(15):
        p = random_poly(rng, 3, max_deg=3, nterms=6)
        point = [
            GaussianRational(Fraction(int(rng.integers(-3, 4)), 2), Fraction(int(rng.integers(-3, 4)), 4))
            for _ in range(3)
        ]
        exact = complex(p.eval_exact(point))
        approx = p.eval_complex([complex(v) for v in point])
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_high_exponent_needs_no_recursion():
    # a power 1500 deep: every power table is filled iteratively
    p = Polynomial(1, {(1500,): 1})
    assert p.eval_exact([GaussianRational(1, 1)]) == GaussianRational(-(2**750))
    assert p.eval_exact([GaussianRational(Fraction(1, 2))]) == GaussianRational(Fraction(1, 2**1500))
    assert abs(p.eval_batch(np.array([[0.999]]))[0] - 0.999**1500) < 1e-12
    assert p.compose([Polynomial.variable(2, 0)]) == Polynomial(2, {(1500, 0): 1})


def test_eval_batch_matches_pointwise():
    rng = np.random.default_rng(31)
    p = random_poly(rng, 3, max_deg=3, nterms=6)
    Z = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    batch = p.eval_batch(Z)
    for i in range(40):
        assert abs(batch[i] - p.eval_complex(Z[i])) < 1e-12


# ---------------------------------------------------------- canonical form


def test_canonical_construction_is_idempotent():
    rng = np.random.default_rng(37)
    p = random_poly(rng, 3)
    rebuilt = Polynomial(p.nvars, dict(p.terms))
    assert rebuilt == p
    assert rebuilt.sorted_terms() == p.sorted_terms()


def test_sorted_terms_graded_lex_descending():
    p = (
        Polynomial.variable(2, 0)
        + Polynomial.variable(2, 1).square()
        + Polynomial.constant(2, 3)
        + Polynomial.variable(2, 0) * Polynomial.variable(2, 1)
    )
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == [(1, 1), (0, 2), (1, 0), (0, 0)]


def test_zero_coefficients_never_stored():
    p = Polynomial(2, {(1, 0): GaussianRational(1), (0, 1): GaussianRational(0)})
    assert len(p) == 1
    diff = p - p
    assert diff.is_zero() and len(diff) == 0


def test_constructor_refuses_bad_exponent_vectors():
    for mono in [(1,), (1, 0, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            Polynomial(2, {mono: 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1.0, 0): 1})
    for mono in [(True, 0), (0, False)]:
        with pytest.raises(TypeError):
            Polynomial(2, {mono: 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianRational(True),
        lambda: GaussianRational(0, False),
        lambda: GaussianRational.coerce(True),
        lambda: Polynomial(2, {(1, 0): True}),
        lambda: Polynomial.constant(2, False),
        lambda: Polynomial.variable(2, 0) + True,
        lambda: Polynomial.variable(2, 0).eval_exact([True, 0]),
        lambda: catalog("pi_n:1,2").eval_exact([True, False]),
        lambda: GaussianRational(3) ** True,
        lambda: Polynomial.variable(2, 0) ** True,
        lambda: Polynomial.variable(2, True),
        lambda: Polynomial.variable(2, 0).derivative(True),
        lambda: Polynomial.variable(1, 0).extend(True),
    ],
    ids=[
        "re", "im", "coerce", "coefficient", "constant", "sum", "point", "map-point", "power", "poly-power", "index",
        "derivative-index", "extend-count",
    ],
)
def test_bools_are_not_exact_values(build):
    with pytest.raises(TypeError):
        build()


def test_derivative():
    z1, z2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = z1.square() * z2 + z2.scale(3)
    assert p.derivative(0) == 2 * (z1 * z2)
    assert p.derivative(1) == z1.square() + Polynomial.constant(2, 3)


def test_extend_keeps_values():
    p = Polynomial.variable(2, 0).square() + Polynomial.variable(2, 1)
    q = p.extend(4)
    assert q.nvars == 4
    assert q.eval_complex([2, 3, 9, 9]) == p.eval_complex([2, 3])


def test_malformed_gaussian_strings_rejected():
    for bad in ["", "1/2+*i", "abc", "1//2", "i", "*i"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            GaussianRational.from_string(bad)


def test_iteration_is_canonical():
    p = (
        Polynomial.variable(2, 0)
        + Polynomial.variable(2, 1).square()
        + Polynomial.constant(2, 3)
    )
    assert list(p) == p.sorted_terms()


@pytest.mark.parametrize(
    "n",
    [0, 7, -42, 10**600, -(10**1200) - 5, 10**1200 + 5, 10**4299, 3**20000, -(7**9000)],
    # a default id would convert the integer with str
    ids=lambda n: f"{'-' if n < 0 else ''}{n.bit_length()}bits",
)
def test_text_is_str_at_any_length(n):
    value = GaussianRational(Fraction(n, 3), Fraction(-n - 1, 7))
    got = (exact.int_text(n), value.canonical_str())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        sep = "+" if value.im > 0 else ""
        assert got == (str(n), f"{value.re}{sep}{value.im}*i")
    finally:
        sys.set_int_max_str_digits(limit)
