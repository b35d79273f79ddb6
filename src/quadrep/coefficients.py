"""Coefficient polynomials that drive the quadric suspension operator.

For every order k >= 1 the suspension needs three polynomials in two
variables (s, t): a real pair (u_coeff, f_coeff) and a purely imaginary
g_coeff satisfying the exact identity

    (t - s) * u_coeff(s, t)^2 + s^(2k-1)
        = t^k * (f_coeff(s, t)^2 + g_coeff(s, t)^2)

together with u_coeff(1, t) > 0 for real t >= 0.  The construction starts
from a one-variable pair: ``series`` is the degree-(k-1) truncation of the
binomial series of (1-t)^(-1/2), whose square times (t-1) plus one is
divisible by t^k; ``cofactor`` is that exact quotient.  Homogenizing both
and splitting the cofactor as b +- 1/4 yields the triple.

All coefficients of ``series`` are positive, which is the machine-checkable
witness for the positivity requirement on u_coeff(1, t).

``verify_triple`` decides the identity at s = 1: once every term of u_coeff
and of f^2 + g^2 = (f + i*g) * (f - i*g) has degree k-1, both sides are
forms of degree 2k-1, and the term c * s^(2k-1-e) t^e of a form is the
term c * t^e of its value at s = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import GR_I, GaussianRational, Polynomial

class TripleConstructionError(Exception):
    """The exact division underlying the cofactor left a remainder."""


@dataclass(frozen=True)
class SuspensionTriple:
    """Order-k coefficient triple plus the one-variable seeds it came from."""

    order: int
    u_coeff: Polynomial   # real, homogeneous of degree k-1 in (s, t)
    f_coeff: Polynomial   # real: homogenized cofactor + 1/4
    g_coeff: Polynomial   # purely imaginary: i * (homogenized cofactor - 1/4)
    series: Polynomial    # one variable t, degree k-1, all coefficients positive
    cofactor: Polynomial  # one variable t, degree k-1, value 1 at t=1


def inverse_sqrt_series(ell: int) -> Polynomial:
    """Degree-ell truncation of the power series of (1-t)^(-1/2).

    The t^j coefficient is binom(2j, j) / 4^j; every coefficient is a
    positive rational.
    """
    if ell < 0:
        raise ValueError("series truncation degree must be nonnegative")
    terms = {}
    for j in range(ell + 1):
        terms[(j,)] = GaussianRational(Fraction(math.comb(2 * j, j), 4**j))
    return Polynomial(1, terms)


def series_pair(ell: int) -> tuple[Polynomial, Polynomial]:
    """One-variable pair (series, cofactor) with (t-1)*series^2 + 1 = t^(ell+1)*cofactor.

    The division is exact by construction; a nonzero remainder means the
    arithmetic layer is broken, so it raises rather than returning junk.
    """
    series = inverse_sqrt_series(ell)
    numerator = (Polynomial.variable(1, 0) - 1) * series.square() + 1
    for (e,), coeff in numerator:
        if e < ell + 1:
            raise TripleConstructionError(
                f"remainder term t^{e} with coefficient {coeff} in the cofactor division (ell={ell})"
            )
    cofactor = Polynomial(1, {(e - ell - 1,): coeff for (e,), coeff in numerator})
    if cofactor.degree() != ell:
        raise TripleConstructionError(f"cofactor degree {cofactor.degree()} != {ell}")
    return series, cofactor


def _homogenize(p: Polynomial, degree: int) -> Polynomial:
    """Homogenize a one-variable p(t) to a two-variable form of the given degree.

    t^j goes to s^(degree-j) t^j, i.e. the result is s^degree * p(t/s).
    """
    if p.degree() > degree:
        raise ValueError("homogenization degree below the polynomial degree")
    return Polynomial(2, {(degree - j, j): coeff for (j,), coeff in p})


def suspension_triple(k: int) -> SuspensionTriple:
    """Build the order-k coefficient triple."""
    if k < 1:
        raise ValueError("the suspension order must be at least 1")
    ell = k - 1
    series, cofactor = series_pair(ell)
    u_coeff = _homogenize(series, ell)
    b = _homogenize(cofactor, ell)
    quarter = Fraction(1, 4)
    f_coeff = b + Polynomial.constant(2, quarter)
    g_coeff = b.scale(GR_I) - Polynomial.constant(2, GaussianRational(0, quarter))
    return SuspensionTriple(k, u_coeff, f_coeff, g_coeff, series, cofactor)


def verify_triple(triple: SuspensionTriple):
    """Exact check of the triple identity plus the positivity witness.

    Returns a certificate record (see quadrep.maps.Certificate).  The
    positivity of u_coeff(1, t) on t >= 0 is certified by the sufficient
    witness that every coefficient of the one-variable series is positive.
    """
    from .maps import Certificate

    k = triple.order
    positive = all(
        c.is_real() and c.re > 0 for c in triple.series.terms.values()
    ) and len(triple.series.terms) == k
    ig = triple.g_coeff.scale(GR_I)
    norm = (triple.f_coeff + ig) * (triple.f_coeff - ig)
    for name, form in (("u", triple.u_coeff), ("f^2 + g^2", norm)):
        for (i, j), coeff in form:
            if i + j != k - 1:
                return Certificate(
                    claimed_order=k,
                    method="full-expansion",
                    verdict=False,
                    detail={},
                    witness=f"nonzero term {coeff.canonical_str()} * s^{i} t^{j} of {name} off degree {k - 1}",
                )
    t = Polynomial.variable(1, 0)
    u1 = Polynomial(1, {(j,): coeff for (_, j), coeff in triple.u_coeff})
    norm1 = Polynomial(1, {(j,): coeff for (_, j), coeff in norm})
    diff = (t - 1) * u1.square() + 1 - t**k * norm1
    if not diff.is_zero():
        # the lowest power of t is the form's leading term s^(2k-1-e) t^e
        (e,), coeff = diff.sorted_terms()[-1]
        return Certificate(
            claimed_order=k,
            method="full-expansion",
            verdict=False,
            detail={"difference_terms": len(diff)},
            witness=f"nonzero term {coeff.canonical_str()} * s^{2 * k - 1 - e} t^{e}",
        )
    if not positive:
        return Certificate(
            claimed_order=k,
            method="full-expansion",
            verdict=False,
            detail={},
            witness="series coefficient positivity witness failed",
        )
    return Certificate(
        claimed_order=k,
        method="full-expansion",
        verdict=True,
        detail={
            "identity": "(t-s)*u^2 + s^(2k-1) == t^k*(f^2 + g^2)",
            "positivity_witness": "all series coefficients positive",
        },
        witness=None,
    )
