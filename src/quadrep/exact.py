"""Exact arithmetic over Q(i) and sparse multivariate polynomials.

Coefficients are Gaussian rationals (rational real and imaginary parts,
stdlib ``Fraction`` underneath), so every identity check in this package is
a genuine zero test, never a tolerance comparison.

A monomial is an exponent tuple, one nonnegative integer per variable.  A
polynomial is a dict from exponent tuples to nonzero ``GaussianRational``
coefficients; the zero polynomial has an empty dict.  The canonical term
order used for printing, serialization and floating evaluation is graded
lexicographic, descending (highest total degree first).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

Monomial = tuple[int, ...]

_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class GaussianRational:
    """A complex number a + b*i with exact rational a and b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        out = object.__new__(cls)
        out.re = re
        out.im = im
        return out

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls._raw(_as_fraction(value), _FRACTION_ZERO)
        if isinstance(value, complex):
            raise TypeError("floating complex values are not exact; build a GaussianRational from rationals")
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._raw(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Gaussian rational powers take nonnegative integer exponents")
        result = GaussianRational._raw(_FRACTION_ONE, _FRACTION_ZERO)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # equal to 3 means hashing like 3, as Fraction does
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return self.canonical_str()

    def canonical_str(self) -> str:
        """Canonical text form: "a/b" when real, else "a/b+c/d*i".

        Fractions are reduced with the sign on the numerator, so a negative
        imaginary part renders as e.g. "1/2-3/4*i".
        """
        if not self.im:
            return str(self.re)
        sep = "+" if self.im > 0 else ""
        return f"{self.re}{sep}{self.im}*i"

    @classmethod
    def from_string(cls, text: str) -> "GaussianRational":
        text = text.strip()
        if text.endswith("*i"):
            body = text[:-2]
            # the real/imaginary separator is the first sign past position 0
            for pos in range(1, len(body)):
                if body[pos] in "+-":
                    re_part = body[:pos]
                    im_part = body[pos + 1 :] if body[pos] == "+" else body[pos:]
                    return cls._raw(Fraction(re_part), Fraction(im_part))
            raise ValueError(f"malformed Gaussian rational: {text!r}")
        return cls._raw(Fraction(text), _FRACTION_ZERO)


GR_ONE = GaussianRational._raw(_FRACTION_ONE, _FRACTION_ZERO)
GR_I = GaussianRational._raw(_FRACTION_ZERO, _FRACTION_ONE)


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


class Polynomial:
    """Sparse multivariate polynomial over the Gaussian rationals.

    Immutable once built; all operations return new instances.  Stored
    coefficients are never zero and monomial keys are unique, so equality
    of the term dicts is equality of polynomials.
    """

    __slots__ = ("nvars", "terms", "_sorted", "_evaluator")

    def __init__(self, nvars: int, terms: dict[Monomial, GaussianRational] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if coeff.is_zero():
                    continue
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity for {nvars} variables")
                clean[tuple(mono)] = coeff
        self.terms = clean
        self._sorted = None
        self._evaluator = None

    # ---------------------------------------------------------------- build

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Monomial, GaussianRational]) -> "Polynomial":
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out._sorted = None
        out._evaluator = None
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        coeff = GaussianRational.coerce(value)
        if coeff.is_zero():
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls._raw(nvars, {tuple(exps): GR_ONE})

    # ------------------------------------------------------------ structure

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(mono) for mono in self.terms)

    def per_variable_degrees(self) -> tuple[int, ...]:
        """Max exponent of each variable across all terms (zeros if empty)."""
        degs = [0] * self.nvars
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in canonical order: graded lexicographic, descending."""
        if self._sorted is None:
            self._sorted = sorted(
                self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True
            )
        return self._sorted

    def __iter__(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        return iter(self.sorted_terms())

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def leading_term(self) -> tuple[Monomial, GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset((m, c.re, c.im) for m, c in self.terms.items())))

    # ----------------------------------------------------------- arithmetic

    def _check_arity(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.nvars, other)
        self._check_arity(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            cur = out.get(mono)
            if cur is None:
                out[mono] = coeff
            else:
                s = cur + coeff
                if s.is_zero():
                    del out[mono]
                else:
                    out[mono] = s
        return Polynomial._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return self - Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "Polynomial":
        coeff = GaussianRational.coerce(value)
        if coeff.is_zero():
            return Polynomial.zero(self.nvars)
        return Polynomial._raw(self.nvars, {m: c * coeff for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            return _mul_poly(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        if exponent == 0:
            return Polynomial.constant(self.nvars, 1)
        base = self
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else _mul_poly(result, base)
            exponent >>= 1
            if exponent:
                base = _square_poly(base)
        return result

    def square(self) -> "Polynomial":
        return _square_poly(self)

    # ---------------------------------------------------------- composition

    def compose(self, args: Sequence["Polynomial"], budget=None) -> "Polynomial":
        """Substitute args[i] for variable i; exact.

        All arguments must share a common variable count, which becomes the
        variable count of the result.  A ``budget`` (anything with a
        ``charge(amount)`` method) is charged the ``mul_cost`` of each
        product before the product runs.
        """
        if len(args) != self.nvars:
            raise ValueError(f"arity mismatch: polynomial has {self.nvars} variables, got {len(args)} arguments")
        if not args:
            # constant in zero variables composed with nothing stays itself
            return Polynomial._raw(0, dict(self.terms))
        n2 = args[0].nvars
        for a in args:
            if a.nvars != n2:
                raise ValueError("composition arguments must share a variable count")
        # powers[i][e] is args[i]**e, filled upwards by one multiplication each
        powers = [[Polynomial.constant(n2, 1), a] for a in args]
        total = Polynomial.zero(n2)
        for mono, coeff in self.terms.items():
            piece = Polynomial.constant(n2, coeff)
            for i, e in enumerate(mono):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(charged_mul(row[-1], row[1], budget))
                    piece = charged_mul(piece, row[e], budget)
            total = total + piece
        return total

    def extend(self, nvars: int) -> "Polynomial":
        """View in a larger variable set; new variables are appended."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable set")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return Polynomial._raw(nvars, {m + pad: c for m, c in self.terms.items()})

    def derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self.nvars:
            raise ValueError("derivative variable out of range")
        out: dict[Monomial, GaussianRational] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                new = list(mono)
                new[index] = e - 1
                out[tuple(new)] = coeff * e
        return Polynomial._raw(self.nvars, out)

    # ----------------------------------------------------------- evaluation

    def evaluator(self) -> "Evaluator":
        """The compiled form of this polynomial, built on first use."""
        if self._evaluator is None:
            self._evaluator = Evaluator([self])
        return self._evaluator

    def eval_exact(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """Exact value at a Gaussian-rational point."""
        return self.evaluator().eval_exact(point)[0]

    def eval_complex(self, point: Sequence[complex]) -> complex:
        """Floating value at one point."""
        return complex(self.evaluator().eval_batch([point])[0, 0])

    def eval_batch(self, points) -> np.ndarray:
        """Vectorized complex evaluation over an (N, nvars) array."""
        return self.evaluator().eval_batch(points)[:, 0]

    # ------------------------------------------------------------- printing

    def __repr__(self):
        return f"Polynomial(nvars={self.nvars}, terms={len(self.terms)})"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = [f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
            cs = coeff.canonical_str()
            if coeff.im and coeff.re:
                cs = f"({cs})"
            if factors:
                body = "*".join(factors)
                pieces.append(body if cs == "1" else f"{cs}*{body}")
            else:
                pieces.append(cs)
        return " + ".join(pieces)


# ---------------------------------------------------------------- evaluation
#
# Every evaluation in the package goes through one compiled form: a list of
# polynomials in one variable set becomes the union of their monomials (an
# exponent matrix) and a coefficient table.  The batch backend gathers the
# monomials of a block of terms from per-variable power tables and multiplies
# them by the coefficient matrix.  The exact backend clears all denominators
# first, so its inner loop is Python int arithmetic on Gaussian-integer
# numerators and Fractions appear only in the final values.

_TERM_BLOCK = 128  # monomials gathered per matrix product
_ROW_BLOCK = 4096  # points per power table; with _TERM_BLOCK it bounds memory


class Evaluator:
    """Polynomials in one variable set, compiled once for evaluation.

    ``eval_batch`` gives an (N, len(polys)) complex array, ``eval_exact``
    the list of exact values.  Each backend builds its tables on first use,
    so an evaluator used only exactly never converts a coefficient to float.
    """

    __slots__ = ("nvars", "polys", "_batch", "_exact")

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("an evaluator needs at least one polynomial")
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ValueError("compiled polynomials must share a variable count")
        self.nvars = nvars
        self.polys = list(polys)
        self._batch = None
        self._exact = None

    # --------------------------------------------------------- batch backend

    def _batch_tables(self):
        if self._batch is None:
            monos = sorted(
                {mono for p in self.polys for mono in p.terms}, key=_grlex_key, reverse=True
            )
            row_of = {mono: t for t, mono in enumerate(monos)}
            coeffs = np.zeros((len(monos), len(self.polys)), dtype=complex)
            for j, p in enumerate(self.polys):
                for mono, c in p.terms.items():
                    coeffs[row_of[mono], j] = complex(c)
            exps = np.array(monos, dtype=np.intp).reshape(len(monos), self.nvars)
            width = int(exps.max(initial=0)) + 1
            # row of z_i**e in the flattened power table
            at = exps + width * np.arange(self.nvars)
            blocks = []
            for t0 in range(0, len(monos), _TERM_BLOCK):
                sl = slice(t0, t0 + _TERM_BLOCK)
                active = [at[sl, i] for i in range(self.nvars) if exps[sl, i].any()]
                blocks.append((active, np.ascontiguousarray(coeffs[sl].T)))
            self._batch = (width, blocks)
        return self._batch

    def eval_batch(self, points) -> np.ndarray:
        """Values of every polynomial at each row of an (N, nvars) array."""
        Z = np.asarray(points, dtype=complex)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.shape[1] != self.nvars:
            raise ValueError("point array width must match the variable count")
        width, blocks = self._batch_tables()
        # points run along the last axis, so a gathered power is a contiguous row
        out = np.zeros((len(self.polys), Z.shape[0]), dtype=complex)
        for r0 in range(0, Z.shape[0], _ROW_BLOCK):
            zt = Z[r0 : r0 + _ROW_BLOCK].T
            n = zt.shape[1]
            # powers[i, e] = z_i**e, each power one multiplication from the last
            powers = np.ones((self.nvars, width, n), dtype=complex)
            for e in range(1, width):
                np.multiply(powers[:, e - 1], zt, out=powers[:, e])
            table = powers.reshape(-1, n)
            acc = out[:, r0 : r0 + n]
            for active, coeffs in blocks:
                if active:
                    mons = table[active[0]]
                    for idx in active[1:]:
                        mons *= table[idx]
                else:
                    mons = np.ones((coeffs.shape[1], n), dtype=complex)
                acc += coeffs @ mons
        return out.T

    # --------------------------------------------------------- exact backend

    def _exact_tables(self):
        if self._exact is None:
            nvars = self.nvars
            den = 1
            dmax = 0
            for p in self.polys:
                for mono, c in p.terms.items():
                    den = math.lcm(den, c.re.denominator, c.im.denominator)
                    dmax = max(dmax, sum(mono))
            # Each monomial value is built as a chain of products along its
            # nonzero factors, shared between monomials with a common prefix.
            # The last link multiplies by D**(dmax - degree), with variable
            # index nvars standing for the point's common denominator D.
            node_of: dict[tuple, int] = {}
            steps: list[tuple[int, int, int]] = []
            maxexp = [0] * nvars + [dmax]

            def link(key: tuple, parent: int, var: int, e: int) -> int:
                got = node_of.get(key)
                if got is None:
                    steps.append((parent, var, e))
                    got = node_of[key] = len(steps)
                return got

            def node(mono: Monomial) -> int:
                key: tuple = ()
                at = 0
                for i, e in enumerate(mono):
                    if e:
                        key += ((i, e),)
                        at = link(key, at, i, e)
                        if e > maxexp[i]:
                            maxexp[i] = e
                pad = dmax - sum(mono)
                if pad:
                    at = link(key + ((nvars, pad),), at, nvars, pad)
                return at

            rows = [
                [
                    (node(mono), c.re.numerator * (den // c.re.denominator),
                     c.im.numerator * (den // c.im.denominator))
                    for mono, c in p.terms.items()
                ]
                for p in self.polys
            ]
            self._exact = (steps, rows, maxexp, den, dmax)
        return self._exact

    def numerators(self, coords: Sequence[tuple[int, int]], denominator: int):
        """Exact values at the point (a_i + b_i*i) / denominator, in ints.

        ``coords`` holds the Gaussian-integer pairs (a_i, b_i).  Returns
        (values, scale): polynomial j takes the value
        (values[j][0] + values[j][1]*i) / scale.
        """
        steps, rows, maxexp, den, dmax = self._exact_tables()
        powers = []
        for (a, b), top in zip([*coords, (denominator, 0)], maxexp):
            re, im = 1, 0
            row = [(1, 0)]
            for _ in range(top):
                re, im = re * a - im * b, re * b + im * a
                row.append((re, im))
            powers.append(row)
        vals = [(1, 0)]
        for parent, var, e in steps:
            pr, pi = vals[parent]
            qr, qi = powers[var][e]
            vals.append((pr * qr - pi * qi, pr * qi + pi * qr))
        out = []
        for terms in rows:
            re = im = 0
            for at, cr, ci in terms:
                vr, vi = vals[at]
                re += cr * vr - ci * vi
                im += cr * vi + ci * vr
            out.append((re, im))
        return out, den * denominator**dmax

    def eval_exact(self, point: Sequence) -> list[GaussianRational]:
        """Exact values of every polynomial at a Gaussian-rational point."""
        if len(point) != self.nvars:
            raise ValueError("point length must match the variable count")
        point = [GaussianRational.coerce(v) for v in point]
        common = 1
        for v in point:
            common = math.lcm(common, v.re.denominator, v.im.denominator)
        coords = [
            (v.re.numerator * (common // v.re.denominator), v.im.numerator * (common // v.im.denominator))
            for v in point
        ]
        nums, scale = self.numerators(coords, common)
        return [GaussianRational._raw(Fraction(re, scale), Fraction(im, scale)) for re, im in nums]


# ------------------------------------------------------------ multiplication
#
# Hot path used by every construction in the package.  Both operands are
# flattened to integer coefficient pairs over a common denominator and the
# exponent tuples are packed into single integers, so the inner loop is all
# native bigint arithmetic; Fractions reappear only when the accumulator is
# converted back.


def _int_form(p: Polynomial):
    den = 1
    for c in p.terms.values():
        den = den * c.re.denominator // math.gcd(den, c.re.denominator)
        if c.im:
            den = den * c.im.denominator // math.gcd(den, c.im.denominator)
    items = []
    has_im = False
    for mono, c in p.terms.items():
        re_i = c.re.numerator * (den // c.re.denominator)
        im_i = c.im.numerator * (den // c.im.denominator)
        if im_i:
            has_im = True
        items.append((mono, re_i, im_i))
    return den, items, has_im


def _pack_shift(a: Polynomial, b: Polynomial) -> int:
    da = max(a.per_variable_degrees(), default=0) if a.terms else 0
    db = max(b.per_variable_degrees(), default=0) if b.terms else 0
    return max((da + db + 1).bit_length(), 1)


def _pack(mono: Monomial, shift: int) -> int:
    key = 0
    for e in reversed(mono):
        key = (key << shift) | e
    return key


def _unpack(key: int, shift: int, nvars: int) -> Monomial:
    mask = (1 << shift) - 1
    out = []
    for _ in range(nvars):
        out.append(key & mask)
        key >>= shift
    return tuple(out)


def _finish(acc: dict[int, list], den: int, shift: int, nvars: int) -> Polynomial:
    terms: dict[Monomial, GaussianRational] = {}
    for key, (cr, ci) in acc.items():
        if not cr and not ci:
            continue
        coeff = GaussianRational._raw(Fraction(cr, den), Fraction(ci, den))
        terms[_unpack(key, shift, nvars)] = coeff
    return Polynomial._raw(nvars, terms)


def mul_cost(a: Polynomial, b: Polynomial) -> int:
    """Number of coefficient products a full a*b expansion performs."""
    return len(a.terms) * len(b.terms)


def charged_mul(a: Polynomial, b: Polynomial, budget) -> Polynomial:
    """a * b, after charging its ``mul_cost`` to ``budget`` (None charges nothing)."""
    if budget is not None:
        budget.charge(mul_cost(a, b))
    return _mul_poly(a, b)


def _mul_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    if not a.terms or not b.terms:
        return Polynomial.zero(a.nvars)
    if len(a.terms) > len(b.terms):
        a, b = b, a
    shift = _pack_shift(a, b)
    den_a, items_a, im_a = _int_form(a)
    den_b, items_b, im_b = _int_form(b)
    packed_b = [(_pack(m, shift), re, im) for m, re, im in items_b]
    acc: dict[int, list] = {}
    get = acc.get
    if im_a or im_b:
        for mono_a, ra, ia in items_a:
            ka = _pack(mono_a, shift)
            for kb, rb, ib in packed_b:
                k = ka + kb
                cr = ra * rb - ia * ib
                ci = ra * ib + ia * rb
                cell = get(k)
                if cell is None:
                    acc[k] = [cr, ci]
                else:
                    cell[0] += cr
                    cell[1] += ci
    else:
        for mono_a, ra, _ in items_a:
            ka = _pack(mono_a, shift)
            for kb, rb, _ in packed_b:
                k = ka + kb
                cr = ra * rb
                cell = get(k)
                if cell is None:
                    acc[k] = [cr, 0]
                else:
                    cell[0] += cr
    return _finish(acc, den_a * den_b, shift, a.nvars)


def _square_poly(p: Polynomial) -> Polynomial:
    if not p.terms:
        return p
    shift = _pack_shift(p, p)
    den, items, has_im = _int_form(p)
    packed = [(_pack(m, shift), re, im) for m, re, im in items]
    acc: dict[int, list] = {}
    get = acc.get
    n = len(packed)
    for idx in range(n):
        ka, ra, ia = packed[idx]
        k = ka + ka
        cr = ra * ra - ia * ia
        ci = 2 * ra * ia
        cell = get(k)
        if cell is None:
            acc[k] = [cr, ci]
        else:
            cell[0] += cr
            cell[1] += ci
        for jdx in range(idx + 1, n):
            kb, rb, ib = packed[jdx]
            k = ka + kb
            cr = 2 * (ra * rb - ia * ib)
            ci = 2 * (ra * ib + ia * rb)
            cell = get(k)
            if cell is None:
                acc[k] = [cr, ci]
            else:
                cell[0] += cr
                cell[1] += ci
    return _finish(acc, den * den, shift, p.nvars)
