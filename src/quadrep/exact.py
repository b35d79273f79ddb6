"""Exact arithmetic over Q(i) and sparse multivariate polynomials.

Coefficients are Gaussian rationals, so every identity check in this package
is a genuine zero test, never a tolerance comparison.

A monomial is an exponent tuple, one nonnegative integer per variable.  A
polynomial stores one immutable integer form, known only to this module: a
map from packed monomial keys to Gaussian-integer numerator pairs (re, im)
over one common denominator den > 0, with gcd(den, every numerator) == 1.
A key packs the fields (total degree, e_0, ..., e_{n-1}), total degree
highest, so integer order of keys is the canonical term order, graded
lexicographic (highest total degree first), and the key of a product of
monomials is the sum of their keys.  The field width is a pure function of
the total degree, so equal polynomials have equal keys, and equality and
hashing compare (nvars, den, keys -> numerators).  ``_key`` is the one
encoder of a key and ``_fields`` the one decoder of a list of keys.
Exponent tuples and ``GaussianRational`` values appear only at the
boundary: the read-only ``terms`` mapping, ``sorted_terms``, iteration and
printing.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, repeat
from re import fullmatch
from types import MappingProxyType
from typing import Iterator, NamedTuple, Sequence

import numpy as np

Monomial = tuple[int, ...]

_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def _refuse_bool(value, what: str):
    if isinstance(value, bool):  # True is not the integer 1
        raise TypeError(f"{what} {value!r} is a bool, not an integer")


def _require_int(value, what: str):
    """Refuse anything but an int: nothing inexact is coerced to a count."""
    _refuse_bool(value, what)
    if not isinstance(value, int):
        raise TypeError(f"{what} {value!r} is not an integer")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):  # True is not the rational 1
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
        _refuse_bool(exponent, "the exponent")
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
        re, im = (_fraction_text(v.numerator, v.denominator) for v in (self.re, self.im))
        if not self.im:
            return re
        sep = "+" if self.im > 0 else ""
        return f"{re}{sep}{im}*i"

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


GR_I = GaussianRational._raw(_FRACTION_ZERO, _FRACTION_ONE)


# ---------------------------------------------------------------- packed form


def _width(degree: int) -> int:
    """Bits per key field at this total degree: whole bytes, enough for the
    degree and so for every exponent."""
    return 8 * ((max(degree, 1).bit_length() + 7) // 8)


def _key(mono: Monomial, width: int) -> int:
    key = sum(mono)
    for e in mono:
        key = (key << width) | e
    return key


def _fields(keys, width: int, nvars: int) -> np.ndarray:
    """The field matrix [len(keys), nvars + 1] of packed keys, in their
    order: each key's total degree, then its exponents e_0 .. e_{n-1}.  The
    dtype is ``uint8`` for one-byte fields (total degree below 256), int64
    for fields of up to 7 bytes and Python ints (object) past that; cast
    before any shift or sum.

    The keys are read as big-endian 64-bit words, most significant first,
    each word one C-level pass over the keys, and the bytes of a field are
    joined one byte column at a time; no object is kept per key."""
    size, count = width // 8, len(keys)
    words = -(-size * (nvars + 1) // 8)  # 64-bit words per key
    table = np.empty((count, words), ">u8")
    for j in range(words):  # most significant word first
        shift = 64 * (words - 1 - j)
        word = map(operator.rshift, keys, repeat(shift)) if shift else keys
        if j:  # below the most significant word: its low 64 bits
            word = map(operator.and_, word, repeat(2**64 - 1))
        table[:, j] = np.fromiter(word, np.uint64, count)
    raw = table.view(np.uint8)[:, 8 * words - size * (nvars + 1) :]  # the bytes of each key
    if size == 1:  # one byte per field: the bytes are the fields
        return raw
    fields = raw[:, ::size].astype(np.int64 if size < 8 else object)  # each field's first byte
    for byte in range(1, size):
        fields = fields * 256 + raw[:, byte::size]
    return fields


def _rekey(terms, old: int, new: int, nvars: int) -> dict:
    monos = _fields(terms, old, nvars)[:, 1:].tolist()
    return {_key(mono, new): v for mono, v in zip(monos, terms.values())}


def _pair(value: GaussianRational) -> tuple[int, int, int]:
    """(re, im, den) with value = (re + im*i) / den over the least den."""
    re, im = value.re, value.im
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


_TEXT_CHUNK = 10**600  # below the least digit limit the interpreter accepts (640)


def int_text(n: int) -> str:
    """``str(n)``, also for integers past the interpreter's digit limit for
    int-to-str conversion, which ``str`` refuses with ``ValueError``."""
    try:
        return str(n)
    except ValueError:
        pass
    chunks, rest = [], abs(n)
    while rest >= _TEXT_CHUNK:
        rest, low = divmod(rest, _TEXT_CHUNK)
        chunks.append(f"{low:0600d}")
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(chunks))


def _fraction_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` without building the Fraction, at any length."""
    g = math.gcd(n, d)
    return int_text(n // g) if g == d else f"{int_text(n // g)}/{int_text(d // g)}"


def _parse_rational(text) -> tuple[int, int]:
    """(numerator, denominator) of a string spelled as ``str(Fraction)``
    writes; non-canonical forms such as "2/4" or "-0" are read by value (the
    packed form reduces them), any other value or spelling is refused."""
    if not isinstance(text, str) or not fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"a coefficient must be a rational string like -3/4, got {text!r}")
    n, _, d = text.partition("/")
    n, d = int(n), int(d or 1)  # int refuses more digits than the interpreter's limit
    if not d:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return n, d


class Polynomial:
    """Sparse multivariate polynomial over the Gaussian rationals.

    Immutable; all operations return new instances.  The stored form is the
    packed one of the module docstring; ``terms`` is a read-only mapping of
    it with exponent tuples as keys and ``GaussianRational`` values.
    """

    __slots__ = ("nvars", "_den", "_num", "_degree", "_evaluator")

    def __new__(cls, nvars: int, terms: dict[Monomial, GaussianRational] | None = None):
        _require_int(nvars, "the variable count")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        if bool in map(type, chain.from_iterable(terms or ())):
            raise TypeError("a monomial has a bool exponent")
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = GaussianRational.coerce(coeff)
            if coeff.is_zero():
                continue
            mono = tuple(map(operator.index, mono))
            if len(mono) != nvars or min(mono, default=0) < 0:
                raise ValueError(f"monomial {mono} is not an exponent vector in {nvars} variables")
            clean[mono] = _pair(coeff)
        den = math.lcm(*(d for _, _, d in clean.values()))
        return cls._pack(nvars, den, list(clean), [(re * (den // d), im * (den // d)) for re, im, d in clean.values()])

    @classmethod
    def from_term_texts(cls, nvars: int, triples) -> "Polynomial":
        """The polynomial of (exponents, re text, im text) triples, as a
        document spells its terms.  Each distinct text is parsed once.  A bad
        spelling, a zero denominator, a zero coefficient, a repeated monomial
        or an exponent that is not a nonnegative int is refused."""
        monos, texts = [], []
        for mono, real, imag in triples:
            monos.append(mono)
            texts.append((real, imag))
        values = {text: _parse_rational(text) for text in set(chain.from_iterable(texts))}
        exponents = list(chain.from_iterable(monos))
        if {len(m) for m in monos} - {nvars} or set(map(type, exponents)) - {int} or min(exponents, default=0) < 0:
            raise ValueError(f"an exponent vector is not {nvars} nonnegative ints")
        den = math.lcm(*(d for _, d in values.values()))
        scaled = {text: n * (den // d) for text, (n, d) in values.items()}
        pairs = [(scaled[real], scaled[imag]) for real, imag in texts]
        if (0, 0) in pairs:
            raise ValueError("stored coefficients must be nonzero")
        return cls._pack(nvars, den, monos, pairs)

    def __reduce__(self):
        # pickle and copy go through the constructor: a mapping proxy cannot be pickled
        return Polynomial, (self.nvars, dict(self.terms))

    # ---------------------------------------------------------------- build

    @classmethod
    def _pack(cls, nvars: int, den: int, monos: Sequence, pairs: Sequence) -> "Polynomial":
        """The polynomial with numerator pair ``pairs[t]`` over ``den`` at the
        checked exponent vector ``monos[t]``; a repeated monomial raises ValueError."""
        width = _width(max(map(sum, monos), default=0))
        terms = dict(zip([_key(m, width) for m in monos], pairs))
        if len(terms) != len(monos):
            raise ValueError("a monomial is repeated")
        return cls._build(nvars, den, terms, width)

    @classmethod
    def _build(cls, nvars: int, den: int, terms: dict, width: int) -> "Polynomial":
        """Nonzero numerator pairs over ``den``, keyed at ``width``, stored in
        canonical form: den reduced, keys at the width of the degree."""
        g = math.gcd(den, *chain.from_iterable(terms.values())) if den != 1 else 1
        if g != 1:
            terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
            den //= g
        degree = max(terms) >> (nvars * width) if terms else -1
        if _width(degree) != width:
            terms = _rekey(terms, width, _width(degree), nvars)
        out = object.__new__(cls)
        out.nvars, out._den, out._num, out._degree = nvars, den, MappingProxyType(terms), degree
        out._evaluator = None
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        _require_int(nvars, "the variable count")
        return cls._build(nvars, 1, {}, _width(0))

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        _require_int(nvars, "the variable count")
        re, im, den = _pair(GaussianRational.coerce(value))
        return cls._build(nvars, den, {0: (re, im)} if re or im else {}, _width(0))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        _require_int(nvars, "the variable count")
        _require_int(index, "the variable index")
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(int(i == index) for i in range(nvars))
        return cls._build(nvars, 1, {_key(mono, _width(1)): (1, 0)}, _width(1))

    def _at(self, width: int):
        """The numerator map keyed at ``width``, repacked only if it differs."""
        own = _width(self._degree)
        return self._num if own == width else _rekey(self._num, own, width, self.nvars)

    def _monos(self, keys) -> list[Monomial]:
        """The exponent tuples of packed keys of this polynomial, in order."""
        return list(map(tuple, _fields(keys, _width(self._degree), self.nvars)[:, 1:].tolist()))

    def _coeff(self, pair: tuple[int, int]) -> GaussianRational:
        return GaussianRational._raw(Fraction(pair[0], self._den), Fraction(pair[1], self._den))

    # ------------------------------------------------------------ structure

    @property
    def terms(self) -> Mapping[Monomial, GaussianRational]:
        """Read-only mapping exponent tuple -> nonzero coefficient, built
        from ``sorted_terms`` and iterated in canonical order."""
        return MappingProxyType(dict(self.sorted_terms()))

    def is_zero(self) -> bool:
        return not self._num

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self._degree

    def per_variable_degrees(self) -> tuple[int, ...]:
        """Max exponent of each variable across all terms (zeros if empty)."""
        exponents = _fields(self._num, _width(self._degree), self.nvars)[:, 1:]
        return tuple(exponents.max(axis=0, initial=0).tolist())

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in canonical order: graded lexicographic, descending."""
        keys = sorted(self._num, reverse=True)
        return list(zip(self._monos(keys), map(self._coeff, map(self._num.__getitem__, keys))))

    def term_table(self) -> tuple[np.ndarray, np.ndarray, list[tuple[str, str]]]:
        """The terms in canonical order as arrays, for writers: the exponent
        matrix [terms, nvars] (``uint8`` for one-byte key fields, total
        degree below 256; int64 for fields of up to 7 bytes; Python ints
        past that), each term's index into the distinct coefficients c, and
        those as (str(c.re), str(c.im)) in order of first use."""
        den, num = self._den, self._num
        keys = sorted(num, reverse=True)
        exponents = _fields(keys, _width(self._degree), self.nvars)[:, 1:]
        values = list(map(num.__getitem__, keys))
        distinct = dict.fromkeys(values)
        position = dict(zip(distinct, range(len(distinct))))
        index = np.fromiter(map(position.__getitem__, values), np.intp, len(values))
        texts = {part: _fraction_text(part, den) for part in set(chain.from_iterable(distinct))}
        return exponents, index, [(texts[re], texts[im]) for re, im in distinct]

    def __iter__(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        return iter(self.sorted_terms())

    def is_real(self) -> bool:
        return not any(im for _, im in self._num.values())

    def leading_term(self) -> tuple[Monomial, GaussianRational]:
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._num)
        return self._monos([key])[0], self._coeff(self._num[key])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    # ----------------------------------------------------------- arithmetic

    def _check_arity(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.nvars, other)
        self._check_arity(other)
        width = _width(max(self._degree, other._degree))
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        out = {k: (re * sa, im * sa) for k, (re, im) in self._at(width).items()}
        for k, (re, im) in other._at(width).items():
            cr, ci = out.pop(k, (0, 0))
            cr, ci = cr + re * sb, ci + im * sb
            if cr or ci:
                out[k] = (cr, ci)
        return Polynomial._build(self.nvars, den, out, width)

    __radd__ = __add__

    def __neg__(self):
        terms = {k: (-re, -im) for k, (re, im) in self._num.items()}
        return Polynomial._build(self.nvars, self._den, terms, _width(self._degree))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return self - Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def conjugate(self) -> "Polynomial":
        """The polynomial with every coefficient conjugated."""
        terms = {k: (re, -im) for k, (re, im) in self._num.items()}
        return Polynomial._build(self.nvars, self._den, terms, _width(self._degree))

    def scale(self, value) -> "Polynomial":
        cr, ci, cd = _pair(GaussianRational.coerce(value))
        if not cr and not ci:
            return Polynomial.zero(self.nvars)
        terms = {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self._num.items()}
        return Polynomial._build(self.nvars, self._den * cd, terms, _width(self._degree))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            return _mul_poly(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        _refuse_bool(exponent, "the exponent")
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
            return self
        n2 = args[0].nvars
        for a in args:
            if a.nvars != n2:
                raise ValueError("composition arguments must share a variable count")
        # powers[i][e] is args[i]**e, filled upwards by one multiplication each
        powers = [[Polynomial.constant(n2, 1), a] for a in args]
        total = Polynomial.zero(n2)
        for mono, pair in zip(self._monos(self._num), self._num.values()):
            piece = Polynomial._build(n2, self._den, {0: pair}, _width(0))
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
        _require_int(nvars, "the variable count")
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable set")
        if nvars == self.nvars:
            return self
        width = _width(self._degree)
        shift = width * (nvars - self.nvars)
        return Polynomial._build(nvars, self._den, {k << shift: v for k, v in self._num.items()}, width)

    def derivative(self, index: int) -> "Polynomial":
        _require_int(index, "the variable index")
        if not 0 <= index < self.nvars:
            raise ValueError("derivative variable out of range")
        width = _width(self._degree)
        at = width * (self.nvars - 1 - index)
        # one less in the exponent field and in the total-degree field
        step = (1 << (width * self.nvars)) + (1 << at)
        mask = (1 << width) - 1
        out = {}
        for key, (re, im) in self._num.items():
            e = (key >> at) & mask
            if e:
                out[key - step] = (re * e, im * e)
        return Polynomial._build(self.nvars, self._den, out, width)

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
        return f"Polynomial(nvars={self.nvars}, terms={len(self)})"

    def __str__(self):
        if not self._num:
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
# Every evaluation in the package reads one decoded form: a list of
# polynomials in one variable set becomes the union of their monomials, as
# the ``_fields`` matrix of their keys in canonical order, one common
# denominator, each polynomial's Gaussian-integer numerators over it by
# monomial row, and the largest exponent of each variable followed by the
# largest degree.
#
# The batch backend splits the variables into two groups, A and B.  The
# monomials of a group are the distinct projections of the terms onto its
# variables, in canonical order, so each group's table is sorted by degree.
# A term is A[a] * B[b], and the terms whose projections have the degrees
# (da, db) form one dense coefficient block over the full degree slices A_da
# and B_db: value_j = sum over the blocks of A_da^T C_j[da, db] B_db.  A
# block is one matrix product over its larger side, a contiguous slice of
# rows, then one elementwise contraction over its smaller side, which a
# slice holding only the monomial 1 of its group skips.  Blocks that share a
# B slice and read adjacent A slices merge, cut into runs of at most
# _TERM_BLOCK A rows.  Per block of points the B table is gathered once from
# per-variable power tables, and each block gathers its own A rows, so the
# memory of a block of points stays within the B table and one run.  The
# empty split (every variable in A, B holding only 1) is the
# monomial-at-a-time form: the monomials gathered _TERM_BLOCK at a time in
# canonical order, each run multiplied by its coefficient matrix.  When the
# evaluator is first priced, a cost model over the gathers, coefficient
# products, contractions and numpy calls of a block of points picks the
# split among the cuts of the variable list, either side in B (construction
# appends variables, so its groups are runs); a split whose dense blocks
# take more than _DENSE_LIMIT entries per monomial, or whose block of points
# takes more room than DEFAULT_EXPANSION_BUDGET, is no candidate, so a split
# never makes maps.check_room refuse a batch that the empty split fits.
#
# The exact backend evaluates each monomial once, as a product of
# per-variable power rows padded to the largest degree by powers of the
# point's denominator, so its inner loop is Python int arithmetic and
# Fractions appear only in the final values; ``integer_terms`` gives the
# numerators by monomial, for the modular grid zero test in maps.py.  Both
# backends are priced before anything is built.

# Product-count budget for a single full expansion, and the most room, in
# coordinates, that the tables of one evaluation block may take (maps.check_room).
DEFAULT_EXPANSION_BUDGET = 5_000_000
_TERM_BLOCK = 128  # most A rows per block; sets the summation order
_ROW_BLOCK = 4096  # most points per block
_GATHER_BYTES = 1 << 19  # one gathered term block stays in cache
_DENSE_LIMIT = 4  # most dense block entries per monomial of a split; at 0 only the empty split remains
# modelled nanoseconds of a row block: per point, each gathered factor, coefficient
# product and contracted entry; and each numpy call
_GATHER_NS, _PRODUCT_NS, _CONTRACT_NS, _CALL_NS = 2.5, 0.05, 4.0, 2000.0


class _Grading(NamedTuple):
    """The two tables of a split and its blocks.

    ``groups`` holds the variables of A and of B, ``tables`` each table's
    rows as exponents over its group, ``degrees`` each row's degree and
    ``rows`` each monomial's row in A and in B.  A block (a0, a1, b0, b1)
    pairs the A rows a0..a1 with the B rows b0..b1; blocks are ordered by
    (b0, a0), and ``products`` counts the entries of their dense blocks.
    """

    groups: tuple[tuple[int, ...], tuple[int, ...]]
    tables: tuple[np.ndarray, np.ndarray]
    degrees: tuple[np.ndarray, np.ndarray]
    rows: tuple[np.ndarray, np.ndarray]
    blocks: list[tuple[int, int, int, int]]
    products: int
    widest: int  # rows of the largest B degree slice

    def sides(self, block) -> tuple[bool, bool]:
        """(whether the block's matrix product runs over its A rows, the
        larger side; whether the other side is contracted after it, which a
        slice holding only the monomial 1 of its group is not)."""
        a0, a1, b0, b1 = block
        over_a = a1 - a0 >= b1 - b0
        table, row = (1, b0) if over_a else (0, a0)
        return over_a, bool(self.degrees[table][row])

    def cost(self, npolys: int) -> tuple[float, float]:
        """Modelled nanoseconds of one row block: (per point, per block)."""
        factors = [max(1, len(group)) for group in self.groups]
        gathers, calls, contracted = len(self.tables[1]) * factors[1], factors[1], 0
        for a0, a1, b0, b1 in self.blocks:
            over_a, contract = self.sides((a0, a1, b0, b1))
            gathers += (a1 - a0) * factors[0]
            calls += factors[0] + (4 if contract else 2)
            if contract:
                contracted += b1 - b0 if over_a else a1 - a0
        per_point = _GATHER_NS * gathers + npolys * (_PRODUCT_NS * self.products + _CONTRACT_NS * contracted)
        return per_point, _CALL_NS * calls


def _table(exps: np.ndarray, cols: tuple[int, ...]):
    """(table, degrees, where): the distinct projections of the rows of
    ``exps`` onto ``cols`` in canonical order, their degrees, and the table
    row of each monomial's projection."""
    sub = exps[:, cols]
    deg = sub.sum(axis=1)
    if not cols:  # the monomial 1 alone
        return sub[:1], deg[:1], np.zeros(len(exps), dtype=np.intp)
    if len(cols) == exps.shape[1]:  # the monomials themselves, distinct and in canonical order
        return sub, deg, np.arange(len(exps))
    order = np.lexsort([-sub[:, i] for i in reversed(range(len(cols)))] + [-deg])
    ordered = sub[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    where = np.empty(len(ordered), dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return ordered[first], deg[order][first], where


def _grade(exps: np.ndarray, split, known: dict | None = None) -> _Grading:
    """The grading of the monomials ``exps`` with the variables ``split`` in
    group B and the others in group A; ``known`` keeps the tables of the
    groups met so far, since a cut of the variables puts each side in B once."""
    known = {} if known is None else known
    groups = (tuple(i for i in range(exps.shape[1]) if i not in split), tuple(sorted(split)))
    for cols in groups:
        if cols not in known:
            known[cols] = _table(exps, cols)
    (ta, da, ia), (tb, db, ib) = (known[cols] for cols in groups)
    # each row's degree slice: degrees descend, so a slice is a run of rows
    a_start, a_stop = np.searchsorted(-da, -da, "left"), np.searchsorted(-da, -da, "right")
    b_start, b_stop = np.searchsorted(-db, -db, "left"), np.searchsorted(-db, -db, "right")
    span = len(ta) + 1
    runs = []
    pairs = np.sort(b_start[ib] * span + a_start[ia])  # (B slice, A slice) of each monomial
    for key in pairs[np.diff(pairs, prepend=-1) != 0].tolist():
        b0, a0 = divmod(key, span)
        if runs and runs[-1][2] == b0 and runs[-1][1] == a0:
            runs[-1][1] = int(a_stop[a0])
        else:
            runs.append([a0, int(a_stop[a0]), b0, int(b_stop[b0])])
    blocks = [(c, min(c + _TERM_BLOCK, a1), b0, b1) for a0, a1, b0, b1 in runs for c in range(a0, a1, _TERM_BLOCK)]
    products = sum((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in blocks)
    widest = int((b_stop - b_start).max(initial=0))
    return _Grading(groups, (ta, tb), (da, db), (ia, ib), blocks, products, widest)


def _factors(at: np.ndarray, exps: np.ndarray, r0: int, r1: int) -> list:
    """The power-table rows ``at`` of the table rows r0..r1, one index array
    per variable that some of them use."""
    return [at[r0:r1, i] for i in range(at.shape[1]) if exps[r0:r1, i].any()]


def _row_products(table: np.ndarray, active: list, rows: int) -> np.ndarray:
    """The products of the power-table rows ``active``, one index array per
    variable, or ``rows`` rows of 1 when there is none."""
    if not active:
        return np.ones((rows, table.shape[1]), dtype=complex)
    mons = table[active[0]]
    for idx in active[1:]:
        mons *= table[idx]
    return mons


class Evaluator:
    """Polynomials in one variable set, decoded once for evaluation.

    ``eval_batch`` gives an (N, len(polys)) complex array, ``eval_exact``
    the list of exact values.  The batch backend builds its float tables on
    first use, so an evaluator used only exactly never converts a
    coefficient to float.
    """

    __slots__ = ("nvars", "polys", "_decoded", "_grading", "_batch")

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("an evaluator needs at least one polynomial")
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ValueError("compiled polynomials must share a variable count")
        self.nvars = nvars
        self.polys = tuple(polys)
        self._decoded = None
        self._grading = None
        self._batch = None

    def _decode(self):
        """(fields, den, rows, maxima): polynomial j is the sum of
        (re + im*i) * z**fields[t, 1:] / den over (t, re, im) in rows[j],
        where ``fields`` is the ``_fields`` matrix of the union of the
        monomials in canonical order; maxima holds the largest exponent of
        each variable, then the largest degree."""
        if self._decoded is None:
            degree = max(p._degree for p in self.polys)
            width = _width(degree)
            keyed = [p._at(width) for p in self.polys]
            keys = sorted(set().union(*keyed), reverse=True)  # canonical order
            row_of = {key: t for t, key in enumerate(keys)}
            den = math.lcm(*(p._den for p in self.polys))
            rows = []
            for p, num in zip(self.polys, keyed):
                s = den // p._den
                rows.append([(row_of[key], re * s, im * s) for key, (re, im) in num.items()])
            fields = _fields(keys, width, self.nvars)
            tops = fields[:, 1:].max(axis=0, initial=0).tolist()
            self._decoded = (fields, den, rows, (*tops, max(degree, 0)))
        return self._decoded

    # --------------------------------------------------------- batch backend

    def _exponents(self) -> np.ndarray:
        """The monomials as an (M, nvars) array of exponents."""
        fields, _, _, maxima = self._decode()
        if maxima[-1] >= 1 << 62:
            raise OverflowError(f"degree {maxima[-1]} is beyond the batch evaluator")
        return fields[:, 1:].astype(np.intp, order="C")

    def _layout(self) -> _Grading:
        """The grading of the split that the cost model picks, chosen once.

        Batches range from one point (tracing) to full row blocks (scans),
        and a modelled cost is linear in the batch size, so a split replaces
        the empty one only when it is cheaper both for one point and for a
        full block; the cheapest such split for a full block is taken.  The
        candidates cut the variable list once, either side in B, and keep
        their dense blocks and the room of a full block within bounds."""
        if self._grading is None:
            exps = self._exponents()
            npolys, rows = len(self.polys), self._rows_per_block()
            known = {}
            best = _grade(exps, (), known)
            point, block = best.cost(npolys)
            one, full = point + block, rows * point + block
            splits = [split for cut in range(1, self.nvars) for split in (range(cut, self.nvars), range(cut))]
            # every B degree present takes a block, and a block at least a
            # gather per A variable, a product and a sum
            prefix = np.cumsum(exps, axis=1)[:, :-1]
            degrees = np.sort(np.stack([prefix[:, -1:] + exps[:, -1:] - prefix, prefix], axis=2).reshape(len(exps), len(splits)), axis=0)
            counts = np.count_nonzero(np.diff(degrees, axis=0), axis=0) + 1
            for split, count in zip(splits, counts.tolist()):
                if _CALL_NS * (len(split) + count * (self.nvars - len(split) + 2)) >= one:
                    continue
                graded = _grade(exps, split, known)
                if graded.products > _DENSE_LIMIT * len(exps) or self._room(graded, rows) > DEFAULT_EXPANSION_BUDGET:
                    continue
                point, block = graded.cost(npolys)
                if point + block < one and rows * point + block < full:
                    best, full = graded, rows * point + block
            self._grading = best
        return self._grading

    def _batch_tables(self):
        if self._batch is None:
            fields, den, rows, maxima = self._decode()
            coeffs = np.zeros((len(fields), len(rows)), dtype=complex)
            try:
                for j, row in enumerate(rows):
                    for t, re, im in row:
                        # int true division: the float of the exact rational
                        coeffs[t, j] = complex(re / den, im / den)
            except OverflowError:
                raise OverflowError(f"a coefficient is beyond the float range (magnitude {np.finfo(float).max:.6g})") from None
            grading = self._layout()
            top = max(maxima[:-1], default=0) + 1
            ta, tb = grading.tables
            # row of z_i**e in the flattened power table
            at_a, at_b = (t + top * np.array(g, dtype=np.intp) for g, t in zip(grading.groups, grading.tables))
            blocks = [
                (_factors(at_a, ta, a0, a1), a1 - a0, matrix, *grading.sides((a0, a1, b0, b1)), slice(b0, b1))
                for (a0, a1, b0, b1), matrix in zip(grading.blocks, self._coefficient_matrices(grading, coeffs))
            ]
            # the empty split's blocks read only their A rows
            b_read = any(contract or not over_a for *_, over_a, contract, _ in blocks)
            self._batch = (top, (_factors(at_b, tb, 0, len(tb)), len(tb)) if b_read else None, blocks, self._rows_per_block())
        return self._batch

    @staticmethod
    def _coefficient_matrices(grading: _Grading, coeffs: np.ndarray) -> list[np.ndarray]:
        """The dense coefficient matrix of each block, all views of one flat
        array: one column per row of the side the product runs over, one row
        per (polynomial, row of the other side)."""
        npolys = coeffs.shape[1]
        ia, ib = grading.rows
        a0, a1, b0, b1 = np.array(grading.blocks, dtype=np.intp).reshape(-1, 4).T
        na, nb = a1 - a0, b1 - b0
        # each monomial's block: blocks tile the A rows of each B slice in order
        span = len(grading.tables[0]) + 1
        b_first = np.searchsorted(-grading.degrees[1], -grading.degrees[1], "left")
        at = np.searchsorted(b0 * span + a0, b_first[ib] * span + ia, "right") - 1
        offsets = np.concatenate(([0], np.cumsum(npolys * na * nb)))
        i, b = ia - a0[at], ib - b0[at]
        inner = np.where(na[at] >= nb[at], b * na[at] + i, i * nb[at] + b)
        flat = np.zeros(offsets[-1], dtype=complex)
        flat[(offsets[at] + inner)[:, None] + (na * nb)[at][:, None] * np.arange(npolys)] = coeffs
        return [flat[offsets[k] : offsets[k + 1]].reshape(-1, max(na[k], nb[k])) for k in range(len(na))]

    def _rows_per_block(self) -> int:
        """Points per ``eval_batch`` block: the largest power of two up to
        ``_ROW_BLOCK`` whose gathered term block fits in ``_GATHER_BYTES``.
        A power of two keeps the groups of points that a BLAS kernel sums
        together, so every value equals that of a ``_ROW_BLOCK`` block."""
        fit = _GATHER_BYTES // (16 * max(1, min(len(self._decode()[0]), _TERM_BLOCK)))
        return min(_ROW_BLOCK, 1 << (fit.bit_length() - 1))

    def batch_cost(self, rows: int | None = None) -> int:
        """Room one ``eval_batch`` block over ``rows`` points (a full block
        when None) takes, in units of one coordinate."""
        return self._room(self._layout(), min(self._rows_per_block(), _ROW_BLOCK if rows is None else rows))

    def _room(self, grading: _Grading, block: int) -> int:
        """Room of a block of ``block`` points on ``grading``: per point the
        power tables, the B table, the A rows of one block and the largest
        block product, and once the dense coefficient blocks."""
        npolys = len(self.polys)
        powers = self.nvars * (max(self._decode()[3][:-1], default=0) + 1)
        tables = len(grading.tables[1]) + min(_TERM_BLOCK, len(grading.tables[0]))
        per_point = powers + tables + npolys * min(_TERM_BLOCK, grading.widest)
        return per_point * block + npolys * grading.products

    def eval_batch(self, points) -> np.ndarray:
        """Values of every polynomial at each row of an (N, nvars) array."""
        Z = np.asarray(points, dtype=complex)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.shape[1] != self.nvars:
            raise ValueError("point array width must match the variable count")
        top, b_factors, blocks, block = self._batch_tables()
        npolys = len(self.polys)
        # points run along the last axis, so a gathered power is a contiguous row
        out = np.zeros((npolys, Z.shape[0]), dtype=complex)
        for r0 in range(0, Z.shape[0], block):
            zt = Z[r0 : r0 + block].T
            n = zt.shape[1]
            # powers[i, e] = z_i**e, each power one multiplication from the last
            powers = np.ones((self.nvars, top, n), dtype=complex)
            for e in range(1, top):
                np.multiply(powers[:, e - 1], zt, out=powers[:, e])
            table = powers.reshape(-1, n)
            b_table = _row_products(table, *b_factors) if b_factors else None
            acc = out[:, r0 : r0 + n]
            for active, na, coeffs, over_a, contract, b_rows in blocks:
                a_rows = _row_products(table, active, na)
                part = coeffs @ (a_rows if over_a else b_table[b_rows])
                if contract:
                    part = part.reshape(npolys, -1, n)
                    part *= b_table[b_rows] if over_a else a_rows
                    part = part.sum(axis=1)
                acc += part
        return out.T

    # --------------------------------------------------------- exact backend

    def integer_terms(self) -> tuple[int, list[list[tuple[Monomial, int, int]]]]:
        """The polynomials over one denominator, as (den, rows): polynomial j
        is the sum of (re + im*i) * z**mono / den over (mono, re, im) in rows[j]."""
        fields, den, rows, _ = self._decode()
        monos = list(map(tuple, fields[:, 1:].tolist()))
        return den, [[(monos[t], re, im) for t, re, im in row] for row in rows]

    def power_cost(self) -> int:
        """Room the power tables of one ``numerators`` call take, in units
        of one coordinate: the powers a**0 .. a**E of a take E*(E+1)/2."""
        return sum(e * (e + 1) // 2 for e in self._decode()[3])

    def numerators(self, coords: Sequence[tuple[int, int]], denominator: int):
        """Exact values at the point (a_i + b_i*i) / denominator, in ints.

        ``coords`` holds the Gaussian-integer pairs (a_i, b_i).  Returns
        (values, scale): polynomial j takes the value
        (values[j][0] + values[j][1]*i) / scale.
        """
        fields, den, rows, maxima = self._decode()
        powers = []
        for (a, b), top in zip([*coords, (denominator, 0)], maxima):
            re, im = 1, 0
            row = [(1, 0)]
            for _ in range(top):
                re, im = re * a - im * b, re * b + im * a
                row.append((re, im))
            powers.append(row)
        pad, dmax = powers.pop(), maxima[-1]
        vals = []
        for degree, *mono in fields.tolist():
            vr, vi = pad[dmax - degree]
            for row, e in zip(powers, mono):
                if e:
                    qr, qi = row[e]
                    vr, vi = vr * qr - vi * qi, vr * qi + vi * qr
            vals.append((vr, vi))
        out = []
        for row in rows:
            re = im = 0
            for t, cr, ci in row:
                vr, vi = vals[t]
                re += cr * vr - ci * vi
                im += cr * vi + ci * vr
            out.append((re, im))
        return out, den * denominator**dmax

    def eval_exact(self, point: Sequence) -> list[GaussianRational]:
        """Exact values of every polynomial at a Gaussian-rational point."""
        if len(point) != self.nvars:
            raise ValueError("point length must match the variable count")
        pairs = [_pair(GaussianRational.coerce(v)) for v in point]
        common = math.lcm(*(d for _, _, d in pairs))
        coords = [(re * (common // d), im * (common // d)) for re, im, d in pairs]
        nums, scale = self.numerators(coords, common)
        return [GaussianRational._raw(Fraction(re, scale), Fraction(im, scale)) for re, im in nums]


# ------------------------------------------------------------ multiplication
#
# Hot path used by every construction in the package.  The operands are
# already in packed integer form: a product adds keys and multiplies
# Gaussian-integer numerators, and its denominator is the product of theirs.
# ``sum_of_products`` accumulates a sum of products such as b1*f + b2*g in one
# map over the common denominator; ``_mul_poly`` is its one-pair case and
# ``_square_poly`` its one-square case, a pair (p, p) of one object.  The
# result's field width holds the largest sum of a pair's degrees, which
# bounds every field of every key sum, so no sum carries from one field into
# the next; an operand packed narrower is widened once before the loop.
# A large sum that ``_fits_int64`` proves safe runs in ``_vector_sum`` on
# numpy int64 arrays; every other sum runs in the ``_accumulate`` loop.

_VECTOR_PRODUCTS = 4096  # fewest products of a vector sum; twice the measured crossover (1-2k)
_SLAB = 1 << 15  # products the vector kernel forms at once


def mul_cost(a: Polynomial, b: Polynomial) -> int:
    """Number of coefficient products a full a*b expansion performs."""
    return len(a) * len(b)


def charged_mul(a: Polynomial, b: Polynomial, budget) -> Polynomial:
    """a * b, after charging its ``mul_cost`` to ``budget`` (None charges nothing)."""
    if budget is not None:
        budget.charge(mul_cost(a, b))
    return _mul_poly(a, b)


def sum_of_products(pairs: Sequence[tuple[Polynomial, Polynomial]], budget=None) -> Polynomial:
    """The sum of a * b over the (a, b) in ``pairs``, after charging the
    ``mul_cost`` of every product to ``budget`` (None charges nothing).  A
    pair of one object twice is a square, also once its keys are widened:
    it forms only the products of terms i <= j, those with i < j twice."""
    if budget is not None:
        for a, b in pairs:
            budget.charge(mul_cost(a, b))
    nvars = pairs[0][0].nvars
    pairs = [(a, b) if len(a) <= len(b) else (b, a) for a, b in pairs if a._num and b._num]
    degree = max((a._degree + b._degree for a, b in pairs), default=0)
    width, den = _width(degree), math.lcm(*(a._den * b._den for a, b in pairs))
    jobs = [(na := a._at(width), na if a is b else b._at(width), den // (a._den * b._den)) for a, b in pairs]
    if _fits_int64(jobs, degree):
        return _vector_sum(nvars, den, degree, jobs)
    acc: dict[int, list] = {}
    for a, b, s in jobs:
        items = [(k, re, im) for k, (re, im) in b.items()]
        for idx, (ka, (ra, ia)) in enumerate(a.items()):
            if a is b:  # each term once with itself, then twice with each later term
                _accumulate(acc, ka, ra * s, ia * s, items[idx : idx + 1])
                ra, ia = 2 * ra, 2 * ia
            _accumulate(acc, ka, ra * s, ia * s, items[idx + 1 :] if a is b else items)
    return _collect(nvars, den, acc, width)


def _mul_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    return sum_of_products(((a, b),))


def _square_poly(p: Polynomial) -> Polynomial:
    return sum_of_products(((p, p),))


def _accumulate(acc: dict, ka: int, ra: int, ia: int, items: list):
    """Add the products of the term (ka, ra + ia*i) with each of ``items``."""
    get = acc.get
    for kb, rb, ib in items:
        k = ka + kb
        cr = ra * rb - ia * ib
        ci = ra * ib + ia * rb
        cell = get(k)
        if cell is None:
            acc[k] = [cr, ci]
        else:
            cell[0] += cr
            cell[1] += ci


def _collect(nvars: int, den: int, acc: dict, width: int) -> Polynomial:
    return Polynomial._build(nvars, den, {k: (re, im) for k, (re, im) in acc.items() if re or im}, width)


def _fits_int64(jobs, degree: int) -> bool:
    """Whether ``_vector_sum`` takes the sum over ``jobs`` (numerator maps of
    a and b, scale of a) of products up to ``degree``: at least
    ``_VECTOR_PRODUCTS`` products (n(n+1)/2 for a square), key fields that
    fit an int64, and no int64 value reaching 2**63.  A part of one product
    is at most 2*max|a|*max|b| and a key collects at most min(len(a), len(b))
    products of a pair (a square's doubled product counts as two), so the
    sum of these bounds covers every product, partial sum and total."""
    products = sum(len(a) * (len(a) + 1) // 2 if a is b else len(a) * len(b) for a, b, _ in jobs)
    if products < _VECTOR_PRODUCTS or _width(degree) > 63:
        return False
    top = lambda num: max(map(abs, chain.from_iterable(num.values())))  # noqa: E731
    return sum(2 * s * top(a) * top(b) * min(len(a), len(b)) for a, b, s in jobs) < 1 << 63


def _vector_sum(nvars: int, den: int, degree: int, jobs) -> Polynomial:
    """The sum over ``jobs`` that ``_fits_int64`` admits, in numpy int64.

    Key fields are split into int64 words of ``degree.bit_length()`` bits a
    field; no field of a sum exceeds ``degree``, so words add without carry,
    as keys do.  A slab of at most ``_SLAB`` products is an outer sum of
    words and an outer Gaussian product of numerators, sorted, its equal
    words added by ``np.add.reduceat``; sorted slabs merge the same way, in
    a stack of halving sizes.  A job whose a is b is a square: pairs i < j
    count twice, pairs i > j not at all.  Keys are rebuilt in 63-bit pieces."""
    width, bits, at = _width(degree), max(degree.bit_length(), 1), np.arange(nvars + 1)
    word, spot, per = (at // (63 // bits)).tolist(), (bits * (at % (63 // bits))).tolist(), 63 // width

    def words(num):  # column f of the fields is the one at bit width * f of the keys
        fields = _fields(num, width, nvars)[:, ::-1].astype(np.int64)
        return np.add.reduceat(fields << spot, range(0, nvars + 1, 63 // bits), axis=1)

    stack = []
    for a, b, s in jobs:
        ka, kb = words(a), words(b)
        na = np.fromiter(chain.from_iterable(a.values()), np.int64).reshape(-1, 2) * s
        nb = np.fromiter(chain.from_iterable(b.values()), np.int64).reshape(-1, 2)
        rows = max(1, _SLAB // len(b))
        for i in range(0, len(a), rows):
            ar, ai = na[i : i + rows, :1], na[i : i + rows, 1:]
            for j in range(i if a is b else 0, len(b), _SLAB):
                br, bi = nb[j : j + _SLAB, 0], nb[j : j + _SLAB, 1]
                keys, re, im = ka[i : i + rows, None] + kb[j : j + _SLAB], ar * br - ai * bi, ar * bi + ai * br
                if a is b:
                    gap = np.arange(j, j + re.shape[1]) - np.arange(i, i + re.shape[0])[:, None]
                    keys, re, im = keys[gap >= 0], (re * (1 + (gap > 0)))[gap >= 0], (im * (1 + (gap > 0)))[gap >= 0]
                stack.append(_reduce(keys.reshape(-1, ka.shape[1]), re.ravel(), im.ravel()))
                while len(stack) > 1 and 2 * len(stack[-1][0]) >= len(stack[-2][0]):
                    stack[-2:] = [_reduce(*map(np.concatenate, zip(*stack[-2:])))]
    while len(stack) > 1:  # the levels are freed as they merge
        stack[-2:] = [_reduce(*map(np.concatenate, zip(*stack[-2:])))]
    keys, re, im = stack.pop()
    live = (re != 0) | (im != 0)
    keys, re, im, out = keys[live], re[live].tolist(), im[live].tolist(), None
    for f in range(0, nvars + 1, per):  # one 63-bit piece of the keys at a time
        piece = sum(((keys[:, word[g]] >> spot[g]) & ((1 << bits) - 1)) << width * (g - f) for g in at[f : f + per])
        out = piece.tolist() if out is None else [k | x << width * f for k, x in zip(out, piece.tolist())]
    del keys  # the key words are not needed while the map is built
    return Polynomial._build(nvars, den, dict(zip(out, zip(re, im))), width)


def _reduce(keys, re, im):
    """The distinct rows of ``keys`` in order, with the numerators of each added."""
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    keys, re, im = keys[order], re[order], im[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(1)])
    return keys[starts], np.add.reduceat(re, starts), np.add.reduceat(im, starts)
