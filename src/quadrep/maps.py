"""Polynomial maps between complex affine quadrics and their certification.

A ``PolyMap`` is an r-tuple of polynomials in m variables, i.e. a polynomial
map C^m -> C^r.  The central notion is the multiplicative order of a map
against the quadratic form q(z) = z_1^2 + ... + z_m^2: a map f has order k
when q(f(z)) = q(z)^k identically, which forces f to send the affine quadric
q = 1 into the target quadric.  ``certify_order`` decides that identity
exactly, never numerically:

* full-expansion: expand q(f) - q^k and test for the zero polynomial;
* factored-expansion: for maps built by ``suspend`` or ``compose_maps``,
  reduce the identity to the exact sub-identities of the construction:
  the children's orders, cited from the passing certificates they got when
  they were built (a child without one is proved), orthogonality,
  expanded in full, and the coefficient identity, a form identity in
  (s, t) decided exactly at s = 1.  The gluing steps are instances of
  "composition with polynomials is a ring morphism";
* exact-evaluation: evaluate the difference on a full integer grid with
  per-variable point count exceeding the explicit components' per-variable
  degrees, a sound and complete zero test for polynomials.  The numerators
  N_j = A_j + B_j*i over the common denominator D are evaluated on the whole
  grid in numpy int64 arithmetic modulo primes below 2**24, whose product
  exceeds a bound H on every |sum(A_j^2 - B_j^2) - q^k D^2| and
  |sum(A_j B_j)| at a grid point; so a value that vanishes modulo every
  prime vanishes over Z.  The first failing point is re-evaluated exactly
  for the witness.

Builders only prove; ``certify_order`` first tries to disprove the claim
from the explicit components, by their degree and then by the residues of
the difference at four points; a map known only by its node is refuted by
its construction.

Deep compositions in the torsion chain have components too large to expand
or even to store (the one-level suspension of the order-22 pair would need
billions of terms), so maps remember their construction as a structure node:
a map known only by its node is certified by factored expansion and evaluated
in floating point, but not exactly.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .coefficients import SuspensionTriple, suspension_triple, verify_triple
from .exact import DEFAULT_EXPANSION_BUDGET, GR_I, RESIDUE_MODULUS, Evaluator, GaussianRational, Polynomial, _require_int, int_text
from .exact import numerator_residues, power_table_cost, sum_of_products

# Point budget for the grid zero test.  It and the expansion budget
# (exact.DEFAULT_EXPANSION_BUDGET) are deliberate ceilings: beyond them the
# factored certificate is the honest route.
DEFAULT_GRID_BUDGET = 200_000
DEFAULT_MATERIALIZE_BUDGET = 20_000_000


class MapError(Exception):
    pass


class DimensionMismatch(MapError):
    pass


class PreconditionError(MapError):
    pass


class InfeasibleError(MapError):
    """The requested exact computation exceeds its feasibility budget."""


class CatalogError(MapError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exact order / orthogonality verification."""

    claimed_order: Optional[int]
    method: str               # full-expansion | factored-expansion | exact-evaluation
    verdict: bool
    detail: Mapping = field(default_factory=dict)
    witness: Optional[str] = None

    def __post_init__(self):
        # read-only all the way down, so no verdict or summary changes later
        detail = {k: tuple(v) if isinstance(v, list) else v for k, v in self.detail.items()}
        object.__setattr__(self, "detail", MappingProxyType(detail))

    def summary(self) -> dict:
        out = {
            "claimed_order": self.claimed_order,
            "method": self.method,
            "verdict": "pass" if self.verdict else "fail",
        }
        if self.detail:
            out["detail"] = {k: list(v) if isinstance(v, tuple) else v for k, v in self.detail.items()}
        if self.witness:
            out["witness"] = self.witness
        return out


class _Budget:
    """Running product-count budget shared across one guarded computation."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, amount: int):
        self.spent += amount
        if self.spent > self.limit:
            raise InfeasibleError(
                f"exact expansion budget exceeded ({self.spent} > {self.limit} coefficient products)"
            )


# ----------------------------------------------------------------- q and b


def quadratic_form(m: int) -> Polynomial:
    """q(z) = z_1^2 + ... + z_m^2 in m variables."""
    if m < 1:
        raise ValueError("the quadratic form needs at least one variable")
    return Polynomial(m, {tuple(2 * (j == i) for j in range(m)): 1 for i in range(m)})


# ------------------------------------------------------------- structure


@dataclass(frozen=True)
class SuspensionNode:
    f: "PolyMap"
    g: "PolyMap"
    triple: SuspensionTriple
    ell: int

    def coefficient_args(self, Z: np.ndarray) -> np.ndarray:
        """The arguments (s, t) = (q(z) + q(u), q(z)) of the coefficient
        forms, one row for each row (z, u) of Z."""
        z = Z[:, : self.f.m]
        return np.stack([np.sum(Z * Z, axis=1), np.sum(z * z, axis=1)], axis=1)

    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        z, u = Z[:, : self.f.m], Z[:, self.f.m :]
        st = self.coefficient_args(Z)
        b1, b2, rr = (c.eval_batch(st) for c in (self.triple.f_coeff, self.triple.g_coeff, self.triple.u_coeff))
        head = b1[:, None] * self.f.eval_batch(z) + b2[:, None] * self.g.eval_batch(z)
        return np.concatenate([head, rr[:, None] * u], axis=1)


@dataclass(frozen=True)
class CompositionNode:
    outer: "PolyMap"
    inner: "PolyMap"

    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        return self.outer.eval_batch(self.inner.eval_batch(Z))


@dataclass(frozen=True, eq=False)
class PolyMap:
    """Polynomial map C^m -> C^r with optional certified order and lineage.

    ``components`` is the explicit list of r polynomials when the map is
    small enough to store; ``node`` records how the map was built and keeps
    large maps certifiable, and evaluable in floating point, without them.
    At least one is always present; exact evaluation needs the components.

    Maps are immutable and compare by identity; ``certificate`` is set only
    by the builder that proved the order, so factored proofs may cite it.
    """

    m: int
    r: int
    components: Optional[tuple[Polynomial, ...]] = None
    node: Optional[SuspensionNode | CompositionNode] = None
    label: str = ""
    order: Optional[int] = None
    # canonical JSON text (no newline) of an imported document's certificate
    # list, spliced back in on export so that export -> import -> export stays byte-identical
    document_certificates: Optional[str] = None
    certificate: Optional[Certificate] = field(default=None, init=False)
    _evaluator: Optional[Evaluator] = field(default=None, init=False)

    def __post_init__(self):
        if self.components is None and self.node is None:
            raise ValueError("a PolyMap needs explicit components or a structure node")
        if self.order is not None:
            _require_int(self.order, "the order")  # a document must spell it back
            if self.order < 0:
                raise ValueError(f"the order must be >= 0, got {self.order}")
        if self.components is not None:
            object.__setattr__(self, "components", tuple(self.components))
            if len(self.components) != self.r:
                raise DimensionMismatch("component count must equal the codomain dimension")
            for c in self.components:
                if c.nvars != self.m:
                    raise DimensionMismatch("every component must live in the domain variables")

    def __repr__(self):
        state = "explicit" if self.components is not None else "structural"
        return f"PolyMap(m={self.m}, r={self.r}, order={self.order}, {state}, label={self.label!r})"

    @classmethod
    def explicit(cls, components: Sequence[Polynomial], label: str, order=None) -> "PolyMap":
        if not components:
            raise ValueError("a map needs at least one component")
        return cls(m=components[0].nvars, r=len(components), components=components, label=label, order=order)

    # ---------------------------------------------------------- evaluation

    def evaluator(self) -> Evaluator:
        """The explicit components decoded into one evaluator, built once."""
        if self.components is None:
            raise InfeasibleError("compiled evaluation needs materialized components")
        if self._evaluator is None:
            object.__setattr__(self, "_evaluator", Evaluator(self.components))
        return self._evaluator

    def eval_batch(self, points) -> np.ndarray:
        Z = np.asarray(points, dtype=complex)
        single = Z.ndim == 1
        if single:
            Z = Z[None, :]
        if Z.shape[1] != self.m:
            raise DimensionMismatch(f"points have width {Z.shape[1]}, map domain is {self.m}")
        if self.node is not None:
            out = self.node.eval_batch(Z)
        else:
            evaluator = self.evaluator()
            check_room(evaluator.batch_cost(len(Z)), "batch power tables")
            out = evaluator.eval_batch(Z)
        return out[0] if single else out

    def eval_exact(self, point: Sequence) -> list[GaussianRational]:
        pt = [GaussianRational.coerce(v) for v in point]
        if len(pt) != self.m:
            raise DimensionMismatch("point length must match the domain dimension")
        return self.evaluator().eval_exact(pt)

    def per_variable_bounds(self) -> tuple[int, ...]:
        """Each variable's largest exponent over the explicit components."""
        if self.components is None:
            raise InfeasibleError("degree bounds need materialized components")
        return tuple(map(max, zip([0] * self.m, *(c.per_variable_degrees() for c in self.components))))

    def jacobian(self) -> list[list[Polynomial]]:
        """Exact partial derivatives [r][m]; needs explicit components."""
        if self.components is None:
            raise InfeasibleError("jacobian needs materialized components")
        return [[c.derivative(i) for i in range(self.m)] for c in self.components]


def check_room(units: int, what: str, limit: int = DEFAULT_EXPANSION_BUDGET):
    """Refuse ``units`` of room (power-table entries or point coordinates)
    beyond ``limit``, before anything that size is allocated."""
    if units > limit:
        raise InfeasibleError(f"{what} exceed the expansion budget {limit}")


# -------------------------------------------------------------- b pairing


def bilinear_pairing(f: PolyMap, g: PolyMap, budget: Optional[_Budget] = None) -> Polynomial:
    """The polynomial sum_j f_j * g_j; f and g are b-orthogonal iff it is zero.

    Its products are charged to ``budget``, a fresh expansion budget when
    none is given.  When both maps are compositions with the same inner
    map, the pairing is computed on the outer pair and composed afterwards;
    in particular an outer pairing of zero settles the question without
    touching the (possibly huge) composed components.
    """
    if f.m != g.m or f.r != g.r:
        raise DimensionMismatch("b-pairing needs maps with equal domain and codomain dimensions")
    if budget is None:
        budget = _Budget(DEFAULT_EXPANSION_BUDGET)
    if (
        isinstance(f.node, CompositionNode)
        and isinstance(g.node, CompositionNode)
        and f.node.inner is g.node.inner
    ):
        outer = bilinear_pairing(f.node.outer, g.node.outer, budget)
        if outer.is_zero():
            return Polynomial.zero(f.m)
        if f.node.inner.components is None:
            raise InfeasibleError("nonzero outer pairing and no materialized inner components")
        return outer.compose(f.node.inner.components, budget)
    if f.components is None or g.components is None:
        raise InfeasibleError(
            "b-pairing needs materialized components (or a shared composition structure)"
        )
    return sum_of_products(list(zip(f.components, g.components)), budget)


# ---------------------------------------------------------- certification


def _refutation_points(m: int) -> list[list[GaussianRational]]:
    """Deterministic exact points for fast disproof of a claimed identity.

    The first point has q = 4, so any wrong claimed order is caught there
    (4^a = 4^b forces a = b).
    """
    pts = []
    p0 = [GaussianRational(0)] * m
    p0[0] = GaussianRational(2)
    pts.append(p0)
    pts.append([GaussianRational(i + 1) for i in range(m)])
    p2 = [GaussianRational(1)] * m
    p2[0] = GaussianRational(1, Fraction(1, 2))
    pts.append(p2)
    pts.append([GaussianRational(Fraction(1, i + 2)) for i in range(m)])
    return pts


def _difference_at(pmap: PolyMap, k: int, point: Sequence[GaussianRational]) -> GaussianRational:
    image = pmap.eval_exact(point)
    qv = sum((w * w for w in image), start=GaussianRational(0))
    qz = sum((v * v for v in point), start=GaussianRational(0))
    return qv - qz**k


def _refute(pmap: PolyMap, k: int, budget: int) -> Optional[Certificate]:
    """A fast exact disproof of q(f) = q^k from the explicit components, or
    None: first the degree bound, then a scan of the difference's residues at
    four points, where only the first nonzero one is evaluated exactly, for
    its witness.  A map without components is left to its construction rule."""
    if pmap.components is None:
        return None
    bound = max([0, *(c.degree() for c in pmap.components)])
    if k > bound:
        witness = f"deg q(f) <= {2 * bound} < {int_text(2 * k)} = deg q^{int_text(k)}"
        return Certificate(k, "exact-evaluation", False, {"stage": "degree bound"}, witness)
    # the price of that one exact point: its power tables hold d(d+1)/2 for the degree d >= k
    if power_table_cost((*pmap.per_variable_bounds(), bound)) > budget:
        return None
    points = _refutation_points(pmap.m)
    for point, (values, scale) in zip(points, numerator_residues(pmap.components, points)):
        # scale**2 * (q(f(p)) - q(p)^k), where q(p)^k * scale**2 is a Gaussian integer since k <= bound
        power = sum(v * v for v in point) ** k * scale**2
        real, imag = sum(re * re - im * im for re, im in values) - power.re, sum(2 * re * im for re, im in values) - power.im
        if real % RESIDUE_MODULUS or imag % RESIDUE_MODULUS:
            diff = _difference_at(pmap, k, point)
            coords = ", ".join(v.canonical_str() for v in point)
            witness = f"q(f(p)) - q(p)^{k} = {diff.canonical_str()} at p = ({coords})"
            return Certificate(k, "exact-evaluation", False, {"stage": "refutation scan"}, witness)
    return None


def _squaring_cost(pmap: PolyMap) -> int:
    """Coefficient products of squaring every explicit component."""
    return sum(len(c) * (len(c) + 1) // 2 for c in pmap.components)


def _form_power_cost(m: int, k: int) -> int:
    """Coefficient products ``Polynomial.__pow__`` spends on q^k, where q is
    ``quadratic_form(m)`` and q^j has C(j+m-1, m-1) terms."""
    cost, base, result = 0, 1, 0  # q^base is squared, q^result accumulates
    while k:
        n = math.comb(base + m - 1, m - 1)
        if k & 1:
            cost += math.comb(result + m - 1, m - 1) * n if result else 0
            result += base
        k >>= 1
        if k:
            cost += n * (n + 1) // 2
            base *= 2
    return cost


def _expansion_cert(pmap: PolyMap, k: int, budget: _Budget) -> Certificate:
    """Certificate by exact expansion, factoring through the map's lineage
    node when squaring the components or forming q^k would outgrow the budget."""
    if pmap.components is not None:
        cost = _squaring_cost(pmap)
        # q^k must fit too; it is not charged, so certificates keep their expanded_products
        if budget.spent + cost + _form_power_cost(pmap.m, k) <= budget.limit:
            budget.charge(cost)
            # q(f) - q^k in one accumulation; each pair (c, c) is formed as a square
            diff = sum_of_products([(c, c) for c in pmap.components] + [(Polynomial.constant(pmap.m, -1), quadratic_form(pmap.m) ** k)])
            if diff.is_zero():
                detail = {"difference_terms": 0, "expanded_products": budget.spent}
                return Certificate(k, "full-expansion", True, detail)
            mono, coeff = diff.leading_term()
            witness = f"nonzero difference term {coeff.canonical_str()} * {mono}"
            return Certificate(k, "full-expansion", False, {"difference_terms": len(diff)}, witness)
    node = lineage_node(pmap)
    if isinstance(node, SuspensionNode):
        return _suspension_cert(node, k, budget)
    if isinstance(node, CompositionNode):
        return _composition_cert(node, k, budget)
    raise InfeasibleError("q(f) - q^k too large for direct expansion and no structure node to factor through")


def _child_cert(child: PolyMap, k: int, budget: _Budget) -> Certificate:
    """The certificate a child got when it was built, cited when it passes
    for order k; only a child without one is proved here."""
    cert = child.certificate
    if cert is not None and cert.verdict and cert.claimed_order == k:
        return cert
    return _expansion_cert(child, k, budget)


def _suspension_cert(node: SuspensionNode, k: int, budget: _Budget) -> Certificate:
    kc = node.f.order
    if kc is None or node.g.order != kc:
        raise PreconditionError("suspension children must carry certified equal orders")
    if k != 2 * kc - 1:
        witness = f"suspension of order-{kc} maps has order {2 * kc - 1}, not {k}"
        return Certificate(k, "factored-expansion", False, {"children_order": kc}, witness)
    cert_f = _child_cert(node.f, kc, budget)
    if not cert_f.verdict:
        return Certificate(k, "factored-expansion", False, {"failed": "first factor"}, cert_f.witness)
    cert_g = _child_cert(node.g, kc, budget)
    if not cert_g.verdict:
        return Certificate(k, "factored-expansion", False, {"failed": "second factor"}, cert_g.witness)
    pairing = bilinear_pairing(node.f, node.g, budget)
    if not pairing.is_zero():
        mono, coeff = pairing.leading_term()
        witness = f"b-pairing term {coeff.canonical_str()} * {mono}"
        return Certificate(k, "factored-expansion", False, {"failed": "orthogonality"}, witness)
    triple_cert = verify_triple(node.triple)
    if not triple_cert.verdict or node.triple.order != kc:
        return Certificate(k, "factored-expansion", False, {"failed": "coefficient triple"}, triple_cert.witness)
    return Certificate(
        claimed_order=k,
        method="factored-expansion",
        verdict=True,
        detail={
            "rule": "suspension of two b-orthogonal order-k maps has order 2k-1",
            "children_order": kc,
            "children_methods": [cert_f.method, cert_g.method],
        },
    )


def _composition_cert(node: CompositionNode, k: int, budget: _Budget) -> Certificate:
    ko, ki = node.outer.order, node.inner.order
    if ko is None or ki is None:
        raise PreconditionError("composition children must carry certified orders")
    if k != ko * ki:
        witness = f"composition of orders {ko} and {ki} has order {ko * ki}, not {k}"
        return Certificate(k, "factored-expansion", False, {"outer_order": ko, "inner_order": ki}, witness)
    cert_o = _child_cert(node.outer, ko, budget)
    if not cert_o.verdict:
        return Certificate(k, "factored-expansion", False, {"failed": "outer"}, cert_o.witness)
    cert_i = _child_cert(node.inner, ki, budget)
    if not cert_i.verdict:
        return Certificate(k, "factored-expansion", False, {"failed": "inner"}, cert_i.witness)
    return Certificate(
        claimed_order=k,
        method="factored-expansion",
        verdict=True,
        detail={
            "rule": "q(outer(inner)) = (q^k_outer)(inner) = (q(inner))^k_outer",
            "outer_order": ko,
            "inner_order": ki,
            "children_methods": [cert_o.method, cert_i.method],
        },
    )


# The grid test evaluates the numerators N_j = D * f_j (D the common
# denominator) on the whole grid at once in numpy int64 arithmetic, modulo
# primes below 2**24, with one Vandermonde mode product per variable.  A mode
# product sums at most (longest contraction) products of two residues, so it
# stays below 2**63 while p**2 * (longest contraction) < 2**63.  The charge of
# ``power_cost`` against the default expansion budget caps every exponent near
# 3161, so primes below 2**24 are safe; a larger budget lowers the primes.
_MODULUS_LIMIT = 1 << 24


def _prime_below(n: int) -> int:
    """The largest prime below n, by trial division."""
    p = n - 1
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p -= 1
    return p


def _moduli(height: int, limit: int) -> list[int]:
    """Primes below ``limit``, largest first, until their product exceeds ``height``."""
    primes, product = [], 1
    while product <= height:
        primes.append(_prime_below(primes[-1] if primes else limit))
        product *= primes[-1]
    return primes


def _pow_mod(x: np.ndarray, k: int, p: int) -> np.ndarray:
    """x**k mod p elementwise, for residues x < p."""
    out = np.ones_like(x)
    while k:
        if k & 1:
            out = out * x % p
        x = x * x % p
        k >>= 1
    return out


def _vandermonde(n: int, d: int, p: int) -> np.ndarray:
    """(n, d) matrix of c**e mod p for the grid coordinates c < n and e < d."""
    c = np.arange(n, dtype=np.int64) % p
    out = np.ones((n, d), dtype=np.int64)
    for e in range(1, d):
        out[:, e] = out[:, e - 1] * c % p
    return out


def _grid_values(terms: list, dims: list[int], vander: list[np.ndarray], p: int) -> np.ndarray:
    """(2, *grid) residues mod p of the real and imaginary parts of one
    numerator, given as (mono, re, im) terms, on the whole grid."""
    vals = np.zeros((2, *dims), dtype=np.int64)
    for mono, re, im in terms:
        vals[(0, *mono)] = re % p
        vals[(1, *mono)] = im % p
    # one mode product per variable: the contracted axis moves to the end
    for v in vander:
        vals = np.tensordot(vals, v, axes=([1], [1])) % p
    return vals


def _grid_misses(rows: list, k: int, den: int, dims: list[int], sides: list[int], moduli: list[int]) -> np.ndarray:
    """Mask of the grid points c, 0 <= c_i < sides[i], where some modulus
    sees sum(A_j^2 - B_j^2) != q^k den^2 or sum(A_j B_j) != 0, for the
    numerators A_j + B_j*i of ``rows``; coefficient tensors have shape ``dims``."""
    q = sum(np.ix_(*(np.arange(n, dtype=np.int64) ** 2 for n in sides)))
    miss = np.zeros(sides, dtype=bool)
    for p in moduli:
        vander = [_vandermonde(n, d, p) for n, d in zip(sides, dims)]
        real = -_pow_mod(q % p, k, p) * (den * den % p) % p
        imag = np.zeros(sides, dtype=np.int64)
        for terms in rows:
            a, b = _grid_values(terms, dims, vander, p)
            real = (real + a * a - b * b) % p
            imag = (imag + a * b) % p
        miss |= (real != 0) | (imag != 0)
    return miss


# numpy arrays hold at most 64 axes (32 before numpy 2), and the grid's
# coefficient arrays take one axis per variable plus one for the real and
# imaginary parts
_GRID_VARIABLES = (64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32) - 1


def _grid_cert(pmap: PolyMap, k: int, grid_budget: int, expansion_budget: int) -> Certificate:
    if pmap.components is None:
        raise InfeasibleError("grid zero test needs materialized components")
    if pmap.m > _GRID_VARIABLES:
        raise InfeasibleError(f"grid zero test holds at most {_GRID_VARIABLES} variables in one array, got {pmap.m}")
    bounds = pmap.per_variable_bounds()
    diff_bounds = [max(2 * b, 2 * k) for b in bounds]
    npoints = math.prod(b + 1 for b in diff_bounds)
    if npoints > grid_budget:
        raise InfeasibleError(
            f"grid zero test needs {npoints} points for per-variable bounds {diff_bounds}; "
            f"budget is {grid_budget}"
        )
    evaluator = pmap.evaluator()
    check_room(evaluator.power_cost(), "grid zero test power tables", expansion_budget)
    den, rows = evaluator.integer_terms()
    # Every coordinate of a grid point c lies in 0..top, so |A_j(c)| and
    # |B_j(c)| are at most the l1 norms of A_j and B_j times top**deg f_j,
    # and q(c)**k * den**2 is at most (m * top**2)**k * den**2.  Then height
    # bounds |sum(A_j^2 - B_j^2) - q^k den^2| and |sum(A_j B_j)|, and a value
    # that vanishes modulo primes with product above it vanishes over Z.
    top = max([1, *diff_bounds])
    height = (pmap.m * top * top) ** k * den * den
    for terms, comp in zip(rows, pmap.components):
        scale = top ** max(comp.degree(), 0)
        a = scale * sum(abs(re) for _, re, _ in terms)
        b = scale * sum(abs(im) for _, _, im in terms)
        height += a * a + b * b
    moduli = _moduli(height, min(_MODULUS_LIMIT, math.isqrt((2**63 - 1) // (max(bounds) + 1))))
    sides = [b + 1 for b in diff_bounds]
    miss = _grid_misses(rows, k, den, [b + 1 for b in bounds], sides, moduli)
    detail = {
        "grid_points": npoints,
        "per_variable_bounds": diff_bounds,
        "moduli": moduli,
        "height_bits": height.bit_length(),
    }
    if not miss.any():
        return Certificate(k, "exact-evaluation", True, detail)
    # the first failing point in itertools.product order, re-evaluated exactly
    combo = [int(c) for c in np.unravel_index(int(miss.argmax()), miss.shape)]
    diff = _difference_at(pmap, k, [GaussianRational(c) for c in combo])
    coords = ", ".join(str(c) for c in combo)
    witness = f"difference {diff.canonical_str()} at grid point ({coords})"
    return Certificate(k, "exact-evaluation", False, detail, witness)


def certify_order(
    pmap: PolyMap,
    k: int,
    method: str = "auto",
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> Certificate:
    """Decide exactly whether q(map(z)) = q(z)^k.

    ``method`` is "auto", "expansion" or "grid".  In every mode a map with
    explicit components first meets ``_refute``: a claim above their degree
    is refuted before q^k is formed, and then the difference is scanned at
    four points modulo a prime, where one nonzero residue is a sound
    disproof, spelled exactly at that point, that catches corrupted maps and
    wrong claimed orders long before any expensive proof work.  A map
    without components skips both: its construction rule decides the claim.
    Before all of this the domain is priced: q's m * m exponent entries
    beyond ``expansion_budget`` raise InfeasibleError.  The map is not modified.
    """
    _require_int(k, "the claimed order")
    if k < 0:
        raise ValueError("claimed order must be nonnegative")
    if method not in ("auto", "expansion", "grid"):
        raise ValueError(f"unknown certification method {method!r}")
    # every route forms exact points or exponent vectors of m coordinates,
    # and q's m exponent vectors of m entries are the least of them
    entries = pmap.m * pmap.m
    check_room(entries, f"the {entries} exponent entries of q in {pmap.m} variables", expansion_budget)
    refuted = _refute(pmap, k, expansion_budget)
    if refuted is not None:
        return refuted
    if method in ("auto", "expansion"):
        try:
            return _expansion_cert(pmap, k, _Budget(expansion_budget))
        except InfeasibleError:
            if method == "expansion":
                raise
    return _grid_cert(pmap, k, grid_budget, expansion_budget)


def _certified(pmap: PolyMap, what: str) -> PolyMap:
    """Prove ``pmap`` at its own order and attach the certificate: the only
    writer of ``PolyMap.certificate``, so ``_child_cert`` may cite it."""
    cert = _expansion_cert(pmap, pmap.order, _Budget(DEFAULT_EXPANSION_BUDGET))
    if not cert.verdict:
        raise MapError(f"{what} failed its order certificate: {cert.witness}")
    object.__setattr__(pmap, "certificate", cert)
    return pmap


# --------------------------------------------------------------- builders


def _materialize_suspension(node: SuspensionNode, budget_limit: int) -> Optional[list[Polynomial]]:
    f, g, triple, ell = node.f, node.g, node.triple, node.ell
    if f.components is None or g.components is None:
        return None
    m = f.m + ell
    try:
        budget = _Budget(budget_limit)
        s_poly = quadratic_form(m)
        t_poly = quadratic_form(f.m).extend(m)
        b1 = triple.f_coeff.compose([s_poly, t_poly], budget)
        b2 = triple.g_coeff.compose([s_poly, t_poly], budget)
        rr = triple.u_coeff.compose([s_poly, t_poly], budget)
        # each component is one sum of products: b1*f_j + b2*g_j, then rr*u_i
        sums = [((b1, fj.extend(m)), (b2, gj.extend(m))) for fj, gj in zip(f.components, g.components)]
        sums += [((rr, Polynomial.variable(m, f.m + i)),) for i in range(ell)]
        return [sum_of_products(pairs, budget) for pairs in sums]
    except InfeasibleError:
        return None


def suspend(
    f: PolyMap,
    g: PolyMap,
    ell: int,
    materialize_budget: int = DEFAULT_MATERIALIZE_BUDGET,
) -> PolyMap:
    """Suspension operator: glue a b-orthogonal order-k pair into a map on
    ell more variables,

        F(z, u) = (c_f(s, t) f(z) + c_g(s, t) g(z),  c_u(s, t) u),

    with (s, t) = (q(z) + q(u), q(z)) and the order-k coefficient triple
    (c_u, c_f, c_g).  The result has order 2k - 1; its restriction to the
    real sphere preserves the equator and both hemispheres, which is what
    makes it the ell-fold suspension of f on homotopy classes.
    """
    _require_int(ell, "the new variable count")
    if ell < 1:
        raise ValueError("suspension needs at least one new variable")
    if f.m != g.m or f.r != g.r:
        raise DimensionMismatch("suspension needs maps with equal dimensions")
    if f.order is None or g.order is None:
        raise PreconditionError("suspension needs certified orders on both maps")
    if f.order != g.order or f.order < 1:
        raise PreconditionError(f"suspension needs equal orders >= 1, got {f.order} and {g.order}")
    pairing = bilinear_pairing(f, g)
    if not pairing.is_zero():
        raise PreconditionError("suspension needs b-orthogonal maps; the pairing is nonzero")
    k = f.order
    triple = suspension_triple(k)
    node = SuspensionNode(f, g, triple, ell)
    comps = _materialize_suspension(node, materialize_budget)
    out = PolyMap(
        m=f.m + ell,
        r=f.r + ell,
        components=comps,
        node=node,
        label=f"suspend({f.label},{g.label},{ell})",
        order=2 * k - 1,
    )
    return _certified(out, "suspension")


def _materialize_composition(node: CompositionNode, budget_limit: int) -> Optional[list[Polynomial]]:
    outer, inner = node.outer, node.inner
    if outer.components is None or inner.components is None:
        return None
    # a lower bound on what compose charges: len(a)^2 to square each argument a
    # that an outer component raises to a power >= 2
    degrees = [c.per_variable_degrees() for c in outer.components]
    if sum(len(a) ** 2 for d in degrees for a, e in zip(inner.components, d) if e >= 2) > budget_limit:
        return None
    try:
        budget = _Budget(budget_limit)
        return [c.compose(inner.components, budget) for c in outer.components]
    except InfeasibleError:
        return None


def compose_maps(
    outer: PolyMap,
    inner: PolyMap,
    materialize_budget: int = DEFAULT_MATERIALIZE_BUDGET,
) -> PolyMap:
    """Exact composition outer(inner(z)); certified orders multiply."""
    if inner.r != outer.m:
        raise DimensionMismatch(
            f"cannot compose: inner codomain {inner.r} != outer domain {outer.m}"
        )
    node = CompositionNode(outer, inner)
    comps = _materialize_composition(node, materialize_budget)
    order = None
    if outer.order is not None and inner.order is not None:
        order = outer.order * inner.order
    out = PolyMap(
        m=inner.m,
        r=outer.r,
        components=comps,
        node=node,
        label=f"compose({outer.label},{inner.label})",
        order=order,
    )
    return out if order is None else _certified(out, "composition")


def hopf_pair() -> tuple[PolyMap, PolyMap]:
    """The quadratic generator pair on C^4.

    f extends the classical fibration S^3 -> S^2 (its class generates
    pi_3(S^2)); g has the same order 2 and is b-orthogonal to f, which is
    what the suspension operator consumes.
    """
    z = [Polynomial.variable(4, i) for i in range(4)]
    sq = [v.square() for v in z]
    f_comps = [
        sq[0] + sq[1] - sq[2] - sq[3],
        2 * (z[0] * z[2]) - 2 * (z[1] * z[3]),
        2 * (z[0] * z[3]) + 2 * (z[1] * z[2]),
    ]
    g_comps = [
        2 * (z[0] * z[3]) - 2 * (z[1] * z[2]),
        2 * (z[0] * z[1]) + 2 * (z[2] * z[3]),
        sq[1] + sq[3] - sq[0] - sq[2],
    ]
    f = _certified(PolyMap.explicit(f_comps, "hopf.f", order=2), "hopf pair")
    g = _certified(PolyMap.explicit(g_comps, "hopf.g", order=2), "hopf pair")
    if not bilinear_pairing(f, g).is_zero():
        raise MapError("hopf pair failed b-orthogonality")
    return f, g


def circle_pair(d: int) -> tuple[PolyMap, PolyMap]:
    """Winding-d self-map pair of the circle quadric.

    f is the pair of real-coefficient components of (z1 + i z2)^|d|, with
    the second component negated for d < 0; g = (-f2, f1) is b-orthogonal
    with the same order |d|.  On the real circle f winds d times.
    """
    if d == 0:
        raise ValueError("winding 0 has no polynomial pair; use constant_map for the unit class")
    n = abs(d)
    w = Polynomial.variable(2, 0) + Polynomial.variable(2, 1).scale(GR_I)
    p = w**n
    # real and imaginary parts: the variables are real on the circle
    f1 = (p + p.conjugate()).scale(Fraction(1, 2))
    f2 = (p - p.conjugate()).scale(GaussianRational(0, Fraction(-1, 2)))
    if d < 0:
        f2 = -f2
    f = _certified(PolyMap.explicit([f1, f2], f"circle({d}).f", order=n), "circle pair")
    g = _certified(PolyMap.explicit([-f2, f1], f"circle({d}).g", order=n), "circle pair")
    return f, g


def constant_map(m: int, r: int) -> PolyMap:
    """Constant map to the basepoint (1, 0, ..., 0); represents the unit class."""
    comps = [Polynomial.constant(m, 1)] + [Polynomial.zero(m) for _ in range(r - 1)]
    return _certified(PolyMap.explicit(comps, f"constant({m},{r})", order=0), "constant map")


# ----------------------------------------------------------------- catalog


# family -> (its arguments, least n, stem j).  Stem 0, pi_n(S^n), suspends
# the circle pair and stem j >= 1, pi_(n+j)(S^n), the stem-j pair; pi3_s2 is
# the one composition.  The table holds no builder: each is called by its
# module name, so a wrapper set on the module sees every call.
_FAMILIES = {
    "pi_n": ("n,d", 1, 0),
    "pi_np1": ("n", 3, 1),
    "pi_np2": ("n", 2, 2),
    "pi_np3": ("n", 2, 3),
    "pi3_s2": ("d", None, None),
}


def _stem_pair(j: int, materialize_budget: int) -> tuple[PolyMap, PolyMap]:
    """The b-orthogonal pair of stem j >= 1, C^(j+3) -> C^3: the Hopf pair,
    then for each later stem the Hopf pair composed with the one-step
    suspension of the pair below; orders 2, 6, 22, ..."""
    hopf = pair = hopf_pair()
    for _ in range(j - 1):
        phi = suspend(*pair, 1, materialize_budget)
        pair = tuple(compose_maps(h, phi, materialize_budget) for h in hopf)
    return pair


def _target(target: str) -> tuple[str, Optional[int], list[int], tuple[int, int]]:
    """A catalog target's spelling and stem from its ``_FAMILIES`` row, its
    arguments and the (m, r) of its map: (4, 3) for pi3_s2, else (n + stem + 1, n + 1)."""
    name, _, argstr = target.partition(":")
    try:
        args = [int(a) for a in argstr.split(",")] if argstr else []
    except ValueError:
        raise CatalogError(f"malformed catalog target {target!r}")
    if name not in _FAMILIES:
        raise CatalogError(f"unknown catalog target {name!r}")
    spelling, least, stem = _FAMILIES[name]
    if len(args) != spelling.count(",") + 1:
        count = "two arguments" if "," in spelling else "one argument"
        raise CatalogError(f"{name} takes {count}: {name}:{spelling}")
    if name == "pi_np1" and args == [2]:
        raise CatalogError("pi_np1:2 is served by pi3_s2 (pi_3(S^2) is infinite cyclic)")
    if least is not None and args[0] < least:
        raise CatalogError(f"{name} needs n >= {least}")
    return spelling, stem, args, (4, 3) if stem is None else (args[0] + stem + 1, args[0] + 1)


def catalog(target: str, materialize_budget: int = DEFAULT_MATERIALIZE_BUDGET) -> PolyMap:
    """Build the representative map for a target class.

    Targets: ``pi_n:n,d`` (degree-d class of pi_n(S^n)), ``pi_np1:n``
    (n >= 3), ``pi_np2:n`` (n >= 2), ``pi3_s2:d`` (d times the generator of
    pi_3(S^2)), ``pi_np3:n`` (the 2-torsion class construction, n >= 2).
    ``materialize_budget`` bounds the explicit components of every map the
    target is built from.  Every returned map carries a passing order
    certificate and a lineage label reproducing its construction.
    """
    spelling, stem, args, shape = _target(target)
    if spelling.endswith("d") and args[-1] == 0:  # degree d = 0 is the unit class
        out = constant_map(*shape)
    elif stem is None:
        f, _ = hopf_pair()
        out = compose_maps(f, catalog(f"pi_n:3,{args[0]}", materialize_budget), materialize_budget)
    else:
        # the pair maps onto the quadric of S^(f.r - 1); each new variable
        # suspends it one sphere higher, up to S^n
        f, g = circle_pair(args[1]) if stem == 0 else _stem_pair(stem, materialize_budget)
        ell = args[0] - (f.r - 1)
        out = f if ell == 0 else suspend(f, g, ell, materialize_budget)

    # relabel a copy: the built map may be cited by reference
    out = copy.copy(out)
    object.__setattr__(out, "label", f"{target} := {out.label}")
    return out


def lineage_node(pmap: PolyMap) -> Optional[SuspensionNode | CompositionNode]:
    """The structure node that proves ``pmap``: its own, or for a map without
    one the node of the catalog map its lineage label ("pi_np2:4 := ...",
    as ``catalog`` writes it) names, once that map matches ``pmap`` term for
    term; else None.  Raises ``CatalogError`` or ``InfeasibleError`` when
    there is nothing to compare and ``MapError`` on a mismatch."""
    if pmap.node is not None:
        return pmap.node
    target = pmap.label.split(" := ", 1)[0].strip()
    if ":" not in target:
        return None
    try:
        # the (m, r) of the target is compared before anything is built
        rebuilt = catalog(target) if _target(target)[3] == (pmap.m, pmap.r) else None
    except MapError as exc:
        raise CatalogError(f"cannot rebuild lineage {target!r}: {exc}") from exc
    if rebuilt is not None and rebuilt.components is None:
        raise InfeasibleError(f"the rebuild of {target!r} is not materialized at the default budget")
    if rebuilt is None or pmap.components != rebuilt.components:
        raise MapError(f"document components do not match the map rebuilt from {target!r}")
    return rebuilt.node


# ---------------------------------------------------------- blend homotopy


class BlendedMap:
    """cos(t pi/2) f + sin(t pi/2) g, the straight-line homotopy on quadrics.

    Coefficients are floating, so this object only evaluates; exactness is
    deliberately waived.  On the domain quadric q of the value stays 1
    because cos^2 + sin^2 = 1 and the pair is b-orthogonal.
    """

    def __init__(self, f: PolyMap, g: PolyMap, t: float):
        if f.m != g.m or f.r != g.r:
            raise DimensionMismatch("blending needs maps with equal dimensions")
        if f.order is None or f.order != g.order:
            raise PreconditionError("blending needs equal certified orders")
        if not bilinear_pairing(f, g).is_zero():
            raise PreconditionError("blending needs b-orthogonal maps")
        if not 0.0 <= t <= 1.0:
            raise ValueError("blend parameter must lie in [0, 1]")
        self.f = f
        self.g = g
        self.t = float(t)
        self.m = f.m
        self.r = f.r
        self.order = f.order
        self.label = f"blend({f.label},{g.label},t={t})"

    def eval_batch(self, points) -> np.ndarray:
        c = np.cos(self.t * np.pi / 2)
        s = np.sin(self.t * np.pi / 2)
        return c * self.f.eval_batch(points) + s * self.g.eval_batch(points)


def blend_homotopy(f: PolyMap, g: PolyMap, t: float) -> BlendedMap:
    return BlendedMap(f, g, t)
