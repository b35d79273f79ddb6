"""Floating-point certification of quadric-map structure.

Everything here is a numeric shadow of facts the exact layer either proved
(order certificates imply the quadric residual scans) or cannot see at all:
the retraction of the quadric onto its real sphere, hemisphere preservation
of suspensions, topological degree on S^1 and S^2, and the Hopf invariant
of maps S^3 -> S^2 computed as the linking number of two regular-value
preimage circles.

All sampling is seeded, so results are reproducible.  The residual scan's
fixed-size chunks bound its working memory; its values do not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exact import Evaluator
from .maps import DimensionMismatch, PolyMap, PreconditionError, SuspensionNode, check_room


class NumericError(Exception):
    """A numeric certification failed its tolerance or regularity contract."""


# points per evaluation in the residual scan, for memory: a million-point sampled
# verify peaks at 193 MB (pi_n:4,2) and 170 MB (pi3_s2:7), 358 and 271 MB unchunked
_CHUNK = 2048
# largest deviation of a suspension's tail from c_u(s, t) u that passes
HEMISPHERE_TOL = 1e-9
# time steps of the retraction homotopy and the contraction loop, ends included
_HOMOTOPY_STEPS = 11


def thread_count() -> int:
    """Threads the scans run on: always 1, the calling thread."""
    return 1


# ----------------------------------------------------------------- sampling


def sample_sphere(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform samples on S^n in R^(n+1), unit norm to rounding."""
    if n < 1:
        raise ValueError("sphere dimension must be at least 1")
    check_room(count * (n + 1), f"{count} points of {n + 1} coordinates")
    rng = np.random.default_rng(seed)
    out = rng.normal(size=(count, n + 1))
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    # a zero draw has probability zero but would poison the division
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        out[bad] = rng.normal(size=(int(bad.sum()), n + 1))
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return out / norms


def sample_quadric(m: int, count: int, seed: int = 0) -> np.ndarray:
    """Seeded points of the complex quadric q = 1 in C^m, exact to rounding.

    Sampling goes through the tangent-bundle picture: draw a unit vector v
    and a tangent vector w orthogonal to it, then x = sqrt(|w|^2 + 1) * v,
    z = x + i w lands on the quadric because |x|^2 - |w|^2 = 1 and x.w = 0.

    Tangent norms are drawn uniformly in [0, 0.35], a hard cap rather than
    a Gaussian tail: the quadric is unbounded and sum-of-squares values of
    an order-k map grow like |z|^(2k), so for the order-43 catalog maps a
    single far-out sample would drown the 1e-9 residual contract in float
    cancellation noise.  The cap is a sampling choice; the exact layer is
    unaffected by it.
    """
    if m < 2:
        raise ValueError("complex quadric sampling needs m >= 2")
    check_room(count * m, f"{count} points of {m} coordinates")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.normal(size=(count, m))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w *= 0.35 * rng.uniform(0.0, 1.0, size=(count, 1))
    w -= np.sum(w * v, axis=1, keepdims=True) * v
    return tangent_unlift(v, w)


def quadric_residual(points: np.ndarray) -> np.ndarray:
    """|q(p) - 1| for each row."""
    Z = np.asarray(points, dtype=complex)
    if Z.ndim == 1:
        Z = Z[None, :]
    # an overflowing row gives a non-finite residual, which fails the scan
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.sum(Z * Z, axis=1) - 1.0)


@dataclass
class QuadricPoint:
    """A floating point of the quadric together with its residual."""

    coords: np.ndarray
    residual: float

    @classmethod
    def of(cls, coords) -> "QuadricPoint":
        c = np.asarray(coords, dtype=complex).ravel()
        return cls(c, float(quadric_residual(c)[0]))


# ------------------------------------------------- retraction and tangents


def sphere_retraction(p) -> np.ndarray:
    """Retraction of the quadric onto its real sphere.

    For p = x + i y on the quadric, returns (|y|^2 + 1)^(-1/2) x, a unit
    vector of R^m.  Real sphere points are fixed.
    """
    return tangent_lift(p)[0]


def _retract(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The retraction of quadric points W = x + i y, row by row: (s, h)
    with s = 1 / sqrt(|y|^2 + 1) and h = s x."""
    y = W.imag
    s = 1.0 / np.sqrt(np.sum(y * y, axis=-1) + 1.0)
    return s, s[..., None] * W.real


def retraction_homotopy_residual(m: int, samples: int = 100, seed: int = 0) -> float:
    """Max real-form quadric residual along the retraction homotopy.

    The homotopy scales the imaginary part by (1 - t) and rescales the real
    part to stay on the quadric:

        H(x, y, t) = ( sqrt((1-t)^2 |y|^2 + 1) / sqrt(|y|^2 + 1) * x, (1-t) y ).

    At t = 0 it is the identity, at t = 1 the retraction onto the sphere.
    The residual of the real quadric equations (|x|^2 - |y|^2 - 1 and x.y)
    stays at rounding level for every t.
    """
    if m < 2:
        raise DimensionMismatch(f"the retraction homotopy needs a domain of at least 2 variables, got {m}")
    Z = sample_quadric(m, samples, seed)
    x, y = Z.real, Z.imag
    ysq = np.sum(y * y, axis=1)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, _HOMOTOPY_STEPS):
        scale = np.sqrt((1 - t) ** 2 * ysq + 1.0) / np.sqrt(ysq + 1.0)
        xt = scale[:, None] * x
        yt = (1 - t) * y
        r1 = np.abs(np.sum(xt * xt, axis=1) - np.sum(yt * yt, axis=1) - 1.0)
        r2 = np.abs(np.sum(xt * yt, axis=1))
        worst = _worst(_worst(worst, r1), r2)
    return worst


def tangent_lift(p) -> tuple[np.ndarray, np.ndarray]:
    """Quadric point -> (v, w) in the tangent bundle of the sphere.

    v = (|y|^2 + 1)^(-1/2) x is a unit vector and w = y is tangent to the
    sphere at v; this is the diffeomorphism between the quadric and TS^(m-1).
    """
    qp = p if isinstance(p, QuadricPoint) else QuadricPoint.of(p)
    if qp.residual >= 1e-6:
        raise NumericError(f"point is off the quadric: residual {qp.residual:.3e} >= 1e-06")
    return _retract(qp.coords)[1], qp.coords.imag.copy()


def tangent_unlift(v, w) -> np.ndarray:
    """Inverse of tangent_lift: x = sqrt(|w|^2 + 1) v, z = x + i w, for
    one point or for each row of a batch."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return np.sqrt(np.sum(w * w, axis=-1, keepdims=True) + 1.0) * v + 1j * w


# -------------------------------------------------------------------- scans


def _worst(worst: float, residuals: np.ndarray) -> float:
    """The larger of ``worst`` and the largest of ``residuals``, NaN when
    either holds a NaN: a fold with ``max`` drops a NaN, and a scan whose
    every value is NaN would read 0 and pass."""
    return float(np.max((worst, residuals.max(initial=0.0))))


def quadric_residual_scan(mapping, samples: int = 10_000, seed: int = 0) -> float:
    """Max |q(F(p)) - 1| over sampled real sphere and complex quadric points.

    Accepts anything with ``m`` and ``eval_batch`` (PolyMap, BlendedMap).
    For maps with an exact order certificate this is a floating cross-check;
    for blends it is the primary evidence.
    """
    m = mapping.m
    if m < 2:
        raise DimensionMismatch(f"the residual scan needs a domain of at least 2 variables, got {m}")
    n_real = samples // 2
    n_cplx = samples - n_real
    real_pts = sample_sphere(m - 1, n_real, seed).astype(complex)
    cplx_pts = sample_quadric(m, n_cplx, seed + 1)
    pts = np.concatenate([real_pts, cplx_pts], axis=0)
    worst = 0.0
    for i in range(0, len(pts), _CHUNK):
        worst = _worst(worst, quadric_residual(mapping.eval_batch(pts[i : i + _CHUNK])))
    return worst


@dataclass
class HemisphereResult:
    passed: bool
    max_tail_deviation: float
    min_u_scale: float
    equator_max: float
    sign_violations: int

    def __bool__(self):
        return self.passed


def hemisphere_check(pmap: PolyMap, samples: int = 1000, seed: int = 0) -> HemisphereResult:
    """Structure check for maps built by suspension.

    On real sphere points (z, u) the appended block of the image must be
    c_u(1, |z|^2) * u with c_u positive, so the map fixes the equator
    (u = 0) setwise and preserves both hemispheres coordinatewise in u.
    The block is read from the map's last ell explicit components when it
    has them, so the stored tail is what meets the structure; a map known
    only by its node is read through the node formula.
    """
    if not isinstance(pmap.node, SuspensionNode):
        raise PreconditionError("hemisphere check needs a map built by suspend (lineage missing)")
    node = pmap.node
    ell = node.ell
    m0 = node.f.m
    # the stored tail: the last ell components, or the node formula without them
    tails = pmap if pmap.components is None else PolyMap.explicit(pmap.components[-ell:], "tail")

    X = sample_sphere(pmap.m - 1, samples, seed)
    u = X[:, m0:]
    tail = tails.eval_batch(X.astype(complex))[:, -ell:]
    scale = node.coefficients_at(X)[2].real

    deviation = float(np.abs(tail - scale[:, None] * u).max(initial=0.0))
    min_scale = float(scale.min(initial=np.inf))
    active = np.abs(u) > 1e-12
    signs_ok = np.sign(tail.real) == np.sign(u)
    violations = int(np.count_nonzero(active & ~signs_ok))

    equator = np.concatenate(
        [sample_sphere(m0 - 1, max(samples // 10, 8), seed + 7), np.zeros((max(samples // 10, 8), ell))],
        axis=1,
    )
    equator_max = float(np.abs(tails.eval_batch(equator.astype(complex))[:, -ell:]).max(initial=0.0))

    passed = deviation < HEMISPHERE_TOL and min_scale > 0.0 and violations == 0 and equator_max == 0.0
    return HemisphereResult(passed, deviation, min_scale, equator_max, violations)


# ------------------------------------------------------------------ degrees


@dataclass
class DegreeResult:
    value: int
    defect: float


def _require_sphere_map(pmap):
    residual = quadric_residual_scan(pmap, samples=512, seed=0)
    if residual >= 1e-6:
        raise NumericError(f"map does not hold the quadric: residual {residual:.3e} >= 1e-06")


def winding_degree(pmap) -> DegreeResult:
    """Topological degree of a circle self-map by angle accumulation.

    Follows t -> retraction(F(cos t, sin t)) at 4096 points around the
    circle, accumulating minimal angle differences; the total divided by
    2 pi is the degree.
    """
    if pmap.m != 2 or pmap.r != 2:
        raise DimensionMismatch("winding degree needs a self-map of the circle quadric (m = r = 2)")
    _require_sphere_map(pmap)
    t = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    P = np.stack([np.cos(t), np.sin(t)], axis=1).astype(complex)
    H = _retract(pmap.eval_batch(P))[1]
    angles = np.arctan2(H[:, 1], H[:, 0])
    steps = np.diff(angles, append=angles[:1])
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    total = float(steps.sum()) / (2 * np.pi)
    value = int(round(total))
    defect = abs(total - value)
    if defect >= 0.01:
        raise NumericError(f"winding accumulation defect {defect:.4f} >= 0.01")
    return DegreeResult(value, defect)


class _MapAndJacobian:
    """An explicit map and all its first partials, compiled into one
    evaluator so that one call returns both."""

    def __init__(self, pmap: PolyMap):
        jac = pmap.jacobian()
        self.m, self.r = pmap.m, pmap.r
        self.evaluator = Evaluator([*pmap.components, *(p for row in jac for p in row)])
        # calls range from one point to whole grids: charge a full block once
        check_room(self.evaluator.batch_cost(), "batch power tables")

    def h_and_jacobian(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Retraction composed with the map, and its Jacobian, at real points.

        Returns s [N], h [N, r] and dh [N, r, m] with dh[n, :, i] = dh/dp_i
        and s = 1 / sqrt(|Im F|^2 + 1), which is 0 where |Im F|^2 overflowed.
        """
        out = self.evaluator.eval_batch(P)
        W = out[:, : self.r]
        J = out[:, self.r :].reshape(-1, self.r, self.m)
        s, h = _retract(W)
        ydy = np.einsum("nr,nri->ni", W.imag, J.imag)
        dh = s[:, None, None] * J.real - (s**3)[:, None, None] * W.real[:, :, None] * ydy[:, None, :]
        return s, h, dh


def sphere_degree(pmap: PolyMap, grid: tuple[int, int] = (400, 200)) -> DegreeResult:
    """Topological degree of a 2-sphere self-map by Jacobian quadrature.

    deg = (1/4pi) integral of h . (dh/dtheta x dh/dphi) over a midpoint
    latitude-longitude grid, with h the retraction composed with the map.
    The area weight sin(theta) is carried by dP/dphi itself, and midpoint
    nodes keep the poles out of the grid.
    """
    if pmap.m != 3 or pmap.r != 3:
        raise DimensionMismatch("sphere degree needs a self-map of the 2-sphere quadric (m = r = 3)")
    nphi, ntheta = grid
    check_room(nphi * ntheta * 3, f"{nphi * ntheta} points of 3 coordinates")
    _require_sphere_map(pmap)
    fused = _MapAndJacobian(pmap)
    theta = (np.arange(ntheta) + 0.5) * np.pi / ntheta
    phi = (np.arange(nphi) + 0.5) * 2 * np.pi / nphi
    T, F = np.meshgrid(theta, phi, indexing="ij")
    T, F = T.ravel(), F.ravel()
    st, ct, sf, cf = np.sin(T), np.cos(T), np.sin(F), np.cos(F)
    P = np.stack([st * cf, st * sf, ct], axis=1)
    dP_t = np.stack([ct * cf, ct * sf, -st], axis=1)
    dP_f = np.stack([-st * sf, st * cf, np.zeros_like(T)], axis=1)
    _, h, dh = fused.h_and_jacobian(P)
    h_t = np.einsum("nri,ni->nr", dh, dP_t)
    h_f = np.einsum("nri,ni->nr", dh, dP_f)
    integrand = np.einsum("ni,ni->n", h, np.cross(h_t, h_f))
    cell = (np.pi / ntheta) * (2 * np.pi / nphi)
    total = float(integrand.sum()) * cell / (4 * np.pi)
    value = int(round(total))
    defect = abs(total - value)
    if defect >= 0.05:
        raise NumericError(f"degree quadrature defect {defect:.4f} >= 0.05; refine the grid")
    return DegreeResult(value, defect)


# ----------------------------------------------------- preimages and linking


@dataclass
class TracedCurve:
    """A closed preimage curve on S^3 for one regular value on S^2."""

    points: np.ndarray          # [N, 4] unit vectors
    value: np.ndarray           # the regular value in R^3
    rejected: int = 0           # corrector steps halved and retried
    min_singular: float = np.inf  # smallest singular value of JG over the nodes


class _RankDrop(Exception):
    pass


def _orthonormal_complement(c: np.ndarray) -> np.ndarray:
    """Rows e1, e2 with (c, e1, e2) a positive orthonormal basis of R^3."""
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(c)))] = 1.0
    e1 = probe - np.dot(probe, c) * c
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(c, e1)])


# per-row outcomes of _PreimageSystem.newton; _FAILED rows are dropped silently
_CONVERGED, _FAILED, _RANK_DROP, _OVERFLOW = range(4)
# a Newton row has converged once every residual of G is below this
_NEWTON_TOL = 1e-10


@dataclass
class _NewtonRows:
    """Per-row outcome of one batched Newton run; rows not _CONVERGED keep
    zeros (and their start point) in the other fields."""

    status: np.ndarray      # [N]
    points: np.ndarray      # [N, 4]
    tangents: np.ndarray    # [N, 4] unit null vectors of JG
    jacobians: np.ndarray   # [N, 3, 4] JG at the converged points
    sv_min: np.ndarray      # [N] smallest singular value of JG there
    first: np.ndarray       # [N] length of the first Newton step
    second: np.ndarray      # [N] length of the second


class _PreimageSystem:
    """Constraint system for h(p) = c on S^3 with h the retracted map."""

    def __init__(self, fused: _MapAndJacobian, value: np.ndarray):
        self.fused = fused
        self.value = value
        self.normal = _orthonormal_complement(value)
        self.iterations = 0  # Newton iterates summed over rows

    def residual_and_jac(self, P: np.ndarray):
        """s (as in h_and_jacobian), G [N, 3], JG [N, 3, 4] and h [N, 3] at
        the rows of P: G = (|p|^2 - 1, e1.h, e2.h), JG its Jacobian."""
        s, h, dh = self.fused.h_and_jacobian(P)
        G = np.concatenate([np.sum(P * P, axis=1)[:, None] - 1.0, h @ self.normal.T], axis=1)
        JG = np.concatenate([2 * P[:, None, :], self.normal @ dh], axis=1)
        return s, G, JG, h

    def newton(self, P: np.ndarray, max_iter: int = 60) -> _NewtonRows:
        """Newton's method on every row of P [N, 4] at once, with per-row outcomes.

        Each iterate takes one stacked SVD JG = U diag(sv) Vt over the rows
        still running, which gives the rank test, the least-norm step
        Vt[:3]^T (U^T G / sv) = JG^T (JG JG^T)^-1 G and, at convergence, the
        tangent Vt[3], the null vector of JG.  A row whose map output, |Im F|^2,
        h, dh, G, JG or next iterate is not finite is _OVERFLOW.  A row that
        converges to the antipodal sheet, meets a singular JG away from the
        solution set or runs out of iterates is _FAILED; a singular JG at the
        solution set is _RANK_DROP: the value is not regular.
        """
        n = len(P)
        out = _NewtonRows(
            np.full(n, _FAILED), P.copy(), np.zeros((n, 4)), np.zeros((n, 3, 4)),
            np.zeros(n), np.zeros(n), np.zeros(n),
        )
        rows, Q = np.arange(n), P
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(max_iter):
                s, G, JG, h = self.residual_and_jac(Q)
                self.iterations += len(rows)
                gmax = np.max(np.abs(G), axis=1)
                finite = np.isfinite(gmax + JG.sum(axis=(1, 2))) & (s > 0)
                alive = finite & ((gmax >= _NEWTON_TOL) | (h @ self.value > 0.25))
                if not alive.all():
                    out.status[rows[~finite]] = _OVERFLOW
                    rows, Q, G, JG, gmax = rows[alive], Q[alive], G[alive], JG[alive], gmax[alive]
                    if not len(rows):
                        break
                u, sv, vt = np.linalg.svd(JG)
                singular = sv[:, -1] < 1e-8 * np.maximum(sv[:, 0], 1e-12)
                done = singular | (gmax < _NEWTON_TOL)
                if done.any():
                    out.status[rows[singular & (gmax < 1e-3)]] = _RANK_DROP
                    hit = done & ~singular
                    at = rows[hit]
                    out.status[at] = _CONVERGED
                    out.points[at], out.tangents[at] = Q[hit], vt[hit, -1]
                    out.jacobians[at], out.sv_min[at] = JG[hit], sv[hit, -1]
                    keep = ~done
                    rows, Q, G, u, sv, vt = rows[keep], Q[keep], G[keep], u[keep], sv[keep], vt[keep]
                    if not len(rows):
                        break
                coef = (G[:, None, :] @ u)[:, 0] / sv  # U^T G / sv, row by row
                step = (coef[:, None, :] @ vt[:, :3])[:, 0]
                Q = Q - step
                if it < 2:
                    (out.first if it == 0 else out.second)[rows] = np.sqrt(np.sum(step * step, axis=1))
                finite = np.isfinite(Q.sum(axis=1))
                if not finite.all():
                    out.status[rows[~finite]] = _OVERFLOW
                    rows, Q = rows[finite], Q[finite]
        return out


# Step-length control of the curve corrector (Allgower and Georg, Numerical
# Continuation Methods, ch. 6).  Each accepted step gives the contraction
# kappa = |second Newton step| / |first|, the first correction delta and the
# angle alpha between consecutive tangents; the factor
# f = max(sqrt(kappa / _KAPPA), sqrt(delta / _DELTA), alpha / _ALPHA, 1/2)
# halves and retries the step when f > 2 and otherwise sets it to
# min(step / f, _STEP_MAX).  With these nominal values pi3_s2:1 traces about
# 100 nodes per fiber (629 at the former fixed step 1e-2) with no rejected
# step, and every chord midpoint of pi3_s2:+-1, +-2, +-3 lies within 2e-4 of
# its curve; the Hopf values are those of the fixed step.
_KAPPA, _DELTA, _ALPHA = 0.3, 2e-3, 0.12
_STEP_FIRST, _STEP_MAX, _STEP_MIN = 1e-2, 0.1, 1e-6
# a Newton start this close to a traced curve's polyline lies on that curve
_SAME_CURVE = 0.05


def _trace_curve(
    system: _PreimageSystem,
    start: np.ndarray,
    start_tangent: np.ndarray,
    start_jac: np.ndarray,
    start_sv: float,
) -> TracedCurve:
    """Predictor-corrector continuation along the preimage circle.

    The first tangent takes the fiber orientation: tau and a positively
    oriented lift (u, v) of (e1, e2) give the outward orientation of S^3,
    so the linking number of two fibers is the Hopf invariant whatever the
    tracing direction.  With B = [p, tau, u, v] orthonormal and JG's rows
    (2p, e1^T Jh, e2^T Jh), [JG; tau] B^T has rows (2, 0, 0, 0),
    (*, 0, e1^T Jh u, e1^T Jh v), (*, 0, e2^T Jh u, e2^T Jh v), (0, 1, 0, 0),
    so det [JG; tau] det B = 2 det(lifted) with lifted the 2x2 block
    e_i^T Jh (u, v): the sign of det [JG; tau] is that orientation.

    The curve closes when the start lies ahead of the last node within the
    next step, so no chord is longer than a step.
    """
    points = [start]
    p, step, rejected, smallest = start, _STEP_FIRST, 0, start_sv
    tau = start_tangent if np.linalg.det(np.vstack([start_jac, start_tangent])) > 0 else -start_tangent
    for _ in range(100_000):
        out = system.newton((p + step * tau)[None, :])
        status = out.status[0]
        if status == _OVERFLOW:
            raise NumericError("the map overflowed while tracing a preimage curve")
        if status == _RANK_DROP:
            raise _RankDrop
        factor = np.inf
        if status == _CONVERGED:
            tangent = out.tangents[0] if np.dot(out.tangents[0], tau) >= 0 else -out.tangents[0]
            first, second = out.first[0], out.second[0]
            factor = max(
                np.sqrt(second / (first * _KAPPA)) if first > 0 else 0.0,
                np.sqrt(first / _DELTA),
                np.arccos(min(np.dot(tangent, tau), 1.0)) / _ALPHA,
                0.5,
            )
        if factor > 2:
            step /= 2
            rejected += 1
            if step < _STEP_MIN:
                raise NumericError("corrector failed to converge during curve tracing")
            continue
        p, tau = out.points[0], tangent
        points.append(p)
        smallest = min(smallest, out.sv_min[0])
        step = min(step / factor, _STEP_MAX)
        gap = start - p
        if np.dot(gap, tau) > 0 and np.dot(gap, gap) < step * step:
            return TracedCurve(np.array(points), system.value.copy(), rejected, smallest)
    raise NumericError("curve failed to close within the step budget")


def _polyline_distance(x: np.ndarray, points: np.ndarray) -> float:
    """Distance from x to the closed polyline through the rows of points."""
    d = np.roll(points, -1, axis=0) - points
    t = np.clip(np.sum((x - points) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
    return float(np.min(np.linalg.norm(points + t[:, None] * d - x, axis=1)))


def _preimage_curves(
    fused: _MapAndJacobian,
    values: Sequence[np.ndarray],
    seeds: Sequence[int],
    tally: "HopfResult",
    n_seeds: int = 64,
) -> list[list[TracedCurve]]:
    """Up to 8 closed preimage curves of each value, traced from n_seeds
    Newton starts; dropped seeds and Newton iterates go to tally.

    Every value's starts are refined, one batch per value, before any curve
    is traced.  A rank drop at a refined start or in a trace raises
    _RankDrop: the value is not regular, and the curves found so far may be
    only part of its preimage.
    """
    systems = [_PreimageSystem(fused, value) for value in values]
    try:
        batches = []
        for system, seed in zip(systems, seeds):
            refined = system.newton(sample_sphere(3, n_seeds, seed), max_iter=80)
            drops = int(np.count_nonzero(refined.status == _RANK_DROP))
            tally.overflow_seeds += int(np.count_nonzero(refined.status == _OVERFLOW))
            tally.rank_drop_seeds += drops
            if drops:
                raise _RankDrop
            batches.append(refined)
        return [_trace_starts(system, refined, tally) for system, refined in zip(systems, batches)]
    finally:
        tally.newton_iterations += sum(system.iterations for system in systems)


def _trace_starts(system: _PreimageSystem, refined: _NewtonRows, tally: "HopfResult") -> list[TracedCurve]:
    """The curves through the converged starts, each traced once."""
    curves: list[TracedCurve] = []
    for i in np.flatnonzero(refined.status == _CONVERGED):
        start = refined.points[i]
        if any(_polyline_distance(start, c.points) < _SAME_CURVE for c in curves):
            continue
        try:
            curves.append(
                _trace_curve(system, start, refined.tangents[i], refined.jacobians[i], refined.sv_min[i])
            )
        except _RankDrop:
            tally.rank_drop_seeds += 1
            raise
        if len(curves) >= 8:
            break
    overflows = int(np.count_nonzero(refined.status == _OVERFLOW))
    if not curves and overflows:
        # seeds lost to overflow may have had preimages, so "none" is not shown
        raise NumericError(f"the map overflowed from {overflows} of {len(refined.status)} Newton seeds and no preimage was found")
    return curves


def _stereographic_pole(curve_sets: Sequence[np.ndarray], seed: int) -> np.ndarray:
    candidates = [v for i in range(4) for v in (np.eye(4)[i], -np.eye(4)[i])]
    candidates += list(sample_sphere(3, 16, seed + 101))
    allpts = np.concatenate(curve_sets, axis=0)
    best, best_gap = None, -1.0
    for c in candidates:
        gap = float(np.min(np.linalg.norm(allpts - c, axis=1)))
        if gap > best_gap:
            best, best_gap = c, gap
    if best_gap < 0.05:
        raise NumericError("no stereographic pole clear of the preimage curves")
    return best


def _project_curve(points: np.ndarray, pole: np.ndarray) -> np.ndarray:
    basis = np.linalg.svd(np.eye(4) - np.outer(pole, pole))[0][:, :3]
    # keep the projection consistently oriented regardless of the pole
    if np.linalg.det(np.hstack([basis, pole[:, None]])) < 0:
        basis = basis.copy()
        basis[:, 2] = -basis[:, 2]
    denom = 1.0 - points @ pole
    return (points @ basis) / denom[:, None]


# segment pairs per tile of the linking sum: about 3 MB of arrays
_LINK_PAIRS = 1 << 14


def gauss_linking(curve_a: np.ndarray, curve_b: np.ndarray) -> float:
    """Linking number of two closed polygons in R^3, exact up to rounding.

    The Gauss integral over segment p1 -> p2 of A and p3 -> p4 of B is the
    solid angle of the quadrilateral r13, r14, r24, r23 (r_ij = p_j - p_i)
    seen from the origin (Banchoff 1976; Qu and James 2021).  It is the sum
    of the triangles (r13, r14, r24) and (r13, r24, r23), each 2 atan2(a.(b x
    c), |a||b||c| + (a.b)|c| + (a.c)|b| + (b.c)|a|) by Van Oosterom and
    Strackee, and both triple products equal r13 . (d_a x d_b) with segment
    vectors d.  The triangles run against the (A, B) orientation, so L is
    minus the sum over 4pi.  Tiles of at most _LINK_PAIRS pairs bound memory.
    """
    a, b = np.vstack([curve_a, curve_a[:1]]), np.vstack([curve_b, curve_b[:1]])
    da, db = np.diff(a, axis=0), np.diff(b, axis=0)
    cols = min(len(db), _LINK_PAIRS)
    rows = max(1, _LINK_PAIRS // cols)

    def dot(x, y):
        return np.einsum("ijk,ijk->ij", x, y)

    total = 0.0
    for i in range(0, len(da), rows):
        for j in range(0, len(db), cols):
            r = b[None, j : j + cols + 1] - a[i : i + rows + 1, None]  # r[i, j] = b_j - a_i
            n = np.sqrt(dot(r, r))
            r13, r14, r23, r24 = r[:-1, :-1], r[:-1, 1:], r[1:, :-1], r[1:, 1:]
            n13, n14, n23, n24 = n[:-1, :-1], n[:-1, 1:], n[1:, :-1], n[1:, 1:]
            triple = dot(r13, np.cross(da[i : i + rows, None], db[None, j : j + cols]))
            d13_24 = dot(r13, r24)
            den1 = n13 * n14 * n24 + dot(r13, r14) * n24 + d13_24 * n14 + dot(r14, r24) * n13
            den2 = n13 * n24 * n23 + d13_24 * n23 + dot(r13, r23) * n24 + dot(r24, r23) * n13
            total += float(np.sum(np.arctan2(triple, den1) + np.arctan2(triple, den2)))
    return -total / (2 * np.pi)


def _separation(xs: np.ndarray, ys: np.ndarray) -> float:
    """Smallest distance between a row of xs and a row of ys, in blocks of
    about _LINK_PAIRS pairs."""
    rows = max(1, _LINK_PAIRS // len(ys))
    return min(
        float(np.min(np.linalg.norm(xs[i : i + rows, None] - ys[None], axis=2)))
        for i in range(0, len(xs), rows)
    )


@dataclass
class HopfResult:
    value: int
    defect: float  # distance of the linking sum from value: rounding only
    curves: list[TracedCurve] = field(default_factory=list)
    separation: Optional[float] = None  # smallest distance between nodes of the two values' curves
    # margins, summed over both values and every attempt
    newton_iterations: int = 0  # Newton iterates over all rows, seeds and corrector
    overflow_seeds: int = 0     # seeds dropped because an iterate overflowed
    rank_drop_seeds: int = 0    # seeds or traces that met a rank drop on the solution set
    retries: int = 0            # regular values perturbed after a rank drop

    @property
    def nodes(self) -> list[int]:
        return [len(c.points) for c in self.curves]

    @property
    def rejected_steps(self) -> int:
        return sum(c.rejected for c in self.curves)

    @property
    def min_singular_values(self) -> list[float]:
        return [float(c.min_singular) for c in self.curves]

    @property
    def closure_gaps(self) -> list[float]:
        """Each curve's closing chord, from its last node back to its first."""
        return [float(np.linalg.norm(c.points[-1] - c.points[0])) for c in self.curves]


def _regular_value(v) -> np.ndarray:
    u = np.asarray(v, dtype=float)
    if u.shape != (3,) or not np.all(np.isfinite(u)) or not np.any(u):
        raise ValueError(f"a regular value must be a finite nonzero 3-vector, got {v!r}")
    return u / np.linalg.norm(u)


def hopf_invariant(
    pmap: PolyMap,
    values: Optional[tuple[np.ndarray, np.ndarray]] = None,
    seed: int = 0,
) -> HopfResult:
    """Hopf invariant of a map S^3 -> S^2 by preimage linking.

    Traces the preimage circles of two regular values of the retracted map,
    projects their nodes stereographically and sums the exact linking
    numbers of the projected polygons.  A constant-like map has no preimage
    for generic values; the invariant is 0 by convention in that case.  A
    rank drop at a refined seed or along a curve of either value means that
    value is not regular; both values are then perturbed and the
    computation retried, five attempts in all.  Given values must be
    finite, nonzero and distinct 3-vectors (ValueError otherwise).
    """
    if pmap.m != 4 or pmap.r != 3:
        raise DimensionMismatch("hopf invariant needs a map C^4 -> C^3")
    if values is None:
        v1, v2 = np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])
    else:
        v1, v2 = (_regular_value(v) for v in values)
        if np.array_equal(v1, v2):
            raise ValueError("the two regular values must be distinct directions")
    fused = _MapAndJacobian(pmap)
    result = HopfResult(0, 0.0)

    for attempt in range(5):
        result.retries = attempt
        try:
            curves_a, curves_b = _preimage_curves(fused, (v1, v2), (seed + attempt, seed + attempt + 13), result)
            if not curves_a and not curves_b:
                return result
            if not curves_a or not curves_b:
                raise NumericError("only one of the two regular values has a preimage curve")
            pole = _stereographic_pole(
                [c.points for c in curves_a + curves_b], seed + attempt
            )
            proj_a, proj_b = (
                [_project_curve(c.points, pole) for c in curves] for curves in (curves_a, curves_b)
            )
            total = sum(gauss_linking(pa, pb) for pa in proj_a for pb in proj_b)
            value = int(round(total))
            defect = abs(total - value)
            if defect >= 0.05:
                raise NumericError(f"linking defect {defect:.4f} >= 0.05")
            result.value, result.defect, result.curves = value, defect, curves_a + curves_b
            result.separation = _separation(
                np.concatenate([c.points for c in curves_a]), np.concatenate([c.points for c in curves_b])
            )
            return result
        except _RankDrop:
            # nudge both values and retry with a fresh seed offset
            rot = _perturbation_rotation(seed + attempt)
            v1, v2 = rot @ v1, rot @ v2
    raise NumericError("regular-value preimage tracing kept hitting rank drops")


def _perturbation_rotation(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = 0.15
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


# -------------------------------------------------------------- homotopies


def even_order_nullhomotopy_residual(pmap, samples: int = 200, seed: int = 0) -> float:
    """Quadric residual along the even-order contraction loop.

    For a map of even order 2r the path g(t) = exp(i pi t) from 1 to -1
    defines H(z, t) = g(t)^(-2r) F(g(t) z), a homotopy on the quadric from
    F to F(-z).  Odd orders are rejected: the exponent -2r must cancel the
    full order for q(H) to stay 1, and that cancellation is exactly what
    fails on odd-order maps.
    """
    order = getattr(pmap, "order", None)
    if order is None or order % 2 != 0 or order == 0:
        raise PreconditionError("the contraction loop needs a certified even order >= 2")
    Z = sample_quadric(pmap.m, samples, seed)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, _HOMOTOPY_STEPS):
        gamma = np.exp(1j * np.pi * t)
        W = pmap.eval_batch(gamma * Z) * gamma ** (-order)
        worst = _worst(worst, quadric_residual(W))
    return worst
