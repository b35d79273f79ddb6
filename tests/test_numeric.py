"""Numeric certification: sampling, retraction, scans, degrees, linking."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep import maps, numeric
from quadrep.exact import GaussianRational, Polynomial
from quadrep.maps import (
    PolyMap,
    PreconditionError,
    SuspensionNode,
    blend_homotopy,
    catalog,
    circle_pair,
    compose_maps,
    hopf_pair,
    suspend,
)
from quadrep.numeric import (
    NumericError,
    QuadricPoint,
    even_order_nullhomotopy_residual,
    gauss_linking,
    hemisphere_check,
    hopf_invariant,
    quadric_residual,
    quadric_residual_scan,
    retraction_homotopy_residual,
    sample_quadric,
    sample_sphere,
    sphere_degree,
    sphere_retraction,
    tangent_lift,
    tangent_unlift,
    winding_degree,
)


def identity_map(m):
    comps = [Polynomial.variable(m, i) for i in range(m)]
    return maps._certified(PolyMap.explicit(comps, f"id({m})", order=1), "identity")


# ----------------------------------------------------------------- sampling


def test_sample_sphere_unit_norm():
    pts = sample_sphere(1, 4, seed=5)
    assert pts.shape == (4, 2)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-14


def test_sample_sphere_mean_near_zero():
    pts = sample_sphere(3, 1000, seed=1)
    assert np.abs(pts.mean(axis=0)).max() < 0.1


def test_sample_sphere_empty():
    assert sample_sphere(2, 0).shape == (0, 3)


def test_sample_sphere_deterministic():
    a = sample_sphere(2, 10, seed=9)
    b = sample_sphere(2, 10, seed=9)
    assert np.array_equal(a, b)


def test_sample_quadric_residuals():
    Z = sample_quadric(4, 500, seed=2)
    assert quadric_residual(Z).max() < 1e-12


# --------------------------------------------------------------- retraction


def test_retraction_fixes_real_sphere_points():
    pts = sample_sphere(2, 20, seed=3)
    for p in pts:
        out = sphere_retraction(p.astype(complex))
        assert np.allclose(out, p, atol=1e-14)


def test_retraction_hand_point():
    # p = (sqrt(2), i) lies on the quadric: 2 + (i)^2 = 1; H1 sends it to (1, 0)
    p = np.array([np.sqrt(2), 1j])
    assert quadric_residual(p)[0] < 1e-15
    out = sphere_retraction(p)
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)


def test_retraction_unit_norm_on_samples():
    Z = sample_quadric(4, 1000, seed=4)
    for p in Z:
        assert abs(np.linalg.norm(sphere_retraction(p)) - 1) < 1e-9


def test_retraction_rejects_off_quadric_points():
    with pytest.raises(NumericError):
        sphere_retraction(np.array([2.0 + 0j, 0.0]))


def test_retraction_homotopy_residual_small():
    assert retraction_homotopy_residual(3, samples=100, seed=0) < 1e-9


def test_tangent_lift_hand_point():
    p = np.array([np.sqrt(2), 1j])
    v, w = tangent_lift(p)
    assert np.allclose(v, [1.0, 0.0], atol=1e-15)
    assert np.allclose(w, [0.0, 1.0], atol=1e-15)
    assert abs(np.dot(v, w)) < 1e-15


def test_tangent_round_trip():
    Z = sample_quadric(3, 200, seed=6)
    for p in Z:
        v, w = tangent_lift(p)
        assert abs(np.linalg.norm(v) - 1) < 1e-9
        assert abs(np.dot(v, w)) < 1e-9
        back = tangent_unlift(v, w)
        assert quadric_residual(back)[0] < 1e-9


def test_tangent_zero_section():
    p = np.array([1.0 + 0j, 0.0, 0.0])
    v, w = tangent_lift(p)
    assert np.allclose(v, [1, 0, 0]) and np.allclose(w, 0)


def test_quadric_point_record():
    qp = QuadricPoint.of([1.0, 0.0])
    assert qp.residual < 1e-15


# The former bodies the single retraction and inverse lift replaced, kept
# as oracles: the degree, Hopf and sampled values must keep every bit.


def _former_retraction_batch(W):
    x, y = W.real, W.imag
    scale = 1.0 / np.sqrt(np.sum(y * y, axis=1) + 1.0)
    return scale[:, None] * x


def _former_h_and_jacobian(fused, P):
    out = fused.evaluator.eval_batch(P)
    W = out[:, : fused.r]
    J = out[:, fused.r :].reshape(-1, fused.r, fused.m)
    x, y = W.real, W.imag
    s = 1.0 / np.sqrt(np.sum(y * y, axis=1) + 1.0)
    h = s[:, None] * x
    ydy = np.einsum("nr,nri->ni", y, J.imag)
    dh = s[:, None, None] * J.real - (s**3)[:, None, None] * x[:, :, None] * ydy[:, None, :]
    return h, dh


def _former_sample_quadric_tail(v, w):
    x = np.sqrt(np.sum(w * w, axis=1, keepdims=True) + 1.0) * v
    return x + 1j * w


@pytest.mark.parametrize("target", ["pi3_s2:1", "pi_n:2,3"])
def test_retraction_keeps_every_bit_of_the_former_bodies(target):
    pmap = catalog(target)
    P = sample_sphere(pmap.m - 1, 10_000, seed=11)
    fused = numeric._MapAndJacobian(pmap)
    _, h, dh = fused.h_and_jacobian(P)
    h0, dh0 = _former_h_and_jacobian(fused, P)
    assert np.array_equal(h, h0) and np.array_equal(dh, dh0)
    for points in (P, sample_quadric(pmap.m, 10_000, seed=12)):
        W = pmap.eval_batch(points)
        assert np.array_equal(numeric._retract(W)[1], _former_retraction_batch(W))


def test_sample_quadric_is_the_inverse_lift_of_its_draws():
    count, m, seed, spread = 10_000, 4, 3, 0.35
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.normal(size=(count, m))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w *= spread * rng.uniform(0.0, 1.0, size=(count, 1))
    w -= np.sum(w * v, axis=1, keepdims=True) * v
    assert np.array_equal(sample_quadric(m, count, seed), _former_sample_quadric_tail(v, w))


def test_tangent_lift_reciprocal_form_matches_the_division():
    for p in sample_quadric(4, 1000, seed=8):
        v, w = tangent_lift(p)
        assert np.abs(v - p.real / np.sqrt(np.sum(p.imag * p.imag) + 1.0)).max() <= 1e-15
        assert np.array_equal(w, p.imag)


def test_tangent_unlift_serves_one_point_or_rows():
    Z = sample_quadric(3, 200, seed=9)
    V = np.array([tangent_lift(p)[0] for p in Z])
    rows = tangent_unlift(V, Z.imag)
    assert np.array_equal(rows, np.array([tangent_unlift(v, w) for v, w in zip(V, Z.imag)]))
    assert np.abs(rows - Z).max() < 1e-12


# -------------------------------------------------------------------- scans


def test_scan_identity_map():
    assert quadric_residual_scan(identity_map(3), samples=2000, seed=0) < 1e-12


def test_scan_hopf_tight():
    f, _ = hopf_pair()
    assert quadric_residual_scan(f, samples=10_000, seed=0) < 1e-12


def test_scan_suspension():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    assert quadric_residual_scan(phi, samples=10_000, seed=0) < 1e-9


def test_scan_blends():
    f, g = hopf_pair()
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        blend = blend_homotopy(f, g, t)
        assert quadric_residual_scan(blend, samples=2000, seed=0) < 1e-9


class _NaNMap:
    """A map of even order whose every value is NaN."""

    m, order = 4, 2

    def eval_batch(self, points):
        return np.full((len(points), 3), np.nan + 0j)


def test_scans_keep_a_nan_residual(monkeypatch):
    # a fold with max() would drop every NaN chunk, and an all-NaN map would read 0 and pass
    assert math.isnan(quadric_residual_scan(_NaNMap(), samples=5000, seed=0))
    assert math.isnan(even_order_nullhomotopy_residual(_NaNMap(), samples=50, seed=0))
    monkeypatch.setattr(numeric, "sample_quadric", lambda m, count, seed: np.full((count, m), np.nan + 0j))
    assert math.isnan(retraction_homotopy_residual(4, samples=50, seed=0))


def test_scan_keeps_one_nan_chunk_among_finite_ones():
    f, _ = hopf_pair()

    class OneBadChunk:
        m = f.m

        def eval_batch(self, points):
            out = f.eval_batch(points)
            return out if len(points) == numeric._CHUNK else np.full_like(out, np.nan)

    # 5000 samples make two full chunks and a short last one
    assert math.isnan(quadric_residual_scan(OneBadChunk(), samples=5000, seed=0))


# --------------------------------------------------------------- hemisphere


def test_hemisphere_phi_passes():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    res = hemisphere_check(phi, samples=1000, seed=0)
    assert res.passed
    assert res.equator_max == 0.0
    assert res.min_u_scale > 0


def test_hemisphere_compares_the_stored_tail_with_the_structure():
    pm = catalog("pi_np1:4")
    u2 = Polynomial.variable(pm.m, pm.m - 1)
    comps = (*pm.components[:-1], pm.components[-1] + u2.scale(Fraction(1, 10**6)))
    bad = PolyMap(pm.m, pm.r, components=comps, node=pm.node, label="tail", order=pm.order)
    assert hemisphere_check(pm, samples=1000, seed=0).max_tail_deviation < 1e-12
    res = hemisphere_check(bad, samples=1000, seed=0)
    assert not res.passed and 1e-7 < res.max_tail_deviation <= 1e-6


def test_hemisphere_needs_lineage():
    f, _ = hopf_pair()
    with pytest.raises(PreconditionError):
        hemisphere_check(f)


def test_hemisphere_negated_scale_fails():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    flipped = dataclasses.replace(phi.node.triple, u_coeff=-phi.node.triple.u_coeff)
    bad = PolyMap(phi.m, phi.r, node=SuspensionNode(f, g, flipped, 1), label="neg", order=3)
    res = hemisphere_check(bad, samples=500, seed=0)
    assert not res.passed
    assert res.min_u_scale < 0
    assert res.sign_violations > 0


# ------------------------------------------------------------------ degrees


@pytest.mark.parametrize("d", [-3, -2, -1, 1, 2, 3])
def test_winding_degree(d):
    f, _ = circle_pair(d)
    res = winding_degree(f)
    assert res.value == d
    assert res.defect < 0.01


def test_winding_identity():
    assert winding_degree(identity_map(2)).value == 1


def test_sphere_degree_identity():
    res = sphere_degree(identity_map(3), grid=(200, 100))
    assert res.value == 1 and res.defect < 0.05


@pytest.mark.parametrize("d", [-2, 1, 2])
def test_sphere_degree_suspended_circle(d):
    pm = catalog(f"pi_n:2,{d}")
    res = sphere_degree(pm, grid=(400, 200))
    assert res.value == d
    assert res.defect < 0.05


def test_degree_dimension_checks():
    f, _ = hopf_pair()
    from quadrep.maps import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        winding_degree(f)
    with pytest.raises(DimensionMismatch):
        sphere_degree(f)


# ----------------------------------------------------------- hopf invariant


def test_gauss_linking_standard_circles():
    t = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    a = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    b = np.stack([1 + np.cos(t), np.zeros_like(t), np.sin(t)], axis=1)
    assert abs(abs(gauss_linking(a, b)) - 1) < 1e-3
    far = b + np.array([10.0, 0, 0])
    assert abs(gauss_linking(a, far)) < 1e-3


def klenin_langowski_linking(curve_a, curve_b):
    """Oracle: the linking number of two closed polygons as a scalar loop
    over segment pairs.  Each pair p1 -> p2, p3 -> p4 adds the solid angle of
    its quadrilateral r13, r14, r24, r23 (r_ij = p_j - p_i) in the arcsin
    form of Klenin and Langowski (Biopolymers 54, 2000): the four arcsines
    of the dot products of consecutive unit face normals, signed by
    (r34 x r12) . r13."""

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2])

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def unit_normal(u, v):
        c = cross(u, v)
        norm = math.sqrt(dot(c, c))
        return (c[0] / norm, c[1] / norm, c[2] / norm)

    def angle(m, n):
        return math.asin(max(-1.0, min(1.0, dot(m, n))))

    a = [tuple(map(float, p)) for p in curve_a]
    b = [tuple(map(float, p)) for p in curve_b]
    total = 0.0
    for i, p1 in enumerate(a):
        p2 = a[(i + 1) % len(a)]
        for j, p3 in enumerate(b):
            p4 = b[(j + 1) % len(b)]
            r13, r14, r23, r24 = sub(p3, p1), sub(p4, p1), sub(p3, p2), sub(p4, p2)
            n1, n2 = unit_normal(r13, r14), unit_normal(r14, r24)
            n3, n4 = unit_normal(r24, r23), unit_normal(r23, r13)
            omega = angle(n1, n2) + angle(n2, n3) + angle(n3, n4) + angle(n4, n1)
            total += math.copysign(omega, dot(cross(sub(p4, p3), sub(p2, p1)), r13))
    return total / (4 * math.pi)


def test_gauss_linking_matches_direct_sum_on_hopf_curves(monkeypatch):
    seen = []

    def recorded(a, b):
        seen.append((a, b))
        return gauss_linking(a, b)

    monkeypatch.setattr(numeric, "gauss_linking", recorded)
    assert abs(hopf_invariant(catalog("pi3_s2:1"), seed=1).value) == 1
    assert seen
    for a, b in seen:
        assert abs(gauss_linking(a, b) - klenin_langowski_linking(a, b)) < 1e-9


@pytest.mark.parametrize("shift", [0.0, 100.0])
@pytest.mark.parametrize("linked", [True, False])
@pytest.mark.parametrize("gap", [1.0, 0.1, 0.01])
def test_gauss_linking_matches_direct_sum_on_circles(gap, linked, shift):
    # unit circles in perpendicular planes whose closest points are gap apart
    t = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    a = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1) + shift
    centre = 2 - gap if linked else 2 + gap
    b = np.stack([centre + np.cos(t), np.zeros_like(t), np.sin(t)], axis=1) + shift
    assert abs(gauss_linking(a, b) - klenin_langowski_linking(a, b)) < 1e-9


@st.composite
def polyline_pairs(draw):
    """Two jittered unit circles in perpendicular planes, linked or side by
    side.  The circles are 1 apart; a chord of at most 1.3 rad sags < 0.2
    and the jitter moves a vertex < 0.18, so the polylines stay > 0.2 apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jitter = draw(st.floats(0.0, 0.1))
    centre = 1.0 if draw(st.booleans()) else 3.0

    def circle(n, embed):
        t = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n) + rng.uniform()) / n
        return embed(np.cos(t), np.sin(t)) + jitter * rng.uniform(-1, 1, (n, 3))

    a = circle(draw(st.integers(8, 64)), lambda c, s: np.stack([c, s, 0 * c], axis=1))
    b = circle(draw(st.integers(8, 64)), lambda c, s: np.stack([centre + c, 0 * c, s], axis=1))
    return a, b


@settings(max_examples=60, deadline=None)
@given(polyline_pairs())
def test_gauss_linking_is_an_integer_on_polylines(curves):
    a, b = curves
    # b's circle is centred at x = 1 (linked) or x = 3 (side by side); the
    # mean x of its nodes is within 0.34 of the centre
    linked = b[:, 0].mean() < 2
    value = gauss_linking(a, b)
    assert abs(abs(value) - 1) < 1e-9 if linked else abs(value) < 1e-9


def test_gauss_linking_of_two_linked_squares():
    a = np.array([[-1.0, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]])
    b = np.array([[0.0, 0, -1], [2, 0, -1], [2, 0, 1], [0, 0, 1]])
    assert abs(abs(gauss_linking(a, b)) - 1) < 1e-12


def test_gauss_linking_memory_does_not_grow_with_the_curves():
    # one 200 x 20,000 float array is 32 MB; the sum runs in tiles of
    # numeric._LINK_PAIRS segment pairs
    t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    a = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    t = np.linspace(0, 2 * np.pi, 20_000, endpoint=False)
    b = np.stack([1 + np.cos(t), np.zeros_like(t), np.sin(t)], axis=1)
    tracemalloc.start()
    try:
        value = gauss_linking(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(abs(value) - 1) < 1e-9
    assert peak < 16 * 2**20


@settings(max_examples=60, deadline=None)
@given(polyline_pairs())
def test_gauss_linking_is_symmetric(curves):
    a, b = curves
    assert abs(gauss_linking(a, b) - gauss_linking(b, a)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(polyline_pairs())
def test_gauss_linking_reversal_negates(curves):
    a, b = curves
    assert abs(gauss_linking(a[::-1], b) + gauss_linking(a, b)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(polyline_pairs(), st.lists(st.floats(-100, 100), min_size=3, max_size=3))
def test_gauss_linking_is_translation_invariant(curves, offset):
    a, b = curves
    v = np.array(offset)
    assert abs(gauss_linking(a + v, b + v) - gauss_linking(a, b)) < 1e-12


def chord_midpoint_gaps(pmap, curve):
    """Chord lengths of a traced closed curve, and how far Newton moves
    each chord midpoint, normalized to S^3, onto the preimage curve."""
    closed = np.vstack([curve.points, curve.points[:1]])
    chords = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    mid = (closed[1:] + closed[:-1]) / 2
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    system = numeric._PreimageSystem(numeric._MapAndJacobian(pmap), curve.value)
    out = system.newton(mid)
    assert np.all(out.status == numeric._CONVERGED)
    return chords, np.linalg.norm(out.points - mid, axis=1)


def test_hopf_invariant_of_hopf_map():
    f, _ = hopf_pair()
    res = hopf_invariant(f, seed=0)
    assert res.value == -1
    assert res.defect < 0.05
    assert len(res.curves) == 2
    for curve in res.curves:
        assert np.linalg.norm(curve.points[-1] - curve.points[0]) < numeric._STEP_MAX
        chords, gaps = chord_midpoint_gaps(f, curve)
        assert chords.max() <= numeric._STEP_MAX
        assert gaps.max() < 1e-3


@pytest.mark.parametrize("d", [-3, -2, 2, 3])
def test_chord_midpoints_lie_on_the_traced_curves(d):
    pmap = catalog(f"pi3_s2:{d}")
    for curve in hopf_invariant(pmap, seed=1).curves:
        chords, gaps = chord_midpoint_gaps(pmap, curve)
        assert chords.max() <= numeric._STEP_MAX
        assert gaps.max() < 1e-3


def test_a_start_near_a_chord_of_a_traced_curve_is_not_traced_again(monkeypatch):
    # the traced curve is thinned to every third node, so the start refined
    # from its longest chord's midpoint is farther than _SAME_CURVE from every
    # node but close to the chord
    fused = numeric._MapAndJacobian(catalog("pi3_s2:1"))
    value = np.array([1.0, 0.0, 0.0])
    curve = numeric._preimage_curves(fused, [value], [1], numeric.HopfResult(0, 0.0))[0][0]
    thin = curve.points[::3]
    i = int(np.argmax(np.linalg.norm(np.roll(thin, -1, axis=0) - thin, axis=1)))
    mid = thin[i] + thin[(i + 1) % len(thin)]
    start = numeric._PreimageSystem(fused, value).newton((mid / np.linalg.norm(mid))[None, :]).points[0]
    assert np.min(np.linalg.norm(thin - start, axis=1)) > numeric._SAME_CURVE
    assert numeric._polyline_distance(start, thin) < numeric._SAME_CURVE

    traced = []
    trace_curve = numeric._trace_curve

    def thinned_trace(*args, **kwargs):
        traced.append(trace_curve(*args, **kwargs))
        return dataclasses.replace(traced[-1], points=traced[-1].points[::3])

    monkeypatch.setattr(numeric, "sample_sphere", lambda n, count, seed: np.array([curve.points[0], start]))
    monkeypatch.setattr(numeric, "_trace_curve", thinned_trace)
    (curves,) = numeric._preimage_curves(fused, [value], [1], numeric.HopfResult(0, 0.0), n_seeds=2)
    assert len(curves) == len(traced) == 1


@pytest.mark.parametrize(
    "values",
    [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1.0, 0.0), (0.0, 1.0, 0.0)),
        ((1.0, 0.0, 0.0), (np.nan, 1.0, 0.0)),
        ((np.inf, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
    ],
    ids=["zero", "two-vector", "nan", "inf", "same-direction"],
)
def test_hopf_invariant_refuses_bad_regular_values(values):
    f, _ = hopf_pair()
    with pytest.raises(ValueError, match="regular value"):
        hopf_invariant(f, values=values)


def test_hopf_result_reports_its_margins():
    res = hopf_invariant(catalog("pi3_s2:2"), seed=1)
    assert res.nodes == [len(c.points) for c in res.curves] and min(res.nodes) > 50
    assert res.rejected_steps == 0 and res.overflow_seeds == 0
    # (-1, 0, 0) is not a regular value of pi3_s2:2: a trace meets a rank
    # drop, the values are perturbed once, and the traced curves are regular
    assert res.retries == 1 and res.rank_drop_seeds > 0
    assert res.newton_iterations > 64 * 2 * (res.retries + 1)
    assert all(0.5 < sv < 3 for sv in res.min_singular_values)


def test_a_value_with_one_rank_drop_seed_is_not_regular():
    # (1, 0, 0) has a regular preimage curve of pi3_s2:3 at seed 1 beside
    # seeds that converge to a singular one: linking only the regular curve
    # would link part of the preimage
    fused = numeric._MapAndJacobian(catalog("pi3_s2:3"))
    tally = numeric.HopfResult(0, 0.0)
    with pytest.raises(numeric._RankDrop):
        numeric._preimage_curves(fused, [np.array([1.0, 0.0, 0.0])], [1], tally)
    assert 0 < tally.rank_drop_seeds < 64 and tally.newton_iterations > 0


@pytest.mark.parametrize("d, traced", [(3, 0), (2, 2)])
def test_a_discarded_attempt_ends_at_its_first_rank_drop(monkeypatch, d, traced):
    # at seed 1 the first attempt is discarded.  For pi3_s2:3, (1, 0, 0) has
    # rank-drop seeds, so no curve is traced; for pi3_s2:2 every seed of both
    # values is regular, and (-1, 0, 0) meets a rank drop in its first trace,
    # after the one curve of (1, 0, 0)
    traces, at_retry = [], []
    trace_curve, rotation = numeric._trace_curve, numeric._perturbation_rotation

    def counted_trace(*args, **kwargs):
        traces.append(1)
        return trace_curve(*args, **kwargs)

    def recorded_rotation(seed):
        at_retry.append(len(traces))
        return rotation(seed)

    monkeypatch.setattr(numeric, "_trace_curve", counted_trace)
    monkeypatch.setattr(numeric, "_perturbation_rotation", recorded_rotation)
    res = hopf_invariant(catalog(f"pi3_s2:{d}"), seed=1)
    assert res.value == -d and res.retries == 1
    assert at_retry == [traced] and len(traces) > traced


def test_hopf_invariant_seed_and_value_independent():
    f, _ = hopf_pair()
    base = hopf_invariant(f, seed=0).value
    assert hopf_invariant(f, seed=1).value == base
    assert hopf_invariant(f, seed=3).value == base
    vv = (np.array([0.0, 1.0, 0.0]), np.array([0.0, -0.3, 0.9]))
    assert hopf_invariant(f, values=vv, seed=2).value == base


def test_hopf_invariant_constant_map_zero():
    from quadrep.maps import constant_map

    res = hopf_invariant(constant_map(4, 3), seed=0)
    assert res.value == 0 and not res.curves


def test_hopf_invariant_rotation_invariance():
    from fractions import Fraction

    f, _ = hopf_pair()
    base = hopf_invariant(f, seed=0).value
    c, s = Fraction(3, 5), Fraction(4, 5)
    zs = [Polynomial.variable(4, i) for i in range(4)]
    rot = maps._certified(
        PolyMap.explicit(
            [zs[0].scale(c) - zs[1].scale(s), zs[0].scale(s) + zs[1].scale(c), zs[2], zs[3]],
            "rotation",
            order=1,
        ),
        "rotation",
    )
    fr = compose_maps(f, rot)
    assert hopf_invariant(fr, seed=1).value == base


def test_hopf_invariant_scales_with_degree():
    f, _ = hopf_pair()
    base = hopf_invariant(f, seed=0).value
    res = hopf_invariant(catalog("pi3_s2:-1"), seed=0)
    assert res.value == -base


@pytest.mark.parametrize("d", [-3, -2, -1, 1, 2, 3])
def test_hopf_invariant_of_pi3_s2_d_is_minus_d(d):
    # absolute values, not |value|: a reflected stereographic projection
    # fails here (flipping every fiber leaves the linking number as it is,
    # so the orientation test below pins the fibers)
    assert hopf_invariant(catalog(f"pi3_s2:{d}"), seed=1).value == -d


@pytest.mark.parametrize("d", [-3, -2, -1, 1, 2, 3])
def test_hopf_linking_is_exact_and_reports_its_margins(d):
    res = hopf_invariant(catalog(f"pi3_s2:{d}"), seed=1)
    assert res.value == -d and res.defect < 1e-9
    assert len(res.closure_gaps) == len(res.curves)
    assert all(0 < gap < numeric._STEP_MAX for gap in res.closure_gaps)
    assert res.separation > 0
    if abs(d) == 1:
        # the Hopf fibres over antipodal values lie in orthogonal planes
        assert abs(res.separation - math.sqrt(2)) < 1e-8


# The tracer takes one stacked SVD of the constraint Jacobians JG per batched
# Newton iterate.  The oracles below are the former mechanisms: the fiber
# orientation from an orthonormal complement (u, v) of [p; tau] and the
# lifted 2x2 determinant, the Newton step from the normal equations, and the
# per-point Newton loop the batched routine replaced.


def former_orientation(JG, p, tau):
    _, _, vt = np.linalg.svd(np.vstack([p, tau]))
    u, v = vt[2], vt[3]
    lifted = np.array([[JG[1] @ u, JG[1] @ v], [JG[2] @ u, JG[2] @ v]])
    return np.sign(np.linalg.det(np.vstack([p, tau, u, v])) * np.linalg.det(lifted))


def point_residual(system, p):
    _, G, JG, h = system.residual_and_jac(p[None, :])
    return G[0], JG[0], h[0]


def former_newton(system, p, tol=1e-10, max_iter=80):
    for _ in range(max_iter):
        G, JG, h = point_residual(system, p)
        gmax = np.max(np.abs(G))
        if gmax < tol:
            return None if np.dot(h, system.value) <= 0.25 else p
        sv = np.linalg.svd(JG, compute_uv=False)
        if sv[-1] < 1e-8 * max(sv[0], 1e-12):
            return "rank drop" if gmax < 1e-3 else None
        p = p - JG.T @ np.linalg.solve(JG @ JG.T, G)
    return None


def former_point_newton(system, p, tol=1e-10, max_iter=80):
    """The per-point Newton loop: (point, tangent, JG), None, "rank drop" or
    "overflow" (a FloatingPointError, which dropped the seed)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(max_iter):
                G, JG, h = point_residual(system, p)
                gmax = np.max(np.abs(G))
                if gmax < tol and np.dot(h, system.value) <= 0.25:
                    return None
                u, sv, vt = np.linalg.svd(JG)
                if sv[-1] < 1e-8 * max(sv[0], 1e-12):
                    return "rank drop" if gmax < 1e-3 else None
                if gmax < tol:
                    return p, vt[-1], JG
                p = p - vt[:3].T @ ((u.T @ G) / sv)
    except FloatingPointError:
        return "overflow"
    return None


def batched_outcomes(system, P):
    out = system.newton(P, max_iter=80)
    names = {numeric._FAILED: None, numeric._RANK_DROP: "rank drop", numeric._OVERFLOW: "overflow"}
    return [
        (out.points[i], out.tangents[i], out.jacobians[i]) if status == numeric._CONVERGED else names[status]
        for i, status in enumerate(out.status)
    ]


def test_fiber_orientation_matches_the_lifted_determinant_on_random_systems():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        JG = np.vstack([2 * p, rng.normal(size=(2, 4))])
        tau = np.linalg.svd(JG)[2][-1]
        assert np.sign(np.linalg.det(np.vstack([JG, tau]))) == former_orientation(JG, p, tau)


@pytest.mark.parametrize("target", ["pi3_s2:1", "pi3_s2:-2", "pi3_s2:3"])
def test_newton_and_orientation_match_the_former_ones_at_curve_starts(target):
    pmap = catalog(target)
    fused = numeric._MapAndJacobian(pmap)
    converged = 0
    # the regular values actually traced, perturbed where (+-1, 0, 0) is not
    for curve in hopf_invariant(pmap, seed=1).curves:
        system = numeric._PreimageSystem(fused, curve.value)
        seeds = sample_sphere(3, 64, 5)
        for raw, refined in zip(seeds, batched_outcomes(system, seeds)):
            former, point_loop = former_newton(system, raw), former_point_newton(system, raw)
            if not isinstance(refined, tuple):
                assert refined == former == point_loop
                continue
            converged += 1
            assert np.max(np.abs(refined[0] - former)) < 1e-12
            assert np.max(np.abs(refined[0] - point_loop[0])) < 1e-12
            assert np.max(np.abs(refined[2] - point_loop[2])) < 1e-9
            assert np.max(np.abs(np.abs(refined[1] @ point_loop[1]) - 1)) < 1e-9
        (p, tau, JG), = batched_outcomes(system, curve.points[:1])
        assert np.array_equal(p, curve.points[0])
        assert np.max(np.abs(JG @ tau)) < 1e-9 and abs(np.linalg.norm(tau) - 1) < 1e-12
        sign = np.sign(np.linalg.det(np.vstack([JG, tau])))
        assert sign == former_orientation(JG, p, tau)
        # the curve was traced along the oriented first tangent
        assert sign * np.dot(curve.points[1] - p, tau) > 0
    assert converged >= 2


def test_batched_newton_drops_the_rows_the_point_loop_saw_overflow():
    zs = [Polynomial.variable(4, i) for i in range(4)]
    # |Im F|^2 = 9e308 p_0^4 overflows where |p_0| > 0.67 at the seed or later
    big = PolyMap.explicit([zs[3] + (zs[0] * zs[0]).scale(GaussianRational(0, 3 * 10**154)), zs[1], zs[2]], "overflow")
    system = numeric._PreimageSystem(numeric._MapAndJacobian(big), np.array([0.0, 1.0, 0.0]))
    seeds = sample_sphere(3, 64, 2)
    outcomes = batched_outcomes(system, seeds)
    assert outcomes == [former_point_newton(system, p) for p in seeds]
    assert 0 < outcomes.count("overflow") < 64


def test_each_newton_iterate_takes_one_svd_and_no_solve(monkeypatch):
    fused = numeric._MapAndJacobian(catalog("pi3_s2:2"))
    counts = {"svd": 0, "iterates": 0, "runs": 0}
    svd, residual_and_jac, newton = np.linalg.svd, numeric._PreimageSystem.residual_and_jac, numeric._PreimageSystem.newton

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_residual(self, P):
        counts["iterates"] += 1
        return residual_and_jac(self, P)

    def counted_newton(self, P, **kwargs):
        counts["runs"] += 1
        return newton(self, P, **kwargs)

    def solve(*args, **kwargs):
        raise AssertionError("the tracer solves no normal equations")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(numeric._PreimageSystem, "residual_and_jac", counted_residual)
    monkeypatch.setattr(numeric._PreimageSystem, "newton", counted_newton)
    (curves,) = numeric._preimage_curves(fused, [np.array([1.0, 0.0, 0.0])], [1], numeric.HopfResult(0, 0.0), n_seeds=16)
    assert curves and all(np.linalg.norm(c.points[-1] - c.points[0]) < numeric._STEP_MAX for c in curves)
    # one seed batch and one corrector run per node or rejected step
    assert counts["runs"] == 1 + sum(len(c.points) - 1 + c.rejected for c in curves)
    # an iterate whose rows have all left (antipodal sheet or overflow) ends
    # its run before the SVD; every other iterate takes one stacked SVD
    assert counts["iterates"] - counts["runs"] <= counts["svd"] <= counts["iterates"]


def test_sampling_refuses_point_counts_beyond_the_budget_before_any_array(monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached before the point count was refused")

    monkeypatch.setattr(numeric, "np", NoArrays())
    limit = maps.DEFAULT_EXPANSION_BUDGET
    with pytest.raises(maps.InfeasibleError, match="exceed the expansion budget"):
        sample_sphere(3, limit // 4 + 1)
    with pytest.raises(maps.InfeasibleError, match="exceed the expansion budget"):
        sample_quadric(5, limit // 5 + 1)
    with pytest.raises(maps.InfeasibleError, match="exceed the expansion budget"):
        sphere_degree(catalog("pi_n:2,3"), grid=(10**9, 10**9))


def test_sampling_admits_exactly_the_budget():
    limit = maps.DEFAULT_EXPANSION_BUDGET
    assert sample_sphere(4, limit // 5).shape == (limit // 5, 5)


def test_point_counts_one_coordinate_past_the_budget_are_refused():
    # 1,666,667 points of 3 coordinates: the budget 5,000,000 plus one
    limit = maps.DEFAULT_EXPANSION_BUDGET
    message = f"^{(limit + 1) // 3} points of 3 coordinates exceed the expansion budget {limit}$"
    with pytest.raises(maps.InfeasibleError, match=message):
        sample_sphere(2, (limit + 1) // 3)
    with pytest.raises(maps.InfeasibleError, match=message):
        sphere_degree(catalog("pi_n:2,3"), grid=((limit + 1) // 3, 1))


@pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "limit-plus-one"])
def test_batch_power_tables_are_charged_up_to_the_budget(monkeypatch, extra):
    # a real table at the budget takes 80 MB: the charge is stubbed instead
    units = maps.DEFAULT_EXPANSION_BUDGET + extra
    monkeypatch.setattr(numeric.Evaluator, "batch_cost", lambda self, rows=None: units)
    f, _ = hopf_pair()
    charges = (lambda: f.eval_batch(sample_sphere(3, 4)), lambda: numeric._MapAndJacobian(f))
    for charge in charges:
        if extra:
            with pytest.raises(maps.InfeasibleError, match="^batch power tables exceed the expansion budget 5000000$"):
                charge()
        else:
            charge()


def test_hopf_invariant_of_a_map_that_overflows_is_a_numeric_error():
    # an imaginary coefficient of 10**200 squares past the largest double in
    # the retraction, so every Newton seed overflows at its first step, and
    # "no preimage, invariant 0" would be unfounded
    zs = [Polynomial.variable(4, i) for i in range(4)]
    big = PolyMap.explicit([(zs[0] * zs[0]).scale(GaussianRational(0, 10**200)), zs[1], zs[2]], "overflow")
    with pytest.raises(NumericError, match="overflowed from 64 of 64"):
        hopf_invariant(big, seed=0)


# --------------------------------------------------------------- homotopies


def test_even_order_loop_residual_hopf():
    f, _ = hopf_pair()
    assert even_order_nullhomotopy_residual(f, samples=200, seed=0) < 1e-9


def test_even_order_loop_endpoints():
    f, _ = hopf_pair()
    Z = sample_quadric(4, 50, seed=1)
    start = f.eval_batch(np.exp(1j * np.pi * 0.0) * Z) * np.exp(1j * np.pi * 0.0) ** (-2)
    assert np.allclose(start, f.eval_batch(Z), atol=1e-12)
    gamma = np.exp(1j * np.pi * 1.0)
    end = f.eval_batch(gamma * Z) * gamma ** (-2.0)
    assert np.allclose(end, f.eval_batch(-Z), atol=1e-12)


def test_even_order_loop_rejects_odd_orders():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)  # order 3
    with pytest.raises(PreconditionError):
        even_order_nullhomotopy_residual(phi)
