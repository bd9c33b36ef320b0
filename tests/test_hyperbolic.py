"""Geometry core: form, distances, geodesics, isometries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.hyperbolic import (
    BoundaryPoint,
    DegenerateDirectionError,
    Isometry,
    IsometryDriftError,
    OffSheetError,
    Point,
    basepoint,
    boost,
    boundary_direction,
    distance,
    form_matrix,
    form_residual,
    geodesic_point,
    gromov_product,
    identity_isometry,
    min_distance_to_set,
    minkowski_inner,
    pairwise_distance,
    reorthogonalize,
    rotation,
    split_distance,
    stable_arcosh,
    unit_tangent,
    validate_isometry,
    visual_angle,
)

from kleinian import hyperbolic
from conftest import random_isometry, random_point

X0_2 = basepoint(2)
X0_3 = basepoint(3)

# Frozen values, computed with stdlib math:
#   d_orth = acosh(cosh(1)^2) for two unit boosts along orthogonal axes,
#   and the matching Gromov product (2 - d_orth) / 2 at the basepoint.
D_ORTHOGONAL_UNIT_BOOSTS = 1.513374006596504
GROMOV_ORTHOGONAL_UNIT_BOOSTS = 0.243312996701748


def test_form_and_basepoint():
    assert minkowski_inner(X0_2, X0_2) == -1.0
    j = form_matrix(2)
    assert np.array_equal(j, np.diag([-1.0, 1.0, 1.0]))
    x = boost(2, 1, 1.0).apply(X0_2)
    assert np.isclose(minkowski_inner(X0_2, x.coords), -math.cosh(1.0))


def test_point_validation():
    Point(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(OffSheetError):
        Point(np.array([1.0, 0.5, 0.0]))
    with pytest.raises(OffSheetError):
        # lower sheet
        Point(np.array([-1.0, 0.0, 0.0]))
    # large points only need relative accuracy in the quadratic form
    r = 38.0
    Point(np.array([np.cosh(r), np.sinh(r), 0.0]))


def test_stable_arcosh_near_one():
    w = 1.0 + 1e-15
    u = w - 1.0
    assert np.isclose(stable_arcosh(w), math.sqrt(u * (u + 2.0)), rtol=1e-6)
    assert stable_arcosh(1.0) == 0.0
    # arguments below 1 (roundoff from inner products) clamp to 0
    assert stable_arcosh(1.0 - 1e-12) == 0.0
    assert np.isclose(stable_arcosh(math.cosh(7.0)), 7.0)


def test_distance_frozen_value():
    x = boost(2, 1, 1.0).apply(X0_2).coords
    y = boost(2, 2, 1.0).apply(X0_2).coords
    assert np.isclose(distance(x, y), D_ORTHOGONAL_UNIT_BOOSTS, atol=1e-12)
    assert np.isclose(distance(x, x), 0.0)
    assert np.isclose(distance(x, X0_2), 1.0)


def test_distance_triangle_inequality(rng):
    for _ in range(200):
        x = random_point(rng, 3)
        y = random_point(rng, 3)
        z = random_point(rng, 3)
        assert distance(x, y) <= distance(x, z) + distance(z, y) + 1e-10


def test_gromov_product_frozen_value():
    x = boost(2, 1, 1.0).apply(X0_2).coords
    y = boost(2, 2, 1.0).apply(X0_2).coords
    got = gromov_product(x, y, X0_2)
    assert np.isclose(got, GROMOV_ORTHOGONAL_UNIT_BOOSTS, atol=1e-12)
    # product with the base itself vanishes
    assert abs(gromov_product(x, y, x)) < 1e-9
    assert abs(gromov_product(x, X0_2, X0_2)) < 1e-12


def test_gromov_product_bounds(rng):
    for _ in range(200):
        x = random_point(rng, 2)
        y = random_point(rng, 2)
        z = random_point(rng, 2)
        p = gromov_product(x, y, z)
        assert p >= -1e-10
        assert p <= min(distance(x, z), distance(y, z)) + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]))
def test_four_point_condition(seed, dim):
    """(x|y) >= min((x|z), (z|y)) - ln 2 for all permutations of a triple."""
    rng = np.random.default_rng(seed)
    base = basepoint(dim)
    pts = [random_point(rng, dim, radius=6.0) for _ in range(3)]
    slack = math.log(2.0) + 1e-9
    for i in range(3):
        x, y, z = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
        lhs = gromov_product(x, y, base)
        rhs = min(gromov_product(x, z, base), gromov_product(z, y, base))
        assert lhs >= rhs - slack


def test_geodesic_point_midpoint():
    y = boost(2, 1, 2.0).apply(X0_2).coords
    mid = geodesic_point(X0_2, y, 1.0)
    assert np.allclose(mid, [math.cosh(1.0), math.sinh(1.0), 0.0])
    assert np.allclose(geodesic_point(X0_2, y, 0.0), X0_2)
    assert np.allclose(geodesic_point(X0_2, y, 2.0), y)


def test_geodesic_point_equidistance(rng):
    x = random_point(rng, 3)
    y = random_point(rng, 3)
    d = distance(x, y)
    for t in np.linspace(0.0, float(d), 7):
        p = geodesic_point(x, y, t)
        assert np.isclose(distance(x, p), t, atol=1e-9)
        assert np.isclose(distance(p, y), d - t, atol=1e-9)


def test_geodesic_point_batch(rng):
    x = random_point(rng, 2)
    y = random_point(rng, 2)
    ts = np.linspace(0.1, 0.9, 5) * distance(x, y)
    batch = geodesic_point(x, y, ts)
    assert batch.shape == (5, 3)
    for row, t in zip(batch, ts):
        assert np.allclose(row, geodesic_point(x, y, float(t)))


def test_geodesic_degenerate():
    with pytest.raises(DegenerateDirectionError):
        geodesic_point(X0_2, X0_2, 0.5)


def test_unit_tangent(rng):
    x = random_point(rng, 3)
    y = random_point(rng, 3)
    v = unit_tangent(x, y)
    assert np.isclose(minkowski_inner(v, v), 1.0, atol=1e-9)
    assert np.isclose(minkowski_inner(x, v), 0.0, atol=1e-9)
    t = 0.37 * distance(x, y)
    assert np.allclose(geodesic_point(x, y, t), np.cosh(t) * x + np.sinh(t) * v)


def test_visual_angle_and_boundary_direction():
    a = boundary_direction(boost(2, 1, 3.0).apply(X0_2))
    b = boundary_direction(boost(2, 2, 3.0).apply(X0_2))
    assert np.isclose(visual_angle(a, b), math.pi / 2)
    assert visual_angle(a, a) == 0.0
    assert np.allclose(a.direction, [1.0, 0.0])
    with pytest.raises(DegenerateDirectionError):
        boundary_direction(X0_2)
    with pytest.raises(DegenerateDirectionError):
        BoundaryPoint(np.zeros(2))


def test_boundary_ray_point():
    u = BoundaryPoint(np.array([0.6, 0.8]))
    p = Point(u.ray_point(5.0))
    assert np.isclose(p.norm(), 5.0)
    assert np.allclose(boundary_direction(p).direction, [0.6, 0.8])


def test_validate_isometry():
    assert validate_isometry(boost(3, 2, 1.7).matrix)
    assert validate_isometry(rotation(2, 1, 2, 0.3).matrix)
    assert not validate_isometry(1.001 * np.eye(3))
    # the form matrix itself swaps sheets, so it is not accepted
    assert not validate_isometry(form_matrix(2))


def test_reorthogonalize(rng):
    g = boost(3, 1, 0.8) @ rotation(3, 2, 3, 0.5) @ boost(3, 3, -0.6)
    noisy = g.matrix + rng.normal(scale=1e-6, size=g.matrix.shape)
    assert form_residual(noisy) > 1e-8
    fixed = reorthogonalize(noisy)
    assert form_residual(fixed) < 1e-13
    # stays near the original (noise times matrix scale) and exact on group elements
    assert np.max(np.abs(fixed - g.matrix)) < 1e-4
    assert np.allclose(reorthogonalize(g.matrix), g.matrix)


def test_compose_and_inverse():
    b = boost(2, 1, 0.7)
    c = boost(2, 1, 1.1)
    assert np.allclose((b @ c).matrix, boost(2, 1, 1.8).matrix)
    gi = b.inverse()
    assert np.allclose((b @ gi).matrix, np.eye(3), atol=1e-12)
    g = Isometry(b.matrix, (1,)) @ Isometry(c.matrix, (-2, 1))
    assert g.word == (1, -2, 1)
    assert g.inverse().word == (-1, 2, -1)


def test_apply_and_drift():
    b = boost(2, 1, 1.0)
    img = b.apply(Point(X0_2))
    assert np.allclose(img.coords, [math.cosh(1.0), math.sinh(1.0), 0.0])
    bad = Isometry(1.01 * b.matrix)
    with pytest.raises(IsometryDriftError):
        bad.apply(X0_2)


def test_norm_and_orbit_point():
    assert np.isclose(boost(3, 2, 2.5).norm(), 2.5)
    assert rotation(2, 1, 2, 1.0).norm() == 0.0
    g = boost(2, 1, 1.0) @ rotation(2, 1, 2, 0.4)
    assert np.allclose(g.orbit_point().coords, g.apply(X0_2).coords)


def test_power():
    b = boost(2, 1, 0.5)
    assert np.allclose(b.power(4).matrix, boost(2, 1, 2.0).matrix)
    assert np.allclose(b.power(-2).matrix, boost(2, 1, -1.0).matrix)
    assert np.allclose(b.power(0).matrix, np.eye(3))
    w = Isometry(b.matrix, (1,))
    assert w.power(3).word == (1, 1, 1)
    assert w.power(-2).word == (-1, -1)


def test_symbolic_isometry():
    g = Isometry(None, (1,) * 10**6, norm_hint=12345.6)
    assert g.symbolic
    assert g.norm() == 12345.6
    with pytest.raises(IsometryDriftError):
        g.apply(X0_2)
    with pytest.raises(IsometryDriftError):
        g @ g


def test_isometries_preserve_distance(rng):
    for dim in (2, 3):
        g = random_isometry(rng, dim)
        x = random_point(rng, dim)
        y = random_point(rng, dim)
        gx = g.apply(x).coords
        gy = g.apply(y).coords
        assert np.isclose(distance(gx, gy), distance(x, y), atol=1e-9)


def test_pairwise_distance_matches_scalar(rng):
    a = np.stack([random_point(rng, 2) for _ in range(7)])
    b = np.stack([random_point(rng, 2) for _ in range(5)])
    mat = pairwise_distance(a, b)
    assert mat.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert np.isclose(mat[i, j], distance(a[i], b[j]), atol=1e-10)
    # chunked path agrees with the one-shot path
    assert np.allclose(pairwise_distance(a, b, chunk=4), mat)


def test_min_distance_to_set(rng):
    pts = np.stack([random_point(rng, 3) for _ in range(6)])
    cloud = np.stack([random_point(rng, 3) for _ in range(40)])
    vals, args = min_distance_to_set(pts, cloud, chunk=50)
    full = pairwise_distance(pts, cloud)
    assert np.allclose(vals, full.min(axis=1))
    assert np.array_equal(args, full.argmin(axis=1))


def test_min_distance_blocks_stay_within_chunk(rng, monkeypatch):
    """Every block handed to pairwise_distance holds at most ``chunk``
    pairs, whichever of the two sets is the larger; values and first-row
    argmins equal the one-shot pairwise minimum."""
    pts = np.stack([random_point(rng, 3) for _ in range(12)])
    cloud = np.stack([random_point(rng, 3) for _ in range(90)])
    full = pairwise_distance(pts, cloud)
    sizes = []
    kernel = hyperbolic.pairwise_distance

    def recording(a, b, chunk=2_000_000):
        sizes.append(a.shape[0] * b.shape[0])
        return kernel(a, b, chunk)

    monkeypatch.setattr(hyperbolic, "pairwise_distance", recording)
    for chunk in (1, 5, 12, 64, 1000, 100_000):
        sizes.clear()
        vals, args = min_distance_to_set(pts, cloud, chunk=chunk)
        assert 0 < max(sizes) <= chunk
        assert sum(sizes) == full.size
        assert np.array_equal(vals, full.min(axis=1))
        assert np.array_equal(args, full.argmin(axis=1))
    # exact ties across blocks go to the first cloud row
    twice = np.concatenate([cloud, cloud])
    for chunk in (1, 13, 1000):
        _, args = min_distance_to_set(pts, twice, chunk=chunk)
        assert np.array_equal(args, full.argmin(axis=1))


@pytest.mark.parametrize("t", [400.0, 600.0, 700.0])
def test_arcosh_and_split_distance_stay_finite_past_355(t):
    """u (u + 2) overflows once u passes about 1.3e154 (a distance near
    355); both kernels switch to log 2 + log1p(u) before that."""
    assert stable_arcosh(np.cosh(t)) == pytest.approx(t, rel=1e-14)
    assert boost(2, 1, t).norm() == pytest.approx(t, rel=1e-14)
    e1 = np.array([1.0, 0.0])
    assert split_distance(0.5 * t, e1, 0.5 * t, -e1) == pytest.approx(t, rel=1e-14)
    assert split_distance(t, e1, 0.0, e1) == pytest.approx(t, rel=1e-14)


def test_arcosh_unchanged_below_the_switch(rng):
    """Below u = 1e150 both kernels keep the near-one form bit for bit, so
    no count pinned on distances under about 345 can flip."""

    def near(u):
        return np.log1p(u + np.sqrt(u * (u + 2.0)))

    w = 1.0 + np.concatenate([[0.0], np.logspace(-17.0, 150.0, 2000)])
    assert np.array_equal(stable_arcosh(w), near(np.maximum(w - 1.0, 0.0)))
    r1, r2 = rng.uniform(0.0, 170.0, size=(2, 500))
    v = rng.normal(size=(2, 500, 3))
    u1, u2 = v / np.linalg.norm(v, axis=-1, keepdims=True)
    sh = np.sinh(0.5 * (r1 - r2))
    gap = np.sum((u1 - u2) ** 2, axis=-1)
    want = near(2.0 * sh * sh + 0.5 * np.sinh(r1) * np.sinh(r2) * gap)
    assert np.array_equal(split_distance(r1, u1, r2, u2), want)


def test_distance_far_points():
    """The split kernel keeps full precision where the raw pairing cancels."""
    p = np.array([np.cosh(250.0), np.sinh(250.0), 0.0])
    q = np.array([np.cosh(249.0), np.sinh(249.0), 0.0])
    assert np.isclose(distance(p, q), 1.0, rtol=1e-12)
    assert distance(p, p) == 0.0
    # same radius, angle 2/sinh(r): cosh d = 1 + sinh(r)^2 (1 - cos theta)
    r = 20.0
    theta = 2.0 / np.sinh(r)
    a = np.array([np.cosh(r), np.sinh(r), 0.0])
    b = np.array([np.cosh(r), np.sinh(r) * np.cos(theta), np.sinh(r) * np.sin(theta)])
    # oracle written in a cancellation-free form: 1 - cos t = 2 sin(t/2)^2
    want = math.acosh(1.0 + 2.0 * (math.sinh(r) * math.sin(theta / 2.0)) ** 2)
    assert np.isclose(distance(a, b), want, rtol=1e-9)


def test_identity():
    e = identity_isometry(3)
    assert e.norm() == 0.0
    assert e.word == ()
    assert np.array_equal(e.matrix, np.eye(4))
