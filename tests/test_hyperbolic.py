"""Geometry core: form, distances, geodesics, isometries."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.hyperbolic import (
    BoundaryPoint,
    DegenerateDirectionError,
    GeometryError,
    Isometry,
    IsometryDriftError,
    OffSheetError,
    Point,
    basepoint,
    boost,
    distance,
    form_matrix,
    form_residual,
    geodesic_point,
    gromov_product,
    identity_isometry,
    nearest_in_split,
    minkowski_inner,
    radial_split,
    ray_coordinates,
    ray_distance,
    ray_offset,
    ray_points,
    reorthogonalize,
    split_distance,
    stable_arcosh,
    validate_isometry,
)

from kleinian import hyperbolic
from conftest import (
    golden_section_projection,
    pairwise_distance,
    random_isometry,
    random_point,
    rotation,
)

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


def test_boundary_ray_point():
    u = BoundaryPoint(np.array([0.6, 0.8]))
    p = Point(ray_points(u.direction, 5.0))
    assert np.isclose(p.norm(), 5.0)
    assert np.allclose(radial_split(p.coords)[1], [0.6, 0.8])
    with pytest.raises(DegenerateDirectionError):
        BoundaryPoint(np.zeros(2))


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


def min_distance_to_set(points, cloud):
    """The nearest-point kernel on hyperboloid points."""
    return nearest_in_split(*radial_split(np.atleast_2d(points)), *radial_split(cloud))


def test_min_distance_to_set(rng, monkeypatch):
    pts = np.stack([random_point(rng, 3) for _ in range(6)])
    cloud = np.stack([random_point(rng, 3) for _ in range(40)])
    monkeypatch.setattr(hyperbolic, "SCREEN_BLOCK", 50)
    vals, args = min_distance_to_set(pts, cloud)
    full = pairwise_distance(pts, cloud)
    assert np.allclose(vals, full.min(axis=1))
    assert np.array_equal(args, full.argmin(axis=1))


def test_min_distance_blocks_stay_within_chunk(rng, monkeypatch):
    """Every block of the cosh screen holds at most ``SCREEN_BLOCK`` pairs,
    whichever of the two sets is the larger, and screens each pair
    exactly once; values and first-row argmins equal the brute-force
    minimum."""
    pts = np.stack([random_point(rng, 3) for _ in range(12)])
    cloud = np.stack([random_point(rng, 3) for _ in range(90)])
    full = pairwise_distance(pts, cloud)
    blocks = []
    screen = hyperbolic._screen_block

    def recording(p, qt, low, slack):
        # a block's rows and columns carry cosh of the radii in front
        rows = np.argmin(np.abs(pts[:, 0] - p[:, :1]), axis=1)
        cols = np.argmin(np.abs(cloud[:, 0] - qt[0][:, None]), axis=1)
        blocks.append((rows, cols))
        return screen(p, qt, low, slack)

    monkeypatch.setattr(hyperbolic, "_screen_block", recording)
    for chunk in (1, 5, 12, 64, 1000, 100_000):
        blocks.clear()
        monkeypatch.setattr(hyperbolic, "SCREEN_BLOCK", chunk)
        vals, args = min_distance_to_set(pts, cloud)
        assert 0 < max(r.size * c.size for r, c in blocks) <= chunk
        seen = np.zeros(full.shape, dtype=np.int64)
        for rows, cols in blocks:
            seen[np.ix_(rows, cols)] += 1
        assert np.all(seen == 1)
        assert np.array_equal(vals, full.min(axis=1))
        assert np.array_equal(args, full.argmin(axis=1))
    # exact ties across blocks go to the first cloud row
    twice = np.concatenate([cloud, cloud])
    for chunk in (1, 13, 64, 1000):
        monkeypatch.setattr(hyperbolic, "SCREEN_BLOCK", chunk)
        _, args = min_distance_to_set(pts, twice)
        assert np.array_equal(args, full.argmin(axis=1))


def _screen_case(seed, dim):
    """Query points and a cloud for the screen: radii up to 700, so that
    p_0 q_0 overflows in some pairings, members repeated exactly, and
    directions 1e-9 apart."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 30))
    top = float(rng.choice([5.0, 40.0, 360.0, 700.0]))
    v = rng.normal(size=(m + n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    near = rng.random(m + n) < 0.5
    w = v[rng.integers(0, m + n, size=m + n)] + 1e-9 * rng.normal(size=(m + n, dim))
    v[near] = w[near] / np.linalg.norm(w[near], axis=1, keepdims=True)
    r = rng.uniform(0.0, top, size=m + n)
    r[rng.random(m + n) < 0.3] = r[0]
    pts = ray_points(v, r)
    cloud = pts[m:]
    cloud = np.concatenate([cloud, cloud[rng.integers(0, n, size=n // 2)]])
    return pts[:m], cloud[rng.permutation(cloud.shape[0])]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([1, 7, 40, 65_536]),
)
def test_min_distance_screen_matches_brute_force(seed, dim, chunk):
    """Values and first-row argmins of the screened pass are those of the
    brute-force minimum, bit for bit, with no RuntimeWarning: rows whose
    pairings overflow keep every member, and exact ties and members
    1e-9 apart all survive the screen."""
    pts, cloud = _screen_case(seed, dim)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(hyperbolic, "SCREEN_BLOCK", chunk)
        vals, args = min_distance_to_set(pts, cloud)
    full = pairwise_distance(pts, cloud)
    assert np.array_equal(vals, full.min(axis=1))
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


def _head_split_distance(r1, u1, r2, u2):
    """The kernel before the far-radius path: np.sum over the direction
    axis and no repair of an overflowed sinh product."""
    sh = np.sinh(0.5 * (r1 - r2))
    gap = np.sum((u1 - u2) ** 2, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * sh * sh + 0.5 * np.sinh(r1) * np.sinh(r2) * gap
        return hyperbolic._arcosh_1p(u)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "shape1, shape2",
    [((200, 1), (1, 300)), ((500,), (500,)), ((), (400,)), ((6, 1, 1), (1, 7, 9))],
)
def test_split_distance_gap_matches_np_sum(rng, d, shape1, shape2):
    """The component-wise direction gap is bit-identical to np.sum over the
    last axis, on broadcast blocks as on flat rows."""
    shape = np.broadcast_shapes(shape1, shape2)
    r1 = rng.uniform(0.0, 170.0, size=shape1)
    r2 = rng.uniform(0.0, 170.0, size=shape2)
    v1 = rng.normal(size=shape1 + (d,))
    v2 = rng.normal(size=shape2 + (d,))
    u1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    u2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    got = split_distance(r1, u1, r2, u2)
    assert got.shape == shape
    assert np.array_equal(got, _head_split_distance(r1, u1, r2, u2))


def _law_of_cosines(r1, u1, r2, u2):
    """Distance at 50 digits from the float radii and the angle between
    the float direction vectors, which need not be unit to the last bit."""
    import mpmath

    with mpmath.workdps(50):
        v1 = [mpmath.mpf(float(a)) for a in u1]
        v2 = [mpmath.mpf(float(b)) for b in u2]
        c = mpmath.fdot(v1, v2) / mpmath.sqrt(mpmath.fdot(v1, v1) * mpmath.fdot(v2, v2))
        r1, r2 = mpmath.mpf(float(r1)), mpmath.mpf(float(r2))
        cosh_d = mpmath.cosh(r1) * mpmath.cosh(r2) - mpmath.sinh(r1) * mpmath.sinh(r2) * c
        return float(mpmath.acosh(cosh_d))


@pytest.mark.parametrize("r", [400.0, 600.0, 700.0])
def test_split_distance_past_the_sinh_overflow(r):
    """Past r1 + r2 near 710 the sinh product overflows; a zero gap then
    made NaN, a positive one inf.  Both are now finite and exact."""
    e1 = np.array([1.0, 0.0])
    assert split_distance(r, e1, r, e1) == 0.0
    assert split_distance(r, e1, r - 1.0, e1) == 1.0
    for r2 in (400.0, 600.0, 700.0):
        assert split_distance(r, e1, r2, -e1) == pytest.approx(r + r2, rel=1e-15)
        for theta in (1e-9, 1e-5, 1e-2, 1.0):
            u2 = np.array([np.cos(theta), np.sin(theta)])
            want = _law_of_cosines(r, e1, r2, u2)
            assert split_distance(r, e1, r2, u2) == pytest.approx(want, rel=1e-14)


def test_split_distance_unchanged_where_it_was_finite(rng):
    """One block mixing near and far pairs: entries the old kernel got
    finite keep its value bit for bit, the rest become finite."""
    r1 = rng.uniform(0.0, 720.0, size=(300, 1))
    r2 = rng.uniform(0.0, 720.0, size=(1, 300))
    v1 = rng.normal(size=(300, 1, 3))
    v2 = rng.normal(size=(1, 300, 3))
    u1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    u2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    # ten far points paired with themselves: zero gaps, which made NaN
    r1[:10, 0] = r2[0, :10] = np.linspace(360.0, 700.0, 10)
    u2[0, :10] = u1[:10, 0]
    old = _head_split_distance(r1, u1, r2, u2)
    new = split_distance(r1, u1, r2, u2)
    finite = np.isfinite(old)
    assert 0 < np.count_nonzero(finite) < finite.size
    assert np.array_equal(new[finite], old[finite])
    assert np.isfinite(new).all()
    assert np.isnan(np.diag(old[:10, :10])).all()
    assert (np.diag(new[:10, :10]) == 0.0).all()
    assert (new[~finite] >= np.abs(r1 - r2)[~finite]).all()


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ray_coordinates_match_projection_and_split_distance(rng, dim):
    """Offsets and feet against the golden-section projection onto the
    window [x0, ray(t_max)] and against split_distance to ray points:
    feet behind x0, feet past t_max and points on the ray."""
    u = _unit_rows(rng.normal(size=dim))
    t_max = 6.0
    on_ray = np.linspace(0.0, 9.0, 7)
    behind = _unit_rows(0.1 * rng.normal(size=(40, dim)) - u)
    ahead = _unit_rows(1e-3 * rng.normal(size=(40, dim)) + u)
    spread = _unit_rows(rng.normal(size=(200, dim)))
    pts = np.concatenate(
        [
            ray_points(u, on_ray),
            ray_points(behind, rng.uniform(0.1, 8.0, 40)),
            ray_points(ahead, rng.uniform(8.0, 11.0, 40)),
            ray_points(spread, rng.uniform(0.0, 12.0, 200)),
        ]
    )
    h, t = ray_coordinates(*radial_split(pts), u)
    # direction roundoff, times sinh r, is all the offset there is
    assert np.allclose(h[:7], 0.0, atol=1e-11)
    assert np.allclose(t[:7], on_ray, rtol=1e-14, atol=1e-14)
    assert np.all(t[7:47] < 0.0) and np.all(t[47:87] > t_max)
    _, want = golden_section_projection(basepoint(dim), ray_points(u, t_max), pts)
    got = ray_distance(h, t, np.clip(t, 0.0, t_max))
    # the search stops within 1e-9 of the foot, its error where the
    # minimum is sharp (points on the ray) and not smooth
    assert np.allclose(got[h > 1e-6], want[h > 1e-6], rtol=1e-12, atol=1e-12)
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)
    s = rng.uniform(-2.0, 14.0, size=pts.shape[0])
    exact = split_distance(*radial_split(pts), *radial_split(ray_points(u, s)))
    assert np.allclose(ray_distance(h, t, s), exact, rtol=1e-12, atol=1e-12)
    assert np.allclose(ray_distance(h, t, t), h, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("r", [400.0, 600.0, 700.0])
def test_ray_coordinates_stay_finite_past_355(r):
    """Points given as (radius, direction) at radii where coordinates
    overflow: offsets, feet and distances stay finite and match
    split_distance, also where cosh h cosh(s - t) overflows."""
    e1 = np.array([1.0, 0.0])
    angles = np.array([0.0, 1e-9, 1e-5, 1.0, 0.5 * np.pi, 3.0, np.pi])
    v = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    v[-1] = -e1
    h, t = ray_coordinates(np.full(angles.shape, r), v, e1)
    assert np.isfinite(h).all() and np.isfinite(t).all()
    assert h[0] == 0.0 and t[0] == r and t[-1] == -r
    for s in (0.0, 0.5 * r, r, 2.0 * r):
        d = ray_distance(h, t, s)
        assert np.isfinite(d).all()
        assert np.allclose(d, split_distance(r, v, s, e1), rtol=1e-14, atol=1e-12)
    # coordinates whose squares overflow keep their direction and distance
    radii = np.full(angles.shape, r)
    r_back, u_back = radial_split(ray_points(v, radii))
    assert np.array_equal(r_back, radii)
    assert np.allclose(u_back, v, rtol=0.0, atol=1e-15)
    e2 = np.array([0.0, 1.0])
    far = distance(ray_points(e1, r), ray_points(e2, r))
    assert far == pytest.approx(_law_of_cosines(r, e1, r, e2), rel=1e-15)


def test_ray_points_broadcast_radii_against_directions():
    """A direction stack takes one radius, one direction many radii."""
    angles = np.linspace(0.0, 3.0, 7)
    v = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    stacked = ray_points(v, 400.0)
    assert stacked.shape == (7, 3)
    assert np.array_equal(stacked, np.stack([ray_points(u, 400.0) for u in v]))
    radii = np.array([0.0, 1.0, 400.0])
    fanned = ray_points(v[2], radii)
    assert np.array_equal(fanned, np.stack([ray_points(v[2], t) for t in radii]))


def test_ray_points_refuse_radii_past_the_cosh_range():
    """cosh overflows past arcosh of the largest float, 710.48: a radius
    there is refused, not returned as inf coordinates."""
    u = np.array([0.6, 0.8])
    near = ray_points(u, 705.0)
    assert np.isfinite(near).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (720.0, -720.0, np.array([0.0, 705.0, 720.0])):
            with pytest.raises(GeometryError):
                ray_points(u, t)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_split_and_ray_coordinates_match_norm_reference(rng, dim):
    """The component-wise norms of radial_split and ray_coordinates give
    the np.linalg.norm values bit for bit, from the basepoint out to
    radius 700, and ray_offset is the offset of ray_coordinates."""
    v = _unit_rows(rng.normal(size=(500, dim)))
    r = np.concatenate([[0.0], rng.uniform(0.0, 700.0, 499)])
    pts = ray_points(v, r)
    spatial = pts[:, 1:]
    with np.errstate(over="ignore"):
        # squares overflow past radius 355, where radial_split rescales
        norm = np.linalg.norm(spatial, axis=-1, keepdims=True)
    finite = np.isfinite(norm[:, 0])
    want_u = spatial[finite] / np.where(norm[finite] > 0.0, norm[finite], 1.0)
    want_u[norm[finite, 0] == 0.0, 0] = 1.0
    got_r, got_u = radial_split(pts)
    assert np.array_equal(got_r, stable_arcosh(pts[:, 0]))
    assert np.array_equal(got_u[finite], want_u)
    u = v[1]
    cos = got_u @ u
    sin = np.linalg.norm(got_u - cos[..., None] * u, axis=-1)
    sinh_h = np.sinh(got_r) * sin
    want_t = np.arcsinh(np.sinh(got_r) * cos / np.hypot(1.0, sinh_h))
    h, t = ray_coordinates(got_r, got_u, u)
    assert np.array_equal(h, np.arcsinh(sinh_h))
    assert np.array_equal(t, want_t)
    assert np.array_equal(ray_offset(got_r, got_u, u), h)


def _radial_split_broadcast(points):
    """Reference: radial_split as it was with one broadcast division of
    the (n, k) spatial part by the (n, 1) norms."""
    p = np.asarray(points, dtype=float)
    spatial = p[..., 1:]
    with np.errstate(over="ignore"):
        n = hyperbolic._norm(spatial)[..., None]
    far = np.isinf(n[..., 0])
    if np.count_nonzero(far):
        big = spatial[far]
        top = np.max(np.abs(big), axis=-1, keepdims=True)
        n[far] = top * hyperbolic._norm(big / top)[..., None]
    u = spatial / np.where(n > 0.0, n, 1.0)
    u[..., 0] = np.where(n[..., 0] == 0.0, 1.0, u[..., 0])
    return stable_arcosh(p[..., 0]), u


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_columnwise_split_matches_broadcast_division(rng, dim):
    """Dividing one column at a time gives the broadcast's bits, on the
    basepoint (zero norm), on rows past radius 355 (the rescaled norms)
    and on one point alone."""
    v = _unit_rows(rng.normal(size=(300, dim)))
    r = np.concatenate([[0.0, 400.0, 700.0], rng.uniform(0.0, 700.0, 297)])
    pts = ray_points(v, r)
    for points in (pts, pts[0], pts[1], pts[5]):
        got_r, got_u = radial_split(points)
        want_r, want_u = _radial_split_broadcast(points)
        assert np.array_equal(got_r, want_r)
        assert got_u.dtype == want_u.dtype and np.array_equal(got_u, want_u)
    assert np.array_equal(radial_split(pts)[1][0], np.eye(dim)[0])


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
