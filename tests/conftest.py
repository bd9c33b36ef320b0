"""Shared fixtures, samplers and slow reference paths for the test suite."""

import math

import numpy as np
import pytest

from kleinian.hyperbolic import (
    GeometryError,
    Isometry,
    boost,
    distance,
    geodesic_point,
    identity_isometry,
    radial_split,
    ray_coordinates,
    ray_distance,
    reorthogonalize,
    split_distance,
    stable_arcosh,
)
from kleinian.orbit import GroupSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def cyclic(length: float) -> GroupSpec:
    """Infinite cyclic group of one boost of H^2: growth exponent 0 and a
    two-point limit set, the degenerate end of every estimate."""
    return GroupSpec([boost(2, 1, length)], 2, name=f"cyclic(t={length:g})", free=True)


def sl2_norm(m):
    """Basepoint displacement of an SL(2,R) element acting on the upper half
    plane with basepoint i: arcosh of half the sum of squared entries."""
    arr = np.asarray(m, dtype=float)
    w = 0.5 * np.sum(arr * arr, axis=(-2, -1))
    return stable_arcosh(w)


def rotation(dim: int, i: int, j: int, theta: float) -> Isometry:
    """Rotation by ``theta`` in the spatial (i, j) coordinate plane (1-based)."""
    if not (1 <= i <= dim and 1 <= j <= dim and i != j):
        raise GeometryError(f"bad rotation plane ({i}, {j}) for H^{dim}")
    m = np.eye(dim + 1)
    c, s = np.cos(theta), np.sin(theta)
    m[i, i] = m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return Isometry(m)


def random_isometry(rng, dim, n_factors=6, scale=2.0):
    """Product of random boosts and rotations, cleaned up at the end.

    ``scale`` bounds each boost length, so the basepoint displacement is at
    most n_factors * scale (usually much less).
    """
    g = identity_isometry(dim)
    for _ in range(n_factors):
        if dim >= 2 and rng.random() < 0.5:
            i, j = rng.choice(np.arange(1, dim + 1), size=2, replace=False)
            g = g @ rotation(dim, int(i), int(j), rng.uniform(0.0, 2.0 * np.pi))
        else:
            axis = int(rng.integers(1, dim + 1))
            g = g @ boost(dim, axis, rng.uniform(-scale, scale))
    return Isometry(reorthogonalize(g.matrix), g.word)


def random_point(rng, dim, radius=3.0):
    """Random point at distance <= radius from the basepoint."""
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    r = rng.uniform(0.0, radius)
    coords = np.empty(dim + 1)
    coords[0] = np.cosh(r)
    coords[1:] = np.sinh(r) * direction
    return coords


def random_chain(rng, n_points, product_bound, gap_bound, dim=2, gap_spread=5.0):
    """Step chain whose gaps and interior Gromov products are known exactly.

    Each interior turn solves the hyperbolic law of cosines for a product
    target drawn in [0, product_bound].  The target sum is capped at 12 so
    downstream prefix products keep usable relative precision (each unit of
    Gromov product costs a factor e^2 of cancellation).  Returns
    (steps, gaps, targets); feed the steps straight to the chain checks.
    """
    gaps = rng.uniform(gap_bound, gap_bound + gap_spread, size=n_points - 1)
    targets = rng.uniform(0.0, product_bound, size=max(n_points - 2, 0))
    total = float(np.sum(targets))
    if total > 12.0:
        targets *= 12.0 / total
    steps = []
    turn = rotation(dim, 1, 2, rng.uniform(0.0, 2.0 * np.pi))
    for i, ell in enumerate(gaps):
        steps.append(turn @ boost(dim, 1, float(ell)))
        if i + 1 < gaps.shape[0]:
            d1, d2 = float(ell), float(gaps[i + 1])
            skip = d1 + d2 - 2.0 * float(targets[i])
            cos_phi = (np.cosh(d1) * np.cosh(d2) - np.cosh(skip)) / (
                np.sinh(d1) * np.sinh(d2)
            )
            phi = np.arccos(np.clip(cos_phi, -1.0, 1.0))
            turn = rotation(dim, 1, 2, np.pi - phi)
            if dim >= 3:
                turn = rotation(dim, 2, 3, rng.uniform(0.0, 2.0 * np.pi)) @ turn
    return steps, gaps, targets


def pairwise_distance(a, b):
    """Reference: the (m, n) distance matrix between two stacks of
    hyperboloid points, one split_distance call over every pair.

    The brute force that kleinian.hyperbolic.nearest_in_split screens:
    its values and first-row argmins must equal the row minima here.
    """
    ra, ua = radial_split(np.asarray(a, dtype=float))
    rb, ub = radial_split(np.asarray(b, dtype=float))
    return split_distance(ra[:, None], ua[:, None, :], rb[None, :], ub[None, :, :])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_projection(x, y, points):
    """Reference: feet and distances of points projected to the segment
    [x, y], as kleinian.chains.nearest_point_on_geodesic computed them
    before the foot had a closed form.

    Batched golden-section search over the arclength parameter; the
    distance along a geodesic is convex, so the bracket converges at the
    golden rate, here to within 1e-9.  Returns (t, dist) arrays (scalars
    for a single point).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    total = float(distance(x, y))
    if total == 0.0:
        raise ValueError("degenerate segment")
    rp, up = radial_split(pts)

    def eval_at(ts):
        g = geodesic_point(x, y, ts)
        rg, ug = radial_split(g)
        return split_distance(rg, ug, rp, up)

    m = pts.shape[0]
    a = np.zeros(m)
    b = np.full(m, total)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = eval_at(c)
    fd = eval_at(d)
    n_iter = max(1, int(math.ceil(math.log(max(total / 1e-9, 2.0)) / math.log(1.0 / _INVPHI))))
    for _ in range(n_iter):
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        c_next = np.where(take_left, b - _INVPHI * (b - a), d)
        d_next = np.where(take_left, c, a + _INVPHI * (b - a))
        f_new = eval_at(np.where(take_left, c_next, d_next))
        fc, fd = (
            np.where(take_left, f_new, fd),
            np.where(take_left, fc, f_new),
        )
        c, d = c_next, d_next
    t = 0.5 * (a + b)
    dist = eval_at(t)
    # clamp to the endpoints if they do better (feet outside the bracket)
    d0 = split_distance(*radial_split(x), rp, up)
    d1 = split_distance(*radial_split(y), rp, up)
    best = np.minimum(dist, np.minimum(d0, d1))
    t = np.where(d0 <= best, 0.0, np.where(d1 <= best, total, t))
    if single:
        return float(t[0]), float(best[0])
    return t, best


def certify_far_loop(bins, nbins, bin_width, rs, phis, threshold):
    """Reference: kleinian.semigroup._certify_far as it was before it
    compacted the samples still in play.  Every bin runs its cosh over all
    samples, certified or not, and then its arccos and window search over
    those still certified and radially close enough."""
    ok = np.ones(rs.shape[0], dtype=bool)
    cosh_t = np.cosh(threshold)
    for b in range(nbins):
        ext = bins[b]
        if ext.size == 0:
            continue
        lo_edge = b * bin_width
        hi_edge = lo_edge + bin_width
        dr_min = np.maximum(0.0, np.maximum(lo_edge - rs, rs - hi_edge))
        num = cosh_t - np.cosh(dr_min)
        active = ok & (num > 0.0)
        if not active.any():
            continue
        r_lo = np.maximum(np.maximum(lo_edge, rs[active] - threshold), 1e-9)
        c = 1.0 - num[active] / (np.sinh(r_lo) * np.sinh(rs[active]))
        theta = np.where(c <= -1.0, np.pi, np.arccos(np.clip(c, -1.0, 1.0)))
        lo = np.searchsorted(ext, phis[active] - theta, side="left")
        hi = np.searchsorted(ext, phis[active] + theta, side="right")
        idx = np.flatnonzero(active)
        ok[idx[(hi - lo) > 0]] = False
    return ok


def myrberg_every_member(xi, g, K_nbhd, ref_ball, t_max):
    """Reference: kleinian.measure.myrberg_witness as it was before it
    tested the x0 endpoints first, with both endpoints of every member's
    translate h [x0, g x0] tested against the window [x0, xi) cut at
    ``t_max``.  Returns the witness word, or None."""
    gx0 = g.orbit_point().coords

    def in_tube(points):
        h, t = ray_coordinates(*radial_split(points), xi.direction)
        return ray_distance(h, t, np.clip(t, 0.0, t_max)) <= K_nbhd + 1e-9

    members = ref_ball.members
    mats = ref_ball.mats[members]
    inside = members[in_tube(mats[:, :, 0]) & in_tube(mats @ gx0)]
    if inside.size == 0:
        return None
    words = ref_ball.words(inside)
    first = np.lexsort((*words.T[::-1], ref_ball.word_length[inside]))[0]
    return ref_ball.word(int(inside[first]))
