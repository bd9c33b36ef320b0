"""Chain certificates: controlled quasi-geodesics through point sequences.

A (C, D)-chain is a finite point sequence z_0, ..., z_N whose interior
Gromov products (z_{i-1} | z_{i+1})_{z_i} are at most C while consecutive
gaps d(z_i, z_{i+1}) are at least D.  Once the gaps dominate the products
(D >= 2C + 15 is comfortably enough), a thin-triangles argument forces the
whole chain to shadow the geodesic between its endpoints:

* endpoint products (z_0 | z_N)_{z_i} stay below C + 2 log 2,
* every z_i lies within C + 8 log 2 of the geodesic [z_0, z_N],
* nearest-point feet advance monotonically along the geodesic.

:func:`check_chain` verifies the definition and reports the first
violation; :func:`chain_shadowing` asserts the shadowing conclusions for a
certified chain and raises a counterexample error with the full
measurement if they fail; :func:`fellow_travel_check` compares a geodesic
against another one with nearby endpoints.

Chains are given either as an (n, d+1) array of hyperboloid points or as
a sequence of :class:`~kleinian.hyperbolic.Isometry` steps, with z_0 the
basepoint and z_i the image of z_{i-1} under step i.  Raw coordinates can
only resolve transverse angles down to machine precision, so the points
form is trustworthy while every pairwise distance keeps one point within
radius ~27 of the basepoint or a clearly resolved angle between the two;
long marching chains exceed that quickly.  The step form has no such
limit: gaps, skips and recentered offsets all come from short matrix
products whose relative error stays near machine precision, so it is the
form to use for chains that wander far from the basepoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    TOL_POINT,
    Isometry,
    basepoint,
    distance,
    geodesic_point,
    radial_split,
    split_distance,
    stable_arcosh,
)

__all__ = [
    "PRODUCT_SLACK",
    "OFFSET_SLACK",
    "H_GEO",
    "ChainParams",
    "ChainCertificate",
    "ChainRegimeError",
    "ShadowingViolation",
    "ShadowingReport",
    "FellowTravelReport",
    "chain_points",
    "check_chain",
    "chain_shadowing",
    "fellow_travel_check",
    "nearest_point_on_geodesic",
]

# sharp slacks in the shadowing conclusions for well-separated chains;
# the asserted public bounds round them up to C + 1.5 and C + 6
PRODUCT_SLACK = 2.0 * math.log(2.0)
OFFSET_SLACK = 8.0 * math.log(2.0)

# geodesic sampling resolution; distances along geodesics are 1-Lipschitz,
# so sampled suprema are within H_GEO/2 of the true ones
H_GEO = 0.05


class ChainRegimeError(ValueError):
    """The chain or its constants fail a precondition of the conclusion."""


class ShadowingViolation(RuntimeError):
    """A certified, well-separated chain failed a shadowing bound.

    Carries the full measurement in ``report``; callers treat this as a
    hard failure and persist the report rather than passing silently.
    """

    def __init__(self, message: str, report: "ShadowingReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ChainParams:
    """Chain constants: products at most ``product_bound``, gaps at least
    ``gap_bound``."""

    product_bound: float
    gap_bound: float

    def __post_init__(self):
        if self.product_bound < 0.0:
            raise ValueError("product bound must be nonnegative")
        if self.gap_bound <= 0.0:
            raise ValueError("gap bound must be positive")

    @property
    def shadowing_regime(self) -> bool:
        """Whether the gap bound dominates enough for the shadowing lemma."""
        return self.gap_bound >= 2.0 * self.product_bound + 15.0


@dataclass
class ChainCertificate:
    """Outcome of :func:`check_chain`, carrying the chain it certifies.

    ``chain`` keeps the representation handed in (points array or step
    isometries) so downstream consumers can measure further quantities.
    """

    ok: bool
    params: ChainParams
    chain: object
    products: np.ndarray
    gaps: np.ndarray
    first_violation: dict | None = None


def _step_matrices(chain) -> list | None:
    """Step matrices if ``chain`` is a sequence of isometries, else None."""
    if isinstance(chain, np.ndarray):
        return None
    seq = list(chain)
    if seq and all(isinstance(s, Isometry) for s in seq):
        return [s.matrix for s in seq]
    return None


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("a chain needs at least two points, shape (n, d+1)")
    return pts


def chain_points(steps) -> np.ndarray:
    """Points visited by a step chain, starting at the basepoint.

    Coordinates lose the transverse geometry once the walk leaves radius
    ~27, so use this for plotting and desk-scale work only; the chain
    checks consume the steps themselves.
    """
    mats = _step_matrices(steps)
    if mats is None:
        raise ValueError("expected a sequence of isometries")
    dim = mats[0].shape[0] - 1
    pts = [basepoint(dim)]
    acc = np.eye(dim + 1)
    for m in mats:
        acc = acc @ m
        pts.append(acc[:, 0].copy())
    return np.array(pts)


def _gaps_products(chain):
    """(gaps, products) for either chain representation."""
    mats = _step_matrices(chain)
    if mats is not None:
        gaps = np.array([stable_arcosh(m[0, 0]) for m in mats])
        if len(mats) > 1:
            skips = np.array(
                [
                    stable_arcosh((mats[i] @ mats[i + 1])[0, 0])
                    for i in range(len(mats) - 1)
                ]
            )
            products = 0.5 * (gaps[:-1] + gaps[1:] - skips)
        else:
            products = np.empty(0)
        return gaps, products
    pts = _as_points(chain)
    r, u = radial_split(pts)
    gaps = split_distance(r[:-1], u[:-1], r[1:], u[1:])
    if pts.shape[0] > 2:
        skips = split_distance(r[:-2], u[:-2], r[2:], u[2:])
        # far point pairs can overflow to inf; inf - inf marks the product
        # as indeterminate and the check below must flag it, not skip it
        with np.errstate(invalid="ignore"):
            products = 0.5 * (gaps[:-1] + gaps[1:] - skips)
    else:
        products = np.empty(0)
    return gaps, products


def check_chain(chain, params: ChainParams) -> ChainCertificate:
    """Verify the chain conditions pointwise.

    ``first_violation`` identifies the earliest failing index, scanning
    gap i before the product at vertex i+1, in chain order.
    """
    gaps, products = _gaps_products(chain)
    first = None
    for i in range(gaps.shape[0]):
        # a NaN gap or product compares False against any bound, so the
        # indeterminate case is flagged explicitly instead of passing
        if not np.isfinite(gaps[i]) and not np.isposinf(gaps[i]):
            first = {
                "kind": "indeterminate-gap",
                "index": i,
                "value": float(gaps[i]),
                "bound": params.gap_bound,
            }
            break
        if gaps[i] < params.gap_bound:
            first = {
                "kind": "gap",
                "index": i,
                "value": float(gaps[i]),
                "bound": params.gap_bound,
            }
            break
        if i < products.shape[0] and np.isnan(products[i]):
            first = {
                "kind": "indeterminate-product",
                "index": i + 1,
                "value": float(products[i]),
                "bound": params.product_bound,
            }
            break
        if i < products.shape[0] and products[i] > params.product_bound:
            first = {
                "kind": "gromov",
                "index": i + 1,
                "value": float(products[i]),
                "bound": params.product_bound,
            }
            break
    return ChainCertificate(
        ok=first is None,
        params=params,
        chain=chain,
        products=products,
        gaps=gaps,
        first_violation=first,
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def nearest_point_on_geodesic(x, y, points):
    """Feet and distances of points projected to the segment [x, y].

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


@dataclass
class ShadowingReport:
    """Measured shadowing data for the interior vertices of a chain.

    ``nearest_points`` holds the projections y_i for point chains; step
    chains report feet (arclengths along [z_0, z_N]) only, since far
    coordinates would not be faithful.  ``ok`` is judged against the
    rounded public bounds C + 1.5 and C + 6; ``sharp_ok`` against the
    sharp ones C + 2 log 2 and C + 8 log 2.
    """

    ok: bool
    endpoint_products: np.ndarray
    offsets: np.ndarray
    feet: np.ndarray
    nearest_points: np.ndarray | None
    product_bound: float
    offset_bound: float
    sharp_product_bound: float
    sharp_offset_bound: float
    sharp_ok: bool
    feet_monotone: bool


def _prefix_suffix(mats):
    """Accumulated step products: prefix[i] = S_1..S_i, suffix[i] = S_{i+1}..S_N."""
    dim = mats[0].shape[0] - 1
    prefix = [np.eye(dim + 1)]
    for m in mats:
        prefix.append(prefix[-1] @ m)
    suffix = [np.eye(dim + 1)]
    for m in reversed(mats):
        suffix.append(m @ suffix[-1])
    suffix.reverse()
    return prefix, suffix


def _frame_endpoints(prefix_i, suffix_i):
    """Images of z_0 and z_N in the frame of vertex i.

    The pullback of the basepoint under an isometry reads directly off the
    top row, so no cancellation-prone matrix inversion is needed.
    """
    x_back = np.concatenate(([prefix_i[0, 0]], -prefix_i[0, 1:]))
    y_fwd = suffix_i[:, 0].copy()
    return x_back, y_fwd


def _shadowing_data(chain):
    """(endpoint products, offsets, feet, nearest points) for interior vertices."""
    mats = _step_matrices(chain)
    if mats is not None:
        n = len(mats)
        dim = mats[0].shape[0] - 1
        base = basepoint(dim)
        prefix, suffix = _prefix_suffix(mats)
        total = stable_arcosh(prefix[-1][0, 0])
        if not np.isfinite(total):
            raise ValueError("chain endpoints exceed the float range, ~700")
        if n < 2:
            empty = np.empty(0)
            return empty, empty, empty, None
        d_start = np.empty(n - 1)
        d_end = np.empty(n - 1)
        feet = np.empty(n - 1)
        offsets = np.empty(n - 1)
        for i in range(1, n):
            d_start[i - 1] = stable_arcosh(prefix[i][0, 0])
            d_end[i - 1] = stable_arcosh(suffix[i][0, 0])
            x_back, y_fwd = _frame_endpoints(prefix[i], suffix[i])
            feet[i - 1], offsets[i - 1] = nearest_point_on_geodesic(
                x_back, y_fwd, base
            )
        products = 0.5 * (d_start + d_end - total)
        return products, offsets, feet, None
    pts = _as_points(chain)
    if pts.shape[0] == 2:
        empty = np.empty(0)
        return empty, empty, empty, np.empty((0, pts.shape[1]))
    r, u = radial_split(pts)
    d_start = split_distance(r[0], u[0], r[1:-1], u[1:-1])
    d_end = split_distance(r[-1], u[-1], r[1:-1], u[1:-1])
    total = split_distance(r[0], u[0], r[-1], u[-1])
    products = 0.5 * (d_start + d_end - total)
    feet, offsets = nearest_point_on_geodesic(pts[0], pts[-1], pts[1:-1])
    feet = np.atleast_1d(feet)
    nearest = geodesic_point(pts[0], pts[-1], feet)
    return products, np.atleast_1d(offsets), feet, nearest


def chain_shadowing(cert: ChainCertificate, strict: bool = True) -> ShadowingReport:
    """Assert the shadowing conclusions for a certified chain.

    Requires ``cert.ok`` and the well-separated regime D >= 2C + 15; both
    are preconditions of the conclusion, so violations raise
    :class:`ChainRegimeError`.  The conclusions, measured after recentring
    each interior vertex for step chains:

    * endpoint products (z_0 | z_N)_{z_i} < C + 1.5,
    * offsets d(z_i, [z_0, z_N]) <= C + 6,
    * nearest-point feet advance monotonically,

    each with ``TOL_POINT`` slack.  A measured violation raises
    :class:`ShadowingViolation` carrying the report (pass strict=False to
    get the failing report back instead); there is no silent failure mode.
    """
    if not isinstance(cert, ChainCertificate):
        raise TypeError("chain_shadowing consumes the result of check_chain")
    params = cert.params
    if not cert.ok:
        raise ChainRegimeError(
            f"chain failed its own certificate: {cert.first_violation}"
        )
    if not params.shadowing_regime:
        raise ChainRegimeError(
            "shadowing needs gap_bound >= 2 * product_bound + 15; got "
            f"C={params.product_bound}, D={params.gap_bound}"
        )
    products, offsets, feet, nearest = _shadowing_data(cert.chain)
    c = params.product_bound
    product_bound = c + 1.5
    offset_bound = c + 6.0
    sharp_product_bound = c + PRODUCT_SLACK
    sharp_offset_bound = c + OFFSET_SLACK
    if products.shape[0] == 0:
        return ShadowingReport(
            ok=True,
            endpoint_products=products,
            offsets=offsets,
            feet=feet,
            nearest_points=nearest,
            product_bound=product_bound,
            offset_bound=offset_bound,
            sharp_product_bound=sharp_product_bound,
            sharp_offset_bound=sharp_offset_bound,
            sharp_ok=True,
            feet_monotone=True,
        )
    monotone = bool(np.all(np.diff(feet) >= -TOL_POINT))
    max_product = float(np.max(products))
    max_offset = float(np.max(offsets))
    ok = (
        max_product < product_bound + TOL_POINT
        and max_offset <= offset_bound + TOL_POINT
        and monotone
    )
    sharp_ok = (
        max_product <= sharp_product_bound + TOL_POINT
        and max_offset <= sharp_offset_bound + TOL_POINT
        and monotone
    )
    report = ShadowingReport(
        ok=ok,
        endpoint_products=products,
        offsets=offsets,
        feet=feet,
        nearest_points=nearest,
        product_bound=product_bound,
        offset_bound=offset_bound,
        sharp_product_bound=sharp_product_bound,
        sharp_offset_bound=sharp_offset_bound,
        sharp_ok=sharp_ok,
        feet_monotone=monotone,
    )
    if strict and not ok:
        raise ShadowingViolation(
            "shadowing bound failed: max product "
            f"{max_product:.6g} (bound {product_bound:.6g}), max offset "
            f"{max_offset:.6g} (bound {offset_bound:.6g}), "
            f"feet monotone: {monotone}",
            report,
        )
    return report


@dataclass
class FellowTravelReport:
    ok: bool
    max_offset: float
    deep_point_bound: float | None
    radius: float


def fellow_travel_check(x, y, x2, y2, radius: float) -> FellowTravelReport:
    """Check that [x, y] stays within ``radius`` of [x2, y2].

    Preconditions d(x, x2) < radius and d(y, y2) < radius (the endpoints
    fellow-travel).  Samples [x, y] at spacing ``H_GEO`` and projects each
    sample onto [x2, y2] exactly; convexity of the distance makes the
    sampled supremum within H_GEO/2 of the true one.  ``deep_point_bound``
    is the largest offset among samples at least ``radius`` away from both
    endpoints of [x, y] (None when there are no such samples); deep
    offsets contract well below ``radius`` but the amount depends on the
    ambient constants, so it is reported, not asserted.

    Works from raw coordinates: keep the geodesics within the coordinate
    resolution envelope (see the module docstring).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if not float(distance(x, x2)) < radius:
        raise ChainRegimeError("d(x, x2) must be below the fellow-travel radius")
    if not float(distance(y, y2)) < radius:
        raise ChainRegimeError("d(y, y2) must be below the fellow-travel radius")
    total = float(distance(x, y))
    if total == 0.0:
        ts = np.array([0.0])
        samples = x[None]
    else:
        k = max(2, int(math.ceil(total / H_GEO)) + 1)
        ts = np.linspace(0.0, total, k)
        samples = geodesic_point(x, y, ts)
    if float(distance(x2, y2)) == 0.0:
        r2, u2 = radial_split(x2)
        rs, us = radial_split(samples)
        dists = np.atleast_1d(split_distance(rs, us, r2, u2))
    else:
        _, dists = nearest_point_on_geodesic(x2, y2, samples)
        dists = np.atleast_1d(dists)
    ok = bool(np.max(dists) <= radius + TOL_POINT)
    deep = (ts >= radius) & (ts <= total - radius)
    deep_bound = float(np.max(dists[deep])) if np.any(deep) else None
    return FellowTravelReport(
        ok=ok,
        max_offset=float(np.max(dists)),
        deep_point_bound=deep_bound,
        radius=radius,
    )
