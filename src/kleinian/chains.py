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

A chain is a sequence of :class:`~kleinian.hyperbolic.Isometry` steps,
with z_0 the basepoint and z_i the image of z_{i-1} under step i.  Gaps
and the distances d(z_0, z_i), d(z_i, z_N) and d(z_0, z_N) all come
from top-left entries of step products, whose relative error stays near
machine precision; raw coordinates would stop resolving transverse
angles near radius 27.  Each skip d(z_{i-1}, z_{i+1}) is a
:func:`~kleinian.hyperbolic.split_distance` of the two gaps at z_i and
their directions, read from row 0 of step i and column 0 of step i+1,
so it does not cancel when a step nearly backtracks.  Each vertex's
foot and offset on [z_0, z_N] follow from those three distances in
closed form (:func:`~kleinian.hyperbolic.segment_foot`).  Chains stay
measurable up to d(z_0, z_N) near 710, where cosh overflows and
:func:`chain_shadowing` refuses the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    TOL_POINT,
    Isometry,
    distance,
    geodesic_point,
    radial_split,
    segment_foot,
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

    ``chain`` keeps the steps handed in so downstream consumers can
    measure further quantities.
    """

    ok: bool
    params: ChainParams
    chain: list
    products: np.ndarray
    gaps: np.ndarray
    first_violation: dict | None = None


def _step_matrices(chain) -> np.ndarray:
    """The step matrices of a chain, stacked."""
    if isinstance(chain, np.ndarray) or not all(isinstance(s, Isometry) for s in chain):
        raise TypeError("a chain is a sequence of Isometry steps")
    if not chain:
        raise ValueError("a chain needs at least one step")
    return np.stack([s.matrix for s in chain])


def _skips(stack, gaps) -> np.ndarray:
    """d(z_{i-1}, z_{i+1}) for consecutive steps, as a split distance.

    Seen from z_i, z_{i-1} sits at distance gap_i in the direction of
    M_i^-1 x0 (row 0 of M_i, spatial part negated) and z_{i+1} at
    gap_{i+1} in the direction of M_{i+1} x0 (column 0 of M_{i+1}).
    :func:`~kleinian.hyperbolic.split_distance` sums nonnegative terms,
    so a step that nearly backtracks over the previous one does not
    cancel, and it stays finite past cosh's overflow.
    """
    _, back = radial_split(stack[:-1, 0, :])
    _, ahead = radial_split(stack[1:, :, 0])
    return split_distance(gaps[:-1], -back, gaps[1:], ahead)


def _gaps_products(chain):
    """(gaps, interior products) of a step chain."""
    stack = _step_matrices(chain)
    gaps = stable_arcosh(stack[:, 0, 0])
    # gaps past cosh's range are inf, and inf - inf marks the product as
    # indeterminate for check_chain to flag
    with np.errstate(invalid="ignore"):
        return gaps, 0.5 * (gaps[:-1] + gaps[1:] - _skips(stack, gaps))


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


def nearest_point_on_geodesic(x, y, points):
    """Feet and distances of points projected to the segment [x, y].

    The foot comes in closed form from the three side lengths
    (:func:`~kleinian.hyperbolic.segment_foot`).  The distance is then
    measured to the geodesic point at that foot, not rebuilt from the
    sides, which would cost an absolute error near sqrt(eps d(x, y)) for
    points on the segment.  Returns (t, dist) arrays (scalars for a single
    point).
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
    d_x = split_distance(*radial_split(x), rp, up)
    d_y = split_distance(*radial_split(y), rp, up)
    t = np.clip(segment_foot(d_x, d_y, total)[0], 0.0, total)
    dist = split_distance(*radial_split(geodesic_point(x, y, t)), rp, up)
    if single:
        return float(t[0]), float(dist[0])
    return t, dist


@dataclass
class ShadowingReport:
    """Measured shadowing data for the interior vertices of a chain.

    ``feet`` are arclengths along [z_0, z_N], not coordinates, which far
    from the basepoint would not be faithful.  ``ok`` is judged against
    the rounded public bounds C + 1.5 and C + 6; ``sharp_ok`` against the
    sharp ones C + 2 log 2 and C + 8 log 2.
    """

    ok: bool
    endpoint_products: np.ndarray
    offsets: np.ndarray
    feet: np.ndarray
    product_bound: float
    offset_bound: float
    sharp_product_bound: float
    sharp_offset_bound: float
    sharp_ok: bool
    feet_monotone: bool


def _endpoint_distances(mats):
    """d(z_0, z_i) and d(z_i, z_N) for i = 0, ..., N.

    Each is arcosh of a top-left entry: of S_1...S_i, grown as row 0, and
    of S_{i+1}...S_N, grown as column 0.  Entries overflow once a distance
    passes about 710; the caller refuses a non-finite d(z_0, z_N).
    """
    row = col = np.eye(mats[0].shape[0])[0]
    start, end = [1.0], [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for m, back in zip(mats, reversed(mats)):
            row = row @ m
            col = back @ col
            start.append(row[0])
            end.append(col[0])
    return stable_arcosh(np.array(start)), stable_arcosh(np.array(end[::-1]))


def _shadowing_data(chain):
    """(endpoint products, offsets, feet) for interior vertices."""
    start, end = _endpoint_distances(_step_matrices(chain))
    total = start[-1]
    if not np.isfinite(total):
        raise ChainRegimeError(
            "chain endpoints too far apart: cosh d(z_0, z_N) overflows, "
            "so stable_arcosh gives inf (distances past about 710)"
        )
    d_start, d_end = start[1:-1], end[1:-1]
    feet, offsets = segment_foot(d_start, d_end, total)
    return 0.5 * (d_start + d_end - total), offsets, feet


def chain_shadowing(cert: ChainCertificate) -> ShadowingReport:
    """Assert the shadowing conclusions for a certified chain.

    Requires ``cert.ok`` and the well-separated regime D >= 2C + 15; both
    are preconditions of the conclusion, so violations raise
    :class:`ChainRegimeError`, as does a chain whose d(z_0, z_N) is past
    the float range of cosh (about 710).  The chain is measured from each
    vertex's distances to z_0 and z_N and their sum's excess over
    d(z_0, z_N), with feet and offsets in closed form.  The conclusions:

    * endpoint products (z_0 | z_N)_{z_i} < C + 1.5,
    * offsets d(z_i, [z_0, z_N]) <= C + 6,
    * nearest-point feet advance monotonically,

    each with ``TOL_POINT`` slack.  A measured violation raises
    :class:`ShadowingViolation`, whose ``report`` is the failing report;
    there is no silent failure mode.
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
    products, offsets, feet = _shadowing_data(cert.chain)
    c = params.product_bound
    product_bound = c + 1.5
    offset_bound = c + 6.0
    sharp_product_bound = c + PRODUCT_SLACK
    sharp_offset_bound = c + OFFSET_SLACK
    monotone = bool(np.all(np.diff(feet) >= -TOL_POINT))
    # a one-step chain has no interior vertex and passes every bound
    max_product = float(np.max(products, initial=-np.inf))
    max_offset = float(np.max(offsets, initial=0.0))
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
        product_bound=product_bound,
        offset_bound=offset_bound,
        sharp_product_bound=sharp_product_bound,
        sharp_offset_bound=sharp_offset_bound,
        sharp_ok=sharp_ok,
        feet_monotone=monotone,
    )
    if not ok:
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
    fellow-travel).  The distance to a geodesic segment is convex along
    a geodesic, so its supremum over [x, y] is exact at the larger of
    the two endpoint projections onto [x2, y2], and ``deep_point_bound``,
    the supremum over the points at least ``radius`` from both ends of
    [x, y], is the larger projection at arclengths ``radius`` and
    d(x, y) - ``radius`` (None when that window is empty).  Deep offsets
    contract well below ``radius`` but the amount depends on the ambient
    constants, so it is reported, not asserted.

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
    probes = [x, y]
    if 2.0 * radius <= total:
        probes.extend(geodesic_point(x, y, np.array([radius, total - radius])))
    probes = np.array(probes)
    if float(distance(x2, y2)) == 0.0:
        dists = distance(probes, x2)
    else:
        _, dists = nearest_point_on_geodesic(x2, y2, probes)
    max_offset = float(np.max(dists[:2]))
    return FellowTravelReport(
        ok=max_offset <= radius + TOL_POINT,
        max_offset=max_offset,
        deep_point_bound=float(np.max(dists[2:])) if dists.shape[0] > 2 else None,
        radius=radius,
    )
