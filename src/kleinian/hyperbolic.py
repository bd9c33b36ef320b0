"""Hyperboloid-model primitives.

Points of hyperbolic d-space are modelled on the upper sheet of the unit
hyperboloid in Minkowski space: vectors ``x`` in R^{d+1} with

    <x, x> = -x_0^2 + x_1^2 + ... + x_d^2 = -1,     x_0 >= 1.

Isometries are the (d+1)x(d+1) matrices preserving the bilinear form and
the sheet.  Everything here is plain numpy; the functions accept either
the wrapper classes below or raw coordinate arrays, and most kernels
broadcast over leading axes so callers can batch.  Distances run on
(radius, direction) pairs, and distances to a basepoint ray on the
closed-form offset and foot of :func:`ray_coordinates`; feet on a
segment come in closed form from side lengths (:func:`segment_foot`).

Nearest points of a set (:func:`nearest_in_split`, on the radial
splits of the query points and of the set) go through a screen
before the exact kernel: one GEMM per block gives cosh d(p, q) as the
Minkowski pairing p_0 q_0 - p . q, and a member is dropped only when its
pairing exceeds the row minimum by more than the roundoff of both
pairings, at most 32 gamma_{d+1} p_0 max q_0, plus a relative 1e-9.
Such a member is farther than the row's minimiser in exact arithmetic,
so it cannot be nearest; the kept pairs, about one per point on orbit
balls, get the exact split distance.  Orbit queries hand it only the
members in a tube round the query line: with h the offset from the line
(:func:`ray_offset`), d(p, q) >= h_q - h_p, so a member whose offset
passes h_p plus a known distance from p, by more than 1e-6 and the
offsets' rounding, cannot be nearest (see
:func:`~kleinian.orbit.orbit_distance`).  For scattered points the tube
is every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Shared numeric constants: the sheet tolerance of points and the drift
# tolerance of isometries.
TOL_POINT = 1e-9
TOL_ISO = 1e-8
# arcosh of the largest float: cosh overflows past this radius
COSH_LIMIT = math.acosh(np.finfo(float).max)

__all__ = [
    "TOL_POINT",
    "TOL_ISO",
    "GeometryError",
    "OffSheetError",
    "DegenerateDirectionError",
    "IsometryDriftError",
    "Point",
    "BoundaryPoint",
    "Isometry",
    "minkowski_inner",
    "stable_arcosh",
    "radial_split",
    "split_distance",
    "distance",
    "gromov_product",
    "geodesic_point",
    "ray_points",
    "ray_coordinates",
    "ray_offset",
    "segment_foot",
    "ray_distance",
    "basepoint",
    "form_matrix",
    "validate_isometry",
    "form_residual",
    "reorthogonalize",
    "boost",
    "identity_isometry",
    "point_on_sheet",
]


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class OffSheetError(GeometryError):
    """A vector claimed to be a hyperbolic point is not on the upper sheet."""


class DegenerateDirectionError(GeometryError):
    """A direction was requested where none is defined (coincident points)."""


class IsometryDriftError(GeometryError):
    """A matrix drifted too far from the isometry group to trust."""


def form_matrix(dim: int) -> np.ndarray:
    """Return the diagonal Minkowski form diag(-1, 1, ..., 1) for H^dim."""
    j = np.eye(dim + 1)
    j[0, 0] = -1.0
    return j


def basepoint(dim: int) -> np.ndarray:
    """Coordinates of the reference point (1, 0, ..., 0)."""
    x = np.zeros(dim + 1)
    x[0] = 1.0
    return x


def minkowski_inner(x, y) -> np.ndarray | float:
    """Minkowski pairing -x_0 y_0 + sum_i x_i y_i, broadcasting over leading axes."""
    x = np.asarray(_coords(x), dtype=float)
    y = np.asarray(_coords(y), dtype=float)
    spatial = np.sum(x[..., 1:] * y[..., 1:], axis=-1)
    return spatial - x[..., 0] * y[..., 0]


def _arcosh_1p(u):
    """arcosh(1 + u) for u >= 0, finite for every finite u.

    log1p(u + sqrt(u (u + 2))) keeps full precision near u = 0, but
    u (u + 2) overflows once u passes about 1.3e154; from u = 1e150 on the
    asymptote log 2 + log1p(u), off by less than 1 / u^2, takes over.
    """
    far = u > 1e150
    # the cheapest tests: a numpy scalar directly, an array by count_nonzero
    if np.count_nonzero(far) if far.ndim else far:
        near = _arcosh_1p(np.where(far, 0.0, u))
        return np.where(far, np.log(2.0) + np.log1p(u), near)[()]
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


def stable_arcosh(w):
    """arcosh clamped below at 1, accurate near 1 and finite up to the
    largest float.

    Uses log1p(u + sqrt(u (u + 2))) with u = w - 1 so that arguments within
    roundoff of 1 give ~sqrt(2u) instead of catastrophic cancellation.
    """
    w = np.asarray(w, dtype=float)
    return _arcosh_1p(np.maximum(w - 1.0, 0.0))


def _norm(x):
    """Euclidean norm over the last axis, summed left to right: the order
    np.linalg.norm takes on axes shorter than 8, at a fraction of its cost
    on many short rows."""
    return np.sqrt(sum(x[..., k] * x[..., k] for k in range(x.shape[-1])))


def radial_split(points):
    """Decompose hyperboloid points into (radius, unit direction).

    The direct pairing -x0 y0 + x.y cancels catastrophically for far points
    (absolute error ~ eps * e^(2r)), so all distance work routes through this
    split: the radius comes from the top coordinate alone and the direction
    from the normalized spatial part, each accurate to a few ulps.  Points at
    the basepoint get an arbitrary fixed direction; the radius zeroes out its
    contribution downstream.
    """
    p = np.asarray(points, dtype=float)
    r = stable_arcosh(p[..., 0])
    spatial = p[..., 1:]
    with np.errstate(over="ignore"):
        n = _norm(spatial)[..., None]
    # squares overflow past radius about 355: only those rows are rescaled
    # by their largest entry, behind one cheap test as in _arcosh_1p
    far = np.isinf(n[..., 0])
    if np.count_nonzero(far):
        big = spatial[far]
        top = np.max(np.abs(big), axis=-1, keepdims=True)
        n[far] = top * _norm(big / top)[..., None]
    safe = np.where(n[..., 0] > 0.0, n[..., 0], 1.0)
    # one column at a time: a broadcast of (n, k) by (n, 1) runs inner
    # loops only k entries long
    u = np.empty(spatial.shape)
    for c in range(spatial.shape[-1]):
        np.divide(spatial[..., c], safe, out=u[..., c])
    if np.any(n == 0.0):
        u[..., 0] = np.where(n[..., 0] == 0.0, 1.0, u[..., 0])
    return r, u


def _log_sinh(x):
    """log sinh x for x >= 0, finite past sinh's overflow near 710."""
    return x - np.log(2.0) + np.log1p(-np.exp(-2.0 * x))


def _far_split_distance(r1, r2, half, sh, gap, u):
    """split_distance where u = 2 sh^2 + sinh r1 sinh r2 gap / 2 is not
    finite: the sinh product overflowed, or met a zero factor.

    Both terms go to the log domain.  A representable true u is rebuilt
    for the usual arcosh(1 + u); a larger one gives log 2 + log u, off by
    less than 1 / u.  Entries of ``u`` that are finite keep their value.
    """
    with np.errstate(over="ignore", divide="ignore"):
        log_t2 = _log_sinh(r1) + _log_sinh(r2) + np.log(0.5 * gap)
        u = np.where(np.isfinite(u), u, 2.0 * sh * sh + np.exp(log_t2))
        log_u = np.logaddexp(np.log(2.0) + 2.0 * _log_sinh(np.abs(half)), log_t2)
    finite = np.isfinite(u)
    near = _arcosh_1p(np.where(finite, u, 0.0))
    return np.where(finite, near, np.log(2.0) + log_u)[()]


def split_distance(r1, u1, r2, u2):
    """Distance from (radius, direction) pairs, stable at all radii.

    Uses cosh d = cosh(r1 - r2) + sinh r1 sinh r2 |u1 - u2|^2 / 2, a sum of
    nonnegative terms, so the relative error stays near machine precision
    even when the direct inner product would cancel to garbage.  Once
    r1 + r2 passes about 710 the sinh product overflows; only then does
    the log-domain :func:`_far_split_distance` take over, so the result
    stays finite for all finite radii.  |u1 - u2|^2 is summed over the
    components left to right, the order np.sum takes on axes this short.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    gap = sum((u1[..., k] - u2[..., k]) ** 2 for k in range(u1.shape[-1]))
    half = 0.5 * (r1 - r2)
    with np.errstate(over="ignore", invalid="ignore"):
        sh = np.sinh(half)
        u = 2.0 * sh * sh + 0.5 * np.sinh(r1) * np.sinh(r2) * gap
    # one cheap test of all entries, as in _arcosh_1p
    finite = np.isfinite(u)
    if np.count_nonzero(finite) < finite.size:
        return _far_split_distance(r1, r2, half, sh, gap, u)
    return _arcosh_1p(u)


def distance(x, y):
    """Hyperbolic distance between points (arrays broadcast over leading axes)."""
    r1, u1 = radial_split(_coords(x))
    r2, u2 = radial_split(_coords(y))
    return split_distance(r1, u1, r2, u2)


def gromov_product(x, y, base):
    """(x | y) at ``base``: half of d(x,base) + d(base,y) - d(x,y)."""
    return 0.5 * (distance(x, base) + distance(base, y) - distance(x, y))


def _coords(p):
    if isinstance(p, Point):
        return p.coords
    return p


def point_on_sheet(coords) -> np.ndarray:
    """Validate that ``coords`` lies on the upper sheet within ``TOL_POINT``;
    return as float array."""
    c = np.asarray(coords, dtype=float)
    if c.ndim != 1 or c.shape[0] < 3:
        raise OffSheetError(f"expected a vector of length >= 3, got shape {c.shape}")
    q = minkowski_inner(c, c)
    if abs(q + 1.0) > TOL_POINT * max(1.0, float(c[0]) ** 2) or c[0] < 1.0 - TOL_POINT:
        raise OffSheetError(
            f"vector is off the unit hyperboloid: <x,x>={q!r}, x0={c[0]!r}"
        )
    return c


@dataclass(frozen=True)
class Point:
    """A point of H^d as its hyperboloid coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", point_on_sheet(self.coords))

    @property
    def dim(self) -> int:
        return self.coords.shape[0] - 1

    def norm(self) -> float:
        """Distance to the basepoint.  Equals arcosh(x_0)."""
        return float(stable_arcosh(self.coords[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return bool(np.array_equal(self.coords, other.coords))


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """An ideal endpoint, stored as a unit direction on the sphere at infinity."""

    direction: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(u)
        if n == 0:
            raise DegenerateDirectionError("zero vector is not a boundary direction")
        object.__setattr__(self, "direction", u / n)

    @property
    def dim(self) -> int:
        return self.direction.shape[0]


def ray_points(directions, ts) -> np.ndarray:
    """Points at radius ``ts`` along basepoint rays toward unit ``directions``.

    Broadcasts: one direction against an array of radii, or one radius
    per row of a direction stack.  A radius past :data:`COSH_LIMIT`, where
    cosh overflows, raises :class:`GeometryError`.
    """
    directions = np.asarray(directions, dtype=float)
    ts, _ = np.broadcast_arrays(np.asarray(ts, dtype=float), directions[..., 0])
    if np.max(np.abs(ts), initial=0.0) > COSH_LIMIT:
        raise GeometryError(f"ray radius past {COSH_LIMIT:.6g}, cosh's float range")
    return np.concatenate(
        [np.cosh(ts)[..., None], np.sinh(ts)[..., None] * directions], axis=-1
    )


def _ray_sines(r, v, direction):
    """(sinh r, cos θ, sinh h) of (radius, direction) pairs against the
    basepoint line toward the unit ``direction`` (see
    :func:`ray_coordinates`); sin θ is |v - cos θ direction|, formed one
    component at a time."""
    cos = v @ direction
    sin = np.sqrt(sum((v[..., k] - cos * direction[k]) ** 2 for k in range(v.shape[-1])))
    sinh_r = np.sinh(r)
    return sinh_r, cos, sinh_r * sin


def ray_offset(r, v, direction):
    """The offset h of :func:`ray_coordinates` alone."""
    return np.arcsinh(_ray_sines(r, v, direction)[2])


def ray_coordinates(r, v, direction):
    """Offset h and signed foot t on the basepoint ray toward the unit
    ``direction`` of points given as (radius, direction) pairs.

    The basepoint, a point and its foot on the ray span a right-angled
    triangle, so sinh h = sinh r sin θ and sinh t = sinh r cos θ / cosh h
    (Beardon, The Geometry of Discrete Groups, §7.11); t < 0 behind the
    basepoint.  h is also the distance to the whole line through the
    basepoint.  Finite for radii below sinh's overflow near 710.
    """
    sinh_r, cos, sinh_h = _ray_sines(r, v, direction)
    return np.arcsinh(sinh_h), np.arcsinh(sinh_r * cos / np.hypot(1.0, sinh_h))


def segment_foot(d1, d2, L):
    """Foot t on a segment [x, y], measured from x, and offset h of a
    point p, from the side lengths d1 = d(x, p), d2 = d(y, p), L = d(x, y).

    With A, B, G = (d1 + L - d2)/2, (d2 + L - d1)/2, (d1 + d2 - L)/2 and
    s the half perimeter, the angle α at x has tan²(α/2) = τ² =
    sinh B sinh G / (sinh s sinh A) (Beardon, §7.12).  An angle of at
    least π/2 at x or at y puts the foot there, with h = d1 or d2.
    Otherwise x, the foot and p span a right-angled triangle, so
    tanh t = tanh d1 cos α and sinh h = sinh d1 sin α (§7.11); both run
    in the log domain, with 1 - tanh t = (1 - tanh d1) + tanh d1 (1 - cos α)
    a sum of positive terms, so they stay finite for all finite sides.
    """
    d1, d2, L = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (d1, d2, L)))
    a = np.maximum(0.5 * (d1 + L - d2), 0.0)
    b = np.maximum(0.5 * (d2 + L - d1), 0.0)
    g = np.maximum(0.5 * (d1 + d2 - L), 0.0)
    log2 = np.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ls, la, lb, lg = (_log_sinh(v) for v in (0.5 * (d1 + d2 + L), a, b, g))
        log_tau2 = lb + lg - ls - la
        # NaN only where p = x (A = G = 0), whose foot is x
        at_x = ~(log_tau2 < 0.0)
        at_y = ~at_x & (la + lg - ls - lb >= 0.0)
        log_1p_tau2 = np.log1p(np.exp(log_tau2))
        # log(1 - tanh d1) and log(tanh d1 (1 - cos α)), 1 - cos α = 2τ²/(1 + τ²)
        e = np.exp(-2.0 * d1)
        log_m = np.logaddexp(
            log2 - 2.0 * d1 - np.log1p(e),
            np.log1p(-e) - np.log1p(e) + log2 + log_tau2 - log_1p_tau2,
        )
        # t = artanh(1 - m) = (log(2 - m) - log m) / 2
        t = 0.5 * (np.log1p(-np.expm1(log_m)) - log_m)
        # h = arcsinh(e^l), split so that neither branch overflows
        log_sinh_h = _log_sinh(d1) + log2 + 0.5 * log_tau2 - log_1p_tau2
        h = np.where(
            log_sinh_h > 0.0,
            log_sinh_h + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * log_sinh_h))),
            np.arcsinh(np.exp(log_sinh_h)),
        )
    t = np.where(at_x, 0.0, np.where(at_y, L, t))
    h = np.where(at_x, d1, np.where(at_y, d2, h))
    return t[()], h[()]


def ray_distance(h, t, s):
    """Distance from the point at ray coordinates (h, t) to the ray point at s.

    The foot sees both at a right angle, so cosh d = cosh h cosh(s - t):
    the split distance of radii h and |s - t| in orthogonal directions.
    """
    e = np.eye(2)
    return split_distance(h, e[0], np.abs(s - t), e[1])


def geodesic_point(x, y, t):
    """Point at arclength ``t`` from x along the geodesic [x, y].

    Broadcasts: ``t`` may be an array, producing a batch of sample points.
    Requires x != y.  t is clamped to the segment only by the caller; values
    outside [0, d(x,y)] continue along the geodesic line.  The point is
    w_x x + w_y y with weights sinh(d - t) / sinh d and sinh t / sinh d,
    formed before they scale x and y, so that no product passes the float
    range on the way to a representable point; past sinh's overflow near
    710 the weights come from the log domain.
    """
    xc = np.asarray(_coords(x), dtype=float)
    yc = np.asarray(_coords(y), dtype=float)
    d = float(distance(xc, yc))
    if d == 0.0:
        raise DegenerateDirectionError("geodesic through coincident points")
    s = np.stack(np.broadcast_arrays(d - np.asarray(t, dtype=float), t))
    if d <= 710.0:
        w = np.sinh(s) / np.sinh(d)
    else:
        with np.errstate(divide="ignore"):
            w = np.sign(s) * np.exp(_log_sinh(np.abs(s)) - _log_sinh(d))
    return w[0][..., None] * xc + w[1][..., None] * yc


# ---------------------------------------------------------------------------
# Isometries


def validate_isometry(matrix: np.ndarray) -> bool:
    """True when M^T J M = J within ``TOL_ISO`` (relative) and M fixes the sheet."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(form_residual(m) <= TOL_ISO and m[0, 0] >= 1.0 - TOL_ISO)


def form_residual(matrix: np.ndarray):
    """Drift of M from the isometry group: max |M^T J M - J| over scale^2.

    Takes one matrix or a stack, and gives one residual per matrix over
    the last two axes.  The residual is relative to the squared entry
    scale because M^T J M carries rounding noise of that order even for
    exact group elements; an absolute measure would condemn every matrix
    of large displacement.  Dividing M by a power of two at its scale is
    exact and keeps M^T J M finite for every finite M.
    """
    m = np.asarray(matrix, dtype=float)
    j = form_matrix(m.shape[-1] - 1)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    unit = np.ldexp(1.0, np.frexp(scale)[1])[..., None, None]
    m = m / unit
    drift = np.abs(np.swapaxes(m, -1, -2) @ j @ m - j / unit / unit)
    return np.max(drift, axis=(-2, -1)) / np.square(scale / unit[..., 0, 0])


# beyond this entry scale the form residual of even an exact element is
# swamped by rounding, so correction iterations have nothing to work with
_REORTH_SCALE_CAP = 1e6
# Newton-Schulz steps per correction; each squares a small residual
_REORTH_ITERATIONS = 3


def reorthogonalize(matrix: np.ndarray) -> np.ndarray:
    """Project slightly drifted matrices back to the isometry group.

    Takes one matrix or a stack.  Computes M (J M^T J M)^{-1/2} with a
    Newton-Schulz iteration for the inverse square root, which converges
    quadratically while the residual is small.  The correction is exact on
    matrices already in the group.  Each matrix whose entries exceed the
    measurable scale is returned as is.
    """
    m = np.asarray(matrix, dtype=float)
    fits = np.max(np.abs(m), axis=(-2, -1)) <= _REORTH_SCALE_CAP
    n = m.shape[-1]
    j = form_matrix(n - 1)
    sub = m[fits]
    b = j @ (np.swapaxes(sub, -1, -2) @ j @ sub)
    y = np.broadcast_to(np.eye(n), sub.shape).copy()
    eye3 = 3.0 * np.eye(n)
    for _ in range(_REORTH_ITERATIONS):
        y = 0.5 * (y @ (eye3 - b @ y @ y))
    out = np.array(m, copy=True)
    out[fits] = sub @ y
    return out


def _word_inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-w for w in reversed(word))


@dataclass(frozen=True, eq=False)
class Isometry:
    """A hyperbolic isometry: matrix plus the generator word that built it.

    ``word`` is a tuple of signed 1-based generator indices (-k means the
    inverse of generator k).  For elements produced arithmetically rather
    than from generators the word may be empty.  ``matrix`` is always the
    (d+1)x(d+1) float array.
    """

    matrix: np.ndarray
    word: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "word", tuple(int(w) for w in self.word))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 1

    def norm(self) -> float:
        """Displacement of the basepoint, d(x0, g x0) = arcosh(M_00)."""
        return float(stable_arcosh(self.matrix[0, 0]))

    def apply(self, p) -> Point:
        """Image of a point; validates the result stays on the sheet."""
        c = self.matrix @ np.asarray(_coords(p), dtype=float)
        try:
            return Point(c)
        except OffSheetError as exc:
            raise IsometryDriftError(
                f"image left the sheet ({exc}); reorthogonalize the matrix"
            ) from exc

    def inverse(self) -> "Isometry":
        j = form_matrix(self.dim)
        return Isometry(j @ self.matrix.T @ j, _word_inverse(self.word))

    def orbit_point(self) -> Point:
        """Image of the basepoint (first matrix column)."""
        return Point(self.matrix[:, 0].copy())

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.matrix @ other.matrix, self.word + other.word)

    def power(self, n: int) -> "Isometry":
        """n-th power by repeated squaring (word expanded literally)."""
        if n == 0:
            return identity_isometry(self.dim)
        base = self if n > 0 else self.inverse()
        k = abs(n)
        m = np.linalg.matrix_power(base.matrix, k)
        return Isometry(m, base.word * k)


def identity_isometry(dim: int) -> Isometry:
    return Isometry(np.eye(dim + 1), ())


def boost(dim: int, axis: int, t: float) -> Isometry:
    """Pure translation of length ``t`` along the given spatial axis (1-based)."""
    if not 1 <= axis <= dim:
        raise GeometryError(f"axis {axis} out of range for H^{dim}")
    m = np.eye(dim + 1)
    m[0, 0] = m[axis, axis] = np.cosh(t)
    m[0, axis] = m[axis, 0] = np.sinh(t)
    return Isometry(m)


# ---------------------------------------------------------------------------
# Batched kernels used by the enumeration and measure layers.


def _pairing_columns(r, u):
    """Coordinates (cosh r, sinh r u) of (radius, direction) pairs: the
    points that :func:`split_distance` measures, so that a screen on
    their Minkowski pairing sees the same points as the exact pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([np.cosh(r)[:, None], np.sinh(r)[:, None] * u], axis=1)


# point-cloud pairs in one block of the nearest-point screen, 512 KB per
# float temporary; blocks of 1 << 20 pairs raised the median peak memory
# of the orbit-queries benchmark by 5 % over three runs
SCREEN_BLOCK = 65_536


def nearest_in_split(rp, up, rq, uq):
    """For each query point, given by its radial split (rp, up), the min
    hyperbolic distance to the cloud of points split as (rq, uq).

    Returns (values, argmins); ties go to the first cloud row.  A screen
    in the cosh domain picks the candidate pairs and :func:`split_distance`
    runs only on those, so values and argmins are those of the exact
    distance over every pair, bit for bit.

    The screen works in blocks of at most :data:`SCREEN_BLOCK` point-cloud
    pairs.  One GEMM per block gives the Minkowski pairing c = p_0 q_0 - p . q,
    the cosh of the distance, of the points (cosh r, sinh r u) rebuilt
    from both splits, with the cloud's spatial part negated.  Rebuilt
    rather than raw columns, because split_distance measures the point at
    radius r = arcosh q_0 in direction u, and the raw spatial part differs
    from sinh r u by up to about r ulps.  Each computed c then lies within
    16 gamma_{d+1} p_0 q_0 of the cosh that split_distance evaluates:
    2 gamma_{d+1} is the GEMM's roundoff (Higham, Accuracy and Stability
    of Numerical Algorithms, §3.1), the rest covers the ulps of cosh, sinh
    and the unit directions.  A member is dropped only when

        c > c_min (1 + 1e-9) + 1e-12 + 32 gamma_{d+1} p_0 max q_0,

    with c_min the row minimum of c.  Its cosh is then above the cosh of
    the row's minimising member even after the roundoff of both pairings,
    and the 1e-9 covers split_distance's own rounding, so it can neither
    be nearest nor tie the nearest.  Rows where a pairing may overflow
    get an infinite bound and keep every member, and NaN pairings stay in.
    A cloud wider than a block runs in column blocks with a running row
    minimum, and the kept pairs are screened again against the final one.
    Beyond arrays of one entry per point or member, each temporary holds
    O(:data:`SCREEN_BLOCK`) pairs whatever the sizes of the two sets.
    """
    m, n = rp.shape[0], rq.shape[0]
    best = np.full(m, np.inf)
    arg = np.zeros(m, dtype=np.int64)
    if n == 0:
        return best, arg
    p = _pairing_columns(rp, up)
    q = _pairing_columns(rq, uq)
    q[:, 1:] *= -1.0
    qt = np.ascontiguousarray(q.T)
    k = p.shape[1] * np.finfo(float).eps / 2.0
    with np.errstate(over="ignore"):
        # 4 p_0 max q_0 bounds twice every partial sum of a row's pairings;
        # where it overflows the slack is inf and the row keeps every member
        slack = 8.0 * k / (1.0 - k) * (4.0 * p[:, 0] * np.max(q[:, 0])) + 1e-12
    cols = max(1, min(n, SCREEN_BLOCK))
    rows = max(1, SCREEN_BLOCK // cols)
    pending, size = [], 0
    for top in range(0, m, rows):
        sel = slice(top, min(m, top + rows))
        low = np.full(sel.stop - top, np.inf)
        kept = []
        for lo in range(0, n, cols):
            i, j, c, low = _screen_block(p[sel], qt[:, lo : lo + cols], low, slack[sel])
            kept.append((i, j + lo, c))
        bound = _row_bound(low, slack[sel])
        for i, j, c in kept:
            near = ~(c > bound[i])
            pending.append((top + i[near], j[near]))
            size += pending[-1][0].size
        if size >= SCREEN_BLOCK or sel.stop == m:
            i, j = (np.concatenate(a) for a in zip(*pending))
            _merge_nearest(i, j, rp, up, rq, uq, best, arg)
            pending, size = [], 0
    return best, arg


def _row_bound(low, slack):
    """Pairings above this bound cannot be nearest (nearest_in_split)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return low * (1.0 + 1e-9) + slack


def _screen_block(p, qt, low, slack):
    """One block of the screen: the pairings c = p qt, the running row
    minimum ``low`` lowered by them, and (row, column, c) of each pair
    that the row bound keeps; NaN pairings compare false and stay in."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = p @ qt
        low = np.minimum(low, np.min(c, axis=1))
    keep = ~(c > _row_bound(low, slack)[:, None])
    i, j = np.divmod(np.flatnonzero(keep), c.shape[1])
    return i, j, c[i, j], low


def _merge_nearest(i, j, rp, up, rq, uq, best, arg):
    """Exact pass over the pairs (i, j), in pieces of :data:`SCREEN_BLOCK`.

    Columns ascend within each row, so the stable sort puts the first
    column at a row's minimum first, and a later piece replaces a row's
    argmin only when strictly nearer.
    """
    for lo in range(0, i.size, SCREEN_BLOCK):
        pi, pj = i[lo : lo + SCREEN_BLOCK], j[lo : lo + SCREEN_BLOCK]
        d = split_distance(rp[pi], up[pi], rq[pj], uq[pj])
        order = np.lexsort((d, pi))
        first = order[np.r_[True, pi[order[1:]] != pi[order[:-1]]]]
        pi, pj, d = pi[first], pj[first], d[first]
        take = d < best[pi]
        best[pi[take]] = d[take]
        arg[pi[take]] = pj[take]
