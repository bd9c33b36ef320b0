"""Hyperboloid-model primitives.

Points of hyperbolic d-space are modelled on the upper sheet of the unit
hyperboloid in Minkowski space: vectors ``x`` in R^{d+1} with

    <x, x> = -x_0^2 + x_1^2 + ... + x_d^2 = -1,     x_0 >= 1.

Isometries are the (d+1)x(d+1) matrices preserving the bilinear form and
the sheet.  Everything here is plain numpy; the functions accept either
the wrapper classes below or raw coordinate arrays, and most kernels
broadcast over leading axes so callers can batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared numeric defaults.  Callers can override per call.
TOL_POINT = 1e-9
TOL_ISO = 1e-8
REORTH_EVERY = 64

__all__ = [
    "TOL_POINT",
    "TOL_ISO",
    "REORTH_EVERY",
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
    "unit_tangent",
    "boundary_action",
    "visual_angle",
    "boundary_direction",
    "basepoint",
    "form_matrix",
    "validate_isometry",
    "form_residual",
    "reorthogonalize",
    "boost",
    "rotation",
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
    n = np.linalg.norm(spatial, axis=-1, keepdims=True)
    safe = np.where(n > 0.0, n, 1.0)
    u = spatial / safe
    if np.any(n == 0.0):
        u = np.array(u, copy=True)
        u[..., 0] = np.where(n[..., 0] == 0.0, 1.0, u[..., 0])
    return r, u


def split_distance(r1, u1, r2, u2):
    """Distance from (radius, direction) pairs, stable at all radii.

    Uses cosh d = cosh(r1 - r2) + sinh r1 sinh r2 |u1 - u2|^2 / 2, a sum of
    nonnegative terms, so the relative error stays near machine precision
    even when the direct inner product would cancel to garbage.  Finite
    while sinh r1 sinh r2 is, so it overflows to inf (a correct ordering)
    once r1 + r2 exceeds about 710.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    gap = np.sum((u1 - u2) ** 2, axis=-1)
    half = 0.5 * (r1 - r2)
    sh = np.sinh(half)
    with np.errstate(over="ignore"):
        u = 2.0 * sh * sh + 0.5 * np.sinh(r1) * np.sinh(r2) * gap
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


def point_on_sheet(coords, tol: float = TOL_POINT) -> np.ndarray:
    """Validate that ``coords`` lies on the upper sheet; return as float array."""
    c = np.asarray(coords, dtype=float)
    if c.ndim != 1 or c.shape[0] < 3:
        raise OffSheetError(f"expected a vector of length >= 3, got shape {c.shape}")
    q = minkowski_inner(c, c)
    if abs(q + 1.0) > tol * max(1.0, float(c[0]) ** 2) or c[0] < 1.0 - tol:
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

    def ray_point(self, radius: float) -> np.ndarray:
        """Hyperboloid coordinates of the point at ``radius`` along the ray from
        the basepoint toward this direction (the finite proxy used whenever a
        computation needs an actual point)."""
        return ray_points(self.direction, radius)


def ray_points(directions, ts) -> np.ndarray:
    """Points at radius ``ts`` along basepoint rays toward unit ``directions``.

    Broadcasts: one direction against an array of radii, or one radius
    per row of a direction stack.
    """
    ts = np.asarray(ts, dtype=float)
    return np.concatenate(
        [np.cosh(ts)[..., None], np.sinh(ts)[..., None] * directions], axis=-1
    )


def boundary_direction(p, tol: float = TOL_POINT) -> BoundaryPoint:
    """Radial direction of a point as seen from the basepoint.

    For a sequence of points escaping to infinity these directions form a
    Cauchy sequence on the sphere; the limit is the visual boundary point.
    """
    c = np.asarray(_coords(p), dtype=float)
    spatial = c[1:]
    n = np.linalg.norm(spatial)
    if n <= tol:
        raise DegenerateDirectionError("point is at the basepoint; no direction")
    return BoundaryPoint(spatial / n)


def boundary_action(matrix: np.ndarray, directions):
    """Induced action of an isometry on boundary directions.

    Lifts each unit direction u to the light ray (1, u), pushes it through
    the matrix, and rescales; works on a single direction or a stack.
    """
    dirs = np.asarray(directions, dtype=float)
    single = dirs.ndim == 1
    if single:
        dirs = dirs[None]
    cone = np.concatenate([np.ones((dirs.shape[0], 1)), dirs], axis=1)
    img = cone @ np.asarray(matrix, dtype=float).T
    out = img[:, 1:] / img[:, :1]
    return out[0] if single else out


def visual_angle(u: BoundaryPoint, v: BoundaryPoint) -> float:
    """Angle between two boundary directions seen from the basepoint."""
    c = float(np.dot(u.direction, v.direction))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def unit_tangent(x, y):
    """Unit tangent vector at x pointing toward y (Minkowski-orthogonal to x)."""
    xc = np.asarray(_coords(x), dtype=float)
    yc = np.asarray(_coords(y), dtype=float)
    inner = np.asarray(minkowski_inner(xc, yc), dtype=float)
    s = np.sinh(stable_arcosh(-inner))
    if np.any(s == 0.0):
        raise DegenerateDirectionError("coincident points have no tangent direction")
    return (yc + inner[..., None] * xc) / s[..., None]


def geodesic_point(x, y, t):
    """Point at arclength ``t`` from x along the geodesic [x, y].

    Broadcasts: ``t`` may be an array, producing a batch of sample points.
    Requires x != y.  t is clamped to the segment only by the caller; values
    outside [0, d(x,y)] continue along the geodesic line.
    """
    xc = np.asarray(_coords(x), dtype=float)
    yc = np.asarray(_coords(y), dtype=float)
    d = float(distance(xc, yc))
    if d == 0.0:
        raise DegenerateDirectionError("geodesic through coincident points")
    t = np.asarray(t, dtype=float)
    # sinh-weighted combination; stable for the desk-scale distances used here.
    num = np.sinh(d - t)[..., None] * xc + np.sinh(t)[..., None] * yc
    return num / np.sinh(d)


# ---------------------------------------------------------------------------
# Isometries


def validate_isometry(matrix: np.ndarray, tol: float = TOL_ISO) -> bool:
    """True when M^T J M = J within ``tol`` (relative) and M fixes the sheet."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return form_residual(m) <= tol and m[0, 0] >= 1.0 - tol


def form_residual(matrix: np.ndarray) -> float:
    """Drift of M from the isometry group: max |M^T J M - J| over scale^2.

    The residual is relative to the squared entry scale because M^T J M
    carries rounding noise of that order even for exact group elements; an
    absolute measure would condemn every matrix of large displacement.
    """
    m = np.asarray(matrix, dtype=float)
    j = form_matrix(m.shape[0] - 1)
    scale = max(1.0, float(np.max(np.abs(m))))
    return float(np.max(np.abs(m.T @ j @ m - j))) / (scale * scale)


# beyond this entry scale the form residual of even an exact element is
# swamped by rounding, so correction iterations have nothing to work with
_REORTH_SCALE_CAP = 1e6


def reorthogonalize(matrix: np.ndarray, iterations: int = 4) -> np.ndarray:
    """Project a slightly drifted matrix back to the isometry group.

    Computes M (J M^T J M)^{-1/2} with a Newton-Schulz iteration for the
    inverse square root, which converges quadratically while the residual is
    small.  The correction is exact on matrices already in the group.
    Matrices whose entries exceed the measurable scale are returned as is.
    """
    m = np.asarray(matrix, dtype=float)
    if float(np.max(np.abs(m))) > _REORTH_SCALE_CAP:
        return m
    n = m.shape[0]
    j = form_matrix(n - 1)
    b = j @ (m.T @ j @ m)
    y = np.eye(n)
    eye3 = 3.0 * np.eye(n)
    for _ in range(iterations):
        y = 0.5 * (y @ (eye3 - b @ y @ y))
    return m @ y


def _word_inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-w for w in reversed(word))


@dataclass(frozen=True, eq=False)
class Isometry:
    """A hyperbolic isometry: matrix plus the generator word that built it.

    ``word`` is a tuple of signed 1-based generator indices (-k means the
    inverse of generator k).  For elements produced arithmetically rather
    than from generators the word may be empty.

    ``matrix`` may be None for symbolic elements whose coordinates overflow
    floats (huge powers produced in literal-constants mode); those carry a
    ``norm_hint`` instead and refuse matrix operations.
    """

    matrix: np.ndarray | None
    word: tuple[int, ...] = ()
    norm_hint: float | None = None

    def __post_init__(self):
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "word", tuple(int(w) for w in self.word))

    @property
    def dim(self) -> int:
        if self.matrix is None:
            raise IsometryDriftError("symbolic isometry has no matrix")
        return self.matrix.shape[0] - 1

    @property
    def symbolic(self) -> bool:
        return self.matrix is None

    def norm(self) -> float:
        """Displacement of the basepoint, d(x0, g x0) = arcosh(M_00)."""
        if self.matrix is None:
            if self.norm_hint is None:
                raise IsometryDriftError("symbolic isometry without a norm hint")
            return float(self.norm_hint)
        return float(stable_arcosh(self.matrix[0, 0]))

    def apply(self, p, tol: float = TOL_POINT) -> Point:
        """Image of a point; validates the result stays on the sheet."""
        if self.matrix is None:
            raise IsometryDriftError("cannot apply a symbolic isometry to points")
        c = self.matrix @ np.asarray(_coords(p), dtype=float)
        try:
            return Point(c)
        except OffSheetError as exc:
            raise IsometryDriftError(
                f"image left the sheet ({exc}); reorthogonalize the matrix"
            ) from exc

    def compose(self, other: "Isometry", validate: bool = False) -> "Isometry":
        if self.matrix is None or other.matrix is None:
            raise IsometryDriftError("cannot compose symbolic isometries")
        m = self.matrix @ other.matrix
        if validate and not validate_isometry(m):
            m = reorthogonalize(m)
            if not validate_isometry(m):
                raise IsometryDriftError("composition drifted beyond repair")
        return Isometry(m, self.word + other.word)

    def inverse(self) -> "Isometry":
        if self.matrix is None:
            raise IsometryDriftError("cannot invert a symbolic isometry")
        j = form_matrix(self.dim)
        return Isometry(j @ self.matrix.T @ j, _word_inverse(self.word))

    def orbit_point(self) -> Point:
        """Image of the basepoint (first matrix column)."""
        if self.matrix is None:
            raise IsometryDriftError("symbolic isometry has no orbit point")
        return Point(self.matrix[:, 0].copy())

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

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


# ---------------------------------------------------------------------------
# Batched kernels used by the enumeration and measure layers.


def pairwise_distance(a: np.ndarray, b: np.ndarray, chunk: int = 2_000_000):
    """Distance matrix between two stacks of hyperboloid points.

    ``a`` has shape (m, d+1), ``b`` shape (n, d+1); result (m, n).  Work is
    chunked so intermediate buffers stay below roughly ``chunk`` floats.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[0], b.shape[0]
    out = np.empty((m, n))
    if m == 0 or n == 0:
        return out
    ra, ua = radial_split(a)
    rb, ub = radial_split(b)
    rows = max(1, int(chunk // max(n, 1)))
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        out[lo:hi] = split_distance(
            ra[lo:hi, None], ua[lo:hi, None, :], rb[None, :], ub[None, :, :]
        )
    return out


def min_distance_to_set(points: np.ndarray, cloud: np.ndarray, chunk: int = 65_536):
    """For each row of ``points``, the min hyperbolic distance to ``cloud``.

    Returns (values, argmins); ties go to the first cloud row.  Works in
    blocks of at most ``chunk`` point-cloud pairs, each handed whole to
    pairwise_distance, so each temporary holds at most ``chunk * d``
    floats whatever the sizes of the two sets.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cloud = np.asarray(cloud, dtype=float)
    m = points.shape[0]
    best = np.full(m, np.inf)
    arg = np.zeros(m, dtype=np.int64)
    if cloud.shape[0] == 0:
        return best, arg
    cols = max(1, int(chunk // max(m, 1)))
    rows = max(1, int(chunk // cols))
    for top in range(0, m, rows):
        sel = slice(top, min(m, top + rows))
        for lo in range(0, cloud.shape[0], cols):
            block = pairwise_distance(points[sel], cloud[lo : lo + cols], chunk)
            j = np.argmin(block, axis=1)
            v = block[np.arange(block.shape[0]), j]
            take = v < best[sel]
            best[sel][take] = v[take]
            arg[sel][take] = lo + j[take]
    return best, arg
