"""Orbit enumeration for discrete isometry groups.

The central object is :func:`enumerate_ball`: a breadth-first walk over
words in the generators that keeps every element whose basepoint
displacement is at most ``radius`` (plus a pruning margin so that words
passing slightly outside the ball are still explored).  The result is a
column store (norms, matrices, parent/letter links) that the growth and
measure layers consume.  Its rows are the members, then the ring rows
past the radius on some member's word; norms and links cover those rows,
matrices only the members, and the rest of the ring is only counted.

Each BFS level is formed by one GEMM: the letters' transposes, stacked
as (n_letters * k, k) rows, times the transposed (frontier * k, k)
frontier.  The product is read in place: a strided view of its (0, 0)
entries prunes the blocks above cosh(cutoff), the arcosh runs only on
the others, and the kept (parent, letter) blocks are gathered in
row-major order, :data:`GATHER_BLOCK` of them per ``np.take``.  Without
dedup they go straight into the level's array, so a level holds its
product, itself and one chunk of indices (the frontier is dropped once
its GEMM has run); with dedup they go into one candidate array first,
since the filters read the whole level.  The level's array is the next GEMM's frontier, and its member
rows are copied into the ball's buffer.  The operand order is the one
``np.einsum("mij,ljk->mlik")`` hands to BLAS, and it is fixed because it
keeps every matrix bit-identical to the einsum path: ``np.matmul`` over
the broadcast stacks, one GEMM per letter, or the transposed GEMM
(frontier times letters) changes the last bit of some chain-ball
matrices.  So does splitting the GEMM into blocks of frontier rows, or
reordering them: the BLAS computes the last tile of a call by a path
that depends on the call's size, so a row's bits depend on where it
sits.  The frontier is therefore each level in BFS order.

Deduplication strategies, chosen per group:

* ``"none"``    -- the generators are known to generate freely, so reduced
                   words already enumerate the group without repeats;
* ``"exact"``   -- the group carries exact 2x2 integer lifts (subgroups of
                   SL(2,Z)); the float walk then forms every element's
                   image exactly, and elements are compared by the bytes
                   of those images, immune to rounding (the image of
                   PSL(2,R) in SO(2,1) is faithful, so no sign
                   normalization is needed);
* ``"binned"``  -- generic float path: candidates whose orbit point is
                   within :data:`DEDUP_TOL` of an existing element (in
                   the stable distance kernel) are merged.

Direct float comparison of far elements is hopeless (coordinates live at
scale e^r), which is why the binned path confirms pairs with the split
distance kernel rather than raw coordinates.  Candidate pairs come from
bands of a projected key s = sinh r <u, v>, for a fixed generic unit v:
points within tol of each other have keys within 2 tol (cosh(r + tol) + 1)
(see ``_binned_level``), so the bands hold every close pair and few
others, even where many norms tie exactly.  Earlier levels are kept as a
few s-sorted runs merged like a binary counter (the logarithmic method of
Bentley and Saxe), so no level re-sorts them all.  The norm tests filter
the band pairs, one split distance call per level confirms them, and a
greedy rule over the confirmed pairs, in norm order, keeps a candidate
unless an earlier one it is close to was kept.  Exact dedup keeps its
byte keys in the same kind of sorted runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .hyperbolic import (
    COSH_LIMIT,
    GeometryError,
    Isometry,
    form_matrix,
    form_residual,
    nearest_in_split,
    radial_split,
    ray_offset,
    reorthogonalize,
    split_distance,
    stable_arcosh,
    validate_isometry,
)

__all__ = [
    "GroupSpec",
    "OrbitBall",
    "CriticalExponentEstimate",
    "EnumerationBudgetError",
    "DiscretenessWarning",
    "enumerate_ball",
    "estimate_critical_exponent",
    "growth_fit",
    "orbit_distance",
    "sl2_to_so21",
]

# the growth fit runs over unit-spaced radii from this share of the ball
# radius up to the radius, and over at least this many radii
GROWTH_WINDOW = 0.6
GROWTH_MIN_POINTS = 4

# pad of OrbitBall.words, below every signed letter label
WORD_PAD = np.iinfo(np.int64).min

# binned dedup merges orbit points closer than this, and every
# REORTH_EVERY-th BFS level is reorthogonalized
DEDUP_TOL = 1e-7
REORTH_EVERY = 64

# a run of the dedup store shorter than this always merges into the run
# before it: each run costs every level a search, and re-sorting a short
# run costs little
RUN_FLOOR = 1024

# a level's kept blocks are gathered this many at a time, so no index or
# candidate array of a whole level is formed where the ball's buffer can
# take the rows directly
GATHER_BLOCK = 8192

# nearest-orbit queries: the first tube width around the query line, and
# the absolute slack on top of the rounding of the offsets (see
# orbit_distance)
TUBE_SEED = 1.0
TUBE_SLACK = 1e-6


class EnumerationBudgetError(RuntimeError):
    """Raised when a ball would exceed the element budget.

    Carries how far the walk got so callers can report honestly instead of
    silently truncating a set that is supposed to be complete.
    """

    def __init__(self, message, explored, level):
        super().__init__(message)
        self.explored = explored
        self.level = level


class DiscretenessWarning(UserWarning):
    """Emitted when the enumerated set looks non-discrete or drifted."""


def sl2_to_so21(m):
    """Image of SL(2,R) matrices under the action on the Minkowski model.

    Accepts shape (2, 2) or (n, 2, 2); returns (3, 3) or (n, 3, 3).  The
    conversion is entrywise quadratic, so integer inputs of moderate size
    convert to exact floats with no accumulation error.
    """
    arr = np.asarray(m, dtype=float)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    a, b = arr[:, 0, 0], arr[:, 0, 1]
    c, d = arr[:, 1, 0], arr[:, 1, 1]
    out = np.empty((arr.shape[0], 3, 3))
    out[:, 0, 0] = 0.5 * (a * a + b * b + c * c + d * d)
    out[:, 1, 0] = 0.5 * (a * a + b * b - c * c - d * d)
    out[:, 2, 0] = a * c + b * d
    out[:, 0, 1] = 0.5 * (a * a - b * b + c * c - d * d)
    out[:, 1, 1] = 0.5 * (a * a - b * b - c * c + d * d)
    out[:, 2, 1] = a * c - b * d
    out[:, 0, 2] = a * b + c * d
    out[:, 1, 2] = a * b - c * d
    out[:, 2, 2] = a * d + b * c
    return out[0] if single else out


@dataclass
class GroupSpec:
    """A marked group of hyperbolic isometries.

    ``generators`` act on H^dim.  ``free`` asserts that the generators
    generate freely; the enumerator then skips deduplication.
    ``int_rep`` optionally carries 2x2 integer lifts of the generators
    (dim 2 only).  Each lifted generator becomes the exact image
    ``sl2_to_so21(lift)``, half-integer in every entry, so the lifts
    certify that float products of generators are exact images too, within
    the range :func:`enumerate_ball` checks; that enables exact
    deduplication.
    """

    generators: list
    dim: int
    name: str = ""
    free: bool = False
    int_rep: list | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if not isinstance(g, Isometry):
                g = Isometry(np.asarray(g, dtype=float))
            if g.matrix.shape != (self.dim + 1, self.dim + 1):
                raise ValueError(
                    f"generator shape {g.matrix.shape} does not act on H^{self.dim}"
                )
            if not validate_isometry(g.matrix):
                raise ValueError("generator is not an isometry of the upper sheet")
            gens.append(g)
        self.generators = gens
        if self.int_rep is not None:
            if self.dim != 2:
                raise ValueError("integer lifts only make sense for H^2")
            if len(self.int_rep) != len(gens):
                raise ValueError("need one integer lift per generator")
            reps = []
            for i, (lift, g) in enumerate(zip(self.int_rep, gens)):
                lift = np.asarray(lift, dtype=np.int64)
                if lift.shape != (2, 2) or round(np.linalg.det(lift)) != 1:
                    raise ValueError("integer lifts must be 2x2 with determinant 1")
                image = sl2_to_so21(lift)
                if np.max(np.abs(image - g.matrix)) > 1e-9:
                    raise ValueError("integer lift disagrees with its generator")
                gens[i] = Isometry(image, g.word)
                reps.append(lift)
            self.int_rep = reps

    def letters(self):
        """Alphabet of one-step moves: (signed label, matrix) pairs.

        Generators come first (labels 1..k), then inverses (-1..-k).  Label
        order fixes the enumeration order, which makes ball layouts
        reproducible.  J g^T J only moves and negates entries, so the
        inverse of an exact image is exact.
        """
        j = form_matrix(self.dim)
        out = [(i + 1, g.matrix) for i, g in enumerate(self.generators)]
        out += [(-(i + 1), j @ g.matrix.T @ j) for i, g in enumerate(self.generators)]
        return out

    def max_generator_norm(self) -> float:
        return max(float(stable_arcosh(g.matrix[0, 0])) for g in self.generators)


@dataclass
class CriticalExponentEstimate:
    """Least-squares growth rate of log #B_r against r."""

    value: float
    intercept: float
    residual: float
    radii: np.ndarray
    counts: np.ndarray


@dataclass
class OrbitBall:
    """Column store for an enumerated ball.

    The ``n_members`` members (norm <= radius) are rows ``0 .. n_members -
    1``, then come the ring rows (radius < norm <= radius + margin) on some
    member's parent chain; each part is in BFS order, and the root is row
    0.  ``norms``, ``parent``, ``letter`` and ``word_length`` cover these
    stored rows, so :meth:`words` reads any of them; ``parent`` and
    ``letter`` encode the generating word, the root has parent -1, and a
    member's parent may be a ring row with a larger id.  The rest of the
    ring is only counted: ``level_counts`` holds the explored rows of each
    BFS level.  ``mats`` holds the members' matrices only, so
    :meth:`element` and :meth:`orbit_points` take member rows.
    :attr:`member_split` holds the member rows and the radial split of
    their orbit points, formed once for every query on the ball.
    """

    spec: GroupSpec
    radius: float
    prune_margin: float
    norms: np.ndarray
    mats: np.ndarray
    parent: np.ndarray
    letter: np.ndarray
    word_length: np.ndarray
    level_counts: np.ndarray
    anomalies: list
    dedup_mode: str = "none"
    merged: int = 0

    def __len__(self) -> int:
        """Explored rows, the ring rows that are not stored included."""
        return int(self.level_counts.sum())

    @property
    def n_members(self) -> int:
        return int(self.mats.shape[0])

    @property
    def members(self) -> np.ndarray:
        return np.arange(self.n_members)

    def orbit_points(self, indices) -> np.ndarray:
        """Images of the basepoint (first matrix column) for selected
        member rows."""
        return self.mats[indices, :, 0]

    def words(self, rows) -> np.ndarray:
        """Signed labels of the words of ``rows``, padded on the right by
        :data:`WORD_PAD` to the longest of them, so that a lexicographic
        sort orders the rows as tuples do.  One array step per position up
        the parent chain; the width is the longest word among ``rows``."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        lengths = self.word_length[rows]
        out = np.full((rows.size, int(lengths.max(initial=0))), WORD_PAD)
        cur = rows.copy()
        for s in range(out.shape[1]):
            at = np.flatnonzero(lengths > s)
            out[at, lengths[at] - 1 - s] = self.letter_labels[self.letter[cur[at]]]
            cur[at] = self.parent[cur[at]]
        return out

    def word(self, i: int) -> tuple:
        """The word of row ``i``: the one-row form of :meth:`words`."""
        return tuple(self.words([i])[0].tolist())

    @cached_property
    def member_split(self):
        """(members, r, u): the member rows and the (radius, direction)
        split of their orbit points, in row order, read once per ball."""
        return (self.members, *radial_split(self.mats[:, :, 0]))

    @cached_property
    def letter_labels(self):
        """Signed label of each letter index, read once per ball."""
        return np.array([lab for lab, _ in self.spec.letters()], dtype=np.int64)

    def element(self, i: int) -> Isometry:
        """The member of row ``i``, with its word."""
        return Isometry(self.mats[int(i)].copy(), self.word(i))

    def by_norm(self) -> np.ndarray:
        """Member rows sorted by norm (stable, so BFS order breaks ties)."""
        return np.argsort(self.norms[: self.n_members], kind="stable")


def _resolve_dedup(spec: GroupSpec, dedup: str) -> str:
    if dedup != "auto":
        if dedup == "exact" and spec.int_rep is None:
            raise ValueError("exact dedup requires integer lifts on the group")
        return dedup
    if spec.free:
        return "none"
    if spec.int_rep is not None:
        return "exact"
    return "binned"


def _band(keys, lo, hi):
    """Every (row, col) with lo[row] <= keys[col] <= hi[row], for sorted
    ``keys``, in row-major order."""
    start = keys.searchsorted(lo, side="left")
    counts = keys.searchsorted(hi, side="right") - start
    rows = np.arange(counts.shape[0]).repeat(counts)
    shift = (start - counts.cumsum() + counts).repeat(counts)
    return rows, shift + np.arange(rows.shape[0])


def _push_run(runs, run):
    """Add a sorted run to the store ``runs``, merging like a binary
    counter: while the run before the last is at most twice as long as the
    last, or shorter than :data:`RUN_FLOOR`, the two become one sorted run.
    This is the logarithmic method of Bentley and Saxe (J. Algorithms 1,
    1980): a store of n keys is a few runs, and each key is merged about
    log n times in all instead of once per level.  A run is a 1-d array of
    keys, or a 2-d array keyed by its first row."""
    runs.append(run)
    while len(runs) > 1 and runs[-2].shape[-1] <= max(
        2 * runs[-1].shape[-1], RUN_FLOOR
    ):
        both = np.concatenate([runs[-2], runs.pop()], axis=-1)
        key = both if both.ndim == 1 else both[0]
        runs[-1] = both.take(key.argsort(kind="stable"), axis=-1)


@cache
def _key_direction(dim):
    """The unit v of the binned key.  It is generic, off every axis and
    diagonal, so that the mirror symmetries of a lattice group's orbit do
    not tie keys."""
    v = np.sqrt(np.arange(1.0, dim + 1.0))
    v /= np.linalg.norm(v)
    # one cached array serves every call
    v.setflags(write=False)
    return v


def _key(r, u):
    """The binned key s = sinh r <u, v> of radial splits (r, u)."""
    return np.sinh(r) * (u @ _key_direction(u.shape[-1]))


def _key_reach(r, tol):
    """Half-width of the key band around radius r that holds every point
    split_distance can find closer than ``tol`` (see :func:`_binned_level`)."""
    return 2.0 * tol * (np.cosh(r + tol) + 1.0)


def _keyed(norms, points):
    """Orbit points packed as the rows [s, norm, r, u...] of a window run,
    with (r, u) their radial split and s their key."""
    r, u = radial_split(points)
    out = np.empty((3 + u.shape[1], r.shape[0]))
    out[0], out[1], out[2], out[3:] = _key(r, u), norms, r, u.T
    return out


def _binned_level(window, norms, points, tol):
    """Binned dedup of one BFS level: (fresh mask, window grown by the fresh).

    A candidate merges when it is within ``tol`` of a window element whose
    norm is within ``tol`` of its own, or, taking the level in stable norm
    order, of an earlier candidate that is still fresh and whose norm it
    exceeds by at most ``tol``.  Only pairs that can be that close reach
    split_distance.  With X = sinh r u,

        |X1 - X2|^2 = (sinh r1 - sinh r2)^2 + sinh r1 sinh r2 |u1 - u2|^2,
        cosh d - 1 = 2 sinh^2((r1 - r2) / 2) + sinh r1 sinh r2 |u1 - u2|^2 / 2

    (the second is the split distance), and |r1 - r2| <= d, so the keys
    s = <X, v> of points within d differ by at most
    d cosh(max r) + 2 sinh(d / 2), about d (cosh(max r) + 1), where
    max r <= r + d.  The s band of half-width 2 tol (cosh(r + tol) + 1),
    the 2 covering rounding, therefore holds every pair split_distance can
    find closer than ``tol``, and the norm tests above filter the band.

    ``window`` is the list of s-sorted runs (see :func:`_push_run`) of the
    elements kept at earlier levels, packed by :func:`_keyed`; the fresh
    candidates join it as one more run.
    """
    # the level in stable norm order: a candidate's rank is its column
    by_norm = norms.argsort(kind="stable")
    level = _keyed(norms[by_norm], points[by_norm])
    s, ranked, r, u = level[0], level[1], level[2], level[3:].T
    reach = _key_reach(r, tol)
    lo, hi = s - reach, s + reach
    # band pairs against each run of earlier levels, then the norm test
    rows, cols = [], []
    for run in window:
        i, j = _band(run[0], lo, hi)
        rows.append(i)
        cols.append(run[:, j])
    i, w = np.concatenate(rows), np.concatenate(cols, axis=1)
    at = ranked[i]
    near = (w[1] >= at - tol) & (w[1] <= at + tol)
    i, w = i[near], w[:, near]
    # band pairs within the level: an earlier rank, in the 2 tol norm band
    # and admitted by the norm test
    by_s = s.argsort(kind="stable")
    a, b = _band(s[by_s], lo, hi)
    b = by_s[b]
    at, before = ranked[a], ranked[b]
    earlier = (b < a) & (before >= at - 2.0 * tol) & ~(at - before > tol)
    a, b = a[earlier], b[earlier]
    # one split distance call confirms both sets
    fresh = np.ones(norms.shape[0], dtype=bool)
    if i.shape[0] + a.shape[0]:
        q = np.concatenate([i, a])
        t = np.concatenate([w, level[:, b]], axis=1)
        close = split_distance(r[q], u[q], t[2], t[3:].T) < tol
        fresh[i[close[: i.shape[0]]]] = False
        close = close[i.shape[0] :]
        # greedy in rank order: the pairs arrive sorted by the later rank, so
        # each earlier candidate's verdict is final before it is read
        for later, first in zip(a[close].tolist(), b[close].tolist()):
            if fresh[first]:
                fresh[later] = False
    _push_run(window, level[:, by_s[fresh[by_s]]])
    out = np.empty_like(fresh)
    out[by_norm] = fresh
    return out, window


def _exact_level(runs, cand):
    """Exact dedup of one BFS level: the fresh mask, with the store ``runs``
    grown by the fresh keys.

    A row's key is the bytes of its image (``+ 0.0`` folds -0.0, so equal
    images have equal bytes), one void item per row.  A key is fresh when no
    run of earlier levels holds it (``searchsorted`` plus an equality
    check) and no earlier candidate of the level has it.
    """
    n = cand.shape[0]
    keys = (cand + 0.0).reshape(n, -1).view(np.dtype((np.void, cand[0].nbytes)))[:, 0]
    uniq, first = np.unique(keys, return_index=True)
    new = np.ones(uniq.shape[0], dtype=bool)
    for run in runs:
        new &= run[np.minimum(np.searchsorted(run, uniq), run.shape[0] - 1)] != uniq
    fresh = np.zeros(n, dtype=bool)
    fresh[first[new]] = True
    _push_run(runs, uniq[new])
    return fresh


def _gather(product, corner, cell, out):
    """Copy the k x k blocks of ``product`` whose (0, 0) entries sit at the
    flat indices ``corner`` (``cell``: each entry's offset from its corner)
    into ``out``, :data:`GATHER_BLOCK` blocks per ``np.take``, whose
    ``mode="clip"`` writes ``out`` in place (the default mode first gathers
    into a buffer the size of the output; no index is out of range)."""
    for lo in range(0, corner.shape[0], GATHER_BLOCK):
        rows = corner[lo : lo + GATHER_BLOCK, None, None] + cell
        product.take(rows, out=out[lo : lo + rows.shape[0]], mode="clip")
        del rows  # so that two chunks' indices are never held at once
    return out


def enumerate_ball(
    spec: GroupSpec,
    radius: float,
    *,
    prune_margin: float | None = None,
    dedup: str = "auto",
    max_elements: int = 1_500_000,
) -> OrbitBall:
    """Enumerate the ball B_radius = {g : d(x0, g x0) <= radius}.

    Breadth-first over words; a word survives while its displacement stays
    at most ``radius + prune_margin``.  The margin covers words that dip
    outside the ball before coming back; callers can validate a choice by
    re-running with a larger margin and comparing member counts.  Binned
    dedup merges at :data:`DEDUP_TOL`; only the pairs that a band of the
    projected key s = sinh r <u, v> admits reach split_distance, and the
    kept elements of earlier levels are a few s-sorted runs, so no level
    re-sorts them all (see :func:`_binned_level`).  Exact dedup keeps the
    bytes of the images as sorted keys in the same kind of runs.  A cutoff
    that a generator carries past cosh's float range (about 710.48) raises
    :class:`GeometryError`.

    A level is one GEMM in einsum's operand order, read in place: norms
    from a strided view of its (0, 0) entries, then the kept blocks,
    gathered :data:`GATHER_BLOCK` at a time straight into the level's
    array, or into one candidate array whose fresh rows form it when a
    dedup filters them.  That array, in BFS order, is the next level's
    frontier; its members (norm <= radius) are copied into one buffer of
    ``max_elements`` rows, of which only the touched pages are resident.
    The budget counts every explored row.  The operand order keeps the
    matrices bit-identical to the einsum path, which other BLAS layouts
    and row blocks of the GEMM do not.  Exact dedup keys the gathered
    blocks as they are: entries of exact images are half-integers, so
    each GEMM term and partial sum is a multiple of 1/4, exact while it
    stays within 2^51.  A level whose k * max|frontier| * max|letter|
    passes 2^51 raises :class:`EnumerationBudgetError`.

    The levels' norms, links and letters are kept in BFS order until the
    end, where one pass takes the members and the ring rows on their
    parent chains, in that order (see :class:`OrbitBall`), and moves the
    links to the stored rows.  Member matrices keep their BFS order, so
    norm ties, nearest-orbit ties and every matrix bit are kept.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    mode = _resolve_dedup(spec, dedup)
    if prune_margin is None:
        prune_margin = 2.0 * spec.max_generator_norm()
    cutoff = radius + prune_margin
    reach = cutoff + spec.max_generator_norm()
    if reach > COSH_LIMIT:
        raise GeometryError(f"products reach norm {reach:.6g}, past cosh's float range")
    # no (0, 0) entry above this bound has its norm within the cutoff, so
    # the arcosh runs only on the entries below it
    x00_bound = math.cosh(cutoff) * (1.0 + 1e-9)
    k = spec.dim + 1
    letters = spec.letters()
    n_letters = len(letters)
    letter_mats = np.stack([m for _, m in letters])
    # row (j, c) holds column c of letter j: one GEMM against the transposed
    # frontier forms every product, in einsum's own operand order
    letter_rows = np.ascontiguousarray(letter_mats.transpose(0, 2, 1)).reshape(
        n_letters * k, k
    )
    # entry (r, c) of a kept block lies r + m k c past its (0, 0) entry in
    # the product of a level with m frontier rows
    cell_rows, cell_cols = np.arange(k)[:, None], k * np.arange(k)
    labels = [lab for lab, _ in letters]
    # allowed[p + 1, j]: letter j may follow letter p (p = -1 at the root);
    # a walk never takes a step straight back
    allowed = np.ones((n_letters + 1, n_letters), dtype=bool)
    for j, lab in enumerate(labels):
        allowed[labels.index(-lab) + 1, j] = False
    exact = mode == "exact"
    if exact:
        letter_max = np.max(np.abs(letter_mats))
        # each store starts with the identity, the root of the walk
        seen = []
        _exact_level(seen, np.eye(k)[None])
    elif mode == "binned":
        window = [_keyed(np.zeros(1), np.eye(k)[:1])]

    # member matrices land in one buffer whose pages are touched as levels
    # fill them; each level's kept rows, the next frontier, go to an array
    # of their own, so a ring row's matrix goes once the next GEMM read it
    mats = np.empty((max_elements, k, k))
    mats[0] = np.eye(k)
    f_mats = mats[:1]
    n_members = 1
    norms_levels = [np.zeros(1)]
    parent_levels = [np.full(1, -1, dtype=np.int64)]
    letter_levels = [np.full(1, -1, dtype=np.int16)]
    total = 1
    merged = 0
    level = 0

    while True:
        level += 1
        m = f_mats.shape[0]
        if exact and k * np.max(np.abs(f_mats)) * letter_max > 2.0**51:
            raise EnumerationBudgetError(
                "products would pass 2^51, the exact range of exact dedup",
                total,
                level,
            )
        # every candidate product: row (j, c), column (i, r) holds entry
        # (r, c) of frontier i times letter j.  The level stays one GEMM:
        # OpenBLAS computes the last 4-column tile of a call by a path that
        # depends on the call's size, so blocks of 1,024 or 4,096 frontier
        # rows moved the last bit of matrices at two levels of the
        # free-semigroup gate ball, and blocks of 128 moved the
        # psl2z-generic-6.5 dedup ball.  A product past 24 MiB asks for 32,
        # where glibc's sliding mmap threshold stops, so it is always mapped
        # afresh and no heap block that happens to fit it sets the peak
        size = n_letters * k * m * k
        if size < 3 << 20:
            product = letter_rows @ f_mats.reshape(m * k, k).T
        else:
            product = np.empty(max(size, 4 << 20))[:size].reshape(n_letters * k, -1)
            np.matmul(letter_rows, f_mats.reshape(m * k, k).T, out=product)
        del f_mats  # only the GEMM reads the frontier
        # keep[i, j] reads the (0, 0) entry of frontier i times letter j in
        # place, so flat index i*n_letters + j is that product
        keep = np.less_equal(product[::k, ::k].T, x00_bound, order="C")
        keep &= allowed.take(letter_levels[-1] + 1, axis=0)
        parents, letter = np.divmod(keep.ravel().nonzero()[0], n_letters)
        # flat index of each kept block's (0, 0) entry
        corner = letter * (k * m * k) + parents * k
        norms = stable_arcosh(product.take(corner))
        # only a product within the bound's slack can lie past the cutoff
        inside = norms <= cutoff
        if not inside.all():
            norms, parents = norms[inside], parents[inside]
            letter, corner = letter[inside], corner[inside]
        n_new = norms.shape[0]
        if n_new == 0:
            break
        cell = cell_rows + m * cell_cols
        # one row filter per level: the dedup marks which kept rows are fresh
        if mode != "none":
            cand = _gather(product, corner, cell, np.empty((n_new, k, k)))
            del product  # free the full product before the filter runs
            if exact:
                fresh = _exact_level(seen, cand)
            else:
                fresh, window = _binned_level(window, norms, cand[:, :, 0], DEDUP_TOL)
            merged += int(np.count_nonzero(~fresh))
            fresh_rows = np.flatnonzero(fresh)
            norms, parents = norms[fresh_rows], parents[fresh_rows]
            letter = letter[fresh_rows]
            n_new = fresh_rows.shape[0]
            if n_new == 0:
                break
        if total + n_new > max_elements:
            raise EnumerationBudgetError(
                f"ball exceeds {max_elements} elements at word length {level} "
                f"({total} explored so far); raise the budget or shrink the radius",
                total,
                level,
            )
        new = np.empty((n_new, k, k))
        if mode == "none":
            _gather(product, corner, cell, new)
            del product
        else:
            cand.take(fresh_rows, axis=0, out=new, mode="clip")
            del cand
        # exact images need no correction
        if not exact and level % REORTH_EVERY == 0:
            new = reorthogonalize(new)
            norms = stable_arcosh(new[:, 0, 0])
        # the level's members (norm <= radius) go to the buffer in BFS order
        rows = (norms <= radius).nonzero()[0]
        end = n_members + rows.shape[0]
        new.take(rows, axis=0, out=mats[n_members:end], mode="clip")
        n_members = end
        norms_levels.append(norms)
        parent_levels.append(total - m + parents)
        letter_levels.append(letter.astype(np.int16))
        total += n_new
        # the frontier is the last level, held by f_mats alone
        f_mats, new = new, None

    level_counts = np.array([lev.shape[0] for lev in norms_levels])
    # each column's levels are dropped as soon as they are joined
    norms, norms_levels = np.concatenate(norms_levels), None
    parent, parent_levels = np.concatenate(parent_levels), None
    letter, letter_levels = np.concatenate(letter_levels), None
    nearest = float(np.min(norms[1:], initial=np.inf))
    # the stored rows: the members, then the ring rows found by walking up
    # from the members' parents until no new ring row appears
    member = norms <= radius
    rows = member.nonzero()[0]
    stored = member.copy()
    up = parent.take(rows[1:])
    while (up := up[~stored.take(up)]).shape[0]:
        stored[up] = True
        up = parent.take(up)
    stored ^= member  # now the stored ring rows alone
    order = np.concatenate((rows, stored.nonzero()[0]))
    del member, stored, rows, up
    # new ids for the stored rows only, whose parents are all stored
    row_of = np.empty_like(parent)
    row_of[order] = np.arange(order.shape[0])
    parent = row_of.take(parent.take(order))
    parent[0] = -1  # the root, whose -1 the take read as a row
    del row_of
    norms, letter = norms.take(order), letter.take(order)
    word_length = level_counts.cumsum().searchsorted(order, side="right")
    mats = mats[:n_members]
    return OrbitBall(
        spec=spec,
        radius=float(radius),
        prune_margin=float(prune_margin),
        norms=norms,
        mats=mats,
        parent=parent,
        letter=letter,
        word_length=word_length.astype(np.int32),
        level_counts=level_counts,
        anomalies=_sanity_check(nearest, mats),
        dedup_mode=mode,
        merged=merged,
    )


def _sanity_check(nearest, mats) -> list:
    """Anomalies of a finished walk, each also warned as a
    :class:`DiscretenessWarning`: a tiny ``nearest``, the smallest norm of
    a nontrivial explored row, taken before the ring is dropped, and form
    drift in every (n // 64)-th of the n member matrices ``mats``."""
    anomalies = []
    if nearest < 1e-4:
        anomalies.append(
            f"nontrivial element displaces the basepoint by {nearest:.2e}; "
            "the group may be non-discrete or the generators non-reduced"
        )
    sample = mats[:: max(1, mats.shape[0] // 64)]
    worst = float(np.max(form_residual(sample)))
    if worst > 1e-6:
        anomalies.append(f"matrix drift reached {worst:.2e}; raise reorth frequency")
    for msg in anomalies:
        warnings.warn(msg, DiscretenessWarning, stacklevel=3)
    return anomalies


def growth_fit(sorted_norms, radii) -> CriticalExponentEstimate:
    """Least-squares line through (r, log #{norms <= r}) at ``radii``.

    The counts come from ``sorted_norms`` by binary search.  The residual
    is the largest distance of a log count from the line.  Fewer than two
    radii fit no line, and the slope is 0.
    """
    radii = np.asarray(radii, dtype=float)
    counts = np.searchsorted(sorted_norms, radii, side="right")
    if np.any(counts == 0):
        raise ValueError("empty ball inside the fit window; widen the window")
    if radii.shape[0] < 2:
        return CriticalExponentEstimate(0.0, 0.0, 0.0, radii, counts)
    logs = np.log(counts.astype(float))
    slope, intercept = np.polyfit(radii, logs, 1)
    residual = float(np.max(np.abs(slope * radii + intercept - logs)))
    return CriticalExponentEstimate(
        value=float(slope),
        intercept=float(intercept),
        residual=residual,
        radii=radii,
        counts=counts,
    )


def estimate_critical_exponent(ball: OrbitBall) -> CriticalExponentEstimate:
    """Growth-rate fit: slope of log #B_r over the top window of radii.

    The radii are unit-spaced from ``GROWTH_WINDOW * R`` up to R, at
    least ``GROWTH_MIN_POINTS`` of them.  Staircase-like growth, such as
    the shells of a product set, is fitted at its shell tops instead (see
    the family exponent of :func:`~kleinian.semigroup.build_stage`).
    """
    top = ball.radius
    lo = GROWTH_WINDOW * top
    n = max(GROWTH_MIN_POINTS, int(np.floor(top - lo)) + 1)
    member_norms = np.sort(ball.norms[: ball.n_members])
    return growth_fit(member_norms, np.linspace(lo, top, n))


def _nearest_in_tube(rp, up, rq, uq):
    """:func:`~kleinian.hyperbolic.nearest_in_split` of query points
    against the members, run on the members near the query line (see
    :func:`orbit_distance`); argmins index the members."""
    if rp.shape[0] == 0:
        return nearest_in_split(rp, up, rq, uq)
    line = up[np.argmax(rp)]
    hp = ray_offset(rp, up, line)
    hq = ray_offset(rq, uq, line)
    # the offsets are within 16 k eps (1 + sinh r) of the exact ones
    with np.errstate(over="ignore", invalid="ignore"):
        rounding = 16.0 * (up.shape[1] + 1) * np.finfo(float).eps
        slack = TUBE_SLACK + rounding * (2.0 + np.sinh(rp.max()) + np.sinh(rq.max()))
    top = np.max(hq)
    width = TUBE_SEED
    # scattered points: the tube would hold every member
    if 2.0 * np.max(hp) - width < top:
        while width < top:
            rows = np.flatnonzero(hq <= width)
            vals, nearest = nearest_in_split(rp, up, rq[rows], uq[rows])
            reach = np.max(hp + vals) + slack
            if reach <= width:
                return vals, rows[nearest]
            if not reach < np.inf:
                break
            width = min(reach, 2.0 * width)
    return nearest_in_split(rp, up, rq, uq)


def orbit_distance(ball: OrbitBall, points):
    """Distance from query points to the enumerated orbit, with censoring.

    Returns (values, censored, argmin_rows); ties go to the first member
    row.  A value is censored when it reaches ``radius - d(x0, p)``: orbit
    points outside the ball could then be closer, so the minimum is only
    a lower-bound witness.

    Only members that can be nearest reach the exact kernel
    :func:`~kleinian.hyperbolic.nearest_in_split`.  With l the line
    through x0 toward the query point farthest from x0 and h(x) = d(x, l)
    (:func:`~kleinian.hyperbolic.ray_offset`, on the cached
    :attr:`OrbitBall.member_split`), the triangle inequality through the
    foot of p on l gives d(p, q) >= h_q - h_p.  So, with D0(p) the
    distance from p to some members, a member with h_q > h_p + D0(p) can
    neither be nearest nor tie the nearest.  The kernel runs on the
    members with h <= w, from w = :data:`TUBE_SEED` on; once w reaches
    max_p (h_p + D0(p)) plus the slack its answers are final, and
    otherwise w grows to that reach, at most doubling.  The slack is
    :data:`TUBE_SLACK` plus 16 k eps (2 + sinh max r_p + sinh max r_q),
    which covers the rounding of the offsets (k = d + 1) and of the
    distances.  Member order is kept, so every output equals that of the
    pass over all members, bit for bit.  Points along one ray or line
    have h_p near 0 and read a thin tube.  For scattered points, with
    2 max h_p - TUBE_SEED at or past the largest member offset, the tube
    would be every member, so they go to the kernel at once, as do
    queries whose offsets or reach are not finite.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rp, up = radial_split(pts)
    members, rq, uq = ball.member_split
    vals, nearest = _nearest_in_tube(rp, up, rq, uq)
    args = members[nearest]
    censored = vals >= ball.radius - rp
    if np.ndim(points) == 1:
        return float(vals[0]), bool(censored[0]), int(args[0])
    return vals, censored, args
