"""Orbit enumeration for discrete isometry groups.

The central object is :func:`enumerate_ball`: a breadth-first walk over
words in the generators that keeps every element whose basepoint
displacement is at most ``radius`` (plus a pruning margin so that words
passing slightly outside the ball are still explored).  The result is a
column store (norms, matrices, parent/letter links) that the growth and
measure layers consume.

Deduplication strategies, chosen per group:

* ``"none"``    -- the generators are known to generate freely, so reduced
                   words already enumerate the group without repeats;
* ``"exact"``   -- the group carries exact 2x2 integer lifts (subgroups of
                   SL(2,Z)); elements are compared by normalized integer
                   tuples, immune to rounding;
* ``"binned"``  -- generic float path: candidates whose orbit point is
                   within ``dedup_tol`` of an existing element (in the
                   stable distance kernel) are merged.

Direct float comparison of far elements is hopeless (coordinates live at
scale e^r), which is why the binned path works on sorted norms plus the
split distance kernel rather than raw coordinates.  Each BFS level is two
array passes: candidate pairs against earlier levels come from sorted-norm
bands, pairs within the level from stable norm order, and one split
distance call confirms each set.  A greedy rule over the confirmed pairs,
in norm order, keeps a candidate unless an earlier one it is close to was
kept.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hyperbolic import (
    REORTH_EVERY,
    Isometry,
    form_matrix,
    form_residual,
    identity_isometry,
    min_distance_to_set,
    radial_split,
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
    "poincare_partial",
    "estimate_critical_exponent",
    "separated_net",
    "orbit_distance",
    "sl2_to_so21",
    "sl2_norm",
]


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


def sl2_norm(m):
    """Basepoint displacement of an SL(2,R) element acting on the upper half
    plane with basepoint i: arcosh of half the sum of squared entries."""
    arr = np.asarray(m, dtype=float)
    w = 0.5 * np.sum(arr * arr, axis=(-2, -1))
    return stable_arcosh(w)


@dataclass
class GroupSpec:
    """A marked group of hyperbolic isometries.

    ``generators`` act on H^dim.  When ``semigroup`` is set, inverses are
    not adjoined and words are positive.  ``free`` asserts that the
    generators generate freely (as a group, or as a semigroup when
    ``semigroup`` is set); the enumerator then skips deduplication.
    ``int_rep`` optionally carries exact 2x2 integer lifts of the
    generators (dim 2 only), enabling exact deduplication.
    """

    generators: list
    dim: int
    name: str = ""
    semigroup: bool = False
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
            for lift, g in zip(self.int_rep, gens):
                lift = np.asarray(lift, dtype=np.int64)
                if lift.shape != (2, 2) or round(np.linalg.det(lift)) != 1:
                    raise ValueError("integer lifts must be 2x2 with determinant 1")
                if np.max(np.abs(sl2_to_so21(lift) - g.matrix)) > 1e-9:
                    raise ValueError("integer lift disagrees with its generator")
                reps.append(lift)
            self.int_rep = reps

    @property
    def n_letters(self) -> int:
        k = len(self.generators)
        return k if self.semigroup else 2 * k

    def letters(self):
        """Alphabet of one-step moves: (signed label, matrix, int lift or None).

        Generators come first (labels 1..k), then inverses (-1..-k) unless
        this is a semigroup.  Label order fixes the enumeration order, which
        makes ball layouts reproducible.
        """
        out = []
        for i, g in enumerate(self.generators):
            lift = None if self.int_rep is None else self.int_rep[i]
            out.append((i + 1, g.matrix, lift))
        if not self.semigroup:
            j = form_matrix(self.dim)
            for i, g in enumerate(self.generators):
                inv = j @ g.matrix.T @ j
                lift = None
                if self.int_rep is not None:
                    m = self.int_rep[i]
                    lift = np.array(
                        [[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.int64
                    )
                out.append((-(i + 1), inv, lift))
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
    log_counts: np.ndarray

    def fitted(self) -> np.ndarray:
        return self.value * self.radii + self.intercept


def _psl_keys(int_mats):
    """Sign-normalized byte keys for PSL(2,Z) elements."""
    flat = int_mats.reshape(-1, 4)
    lead = flat[:, 0].copy()
    for col in range(1, 4):
        zero = lead == 0
        if not np.any(zero):
            break
        lead[zero] = flat[zero, col]
    normalized = np.where(lead[:, None] < 0, -flat, flat)
    return [row.tobytes() for row in normalized]


@dataclass
class OrbitBall:
    """Column store for an enumerated ball.

    Rows cover every explored element: members (norm <= radius) plus the
    overshoot ring kept for ancestry (norm <= radius + margin).  ``parent``
    and ``letter`` encode the generating word; the root has parent -1.
    """

    spec: GroupSpec
    radius: float
    prune_margin: float
    norms: np.ndarray
    mats: np.ndarray
    parent: np.ndarray
    letter: np.ndarray
    word_length: np.ndarray
    int_mats: np.ndarray | None = None
    dedup_mode: str = "none"
    dedup_tol: float = 0.0
    merged: int = 0
    anomalies: list = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.norms.shape[0])

    @property
    def member_mask(self) -> np.ndarray:
        return self.norms <= self.radius

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.member_mask)

    @property
    def n_members(self) -> int:
        return int(np.count_nonzero(self.member_mask))

    def orbit_points(self, indices=None) -> np.ndarray:
        """Images of the basepoint (first matrix column) for selected rows."""
        if indices is None:
            return self.mats[:, :, 0]
        return self.mats[indices, :, 0]

    def word(self, i: int) -> tuple:
        labels = self.letter_labels
        out = []
        i = int(i)
        while i >= 0 and self.parent[i] >= 0:
            out.append(int(labels[self.letter[i]]))
            i = int(self.parent[i])
        return tuple(reversed(out))

    @cached_property
    def letter_labels(self):
        """Signed label of each letter index, read once per ball."""
        return [lab for lab, _, _ in self.spec.letters()]

    def element(self, i: int) -> Isometry:
        return Isometry(self.mats[int(i)].copy(), self.word(i))

    def counts_at(self, radii) -> np.ndarray:
        """#\\{members with norm <= r\\} for each r (vectorized)."""
        member_norms = np.sort(self.norms[self.member_mask])
        return np.searchsorted(member_norms, np.asarray(radii, dtype=float), side="right")

    def by_norm(self) -> np.ndarray:
        """Member indices sorted by norm (stable, so BFS order breaks ties)."""
        members = self.members
        return members[np.argsort(self.norms[members], kind="stable")]

    def write_csv(self, path, members_only: bool = True) -> int:
        """Dump rows as delimited text: word, norm, then the orbit point."""
        idx = self.members if members_only else np.arange(len(self))
        points = self.orbit_points(idx)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["word", "norm"] + [f"x{i}" for i in range(self.spec.dim + 1)]
            )
            for row, i in enumerate(idx):
                word = ".".join(str(w) for w in self.word(i)) or "e"
                writer.writerow(
                    [word, repr(float(self.norms[i]))]
                    + [repr(float(v)) for v in points[row]]
                )
        return int(idx.shape[0])


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


def _band_pairs(lo, hi):
    """Every (row, col) with lo[row] <= col < hi[row], in row-major order."""
    counts = hi - lo
    rows = np.repeat(np.arange(counts.shape[0]), counts)
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, shift + np.arange(rows.shape[0])


def _binned_level(window, norms, points, tol):
    """Binned dedup of one BFS level: (fresh mask, window grown by the fresh).

    ``window`` is the norm-sorted (norms, radii, directions) of every element
    kept at earlier levels.  Points within ``tol`` have norms within ``tol``,
    so sorted-norm bands generate every candidate pair and one split_distance
    call per pass confirms them.  A candidate merges when it is within
    ``tol`` of a window element, or, taking the level in stable norm order,
    of an earlier candidate that is still fresh and whose norm it exceeds by
    at most ``tol``.
    """
    w_norms, w_radii, w_dirs = window
    r, u = radial_split(points)
    i, j = _band_pairs(
        np.searchsorted(w_norms, norms - tol, side="left"),
        np.searchsorted(w_norms, norms + tol, side="right"),
    )
    fresh = np.ones(norms.shape[0], dtype=bool)
    fresh[i[split_distance(r[i], u[i], w_radii[j], w_dirs[j]) < tol]] = False
    order = np.argsort(norms, kind="stable")
    ranked = norms[order]
    # the 2 tol band holds every earlier rank the exact norm test admits
    a, b = _band_pairs(
        np.searchsorted(ranked, ranked - 2.0 * tol, side="left"),
        np.arange(ranked.shape[0]),
    )
    admitted = ~(ranked[a] - ranked[b] > tol)
    a, b = order[a[admitted]], order[b[admitted]]
    close = split_distance(r[a], u[a], r[b], u[b]) < tol
    # greedy in rank order: pairs arrive sorted by the later rank, so each
    # earlier candidate's verdict is final before it is read
    for later, earlier in zip(a[close].tolist(), b[close].tolist()):
        if fresh[earlier]:
            fresh[later] = False
    kept = np.concatenate([w_norms, norms[fresh]])
    by_norm = np.argsort(kept, kind="stable")
    window = (
        kept[by_norm],
        np.concatenate([w_radii, r[fresh]])[by_norm],
        np.concatenate([w_dirs, u[fresh]])[by_norm],
    )
    return fresh, window


def _reorthogonalize_batch(mats: np.ndarray, iterations: int = 3) -> np.ndarray:
    # rows beyond the measurable scale are left alone (see hyperbolic module)
    scale_ok = np.max(np.abs(mats), axis=(-2, -1)) <= 1e6
    if not np.any(scale_ok):
        return mats
    n = mats.shape[-1]
    j = form_matrix(n - 1)
    sub = mats[scale_ok]
    b = j @ (np.swapaxes(sub, -1, -2) @ j @ sub)
    y = np.broadcast_to(np.eye(n), sub.shape).copy()
    eye3 = 3.0 * np.eye(n)
    for _ in range(iterations):
        y = 0.5 * (y @ (eye3 - b @ y @ y))
    out = np.array(mats, copy=True)
    out[scale_ok] = sub @ y
    return out


def enumerate_ball(
    spec: GroupSpec,
    radius: float,
    *,
    prune_margin: float | None = None,
    dedup: str = "auto",
    dedup_tol: float = 1e-7,
    reorth_every: int = REORTH_EVERY,
    max_elements: int = 1_500_000,
    max_word_length: int | None = None,
) -> OrbitBall:
    """Enumerate the ball B_radius = {g : d(x0, g x0) <= radius}.

    Breadth-first over words; a word survives while its displacement stays
    at most ``radius + prune_margin``.  The margin covers words that dip
    outside the ball before coming back; callers can validate a choice by
    re-running with a larger margin and comparing member counts.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    mode = _resolve_dedup(spec, dedup)
    if prune_margin is None:
        prune_margin = 2.0 * spec.max_generator_norm()
    cutoff = radius + prune_margin
    k = spec.dim + 1
    letters = spec.letters()
    n_letters = len(letters)
    letter_mats = np.stack([m for _, m, _ in letters])
    labels = [lab for lab, _, _ in letters]
    # index of the letter undoing letter j, for backtrack skipping
    inverse_of = np.array(
        [labels.index(-lab) if -lab in labels else -1 for lab in labels],
        dtype=np.int64,
    )
    use_int = mode == "exact"
    if use_int:
        letter_ints = np.stack([lift for _, _, lift in letters]).astype(np.int64)

    mats_levels = [np.eye(k)[None]]
    norms_levels = [np.zeros(1)]
    parent_levels = [np.full(1, -1, dtype=np.int64)]
    letter_levels = [np.full(1, -1, dtype=np.int16)]
    length_levels = [np.zeros(1, dtype=np.int32)]
    int_levels = [np.eye(2, dtype=np.int64)[None]] if use_int else None

    seen = None
    window = None
    if use_int:
        seen = set(_psl_keys(int_levels[0]))
    elif mode == "binned":
        window = (norms_levels[0], *radial_split(mats_levels[0][:, :, 0]))

    total = 1
    merged = 0
    level = 0
    frontier = 0  # index into *_levels of the current frontier
    anomalies: list[str] = []

    while True:
        level += 1
        if max_word_length is not None and level > max_word_length:
            break
        f_mats = mats_levels[frontier]
        f_letters = letter_levels[frontier]
        m = f_mats.shape[0]
        if m == 0:
            break
        # parent-major candidate block: index i*n_letters + j is frontier i, letter j
        cand_parent = np.repeat(np.arange(m, dtype=np.int64), n_letters)
        cand_letter = np.tile(np.arange(n_letters, dtype=np.int16), m)
        keep = np.ones(m * n_letters, dtype=bool)
        if not spec.semigroup:
            # never take a step straight back
            prev = f_letters[cand_parent]
            keep &= (prev < 0) | (inverse_of[cand_letter] != prev)
        if use_int:
            f_ints = int_levels[frontier]
            cand_int = np.einsum(
                "mij,ljk->mlik", f_ints, letter_ints, optimize=True
            ).reshape(m * n_letters, 2, 2)
            if np.max(np.abs(cand_int)) > 2**31:
                raise EnumerationBudgetError(
                    "integer lifts exceeded the exact-arithmetic range",
                    total,
                    level,
                )
            cand = sl2_to_so21(cand_int)
        else:
            cand = np.einsum("mij,ljk->mlik", f_mats, letter_mats, optimize=True)
            cand = cand.reshape(m * n_letters, k, k)
        norms = stable_arcosh(cand[:, 0, 0])
        keep &= norms <= cutoff
        idx = np.flatnonzero(keep)
        if idx.shape[0] == 0:
            break
        cand = cand[idx]
        norms = norms[idx]
        cand_parent = cand_parent[idx]
        cand_letter = cand_letter[idx]
        if use_int:
            cand_int = cand_int[idx]
            keys = _psl_keys(cand_int)
            fresh = np.ones(len(keys), dtype=bool)
            for i, key in enumerate(keys):
                if key in seen:
                    fresh[i] = False
                else:
                    seen.add(key)
            merged += int(np.count_nonzero(~fresh))
            cand = cand[fresh]
            norms = norms[fresh]
            cand_parent = cand_parent[fresh]
            cand_letter = cand_letter[fresh]
            cand_int = cand_int[fresh]
        elif mode == "binned":
            fresh, window = _binned_level(window, norms, cand[:, :, 0], dedup_tol)
            merged += int(np.count_nonzero(~fresh))
            cand = cand[fresh]
            norms = norms[fresh]
            cand_parent = cand_parent[fresh]
            cand_letter = cand_letter[fresh]
        if not use_int and reorth_every and level % reorth_every == 0:
            cand = _reorthogonalize_batch(cand)
            norms = stable_arcosh(cand[:, 0, 0])
        n_new = cand.shape[0]
        if n_new == 0:
            break
        if total + n_new > max_elements:
            raise EnumerationBudgetError(
                f"ball exceeds {max_elements} elements at word length {level} "
                f"({total} explored so far); raise the budget or shrink the radius",
                total,
                level,
            )
        offset = sum(arr.shape[0] for arr in mats_levels[: frontier + 1])
        base = offset - mats_levels[frontier].shape[0]
        mats_levels.append(cand)
        norms_levels.append(norms)
        parent_levels.append(base + cand_parent)
        letter_levels.append(cand_letter)
        length_levels.append(np.full(n_new, level, dtype=np.int32))
        if use_int:
            int_levels.append(cand_int)
        total += n_new
        frontier += 1

    ball = OrbitBall(
        spec=spec,
        radius=float(radius),
        prune_margin=float(prune_margin),
        norms=np.concatenate(norms_levels),
        mats=np.concatenate(mats_levels),
        parent=np.concatenate(parent_levels),
        letter=np.concatenate(letter_levels),
        word_length=np.concatenate(length_levels),
        int_mats=np.concatenate(int_levels) if use_int else None,
        dedup_mode=mode,
        dedup_tol=float(dedup_tol),
        merged=merged,
    )
    _sanity_check(ball, anomalies)
    ball.anomalies = anomalies
    return ball


def _sanity_check(ball: OrbitBall, anomalies: list) -> None:
    sane = True
    nontrivial = ball.norms[ball.word_length > 0]
    if nontrivial.size and float(np.min(nontrivial)) < 1e-4:
        anomalies.append(
            "nontrivial element displaces the basepoint by "
            f"{float(np.min(nontrivial)):.2e}; the group may be non-discrete "
            "or the generators non-reduced"
        )
        sane = False
    sample = ball.mats[:: max(1, len(ball) // 64)]
    worst = max(form_residual(m) for m in sample)
    if worst > 1e-6:
        anomalies.append(f"matrix drift reached {worst:.2e}; raise reorth frequency")
        sane = False
    if not sane:
        for msg in anomalies:
            warnings.warn(msg, DiscretenessWarning, stacklevel=3)


def poincare_partial(ball: OrbitBall, s, radius: float | None = None):
    """Partial Poincare sum over members: sum of exp(-s * norm).

    ``s`` may be scalar or an array (summed along the last axis against the
    member norms).  ``radius`` restricts to a smaller ball.
    """
    norms = ball.norms[ball.member_mask]
    if radius is not None:
        norms = norms[norms <= radius]
    s = np.asarray(s, dtype=float)
    return np.exp(-s[..., None] * norms).sum(axis=-1) if s.ndim else float(
        np.exp(-s * norms).sum()
    )


def estimate_critical_exponent(
    ball: OrbitBall,
    *,
    radii=None,
    window_fraction: float = 0.6,
    min_points: int = 4,
) -> CriticalExponentEstimate:
    """Growth-rate fit: slope of log #B_r over a top window of radii.

    By default the radii grid is unit-spaced from ``window_fraction * R`` up
    to R.  Callers fitting staircase-like growth (e.g. shells of a product
    set) should pass explicit ``radii`` at the shell tops instead.
    """
    if radii is None:
        top = ball.radius
        lo = window_fraction * top
        n = max(min_points, int(np.floor(top - lo)) + 1)
        radii = np.linspace(lo, top, n)
    radii = np.asarray(radii, dtype=float)
    counts = ball.counts_at(radii)
    if np.any(counts == 0):
        raise ValueError("empty ball inside the fit window; widen the window")
    logs = np.log(counts.astype(float))
    slope, intercept = np.polyfit(radii, logs, 1)
    residual = float(np.max(np.abs(slope * radii + intercept - logs)))
    return CriticalExponentEstimate(
        value=float(slope),
        intercept=float(intercept),
        residual=residual,
        radii=radii,
        log_counts=logs,
    )


def separated_net(
    ball: OrbitBall,
    scale: float,
    *,
    lo: float = 0.0,
    hi: float | None = None,
    max_size: int | None = None,
) -> np.ndarray:
    """Greedy ``scale``-separated subset of members, taken in norm order.

    Returns global row indices.  Restricting to a norm annulus [lo, hi]
    yields the alphabet-seeding nets; the greedy order (ascending norm)
    makes the result deterministic and biases it toward short elements.
    """
    members = ball.by_norm()
    norms = ball.norms[members]
    mask = norms >= lo
    if hi is not None:
        mask &= norms <= hi
    members = members[mask]
    if members.size == 0:
        return members
    points = ball.orbit_points(members)
    r, u = radial_split(points)
    kept: list[int] = []
    for i in range(members.shape[0]):
        if kept:
            d = split_distance(r[i], u[i], r[kept], u[kept])
            if float(np.min(d)) < scale:
                continue
        kept.append(i)
        if max_size is not None and len(kept) >= max_size:
            break
    return members[np.array(kept, dtype=np.int64)]


def orbit_distance(ball: OrbitBall, points):
    """Distance from query points to the enumerated orbit, with censoring.

    Returns (values, censored, argmin_rows); ties go to the first member
    row.  One :func:`~kleinian.hyperbolic.min_distance_to_set` pass over
    the member cloud, so memory stays bounded by its block size however
    many points are queried.  A value is censored when it reaches
    ``radius - d(x0, p)``: orbit points outside the ball could then be
    closer, so the minimum is only a lower-bound witness.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    members = ball.members
    vals, nearest = min_distance_to_set(pts, ball.orbit_points(members))
    args = members[nearest]
    censored = vals >= ball.radius - stable_arcosh(pts[:, 0])
    if np.ndim(points) == 1:
        return float(vals[0]), bool(censored[0]), int(args[0])
    return vals, censored, args
