"""Atomic boundary measures on truncated families, shadows, and ray statistics.

A truncated family carries a finite measure at each exponent s above its
growth rate: every word f gets the weight e^{-s|f|} / Z with Z the
truncated series.  Pushed to the boundary along orbit directions this is
the finite stand-in for the limiting conformal measure, and the module
measures it against shadow sets, invariance inequalities, and the decay
of the deep-excursion shadow families.

Far apexes make raw coordinate geometry useless (transverse resolution
dies near radius 27), so every Gromov product against an apex F(g) x0 is
assembled from three stable norms instead:

    (f x0 | x0)_{F(g) x0} = (|g| + |g^{-1} f| - |f|) / 2

where the quotient norm comes from the word structure: a shared index
prefix cancels exactly, leaving either a pure tail a F(v) (norm read off
one extra row product) or a pair of family words branching at their
first letter (norm read off the Minkowski pairing of stored matrix
columns, accurate because branching words overlap only a bounded amount).

Every shadow report runs one pass over a batch of apexes on the word
tree of the family.  An atom f whose indices first differ from g's at
position p has product (|g| + arcosh c - |f|) / 2, c the pairing of the
quotient column q = col(g[p:]) with the tail column col(f[p:]).  Since

    log c <= arcosh c <= log 2c    (c >= 1),

that product is at most t only if c e^{-|f|} <= e^{2t - |g|}.  Each tree
node boxes the scaled tail columns col(f[p:]) e^{-|f|} of its atoms in
[lo, hi], spatial part negated so that q times one is c e^{-|f|}, and
sum_i min(q_i lo_i, q_i hi_i) bounds c e^{-|f|} below on the subtree.
At each branch position of g the pass skips the sibling subtrees whose
bound exceeds e^{2t - |g|}, widened by a relative 1e-9 and an absolute
1e-12 q_0, far above the roundoff of either side; a NaN bound expands.
g's prefixes and extensions and every expanded subtree get exact
products by the formulas of :func:`apex_products`, bit for bit.

Shadow membership (:func:`shadow_members`) tests at t = r.  The nesting
report needs every product below 9C and the smallest product outside
the extensions.  The least exact product U of the first atoms of the
sibling subtrees is at least that smallest one, so t = max(9C, U)
expands the subtree holding it and every atom below 9C.  Where
|g| + |f| passes 700 the exact pairing may overflow to NaN, which the
report must see, so there every subtree expands.

Ray statistics (conical profiles, Myrberg witnesses) run against an
enumerated reference ball and are censored at its reliability horizon.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from .hyperbolic import (
    BoundaryPoint,
    Isometry,
    radial_split,
    ray_coordinates,
    ray_distance,
    ray_points,
    stable_arcosh,
)
from .orbit import OrbitBall, orbit_distance
from .semigroup import SemigroupStage, TruncatedFamily, WordRows

__all__ = [
    "W_MIN",
    "TOL_SERIES",
    "MeasureError",
    "ExponentRegimeError",
    "HorizonError",
    "PSAtomSet",
    "ConicalProfile",
    "ps_atoms",
    "apex_products",
    "shadow_members",
    "shadow_principle_report",
    "quasi_invariance_report",
    "shadow_nesting_report",
    "conical_profile",
    "myrberg_witness",
    "shadow_tail_report",
]

# atoms below this weight cannot move any statistic reported at TOL_SERIES
W_MIN = 1e-12
TOL_SERIES = 1e-6
# the principle report measures shadows at every index word up to this length
PREFIX_DEPTH = 2
# the quasi-invariance report transports the shadows of this many letters
QUASI_LETTERS = 4
# shadows re-measured by the seeded audits of the quasi and tail reports
AUDIT_SIZE = 16
# the nesting report checks the words over this many lowest-norm apexes
MAX_APEXES = 200
# entries of one block of the apex pass (the sibling box bounds of a chunk
# of apexes, the exact products of a run of whole apexes): 8 MB of floats
SHADOW_BLOCK = 1 << 20
# conical profiles: ray sample step, and the window share before the tail
PROFILE_STEP = 0.1
TAIL_FRACTION = 0.5


class MeasureError(RuntimeError):
    """Base class for measure-side failures."""


class ExponentRegimeError(MeasureError):
    """The requested s does not sit above the truncated growth rate."""


class HorizonError(MeasureError):
    """The requested window exceeds the reference ball's reliable range.

    A window ``t_max`` must not exceed ``ref_ball.radius -
    ref_ball.prune_margin``.  ``orbit_distance`` censors a value at ray
    time t once it reaches ``radius - t``, so inside that horizon every
    orbit distance below ``prune_margin`` comes back uncensored.
    """


# ---------------------------------------------------------------------------
# Atom sets.


@dataclass
class PSAtomSet:
    """Finite boundary measure of a truncated family at exponent ``s``.

    Atom f has weight e^{-s|f|} / Z with Z the truncated series, so the
    weights sum to one minus the recorded floor drop.  Atoms are the
    family rows ``family_rows`` that kept a weight; their letters, norms
    and orbit columns f x0 (directions normalize them) are slices of the
    family store, and ``words`` is a view over the atom ``letters``.  Its
    row arithmetic (:meth:`TruncatedFamily.rows_after`) powers the stable
    Gromov-product machinery in :func:`apex_products`.
    Quotient words there may fall below the weight floor, so their
    columns and head norms |a f| are read from the whole family
    (``family_head``).
    """

    s: float
    norms: np.ndarray
    weights: np.ndarray
    columns: np.ndarray
    Z: float
    mass_drop: float
    dropped_floor: int
    dropped_overflow: int
    cap: int
    scale: float
    separator_norm: float
    dim: int
    family: TruncatedFamily = field(repr=False)
    family_rows: np.ndarray = field(repr=False)
    family_head: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = self.family_rows
        self.letters = np.asfortranarray(self.family.letters[rows])
        self.lengths = self.family.lengths[rows]
        self.words = WordRows(self.letters, self.lengths)
        # atom row of every family row, plus a final -1 for rows past the cap
        self._atom_row = np.full(len(self.family.words) + 1, -1, dtype=np.int64)
        self._atom_row[rows] = np.arange(rows.shape[0])

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def tree(self) -> SimpleNamespace:
        """Boxes over the word tree of the atoms, built on first use."""
        return _word_tree(self)

    def row_of(self, word: tuple) -> int:
        row = int(self._atom_row[self.family.row_of(word)])
        if row < 0:
            raise KeyError(tuple(word))
        return row

    def norm_of(self, word: tuple) -> float:
        return float(self.norms[self.row_of(word)])

    def total_mass(self) -> float:
        return float(self.weights.sum())


def ps_atoms(stage: SemigroupStage, s: float) -> PSAtomSet:
    """Weight the truncated family of ``stage`` at exponent ``s``.

    ``s`` must sit strictly above the stage's measured growth rate, or
    the weights concentrate on the truncation horizon and the series
    normalization means nothing.  Atoms under :data:`W_MIN` are dropped with
    the lost mass recorded; words whose matrices overflowed never had
    computable weights and are counted separately.
    """
    pair = stage.pair
    fam = stage.truncated_F
    delta = stage.interval[0]
    if s <= delta:
        raise ExponentRegimeError(
            f"s = {s:.6g} is not above the truncated growth rate {delta:.6g}"
        )
    a = pair.separator
    with np.errstate(over="ignore", invalid="ignore"):
        head = stable_arcosh(fam.columns @ a.matrix[0])
    z = fam.poincare(s)
    finite = np.isfinite(fam.norms)
    weights = np.zeros(len(fam.words))
    weights[finite] = np.exp(-s * fam.norms[finite]) / z
    keep = finite & (weights >= W_MIN)
    rows = np.flatnonzero(keep)
    return PSAtomSet(
        s=float(s),
        norms=fam.norms[rows],
        weights=weights[rows],
        columns=fam.columns[rows],
        Z=float(z),
        mass_drop=float(weights[finite & ~keep].sum()),
        dropped_floor=int(np.sum(finite & ~keep)),
        dropped_overflow=int(np.sum(~finite)),
        cap=fam.cap,
        scale=pair.scale,
        separator_norm=a.norm(),
        dim=a.dim,
        family=fam,
        family_rows=rows,
        family_head=head,
    )


# ---------------------------------------------------------------------------
# Word-level Gromov products against family apexes.


def apex_products(atoms: PSAtomSet, apex_word) -> np.ndarray:
    """(f x0 | x0) based at the apex F(g) x0, for every atom f at once.

    The shared index prefix of f and g cancels exactly; the leftover
    quotient is a pure tail (head-norm lookup) or a first-letter branch
    (Minkowski pairing of stored columns).  Nothing here touches far
    coordinates transversally, so the products stay accurate at any
    radius the truncation reaches.

    This is the one-apex reference: the reports use the screened pass
    behind :func:`shadow_members`, whose values equal it bit for bit.
    """
    return _products(atoms, tuple(apex_word), slice(None))


def _products(atoms: PSAtomSet, g: tuple, rows) -> np.ndarray:
    """:func:`apex_products` of the atoms at ``rows`` (index array or slice)."""
    lengths = atoms.lengths[rows]
    letters = atoms.letters[rows]
    norms = atoms.norms[rows]
    n = lengths.shape[0]
    if not g:
        return np.zeros(n)
    ng = atoms.norm_of(g)
    fam = atoms.family
    out = np.empty(n)
    match = np.ones(n, dtype=bool)
    for p in range(len(g)):
        cont = match & (lengths > p) & (letters[:, p] == g[p])
        stop = match & ~cont
        if stop.any():
            g_row = fam.row_of(g[p:])
            short = stop & (lengths == p)
            if short.any():
                quot = atoms.family_head[g_row]
                out[short] = 0.5 * (ng + quot - norms[short])
            branch = stop & (lengths > p)
            if branch.any():
                gcol = fam.columns[g_row]
                if p == 0:
                    fcols = atoms.columns[rows][branch]
                else:
                    fcols = fam.columns[fam.rows_after(-1, letters[branch, p:])]
                quot = stable_arcosh(_pairing(gcol, fcols))
                out[branch] = 0.5 * (ng + quot - norms[branch])
        match = cont
    if match.any():
        eq = match & (lengths == len(g))
        out[eq] = 0.0
        ext_mask = match & (lengths > len(g))
        if ext_mask.any():
            ext = fam.rows_after(-1, letters[ext_mask, len(g) :])
            out[ext_mask] = 0.5 * (ng + atoms.family_head[ext] - norms[ext_mask])
    return out


def _pairing(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minkowski pairings g_0 f_0 - g . f over the last axis, broadcast.

    Formed one coordinate at a time, so a pair's value does not depend on
    the batch it is computed in (a BLAS product rounds its short sums
    differently for one row and for many).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = g[..., 0] * f[..., 0]
        for j in range(1, g.shape[-1]):
            c -= g[..., j] * f[..., j]
    return c


def _extension_rows(atoms: PSAtomSet, g: tuple) -> np.ndarray:
    """Atom rows, in order, of the words that extend g (g included).

    In the length-then-lex tree the words that extend the family rows
    [lo, hi) by one letter are the rows [n (lo + 1), n (hi + 1)), so the
    extensions of g at each length are one run of family rows; atom rows
    keep family order, so ``searchsorted`` maps each run to atom rows.
    """
    fam = atoms.family
    n = fam.n_letters
    lo = -1
    for j in g:
        lo = n * (lo + 1) + int(j)
    hi = lo + 1
    runs = []
    while lo < len(fam.words):
        runs.append((lo, hi))
        lo, hi = n * (lo + 1), n * (hi + 1)
    bounds = np.searchsorted(atoms.family_rows, runs).tolist()
    return np.concatenate([np.arange(lo, hi) for lo, hi in bounds])


def _is_prefix(atoms: PSAtomSet, g: tuple) -> np.ndarray:
    """True where g is an index prefix of the atom word (or equals it)."""
    ok = np.zeros(len(atoms), dtype=bool)
    ok[_extension_rows(atoms, g)] = True
    return ok


def _screen_bound(q0, g_norms, t) -> np.ndarray:
    """Bound above c e^{-|f|} of every atom f with product at most t off an
    apex of norm |g| through a quotient column with time coordinate q0,
    widened past the roundoff of both pairings."""
    with np.errstate(over="ignore"):
        return np.exp(2.0 * t - g_norms) * (1.0 + 1e-9) + 1e-12 * q0


def _box_bound(q, lo, hi) -> np.ndarray:
    """Sum over the first axis of min(q_i lo_i, q_i hi_i): at most q . s
    for every s in the box [lo, hi], broadcast over the other axes."""
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(np.minimum(q[i] * lo[i], q[i] * hi[i]) for i in range(len(q)))


def _word_tree(atoms: PSAtomSet) -> SimpleNamespace:
    """Boxes over the word tree of the atoms.

    ``tails[p]``: family row of each atom's tail f[p:], -1 past its end.
    A word v of d letters is node ``base[d] + local(v)``, local(v) the
    base-n value of v; ``order[starts[k]:starts[k + 1]]`` are the atom
    rows under node k in atom order, and below the cap ``box[:, :, k]``
    holds the lows and highs of their scaled tail columns (module
    docstring).  Each depth ends with a spare node, so k + 1 is a node.
    """
    fam, n, cap, dim = atoms.family, atoms.family.n_letters, atoms.cap, atoms.dim
    tails = np.stack([fam.rows_after(-1, atoms.letters[:, p:]) for p in range(cap + 1)])
    base = np.cumsum([0, 0] + [n**d + 1 for d in range(1, cap)])
    first_row = np.cumsum([0, 0] + [n**d for d in range(1, cap)])
    local = atoms.family_rows - first_row[atoms.lengths]
    # coordinate-major family columns with the spatial part negated
    cols = fam.columns.T * np.where(np.arange(dim + 1), -1.0, 1.0)[:, None]
    scale = np.exp(-atoms.norms)
    order, starts = [], []
    box = np.zeros((2, dim + 1, base[cap]))
    for d in range(1, cap + 1):
        rows = np.flatnonzero(atoms.lengths >= d)
        keys = local[rows] // n ** (atoms.lengths[rows] - d)
        sort = np.argsort(keys, kind="stable")
        rows, keys = rows[sort], keys[sort]
        cut = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n**d))])
        starts.append(cut + sum(o.size for o in order))
        order.append(rows)
        if d < cap:
            full = np.flatnonzero(cut[:-1] < cut[1:])
            scaled = cols[:, tails[d - 1, rows]] * scale[rows]
            box[0][:, base[d] + full] = np.minimum.reduceat(scaled, cut[full], axis=1)
            box[1][:, base[d] + full] = np.maximum.reduceat(scaled, cut[full], axis=1)
    order, starts = np.concatenate(order), np.concatenate(starts)
    return SimpleNamespace(tails=tails, base=base, order=order, starts=starts, box=box)


def _pair_products(atoms: PSAtomSet, g, f, p) -> np.ndarray:
    """Products of the atoms f against the apexes g, pair by pair, with p
    the length of their common index prefix: a pure tail (f extends g, or
    f is g[:p]) reads a head norm, and a branch pairs the tail columns.
    These are the formulas of :func:`_products`, so every value equals
    it bit for bit."""
    tails = atoms.tree.tails
    q, t = tails[p, g], tails[p, f]
    quot = atoms.family_head[np.where(t >= 0, t, q)]
    branch = (q >= 0) & (t >= 0)
    cols = atoms.family.columns
    quot[branch] = stable_arcosh(_pairing(cols[q[branch]], cols[t[branch]]))
    out = 0.5 * (atoms.norms[g] + quot - atoms.norms[f])
    out[g == f] = 0.0
    return out


def _apex_blocks(atoms: PSAtomSet, apex_rows, r: float, work, *, nesting=False):
    """Exact products of every atom that can bear on S(g x0, r), for the
    atom g at each of ``apex_rows``.

    Yields (j0, j1, ka, rows, products, ext) per block of the apexes
    j0 <= i < j1 of ``apex_rows``: ``ka`` (ascending) is each row's apex
    and ``ext`` marks the rows that extend it.  An apex g's rows, each
    once, are g's prefixes and extensions and every sibling subtree of
    its path whose box bound is at most :func:`_screen_bound` at t = r,
    or with ``nesting`` at max(r, U) (module docstring).  ``work`` counts box
    tests, expanded subtrees and exact products.  Box arrays hold at most
    :data:`SHADOW_BLOCK` entries, exact products that plus one apex's.
    """
    tree, n = atoms.tree, atoms.family.n_letters
    apex_rows = np.asarray(apex_rows, dtype=np.int64)
    top = float(atoms.norms.max(initial=0.0))
    step = max(1, SHADOW_BLOCK // (n * (atoms.dim + 1)))
    for c0 in range(0, apex_rows.shape[0], step):
        g = apex_rows[c0 : c0 + step]
        ng, glen, glet = atoms.norms[g], atoms.lengths[g], atoms.letters[g]
        # segments (apex, start and end in tree.order, branch position)
        segs, tests = [], []
        node = np.zeros(g.shape, dtype=np.int64)
        for p in range(int(glen.max(initial=0)) + 1):
            live = np.flatnonzero(glen >= p)
            if p:
                # at p = |g| the whole subtree of g; below it g[:p] alone,
                # when an atom, which comes first under its node
                s0 = tree.starts[tree.base[p] + node[live]]
                s1 = tree.starts[tree.base[p] + node[live] + 1]
                first = tree.order[np.minimum(s0, tree.order.size - 1)]
                own = (s0 < s1) & (atoms.lengths[first] == p)
                end = np.where(glen[live] == p, s1, s0 + own)
                segs.append((live, s0, end, np.full(live.size, p)))
            live = live[glen[live] > p]
            if not live.size:
                break
            # the children of g[:p] are n consecutive nodes from
            # base[p + 1] + n local(g[:p]): one row of the depth's table
            kids = np.s_[tree.base[p + 1] : tree.base[p + 1] + n ** (p + 1)]
            at = node[live]
            s0 = tree.starts[kids].reshape(-1, n)[at]
            s1 = tree.starts[kids.start + 1 : kids.stop + 1].reshape(-1, n)[at]
            q = atoms.family.columns[tree.tails[p, g[live]]].T[:, :, None]
            bound = np.full(s0.shape, -np.inf)
            if p + 1 < atoms.cap:
                lo, hi = tree.box[:, :, kids].reshape(2, len(q), -1, n)[:, :, at]
                bound = _box_bound(q, lo, hi)
            a, b = np.nonzero((s0 < s1) & (np.arange(n) != glet[live, p, None]))
            pa = np.full(a.size, p)
            tests.append((live[a], s0[a, b], s1[a, b], pa, bound[a, b], q[0, a, 0]))
            node[live] = node[live] * n + glet[live, p]
        ta, t0, t1, tp, tb, q0 = (np.concatenate(x) for x in zip(*tests))
        t = r
        if nesting:
            u = np.full(g.shape, np.inf)
            work["exact_pairs"] += ta.size
            # a NaN U expands every subtree; so does |g| + |f| past 700,
            # where the report must see the NaN of an overflowing pairing
            with np.errstate(invalid="ignore"):
                np.minimum.at(u, ta, _pair_products(atoms, g[ta], tree.order[t0], tp))
                t = np.where(ng + top > 700.0, np.inf, np.maximum(r, u))[ta]
        keep = ~(tb > _screen_bound(q0, ng[ta], t))  # NaN bounds expand
        work["box_tests"] += ta.size
        work["expanded_subtrees"] += int(keep.sum())
        segs.append((ta[keep], t0[keep], t1[keep], tp[keep]))
        sa, s0, s1, sp = (np.concatenate(x) for x in zip(*segs))
        o = np.argsort(sa, kind="stable")
        sa, s0, sp, size = sa[o], s0[o], sp[o], (s1 - s0)[o]
        # blocks of whole apexes, each starting within SHADOW_BLOCK pairs
        per = np.bincount(sa, weights=size, minlength=g.size).astype(np.int64)
        block = (np.cumsum(per) - per) // SHADOW_BLOCK
        for a0 in np.flatnonzero(np.diff(block, prepend=-1)).tolist():
            a1 = int(np.searchsorted(block, block[a0] + 1))
            s = slice(*np.searchsorted(sa, [a0, a1]))
            pos = np.repeat(s0[s] - np.cumsum(size[s]) + size[s], size[s])
            pos += np.arange(pos.size)
            ka, pa = np.repeat(sa[s], size[s]), np.repeat(sp[s], size[s])
            rows = tree.order[pos]
            prods = _pair_products(atoms, g[ka], rows, pa)
            work["exact_pairs"] += rows.size
            yield c0 + a0, c0 + a1, c0 + ka, rows, prods, pa == glen[ka]


def _apex_pass(atoms: PSAtomSet, apex_rows, r: float, work, *, nesting=False):
    """The blocks of :func:`_apex_blocks` apex by apex: yields (i, rows,
    products, ext), i an index into ``apex_rows``."""
    for j0, j1, ka, *cols in _apex_blocks(atoms, apex_rows, r, work, nesting=nesting):
        cuts = np.searchsorted(ka, np.arange(j0 + 1, j1))
        yield from zip(range(j0, j1), *(np.split(c, cuts) for c in cols))


def shadow_members(atoms: PSAtomSet, apex_rows, r: float, work=None) -> list:
    """Atom rows in S(g x0, r), in atom order, for the atom g at each of
    ``apex_rows``: ``np.flatnonzero(apex_products(atoms, g) <= r)``.

    One :func:`_apex_blocks` pass at threshold r, one sort of (apex, row)
    keys per block; ``work`` (a ``Counter``) adds up its box tests,
    expanded subtrees and exact products.
    """
    out = [None] * len(apex_rows)
    work = Counter() if work is None else work
    for j0, j1, ka, rows, prods, _ in _apex_blocks(atoms, apex_rows, r, work):
        # ka ascends, so the sorted keys keep it: their rows are key - ka n
        ka, rows = ka[prods <= r], rows[prods <= r]
        rows = np.sort(ka * len(atoms) + rows) - ka * len(atoms)
        out[j0:j1] = np.split(rows, np.searchsorted(ka, np.arange(j0 + 1, j1)))
    return out


# ---------------------------------------------------------------------------
# Shadow principle.


def shadow_principle_report(atoms: PSAtomSet, delta_F: float, pair) -> dict:
    """Measure shadows at family apexes against e^{-s|g|}.

    For every index word g of length at most ``PREFIX_DEPTH`` the report
    computes mu_s(S(g x0, 8C)) e^{s|g|}.  The upper bound (ratio at most
    one) is truncation-stable: every shadow member h factors as g a k
    with k a shorter family word, so the shadow mass is dominated by
    e^{-s|g|} times the full truncated series.  The lower bound depends on tail
    mass and its literal constant is astronomically loose, so measured
    minima are reported, never asserted.

    All shadows come from one :func:`shadow_members` pass, which skips a
    sibling subtree of g's path only when its box bound on c e^{-|f|}
    exceeds e^{2r - |g|} (1 + 1e-9) + 1e-12 q_0 (module docstring), so
    each mass is the per-apex one, bit for bit.  ``screen`` carries the
    pass's box tests, expanded subtrees and exact products.
    """
    c = pair.scale
    r = 8.0 * c
    min_letter = float(np.min(atoms.norms[atoms.lengths == 1]))
    viability = {
        "threshold": r,
        "min_letter_norm": min_letter,
        "nesting_regime": bool(r < min_letter),
    }
    identity_ratio = atoms.total_mass()
    rows = [{"word": [], "norm": 0.0, "mass": identity_ratio, "ratio": identity_ratio}]
    apexes = np.flatnonzero(atoms.lengths <= PREFIX_DEPTH)
    work = Counter()
    words = atoms.letters[apexes].tolist()  # one bulk read beats a view read per row
    members = shadow_members(atoms, apexes, r, work)
    for i, word, member in zip(apexes.tolist(), words, members):
        mass = float(atoms.weights[member].sum())
        ng = float(atoms.norms[i])
        rows.append(
            {
                "word": word[: atoms.lengths[i]],
                "norm": ng,
                "mass": mass,
                "ratio": float(mass * math.exp(atoms.s * ng)),
            }
        )
    ratios = np.array([row["ratio"] for row in rows])
    by_norm: dict = {}
    for row in rows[1:]:
        by_norm.setdefault(round(row["norm"], 6), []).append(row["ratio"])
    spreads = {
        str(k): float(max(v) - min(v)) for k, v in by_norm.items() if len(v) > 1
    }
    return {
        "s": atoms.s,
        "delta_F": float(delta_F),
        "threshold": r,
        "n_prefixes": len(rows),
        "prefixes": rows,
        "max_ratio": float(ratios.max()),
        "min_ratio": float(ratios.min()),
        "upper_ok": bool(ratios.max() <= 1.0 + TOL_SERIES),
        "tol_series": TOL_SERIES,
        "equal_norm_spread": spreads,
        "viability": viability,
        "literal_lower_constant_log10": float(
            delta_F * 1e7 * c / math.log(10.0)
        ),
        "mass_drop": atoms.mass_drop,
        "screen": dict(work),
    }


def quasi_invariance_report(
    atoms: PSAtomSet,
    pair,
    *,
    seed: int = 0,
) -> dict:
    """Push shadow masses forward by h a and compare against e^{-s(|h|+|a|)}.

    For h and O among the first ``QUASI_LETTERS`` letters and their
    shadows, every in-truncation transport h a O keeps at least
    e^{-s(|h| + |a|)} of the mass of O up to the recorded truncation
    slack (members of O too long to prepend).  The transported mass is
    counted on words extending h, an exact lower bound; a seeded audit of
    ``AUDIT_SIZE`` atoms double-checks that non-extending atoms really
    sit outside h a O via fully reduced label words.

    All shadows come from one :func:`shadow_members` call, and exact
    products are formed for the audit sample alone.
    """
    s = atoms.s
    na = atoms.separator_norm
    r = 8.0 * atoms.scale
    first = np.flatnonzero(atoms.lengths == 1)[:QUASI_LETTERS]
    letters = [atoms.words[i] for i in first]
    fam = atoms.family
    rng = np.random.default_rng(seed)
    checks = []
    audit_max = -math.inf
    audit_members = 0
    for k, member in zip(letters, shadow_members(atoms, first, r)):
        mass_o = float(atoms.weights[member].sum())
        for h in letters:
            nh = atoms.norm_of(h)
            hv = fam.rows_after(fam.row_of(h), atoms.letters[member])
            hv = atoms._atom_row[np.minimum(hv, len(fam.words))]
            moved = float(atoms.weights[hv[hv >= 0]].sum())
            # transported words that fell off the truncation or the floor
            slack = float(atoms.weights[member][hv < 0].sum())
            lhs = moved * math.exp(s * (nh + na))
            checks.append(
                {
                    "h": list(h),
                    "apex": list(k),
                    "transported": moved,
                    "mass": mass_o,
                    "slack": slack,
                    "lhs": float(lhs),
                    "rhs": float(mass_o - slack),
                    "ok": bool(lhs >= mass_o - slack - 1e-9),
                }
            )
        audit_members += int(np.count_nonzero(~_is_prefix(atoms, k)[member]))
        rest = np.ones(len(atoms), dtype=bool)
        rest[member] = False
        sample = rng.choice(
            np.flatnonzero(rest), size=min(AUDIT_SIZE, int(rest.sum())),
            replace=False,
        )
        if sample.size:
            audit_max = max(audit_max, float(_products(atoms, k, sample).max()))
    return {
        "s": s,
        "n_checks": len(checks),
        "checks": checks,
        "all_ok": bool(all(c["ok"] for c in checks)),
        "min_margin": float(min(c["lhs"] - c["rhs"] for c in checks)),
        "boundary_members": audit_members,
        "audit_max_outside_product": audit_max,
    }


def shadow_nesting_report(atoms: PSAtomSet, pair) -> dict:
    """Verify that small products against an apex force the prefix relation.

    For family words u, v: (x0 | u x0)_{v x0} below 9C happens only when
    v's indices are a prefix of u's.  Checked on every atom against each
    of the ``MAX_APEXES`` lowest-norm apexes v: ``n_inside`` counts the
    pairs below 9C, ``violations`` lists those where v is no prefix (none
    is expected), apex by apex in atom order, and ``min_product_outside``
    is the smallest product of a word that does not extend its apex (inf
    when every atom extends every apex).  An apex whose products outside
    its extensions include a NaN (a pairing past the float range) has a
    NaN minimum, which ``min_product_outside`` passes over;
    ``nan_apexes`` counts those apexes.

    One :func:`_apex_pass` in nesting mode decides it: the apex's
    prefixes and extensions get exact products, and a sibling subtree of
    its path only when its box bound is at most the nesting threshold
    max(9C, U) (module docstring).  Every value is the per-apex one, bit
    for bit, and ``screen`` carries the pass's work.
    """
    bound = 9.0 * pair.scale
    order = np.argsort(atoms.norms, kind="stable")[:MAX_APEXES]
    n_inside = nan_apexes = 0
    # min() passes over a NaN apex minimum, so the apex order does not matter
    min_outside = math.inf
    bad = [None] * order.size
    work = Counter()
    for i, rows, prods, ext in _apex_pass(atoms, order, bound, work, nesting=True):
        inside = prods < bound
        n_inside += int(inside.sum())
        bad[i] = np.sort(rows[inside & ~ext])
        if not ext.all():
            outside = prods[~ext].min()
            nan_apexes += bool(np.isnan(outside))
            min_outside = min(min_outside, float(outside))
    violations = [
        {"apex": list(atoms.words[row]), "word": list(atoms.words[j])}
        for row, rows in zip(order.tolist(), bad)
        for j in rows.tolist()
    ]
    return {
        "bound": bound,
        "n_apexes": int(order.size),
        "n_inside": n_inside,
        "violations": violations,
        "ok": not violations,
        "min_product_outside": min_outside,
        "nan_apexes": nan_apexes,
        "screen": dict(work),
    }


# ---------------------------------------------------------------------------
# Ray statistics.


@dataclass
class ConicalProfile:
    """Orbit-distance profile along one boundary ray, horizon-censored.

    The classification numbers are window statistics only: the window
    maximum proxies uniform conicality, the tail minimum proxies
    conicality, the tail maximum of f(t)/t proxies sublinearity.  None
    of them decide the limiting behavior; ``caveat`` says so.
    """

    direction: BoundaryPoint
    ts: np.ndarray
    values: np.ndarray
    censored: np.ndarray
    t_max: float
    h_t: float
    tail_start: float
    window_max: float
    tail_min: float
    tail_max_ratio: float
    caveat: ClassVar[str] = "finite-window proxy"

    @property
    def samples(self) -> list:
        return list(zip(self.ts.tolist(), self.values.tolist()))


def _check_horizon(ref_ball: OrbitBall, t_max: float) -> None:
    """Raise :class:`HorizonError` past ``radius - prune_margin``."""
    horizon = ref_ball.radius - ref_ball.prune_margin
    if t_max > horizon + 1e-9:
        raise HorizonError(
            f"window {t_max:.3g} exceeds the reliable radius {horizon:.3g}"
        )


def conical_profile(
    xi: BoundaryPoint, ref_ball: OrbitBall, t_max: float
) -> ConicalProfile:
    """Sample f(t) = d(ray(t), orbit) along the ray toward ``xi``, every
    ``PROFILE_STEP``, with the tail from ``TAIL_FRACTION * t_max`` on.

    The ray from the basepoint is radial, so samples are exact; distances
    come from the reference ball and are censored where orbit points
    outside the ball could be closer.  ``t_max`` must not exceed
    ``ref_ball.radius - ref_ball.prune_margin`` (else ``HorizonError``);
    then distances below ``prune_margin`` are uncensored everywhere in
    the window.  The samples stop at ``t_max``, and the tail holds at
    least the last one.
    """
    if not t_max >= 0.0:
        raise ValueError(f"window {t_max!r} must be nonnegative")
    _check_horizon(ref_ball, t_max)
    n = math.floor(t_max / PROFILE_STEP + 1e-9) + 1
    ts = np.minimum(np.arange(n) * PROFILE_STEP, t_max)
    values, censored, _ = orbit_distance(ref_ball, ray_points(xi.direction, ts))
    tail_start = TAIL_FRACTION * t_max
    tail = ts >= min(tail_start, ts[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(ts > 0, values / np.maximum(ts, 1e-300), 0.0)
    return ConicalProfile(
        direction=xi,
        ts=ts,
        values=values,
        censored=censored,
        t_max=float(t_max),
        h_t=PROFILE_STEP,
        tail_start=float(tail_start),
        window_max=float(values.max()),
        tail_min=float(values[tail].min()),
        tail_max_ratio=float(ratios[tail].max()),
    )


def myrberg_witness(
    xi: BoundaryPoint,
    g: Isometry,
    K_nbhd: float,
    ref_ball: OrbitBall,
    t_max: float,
) -> Isometry | None:
    """First ball element (shortlex) dragging [x0, g x0] into the ray tube.

    A witness h places every point of h [x0, g x0] within ``K_nbhd`` of
    the ray window [x0, xi) cut at ``t_max``.  Distances to the window
    come in closed form from :func:`~kleinian.hyperbolic.ray_coordinates`,
    with the foot clamped to [0, t_max].  The window is a geodesic
    segment, so the distance to it is convex along h [x0, g x0]
    (Bridson-Haefliger II.2) and stays within ``K_nbhd`` there exactly
    when it does at both endpoints.  The x0 endpoints h x0 are the
    orbit points, tested at once from the ball's cached
    :attr:`~kleinian.orbit.OrbitBall.member_split`; only the members
    that pass form h g x0, whose test decides, and the shortlex-first
    passing member is returned.  Returning none only
    means no witness exists in this ball at this tube width.  ``t_max``
    must not exceed ``ref_ball.radius - ref_ball.prune_margin`` (else
    ``HorizonError``), the horizon inside which distances below
    ``prune_margin`` are uncensored everywhere in the window.
    """
    _check_horizon(ref_ball, t_max)

    def in_tube(r, u):
        h, t = ray_coordinates(r, u, xi.direction)
        return ray_distance(h, t, np.clip(t, 0.0, t_max)) <= K_nbhd + 1e-9

    members, r, u = ref_ball.member_split
    near = members[in_tube(r, u)]
    far = ref_ball.mats[near] @ g.orbit_point().coords
    inside = near[in_tube(*radial_split(far))]
    if inside.size == 0:
        return None
    words = ref_ball.words(inside)
    first = np.lexsort((*words.T[::-1], ref_ball.word_length[inside]))[0]
    return ref_ball.element(int(inside[first]))


# ---------------------------------------------------------------------------
# Deep-excursion shadow families.


def shadow_tail_report(
    atoms: PSAtomSet,
    eta: float,
    delta_F: float,
    *,
    seed: int = 0,
) -> dict:
    """Shell-by-shell mass of the excursion shadows against the decay bound.

    A shadow S(g a h x0, 8C) joins shell R when R <= |g| <= R + 1 and
    |h| > eta |g|; each distinct apex counts once per shell.  Shadow
    masses are summed over extending words (exact at word level, and a
    lower bound in general); a seeded audit re-measures ``AUDIT_SIZE``
    shadows with the full product test and reports any boundary members it finds.
    Shell sums are compared with 1.1 e^{-0.5 delta_F eta R}.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must sit strictly between 0 and 1")
    r = 8.0 * atoms.scale
    fam = atoms.family
    # mass of each word's extension cone, leaves first: the n children of
    # family row q are the consecutive rows n (q + 1) + j
    cone = np.zeros(len(fam.words))
    cone[atoms.family_rows] = atoms.weights
    for length in range(fam.cap, 1, -1):
        child = np.flatnonzero(fam.lengths == length)
        parent = np.flatnonzero(fam.lengths == length - 1)
        cone[parent] += cone[child].reshape(-1, fam.n_letters).sum(axis=1)
    ext_mass = cone[atoms.family_rows]
    # distinct (shell, atom) pairs, keyed shell * n + row, over every
    # split w = g h after position j
    n = len(atoms)
    keys = [np.empty(0, dtype=np.int64)]
    for j in range(1, atoms.cap):
        rows = np.flatnonzero(atoms.lengths > j)
        ng = fam.norms[fam.rows_after(-1, atoms.letters[rows, :j])]
        nh = fam.norms[fam.rows_after(-1, atoms.letters[rows, j:])]
        hit = nh > eta * ng
        keys.append(np.floor(ng[hit]).astype(np.int64) * n + rows[hit])
    # np.unique by a sort and a neighbour compare (all values are >= 0),
    # far faster than np.unique itself on these arrays
    keys = np.sort(np.concatenate(keys))
    shell_of, rows = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    starts = np.flatnonzero(np.diff(shell_of, prepend=-1))
    shells = dict(zip(shell_of[starts].tolist(), np.split(rows, starts[1:])))
    rng = np.random.default_rng(seed)
    audit_rows: list = []
    if shells:
        candidates = np.sort(rows)
        candidates = candidates[np.diff(candidates, prepend=-1) != 0].tolist()
        pick = rng.choice(
            len(candidates), size=min(AUDIT_SIZE, len(candidates)), replace=False
        )
        audit_rows = [candidates[int(p)] for p in pick]
    boundary_members = 0
    audited_mass_gap = 0.0
    for i, member in zip(audit_rows, shadow_members(atoms, audit_rows, r)):
        exact = float(atoms.weights[member].sum())
        audited_mass_gap = max(audited_mass_gap, exact - float(ext_mass[i]))
        outside = ~_is_prefix(atoms, atoms.words[i])[member]
        boundary_members += int(np.count_nonzero(outside))
    shell_rows = []
    max_ratio = 0.0
    for R in sorted(shells):
        total = float(ext_mass[shells[R]].sum())
        bound = 1.1 * math.exp(-0.5 * delta_F * eta * R)
        ratio = total / bound
        max_ratio = max(max_ratio, ratio)
        shell_rows.append(
            {
                "R": int(R),
                "n_shadows": len(shells[R]),
                "mass": total,
                "bound": float(bound),
                "ratio": float(ratio),
            }
        )
    slope = 0.0
    if len(shell_rows) >= 2:
        rs = np.array([row["R"] for row in shell_rows], dtype=float)
        logs = np.log(np.maximum([row["mass"] for row in shell_rows], 1e-300))
        slope = float(np.polyfit(rs, logs, 1)[0])
    return {
        "eta": float(eta),
        "delta_F": float(delta_F),
        "threshold": r,
        "shells": shell_rows,
        "max_shell_ratio": float(max_ratio),
        "decay_slope": slope,
        "boundary_members": boundary_members,
        "audited_mass_gap": float(audited_mass_gap),
        "n_audited": len(audit_rows),
    }
