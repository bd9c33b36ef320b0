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
Ray statistics (conical profiles, Myrberg witnesses) run against an
enumerated reference ball and are censored at its reliability horizon.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import nearest_point_on_geodesic
from .hyperbolic import (
    BoundaryPoint,
    Isometry,
    Point,
    basepoint,
    geodesic_point,
    gromov_product,
    radial_split,
    ray_points,
    stable_arcosh,
)
from .orbit import OrbitBall, orbit_distance
from .semigroup import SemigroupStage, TruncatedFamily, _require_matrices

__all__ = [
    "W_MIN",
    "TOL_SERIES",
    "MeasureError",
    "ExponentRegimeError",
    "HorizonError",
    "PSAtomSet",
    "Shadow",
    "ConicalProfile",
    "ps_atoms",
    "shadow_contains",
    "apex_products",
    "shadow_principle_report",
    "quasi_invariance_report",
    "shadow_nesting_report",
    "conical_profile",
    "myrberg_witness",
    "shadow_tail_report",
    "sublinear_shadow_tail",
    "write_atoms_csv",
    "write_profile_csv",
]

# atoms below this weight cannot move any statistic reported at TOL_SERIES
W_MIN = 1e-12
TOL_SERIES = 1e-6


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


@dataclass
class Shadow:
    """Region behind an apex: points z with (z | x0)_apex at most r."""

    apex: np.ndarray
    r: float
    apex_norm: float = 0.0
    apex_word: tuple | None = None

    def __post_init__(self):
        self.apex = np.asarray(self.apex, dtype=float)
        if self.apex_norm == 0.0:
            self.apex_norm = float(stable_arcosh(self.apex[0]))


def shadow_contains(z, shadow: Shadow, *, proxy_radius: float = 32.0) -> bool:
    """Membership test; boundary points enter via a far-point proxy.

    Coordinate arithmetic is reliable here only while the apex and the
    proxy stay at moderate radii; the report functions below use the
    word-level quotient route for far apexes instead.
    """
    if isinstance(z, BoundaryPoint):
        pt = z.ray_point(proxy_radius)
    elif isinstance(z, Point):
        pt = z.coords
    else:
        pt = np.asarray(z, dtype=float)
    x0 = basepoint(pt.shape[0] - 1)
    return float(gromov_product(pt, x0, shadow.apex)) <= shadow.r


# ---------------------------------------------------------------------------
# Atom sets.


@dataclass
class PSAtomSet:
    """Finite boundary measure of a truncated family at exponent ``s``.

    Atom f has weight e^{-s|f|} / Z with Z the truncated series, so the
    weights sum to one minus the recorded floor drop.  Atoms are the
    family rows ``family_rows`` that kept a weight; their words, norms,
    orbit columns f x0 (directions normalize them) and head norms |a f|
    are slices of the family store, whose row arithmetic
    (:meth:`TruncatedFamily.rows_after`) powers the stable
    Gromov-product machinery in :func:`apex_products`.  Quotient words
    there may fall below the weight floor, so their columns and head
    norms are read from the whole family (``family_head``).
    """

    s: float
    words: list
    norms: np.ndarray
    weights: np.ndarray
    columns: np.ndarray
    head_norms: np.ndarray
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
        # atom row of every family row, plus a final -1 for rows past the cap
        self._atom_row = np.full(len(self.family.words) + 1, -1, dtype=np.int64)
        self._atom_row[rows] = np.arange(rows.shape[0])

    def __len__(self) -> int:
        return len(self.words)

    def row_of(self, word: tuple) -> int:
        row = int(self._atom_row[self.family.row_of(word)])
        if row < 0:
            raise KeyError(tuple(word))
        return row

    def norm_of(self, word: tuple) -> float:
        return float(self.norms[self.row_of(word)])

    def weight_of(self, word: tuple) -> float:
        return float(self.weights[self.row_of(word)])

    def direction_of(self, word: tuple) -> BoundaryPoint:
        col = self.columns[self.row_of(word)]
        _, u = radial_split(col)
        return BoundaryPoint(u)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def ps_atoms(stage: SemigroupStage, s: float, *, w_min: float = W_MIN) -> PSAtomSet:
    """Weight the truncated family of ``stage`` at exponent ``s``.

    ``s`` must sit strictly above the stage's measured growth rate, or
    the weights concentrate on the truncation horizon and the series
    normalization means nothing.  Atoms under ``w_min`` are dropped with
    the lost mass recorded; words whose matrices overflowed never had
    computable weights and are counted separately.
    """
    pair = stage.pair
    _require_matrices(pair)
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
    keep = finite & (weights >= w_min)
    rows = np.flatnonzero(keep)
    return PSAtomSet(
        s=float(s),
        words=[fam.words[i] for i in rows.tolist()],
        norms=fam.norms[rows],
        weights=weights[rows],
        columns=fam.columns[rows],
        head_norms=head[rows],
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
    """
    g = tuple(apex_word)
    n = len(atoms.words)
    if not g:
        return np.zeros(n)
    ng = atoms.norm_of(g)
    fam = atoms.family
    out = np.empty(n)
    lengths = atoms.lengths
    letters = atoms.letters
    match = np.ones(n, dtype=bool)
    for p in range(len(g)):
        cont = match & (lengths > p) & (letters[:, p] == g[p])
        stop = match & ~cont
        if stop.any():
            g_row = fam.row_of(g[p:])
            short = stop & (lengths == p)
            if short.any():
                quot = atoms.family_head[g_row]
                out[short] = 0.5 * (ng + quot - atoms.norms[short])
            branch = stop & (lengths > p)
            if branch.any():
                gcol = fam.columns[g_row]
                if p == 0:
                    fcols = atoms.columns[branch]
                else:
                    fcols = fam.columns[fam.rows_after(-1, letters[branch, p:])]
                with np.errstate(over="ignore", invalid="ignore"):
                    cosh_d = gcol[0] * fcols[:, 0] - fcols[:, 1:] @ gcol[1:]
                quot = stable_arcosh(cosh_d)
                out[branch] = 0.5 * (ng + quot - atoms.norms[branch])
        match = cont
    if match.any():
        eq = match & (lengths == len(g))
        out[eq] = 0.0
        ext_mask = match & (lengths > len(g))
        if ext_mask.any():
            rows = fam.rows_after(-1, letters[ext_mask, len(g) :])
            out[ext_mask] = 0.5 * (
                ng + atoms.family_head[rows] - atoms.norms[ext_mask]
            )
    return out


def _is_prefix(atoms: PSAtomSet, g: tuple) -> np.ndarray:
    """True where g is an index prefix of the atom word (or equals it)."""
    L = len(g)
    ok = atoms.lengths >= L
    for p in range(L):
        ok &= atoms.letters[:, p] == g[p]
    return ok


# ---------------------------------------------------------------------------
# Shadow principle.


def shadow_principle_report(
    atoms: PSAtomSet,
    delta_F: float,
    pair,
    *,
    prefix_depth: int = 2,
    tol_series: float = TOL_SERIES,
) -> dict:
    """Measure shadows at family apexes against e^{-s|g|}.

    For every index word g up to ``prefix_depth`` the report computes
    mu_s(S(g x0, 8C)) e^{s|g|}.  The upper bound (ratio at most one) is
    truncation-stable: every shadow member h factors as g a k with k a
    shorter family word, so the shadow mass is dominated by e^{-s|g|}
    times the full truncated series.  The lower bound depends on tail
    mass and its literal constant is astronomically loose, so measured
    minima are reported, never asserted.
    """
    c = pair.scale
    r = 8.0 * c
    min_letter = float(np.min(atoms.norms[atoms.lengths == 1]))
    viability = {
        "threshold": r,
        "min_letter_norm": min_letter,
        "nesting_regime": bool(r < min_letter),
    }
    rows = []
    identity_ratio = atoms.total_mass()
    rows.append(
        {
            "word": [],
            "norm": 0.0,
            "mass": identity_ratio,
            "ratio": identity_ratio,
        }
    )
    for i in np.flatnonzero(atoms.lengths <= prefix_depth):
        g = atoms.words[i]
        prods = apex_products(atoms, g)
        member = prods <= r
        mass = float(atoms.weights[member].sum())
        ng = atoms.norm_of(g)
        rows.append(
            {
                "word": list(g),
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
        "upper_ok": bool(ratios.max() <= 1.0 + tol_series),
        "tol_series": tol_series,
        "equal_norm_spread": spreads,
        "viability": viability,
        "literal_lower_constant_log10": float(
            delta_F * 1e7 * c / math.log(10.0)
        ),
        "mass_drop": atoms.mass_drop,
    }


def quasi_invariance_report(
    atoms: PSAtomSet,
    pair,
    *,
    n_letters: int = 4,
    audit: int = 16,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Push shadow masses forward by h a and compare against e^{-s(|h|+|a|)}.

    For letters h and letter shadows O, every in-truncation transport
    h a O keeps at least e^{-s(|h| + |a|)} of the mass of O up to the
    recorded truncation slack (members of O too long to prepend).  The
    transported mass is counted on words extending h, an exact lower
    bound; a seeded audit double-checks that non-extending atoms really
    sit outside h a O via fully reduced label words.
    """
    s = atoms.s
    na = atoms.separator_norm
    r = 8.0 * atoms.scale
    letters = [atoms.words[i] for i in np.flatnonzero(atoms.lengths == 1)[:n_letters]]
    fam = atoms.family
    rng = np.random.default_rng(seed)
    checks = []
    audit_max = -math.inf
    audit_members = 0
    for k in letters:
        products = apex_products(atoms, k)
        member = products <= r
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
                    "ok": bool(lhs >= mass_o - slack - tol),
                }
            )
        outside = np.flatnonzero(~_is_prefix(atoms, k) & member)
        if outside.size:
            audit_members += int(outside.size)
        sample = rng.choice(
            np.flatnonzero(~member), size=min(audit, int((~member).sum())),
            replace=False,
        )
        if sample.size:
            audit_max = max(audit_max, float(products[sample].max()))
    return {
        "s": s,
        "n_checks": len(checks),
        "checks": checks,
        "all_ok": bool(all(c["ok"] for c in checks)),
        "min_margin": float(min(c["lhs"] - c["rhs"] for c in checks)),
        "boundary_members": audit_members,
        "audit_max_outside_product": audit_max,
    }


def shadow_nesting_report(
    atoms: PSAtomSet,
    pair,
    *,
    max_apexes: int = 200,
) -> dict:
    """Verify that small products against an apex force the prefix relation.

    For family words u, v: (x0 | u x0)_{v x0} below 9C happens only when
    v's indices are a prefix of u's.  Checked exactly on words over the
    lowest-norm apexes; any violation is returned, none is expected.
    """
    bound = 9.0 * pair.scale
    order = np.argsort(atoms.norms, kind="stable")[:max_apexes]
    violations = []
    n_inside = 0
    min_outside = math.inf
    for row in order:
        v = atoms.words[int(row)]
        prods = apex_products(atoms, v)
        inside = prods < bound
        ext = _is_prefix(atoms, v)
        n_inside += int(inside.sum())
        bad = inside & ~ext
        outside_vals = prods[~ext]
        if outside_vals.size:
            min_outside = min(min_outside, float(outside_vals.min()))
        for i in np.flatnonzero(bad):
            violations.append({"apex": list(v), "word": list(atoms.words[int(i)])})
    return {
        "bound": bound,
        "n_apexes": int(order.size),
        "n_inside": n_inside,
        "violations": violations,
        "ok": not violations,
        "min_product_outside": min_outside,
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
    caveat: str = "finite-window proxy"

    @property
    def samples(self) -> list:
        return list(zip(self.ts.tolist(), self.values.tolist()))


def _check_horizon(ref_ball: OrbitBall, t_max: float) -> None:
    """Raise :class:`HorizonError` past ``radius - prune_margin``."""
    margin = ref_ball.prune_margin if ref_ball.prune_margin else 0.0
    horizon = ref_ball.radius - margin
    if t_max > horizon + 1e-9:
        raise HorizonError(
            f"window {t_max:.3g} exceeds the reliable radius {horizon:.3g}"
        )


def conical_profile(
    xi: BoundaryPoint,
    ref_ball: OrbitBall,
    t_max: float,
    h_t: float = 0.1,
    *,
    tail_fraction: float = 0.5,
) -> ConicalProfile:
    """Sample f(t) = d(ray(t), orbit) along the ray toward ``xi``.

    The ray from the basepoint is radial, so samples are exact; distances
    come from the reference ball and are censored where orbit points
    outside the ball could be closer.  ``t_max`` must not exceed
    ``ref_ball.radius - ref_ball.prune_margin`` (else ``HorizonError``);
    then distances below ``prune_margin`` are uncensored everywhere in
    the window.
    """
    _check_horizon(ref_ball, t_max)
    if h_t <= 0.0:
        raise ValueError("sample step must be positive")
    ts = np.arange(0.0, t_max + 0.5 * h_t, h_t)
    values, censored, _ = orbit_distance(ref_ball, ray_points(xi.direction, ts))
    tail_start = tail_fraction * t_max
    tail = ts >= tail_start
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(ts > 0, values / np.maximum(ts, 1e-300), 0.0)
    return ConicalProfile(
        direction=xi,
        ts=ts,
        values=values,
        censored=censored,
        t_max=float(t_max),
        h_t=float(h_t),
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
    *,
    h_seg: float = 0.5,
) -> Isometry | None:
    """First ball element (shortlex) dragging [x0, g x0] into the ray tube.

    A witness h places every sample of h [x0, g x0] within ``K_nbhd`` of
    the ray window [x0, xi) cut at ``t_max``.  Endpoint distances give a
    cheap vectorized prefilter; surviving candidates are checked in
    shortlex order sample by sample.  Returning none only means no
    witness exists in this ball at this tube width.  ``t_max`` must not
    exceed ``ref_ball.radius - ref_ball.prune_margin`` (else
    ``HorizonError``), the horizon inside which distances below
    ``prune_margin`` are uncensored everywhere in the window.
    """
    _check_horizon(ref_ball, t_max)
    dim = ref_ball.spec.dim
    x0 = basepoint(dim)
    far = xi.ray_point(t_max)
    gx0 = g.orbit_point().coords
    seg_len = float(g.norm())
    if seg_len <= 1e-12:
        seg = x0[None, :]
    else:
        seg_ts = np.linspace(0.0, seg_len, max(int(math.ceil(seg_len / h_seg)) + 1, 2))
        seg = geodesic_point(x0, gx0, seg_ts)
    members = ref_ball.members
    mats = ref_ball.mats[members]
    ends_a = mats[:, :, 0]
    ends_b = mats @ gx0
    _, dist_a = nearest_point_on_geodesic(x0, far, ends_a)
    _, dist_b = nearest_point_on_geodesic(x0, far, ends_b)
    ok = (dist_a <= K_nbhd + 1e-9) & (dist_b <= K_nbhd + 1e-9)
    shortlist = members[ok]
    order = sorted(
        shortlist.tolist(),
        key=lambda i: (int(ref_ball.word_length[i]), ref_ball.word(int(i))),
    )
    for row in order:
        moved = ref_ball.mats[row] @ seg.T
        _, dists = nearest_point_on_geodesic(x0, far, moved.T)
        if np.all(dists <= K_nbhd + 1e-9):
            return ref_ball.element(int(row))
    return None


# ---------------------------------------------------------------------------
# Deep-excursion shadow families.


def shadow_tail_report(
    atoms: PSAtomSet,
    eta: float,
    delta_F: float,
    *,
    audit: int = 16,
    seed: int = 0,
) -> dict:
    """Shell-by-shell mass of the excursion shadows against the decay bound.

    A shadow S(g a h x0, 8C) joins shell R when R <= |g| <= R + 1 and
    |h| > eta |g|; each distinct apex counts once per shell.  Shadow
    masses are summed over extending words (exact at word level, and a
    lower bound in general); a seeded audit re-measures a few shadows
    with the full product test and reports any boundary members it finds.
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
    shell_of, rows = np.divmod(np.unique(np.concatenate(keys)), n)
    radii, starts = np.unique(shell_of, return_index=True)
    shells = dict(zip(radii.tolist(), np.split(rows, starts[1:])))
    rng = np.random.default_rng(seed)
    audit_rows: list = []
    if shells:
        candidates = np.unique(rows).tolist()
        pick = rng.choice(
            len(candidates), size=min(audit, len(candidates)), replace=False
        )
        audit_rows = [candidates[int(p)] for p in pick]
    boundary_members = 0
    audited_mass_gap = 0.0
    for i in audit_rows:
        w = atoms.words[i]
        member = apex_products(atoms, w) <= r
        exact = float(atoms.weights[member].sum())
        audited_mass_gap = max(audited_mass_gap, exact - float(ext_mass[i]))
        boundary_members += int(np.sum(member & ~_is_prefix(atoms, w)))
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


def sublinear_shadow_tail(atoms: PSAtomSet, eta: float, delta_F: float) -> float:
    """Largest shell mass relative to the decay bound; 0 for empty families."""
    return shadow_tail_report(atoms, eta, delta_F)["max_shell_ratio"]


# ---------------------------------------------------------------------------
# Exports.


def write_atoms_csv(atoms: PSAtomSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dirs = [f"u{i}" for i in range(1, atoms.dim + 1)]
        writer.writerow(dirs + ["weight", "norm", "word"])
        for i, w in enumerate(atoms.words):
            _, u = radial_split(atoms.columns[i])
            writer.writerow(
                [f"{x:.17g}" for x in u]
                + [
                    f"{atoms.weights[i]:.17g}",
                    f"{atoms.norms[i]:.17g}",
                    ".".join(str(j) for j in w),
                ]
            )


def write_profile_csv(profile: ConicalProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value", "censored"])
        for t, v, c in zip(profile.ts, profile.values, profile.censored):
            writer.writerow([f"{t:.17g}", f"{v:.17g}", int(c)])
