"""Ball enumeration against brute-force word oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from kleinian import orbit
from kleinian.groups import cyclic, punctured_torus, schottky
from kleinian.hyperbolic import (
    boost,
    form_residual,
    pairwise_distance,
    radial_split,
    ray_points,
    rotation,
    split_distance,
    stable_arcosh,
)
from kleinian.orbit import (
    DiscretenessWarning,
    EnumerationBudgetError,
    GroupSpec,
    enumerate_ball,
    estimate_critical_exponent,
    orbit_distance,
    poincare_partial,
    separated_net,
    sl2_norm,
    sl2_to_so21,
)


def brute_words(letter_mats, max_len, *, no_backtrack_pairs=None):
    """Every word up to max_len as (word, matrix), plain python loops.

    ``no_backtrack_pairs`` is a set of forbidden adjacent letter-index
    pairs; used to walk reduced words of a free group.
    """
    out = [((), np.eye(letter_mats[0].shape[0]))]
    frontier = [((), np.eye(letter_mats[0].shape[0]))]
    for _ in range(max_len):
        new = []
        for word, mat in frontier:
            for j, lm in enumerate(letter_mats):
                if word and no_backtrack_pairs and (word[-1], j) in no_backtrack_pairs:
                    continue
                new.append((word + (j,), mat @ lm))
        out.extend(new)
        frontier = new
    return out


def test_cyclic_ball_exact_counts():
    ball = enumerate_ball(cyclic(1.0), 3.5)
    assert ball.n_members == 7
    norms = np.sort(ball.norms[ball.members])
    assert np.allclose(norms, [0, 1, 1, 2, 2, 3, 3], atol=1e-12)
    words = sorted(ball.word(i) for i in ball.members)
    assert ((1, 1, 1) in words) and ((-1, -1, -1) in words)
    assert (1, -1) not in words


def test_poincare_partial_geometric_sum():
    ball = enumerate_ball(cyclic(1.0), 10.5)
    s = 0.3
    want = 1.0 + 2.0 * sum(math.exp(-s * n) for n in range(1, 11))
    assert np.isclose(poincare_partial(ball, s), want, rtol=1e-12)
    # vector argument and radius restriction
    got = poincare_partial(ball, np.array([0.3, 1.0]), radius=4.0)
    want4 = [1.0 + 2.0 * sum(math.exp(-t * n) for n in range(1, 5)) for t in (0.3, 1.0)]
    assert np.allclose(got, want4)


def test_schottky_ball_matches_brute_force():
    spec = schottky(2.2)
    radius = 10.0
    ball = enumerate_ball(spec, radius)
    letters = spec.letters()
    mats = [m for _, m, _ in letters]
    labels = [lab for lab, _, _ in letters]
    forbidden = {
        (i, j)
        for i in range(len(labels))
        for j in range(len(labels))
        if labels[i] == -labels[j]
    }
    # words of length 8 already displace by more than radius, so length 7 covers it
    brute = brute_words(mats, 7, no_backtrack_pairs=forbidden)
    brute_norms = np.sort([stable_arcosh(m[0, 0]) for _, m in brute])
    probe = np.array([2.0, 4.0, 6.0, 8.0, 9.5, 10.0])
    want = np.searchsorted(brute_norms, probe, side="right")
    assert np.array_equal(ball.counts_at(probe), want)
    assert float(ball.norms[ball.members].min()) == 0.0
    # stored matrices equal the product of their word letters
    lab_to_mat = dict(zip(labels, mats))
    for i in ball.members[:: max(1, ball.n_members // 17)]:
        prod = np.eye(3)
        for w in ball.word(i):
            prod = prod @ lab_to_mat[w]
        assert np.max(np.abs(prod - ball.mats[i])) < 1e-9


def test_torus_ball_exact_dedup_matches_brute_force():
    spec = punctured_torus()
    ball = enumerate_ball(spec, 12.0, max_word_length=6, prune_margin=4.0, dedup="exact")
    letters = spec.letters()
    ints = [lift for _, _, lift in letters]
    labels = [lab for lab, _, _ in letters]
    forbidden = {
        (i, j)
        for i in range(len(labels))
        for j in range(len(labels))
        if labels[i] == -labels[j]
    }
    brute = brute_words([m.astype(np.int64) for m in ints], 6, no_backtrack_pairs=forbidden)
    # independent dedup: normalized integer tuples
    seen = {}
    for word, mat in brute:
        key = tuple(mat.ravel() if (mat.ravel()[mat.ravel() != 0][0] > 0) else -mat.ravel())
        seen.setdefault(key, word)
    brute_norms = np.sort([sl2_norm(np.array(k).reshape(2, 2)) for k in seen])
    probe = np.array([2.0, 4.0, 5.5, 7.0, 9.0, 11.0])
    want = np.searchsorted(brute_norms, probe, side="right")
    assert np.array_equal(ball.counts_at(probe), want)
    # free group: every distinct word is a distinct element
    assert len(seen) == len(brute)


def test_torus_dedup_modes_agree():
    spec = punctured_torus()
    b_none = enumerate_ball(spec, 6.0)
    b_exact = enumerate_ball(spec, 6.0, dedup="exact")
    b_binned = enumerate_ball(spec, 6.0, dedup="binned")
    assert b_none.dedup_mode == "none"
    assert b_none.n_members == b_exact.n_members == b_binned.n_members
    assert b_exact.merged == 0 and b_binned.merged == 0
    assert np.allclose(
        np.sort(b_none.norms[b_none.members]),
        np.sort(b_exact.norms[b_exact.members]),
        atol=1e-9,
    )


def test_torus_commutator_is_parabolic():
    spec = punctured_torus()
    a, b = spec.int_rep
    ainv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    binv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
    comm = a @ b @ ainv @ binv
    assert np.array_equal(comm, [[-1, 0], [-6, -1]])
    assert np.trace(comm) == -2
    assert np.isclose(sl2_norm(a), math.acosh(3.5))


def test_merging_enumeration():
    """Three same-axis boosts 1.0, 0.5, 1.5: the semigroup they generate is
    the 0.5-step ray, so the walk must merge heavily."""
    spec = GroupSpec(
        [boost(2, 1, 1.0), boost(2, 1, 0.5), boost(2, 1, 1.5)],
        2,
        semigroup=True,
    )
    ball = enumerate_ball(spec, 3.0, prune_margin=0.0, dedup_tol=1e-7)
    assert ball.dedup_mode == "binned"
    assert ball.n_members == 7
    assert np.allclose(np.sort(ball.norms), np.arange(7) * 0.5, atol=1e-10)
    assert ball.merged > 0


def test_dihedral_relations_handled_by_binned_dedup():
    """Two half-turns generate an infinite dihedral group; every element has
    many spellings, so counts check cross-level merging."""
    half_turn = rotation(2, 1, 2, math.pi)
    t1 = boost(2, 1, -0.7)
    t2 = boost(2, 1, 0.7)
    r1 = t1 @ half_turn @ t1.inverse()
    r2 = t2 @ half_turn @ t2.inverse()
    spec = GroupSpec([r1, r2], 2)
    ball = enumerate_ball(spec, 6.0, max_word_length=7)
    # oracle: walk all words, greedy matrix dedup (duplicates agree to ~1e-12
    # at this scale while distinct elements differ by ~1e-2)
    letters = [m for _, m, _ in spec.letters()]
    kept = []
    for word, mat in brute_words(letters, 7):
        if stable_arcosh(mat[0, 0]) > 6.0 + 1e-9:
            continue
        if not kept or min(float(np.max(np.abs(mat - k))) for k in kept) > 1e-6:
            kept.append(mat)
    oracle_norms = np.sort([stable_arcosh(m[0, 0]) for m in kept])
    got = np.sort(ball.norms[ball.members])
    assert got.shape == oracle_norms.shape
    assert np.allclose(got, oracle_norms, atol=1e-8)
    assert ball.merged > 0


def test_free_semigroup_growth():
    length = 4.0
    spec = GroupSpec(
        [boost(2, 1, length), boost(2, 2, length)],
        2,
        semigroup=True,
        free=True,
    )
    ball = enumerate_ball(spec, 16.0)
    # distinct words stay far apart: honest evidence of freeness
    pts = ball.orbit_points(ball.members[ball.word_length[ball.members] <= 4])
    d = pairwise_distance(pts, pts)
    np.fill_diagonal(d, np.inf)
    assert float(d.min()) > 0.5
    # two letters of length L: growth rate ~ log(2)/L (junction losses push
    # it slightly above, by at most log(2) per letter in the denominator)
    est = estimate_critical_exponent(ball)
    lo = math.log(2.0) / length
    hi = math.log(2.0) / (length - math.log(2.0))
    assert lo - 0.02 <= est.value <= hi + 0.02


def test_budget_error():
    spec = schottky(2.2)
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_ball(spec, 10.0, max_elements=50)
    assert err.value.explored <= 50
    assert err.value.level >= 1


def test_orbit_distance_and_censoring():
    ball = enumerate_ball(cyclic(1.0), 5.5)
    probe = boost(2, 1, 2.2).apply(np.array([1.0, 0.0, 0.0])).coords
    val, censored, arg = orbit_distance(ball, probe)
    assert np.isclose(val, 0.2, atol=1e-9)
    assert not censored
    assert ball.word(arg) == (1, 1)
    # a probe near the ball edge cannot be resolved
    far = boost(2, 2, 5.4).apply(np.array([1.0, 0.0, 0.0])).coords
    _, censored_far, _ = orbit_distance(ball, far)
    assert censored_far


def test_separated_net_greedy():
    ball = enumerate_ball(cyclic(1.0), 5.5)
    net = separated_net(ball, 1.5)
    values = sorted(round(float(ball.norms[i]), 6) for i in net)
    assert values == [0.0, 2.0, 2.0, 4.0, 4.0]
    ring = separated_net(ball, 1.5, lo=3.0, hi=5.0)
    assert sorted(round(float(ball.norms[i]), 6) for i in ring) == [3.0, 3.0, 5.0, 5.0]


def test_reorthogonalization_keeps_drift_down():
    # tiny steps force long words, exercising the periodic cleanup
    ball = enumerate_ball(cyclic(0.05), 2.0, reorth_every=8)
    assert int(ball.word_length.max()) >= 40
    worst = max(form_residual(m) for m in ball.mats)
    assert worst < 1e-12


def test_sl2_conversion_consistency(rng):
    for _ in range(20):
        # random SL(2,Z) via products of the standard unipotents
        m = np.eye(2, dtype=np.int64)
        for _ in range(6):
            t = int(rng.integers(-2, 3))
            if rng.random() < 0.5:
                m = m @ np.array([[1, t], [0, 1]], dtype=np.int64)
            else:
                m = m @ np.array([[1, 0], [t, 1]], dtype=np.int64)
        big = sl2_to_so21(m)
        assert np.isclose(stable_arcosh(big[0, 0]), sl2_norm(m), rtol=1e-12)
        # the conversion is a homomorphism
        n = np.array([[1, 1], [1, 2]], dtype=np.int64)
        assert np.allclose(sl2_to_so21(m @ n), sl2_to_so21(m) @ sl2_to_so21(n))


def test_groupspec_validation():
    with pytest.raises(ValueError):
        GroupSpec([np.eye(3) * 1.5], 2)
    with pytest.raises(ValueError):
        GroupSpec(
            [boost(2, 1, 1.0)],
            2,
            int_rep=[np.array([[2, 0], [0, 1]])],
        )


def test_write_csv(tmp_path):
    ball = enumerate_ball(cyclic(1.0), 2.5)
    path = tmp_path / "ball.csv"
    n = ball.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert n == 5
    assert lines[0] == "word,norm,x0,x1,x2"
    assert len(lines) == 6
    assert lines[1].startswith("e,0.0")


# ---------------------------------------------------------------------------
# Array passes against per-element reference loops.


class _NormWindowIndex:
    """Reference merge detector: sorted norms of earlier levels scanned per
    candidate, pairs confirmed one candidate at a time."""

    def __init__(self, tol):
        self.tol = tol
        self.norms = np.empty(0)
        self.radii = np.empty(0)
        self.dirs = None

    def add(self, norms, points):
        r, u = radial_split(points)
        if self.dirs is None:
            self.dirs, self.radii, self.norms = u, r, norms
        else:
            self.dirs = np.concatenate([self.dirs, u])
            self.radii = np.concatenate([self.radii, r])
            self.norms = np.concatenate([self.norms, norms])
        self.order = np.argsort(self.norms, kind="stable")
        self.sorted_norms = self.norms[self.order]

    def matches(self, norm, point):
        lo = np.searchsorted(self.sorted_norms, norm - self.tol, side="left")
        hi = np.searchsorted(self.sorted_norms, norm + self.tol, side="right")
        if lo == hi:
            return False
        cand = self.order[lo:hi]
        r, u = radial_split(point)
        d = split_distance(r, u, self.radii[cand], self.dirs[cand])
        return bool(np.any(d < self.tol))


class _PerCandidateDedup:
    """Stands in for ``orbit._binned_level``: one candidate at a time in
    stable norm order, each checked against the window of earlier levels,
    then back-scanned over the fresh candidates of its own level until the
    norm gap exceeds the tolerance."""

    def __init__(self):
        self.index = None

    def __call__(self, window, norms, points, tol):
        if self.index is None:
            self.index = _NormWindowIndex(tol)
            self.index.add(window[0], np.eye(points.shape[1])[:1])
        fresh = np.ones(points.shape[0], dtype=bool)
        batch_r, batch_u = radial_split(points)
        taken = []
        for pos in np.argsort(norms, kind="stable"):
            if self.index.matches(norms[pos], points[pos]):
                fresh[pos] = False
                continue
            for jprev in reversed(taken):
                if norms[pos] - norms[jprev] > tol:
                    break
                d = split_distance(
                    batch_r[pos], batch_u[pos], batch_r[jprev], batch_u[jprev]
                )
                if d < tol:
                    fresh[pos] = False
                    break
            if fresh[pos]:
                taken.append(pos)
        self.index.add(norms[fresh], points[fresh])
        return fresh, window


def _psl2z(conjugator=None):
    """PSL(2,Z) on S and T; S fixes the basepoint unless conjugated away."""
    s = np.array([[0, -1], [1, 0]])
    t = np.array([[1, 1], [0, 1]])
    if conjugator is None:
        return GroupSpec([sl2_to_so21(s), sl2_to_so21(t)], 2, int_rep=[s, t])
    c, c_inv = conjugator.matrix, conjugator.inverse().matrix
    return GroupSpec([c @ sl2_to_so21(g) @ c_inv for g in (s, t)], 2)


GENERIC_BASEPOINT = boost(2, 1, 0.37) @ rotation(2, 1, 2, 0.61)

DEDUP_CASES = {
    "torus-7": (punctured_torus, 7.0, 23_941, 0),
    "psl2z-6": (_psl2z, 6.0, 105, 210),
    "psl2z-8": (_psl2z, 8.0, 285, 570),
    "psl2z-generic-6": (lambda: _psl2z(GENERIC_BASEPOINT), 6.0, 13_156, 17_116),
    "psl2z-generic-6.5": (lambda: _psl2z(GENERIC_BASEPOINT), 6.5, 21_824, 28_440),
    "schottky3-6": (lambda: schottky(2.0, dim=3), 6.0, 1_461, 0),
}


@pytest.mark.parametrize("case", list(DEDUP_CASES))
def test_binned_dedup_matches_per_candidate_walk(case, monkeypatch):
    build, radius, rows, merged = DEDUP_CASES[case]
    spec = build()
    with warnings.catch_warnings():
        # the S-fixed basepoint trips the discreteness check in both runs
        warnings.simplefilter("ignore", DiscretenessWarning)
        ball = enumerate_ball(spec, radius, dedup="binned")
        monkeypatch.setattr(orbit, "_binned_level", _PerCandidateDedup())
        want = enumerate_ball(spec, radius, dedup="binned")
    assert (len(ball), ball.merged) == (rows, merged)
    assert ball.merged == want.merged
    for name in ("norms", "mats", "parent", "letter"):
        assert np.array_equal(getattr(ball, name), getattr(want, name)), name


def test_binned_dedup_does_not_chain_through_merged_candidates(monkeypatch):
    """Boosts along one axis by 1, 1 + 0.6 tol and 1 + 1.2 tol: the middle
    image merges into the first, and the last, within tol of the merged
    middle one only, stays."""
    tol = 1e-3
    spec = GroupSpec(
        [boost(2, 1, 1.0 + k * 0.6 * tol) for k in range(3)], 2, semigroup=True
    )
    ball = enumerate_ball(spec, 2.1, prune_margin=0.0, dedup_tol=tol)
    want = [0.0, 1.0, 1.0 + 1.2 * tol, 2.0, 2.0 + 1.2 * tol, 2.0 + 2.4 * tol]
    assert ball.norms.shape == (len(want),)
    assert np.allclose(ball.norms, want, rtol=0.0, atol=1e-12)
    assert ball.merged == 4
    monkeypatch.setattr(orbit, "_binned_level", _PerCandidateDedup())
    ref = enumerate_ball(spec, 2.1, prune_margin=0.0, dedup_tol=tol)
    assert np.array_equal(ball.norms, ref.norms) and ball.merged == ref.merged


def _per_query_orbit_distance(ball, points):
    """Reference: one split_distance row per query point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    members = ball.members
    rc, uc = radial_split(ball.orbit_points(members))
    rp, up = radial_split(pts)
    vals = np.empty(pts.shape[0])
    args = np.empty(pts.shape[0], dtype=np.int64)
    for i in range(pts.shape[0]):
        d = split_distance(rp[i], up[i], rc, uc)
        j = int(np.argmin(d))
        vals[i] = d[j]
        args[i] = members[j]
    return vals, vals >= ball.radius - rp, args


def _torus_rays():
    ball = enumerate_ball(punctured_torus(), 9.0, prune_margin=2.0)
    dirs = [np.array([np.cos(a), np.sin(a)]) for a in (0.3, 1.9, 4.4)]
    ts = np.linspace(0.0, 8.0, 161)
    return ball, np.concatenate([ray_points(u, ts) for u in dirs])


def _schottky3_cloud():
    ball = enumerate_ball(schottky(2.0, dim=3), 8.0, prune_margin=2.0)
    rng = np.random.default_rng(7)
    v = rng.normal(size=(400, 3))
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    return ball, ray_points(u, rng.uniform(0.0, 7.0, size=400))


def _cyclic_ties():
    """Points halfway between consecutive orbit points of a translation,
    and at orbit points: every nearest member is an exact tie or exact."""
    ball = enumerate_ball(cyclic(1.0), 5.5)
    return ball, ray_points(np.array([1.0, 0.0]), np.arange(-4.5, 5.0, 0.5))


@pytest.mark.parametrize("build", [_torus_rays, _schottky3_cloud, _cyclic_ties])
def test_orbit_distance_matches_per_query_loop(build):
    ball, points = build()
    vals, censored, args = orbit_distance(ball, points)
    want_vals, want_censored, want_args = _per_query_orbit_distance(ball, points)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(censored, want_censored)
    assert np.array_equal(args, want_args)
    # single points come back as scalars with the same answers
    for i in (0, points.shape[0] // 2, points.shape[0] - 1):
        assert orbit_distance(ball, points[i]) == (
            float(want_vals[i]),
            bool(want_censored[i]),
            int(want_args[i]),
        )


def test_orbit_distance_ties_go_to_the_first_member():
    ball, points = _cyclic_ties()
    vals, _, args = orbit_distance(ball, points)
    members = ball.members
    rp, up = radial_split(points)
    rc, uc = radial_split(ball.orbit_points(members))
    at_min = split_distance(rp[:, None], up[:, None, :], rc, uc) == vals[:, None]
    assert np.array_equal(args, members[np.argmax(at_min, axis=1)])
    # the halfway points do tie: two members at the minimum
    assert np.any(np.count_nonzero(at_min, axis=1) == 2)
