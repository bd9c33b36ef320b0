"""Ball enumeration against brute-force word oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kleinian import orbit
from kleinian.groups import punctured_torus, schottky
from kleinian.hyperbolic import (
    GeometryError,
    boost,
    form_residual,
    geodesic_point,
    radial_split,
    ray_coordinates,
    ray_points,
    reorthogonalize,
    split_distance,
    stable_arcosh,
)
from kleinian.orbit import (
    REORTH_EVERY,
    WORD_PAD,
    DiscretenessWarning,
    EnumerationBudgetError,
    GroupSpec,
    enumerate_ball,
    estimate_critical_exponent,
    orbit_distance,
    sl2_to_so21,
)

from conftest import cyclic, pairwise_distance, rotation, sl2_norm


def member_counts(ball, radii):
    """#{members with norm <= r} for each r."""
    return np.searchsorted(np.sort(ball.norms[ball.members]), radii, side="right")


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


def sl2_inverse(m):
    """Inverse of an integer SL(2) matrix."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.int64)


def letter_lifts(spec):
    """Integer lifts of the letters of ``spec``, in letter order."""
    return [*spec.int_rep, *map(sl2_inverse, spec.int_rep)]


def test_cyclic_ball_exact_counts():
    ball = enumerate_ball(cyclic(1.0), 3.5)
    assert ball.n_members == 7
    norms = np.sort(ball.norms[ball.members])
    assert np.allclose(norms, [0, 1, 1, 2, 2, 3, 3], atol=1e-12)
    words = sorted(ball.word(i) for i in ball.members)
    assert ((1, 1, 1) in words) and ((-1, -1, -1) in words)
    assert (1, -1) not in words


def test_schottky_ball_matches_brute_force():
    spec = schottky(2.2)
    radius = 10.0
    ball = enumerate_ball(spec, radius)
    letters = spec.letters()
    mats = [m for _, m in letters]
    labels = [lab for lab, _ in letters]
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
    assert np.array_equal(member_counts(ball, probe), want)
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
    # every word of length <= 6 has norm <= 6 * 1.925 < 11.6, so the cutoff
    # prunes none, and BFS levels up to 6 depend on no longer word
    ball = enumerate_ball(spec, 11.6, prune_margin=0.0, dedup="exact")
    assert 6 * spec.max_generator_norm() < 11.6
    ints = letter_lifts(spec)
    labels = [lab for lab, _ in spec.letters()]
    forbidden = {
        (i, j)
        for i in range(len(labels))
        for j in range(len(labels))
        if labels[i] == -labels[j]
    }
    brute = brute_words(ints, 6, no_backtrack_pairs=forbidden)
    # independent dedup: normalized integer tuples
    seen = {}
    for word, mat in brute:
        key = tuple(mat.ravel() if (mat.ravel()[mat.ravel() != 0][0] > 0) else -mat.ravel())
        seen.setdefault(key, word)
    brute_norms = np.sort([sl2_norm(np.array(k).reshape(2, 2)) for k in seen])
    probe = np.array([2.0, 4.0, 5.5, 7.0, 9.0, 11.0])
    want = np.searchsorted(brute_norms, probe, side="right")
    short = np.sort(ball.norms[ball.word_length <= 6])
    assert np.array_equal(np.searchsorted(short, probe, side="right"), want)
    assert short.shape == brute_norms.shape
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
    a, b, ainv, binv = letter_lifts(spec)
    comm = a @ b @ ainv @ binv
    assert np.array_equal(comm, [[-1, 0], [-6, -1]])
    assert np.trace(comm) == -2
    assert np.isclose(sl2_norm(a), math.acosh(3.5))


def _ray_group_ball():
    """Three same-axis boosts 1.0, 0.5, 1.5: the group they generate is
    the 0.5-step translation group of the axis."""
    spec = GroupSpec([boost(2, 1, 1.0), boost(2, 1, 0.5), boost(2, 1, 1.5)], 2)
    return enumerate_ball(spec, 3.0, prune_margin=0.0)


def test_merging_enumeration():
    """The 0.5-step translation group: the walk must merge heavily."""
    ball = _ray_group_ball()
    assert ball.dedup_mode == "binned"
    assert ball.n_members == 13
    assert np.allclose(
        np.sort(ball.norms), np.repeat(np.arange(7) * 0.5, 2)[1:], atol=1e-10
    )
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
    ball = enumerate_ball(spec, 6.0)
    # oracle: walk all words, greedy matrix dedup (duplicates agree to ~1e-12
    # at this scale while distinct elements differ by ~1e-2); every element
    # within 6 has a word of length at most 4, and the walk ends at level 6
    assert int(ball.word_length.max()) <= 7
    letters = [m for _, m in spec.letters()]
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
    """Boosts of length 4 along perpendicular axes generate a free group
    (sinh(2)^2 > 1); its reduced words enumerate it without dedup."""
    length = 4.0
    spec = GroupSpec([boost(2, 1, length), boost(2, 2, length)], 2, free=True)
    ball = enumerate_ball(spec, 16.0)
    # distinct words stay far apart: honest evidence of freeness
    pts = ball.orbit_points(ball.members[ball.word_length[ball.members] <= 4])
    d = pairwise_distance(pts, pts)
    np.fill_diagonal(d, np.inf)
    assert float(d.min()) > 0.5
    # three continuations of length L per reduced word: growth rate ~
    # log(3)/L (a turn between perpendicular axes loses about log(2), which
    # pushes it above, by at most log(2) per letter in the denominator)
    est = estimate_critical_exponent(ball)
    lo = math.log(3.0) / length
    hi = math.log(3.0) / (length - math.log(2.0))
    assert lo - 0.02 <= est.value <= hi + 0.02


def test_budget_error():
    spec = schottky(2.2)
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_ball(spec, 10.0, max_elements=50)
    assert err.value.explored <= 50
    assert err.value.level >= 1


@pytest.mark.parametrize("block", [orbit.GATHER_BLOCK, 5])
def test_budget_error_inside_a_level(block, monkeypatch):
    """The free chain ball's level 9 holds 17,376 rows after 12,813, so a
    budget of 20,000 runs out in the middle of it, across chunks at either
    block size: the error counts the rows before the level, as a whole
    level would."""
    monkeypatch.setattr(orbit, "GATHER_BLOCK", block)
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_ball(schottky(1.8), 11.0, prune_margin=2.0, max_elements=20_000)
    assert (err.value.explored, err.value.level) == (12_813, 9)


def test_level_gathers_hold_no_whole_level_copy():
    """Beyond the member buffer and the norms, parent links and letters of
    the explored rows (8 + 8 + 2 bytes a row, kept per level until the
    stored rows are taken from them), a build holds at most the largest
    level's product, one level's matrices (the frontier until its GEMM has
    run, then the new level) and one chunk of gathered blocks.
    ``tracemalloc`` sees numpy's allocations and counts the whole
    ``np.empty`` reservation of the member buffer, ``max_elements`` rows,
    here the ball's size.  A whole level's gather index or candidate
    array, 72 bytes per kept row, or the matrices of the rows past the
    radius would break the bound."""
    spec = schottky(1.8)
    size = len(enumerate_ball(spec, 11.0, prune_margin=2.0))
    tracemalloc.start()
    try:
        ball = enumerate_ball(spec, 11.0, prune_margin=2.0, max_elements=size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, n_letters = 3, 4
    assert ball.mats.shape == (ball.n_members, k, k)
    reserved = size * k * k * 8
    columns = size * (8 + 8 + 2)
    sizes = ball.level_counts
    product = n_letters * k * sizes[:-1].max() * k * 8
    level = sizes.max() * k * k * 8
    chunk = orbit.GATHER_BLOCK * k * k * 8
    assert peak - reserved - columns < product + level + chunk


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


def test_reorthogonalization_keeps_drift_down(monkeypatch):
    # tiny steps force long words, exercising the periodic cleanup
    monkeypatch.setattr(orbit, "REORTH_EVERY", 8)
    ball = enumerate_ball(cyclic(0.05), 2.0)
    # the members reach word length 39, the walk level 42
    assert ball.level_counts.shape[0] - 1 >= 40
    assert float(np.max(form_residual(ball.mats))) < 1e-12


def test_stacked_form_residual_matches_per_matrix_loop(rng):
    """On drifted torus matrices, from the identity out to norm 11; bit for
    bit the unscaled residual there, and finite on boosts out to 709."""
    ball = enumerate_ball(punctured_torus(), 9.0, prune_margin=2.0)
    sample = ball.mats[::10]
    mats = sample + rng.normal(scale=1e-9, size=sample.shape)
    got = form_residual(mats)
    want = np.array([form_residual(m) for m in mats])
    assert got.shape == (sample.shape[0],)
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert float(np.min(got)) > 0.0
    j = np.diag([-1.0, 1.0, 1.0])
    scale = np.maximum(1.0, np.max(np.abs(mats), axis=(-2, -1)))
    unscaled = np.abs(np.swapaxes(mats, -1, -2) @ j @ mats - j)
    assert np.array_equal(got, np.max(unscaled, axis=(-2, -1)) / (scale * scale))
    far = np.stack([boost(2, 1, t).matrix for t in (400.0, 709.0)])
    assert float(np.max(form_residual(far))) < 1e-15


def _reorthogonalize_batch(mats, iterations=3):
    """Reference: the stack-only copy enumerate_ball used before
    reorthogonalize took stacks."""
    scale_ok = np.max(np.abs(mats), axis=(-2, -1)) <= 1e6
    if not np.any(scale_ok):
        return mats
    n = mats.shape[-1]
    j = np.diag([-1.0] + [1.0] * (n - 1))
    sub = mats[scale_ok]
    b = j @ (np.swapaxes(sub, -1, -2) @ j @ sub)
    y = np.broadcast_to(np.eye(n), sub.shape).copy()
    eye3 = 3.0 * np.eye(n)
    for _ in range(iterations):
        y = 0.5 * (y @ (eye3 - b @ y @ y))
    out = np.array(mats, copy=True)
    out[scale_ok] = sub @ y
    return out


def test_reorthogonalize_stack_matches_batch_copy(rng):
    """On the torus R=12 ball, whose words pass the reorthogonalization
    level, drifted, plus boosts past the scale cap, which stay as they are."""
    ball = enumerate_ball(punctured_torus(), 12.0, prune_margin=2.0)
    assert int(ball.word_length.max()) > REORTH_EVERY
    far = np.stack([boost(2, 1, t).matrix for t in (14.6, 20.0)])
    drifted = ball.mats + rng.normal(scale=1e-9, size=ball.mats.shape)
    mats = np.concatenate([drifted, far])
    got = reorthogonalize(mats)
    assert np.array_equal(got, _reorthogonalize_batch(mats))
    assert np.array_equal(got[-2:], far)
    assert np.array_equal(reorthogonalize(far[0]), far[0])
    for i in (0, 1000, ball.mats.shape[0] - 1):
        assert np.array_equal(reorthogonalize(mats[i]), reorthogonalize(mats[i : i + 1])[0])


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


def _enumerate_einsum(spec, radius, *, prune_margin=None, dedup="auto"):
    """Reference: the einsum level loop enumerate_ball ran before each
    level became one GEMM read in place (no element budget).  Exact dedup
    multiplies the integer lifts and keys them by sign-normalized tuples;
    binned dedup is the per-candidate norm-window walk."""
    mode = orbit._resolve_dedup(spec, dedup)
    if prune_margin is None:
        prune_margin = 2.0 * spec.max_generator_norm()
    cutoff = radius + prune_margin
    k = spec.dim + 1
    letters = spec.letters()
    n_letters = len(letters)
    letter_mats = np.stack([m for _, m in letters])
    labels = [lab for lab, _ in letters]
    inverse_of = np.array([labels.index(-lab) for lab in labels])
    use_int = mode == "exact"
    if use_int:
        letter_ints = np.stack(letter_lifts(spec))
        f_ints = np.eye(2, dtype=np.int64)[None]
        seen = set(_psl_keys(f_ints))
    elif mode == "binned":
        binned = _PerCandidateDedup()
    mats_levels = [np.eye(k)[None]]
    norms_levels = [np.zeros(1)]
    parent_levels = [np.full(1, -1, dtype=np.int64)]
    letter_levels = [np.full(1, -1, dtype=np.int16)]
    length_levels = [np.zeros(1, dtype=np.int32)]
    total, merged, level = 1, 0, 0
    while True:
        level += 1
        f_mats = mats_levels[-1]
        m = f_mats.shape[0]
        if use_int:
            cand_int = np.einsum(
                "mij,ljk->mlik", f_ints, letter_ints, optimize=True
            ).reshape(m * n_letters, 2, 2)
            cand = sl2_to_so21(cand_int)
        else:
            cand = np.einsum("mij,ljk->mlik", f_mats, letter_mats, optimize=True)
            cand = cand.reshape(m * n_letters, k, k)
        norms = stable_arcosh(cand[:, 0, 0])
        prev = letter_levels[-1][:, None]
        keep = (norms <= cutoff) & ((prev < 0) | (inverse_of != prev)).ravel()
        idx = np.flatnonzero(keep)
        if idx.shape[0] == 0:
            break
        if use_int:
            keys = _psl_keys(cand_int[idx])
            fresh = np.ones(len(keys), dtype=bool)
            for i, key in enumerate(keys):
                if key in seen:
                    fresh[i] = False
                else:
                    seen.add(key)
        elif mode == "binned":
            fresh, _ = binned(None, norms[idx], cand[idx, :, 0], orbit.DEDUP_TOL)
        else:
            fresh = np.ones(idx.shape[0], dtype=bool)
        merged += int(np.count_nonzero(~fresh))
        idx = idx[fresh]
        cand = cand[idx]
        norms = norms[idx]
        if use_int:
            f_ints = cand_int[idx]
        elif level % orbit.REORTH_EVERY == 0:
            cand = reorthogonalize(cand)
            norms = stable_arcosh(cand[:, 0, 0])
        if cand.shape[0] == 0:
            break
        mats_levels.append(cand)
        norms_levels.append(norms)
        parent_levels.append(total - m + idx // n_letters)
        letter_levels.append((idx % n_letters).astype(np.int16))
        length_levels.append(np.full(cand.shape[0], level, dtype=np.int32))
        total += cand.shape[0]
    # the members, then the ring rows on a member's parent chain, each part
    # in BFS order, with the parent links moved to the kept rows; a ring row
    # is kept when a kept row of the next level hangs below it, so the
    # levels are marked from the deepest up.  Only member matrices are kept
    norms, parent = np.concatenate(norms_levels), np.concatenate(parent_levels)
    member = norms <= radius
    kept = member.copy()
    ends = np.cumsum([lev.shape[0] for lev in norms_levels])
    for lo, hi in zip(ends[-2::-1], ends[:0:-1]):
        kept[parent[lo:hi][kept[lo:hi]]] = True
    order = np.concatenate([np.flatnonzero(member), np.flatnonzero(kept & ~member)])
    moved_to = np.full(norms.shape[0], -1)
    moved_to[order] = np.arange(order.shape[0])
    parent = parent[order]
    parent = np.where(parent < 0, parent, moved_to[parent])
    n_members = int(np.count_nonzero(member))
    mats = np.concatenate(mats_levels)[order[:n_members]]
    return orbit.OrbitBall(
        spec=spec,
        radius=float(radius),
        prune_margin=float(prune_margin),
        norms=norms[order],
        mats=mats,
        parent=parent,
        letter=np.concatenate(letter_levels)[order],
        word_length=np.concatenate(length_levels)[order],
        level_counts=np.array([lev.shape[0] for lev in norms_levels]),
        anomalies=orbit._sanity_check(float(np.min(norms[1:], initial=np.inf)), mats),
        dedup_mode=mode,
        merged=merged,
    )


def _golden_cyclic():
    """The cyclic group of [[2, 1], [1, 1]], with its integer lift."""
    h = np.array([[2, 1], [1, 1]])
    return GroupSpec([sl2_to_so21(h)], 2, int_rep=[h])


GEMM_BALLS = {
    # np.matmul(f[:, None], L[None]) moves 6 of these matrices in the last bit
    "chain-10": (lambda: schottky(1.8), 10.0, {"prune_margin": 2.0}),
    "torus-9": (punctured_torus, 9.0, {"prune_margin": 2.0}),
    "schottky3-8": (lambda: schottky(2.0, dim=3), 8.0, {}),
    "torus-binned-5": (punctured_torus, 5.0, {"dedup": "binned"}),
    "psl2z-exact-6": (lambda: _psl2z(), 6.0, {}),
    # words up to length 144, past the reorthogonalization level
    "psl2z-exact-8": (lambda: _psl2z(), 8.0, {}),
    "torus-exact-9": (punctured_torus, 9.0, {"dedup": "exact"}),
    # near the top of the exact range: entries up to about 1e14
    "golden-exact-30": (_golden_cyclic, 30.0, {}),
    "psl2z-binned-6": (lambda: _psl2z(), 6.0, {"dedup": "binned"}),
    # the 0.5-step translation group of one axis
    "ray-semigroup": (
        lambda: GroupSpec([boost(2, 1, 1.0), boost(2, 1, 0.5), boost(2, 1, 1.5)], 2),
        3.0,
        {"prune_margin": 0.0},
    ),
    # free on boosts along perpendicular axes
    "free-semigroup": (
        lambda: GroupSpec([boost(2, 1, 2.0), boost(2, 2, 2.0)], 2, free=True),
        14.0,
        {},
    ),
    # reorthogonalized every third level
    "torus-reorth-3": (punctured_torus, 7.0, {}),
    # a cutoff near the float range of cosh
    "cyclic-margin-705": (lambda: cyclic(1.0), 3.5, {"prune_margin": 705.0}),
}


@pytest.mark.parametrize("name", list(GEMM_BALLS))
def test_gemm_levels_match_einsum_reference(name, monkeypatch):
    """Every field bit for bit, dtypes included, against the einsum loop."""
    _check_gemm_ball(name, monkeypatch)


@pytest.mark.parametrize("name", list(GEMM_BALLS))
def test_chunked_gather_matches_einsum_reference(name, monkeypatch):
    """The same with chunks of 5 kept blocks: every level spans many
    chunks, most of them with a partial last one."""
    monkeypatch.setattr(orbit, "GATHER_BLOCK", 5)
    _check_gemm_ball(name, monkeypatch)


def _check_gemm_ball(name, monkeypatch):
    build, radius, options = GEMM_BALLS[name]
    spec = build()
    if name == "torus-reorth-3":
        monkeypatch.setattr(orbit, "REORTH_EVERY", 3)
    if orbit._resolve_dedup(spec, options.get("dedup", "auto")) == "exact":
        # the correction is exact on exact images, so no column shows it;
        # an exact walk must not run it
        monkeypatch.setattr(orbit, "reorthogonalize", None)
    with warnings.catch_warnings():
        # the S-fixed basepoint trips the discreteness check in both runs
        warnings.simplefilter("ignore", DiscretenessWarning)
        ball = enumerate_ball(spec, radius, **options)
        want = _enumerate_einsum(spec, radius, **options)
    assert len(ball) > 1
    columns = ("norms", "mats", "parent", "letter", "word_length", "level_counts")
    for column in columns:
        got, ref = getattr(ball, column), getattr(want, column)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), column
    assert (len(ball), ball.merged, ball.anomalies) == (
        len(want),
        want.merged,
        want.anomalies,
    )
    n, stored = ball.n_members, ball.norms.shape[0]
    assert np.all(ball.norms[:n] <= radius) and np.all(ball.norms[n:] > radius)
    assert np.array_equal(ball.members, np.arange(n))
    # every stored ring row is the parent of a stored row, and every parent
    # chain climbs one level per step inside the store, up to the root
    assert np.all(np.isin(np.arange(n, stored), ball.parent))
    assert ball.parent[0] == -1 and ball.word_length[0] == 0
    up = ball.parent[1:]
    assert np.all((up >= 0) & (up < stored))
    assert np.array_equal(ball.word_length[up], ball.word_length[1:] - 1)


def test_exact_dedup_range_is_refused():
    """Exact dedup keys float images, exact while k max|frontier|
    max|letter| stays within 2^51; past that the walk is refused rather
    than keyed on rounded images (the R=30 ball is a gate ball)."""
    with pytest.raises(EnumerationBudgetError):
        enumerate_ball(_golden_cyclic(), 40.0)


def test_balls_past_the_float_range_are_refused():
    """A cutoff that one more letter carries past arcosh of the largest
    float (about 710.48) is refused before the walk, not left to overflow."""
    for spec, radius, margin in (
        (cyclic(300.0), 650.0, None),
        (cyclic(1.0), 3.5, 800.0),
        (cyclic(1.0), 3.5, 706.0),
    ):
        with pytest.raises(GeometryError):
            enumerate_ball(spec, radius, prune_margin=margin)


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
    norm gap exceeds the tolerance.  It keeps its own window, seeded with
    the identity, and passes the one it is handed through untouched."""

    def __init__(self):
        self.index = None

    def __call__(self, window, norms, points, tol):
        if self.index is None:
            self.index = _NormWindowIndex(tol)
            self.index.add(np.zeros(1), np.eye(points.shape[1])[:1])
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
GENERIC_BASEPOINT3 = (
    boost(3, 1, 0.37) @ rotation(3, 1, 2, 0.61) @ rotation(3, 1, 3, 0.29)
)


def _rotation3(conjugator=None):
    """A boost of H^3 and a rotation of order 3 about a diagonal, which
    fixes the basepoint unless conjugated away; the rotation's entries are
    zero only up to rounding, so its duplicates are near ties."""
    turn = rotation(3, 1, 2, np.pi / 2) @ rotation(3, 2, 3, np.pi / 2)
    gens = [boost(3, 1, 2.0), turn]
    if conjugator is None:
        return GroupSpec(gens, 3)
    c, c_inv = conjugator.matrix, conjugator.inverse().matrix
    return GroupSpec([c @ g.matrix @ c_inv for g in gens], 3)


DEDUP_CASES = {
    "torus-7": (punctured_torus, 7.0, 23_941, 0),
    "psl2z-6": (_psl2z, 6.0, 105, 210),
    "psl2z-8": (_psl2z, 8.0, 285, 570),
    "psl2z-generic-6": (lambda: _psl2z(GENERIC_BASEPOINT), 6.0, 13_156, 17_116),
    "psl2z-generic-6.5": (lambda: _psl2z(GENERIC_BASEPOINT), 6.5, 21_824, 28_440),
    "schottky3-6": (lambda: schottky(2.0, dim=3), 6.0, 1_461, 0),
    "rotation3-5": (_rotation3, 5.0, 9, 18),
    "rotation3-generic-3.5": (
        lambda: _rotation3(GENERIC_BASEPOINT3), 3.5, 5_802, 3_312
    ),
}


@pytest.mark.parametrize("case", list(DEDUP_CASES))
def test_binned_dedup_matches_per_candidate_walk(case, monkeypatch):
    _check_dedup_case(case, monkeypatch)


@pytest.mark.parametrize("case", list(DEDUP_CASES))
def test_chunked_gather_matches_per_candidate_walk(case, monkeypatch):
    """The same with chunks of 5 kept blocks per gather."""
    monkeypatch.setattr(orbit, "GATHER_BLOCK", 5)
    _check_dedup_case(case, monkeypatch)


def _check_dedup_case(case, monkeypatch):
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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.floats(0.0, 30.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0) | st.just(1.0),
    st.floats(0.0, np.pi / 2),
)
def test_key_band_holds_every_close_pair(dim, r, seed, share, split):
    """A point moved by share * tol, split between a radial and a
    tangential move, keeps its key within the band of either end, the
    smaller radius giving the narrower band: the bound binned dedup
    relies on to hand split_distance only the band pairs."""
    tol = orbit.DEDUP_TOL
    rng = np.random.default_rng(seed)
    u1 = rng.normal(size=dim)
    u1 /= np.linalg.norm(u1)
    w = rng.normal(size=dim)
    w -= (w @ u1) * u1
    w /= np.linalg.norm(w)
    d = share * tol
    r2 = r + d * math.cos(split)
    # cosh d - 1 = 2 sinh^2(dr / 2) + sinh r sinh r2 |u1 - u2|^2 / 2
    rest = 2.0 * (math.sinh(d / 2) ** 2 - math.sinh((r2 - r) / 2) ** 2)
    scale = math.sinh(r) * math.sinh(r2)
    gap = math.sqrt(max(rest, 0.0) * 2.0 / scale) if scale > 0 else 0.0
    alpha = 2.0 * math.asin(min(gap / 2.0, 1.0))
    u2 = math.cos(alpha) * u1 + math.sin(alpha) * w
    # rounding in u2 can put the pair just past tol (at share 1, or past
    # radius about 20, where directions resolve moves coarser than tol)
    assume(split_distance(r, u1, r2, u2) <= tol)
    s = orbit._key(np.array([r, r2]), np.stack([u1, u2]))
    assert abs(s[0] - s[1]) <= orbit._key_reach(r, tol)


def test_binned_torus_confirms_few_pairs(monkeypatch):
    """The torus has many exact norm ties; with sorted-norm bands its R=7
    ball handed split_distance 318,918 pairs, none of them close.  The key
    band hands it only pairs that can be close."""
    sizes = []

    def counted(r1, u1, r2, u2):
        sizes.append(np.size(r1))
        return split_distance(r1, u1, r2, u2)

    monkeypatch.setattr(orbit, "split_distance", counted)
    ball = enumerate_ball(punctured_torus(), 7.0, dedup="binned")
    assert (len(ball), ball.merged) == (23_941, 0)
    assert sum(sizes) < 1_000


def test_binned_dedup_does_not_chain_through_merged_candidates(monkeypatch):
    """Boosts along one axis by 1, 1 + 0.6 tol and 1 + 1.2 tol generate the
    translations by multiples of 0.6 tol.  At level 1 the middle image of
    each sign merges into the first, and the last, within tol of the merged
    middle one only, stays.  Later levels, where the group's short
    translations merge heavily, follow the per-candidate walk."""
    tol = 1e-2
    spec = GroupSpec([boost(2, 1, 1.0 + k * 0.6 * tol) for k in range(3)], 2)
    monkeypatch.setattr(orbit, "DEDUP_TOL", tol)
    ball = enumerate_ball(spec, 2.1, prune_margin=0.0)
    want = [1.0, 1.0 + 1.2 * tol] * 2
    assert np.allclose(ball.norms[ball.word_length == 1], want, rtol=0.0, atol=1e-12)
    assert (len(ball), ball.merged) == (349, 896)
    monkeypatch.setattr(orbit, "_binned_level", _PerCandidateDedup())
    ref = enumerate_ball(spec, 2.1, prune_margin=0.0)
    assert np.array_equal(ball.norms, ref.norms) and ball.merged == ref.merged


def _walk_word(ball, i):
    """The word of row i, one parent at a time."""
    labels = [lab for lab, _ in ball.spec.letters()]
    out = []
    while ball.parent[i] >= 0:
        out.append(labels[ball.letter[i]])
        i = ball.parent[i]
    return tuple(reversed(out))


WORD_BALLS = {
    "torus-8": lambda: enumerate_ball(punctured_torus(), 8.0, prune_margin=2.0),
    "schottky3-6": lambda: enumerate_ball(schottky(2.0, dim=3), 6.0),
    "ray-semigroup": _ray_group_ball,
    "psl2z-8": lambda: enumerate_ball(_psl2z(), 8.0, dedup="binned"),
}


@pytest.mark.parametrize("name", list(WORD_BALLS))
def test_words_match_per_row_walk(name):
    """The padded reader against the one-row reader and a parent walk, on
    every row; the pad sorts a shorter word first, as tuples do."""
    with warnings.catch_warnings():
        # the S-fixed basepoint trips the discreteness check
        warnings.simplefilter("ignore", DiscretenessWarning)
        ball = WORD_BALLS[name]()
    assert name in ("torus-8", "schottky3-6") or ball.merged > 0
    rows = np.arange(ball.norms.shape[0])[::-1]
    words = ball.words(rows)
    assert words.shape == (rows.shape[0], ball.word_length.max())
    walked = {}
    for i, padded in zip(rows.tolist(), words.tolist()):
        walked[i] = _walk_word(ball, i)
        assert ball.word(i) == walked[i]
        pad = [WORD_PAD] * (words.shape[1] - len(walked[i]))
        assert padded == list(walked[i]) + pad
    by_tuple = sorted(rows.tolist(), key=walked.get)
    assert np.array_equal(rows[np.lexsort(words.T[::-1])], by_tuple)


@pytest.mark.parametrize("radius, count", [(9.0, 272), (12.0, 5_684)])
def test_members_below_ring_rows(radius, count):
    """A word that leaves the ball and comes back gives a member whose
    parent is a ring row, past every member row.  Such a member keeps its
    word and its matrix: the padded reader agrees with a walk up the
    parents, and the letter product of the word is the stored matrix."""
    spec = punctured_torus()
    ball = enumerate_ball(spec, radius, prune_margin=2.0)
    rows = ball.members
    below = rows[ball.parent[rows] >= ball.n_members]
    assert below.shape[0] == count
    assert np.all(ball.parent[below] > below)
    lab_to_mat = dict(spec.letters())
    words = ball.words(below)
    for i, padded in zip(below.tolist(), words.tolist()):
        word = _walk_word(ball, i)
        assert padded == list(word) + [WORD_PAD] * (words.shape[1] - len(word))
        prod = np.eye(3)
        for w in word:
            prod = prod @ lab_to_mat[w]
        assert np.max(np.abs(prod - ball.mats[i])) < 1e-9


@pytest.mark.parametrize(
    "build, radius, counts",
    [
        (lambda: schottky(1.8), 13.0, (592_737, 94_717, 94_717)),
        (punctured_torus, 12.0, (558_233, 81_265, 86_949)),
    ],
    ids=["chain-13", "torus-12"],
)
def test_full_size_balls_store_members_and_their_ring_rows(build, radius, counts):
    """The benchmark's two largest balls, at margin 2: (explored rows,
    members, stored rows).  Every column but ``mats`` covers the stored
    rows; the chain ball's members hang below members only."""
    ball = enumerate_ball(build(), radius, prune_margin=2.0)
    assert (len(ball), ball.n_members, ball.norms.shape[0]) == counts
    stored = counts[2]
    for column in ("parent", "letter", "word_length"):
        assert getattr(ball, column).shape == (stored,), column
    assert ball.mats.shape[0] == counts[1]


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


TORUS_ANGLES = (0.3, 1.9, 4.4)


def _torus_rays():
    ball = enumerate_ball(punctured_torus(), 9.0, prune_margin=2.0)
    dirs = [np.array([np.cos(a), np.sin(a)]) for a in TORUS_ANGLES]
    ts = np.linspace(0.0, 8.0, 161)
    return ball, np.concatenate([ray_points(u, ts) for u in dirs])


def _torus_ray(i):
    """One ray of :func:`_torus_rays` on its own."""
    ball = enumerate_ball(punctured_torus(), 9.0, prune_margin=2.0)
    u = np.array([np.cos(TORUS_ANGLES[i]), np.sin(TORUS_ANGLES[i])])
    return ball, ray_points(u, np.linspace(0.0, 8.0, 161))


def _torus_line():
    """A whole line through x0, from t = -4 to 8."""
    ball = enumerate_ball(punctured_torus(), 9.0, prune_margin=2.0)
    return ball, ray_points(np.array([0.8, -0.6]), np.linspace(-4.0, 8.0, 241))


def _ray_at_orbit_point():
    """A ray aimed exactly at a member, which then has offset 0."""
    ball = enumerate_ball(punctured_torus(), 9.0, prune_margin=2.0)
    row = int(np.flatnonzero(ball.word_length == 3)[0])
    _, u = radial_split(ball.orbit_points(row))
    ts = np.concatenate([np.linspace(0.0, 8.0, 81), [float(ball.norms[row])]])
    return ball, ray_points(u, ts)


def _schottky3_ray():
    ball = enumerate_ball(schottky(2.0, dim=3), 8.0, prune_margin=2.0)
    u = np.array([0.48, -0.6, 0.64])
    return ball, ray_points(u, np.linspace(0.0, 6.0, 121))


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


def _tight_tube():
    """Points on the perpendiculars from a ray to members at offsets 2 to
    4.5, 0.1 short of each member: there d(p, q) = h_q - h_p, so the
    tube bound holds with equality, and the ray's own samples."""
    ball, points = _torus_ray(0)
    u = radial_split(points[-1])[1]
    rows = ball.members
    h, t = ray_coordinates(*radial_split(ball.orbit_points(rows)), u)
    picked = np.flatnonzero((h > 2.0) & (h < 4.5) & (t > 0.0) & (t < 6.0))[::7]
    perpendicular = [
        geodesic_point(ray_points(u, t[i]), ball.orbit_points(rows[i]), h[i] - 0.1)
        for i in picked
    ]
    return ball, np.concatenate([points, perpendicular])


def _tube_cloud():
    """Points at offsets up to 1.5 around a ray, which defines the line
    with its far end: their nearest members sit on both sides of every
    tube width."""
    ball, points = _torus_ray(0)
    u = radial_split(points[-1])[1]
    rng = np.random.default_rng(3)
    feet = ray_points(u, rng.uniform(0.0, 7.0, 2000))
    sides = ray_points(np.array([-u[1], u[0]]) * rng.choice([-1.0, 1.0], (2000, 1)), 1.0)
    off = [geodesic_point(f, s, h) for f, s, h in zip(feet, sides, rng.uniform(0.0, 1.5, 2000))]
    return ball, np.concatenate([points, off])


LINE_BUILDS = [
    pytest.param(lambda: _torus_ray(0), id="torus_ray0"),
    pytest.param(lambda: _torus_ray(1), id="torus_ray1"),
    pytest.param(lambda: _torus_ray(2), id="torus_ray2"),
    _torus_line,
    _ray_at_orbit_point,
    _schottky3_ray,
    _tight_tube,
    _tube_cloud,
]


@pytest.mark.parametrize(
    "build", [_torus_rays, _schottky3_cloud, _cyclic_ties, *LINE_BUILDS]
)
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


def _pass_sizes(monkeypatch):
    """The member counts of every exact pass that orbit_distance runs."""
    sizes = []
    nearest = orbit.nearest_in_split

    def spy(rp, up, rq, uq):
        sizes.append(rq.shape[0])
        return nearest(rp, up, rq, uq)

    monkeypatch.setattr(orbit, "nearest_in_split", spy)
    return sizes


@pytest.mark.parametrize("build", LINE_BUILDS)
def test_line_queries_read_a_thin_tube(build, monkeypatch):
    """Points along one line read a few members; scattered points read
    every member in one pass."""
    ball, points = build()
    sizes = _pass_sizes(monkeypatch)
    orbit_distance(ball, points)
    assert max(sizes) < ball.n_members / 3
    for scattered in (_torus_rays, _schottky3_cloud):
        ball, points = scattered()
        sizes.clear()
        orbit_distance(ball, points)
        assert sizes == [ball.n_members]
