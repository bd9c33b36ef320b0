"""Pair calibration, straightening, seed alphabets, and staged growth."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian import (
    EnumerationBudgetError,
    FactCounterexampleError,
    FeasibilityError,
    Isometry,
    LemmaCounterexampleError,
    PairNotFoundError,
    SeedAlphabet,
    StageConditionError,
    build_group,
    build_seed_alphabet,
    build_stage,
    check_property_A,
    concat_F,
    concatenate_certificates,
    distance,
    enumerate_ball,
    family_separation,
    find_deep_element,
    find_ping_pong_pair,
    identity_isometry,
    phi_map,
)
from kleinian.chains import ChainParams, check_chain
from kleinian.hyperbolic import Point, basepoint, stable_arcosh
from kleinian.semigroup import EXTENSION_TOL


@pytest.fixture(scope="module")
def spec3():
    return build_group("schottky", length=3.0)


@pytest.fixture(scope="module")
def pair3(spec3):
    return find_ping_pong_pair(spec3, ratio=2.5)


@pytest.fixture(scope="module")
def letters3(spec3):
    return {lab: Isometry(m, (lab,)) for lab, m, _ in spec3.letters()}


@pytest.fixture(scope="module")
def seed3(spec3, pair3):
    return build_seed_alphabet(spec3, pair3, 0.45)


@pytest.fixture(scope="module")
def ball3(spec3):
    return enumerate_ball(spec3, 8.0)


@pytest.fixture(scope="module")
def torus():
    return build_group("punctured-torus")


@pytest.fixture(scope="module")
def torus_pair(torus):
    return find_ping_pong_pair(torus, ratio=2.5)


@pytest.fixture(scope="module")
def torus_ball(torus):
    return enumerate_ball(torus, 12.0, prune_margin=2.0)


def word_matrix(word, spec):
    mats = {lab: m for lab, m, _ in spec.letters()}
    out = np.eye(spec.dim + 1)
    for lab in word:
        out = out @ mats[lab]
    return out


def reduce_word(word):
    out = []
    for lab in word:
        if out and out[-1] == -lab:
            out.pop()
        else:
            out.append(lab)
    return tuple(out)


# ---------------------------------------------------------------------------
# Pair extraction.


def test_pair_powers_and_scales(pair3):
    assert pair3.separator.word == (1, 1, 1, 1, 1)
    assert pair3.adjuster.word == (2, 2)
    assert pair3.separator.norm() == pytest.approx(15.0, abs=1e-9)
    assert pair3.adjuster.norm() == pytest.approx(6.0, abs=1e-9)
    assert pair3.ratio == pytest.approx(2.5, abs=1e-9)
    assert pair3.scale == pytest.approx(1.5, abs=1e-9)
    assert pair3.mode == "synthetic"
    assert not pair3.symbolic
    params = pair3.chain_params()
    assert params.product_bound == pytest.approx(1.5)
    assert params.gap_bound == pytest.approx(1.5)
    assert pair3.separator_base == (1, 5)
    assert pair3.adjuster_base == (2, 2)


def test_branching_estimate_against_distance_formula(spec3, pair3):
    # same window, independent arithmetic: Gromov products from the
    # three-distance formula instead of Minkowski inner products
    radius = 1.5 * spec3.max_generator_norm() + 0.1
    ball = enumerate_ball(spec3, radius, max_elements=200_000)
    while ball.n_members <= pair3.window:
        radius *= 1.5
        ball = enumerate_ball(spec3, radius, max_elements=200_000)
    members = [int(i) for i in ball.by_norm() if ball.word_length[i] > 0]

    def scan(window):
        chosen = members[:window]
        pts = ball.orbit_points(np.asarray(chosen))
        first = [ball.word(i)[0] for i in chosen]
        x0 = Point(basepoint(2))
        best = 0.0
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                if first[i] == first[j]:
                    continue
                pi, pj = Point(pts[i]), Point(pts[j])
                val = 0.5 * (
                    distance(pi, x0) + distance(pj, x0) - distance(pi, pj)
                )
                best = max(best, val)
        return best

    full = scan(pair3.window)
    half = scan(pair3.window // 2)
    assert full == pytest.approx(pair3.gromov_sup - pair3.window_margin, abs=1e-8)
    assert max(0.0, full - half) == pytest.approx(pair3.window_margin, abs=1e-8)


def test_default_schottky_pair():
    pair = find_ping_pong_pair(build_group("schottky"), ratio=2.5)
    assert pair.separator.word == (1, 1, 1, 1, 1)
    assert pair.adjuster.word == (2, 2)
    assert pair.adjuster.norm() == pytest.approx(4.4, abs=1e-9)
    # the branching margin must sit strictly under the adjuster norm
    assert 3.0 + pair.gromov_sup < pair.adjuster.norm()


def test_torus_pair(torus_pair):
    assert torus_pair.separator.word == (1,) * 8
    assert torus_pair.adjuster.word == (2, 2, 2)
    assert torus_pair.ratio >= 2.5


def test_cyclic_has_no_pair():
    with pytest.raises(PairNotFoundError):
        find_ping_pong_pair(build_group("cyclic", length=1.0))


def test_literal_mode_is_symbolic(spec3):
    pair = find_ping_pong_pair(spec3, mode="literal")
    assert pair.symbolic
    assert pair.ratio == pytest.approx(1e3, rel=1e-6)
    assert pair.adjuster.norm() > 1e6
    with pytest.raises(FeasibilityError):
        check_property_A(identity_isometry(2), pair)
    with pytest.raises(FeasibilityError):
        phi_map(identity_isometry(2), pair)
    with pytest.raises(EnumerationBudgetError):
        build_seed_alphabet(spec3, pair, 0.45)


def test_unknown_mode_rejected(spec3):
    with pytest.raises(ValueError):
        find_ping_pong_pair(spec3, mode="exact")


# ---------------------------------------------------------------------------
# Chain certification.


def test_identity_and_separator_certify(pair3):
    cert = check_property_A(identity_isometry(2), pair3)
    assert cert.ok
    assert np.allclose(cert.gaps, 15.0, atol=1e-9)
    assert check_property_A(pair3.separator, pair3).ok


def test_separator_inverse_fails(pair3):
    cert = check_property_A(pair3.separator.inverse(), pair3)
    assert not cert.ok
    assert cert.violation["kind"] == "gromov"


def test_step_chain_matches_point_chain(pair3, letters3):
    g = letters3[1] @ letters3[2]
    cert = check_property_A(g, pair3)
    assert cert.ok
    pts = cert.chain_points()
    point_cert = check_chain(list(pts), pair3.chain_params())
    assert point_cert.ok
    assert np.allclose(point_cert.gaps, cert.gaps, atol=1e-8)
    assert np.allclose(point_cert.products, cert.products, atol=1e-8)
    end = (pair3.separator @ g @ pair3.separator).orbit_point().coords
    assert np.allclose(pts[-1], end, atol=1e-6)
    assert np.allclose(pts[0], basepoint(2), atol=1e-12)


def test_custom_params_override(pair3, letters3):
    tight = ChainParams(1e-6, pair3.gap_bound)
    cert = check_property_A(letters3[1] @ letters3[2], pair3, params=tight)
    assert not cert.ok
    assert cert.params_used is tight


# ---------------------------------------------------------------------------
# Straightening map.


def test_short_elements_share_one_image(pair3, letters3):
    bab = pair3.adjuster @ pair3.separator @ pair3.adjuster
    for g in (identity_isometry(2), letters3[1], letters3[2] @ letters3[-1]):
        image, cert = phi_map(g, pair3)
        assert cert.ok
        assert image.word == bab.word
        assert np.allclose(image.matrix, bab.matrix)


def test_aligned_long_element_kept_bare(pair3, letters3):
    g = letters3[1].power(6)
    image, cert = phi_map(g, pair3)
    assert cert.ok
    assert image.word == g.word


def test_reversed_long_element_gets_decorated(pair3, letters3):
    g = letters3[-1].power(6)
    image, cert = phi_map(g, pair3)
    assert cert.ok
    assert image.word != g.word
    assert image.word[:2] == (2, 2)
    drift = image.norm() - g.norm()
    assert 0.0 < drift <= 2.0 * pair3.adjuster.norm()


def test_impossible_params_raise_fact_counterexample(pair3, letters3):
    # a gap bound above the separator norm dooms every flank step
    doomed = dataclasses.replace(pair3, gap_bound=pair3.separator.norm() + 5.0)
    with pytest.raises(FactCounterexampleError) as info:
        phi_map(letters3[1].power(6), doomed)
    assert len(info.value.certificates) == 4
    assert all(not c.ok for c in info.value.certificates)
    with pytest.raises(FactCounterexampleError) as info:
        phi_map(letters3[1], doomed)
    assert len(info.value.certificates) == 1


# ---------------------------------------------------------------------------
# Interleaved products.


def test_concat_matches_direct_product(pair3, letters3):
    p1, c1 = phi_map(letters3[1] @ letters3[2], pair3)
    p2, c2 = phi_map(letters3[2] @ letters3[1], pair3)
    product = concat_F([p1, p2], pair3)
    direct = p1 @ pair3.separator @ p2
    assert np.allclose(product.matrix, direct.matrix)
    assert product.norm() >= p1.norm() + p2.norm() - EXTENSION_TOL
    spliced = concatenate_certificates(c1, c2, pair3)
    assert spliced.ok
    assert np.allclose(spliced.element.matrix, product.matrix)
    assert spliced.gaps.shape[0] == c1.gaps.shape[0] + c2.gaps.shape[0] - 1


def test_concat_single_part_passthrough(pair3, letters3):
    g = letters3[1]
    assert concat_F([g], pair3) is g
    with pytest.raises(ValueError):
        concat_F([], pair3)


def test_cancelling_parts_raise_lemma_counterexample(pair3, letters3):
    # g1^3 a g1^-3 collapses to a; the parts were never certified
    with pytest.raises(LemmaCounterexampleError) as info:
        concat_F([letters3[1].power(3), letters3[-1].power(3)], pair3)
    m = info.value.measurement
    assert m["deficit"] == pytest.approx(3.0, abs=1e-6)
    assert m["achieved"] == pytest.approx(pair3.separator.norm(), abs=1e-6)


def test_splices_hold_across_seed_pairs(pair3, seed3):
    certs = seed3.certificates[:5]
    for ci in certs:
        for cj in certs:
            spliced = concatenate_certificates(ci, cj, pair3)
            assert spliced.ok


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=4))
def test_interleaved_norms_superadditive(spec3, pair3, seed3, picks):
    parts = [seed3.elements[i] for i in picks]
    product = concat_F(parts, pair3)
    total = sum(p.norm() for p in parts)
    assert product.norm() >= total - EXTENSION_TOL


# ---------------------------------------------------------------------------
# Seed alphabet.


def test_seed_alphabet_frozen_shape(seed3):
    assert seed3.radius == pytest.approx(17.0)
    assert seed3.width == pytest.approx(1.5)
    assert len(seed3) == 12
    assert seed3.capped
    assert seed3.separation == pytest.approx(0.0306, abs=1e-9)
    norms = [g.norm() for g in seed3.elements]
    assert min(norms) >= seed3.radius - seed3.width
    assert max(norms) <= seed3.radius + 1e-9
    assert all(c.ok for c in seed3.certificates)
    assert len(seed3.certificates) == len(seed3)


def test_seed_alphabet_separation_oracle(spec3, seed3):
    # recompute every pairwise quotient with plain matrix products
    words = [reduce_word(g.word) for g in seed3.elements]
    assert len(set(words)) == len(words)
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            quotient = reduce_word(
                tuple(-lab for lab in reversed(words[i])) + words[j]
            )
            assert quotient
            m = word_matrix(quotient, spec3)
            dist = float(np.arccosh(max(m[0, 0], 1.0)))
            assert dist >= seed3.separation


def test_seed_alphabet_deterministic(spec3, pair3, seed3):
    again = build_seed_alphabet(spec3, pair3, 0.45)
    assert [g.word for g in again.elements] == [g.word for g in seed3.elements]


def test_seed_alphabet_torus_budget(torus, torus_pair):
    with pytest.raises(EnumerationBudgetError):
        build_seed_alphabet(torus, torus_pair, 0.45, max_elements=200_000)


# ---------------------------------------------------------------------------
# Family separation audit.


def test_family_injective_to_depth_three(spec3, pair3, seed3):
    report = family_separation(spec3, seed3.elements, pair3, depth=3)
    assert report["n_words"] == 12 + 144 + 1728
    assert report["injective"]
    assert report["min_distance"] >= 1e-7
    assert report["min_distance"] == pytest.approx(
        min(report["min_branch"], report["min_prefix"])
    )
    assert report["duplicate"] is None


def test_family_duplicate_detected(spec3, pair3, seed3):
    doctored = [seed3.elements[0], seed3.elements[1], seed3.elements[0]]
    report = family_separation(spec3, doctored, pair3, depth=2)
    assert not report["injective"]
    assert report["min_distance"] == 0.0
    assert report["duplicate"] == ((0,), (2,))


def test_family_prefix_collision_detected(spec3, pair3, seed3):
    doctored = [pair3.separator.inverse(), seed3.elements[0]]
    report = family_separation(spec3, doctored, pair3, depth=3)
    assert not report["injective"]
    assert report["prefix_identity"] == (0,)


def test_family_refuses_depths_past_float_matrices(spec3, pair3, seed3):
    # each interleave step adds |a^16| + |a| = 255: three pass cosh's range
    huge = pair3.separator.power(16)
    assert huge.norm() == pytest.approx(16 * pair3.separator.norm())
    with pytest.raises(FeasibilityError):
        family_separation(spec3, [huge, seed3.elements[0]], pair3, depth=3)


def test_family_rejects_symbolic_pair(spec3, seed3):
    literal = find_ping_pong_pair(spec3, mode="literal")
    with pytest.raises(FeasibilityError):
        family_separation(spec3, seed3.elements, literal)


# ---------------------------------------------------------------------------
# The interleaved family as one word tree.


def _frontier_family(alphabet, separator, cap):
    """Per-word frontier enumeration: word tuples and one matrix per word."""
    ext = [separator.matrix @ g.matrix for g in alphabet]
    words, mats = [], []
    frontier = [((j,), g.matrix) for j, g in enumerate(alphabet)]
    for level in range(1, cap + 1):
        words += [w for w, _ in frontier]
        mats += [m for _, m in frontier]
        if level < cap:
            frontier = [
                (w + (j,), m @ ext[j]) for w, m in frontier for j in range(len(ext))
            ]
    return words, np.array(mats)


def test_word_tree_matches_frontier_enumeration(spec3, pair3, seed3, ball3):
    fam = build_stage(seed3, spec3, pair3, ball3, eps=0.45).truncated_F
    words, mats = _frontier_family(seed3.elements, pair3.separator, fam.cap)
    assert fam.cap == 4
    assert fam.words == words
    assert fam.lengths.tolist() == [len(w) for w in words]
    padded = [list(w) + [-1] * (fam.cap - len(w)) for w in words]
    assert fam.letters.tolist() == padded
    assert fam.letters.flags["F_CONTIGUOUS"]
    norms = stable_arcosh(mats[:, 0, 0])
    assert np.allclose(fam.norms, norms, rtol=1e-12, atol=0.0)
    cols = mats[:, :, 0]
    assert np.max(np.abs(fam.columns - cols) / cols[:, :1]) <= 1e-12
    assert [fam.row_of(w) for w in words] == list(range(len(words)))
    # appending letter j to row r lands on row n (r + 1) + j
    n = len(seed3.elements)
    for r in (0, 7, 150, 1800):
        for j in (0, n - 1):
            assert fam.row_of(words[r] + (j,)) == n * (r + 1) + j


def test_family_separation_reads_the_word_tree(spec3, pair3, seed3):
    report = family_separation(spec3, seed3.elements, pair3, depth=3)
    words, mats = _frontier_family(seed3.elements, pair3.separator, 3)
    cols = mats[:, :, 0]
    gram = np.outer(cols[:, 0], cols[:, 0]) - cols[:, 1:] @ cols[:, 1:].T
    first = np.array([w[0] for w in words])
    upper = np.triu(np.ones(gram.shape, dtype=bool), k=1)
    mask = (first[:, None] != first[None, :]) & upper
    bi, bj = divmod(int(np.argmin(np.where(mask, gram, np.inf))), len(words))
    assert report["branch_pair"] == (words[bi], words[bj])
    short = [i for i, w in enumerate(words) if len(w) <= 2]
    vals = cols[short] @ pair3.separator.matrix[0]
    assert report["prefix_word"] == words[short[int(np.argmin(vals))]]


# ---------------------------------------------------------------------------
# Deep elements.


def test_torus_deep_element(torus, torus_ball):
    query = find_deep_element(torus, 2.0, torus_ball)
    assert query.result is not None
    witness = query.result
    assert witness.measured_depth >= 2.0 - 0.025
    x0 = Point(basepoint(2))
    assert distance(witness.x, x0) == pytest.approx(2.0, abs=1e-9)
    gx0 = Point(witness.element.matrix[:, 0])
    assert distance(witness.y, gx0) == pytest.approx(2.0, abs=1e-9)
    assert witness.element.norm() >= 2.0 * query.M
    assert query.diagnostics["certified"] > 0


def test_torus_deep_element_deterministic(torus, torus_ball):
    a = find_deep_element(torus, 2.0, torus_ball)
    b = find_deep_element(torus, 2.0, torus_ball)
    assert a.result.element.word == b.result.element.word
    assert np.allclose(a.result.x.coords, b.result.x.coords)
    assert a.result.measured_depth == b.result.measured_depth


def test_schottky_stays_shallow():
    spec = build_group("schottky")
    ball = enumerate_ball(spec, 12.0, prune_margin=2.0)
    query = find_deep_element(spec, 2.0, ball)
    assert query.result is None
    assert query.diagnostics["certified"] == 0


def test_deep_element_edge_cases(torus, torus_ball):
    trivial = find_deep_element(torus, 0.0, torus_ball)
    assert trivial.result.measured_depth == 0.0
    assert trivial.diagnostics == {"trivial": True}
    with pytest.raises(ValueError):
        find_deep_element(torus, 3.0, torus_ball)
    with pytest.raises(ValueError):
        find_deep_element(torus, -1.0, torus_ball)


# ---------------------------------------------------------------------------
# Staged construction.


def test_stage_one_conditions(spec3, pair3, seed3, ball3):
    stage = build_stage(seed3, spec3, pair3, ball3, eps=0.45)
    report = stage.condition_report
    assert report["k"] == 1
    assert report["R_k"] == pytest.approx(17.0)
    assert report["alphabet_size"] == 12
    assert not report["degenerate"]
    alpha, beta = stage.interval
    assert 0.0 < alpha < beta
    assert report["alpha_residual"] <= 0.15
    conds = report["conditions"]
    assert conds["1"]["gate"] == "recorded"
    assert conds["2"]["pass"] and beta - alpha <= 0.5
    assert conds["3"]["pass"] and conds["3"]["poincare"] > 2.0
    assert conds["4"]["pass"]
    json.dumps(report)


def test_stage_two_appends_certified_letter(spec3, pair3, seed3, ball3):
    stage1 = build_stage(seed3, spec3, pair3, ball3, eps=0.45)
    stage2 = build_stage(stage1, spec3, pair3, ball3, eps=0.45)
    report = stage2.condition_report
    assert report["k"] == 2
    assert report["R_k"] == pytest.approx(4.0 * 17.0)
    assert report["alphabet_size"] == 13
    sub = report["substitute_phi"]
    assert sub["meets_radius"]
    assert sub["splice_ok"]
    assert sub["norm"] >= report["R_k"]
    new_norm = report["alphabet_norms"][-1]
    assert new_norm >= report["R_k"]
    checks = report["conditions"]["4"]["checks"]
    assert [c["j"] for c in checks] == [1, 2]
    assert all(c["pass"] for c in checks)
    assert all(math.isfinite(c["mechanism_value"]) for c in checks)
    # the nested intervals shrink and stay ordered
    b1 = report["betas"]["1"]
    b2 = report["betas"]["2"]
    assert b2 < b1
    json.dumps(report)


def test_stage_sequence_hits_radius_wall(spec3, pair3, seed3, ball3):
    stage = build_stage(seed3, spec3, pair3, ball3, eps=0.45)
    betas = [stage.interval[1]]
    for _ in range(2):
        stage = build_stage(stage, spec3, pair3, ball3, eps=0.45)
        betas.append(stage.interval[1])
    assert betas == sorted(betas, reverse=True)
    assert stage.k == 3
    with pytest.raises(EnumerationBudgetError):
        build_stage(stage, spec3, pair3, ball3, eps=0.45)


def test_stage_reports_identical_across_runs(spec3, ball3):
    def run():
        pair = find_ping_pong_pair(spec3, ratio=2.5)
        seed = build_seed_alphabet(spec3, pair, 0.45)
        stage = build_stage(seed, spec3, pair, ball3, eps=0.45)
        stage = build_stage(stage, spec3, pair, ball3, eps=0.45)
        return json.dumps(stage.condition_report, sort_keys=True)

    assert run() == run()


def test_torus_single_letter_stage(torus, torus_pair):
    a, b = torus_pair.separator, torus_pair.adjuster
    anchor = b @ a @ b
    cert = check_property_A(anchor, torus_pair)
    assert cert.ok
    seed = SeedAlphabet(
        elements=[anchor],
        radius=anchor.norm(),
        width=torus_pair.scale,
        separation=0.0,
        eps=0.45,
        mode="synthetic",
        capped=False,
        candidates=1,
        certificates=[cert],
    )
    ball = enumerate_ball(torus, 8.0, prune_margin=2.0)
    stage = build_stage(seed, torus, torus_pair, ball, eps=0.45)
    report = stage.condition_report
    assert report["degenerate"]
    assert report["alphabet_size"] == 1
    assert report["conditions"]["3"]["poincare"] > 2.0
    json.dumps(report)


def test_starved_cap_fails_condition_three(torus, torus_pair):
    a, b = torus_pair.separator, torus_pair.adjuster
    anchor = b @ a @ b
    cert = check_property_A(anchor, torus_pair)
    seed = SeedAlphabet(
        elements=[anchor],
        radius=anchor.norm(),
        width=torus_pair.scale,
        separation=0.0,
        eps=0.45,
        mode="synthetic",
        capped=False,
        candidates=1,
        certificates=[cert],
    )
    ball = enumerate_ball(torus, 8.0, prune_margin=2.0)
    with pytest.raises(StageConditionError) as info:
        build_stage(seed, torus, torus_pair, ball, eps=0.45, word_cap=1)
    failure = info.value.report["failure"]
    assert failure["condition"] == 3
    assert failure["diagnostic"].startswith("truncation-dominated")
    json.dumps(info.value.report)


def test_exhausted_interval_fails_condition_two(spec3, pair3, seed3, ball3):
    stage1 = build_stage(seed3, spec3, pair3, ball3, eps=0.45)
    report = dict(stage1.condition_report)
    report["betas"] = {"1": 1e-12}
    report["M"] = {"1": stage1.condition_report["M"]["1"]}
    doctored = dataclasses.replace(stage1, condition_report=report)
    with pytest.raises(StageConditionError) as info:
        build_stage(doctored, spec3, pair3, ball3, eps=0.45)
    assert info.value.report["failure"]["condition"] == 2
    assert info.value.report["failure"]["reason"] == "empty beta interval"


def test_stage_rejects_literal_mode(spec3, seed3, ball3):
    literal = find_ping_pong_pair(spec3, mode="literal")
    with pytest.raises(FeasibilityError):
        build_stage(seed3, spec3, literal, ball3)
    with pytest.raises(TypeError):
        build_stage([1, 2, 3], spec3, find_ping_pong_pair(spec3, ratio=2.5), ball3)
