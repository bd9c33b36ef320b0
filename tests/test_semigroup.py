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
from kleinian import semigroup
from kleinian.chains import ChainParams, check_chain
from kleinian.hyperbolic import (
    Point,
    basepoint,
    boost,
    radial_split,
    ray_points,
    split_distance,
    stable_arcosh,
)
from kleinian.orbit import GroupSpec
from kleinian.semigroup import (
    EXTENSION_TOL,
    SemigroupError,
    _canonical_steps,
    _chain_verdicts,
    _closest_branching_pair,
    _first_certified,
)


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
# Closed-form straightening against per-element step chains.


def _annulus(spec, ratio, radius):
    """Pair, ball and the width-C annulus the seed walk straightens."""
    pair = find_ping_pong_pair(spec, ratio=ratio)
    ball = enumerate_ball(spec, radius, prune_margin=2.0)
    members = ball.by_norm()
    norms = ball.norms[members]
    sel = members[(norms >= radius - pair.scale) & (norms <= radius)]
    return spec, pair, ball, sel


@pytest.fixture(scope="module")
def chain_annulus():
    return _annulus(build_group("schottky", length=1.8), 1.28, 10.0)


@pytest.fixture(scope="module")
def torus_annulus(torus):
    return _annulus(torus, 1.0, 9.0)


@pytest.mark.parametrize(
    "name, size", [("chain_annulus", 2936), ("torus_annulus", 1644)]
)
def test_closed_form_verdicts_match_step_chains(request, name, size):
    # every decoration g, bg, gb, bgb of every annulus member, judged
    # by check_chain on the step list of its canonical chain
    spec, pair, ball, sel = request.getfixturevalue(name)
    assert sel.size == size
    choice, decorated = _first_certified(ball.mats[sel], pair)
    stack = decorated.reshape(-1, spec.dim + 1, spec.dim + 1)
    ok, gap, first, last = _chain_verdicts(stack, pair)
    params = pair.chain_params()
    a_norm = pair.separator.norm()
    step_ok = []
    for i, m in enumerate(stack):
        steps = _canonical_steps(Isometry(m), pair.separator, pair.gap_bound)
        cert = check_chain(steps, params)
        step_ok.append(cert.ok)
        assert cert.gaps[0] == cert.gaps[-1] == pytest.approx(a_norm, abs=1e-12)
        assert np.all(cert.gaps[1:-1] == gap[i])
        assert abs(cert.products[0] - first[i]) <= 1e-12
        assert abs(cert.products[-1] - last[i]) <= 1e-12
        assert np.all(np.abs(cert.products[1:-1]) <= 1e-12)
    step_ok = np.array(step_ok).reshape(4, -1)
    assert np.array_equal(ok.reshape(4, -1), step_ok)
    # both verdicts and every decoration occur, so each branch is checked
    assert 0 < ok.sum() < ok.size
    assert set(choice.tolist()) == {0, 1, 2, 3}
    expected = np.where(step_ok.any(axis=0), step_ok.argmax(axis=0), -1)
    assert np.array_equal(choice, expected)


def _reference_phi(element, pair):
    """Straightening as a per-element loop over step-form chain checks."""
    a, b = pair.separator, pair.adjuster
    if element.norm() < a.norm():
        candidates = [b @ a @ b]
    else:
        candidates = [element, b @ element, element @ b, b @ element @ b]
    for candidate in candidates:
        cert = check_property_A(candidate, pair)
        if cert.ok:
            return candidate, cert
    raise FactCounterexampleError("no decoration certified", [])


def _reference_seed(spec, pair, eps, *, n_min=4, n_cap=12, max_radius=40.0,
                    separation=None):
    """The seed walk with one reference straightening per annulus member;
    returns (radius, candidates, [(image, certificate)])."""
    w = pair.scale
    radius = int(math.ceil(pair.separator.norm() + w + 1e-9))
    while radius <= max_radius:
        ball = enumerate_ball(spec, float(radius), prune_margin=2.0)
        members = ball.by_norm()
        norms = ball.norms[members]
        sel = members[(norms >= radius - w) & (norms <= radius)]
        images = [_reference_phi(ball.element(int(i)), pair) for i in sel]
        images = [ic for ic in images if radius - w <= ic[0].norm() <= radius + 1e-9]
        images.sort(key=lambda ic: (ic[0].norm(), ic[0].word))
        sep = max(0.004 * eps * radius, 1e-9) if separation is None else separation
        kept = []
        for img, cert in images:
            if len(kept) == n_cap:
                break
            if sep >= 1.0:
                gaps = [distance(img.orbit_point(), g.orbit_point()) for g, _ in kept]
            else:
                gaps = [
                    stable_arcosh(
                        word_matrix(reduce_word(g.inverse().word + img.word), spec)[0, 0]
                    )
                    for g, _ in kept
                ]
            if all(gap >= sep for gap in gaps):
                kept.append((img, cert))
        if len(kept) >= n_min:
            return float(radius), int(sel.size), kept
        radius += 1
    raise AssertionError("reference walk found no seed")


@pytest.mark.parametrize("name", ["chain", "torus", "seed3"])
def test_seed_matches_per_element_straightening(request, name):
    if name == "seed3":
        spec, pair = request.getfixturevalue("spec3"), request.getfixturevalue("pair3")
        kwargs = {}
    else:
        spec, pair, _, _ = request.getfixturevalue(f"{name}_annulus")
        kwargs = {
            "chain": dict(n_min=5, n_cap=200, max_radius=13.0,
                          separation=18.0 * pair.scale + 4.15),
            "torus": dict(n_min=38, n_cap=38, max_radius=12.0,
                          separation=18.0 * pair.scale + 0.5),
        }[name]
    seed = build_seed_alphabet(spec, pair, 0.45, **kwargs)
    radius, candidates, kept = _reference_seed(spec, pair, 0.45, **kwargs)
    assert (seed.radius, seed.candidates) == (radius, candidates)
    assert [g.word for g in seed.elements] == [g.word for g, _ in kept]
    for g, (ref, ref_cert), cert in zip(seed.elements, kept, seed.certificates):
        assert np.array_equal(g.matrix, ref.matrix)
        assert cert.ok
        assert np.array_equal(cert.products, ref_cert.products)
    assert len(seed.certificates) == len(kept)


def test_seed_walk_raises_fact_counterexample(spec3, pair3):
    # the doomed pair of test_impossible_params_raise_fact_counterexample:
    # no decoration of any annulus member certifies
    doomed = dataclasses.replace(pair3, gap_bound=pair3.separator.norm() + 5.0)
    with pytest.raises(FactCounterexampleError) as info:
        build_seed_alphabet(spec3, doomed, 0.45)
    certs = info.value.certificates
    assert len(certs) == 4
    assert all(not c.ok for c in certs)
    g, b = certs[0].element.word, pair3.adjuster.word
    assert [c.element.word for c in certs] == [g, b + g, g + b, b + g + b]


def test_verdict_disagreement_raises(monkeypatch, spec3, pair3, letters3):
    # a kernel that passes every chain must be caught by the step form
    doomed = dataclasses.replace(pair3, gap_bound=pair3.separator.norm() + 5.0)
    closed_form = semigroup._chain_verdicts

    def lenient(mats, pair):
        ok, *rest = closed_form(mats, pair)
        return (np.ones_like(ok), *rest)

    monkeypatch.setattr(semigroup, "_chain_verdicts", lenient)
    with pytest.raises(SemigroupError, match="disagrees"):
        phi_map(letters3[1].power(6), doomed)
    with pytest.raises(SemigroupError, match="disagrees"):
        build_seed_alphabet(spec3, doomed, 0.45)


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


def _dense_branching_pair(cols, first):
    """One argmin over the whole masked n x n pairing matrix."""
    gram = np.outer(cols[:, 0], cols[:, 0]) - cols[:, 1:] @ cols[:, 1:].T
    upper = np.triu(np.ones(gram.shape, dtype=bool), k=1)
    mask = (first[:, None] != first[None, :]) & upper
    return divmod(int(np.argmin(np.where(mask, gram, np.inf))), len(cols))


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("block", [1, 1000, 50_000, semigroup.PAIRING_BLOCK])
def test_branching_pair_blocks_match_dense_pairing(
    monkeypatch, spec3, pair3, seed3, depth, block
):
    monkeypatch.setattr(semigroup, "PAIRING_BLOCK", block)
    report = family_separation(spec3, seed3.elements, pair3, depth=depth)
    words, mats = _frontier_family(seed3.elements, pair3.separator, depth)
    cols = mats[:, :, 0]
    first = np.array([w[0] for w in words])
    bi, bj = _dense_branching_pair(cols, first)
    assert report["branch_pair"] == (words[bi], words[bj])
    # reversed rows move the closest pair into the last block; copies of
    # its two rows tie it, and the first pair in row-major order wins
    for c, f in (
        (cols[::-1], first[::-1]),
        (np.concatenate([cols, cols[[bi, bj]]]), np.concatenate([first, first[[bi, bj]]])),
    ):
        assert _closest_branching_pair(c, f) == _dense_branching_pair(c, f)


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


def _batched_deep_choice(ball, M, batch, fractions=(0.35, 0.5, 0.65), slack=0.25):
    """Reference for dimension 3 and up: candidates scanned in batches of
    ray samples, one split_distance row per sample.  Returns the candidate
    rows, the first certified position and the certified count."""
    target = 2.0 * M + slack
    members = ball.by_norm()
    cand = members[ball.norms[members] >= 2.0 * target]
    norms = ball.norms[cand]
    _, dirs = radial_split(ball.orbit_points(cand))
    rc, uc = radial_split(ball.orbit_points(ball.members))
    chosen, certified = None, 0
    for start in range(0, cand.size, batch):
        block = np.arange(start, min(start + batch, cand.size))
        rs = np.concatenate([f * norms[block] for f in fractions])
        samples = [ray_points(dirs[block], f * norms[block]) for f in fractions]
        rp, up = radial_split(np.concatenate(samples))
        vals = np.array([split_distance(r, u, rc, uc).min() for r, u in zip(rp, up)])
        per = (np.minimum(vals, ball.radius - rs) >= target).reshape(len(fractions), -1)
        per = per.any(axis=0)
        certified += int(per.sum())
        if chosen is None and per.any():
            chosen = int(block[np.flatnonzero(per)[0]])
    return cand, chosen, certified


def test_deep_element_3d_matches_batched_scan():
    """Boosts a, b of lengths 2.5 and 5.5 along orthogonal axes of H^3: the
    first two candidates, a^2 and a^-2 of norm 5, stay shallow and b is
    the first deep one; the witness is b, entered and left at depth 1."""
    spec = GroupSpec([boost(3, 1, 2.5), boost(3, 2, 5.5)], 3, free=True)
    ball = enumerate_ball(spec, 12.0, prune_margin=2.0)
    query = find_deep_element(spec, 1.0, ball)
    cand, chosen, certified = _batched_deep_choice(ball, 1.0, batch=7)
    assert (chosen, certified) == (2, 34)
    assert query.diagnostics["candidates"] == cand.size
    assert query.diagnostics["certified"] == certified
    assert query.diagnostics["chosen_norm"] == ball.norms[cand[chosen]]
    witness = query.result
    assert witness.element.word == ball.word(cand[chosen]) == (2,)
    e2 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(witness.x.coords, ray_points(e2, 1.0), rtol=1e-12, atol=1e-12)
    assert np.allclose(witness.y.coords, ray_points(e2, 4.5), rtol=1e-12, atol=1e-12)
    assert witness.measured_depth == pytest.approx(1.0, abs=1e-9)


def test_deep_element_3d_benchmark_case_stays_uncertified():
    spec = build_group("schottky", length=2.0, dim=3)
    ball = enumerate_ball(spec, 10.0, prune_margin=2.0)
    query = find_deep_element(spec, 1.0, ball)
    cand, chosen, certified = _batched_deep_choice(ball, 1.0, batch=512)
    assert (chosen, certified) == (None, 0)
    assert query.result is None
    assert query.diagnostics == {
        "candidates": cand.size,
        "threshold": 2.25,
        "certified": 0,
    }


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
