"""Atomic boundary measures, shadow reports, and direction statistics."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinian import (
    BoundaryPoint,
    ExponentRegimeError,
    HorizonError,
    apex_products,
    build_seed_alphabet,
    build_stage,
    conical_profile,
    enumerate_ball,
    find_ping_pong_pair,
    myrberg_witness,
    ps_atoms,
    punctured_torus,
    quasi_invariance_report,
    schottky,
    shadow_members,
    shadow_nesting_report,
    shadow_principle_report,
    shadow_tail_report,
)
from kleinian.hyperbolic import (
    Isometry,
    basepoint,
    geodesic_point,
    gromov_product,
    minkowski_inner,
    radial_split,
    ray_coordinates,
    ray_distance,
    ray_points,
    stable_arcosh,
)
from kleinian import measure
from kleinian.measure import (
    TOL_SERIES,
    W_MIN,
    _apex_pass,
    _box_bound,
    _extension_rows,
    _is_prefix,
    _pairing,
    _screen_bound,
)
from kleinian.semigroup import SemigroupStage, TruncatedFamily, _enumerate_family
from test_benchmark_contract import _load
from conftest import golden_section_projection, myrberg_every_member


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def spec3():
    return schottky(length=3.0)


@pytest.fixture(scope="module")
def pair3(spec3):
    return find_ping_pong_pair(spec3, ratio=2.5)


@pytest.fixture(scope="module")
def seed3(spec3, pair3):
    return build_seed_alphabet(spec3, pair3, 0.45)


@pytest.fixture(scope="module")
def stage3(spec3, pair3, seed3):
    ball = enumerate_ball(spec3, 8.0)
    return build_stage(seed3, spec3, pair3, ball, eps=0.45)


@pytest.fixture(scope="module")
def atoms3(stage3):
    return ps_atoms(stage3, stage3.interval[0] + 0.1)


def _floored_atoms(stage, s, w_min):
    """``ps_atoms`` under the weight floor ``w_min``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "W_MIN", w_min)
        return ps_atoms(stage, s)


@pytest.fixture(scope="module")
def light3(stage3):
    return _floored_atoms(stage3, stage3.interval[0] + 0.1, 1e-6)


@pytest.fixture(scope="module")
def chain_regime():
    # densest builtin still satisfying ping-pong; the short translation
    # length keeps junction slack below the separator norm, which is what
    # the shadow-principle upper bound needs
    spec = schottky(length=1.8)
    pair = find_ping_pong_pair(spec, ratio=1.28)
    ball = enumerate_ball(spec, 13.0, prune_margin=2.0)
    seed = build_seed_alphabet(
        spec,
        pair,
        0.45,
        n_min=30,
        n_cap=200,
        separation=18.0 * pair.scale + 4.15,
        max_radius=13.0,
    )
    stage = build_stage(
        seed, spec, pair, ball, eps=0.45, word_cap=3, max_words=400_000
    )
    atoms = ps_atoms(stage, stage.interval[0] + 0.1)
    return spec, pair, stage, atoms


@pytest.fixture(scope="module")
def spec22():
    return schottky(length=2.2)


@pytest.fixture(scope="module")
def ball22(spec22):
    return enumerate_ball(spec22, 15.0, prune_margin=2.0)


@pytest.fixture(scope="module")
def letters22(spec22):
    return dict(spec22.letters())


@pytest.fixture(scope="module")
def torus():
    return punctured_torus()


@pytest.fixture(scope="module")
def torus_ball(torus):
    return enumerate_ball(torus, 12.0, prune_margin=2.0)


@pytest.fixture(scope="module")
def wide_tiny(torus):
    """(pair, stage, atoms) of the wide-torus benchmark's tiny pass."""
    p = _load("workloads").WORKLOADS["wide-torus"].sizes["tiny"]
    ball = enumerate_ball(torus, p["ball_radius"], prune_margin=2.0)
    pair = find_ping_pong_pair(torus, ratio=p["ratio"])
    seed = build_seed_alphabet(
        torus,
        pair,
        0.45,
        n_min=p["n_min"],
        n_cap=p["n_cap"],
        separation=18.0 * pair.scale + p["separation_offset"],
        max_radius=p["max_radius"],
    )
    stage = build_stage(
        seed, torus, pair, ball, eps=0.45, word_cap=3, max_words=400_000
    )
    return pair, stage, ps_atoms(stage, stage.interval[0] + 0.1)


@pytest.fixture(scope="module")
def shadow_sets(pair3, stage3, atoms3, light3, wide_tiny):
    """(pair, stage, atoms) by name: full, floor-dropped, wide-torus."""
    return {
        "atoms3": (pair3, stage3, atoms3),
        "light3": (pair3, stage3, light3),
        "wide_tiny": wide_tiny,
    }


def _boost(t, theta, dim=2):
    u = np.zeros(dim)
    u[0], u[1] = math.cos(theta), math.sin(theta)
    m = np.eye(dim + 1)
    m[0, 0] = math.cosh(t)
    m[0, 1:] = math.sinh(t) * u
    m[1:, 0] = math.sinh(t) * u
    m[1:, 1:] = np.eye(dim) + (math.cosh(t) - 1.0) * np.outer(u, u)
    return m


def _stub_stage(norms, pair):
    """Stage whose family is one letter per requested norm."""
    elements = [
        Isometry(_boost(t, 0.7 * i + 0.3), (i + 1,))
        for i, t in enumerate(norms)
    ]
    fam = TruncatedFamily(
        letters=np.arange(len(norms))[:, None],
        norms=np.asarray(norms, dtype=float),
        columns=np.stack([g.matrix[:, 0] for g in elements]),
        cap=1,
        requested_cap=1,
        overflow=0,
        budget_hit=False,
    )
    return SemigroupStage(
        k=1,
        alphabet=elements,
        interval=(0.0, 0.1),
        R_k=float(max(norms)),
        truncated_F=fam,
        condition_report={},
        pair=pair,
    )


# -- atom weights -----------------------------------------------------------


def test_single_atom_gets_full_weight(pair3):
    atoms = ps_atoms(_stub_stage([3.0], pair3), 0.5)
    assert len(atoms) == 1
    assert np.allclose(atoms.weights, [1.0])
    assert atoms.Z == pytest.approx(math.exp(-1.5), rel=1e-15)
    assert atoms.dropped_floor == 0
    assert atoms.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_equal_norms_split_evenly(pair3):
    atoms = ps_atoms(_stub_stage([3.0, 3.0], pair3), 0.7)
    assert np.allclose(atoms.weights, [0.5, 0.5])


@settings(max_examples=40, deadline=None)
@given(
    norms=st.lists(st.floats(0.5, 8.0), min_size=1, max_size=5),
    s=st.floats(0.3, 1.2),
)
def test_weights_follow_the_exponential_law(pair3, norms, s):
    atoms = ps_atoms(_stub_stage(norms, pair3), s)
    raw = np.exp(-s * np.asarray(norms))
    expect = raw / raw.sum()
    kept = expect[expect >= W_MIN]
    assert np.allclose(np.sort(atoms.weights), np.sort(kept), rtol=1e-12)
    assert atoms.total_mass() + atoms.mass_drop == pytest.approx(1.0, abs=1e-9)


def test_weights_match_sorted_summation(stage3, atoms3):
    s = atoms3.s
    z_oracle = float(np.sum(np.sort(np.exp(-s * stage3.truncated_F.norms))))
    assert atoms3.Z == pytest.approx(z_oracle, rel=1e-12)
    assert atoms3.Z == pytest.approx(0.7514471912650421, rel=1e-12)
    assert np.all(atoms3.weights > 0.0)
    assert atoms3.total_mass() == pytest.approx(1.0, abs=1e-9)
    expect = np.exp(-s * atoms3.norms) / z_oracle
    assert np.allclose(atoms3.weights, expect, rtol=1e-12)


def test_exponent_at_or_below_growth_rate_is_rejected(stage3):
    with pytest.raises(ExponentRegimeError):
        ps_atoms(stage3, stage3.interval[0])
    with pytest.raises(ExponentRegimeError):
        ps_atoms(stage3, stage3.interval[0] - 0.05)


def test_weight_floor_drop_is_accounted(stage3):
    s = stage3.interval[0] + 0.1
    light = _floored_atoms(stage3, s, 1e-6)
    assert light.dropped_floor == 20736
    assert len(light) == 1884
    assert light.mass_drop == pytest.approx(1.5642600137444362e-4, rel=1e-9)
    assert abs(1.0 - light.total_mass()) <= light.mass_drop + 1e-15
    heavy = _floored_atoms(stage3, s, 1e-5)
    assert heavy.dropped_floor > light.dropped_floor
    assert heavy.mass_drop > light.mass_drop
    assert light.dropped_overflow == 0


def test_weight_floor_default():
    assert W_MIN == 1e-12
    assert TOL_SERIES == 1e-6


# -- word-tree lookups ------------------------------------------------------


def _transport_oracle(atoms, n_letters=4):
    """Transported mass and slack per (apex, h) through a word -> row dict."""
    row = {w: i for i, w in enumerate(atoms.words)}
    letters = [w for w in atoms.words if len(w) == 1][:n_letters]
    out = []
    for k in letters:
        member = np.flatnonzero(apex_products(atoms, k) <= 8.0 * atoms.scale)
        for h in letters:
            moved = slack = 0.0
            for v in member:
                hv = h + atoms.words[v]
                if hv in row:
                    moved += atoms.weights[row[hv]]
                else:
                    slack += atoms.weights[v]
            out.append((moved, slack))
    return out


@pytest.mark.parametrize("name", ["atoms3", "light3"])
def test_word_tree_lookups_match_tuple_slicing(request, name, pair3):
    atoms = request.getfixturevalue(name)
    fam = atoms.family
    if name == "light3":
        assert (len(atoms), atoms.dropped_floor) == (1884, 20736)
    # the word views, read once, against the family's rows
    fam_words, words = list(fam.words), list(atoms.words)
    assert words == [fam_words[i] for i in atoms.family_rows]
    assert atoms.words[-1] == words[-1] and fam.words[-1] == fam_words[-1]
    with pytest.raises(IndexError):
        atoms.words[len(words)]
    family_row = {w: i for i, w in enumerate(fam_words)}
    assert [atoms.row_of(w) for w in words] == list(range(len(atoms)))
    assert [family_row[w] for w in words] == atoms.family_rows.tolist()
    for j in range(1, atoms.cap):
        longer = np.flatnonzero(atoms.lengths > j)
        suffix = fam.rows_after(-1, atoms.letters[longer, j:])
        prefix = fam.rows_after(-1, atoms.letters[longer, :j])
        assert suffix.tolist() == [family_row[words[i][j:]] for i in longer]
        assert prefix.tolist() == [family_row[words[i][:j]] for i in longer]
    for g in words[:: len(atoms) // 40]:
        expect = [w[: len(g)] == g for w in words]
        assert _is_prefix(atoms, g).tolist() == expect
    checks = quasi_invariance_report(atoms, pair3)["checks"]
    oracle = _transport_oracle(atoms)
    assert len(checks) == len(oracle) == 16
    for check, (moved, slack) in zip(checks, oracle):
        assert np.isclose(check["transported"], moved, rtol=1e-12, atol=0.0)
        assert np.isclose(check["slack"], slack, rtol=1e-12, atol=0.0)
    if name == "light3":
        # words prepended past the floor land in the slack
        assert any(check["slack"] > 0.0 for check in checks)


def _is_prefix_scan(atoms, g):
    """Reference for _is_prefix: one letter comparison per position."""
    ok = atoms.lengths >= len(g)
    for p, j in enumerate(g):
        ok &= atoms.letters[:, p] == j
    return ok


@pytest.mark.parametrize("name", ["atoms3", "light3"])
def test_prefix_runs_match_letter_scan(request, name):
    atoms = request.getfixturevalue(name)
    fam = atoms.family
    # every short word, dropped ones included, and a stride of the longest
    fam_words = list(fam.words)
    words = [()] + [w for w in fam_words if len(w) < fam.cap]
    words += fam_words[len(words) - 1 :: 97]
    for g in words:
        assert np.array_equal(_is_prefix(atoms, g), _is_prefix_scan(atoms, g)), g


def test_row_of_rejects_dropped_and_foreign_words(atoms3, light3):
    n = light3.family.n_letters
    dropped = light3.family.words[-1]
    assert dropped in atoms3.words and dropped not in light3.words
    for word in (dropped, (n,), (0, n), (-1,), (), (0,) * (light3.cap + 1)):
        with pytest.raises(KeyError):
            light3.row_of(word)
    with pytest.raises(KeyError):
        atoms3.row_of((0, n))


def test_family_and_atoms_hold_no_word_lists(atoms3, light3):
    # words are views over the letter tables, never lists of tuples
    for store in (atoms3.family, atoms3, light3):
        assert not [k for k, v in vars(store).items() if isinstance(v, list)]


# -- shadows ----------------------------------------------------------------


def test_alphabet_pair_directions_land_in_shadow(seed3, pair3):
    """The direction of g h lies in the shadow of g at r = 8C: the
    word-level overlap of g and h and the Gromov product, seen from the
    apex g x0, of a far proxy point on the direction's ray (radius 32)
    both stay below r, and a direction away from g x0 stays above it."""
    r = 8.0 * pair3.scale
    x0 = basepoint(2)
    K = seed3.elements
    for i in (0, 1, 5):
        for j in (2, 7, 11):
            g, h = K[i], K[j]
            gh = g @ h
            overlap = 0.5 * (g.norm() + h.norm() - gh.norm())
            assert overlap < r
            direction = radial_split(gh.matrix[:, 0])[1]
            assert gromov_product(ray_points(direction, 32.0), x0, g.matrix[:, 0]) <= r
    # the proxy product tracks the word-level overlap
    g, h = K[0], K[2]
    gh = g @ h
    direction = radial_split(gh.matrix[:, 0])[1]
    proxy = gromov_product(ray_points(direction, 32.0), x0, g.matrix[:, 0])
    word_level = 0.5 * (g.norm() + h.norm() - gh.norm())
    assert proxy == pytest.approx(word_level, abs=1.0)
    outside = np.array([1.0, 0.0])
    assert gromov_product(ray_points(outside, 32.0), x0, g.matrix[:, 0]) > r


def test_apex_products_match_letter_reduction(spec3, pair3, seed3, atoms3):
    apex = next(w for w in atoms3.words if len(w) == 2)
    prods = apex_products(atoms3, apex)
    mats = dict(spec3.letters())
    K = seed3.elements
    sep = pair3.separator

    def expand(word):
        out = []
        for pos, i in enumerate(word):
            if pos:
                out.extend(sep.word)
            out.extend(K[i].word)
        return out

    def reduce_labels(labels):
        out = []
        for lab in labels:
            if out and out[-1] == -lab:
                out.pop()
            else:
                out.append(lab)
        return out

    def norm_of_labels(labels):
        m = np.eye(3)
        for lab in labels:
            m = m @ (mats[lab] if lab > 0 else np.linalg.inv(mats[-lab]))
        return stable_arcosh(m[0, 0])

    apex_labels = expand(apex)
    apex_norm = norm_of_labels(apex_labels)
    inv_apex = [-lab for lab in reversed(apex_labels)]
    rng = np.random.default_rng(0)
    rows = list(rng.choice(len(atoms3), 25, replace=False))
    rows.append(atoms3.row_of(apex))
    rows.append(atoms3.row_of(apex[:1]))
    rows.append(
        next(i for i, w in enumerate(atoms3.words) if len(w) == 3 and w[:2] == apex)
    )
    for i in rows:
        reduced = reduce_labels(inv_apex + expand(atoms3.words[int(i)]))
        separated = norm_of_labels(reduced) if reduced else 0.0
        oracle = 0.5 * (apex_norm + separated - atoms3.norms[int(i)])
        assert prods[int(i)] == pytest.approx(oracle, abs=1e-9)
    assert prods[atoms3.row_of(apex)] == pytest.approx(0.0, abs=1e-9)


# -- batched shadow membership ----------------------------------------------


def _members_loop(atoms, apex_rows, r, work=None):
    """Reference for shadow_members: one apex_products call per apex."""
    return [
        np.flatnonzero(apex_products(atoms, atoms.words[i]) <= r) for i in apex_rows
    ]


def _assert_members_match(atoms, apex_rows, r):
    got = shadow_members(atoms, apex_rows, r)
    want = _members_loop(atoms, apex_rows, r)
    assert len(got) == len(want)
    for fast, slow in zip(got, want):
        assert np.array_equal(fast, slow)
        mask = np.zeros(len(atoms), dtype=bool)
        mask[slow] = True
        assert atoms.weights[fast].sum() == atoms.weights[mask].sum()
    return got


def _apex_sample(atoms):
    """Every word up to length 2 and a stride of the longer ones."""
    short = np.flatnonzero(atoms.lengths <= 2)
    return np.concatenate([short, np.flatnonzero(atoms.lengths > 2)[::101]])


@pytest.mark.parametrize("name", ["atoms3", "light3", "wide_tiny"])
def test_shadow_members_match_per_apex_loop(shadow_sets, name):
    _, _, atoms = shadow_sets[name]
    _assert_members_match(atoms, _apex_sample(atoms), 8.0 * atoms.scale)


@pytest.mark.parametrize("name", ["atoms3", "wide_tiny"])
def test_shadow_members_decide_screened_branches_exactly(shadow_sets, name):
    """At r past the shortest letter norm, branches survive the screen."""
    _, _, atoms = shadow_sets[name]
    letters = np.flatnonzero(atoms.lengths == 1)
    r = float(atoms.norms[letters].min()) + 0.5
    apexes = _apex_sample(atoms)
    got = _assert_members_match(atoms, apexes, r)
    first = atoms.letters[:, 0]
    crossing = sum(int(np.sum(first[m] != first[i])) for i, m in zip(apexes, got))
    assert crossing > 0


@pytest.mark.parametrize("name", ["atoms3", "light3", "wide_tiny"])
def test_shadow_members_count_a_boundary_entry(shadow_sets, name):
    """r equal to one branch product: that atom sits on the boundary."""
    _, _, atoms = shadow_sets[name]
    i = int(np.flatnonzero(atoms.lengths == 1)[0])
    prods = apex_products(atoms, atoms.words[i])
    branch = np.flatnonzero(atoms.letters[:, 0] != atoms.letters[i, 0])
    j = int(branch[np.argmin(prods[branch])])
    (members,) = _assert_members_match(atoms, [i], float(prods[j]))
    assert j in members


@settings(max_examples=300, deadline=None)
@given(
    rg=st.floats(0.0, 300.0),
    rf=st.floats(0.0, 300.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    offset=st.one_of(
        st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-math.pi, math.pi)
    ),
)
def test_screen_keeps_every_member(rg, rf, angle, offset):
    """f on the boundary of S(g x0, r) always passes the cosh-domain screen."""
    g = ray_points(np.array([math.cos(angle), math.sin(angle)]), rg)
    u = np.array([math.cos(angle + offset), math.sin(angle + offset)])
    fcols = ray_points(u, rf)[None]
    ng, nf = stable_arcosh(g[0]), stable_arcosh(fcols[:, 0])
    # the reference product, as apex_products forms it
    cosh_d = _pairing(g, fcols)
    r = float(0.5 * (ng + stable_arcosh(cosh_d) - nf)[0])
    # a one-atom box: its bound is the atom's own c e^{-|f|}
    scaled = _scaled(fcols, nf).T
    assert _box_bound(g, scaled, scaled)[0] <= _screen_bound(g[0], ng, r)


def _scaled(cols, norms):
    """Columns times e^{-|f|} with the spatial part negated, one per row."""
    return cols * np.exp(-norms)[:, None] * np.where(np.arange(cols.shape[1]), -1, 1)


def _plane_pair(dim, angle, tilt):
    """A unit vector u at (angle, tilt) and a unit vector orthogonal to it."""
    u = np.zeros(dim)
    w = np.zeros(dim)
    u[0], u[1] = math.cos(angle), math.sin(angle)
    w[0], w[1] = -math.sin(angle), math.cos(angle)
    if dim == 3:
        u = np.array([u[0] * math.cos(tilt), u[1] * math.cos(tilt), math.sin(tilt)])
    return u, w


def _turned(u, w, offset, spin):
    """u turned by ``offset`` in a plane through u, spun about u in 3-d."""
    v = w if u.shape[0] == 2 else math.cos(spin) * w + math.sin(spin) * np.cross(u, w)
    return math.cos(offset) * u + math.sin(offset) * v


# (radius, turn off u, spin about u) of one atom's column
_BRANCH = st.tuples(
    st.floats(0.0, 300.0),
    st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-math.pi, math.pi)),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    rg=st.floats(0.0, 300.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    tilt=st.floats(-1.5, 1.5),
    branches=st.lists(_BRANCH, min_size=1, max_size=5),
    r=st.floats(0.0, 50.0),
)
def test_nesting_screen_keeps_the_minimum(dim, rg, angle, tilt, branches, r):
    """Each branch product lies between the two cosh-domain bounds, and a
    threshold max(r, U), U the product of the first branch, keeps the
    smallest product and every product up to r."""
    u, w = _plane_pair(dim, angle, tilt)
    g = ray_points(u, rg)
    ng = stable_arcosh(g[0])
    fcols = np.array([ray_points(_turned(u, w, o, s), rf) for rf, o, s in branches])
    nf = stable_arcosh(fcols[:, 0])
    # the reference products, as apex_products forms them
    prods = 0.5 * (ng + stable_arcosh(_pairing(g, fcols)) - nf)
    scaled = _scaled(fcols, nf).T
    screen = _box_bound(g[:, None], scaled, scaled)
    # lower bound (|g| + log s) / 2 and upper bound (|g| + log 2s) / 2,
    # widened like the screen
    assert np.all(screen <= _screen_bound(g[0], ng, prods))
    assert np.all(
        np.exp(2.0 * prods - ng) <= 2.0 * screen * (1.0 + 1e-9) + 1e-12 * g[0]
    )
    # the pass keeps what does not compare above the bound, NaN included
    kept = ~(screen > _screen_bound(g[0], ng, max(r, prods[0])))
    assert prods[kept].min() == prods.min()
    assert not np.any(~kept & (prods <= r))


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    rq=st.floats(0.0, 300.0),
    head=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
    angle=st.floats(0.0, 2.0 * math.pi),
    tilt=st.floats(-1.5, 1.5),
    tails=st.lists(
        st.tuples(_BRANCH, st.floats(0.0, 300.0)), min_size=1, max_size=4
    ),
)
def test_box_bound_keeps_every_member(dim, rq, head, angle, tilt, tails):
    """A subtree's box bound is at most each of its atoms' c e^{-|f|}, and
    at any atom's own product the q_0-widened test expands the subtree.

    The quotient column q = col(g[p:]) sits at radius rq, with
    |g| = rq + head (p >= 1 when head > 0); each atom's tail column
    col(f[p:]) at radius rf, directions down to 1e-9 apart, with
    |f| = rf + its own head.
    """
    u, w = _plane_pair(dim, angle, tilt)
    q = ray_points(u, rq)
    ng = rq + head
    cols = np.array([ray_points(_turned(u, w, o, s), rf) for (rf, o, s), _ in tails])
    nf = stable_arcosh(cols[:, 0]) + np.array([h for _, h in tails])
    scaled = _scaled(cols, nf)
    bound = _box_bound(q, scaled.min(axis=0), scaled.max(axis=0))
    c = _pairing(q, cols)
    assert np.all(bound <= c * np.exp(-nf) + 1e-12 * q[0])
    # each atom's product, as apex_products forms it at a branch
    prods = 0.5 * (ng + stable_arcosh(c) - nf)
    assert not np.any(bound > _screen_bound(q[0], ng, prods))


def _nesting_loop(atoms, pair):
    """Reference for shadow_nesting_report: one apex_products call per apex."""
    bound = 9.0 * pair.scale
    order = np.argsort(atoms.norms, kind="stable")[: measure.MAX_APEXES]
    violations = []
    n_inside = nan_apexes = 0
    min_outside = math.inf
    for row in order:
        v = atoms.words[int(row)]
        prods = apex_products(atoms, v)
        inside = prods < bound
        ext = _is_prefix_scan(atoms, v)
        n_inside += int(inside.sum())
        bad = inside & ~ext
        outside_vals = prods[~ext]
        if outside_vals.size:
            nan_apexes += bool(np.isnan(outside_vals).any())
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
        "nan_apexes": nan_apexes,
    }


def _quasi_loop(atoms, pair, *, seed=0):
    """Reference for quasi_invariance_report: full apex_products per letter."""
    s = atoms.s
    na = atoms.separator_norm
    r = 8.0 * atoms.scale
    first = np.flatnonzero(atoms.lengths == 1)[: measure.QUASI_LETTERS]
    letters = [atoms.words[i] for i in first]
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
        audit_members += int(np.sum(~_is_prefix_scan(atoms, k) & member))
        sample = rng.choice(
            np.flatnonzero(~member), size=min(measure.AUDIT_SIZE, int((~member).sum())),
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


def _values(report):
    """A report without ``screen``, the pass's work counts, which the
    reference loops do not have."""
    return {k: v for k, v in report.items() if k != "screen"}


def _five_reports(pair, stage, atoms):
    """The five pipeline reports, looked up on the module so a test can
    swap in the reference loops."""
    delta = stage.interval[0]
    return [
        _values(measure.shadow_principle_report(atoms, delta, pair)),
        _values(measure.shadow_nesting_report(atoms, pair)),
        measure.quasi_invariance_report(atoms, pair),
        measure.shadow_tail_report(atoms, 0.2, delta),
        measure.shadow_tail_report(atoms, 0.4, delta),
    ]


def _use_reference_loops(monkeypatch):
    monkeypatch.setattr(measure, "shadow_members", _members_loop)
    monkeypatch.setattr(measure, "_is_prefix", _is_prefix_scan)
    monkeypatch.setattr(measure, "shadow_nesting_report", _nesting_loop)
    monkeypatch.setattr(measure, "quasi_invariance_report", _quasi_loop)


@pytest.mark.parametrize("name", ["atoms3", "light3", "wide_tiny"])
def test_reports_match_per_apex_path(shadow_sets, name, monkeypatch):
    """Every report value is bit-identical to the per-apex loops."""
    fast = _five_reports(*shadow_sets[name])
    _use_reference_loops(monkeypatch)
    assert _five_reports(*shadow_sets[name]) == fast


@pytest.mark.parametrize("name", ["atoms3", "wide_tiny"])
def test_small_blocks_match_per_apex_path(shadow_sets, name, monkeypatch):
    """Cone chunks and screen blocks of a few pairs give the same values."""
    pair, _, atoms = shadow_sets[name]
    monkeypatch.setattr(measure, "SHADOW_BLOCK", 5 * len(atoms) // 2)
    _assert_members_match(atoms, _apex_sample(atoms), 8.0 * atoms.scale)
    assert _values(shadow_nesting_report(atoms, pair)) == _nesting_loop(atoms, pair)
    assert quasi_invariance_report(atoms, pair) == _quasi_loop(atoms, pair)


@pytest.mark.parametrize("name", ["atoms3", "light3", "wide_tiny"])
def test_walk_expands_every_atom_below_the_threshold(shadow_sets, name):
    """Brute force, apex by apex, length 3 included: the walk forms each
    product at most once and equal to apex_products, its rows hold g's
    prefixes and extensions and every atom with product at most r, and in
    nesting mode every atom below 9C and the smallest product outside the
    extensions."""
    pair, _, atoms = shadow_sets[name]
    apexes = _apex_sample(atoms)
    assert np.any(atoms.lengths[apexes] == 3)
    for t, nesting in ((8.0 * atoms.scale, False), (9.0 * pair.scale, True)):
        work = Counter()
        for i, rows, prods, ext in _apex_pass(atoms, apexes, t, work, nesting=nesting):
            g = atoms.words[apexes[i]]
            want = apex_products(atoms, g)
            prefix = _is_prefix_scan(atoms, g)
            assert np.unique(rows).size == rows.size, g
            assert np.array_equal(prods, want[rows], equal_nan=True), g
            assert np.array_equal(ext, prefix[rows]), g
            # every product at most t, g's extensions and its prefixes
            heads = [atoms.family.row_of(g[:j]) for j in range(1, len(g))]
            heads = atoms._atom_row[heads][atoms._atom_row[heads] >= 0]
            must = np.flatnonzero((want <= t) | prefix).tolist() + heads.tolist()
            assert set(must) <= set(rows.tolist()), g
            if nesting and not prefix.all():
                assert prods[~ext].min() == want[~prefix].min(), g
        assert work["expanded_subtrees"] < work["box_tests"]
        assert work["exact_pairs"] < len(apexes) * len(atoms)


def test_nesting_without_outside_atoms_keeps_inf(pair3):
    """One atom, its own apex: nothing lies outside any cone."""
    atoms = ps_atoms(_stub_stage([3.0], pair3), 0.5)
    report = shadow_nesting_report(atoms, pair3)
    assert _values(report) == _nesting_loop(atoms, pair3)
    assert report["min_product_outside"] == math.inf
    assert report["n_apexes"] == 1
    assert report["n_inside"] == 1
    assert report["ok"]


def test_nesting_keeps_pairings_that_overflow(pair3):
    """Letters past radius 355 pair to NaN, the walk keeps them, and the
    report counts the apexes whose minimum they make NaN."""
    atoms = ps_atoms(_stub_stage([360.0, 340.0, 375.0], pair3), 0.01)
    assert np.isnan(apex_products(atoms, (1,))).any()
    report = shadow_nesting_report(atoms, pair3)
    assert _values(report) == _nesting_loop(atoms, pair3)
    assert report["nan_apexes"] > 0


def test_nesting_expands_every_subtree_where_pairings_overflow(pair3):
    """Where |g| + max|f| passes 700 every subtree expands.  On this cap-3
    stage of two letters, pairings past the float range give NaN in
    subtrees the boxes alone would skip; the report still equals the
    per-apex loop, NaN count included."""
    letters = [
        Isometry(_boost(t, theta), (i + 1,))
        for i, (t, theta) in enumerate([(216.0, 2.4), (142.0, 0.1)])
    ]
    fam = _enumerate_family(letters, pair3.separator, 3, 10_000)
    stage = SemigroupStage(
        k=1,
        alphabet=letters,
        interval=(0.0, 0.1),
        R_k=216.0,
        truncated_F=fam,
        condition_report={},
        pair=pair3,
    )
    atoms = ps_atoms(stage, 0.01)
    assert atoms.cap == 3
    report = shadow_nesting_report(atoms, pair3)
    assert _values(report) == _nesting_loop(atoms, pair3)
    assert report["nan_apexes"] > 0


def test_letter_apexes_cone_equals_extensions(atoms3, pair3, monkeypatch):
    """A letter's first-letter cone is its extension set, so only the
    sibling subtrees at position 0 decide the minimum outside."""
    letters = np.flatnonzero(atoms3.lengths == 1)
    for a in letters.tolist():
        cone = np.flatnonzero(atoms3.letters[:, 0] == atoms3.letters[a, 0])
        assert np.array_equal(_extension_rows(atoms3, atoms3.words[a]), cone)
    order = np.argsort(atoms3.norms, kind="stable")
    n = int(np.argmax(atoms3.lengths[order] > 1))
    assert n > 1
    monkeypatch.setattr(measure, "MAX_APEXES", n)
    report = shadow_nesting_report(atoms3, pair3)
    assert report["n_apexes"] == n
    assert _values(report) == _nesting_loop(atoms3, pair3)
    assert math.isfinite(report["min_product_outside"])


def test_wide_tiny_nesting_fails_like_the_per_apex_loop(wide_tiny):
    """The wide-torus tiny stage is outside the nesting regime."""
    pair, _, atoms = wide_tiny
    report = shadow_nesting_report(atoms, pair)
    assert not report["ok"]
    assert len(report["violations"]) == 390
    assert report["violations"] == _nesting_loop(atoms, pair)["violations"]
    assert report["min_product_outside"] < report["bound"]


def test_reports_make_no_apex_products_call(wide_tiny, monkeypatch):
    """No pipeline report falls back to the one-apex products."""

    def refuse(*args, **kwargs):
        raise AssertionError("apex_products called")

    monkeypatch.setattr(measure, "apex_products", refuse)
    principle, nesting, quasi, tail02, tail04 = _five_reports(*wide_tiny)
    assert not nesting["ok"]
    assert quasi["all_ok"]


# -- shadow principle -------------------------------------------------------


def test_principle_upper_bound_in_chain_regime(chain_regime):
    spec, pair, stage, atoms = chain_regime
    report = shadow_principle_report(atoms, stage.interval[0], pair)
    assert report["upper_ok"]
    assert report["max_ratio"] <= 1.0 + report["tol_series"]
    assert report["max_ratio"] == pytest.approx(atoms.total_mass(), abs=1e-12)
    assert report["min_ratio"] == pytest.approx(0.6652271727286891, rel=1e-6)
    assert report["n_prefixes"] == 1641
    assert report["viability"]["nesting_regime"]
    letter_rows = [r for r in report["prefixes"] if len(r["word"]) == 1]
    assert letter_rows[0]["ratio"] == pytest.approx(0.8038982307692406, rel=1e-6)
    assert all(r["ratio"] <= 1.0 + report["tol_series"] for r in letter_rows)
    assert report["literal_lower_constant_log10"] > 1e4
    assert math.isfinite(report["literal_lower_constant_log10"])


def test_principle_letter_ratio_matches_direct_membership(chain_regime):
    spec, pair, stage, atoms = chain_regime
    report = shadow_principle_report(atoms, stage.interval[0], pair)
    row = next(r for r in report["prefixes"] if len(r["word"]) == 1)
    g = stage.alphabet[row["word"][0]]
    r = 8.0 * pair.scale
    # membership recomputed through finite-proxy Gromov products
    proxy = 40.0
    rays = np.concatenate(
        [
            np.full((len(atoms), 1), math.cosh(proxy)),
            math.sinh(proxy)
            * atoms.columns[:, 1:]
            / np.linalg.norm(atoms.columns[:, 1:], axis=1, keepdims=True),
        ],
        axis=1,
    )
    apex = g.matrix[:, 0]
    d_apex_ray = stable_arcosh(-minkowski_inner(rays, apex))
    products = 0.5 * (g.norm() + d_apex_ray - proxy)
    mass = float(atoms.weights[products <= r].sum())
    oracle = mass * math.exp(atoms.s * g.norm())
    assert row["ratio"] == pytest.approx(oracle, rel=1e-9)


def test_principle_reports_equal_norm_spread(atoms3, stage3, pair3):
    report = shadow_principle_report(atoms3, stage3.interval[0], pair3)
    spreads = report["equal_norm_spread"]
    assert spreads
    letter_key = "15.50379"
    assert letter_key in spreads
    assert 0.0 < spreads[letter_key] < 2.0
    assert spreads[letter_key] == pytest.approx(1.420711, rel=1e-3)
    # identity shadow is everything, so its ratio is the retained mass
    assert report["prefixes"][0]["ratio"] == pytest.approx(
        atoms3.total_mass(), abs=1e-12
    )
    assert report["max_ratio"] == pytest.approx(2.8240915980039842, rel=1e-6)


# -- nesting and quasi-invariance -------------------------------------------


def test_shadows_nest_disjointly_in_chain_regime(chain_regime):
    spec, pair, stage, atoms = chain_regime
    report = shadow_nesting_report(atoms, pair)
    assert report["ok"]
    assert report["violations"] == []
    assert report["bound"] == pytest.approx(9.0 * pair.scale, rel=1e-12)
    assert report["min_product_outside"] == pytest.approx(7.8851754856, rel=1e-6)
    assert report["min_product_outside"] > report["bound"]


def test_transported_shadow_mass_is_quasi_invariant(chain_regime):
    spec, pair, stage, atoms = chain_regime
    report = quasi_invariance_report(atoms, pair)
    assert report["all_ok"]
    assert report["n_checks"] == 16
    assert report["min_margin"] > 0.0
    assert report["min_margin"] == pytest.approx(0.00467101, rel=1e-3)
    assert all(c["lhs"] >= c["rhs"] - 1e-9 for c in report["checks"])


# -- excursion shells -------------------------------------------------------


def test_excursion_shells_decay_fast_enough(chain_regime):
    spec, pair, stage, atoms = chain_regime
    delta = stage.interval[0]
    for eta, slope_pin in ((0.2, -0.16007199819244816), (0.4, -0.20315051)):
        report = shadow_tail_report(atoms, eta, delta)
        assert report["decay_slope"] == pytest.approx(slope_pin, rel=1e-4)
        assert -report["decay_slope"] >= 0.25 * delta * eta
        assert report["n_audited"] == 16
        assert report["audited_mass_gap"] < 1e-9
    r02 = shadow_tail_report(atoms, 0.2, delta)
    assert len(r02["shells"]) == 10
    assert r02["max_shell_ratio"] == pytest.approx(0.43613719, rel=1e-4)
    r04 = shadow_tail_report(atoms, 0.4, delta)
    assert len(r04["shells"]) == 9
    assert r04["max_shell_ratio"] == pytest.approx(0.54418454, rel=1e-4)


def test_shell_sums_match_direct_double_sum(chain_regime):
    spec, pair, stage, atoms = chain_regime
    eta = 0.3
    report = shadow_tail_report(atoms, eta, stage.interval[0])
    cone: dict = {}
    for w, wt in zip(atoms.words, atoms.weights):
        for p in range(1, len(w) + 1):
            key = tuple(w[:p])
            cone[key] = cone.get(key, 0.0) + wt
    masses: dict = {}
    counts: dict = {}
    for w in atoms.words:
        hit = set()
        for j in range(1, len(w)):
            if atoms.norm_of(w[j:]) > eta * atoms.norm_of(w[:j]):
                hit.add(int(math.floor(atoms.norm_of(w[:j]))))
        for R in hit:
            masses[R] = masses.get(R, 0.0) + cone[tuple(w)]
            counts[R] = counts.get(R, 0) + 1
    assert sorted(masses) == [row["R"] for row in report["shells"]]
    for row in report["shells"]:
        assert row["mass"] == pytest.approx(masses[row["R"]], abs=1e-12)
        assert row["n_shadows"] == counts[row["R"]]


def test_doubling_eta_steepens_decay(chain_regime):
    spec, pair, stage, atoms = chain_regime
    delta = stage.interval[0]
    s1 = shadow_tail_report(atoms, 0.2, delta)["decay_slope"]
    s2 = shadow_tail_report(atoms, 0.4, delta)["decay_slope"]
    assert s2 < 0.0 < -s1
    assert s2 <= 0.5 * s1


def test_tiny_family_has_empty_excursion_sum(pair3):
    atoms = ps_atoms(_stub_stage([3.0, 3.0], pair3), 0.7)
    report = shadow_tail_report(atoms, 0.95, 0.5)
    assert report["shells"] == []


def test_excursion_fraction_domain(pair3):
    atoms = ps_atoms(_stub_stage([3.0], pair3), 0.5)
    for eta in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            shadow_tail_report(atoms, eta, 0.5)


# -- direction profiles -----------------------------------------------------


def test_axis_direction_stays_near_orbit(spec22, ball22, letters22):
    g1 = Isometry(letters22[1], (1,))
    attracted = np.linalg.matrix_power(g1.matrix, 40)[:, 0]
    xi = BoundaryPoint(radial_split(attracted)[1])
    profile = conical_profile(xi, ball22, 12.5)
    assert profile.window_max == pytest.approx(1.1, abs=1e-6)
    assert profile.tail_min == pytest.approx(0.0, abs=1e-8)
    assert profile.tail_max_ratio == pytest.approx(1.0 / 7.0, rel=1e-3)
    assert int(profile.censored.sum()) == 0
    # the ray runs along the axis, so powers of the generator dominate
    rays = np.concatenate(
        [
            np.cosh(profile.ts)[:, None],
            np.sinh(profile.ts)[:, None] * xi.direction[None, :],
        ],
        axis=1,
    )
    envelope = np.full(profile.ts.shape, np.inf)
    for k in range(7):
        orbit = np.linalg.matrix_power(g1.matrix, k)[:, 0]
        envelope = np.minimum(
            envelope, stable_arcosh(-minkowski_inner(rays, orbit))
        )
    # the plain arcosh form cancels to ~1e-5 at the window edge
    assert np.all(profile.values <= envelope + 5e-5)
    assert envelope.max() == pytest.approx(1.1, abs=1e-4)


def test_generic_direction_drifts_away(ball22):
    rng = np.random.default_rng(7)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    profile = conical_profile(BoundaryPoint(u), ball22, 13.0)
    assert profile.ts.size == 131
    assert profile.window_max == pytest.approx(6.64760173098472, rel=1e-9)
    assert profile.tail_min == pytest.approx(1.3404705246287676, rel=1e-9)
    assert profile.tail_max_ratio == pytest.approx(0.5113539793065169, rel=1e-9)
    assert int(profile.censored.sum()) == 24
    assert profile.caveat == "finite-window proxy"


def test_cusp_direction_climbs_at_unit_rate(torus, torus_ball):
    mats = dict(torus.letters())
    a, b = Isometry(mats[1], (1,)), Isometry(mats[2], (2,))
    comm = a @ b @ a.inverse() @ b.inverse()
    gap = comm.matrix - np.eye(3)
    _, sv, vt = np.linalg.svd(gap)
    v = vt[-1]
    if v[0] < 0:
        v = -v
    assert sv[-1] < 1e-12
    assert abs(minkowski_inner(v, v)) < 1e-10
    assert np.linalg.norm(comm.matrix @ v - v) < 1e-9
    xi = BoundaryPoint(v[1:] / np.linalg.norm(v[1:]))
    profile = conical_profile(xi, torus_ball, 9.5)
    # orbit heights are bounded by the basepoint horosphere, so the ray
    # into the cusp loses ground at exactly unit speed
    assert np.allclose(profile.values, profile.ts, atol=1e-8)
    assert profile.window_max == pytest.approx(9.5, abs=1e-9)
    assert profile.tail_max_ratio == pytest.approx(1.0, abs=1e-9)
    assert int(profile.censored.sum()) == 36


def test_profile_respects_enumeration_horizon(ball22, torus_ball):
    xi = BoundaryPoint(np.array([1.0, 0.0]))
    with pytest.raises(HorizonError):
        conical_profile(xi, ball22, 14.0)
    with pytest.raises(HorizonError):
        conical_profile(xi, torus_ball, 10.5)
    profile = conical_profile(xi, ball22, 13.0)
    assert profile.t_max == 13.0


def test_profile_samples_stop_at_the_window(torus_ball):
    """Samples never pass t_max, and the tail keeps at least the last
    one, also for windows shorter than one step; windows on the step
    grid, such as the benchmark's 9 and 7, keep their samples."""
    xi = BoundaryPoint(np.array([0.6, 0.8]))
    for t_max, size in ((0.0, 1), (0.05, 1), (0.09, 1), (0.3, 4), (8.97, 90)):
        profile = conical_profile(xi, torus_ball, t_max)
        assert profile.ts.size == size
        assert profile.ts[0] == 0.0 and profile.ts[-1] <= t_max
        assert profile.tail_min <= profile.values[-1]
    for t_max in (9.0, 7.0):
        profile = conical_profile(xi, torus_ball, t_max)
        assert np.array_equal(profile.ts, np.arange(0.0, t_max + 0.05, 0.1))
    for t_max in (-0.01, -1.0, float("nan")):
        with pytest.raises(ValueError):
            conical_profile(xi, torus_ball, t_max)


def test_extension_checkpoints_stay_close(spec3, pair3, seed3):
    # The window 17.5 must sit inside the horizon radius - prune_margin.
    ball = enumerate_ball(spec3, 17.5 + 2.0, prune_margin=2.0)
    K = seed3.elements
    word = K[0] @ pair3.separator @ K[1]
    xi = BoundaryPoint(radial_split(word.matrix[:, 0])[1])
    profile = conical_profile(xi, ball, 17.5)
    t_mark, offset = golden_section_projection(
        basepoint(2), ray_points(xi.direction, 17.5), K[0].matrix[:, 0]
    )
    assert 0.0 < t_mark < 17.5
    assert t_mark == pytest.approx(15.1097, rel=1e-3)
    assert offset == pytest.approx(0.94714, rel=1e-3)
    sample = int(round(t_mark / profile.h_t))
    bound = pair3.scale + profile.h_t
    assert not profile.censored[sample]
    # The sample is the grid point nearest the foot, not the foot itself;
    # distance to the orbit is 1-Lipschitz along the unit-speed ray.
    assert profile.values[sample] <= (
        offset + abs(profile.ts[sample] - t_mark) + 1e-9
    )
    assert profile.values[sample] < bound


# -- myrberg witnesses ------------------------------------------------------


def test_myrberg_identity_for_own_direction(ball22, letters22):
    g1 = Isometry(letters22[1], (1,))
    attracted = np.linalg.matrix_power(g1.matrix, 40)[:, 0]
    xi = BoundaryPoint(radial_split(attracted)[1])
    witness = myrberg_witness(xi, g1, 1.0, ball22, 12.5)
    assert witness is not None
    assert witness.word == ()
    identity = Isometry(np.eye(3))
    assert myrberg_witness(xi, identity, 1.0, ball22, 12.5).word == ()


def test_myrberg_translates_offaxis_segment(ball22, letters22):
    g1 = Isometry(letters22[1], (1,))
    g2 = Isometry(letters22[2], (2,))
    w = g1 @ g2
    xi = BoundaryPoint(radial_split(np.linalg.matrix_power(w.matrix, 20)[:, 0])[1])
    for K in (0.8, 1.0):
        witness = myrberg_witness(xi, g2, K, ball22, 12.5)
        assert witness is not None
        assert witness.word == (1,)
    again = myrberg_witness(xi, g2, 1.0, ball22, 12.5)
    assert again.word == (1,)
    assert myrberg_witness(xi, g2, 0.5, ball22, 12.5) is None
    assert myrberg_witness(xi, g2, 0.3, ball22, 12.5) is None


def test_myrberg_generic_direction_needs_wide_tube(ball22, letters22):
    rng = np.random.default_rng(7)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    g1 = Isometry(letters22[1], (1,))
    assert myrberg_witness(BoundaryPoint(u), g1, 0.3, ball22, 12.5) is None


def _golden_section_myrberg(xi, g, K_nbhd, ref_ball, t_max, h_seg=0.5):
    """Reference: myrberg_witness as it was before its distances had a
    closed form, with a golden-section search for every foot on the
    window and a shortlex loop over the prefilter survivors."""
    x0 = basepoint(ref_ball.spec.dim)
    far = ray_points(xi.direction, t_max)
    gx0 = g.orbit_point().coords
    seg_len = float(g.norm())
    if seg_len <= 1e-12:
        seg = x0[None, :]
    else:
        seg_ts = np.linspace(0.0, seg_len, max(int(math.ceil(seg_len / h_seg)) + 1, 2))
        seg = geodesic_point(x0, gx0, seg_ts)
    members = ref_ball.members
    mats = ref_ball.mats[members]
    _, dist_a = golden_section_projection(x0, far, mats[:, :, 0])
    _, dist_b = golden_section_projection(x0, far, mats @ gx0)
    ok = (dist_a <= K_nbhd + 1e-9) & (dist_b <= K_nbhd + 1e-9)
    order = sorted(
        members[ok].tolist(),
        key=lambda i: (int(ref_ball.word_length[i]), ref_ball.word(int(i))),
    )
    for row in order:
        moved = ref_ball.mats[row] @ seg.T
        _, dists = golden_section_projection(x0, far, moved.T)
        if np.all(dists <= K_nbhd + 1e-9):
            return ref_ball.word(int(row))
    return None


def _word_or_none(witness):
    return None if witness is None else witness.word


def test_myrberg_matches_golden_section_on_benchmark_inputs(spec22):
    """The orbit-queries Myrberg inputs of seeds 1 to 10, on its ball."""
    workload = _load("workloads").WORKLOADS["orbit-queries"]
    params = workload.sizes["full"]
    ball = enumerate_ball(spec22, params["myrberg_radius"], prune_margin=2.0)
    found = 0
    for seed in range(1, 11):
        for u, label, matrix in workload.prepare("full", seed).inputs["myrberg"]:
            xi, g = BoundaryPoint(u), Isometry(matrix, (label,))
            t_max = params["myrberg_t_max"]
            want = _golden_section_myrberg(xi, g, 1.0, ball, t_max)
            assert _word_or_none(myrberg_witness(xi, g, 1.0, ball, t_max)) == want
            found += want is not None
    assert found >= 20


def test_myrberg_matches_golden_section_across_tubes(spec22, letters22):
    ball = enumerate_ball(spec22, 10.0, prune_margin=2.0)
    rng = np.random.default_rng(11)
    dirs = [u / np.linalg.norm(u) for u in rng.normal(size=(3, 2))]
    for word in ((1,), (1, 2), (-2, 1, 1)):
        m = np.eye(3)
        for lab in word:
            m = m @ letters22[lab]
        dirs.append(radial_split(np.linalg.matrix_power(m, 12)[:, 0])[1])
    segments = [Isometry(letters22[1], (1,)), Isometry(letters22[-2], (-2,))]
    segments.append(segments[0] @ segments[1])
    found = 0
    for u in dirs:
        for g in segments:
            for K in (0.3, 0.6, 1.0, 1.5):
                want = _golden_section_myrberg(BoundaryPoint(u), g, K, ball, 8.0)
                got = myrberg_witness(BoundaryPoint(u), g, K, ball, 8.0)
                assert _word_or_none(got) == want
                found += want is not None
    assert 0 < found < 72


def test_myrberg_matches_every_member_test_on_benchmark_inputs(spec22):
    """The orbit-queries Myrberg inputs of seeds 1 to 10, at tube widths
    around the benchmark's: the same witness as testing both endpoints of
    every member."""
    workload = _load("workloads").WORKLOADS["orbit-queries"]
    params = workload.sizes["full"]
    ball = enumerate_ball(spec22, params["myrberg_radius"], prune_margin=2.0)
    t_max = params["myrberg_t_max"]
    found = 0
    for seed in range(1, 11):
        for u, label, matrix in workload.prepare("full", seed).inputs["myrberg"]:
            xi, g = BoundaryPoint(u), Isometry(matrix, (label,))
            for K in (0.5, 1.0, 2.0):
                want = myrberg_every_member(xi, g, K, ball, t_max)
                assert _word_or_none(myrberg_witness(xi, g, K, ball, t_max)) == want
                found += want is not None
    assert found >= 40


def test_myrberg_matches_every_member_test_on_random_rays(spec22, torus):
    """Random rays, segments of one to three letters and tubes from 0.2
    to 3 on a Schottky and a torus ball."""
    rng = np.random.default_rng(2024)
    found = 0
    for spec, radius in ((spec22, 11.0), (torus, 9.0)):
        ball = enumerate_ball(spec, radius, prune_margin=2.0)
        letters = spec.letters()
        for _ in range(40):
            u = rng.normal(size=2)
            xi = BoundaryPoint(u / np.linalg.norm(u))
            picks = rng.integers(len(letters), size=int(rng.integers(1, 4)))
            word = tuple(letters[i][0] for i in picks)
            g = Isometry(np.linalg.multi_dot([np.eye(3)] + [letters[i][1] for i in picks]), word)
            K = float(rng.uniform(0.2, 3.0))
            want = myrberg_every_member(xi, g, K, ball, radius - 2.0)
            got = myrberg_witness(xi, g, K, ball, radius - 2.0)
            assert _word_or_none(got) == want
            found += want is not None
    assert 0 < found < 80


@pytest.mark.parametrize("angle, word", [(math.pi / 12, (2, -1)), (-math.pi / 12, (-2, -1))])
def test_myrberg_shortlex_among_equal_lengths(spec22, letters22, angle, word):
    """Two one-letter members pass a 2.5 tube; the witness is the
    tuple-key minimum over the members that pass, checked one by one at
    samples 0.5 apart.
    At pi/12 that is (-2,), which is not the first passing row."""
    ball = enumerate_ball(spec22, 10.0, prune_margin=2.0)
    xi = BoundaryPoint(np.array([math.cos(angle), math.sin(angle)]))
    g = Isometry(np.linalg.multi_dot([letters22[lab] for lab in word]), word)
    seg_len = float(g.norm())
    n_samples = max(int(math.ceil(seg_len / 0.5)) + 1, 2)
    seg = ray_points(radial_split(g.matrix[:, 0])[1], np.linspace(0.0, seg_len, n_samples))
    passing = []
    for row in ball.members.tolist():
        h, t = ray_coordinates(*radial_split(seg @ ball.mats[row].T), xi.direction)
        if np.all(ray_distance(h, t, np.clip(t, 0.0, 8.0)) <= 2.5 + 1e-9):
            passing.append(row)
    shortest = min(int(ball.word_length[row]) for row in passing)
    assert sum(int(ball.word_length[row]) == shortest for row in passing) >= 2
    want = min(passing, key=lambda i: (int(ball.word_length[i]), ball.word(i)))
    assert myrberg_witness(xi, g, 2.5, ball, 8.0).word == ball.word(want)


def test_myrberg_respects_horizon(ball22, letters22):
    g1 = Isometry(letters22[1], (1,))
    xi = BoundaryPoint(np.array([1.0, 0.0]))
    with pytest.raises(HorizonError):
        myrberg_witness(xi, g1, 1.0, ball22, 14.0)


# -- wide-alphabet contrast --------------------------------------------------


def test_wide_torus_alphabet_keeps_support_conditions(torus, torus_ball):
    pair = find_ping_pong_pair(torus, ratio=1.0)
    seed = build_seed_alphabet(
        torus,
        pair,
        0.45,
        n_min=30,
        n_cap=55,
        separation=18.0 * pair.scale + 2.0,
        max_radius=12.0,
    )
    stage = build_stage(
        seed, torus, pair, torus_ball, eps=0.45, word_cap=3, max_words=400_000
    )
    atoms = ps_atoms(stage, stage.interval[0] + 0.1)
    nesting = shadow_nesting_report(atoms, pair)
    assert nesting["ok"]
    assert nesting["min_product_outside"] > nesting["bound"]
    quasi = quasi_invariance_report(atoms, pair)
    assert quasi["all_ok"]
    delta = stage.interval[0]
    for eta in (0.2, 0.4):
        report = shadow_tail_report(atoms, eta, delta)
        assert report["decay_slope"] < 0.0
        assert -report["decay_slope"] >= 0.25 * delta * eta
    # the separator is too short for prefix-ratio control here; record the
    # report without holding it to the chain-regime bound
    principle = shadow_principle_report(atoms, delta, pair)
    assert 0.5 < principle["max_ratio"] < 2.0
    # the walk forms exact products for a sliver of the apex-atom pairs
    pairs = (principle["n_prefixes"] - 1) * len(atoms)
    assert principle["screen"]["exact_pairs"] < 0.01 * pairs
