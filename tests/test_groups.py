"""Builtin groups: ping-pong caps and cusp data."""

import math

import numpy as np
import pytest

from kleinian.groups import _ping_pong, punctured_torus, schottky
from kleinian.hyperbolic import stable_arcosh
from kleinian.orbit import enumerate_ball
from kleinian.semigroup import build_seed_alphabet, build_stage, find_ping_pong_pair


def _boundary_map(matrix, directions):
    """Reference boundary action: lift each unit direction u to the light
    ray (1, u), apply the matrix, rescale to a unit direction."""
    dirs = np.atleast_2d(directions)
    img = np.concatenate([np.ones((dirs.shape[0], 1)), dirs], axis=1) @ matrix.T
    out = img[:, 1:] / img[:, :1]
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out if np.ndim(directions) == 2 else out[0]


def _angle(u, center):
    return np.arccos(np.clip(u @ center, -1.0, 1.0))


def test_schottky_default_is_valid():
    spec = schottky()
    report = spec.metadata["ping_pong"]
    assert report["gap"] > 0.0
    assert report["margin"] > 0.0
    assert spec.free
    assert len(spec.generators) == 2


def test_schottky_three_dimensional():
    spec = schottky(2.4, dim=3)
    assert spec.dim == 3
    assert spec.metadata["ping_pong"]["margin"] > 0.0
    # length-2 words reach down to 4.12, length-3 words start at 5.65
    ball = enumerate_ball(spec, 5.2)
    assert ball.n_members == 1 + 4 + 4 * 3  # identity, letters, reduced pairs


def test_schottky_rejects_short_translation():
    # caps of admissible radius stop existing below L = 2 atanh(cos pi/4)
    with pytest.raises(ValueError):
        schottky(1.5)


def test_schottky_cap_boundary_criterion():
    # cos(rho) = tanh(L/2) is the exact containment threshold for a boost:
    # just inside passes, just outside fails, where a 512-direction
    # sample read +0.0057 for the failing radius
    L = 2.2
    rho_crit = math.acos(math.tanh(L / 2.0))
    for rho, valid in ((rho_crit + 0.002, True), (rho_crit - 0.002, False)):
        gap, margin = _ping_pong(L, rho)
        assert gap > 0.0
        assert (margin > 0.0) is valid


@pytest.mark.parametrize("length", [1.8, 2.0, 2.2, 3.0])
def test_closed_form_margins_match_dense_sample(length):
    """The recorded gap and margin against 2^21 directions spread evenly
    round the circle: each letter maps the sampled complement of its
    repelling cap into its attracting cap, the worst image at the
    closed-form margin.  A sample can only miss the worst point, so its
    margin is never below the closed form."""
    spec = schottky(length)
    caps = spec.metadata["caps"]
    report = spec.metadata["ping_pong"]
    gaps = [
        _angle(ca, cb) - ra - rb
        for la, (ca, ra) in caps.items()
        for lb, (cb, rb) in caps.items()
        if la < lb
    ]
    assert min(gaps) == pytest.approx(report["gap"], abs=1e-12)
    worst = dict.fromkeys(caps, 0.0)
    for phi in np.array_split(np.linspace(0.0, 2.0 * math.pi, 2**21, endpoint=False), 4):
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        for label, matrix in spec.letters():
            rep_center, rep_rho = caps[-label]
            outside = dirs[_angle(dirs, rep_center) > rep_rho]
            images = _boundary_map(matrix, outside)
            worst[label] = max(worst[label], _angle(images, caps[label][0]).max())
    for label, (_, rho) in caps.items():
        assert 0.0 <= (rho - worst[label]) - report["margin"] < 1e-5


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_schottky_values_match_in_every_dimension(dim):
    """The group preserves the plane through x0, e1 and e2, so every
    pipeline value equals the two-dimensional one exactly."""

    def values(spec):
        pair = find_ping_pong_pair(spec, ratio=2.5)
        seed = build_seed_alphabet(spec, pair, 0.45)
        ball = enumerate_ball(spec, 8.0)
        stage = build_stage(seed, spec, pair, ball, eps=0.45)
        norms = np.sort(stable_arcosh(ball.mats[ball.members, 0, 0]))
        return norms, pair.gromov_sup, [e.word for e in seed.elements], stage.interval

    norms, sup, words, interval = values(schottky(3.0, dim=dim))
    norms2, sup2, words2, interval2 = values(schottky(3.0))
    assert np.array_equal(norms, norms2)
    assert sup == sup2
    assert words == words2
    assert interval == interval2


def test_boundary_action_of_boost_contracts_toward_axis():
    spec = schottky(2.2)
    g1 = spec.generators[0].matrix
    caps = spec.metadata["caps"]
    center, rho = caps[1]
    # a direction orthogonal to the axis maps well inside the attracting cap
    image = _boundary_map(g1, np.array([0.0, 1.0]))
    assert _angle(image, center) < rho


def test_punctured_torus_data():
    spec = punctured_torus()
    assert spec.free and spec.int_rep is not None
    assert spec.metadata["critical_exponent"] == 1.0
    norms = [stable_arcosh(g.matrix[0, 0]) for g in spec.generators]
    assert np.allclose(norms, math.acosh(3.5))
    # the commutator fixes the cusp direction on the boundary
    mats = dict(spec.letters())
    comm = mats[1] @ mats[2] @ mats[-1] @ mats[-2]
    cusp = spec.metadata["cusp_direction"]
    assert np.allclose(_boundary_map(comm, cusp), cusp, atol=1e-12)
    # parabolic: fixes no point inside, displacement has no positive lower
    # bound but the element is not the identity
    assert not np.allclose(comm, np.eye(3), atol=1e-6)


def test_caps_are_plausible_for_orbit_directions():
    """Every nontrivial orbit point should sit inside the cap of its
    leading letter; that is exactly what ping-pong gives."""
    spec = schottky(2.2)
    ball = enumerate_ball(spec, 9.0)
    caps = spec.metadata["caps"]
    idx = [i for i in ball.members if ball.word_length[i] > 0]
    for i in idx[:: max(1, len(idx) // 64)]:
        word = ball.word(i)
        center, rho = caps[word[0]]
        p = ball.orbit_points(np.array([i]))[0]
        u = p[1:] / np.linalg.norm(p[1:])
        assert math.acos(float(np.clip(u @ center, -1, 1))) <= rho + 1e-9
