"""Builtin groups: ping-pong caps and cusp data."""

import math

import numpy as np
import pytest

from kleinian.groups import (
    punctured_torus,
    schottky,
    validate_schottky_caps,
)
from kleinian.hyperbolic import boundary_action, stable_arcosh
from kleinian.orbit import enumerate_ball

from conftest import cyclic


def test_schottky_default_is_valid():
    spec = schottky()
    report = spec.metadata["ping_pong"]
    assert report["valid"]
    assert report["min_gap"] > 0.0
    assert report["min_margin"] > 0.0
    assert spec.free
    assert len(spec.generators) == 2


def test_schottky_three_dimensional():
    spec = schottky(2.4, dim=3)
    assert spec.dim == 3
    assert spec.metadata["ping_pong"]["valid"]
    # length-2 words reach down to 4.12, length-3 words start at 5.65
    ball = enumerate_ball(spec, 5.2)
    assert ball.n_members == 1 + 4 + 4 * 3  # identity, letters, reduced pairs


def test_schottky_rejects_short_translation():
    # caps of admissible radius stop existing below L = 2 atanh(cos pi/4)
    with pytest.raises(ValueError):
        schottky(1.5)


def test_schottky_cap_boundary_criterion():
    # cos(rho) = tanh(L/2) is the exact containment threshold for a boost:
    # just inside passes, just outside fails
    L = 2.2
    rho_crit = math.acos(math.tanh(L / 2.0))
    spec = schottky(L)
    centers = {label: center for label, (center, _) in spec.metadata["caps"].items()}
    for rho, valid in ((rho_crit + 0.01, True), (rho_crit - 0.01, False)):
        spec.metadata["caps"] = {label: (c, rho) for label, c in centers.items()}
        report = validate_schottky_caps(spec)
        assert report["valid"] is valid
        assert report["min_gap"] > 0.0
        assert (report["min_margin"] > 0.0) is valid


def test_validate_requires_cap_data():
    spec = cyclic(1.0)
    with pytest.raises(ValueError):
        validate_schottky_caps(spec)


def test_boundary_action_of_boost_contracts_toward_axis():
    spec = schottky(2.2)
    g1 = spec.generators[0].matrix
    caps = spec.metadata["caps"]
    center, rho = caps[1]
    # a direction orthogonal to the axis maps well inside the attracting cap
    image = boundary_action(g1, np.array([0.0, 1.0]))
    image /= np.linalg.norm(image)
    angle = math.acos(float(np.clip(image @ center, -1, 1)))
    assert angle < rho


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
    image = boundary_action(comm, cusp)
    assert np.allclose(image / np.linalg.norm(image), cusp, atol=1e-12)
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
