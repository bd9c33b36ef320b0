"""Built-in example groups.

Two families cover the regimes the rest of the package cares about:

* :func:`schottky` -- convex-cocompact free groups built from axis boosts,
  with explicit ping-pong caps on the boundary sphere;
* :func:`punctured_torus` -- the cusped surface group generated by two
  integer matrices whose commutator is parabolic.
"""

from __future__ import annotations

import math

import numpy as np

from .hyperbolic import Isometry, boost
from .orbit import GroupSpec, sl2_to_so21

__all__ = [
    "schottky",
    "punctured_torus",
]


def _ping_pong(length: float, radius: float) -> tuple:
    """(disjointness gap, containment margin) of caps of angular radius
    ``radius`` at +-e1 and +-e2 under boosts of translation ``length``.

    The nearest two caps sit pi/2 apart.  A boost moves a direction at
    angle theta from its attracting point to theta' with
    tan(theta'/2) = e^-L tan(theta/2), so the worst point outside the
    repelling cap, at theta = pi - radius, lands at
    2 atan(e^-L cot(radius/2)).  The margin is positive exactly when
    cos(radius) < tanh(L/2).
    """
    gap = 0.5 * math.pi - 2.0 * radius
    margin = radius - 2.0 * math.atan(math.exp(-length) / math.tan(0.5 * radius))
    return gap, margin


def schottky(length: float = 2.2, dim: int = 2) -> GroupSpec:
    """Free group on two boosts along orthogonal axes, in any dimension >= 2.

    Each generator translates by ``length`` along its axis; the four
    boundary caps around the fixed points form a ping-pong table.  Caps
    inside the disjointness bound pi/4 exist once
    L > 2 atanh(cos pi/4) ~ 1.7627; the radius is fixed at the midpoint of
    acos tanh(L/2) and pi/4.  The gap and margin of :func:`_ping_pong` are
    closed forms, recorded in ``metadata["ping_pong"]``; the builder
    refuses parameters where either is not positive.
    """
    if dim < 2:
        raise ValueError("need at least two spatial axes for two generators")
    cap_radius = 0.5 * (math.acos(math.tanh(0.5 * length)) + math.pi / 4)
    gap, margin = _ping_pong(length, cap_radius)
    if gap <= 0.0 or margin <= 0.0:
        raise ValueError(
            "schottky parameters do not satisfy ping-pong: "
            f"disjointness gap {gap:.4f}, containment margin {margin:.4f}"
        )
    e1, e2 = np.eye(dim)[:2]
    caps = {
        1: (e1, cap_radius),
        -1: (-e1, cap_radius),
        2: (e2, cap_radius),
        -2: (-e2, cap_radius),
    }
    return GroupSpec(
        [boost(dim, 1, length), boost(dim, 2, length)],
        dim,
        name=f"schottky(L={length:g}, d={dim})",
        free=True,
        metadata={
            "caps": caps,
            "generator_length": float(length),
            "ping_pong": {"gap": gap, "margin": margin},
        },
    )


def punctured_torus() -> GroupSpec:
    """Once-punctured torus group: free on two integer matrices.

    The generators are A = [[1,1],[1,2]] and B = [[1,-1],[-1,2]]; their
    commutator is parabolic (trace -2) with fixed point 0 on the real
    line, which is the cusp.  The quotient has finite area, so the orbit
    growth exponent is 1.
    """
    a = np.array([[1, 1], [1, 2]], dtype=np.int64)
    b = np.array([[1, -1], [-1, 2]], dtype=np.int64)
    gens = [Isometry(sl2_to_so21(a)), Isometry(sl2_to_so21(b))]
    return GroupSpec(
        gens,
        2,
        name="punctured-torus",
        free=True,
        int_rep=[a, b],
        metadata={
            "critical_exponent": 1.0,
            "cusp_direction": np.array([-1.0, 0.0]),
            "commutator_word": (1, 2, -1, -2),
        },
    )
