"""Built-in example groups and the Schottky cap validator.

Two families cover the regimes the rest of the package cares about:

* :func:`schottky` -- convex-cocompact free groups built from axis boosts,
  with explicit ping-pong caps on the boundary circle;
* :func:`punctured_torus` -- the cusped surface group generated by two
  integer matrices whose commutator is parabolic.
"""

from __future__ import annotations

import math

import numpy as np

from .hyperbolic import Isometry, boost, boundary_action
from .orbit import GroupSpec, sl2_to_so21

__all__ = [
    "schottky",
    "punctured_torus",
    "validate_schottky_caps",
]

# boundary directions sampled when validating Schottky cap containment
CAP_SAMPLES = 512


def _cap_angle(u, center) -> np.ndarray:
    c = np.clip(np.asarray(u) @ np.asarray(center), -1.0, 1.0)
    return np.arccos(c)


def schottky(length: float = 2.2, dim: int = 2) -> GroupSpec:
    """Free group on two boosts along orthogonal axes.

    Each generator translates by ``length`` along its axis; the four
    boundary caps around the fixed points form a ping-pong table.  A pure
    boost of length L maps the complement of its repelling cap inside its
    attracting cap exactly when cos(radius) <= tanh(L/2), so caps exist
    (inside the disjointness bound pi/4 for this layout) once
    L > 2 atanh(cos pi/4) ~ 1.7627; the radius is fixed at the midpoint of
    acos tanh(L/2) and pi/4.  The builder checks the caps numerically and
    refuses invalid data.
    """
    if dim < 2:
        raise ValueError("need at least two spatial axes for two generators")
    rho_min = math.acos(math.tanh(0.5 * length)) if math.tanh(0.5 * length) < 1 else 0.0
    cap_radius = 0.5 * (rho_min + math.pi / 4)
    g1 = boost(dim, 1, length)
    g2 = boost(dim, 2, length)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    e2 = np.zeros(dim)
    e2[1] = 1.0
    caps = {
        1: (e1, cap_radius),
        -1: (-e1, cap_radius),
        2: (e2, cap_radius),
        -2: (-e2, cap_radius),
    }
    spec = GroupSpec(
        [g1, g2],
        dim,
        name=f"schottky(L={length:g}, d={dim})",
        free=True,
        metadata={"caps": caps, "generator_length": float(length)},
    )
    report = validate_schottky_caps(spec)
    if not report["valid"]:
        raise ValueError(
            "schottky parameters do not satisfy ping-pong: "
            f"disjointness gap {report['min_gap']:.4f}, "
            f"containment margin {report['min_margin']:.4f}"
        )
    spec.metadata["ping_pong"] = report
    return spec


def validate_schottky_caps(spec: GroupSpec) -> dict:
    """Check cap data: caps pairwise disjoint, each letter maps the
    complement of its repelling cap into its attracting cap.

    Containment is tested by pushing a dense sample of complement
    directions (``CAP_SAMPLES`` of them) through the boundary action and
    measuring the worst image angle; no monotonicity of the boundary map
    is assumed.  Returns gaps and margins (positive means valid, with
    room).
    """
    caps = spec.metadata.get("caps")
    if not caps:
        raise ValueError("group carries no cap data to validate")
    labels = sorted(caps, key=abs)
    min_gap = math.inf
    for i, la in enumerate(labels):
        ca, ra = caps[la]
        for lb in labels[i + 1 :]:
            cb, rb = caps[lb]
            gap = float(_cap_angle(ca, cb)) - (ra + rb)
            min_gap = min(min_gap, gap)
    # sample directions: great-circle grid for d=2, spiral grid otherwise
    if spec.dim == 2:
        phi = np.linspace(0.0, 2.0 * math.pi, CAP_SAMPLES, endpoint=False)
        grid = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    else:
        k = np.arange(CAP_SAMPLES)
        z = 1.0 - 2.0 * (k + 0.5) / CAP_SAMPLES
        az = k * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(1.0 - z * z)
        grid = np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)
        grid = grid[:, : spec.dim]
        grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    min_margin = math.inf
    per_letter = {}
    for label, matrix in spec.letters():
        if label not in caps or -label not in caps:
            raise ValueError(f"cap data missing for letter {label}")
        center_att, rho_att = caps[label]
        center_rep, rho_rep = caps[-label]
        outside = grid[_cap_angle(grid, center_rep) > rho_rep]
        images = boundary_action(matrix, outside)
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        worst = float(np.max(_cap_angle(images, center_att)))
        margin = rho_att - worst
        per_letter[label] = margin
        min_margin = min(min_margin, margin)
    return {
        "valid": bool(min_gap > 0.0 and min_margin > 0.0),
        "min_gap": float(min_gap),
        "min_margin": float(min_margin),
        "margins": per_letter,
        "n_samples": CAP_SAMPLES,
    }


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
