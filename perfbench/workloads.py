"""The benchmark's workloads: inputs, one pipeline pass each, output checks.

Every pass calls the public functions of ``kleinian`` through a tracer
(``t.call``), which is a plain call in untraced runs.  A pass writes its
checked outputs into ``values`` as it goes, keyed ``<operation>.<field>``,
so a pass that raises still shows which operations finished.  Values
that do not depend on the workload seed are pinned in
``reference.json``; every value must repeat exactly from pass to pass,
traced or not.

Sizes are smaller than the full pipeline fixtures of the test suite so
that several passes fit in one run; each workload keeps the layer it was
chosen for as the largest share of its pass (see ``layers.json``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from kleinian import (
    BoundaryPoint,
    GroupSpec,
    Isometry,
    build_seed_alphabet,
    build_stage,
    conical_profile,
    enumerate_ball,
    find_deep_element,
    find_ping_pong_pair,
    myrberg_witness,
    ps_atoms,
    punctured_torus,
    quasi_invariance_report,
    schottky,
    shadow_nesting_report,
    shadow_principle_report,
    shadow_tail_report,
)
from kleinian.orbit import sl2_to_so21


@dataclass
class Context:
    seed: int
    params: dict
    groups: dict
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Groups.


def _chain_groups():
    return {"schottky": schottky(length=1.8)}


def _torus_groups():
    return {"torus": punctured_torus()}


def _orbit_groups():
    return {
        "torus": punctured_torus(),
        "schottky3": schottky(2.0, dim=3),
        "schottky22": schottky(2.2),
    }


# ---------------------------------------------------------------------------
# chain-seed and wide-torus: group -> ball -> pair -> seed -> stage -> atoms
# -> shadow principle, nesting, quasi-invariance and tail reports.


def semigroup_pass(ctx: Context, t, values: dict) -> dict:
    p = ctx.params
    spec = ctx.groups[p["group"]]
    ball = t.call(
        "orbit.enumerate_ball", enumerate_ball, spec, p["ball_radius"], prune_margin=2.0
    )
    values["ball.rows"] = len(ball)
    values["ball.members"] = ball.n_members
    pair = t.call("semigroup.find_pair", find_ping_pong_pair, spec, ratio=p["ratio"])
    values["pair.separator_norm"] = pair.separator.norm()
    seed = t.call(
        "semigroup.seed",
        build_seed_alphabet,
        spec,
        pair,
        0.45,
        n_min=p["n_min"],
        n_cap=p["n_cap"],
        separation=18.0 * pair.scale + p["separation_offset"],
        max_radius=p["max_radius"],
    )
    values["seed.size"] = len(seed)
    values["seed.candidates"] = seed.candidates
    values["seed.radius"] = seed.radius
    stage = t.call(
        "semigroup.stage",
        build_stage,
        seed,
        spec,
        pair,
        ball,
        eps=0.45,
        word_cap=3,
        max_words=400_000,
    )
    delta = stage.interval[0]
    values["stage.family_words"] = len(stage.truncated_F.words)
    values["stage.delta"] = delta
    atoms = t.call("measure.ps_atoms", ps_atoms, stage, delta + 0.1)
    values["atoms.count"] = len(atoms)
    values["atoms.total_mass"] = atoms.total_mass()
    principle = t.call("measure.principle", shadow_principle_report, atoms, delta, pair)
    values["principle.n_prefixes"] = principle["n_prefixes"]
    values["principle.min_ratio"] = principle["min_ratio"]
    values["principle.max_ratio"] = principle["max_ratio"]
    values["principle.upper_ok"] = principle["upper_ok"]
    nesting = t.call("measure.nesting", shadow_nesting_report, atoms, pair)
    values["nesting.ok"] = nesting["ok"]
    values["nesting.min_product_outside"] = nesting["min_product_outside"]
    quasi = t.call("measure.quasi", quasi_invariance_report, atoms, pair, seed=ctx.seed)
    values["quasi.all_ok"] = quasi["all_ok"]
    values["quasi.min_margin"] = quasi["min_margin"]
    values["quasi.audit_max_outside_product"] = quasi["audit_max_outside_product"]
    for key, eta in (("tail02", 0.2), ("tail04", 0.4)):
        tail = t.call(
            "measure.tail", shadow_tail_report, atoms, eta, delta, seed=ctx.seed
        )
        values[f"{key}.max_shell_ratio"] = tail["max_shell_ratio"]
        values[f"{key}.decay_slope"] = tail["decay_slope"]
        values[f"{key}.audited_mass_gap_ok"] = tail["audited_mass_gap"] < 1e-9
    return {}


SEMIGROUP_OPS = (
    "ball", "pair", "seed", "stage", "atoms",
    "principle", "nesting", "quasi", "tail02", "tail04",
)


def _no_extra_checks(ctx, values, extra):
    return {}


# ---------------------------------------------------------------------------
# orbit-queries: nearest-orbit reads against enumerated balls, and one
# deduplicated (binned) ball build.


def _unit(v):
    return v / np.linalg.norm(v)


def _orbit_inputs(ctx: Context) -> dict:
    """Seeded query directions and Myrberg segments.

    A Myrberg query aims the ray at w x0 for a random reduced word w and
    asks for a translate of [x0, g x0] with g one letter of w, so the
    tube usually holds a witness near the matching prefix of w.
    """
    p = ctx.params
    rng = np.random.default_rng(ctx.seed)
    profile_dirs = [_unit(rng.normal(size=2)) for _ in range(p["n_profiles"])]
    letters = ctx.groups["schottky22"].letters()
    myrberg = []
    for _ in range(p["n_myrberg"]):
        word = []
        while len(word) < p["myrberg_word_length"]:
            j = int(rng.integers(len(letters)))
            if word and letters[j][0] == -letters[word[-1]][0]:
                continue
            word.append(j)
        point = np.eye(3)[:, 0]
        for j in reversed(word):
            point = letters[j][1] @ point
        pick = word[int(rng.integers(len(word)))]
        myrberg.append((_unit(point[1:]), letters[pick][0], letters[pick][1]))
    return {"profile_dirs": profile_dirs, "myrberg": myrberg}


def orbit_pass(ctx: Context, t, values: dict) -> dict:
    p = ctx.params
    torus = ctx.groups["torus"]
    with t.span("orbit.binned_build"):
        binned = t.call(
            "orbit.enumerate_ball",
            enumerate_ball,
            torus,
            p["binned_radius"],
            dedup="binned",
        )
    values["binned.rows"] = len(binned)
    values["binned.members"] = binned.n_members
    values["binned.merged"] = binned.merged
    values["binned.prune_margin"] = binned.prune_margin
    ball = t.call(
        "orbit.enumerate_ball",
        enumerate_ball,
        torus,
        p["torus_radius"],
        prune_margin=2.0,
    )
    values["torus_ball.rows"] = len(ball)
    values["torus_ball.members"] = ball.n_members
    profiles = [
        t.call(
            "measure.conical_profile",
            conical_profile,
            BoundaryPoint(u),
            ball,
            p["profile_t_max"],
        )
        for u in ctx.inputs["profile_dirs"]
    ]
    values["profile.points"] = sum(int(prof.ts.size) for prof in profiles)
    values["profile.window_max"] = [prof.window_max for prof in profiles]
    values["profile.tail_min"] = [prof.tail_min for prof in profiles]
    values["profile.censored"] = sum(int(prof.censored.sum()) for prof in profiles)
    deep2 = t.call("semigroup.deep_element", find_deep_element, torus, 2.0, ball)
    values["deep2.candidates"] = deep2.diagnostics["candidates"]
    values["deep2.certified"] = deep2.diagnostics["certified"]
    values["deep2.found"] = deep2.result is not None
    if deep2.result is not None:
        values["deep2.depth_ok"] = deep2.result.measured_depth >= 2.0 - 1e-9
        values["deep2.witness_norm"] = deep2.result.element.norm()
    ball3 = t.call(
        "orbit.enumerate_ball",
        enumerate_ball,
        ctx.groups["schottky3"],
        p["dim3_radius"],
        prune_margin=2.0,
    )
    values["ball3.rows"] = len(ball3)
    deep3 = t.call(
        "semigroup.deep_element", find_deep_element, ctx.groups["schottky3"], 1.0, ball3
    )
    values["deep3.candidates"] = deep3.diagnostics["candidates"]
    values["deep3.found"] = deep3.result is not None
    ball22 = t.call(
        "orbit.enumerate_ball",
        enumerate_ball,
        ctx.groups["schottky22"],
        p["myrberg_radius"],
        prune_margin=2.0,
    )
    values["ball22.rows"] = len(ball22)
    witnesses = [
        t.call(
            "measure.myrberg",
            myrberg_witness,
            BoundaryPoint(xi),
            Isometry(matrix, (label,)),
            MYRBERG_TUBE,
            ball22,
            p["myrberg_t_max"],
        )
        for xi, label, matrix in ctx.inputs["myrberg"]
    ]
    values["myrberg.words"] = [None if w is None else list(w.word) for w in witnesses]
    return {
        "ball": ball,
        "profiles": profiles,
        "ball22": ball22,
        "witnesses": witnesses,
    }


ORBIT_OPS = (
    "binned", "torus_ball", "profile", "deep2", "ball3", "deep3", "ball22", "myrberg",
)
MYRBERG_TUBE = 1.0
# myrberg_witness samples [x0, g x0] at this spacing by default
MYRBERG_STEP = 0.5


def _radial(points):
    """(radius, unit direction) of hyperboloid points, rows of ``points``."""
    spatial = points[..., 1:]
    norm = np.linalg.norm(spatial, axis=-1)
    direction = spatial / np.where(norm > 0.0, norm, 1.0)[..., None]
    return np.arcsinh(norm), direction


def _distance(r1, u1, r2, u2):
    """Hyperbolic distance of radial pairs: cosh d = cosh(r1 - r2)
    + sinh r1 sinh r2 |u1 - u2|^2 / 2, written without cancellation."""
    s = np.sinh(0.5 * (r1 - r2))
    x = 2.0 * s * s + 0.5 * np.sinh(r1) * np.sinh(r2) * np.sum((u1 - u2) ** 2, axis=-1)
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def _distance_to_ray_window(points, u, t_max):
    """Distance from points to the geodesic segment from x0 toward ``u``
    of length ``t_max``, by the right-angled triangle at the foot."""
    r, v = _radial(points)
    cos = v @ u
    sin = np.linalg.norm(v - cos[..., None] * u, axis=-1)
    foot = np.arctanh(np.clip(np.tanh(r) * cos, -1.0, 1.0 - 1e-16))
    d = np.arcsinh(np.sinh(r) * sin)
    d = np.where(cos <= 0.0, r, d)
    beyond = foot > t_max
    if np.any(beyond):
        d[beyond] = _distance(r[beyond], v[beyond], t_max, u)
    return d


def _orbit_checks(ctx: Context, values: dict, extra: dict) -> dict:
    """Brute-force checks: sampled profile samples against the minimum over
    every ball member, and Myrberg answers against a scan of every member."""
    tol = 1e-9
    rng = np.random.default_rng(ctx.seed)
    ball = extra["ball"]
    r_orb, u_orb = _radial(ball.orbit_points(ball.members))
    profile_ok = True
    for prof in extra["profiles"]:
        n_picks = min(ctx.params["profile_samples"], prof.ts.size)
        picks = rng.choice(prof.ts.size, size=n_picks, replace=False)
        for i in picks:
            d = _distance(prof.ts[i], prof.direction.direction, r_orb, u_orb)
            brute = float(np.min(d))
            profile_ok &= abs(brute - float(prof.values[i])) <= tol * (1.0 + brute)
    ball22 = extra["ball22"]
    members = ball22.members
    t_max = ctx.params["myrberg_t_max"]
    myrberg_ok = True
    for (xi, _, matrix), witness in zip(ctx.inputs["myrberg"], extra["witnesses"]):
        g_point = matrix[:, 0]
        length = float(np.arccosh(g_point[0]))
        n_samples = max(int(math.ceil(length / MYRBERG_STEP)) + 1, 2)
        seg_ts = np.linspace(0.0, length, n_samples)
        _, g_dir = _radial(g_point)
        seg = np.concatenate(
            [np.cosh(seg_ts)[:, None], np.sinh(seg_ts)[:, None] * g_dir], axis=1
        )
        moved = np.einsum("nij,sj->nsi", ball22.mats[members], seg)
        worst = _distance_to_ray_window(moved, xi, t_max).max(axis=1)
        inside = members[worst < MYRBERG_TUBE - 1e-7]
        earliest = min(
            (int(i) for i in inside),
            key=lambda i: (int(ball22.word_length[i]), ball22.word(i)),
            default=None,
        )
        if witness is None:
            myrberg_ok &= earliest is None
        else:
            row = next(int(i) for i in members if ball22.word(int(i)) == witness.word)
            myrberg_ok &= worst[np.searchsorted(members, row)] <= MYRBERG_TUBE + 1e-7
            if earliest is not None:
                myrberg_ok &= (len(witness.word), witness.word) <= (
                    int(ball22.word_length[earliest]),
                    ball22.word(earliest),
                )
    return {
        "profile.brute_force_ok": bool(profile_ok),
        "myrberg.brute_force_ok": bool(myrberg_ok),
    }


# ---------------------------------------------------------------------------
# Known-defect probe: binned dedup keeps far fewer members than exact dedup
# on PSL(2,Z) with the basepoint fixed by S.


def defect_probe(radius: float) -> dict:
    s = np.array([[0, -1], [1, 0]])
    t = np.array([[1, 1], [0, 1]])
    spec = GroupSpec(
        [sl2_to_so21(s), sl2_to_so21(t)], 2, name="PSL(2,Z)", int_rep=[s, t]
    )
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mode in ("binned", "exact"):
            ball = enumerate_ball(spec, radius, dedup=mode)
            out[f"orbit.{mode}_members"] = ball.n_members
    return out


# ---------------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class Workload:
    build_groups: object
    run_pass: object
    ops: tuple
    sizes: dict
    make_inputs: object = lambda ctx: {}
    extra_checks: object = _no_extra_checks

    def prepare(self, size: str, seed: int) -> Context:
        ctx = Context(seed, self.sizes[size], self.build_groups())
        ctx.inputs = self.make_inputs(ctx)
        return ctx


# Full sizes are cut down from the test-suite fixtures so that a pass takes
# a few seconds, and each keeps its dominant layer:
# * chain-seed stops the seed walk at radius 10 (7 letters, 2,936 annulus
#   candidates) instead of the fixture's radius 12 (40 letters, 18,200);
#   straightening still takes most of the pass.
# * wide-torus nets 38 letters at separation 18C + 0.5 inside the radius-9
#   annulus, where the fixture's 18C + 2 needs radius 10 for its 55; the
#   principle report's apex products still take over half of the pass.
# * orbit-queries uses the torus ball at R=11 (the depth-2 search still
#   certifies) and the binned build at R=7 with its default prune margin
#   2 max|generator| = 3.85.
# The semigroup workloads have fixed groups and parameters, so their pinned
# values hold for every seed; the seed drives their report audits.  The
# orbit-queries seed draws every query direction and Myrberg segment.
WORKLOADS = {
    "chain-seed": Workload(
        build_groups=_chain_groups,
        run_pass=semigroup_pass,
        ops=SEMIGROUP_OPS,
        sizes={
            "full": dict(
                group="schottky", ball_radius=13.0, ratio=1.28, n_min=5, n_cap=200,
                separation_offset=4.15, max_radius=13.0, probe_radius=8.0,
            ),
            "tiny": dict(
                group="schottky", ball_radius=9.0, ratio=1.28, n_min=2, n_cap=200,
                separation_offset=4.15, max_radius=9.0, probe_radius=5.0,
            ),
        },
    ),
    "wide-torus": Workload(
        build_groups=_torus_groups,
        run_pass=semigroup_pass,
        ops=SEMIGROUP_OPS,
        sizes={
            "full": dict(
                group="torus", ball_radius=12.0, ratio=1.0, n_min=38, n_cap=38,
                separation_offset=0.5, max_radius=12.0, probe_radius=8.0,
            ),
            "tiny": dict(
                group="torus", ball_radius=9.0, ratio=1.0, n_min=4, n_cap=6,
                separation_offset=0.5, max_radius=9.0, probe_radius=5.0,
            ),
        },
    ),
    "orbit-queries": Workload(
        build_groups=_orbit_groups,
        run_pass=orbit_pass,
        ops=ORBIT_OPS,
        make_inputs=_orbit_inputs,
        extra_checks=_orbit_checks,
        sizes={
            "full": dict(
                binned_radius=7.0, torus_radius=11.0, profile_t_max=9.0, n_profiles=2,
                profile_samples=8, dim3_radius=10.0, myrberg_radius=14.0,
                myrberg_t_max=12.0, n_myrberg=3, myrberg_word_length=5,
                probe_radius=8.0,
            ),
            "tiny": dict(
                binned_radius=4.0, torus_radius=9.0, profile_t_max=7.0, n_profiles=1,
                profile_samples=4, dim3_radius=5.0, myrberg_radius=8.0,
                myrberg_t_max=6.0, n_myrberg=1, myrberg_word_length=2, probe_radius=5.0,
            ),
        },
    ),
}
