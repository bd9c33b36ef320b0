"""Separated-pair calibration and staged free-semigroup construction.

The growth machinery runs on one structural gadget: a long *separator*
``a`` and a short *adjuster* ``b`` with distinct axes.  Every group
element ``g`` is straightened into a certified chain for the sequence

    a^{-1} x0,  x0,  z_1, ..., z_{n-1},  g x0,  g a x0

with the z_i marked along the geodesic [x0, g x0] at the active gap
spacing.  When the chain passes, products of such elements interleaved
with ``a`` behave like a free semigroup: norms add up to tolerances and
distinct words land on distinct orbit points.  :func:`phi_map` decorates
arbitrary elements with at most one ``b`` on each side until the chain
certifies, :func:`build_seed_alphabet` nets the decorated images of a
sphere-like annulus into a starting alphabet, and :func:`build_stage`
grows the alphabet stage by stage while monitoring the interval and
series conditions that pin the growth exponent from below.

Two constants modes exist.  ``synthetic`` scales everything to the pair
actually found (chain scale ``|a| / 10``, norm ratio ``|a| / |b|`` of a
few) so that the whole pipeline runs inside floating point; this is the
default and the only mode whose certificates are numeric.  ``literal``
keeps the bookkeeping ratios of the underlying argument (``|b|`` beyond
1e6 times the branching estimate, ``|a|`` beyond 1e3 |b|); elements that
large have no representable matrices, so the pair is built symbolically
around norm hints and every certifying operation raises
:class:`FeasibilityError` rather than pretending to check.

Certificate chains are stored in step form (see :mod:`kleinian.chains`):
raw coordinates stop resolving transverse angles near radius ~27, far
short of where the staged elements live.  The stored steps produce the
``a``-translate of the defining chain, which starts at the basepoint and
has identical gaps and products.  The interior marks use a Cartan frame
of ``g`` (rotation, axis boost, rotation); the far flank step is the
rotation residue times ``a``, a product of orthogonal factors that stays
accurate at any norm.  In dimension 3 and up the frame is determined
only up to a twist about the travel axis, which moves no gap and no
product, so certificates are unaffected.

Straightening never walks those steps to reach a verdict.  The interior
gaps of a canonical chain are all |g| / n and its interior products are
all 0, so the verdict depends only on |a|, |g| / n and the two flank
products, which have closed forms in the travel directions of ``g``.
:func:`phi_map` and :func:`build_seed_alphabet` judge every decoration
of every element by those closed forms in one array pass, and build the
step-form certificate only for the images they return; each returned
certificate must reproduce the closed-form verdict, or the call raises.

Equality and nearness of far elements are likewise never judged from
coordinates: quotient words are freely reduced first, which decides
coincidence exactly for free generator systems and leaves only
well-conditioned matrix products to measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import H_GEO, ChainParams, check_chain
from .hyperbolic import (
    Isometry,
    Point,
    basepoint,
    boost,
    radial_split,
    ray_points,
    split_distance,
    stable_arcosh,
)
from .orbit import (
    EnumerationBudgetError,
    GroupSpec,
    OrbitBall,
    enumerate_ball,
    estimate_critical_exponent,
    orbit_distance,
)

__all__ = [
    "EXTENSION_TOL",
    "SemigroupError",
    "PairNotFoundError",
    "FeasibilityError",
    "FactCounterexampleError",
    "LemmaCounterexampleError",
    "StageConditionError",
    "PingPongPair",
    "PropertyACertificate",
    "SeedAlphabet",
    "TruncatedFamily",
    "SemigroupStage",
    "DeepElementWitness",
    "DeepElementQuery",
    "find_ping_pong_pair",
    "check_property_A",
    "phi_map",
    "concat_F",
    "concatenate_certificates",
    "build_seed_alphabet",
    "family_separation",
    "find_deep_element",
    "build_stage",
]

# slack allowed in the norm superadditivity assertion of concat_F
EXTENSION_TOL = 1e-8

# synthetic-mode defaults: norm ratio |a| / |b| and chain scale |a| / 10
RATIO_SYNTHETIC = 8.0
SCALE_DIVISOR = 10.0

# literal-mode bookkeeping ratios of the underlying argument
RATIO_LITERAL = 1e3
MARGIN_LITERAL = 1e6


class SemigroupError(RuntimeError):
    """Base class for the staged-construction failures."""


class PairNotFoundError(SemigroupError):
    """No separated pair exists: the group looks elementary."""


class FeasibilityError(SemigroupError):
    """The operation needs matrices the active mode cannot represent."""


class FactCounterexampleError(SemigroupError):
    """All decorations of an element failed to certify.

    This contradicts the straightening argument, so it is a hard error;
    the failing certificates ride along for forensics.
    """

    def __init__(self, message: str, certificates):
        super().__init__(message)
        self.certificates = list(certificates)


class LemmaCounterexampleError(SemigroupError):
    """An interleaved product lost norm against the sum of its parts.

    Certified parts make this impossible, so either the inputs were
    never certified or the measurement found a genuine counterexample;
    the measurement rides along either way.
    """

    def __init__(self, message: str, measurement: dict):
        super().__init__(message)
        self.measurement = measurement


class StageConditionError(SemigroupError):
    """A stage failed one of its measured conditions; report attached."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _require_matrices(pair, *elements) -> None:
    """Refuse literal-mode work: symbolic elements carry no matrices."""
    if pair.symbolic or any(g.symbolic for g in elements):
        raise FeasibilityError(
            "literal-mode elements have no matrices to compute with; use "
            "synthetic mode"
        )


# ---------------------------------------------------------------------------
# Word utilities.  Free reduction decides element coincidence exactly for
# free generator systems, so separations are measured on reduced words
# whose matrix products stay well conditioned at any radius.


def _free_reduce(labels) -> tuple:
    out: list[int] = []
    for lab in labels:
        if out and out[-1] == -lab:
            out.pop()
        else:
            out.append(int(lab))
    return tuple(out)


def _inverse_word(labels) -> tuple:
    return tuple(-int(lab) for lab in reversed(labels))


def _letter_matrices(spec: GroupSpec) -> dict:
    return {lab: np.asarray(m, dtype=float) for lab, m, _ in spec.letters()}


def _word_norm(labels, letter_map: dict, dim: int) -> float:
    if not labels:
        return 0.0
    m = np.eye(dim + 1)
    with np.errstate(over="ignore"):
        for lab in labels:
            m = m @ letter_map[lab]
    return float(stable_arcosh(m[0, 0]))


# ---------------------------------------------------------------------------
# Pair extraction.


@dataclass
class PingPongPair:
    """A separator/adjuster pair with its calibration record.

    ``gromov_sup`` is the windowed branching estimate: the largest Gromov
    product at the basepoint over orbit-point pairs whose words branch at
    the first letter, taken over the ``window`` smallest members, plus
    the growth of that maximum over the second half of the window
    (``window_margin``) as an extrapolation allowance.  The gap between
    window and group is recorded, never hidden: a deeper window can only
    raise the estimate by roughly another margin.
    """

    separator: Isometry
    adjuster: Isometry
    gromov_sup: float
    window: int
    window_margin: float
    scale: float
    product_bound: float
    gap_bound: float
    mode: str
    ratio_required: float
    ratio: float
    separator_base: tuple
    adjuster_base: tuple

    def chain_params(self) -> ChainParams:
        return ChainParams(self.product_bound, self.gap_bound)

    @property
    def symbolic(self) -> bool:
        return self.separator.symbolic or self.adjuster.symbolic


def _translation_length(iso: Isometry) -> float:
    """Axis translation length, log of the top eigenvalue modulus."""
    lam = np.max(np.abs(np.linalg.eigvals(iso.matrix)))
    return float(max(np.log(lam), 0.0))


def _smallest_power(letter: Isometry, threshold: float, cap: int = 64):
    """Smallest power whose norm strictly clears ``threshold``."""
    g = letter
    for p in range(1, cap + 1):
        if g.norm() > threshold:
            return p, g
        g = g @ letter
    raise PairNotFoundError(
        f"no generator power cleared norm {threshold:.3g} within {cap} steps"
    )


def _branch_products(ball: OrbitBall, window: int) -> float:
    """Largest basepoint Gromov product over first-letter-branching pairs."""
    members = [int(i) for i in ball.by_norm() if ball.word_length[i] > 0]
    members = members[:window]
    first = np.array([ball.word(i)[0] for i in members])
    branch = first[:, None] != first[None, :]
    if not branch.any():
        raise PairNotFoundError("orbit window never branches; group looks cyclic")
    r, u = radial_split(ball.orbit_points(np.asarray(members, dtype=np.int64)))
    r0, u0 = radial_split(basepoint(ball.spec.dim))
    to_base = split_distance(r, u, r0, u0)
    apart = split_distance(r[:, None], u[:, None], r[None, :], u[None, :])
    products = 0.5 * (to_base[:, None] + to_base[None, :] - apart)
    return max(0.0, float(products[branch].max()))


def find_ping_pong_pair(
    spec: GroupSpec,
    *,
    mode: str = "synthetic",
    ratio: float | None = None,
    window: int = 20,
    power_cap: int = 64,
) -> PingPongPair:
    """Search generator powers for a separated (separator, adjuster) pair.

    The adjuster is the smallest power of the second loxodromic letter
    clearing the branching margin ``3 + gromov_sup`` (times 1e6 in
    literal mode); the separator is the smallest power of the first
    letter reaching ``ratio`` times the adjuster norm.  Literal-mode
    powers overflow floating point, so those elements are symbolic with
    norm hints and downstream certification refuses them loudly.
    """
    if mode not in ("synthetic", "literal"):
        raise ValueError(f"unknown constants mode {mode!r}")
    letters = [Isometry(m, (lab,)) for lab, m, _ in spec.letters() if lab > 0]
    loxo = [(g, _translation_length(g)) for g in letters]
    loxo = [(g, ell) for g, ell in loxo if ell > 1e-9]
    if not loxo:
        raise PairNotFoundError("no loxodromic generator")
    u, ell_u = loxo[0]
    v = ell_v = None
    for cand, ell in loxo[1:]:
        comm = u @ cand @ u.inverse() @ cand.inverse()
        if comm.norm() > 1e-8:
            v, ell_v = cand, ell
            break
    if v is None:
        raise PairNotFoundError("needs two loxodromic generators with distinct axes")

    radius = 1.5 * spec.max_generator_norm() + 0.1
    ball = enumerate_ball(spec, radius, max_elements=200_000)
    for _ in range(6):
        if ball.n_members > window:
            break
        radius *= 1.5
        ball = enumerate_ball(spec, radius, max_elements=200_000)
    c0_full = _branch_products(ball, window)
    c0_half = _branch_products(ball, max(2, window // 2))
    window_margin = max(0.0, c0_full - c0_half)
    gromov_sup = c0_full + window_margin

    if mode == "synthetic":
        ratio_required = RATIO_SYNTHETIC if ratio is None else float(ratio)
        margin = 3.0 + gromov_sup
        q, b = _smallest_power(v, margin, power_cap)
        p, a = _smallest_power(u, ratio_required * b.norm() - 1e-12, power_cap)
        scale = a.norm() / SCALE_DIVISOR
        product_bound = gap_bound = scale
    else:
        ratio_required = RATIO_LITERAL if ratio is None else float(ratio)
        margin = MARGIN_LITERAL * (3.0 + gromov_sup)
        # norms of huge powers: translation length times the power plus
        # the converged basepoint offset, measured at a safe power
        off_v = v.power(16).norm() - 16.0 * ell_v
        off_u = u.power(16).norm() - 16.0 * ell_u
        q = int(math.ceil((margin - off_v) / ell_v)) + 1
        hint_b = q * ell_v + off_v
        p = int(math.ceil((ratio_required * hint_b - off_u) / ell_u)) + 1
        hint_a = p * ell_u + off_u
        a = Isometry(None, (), norm_hint=hint_a)
        b = Isometry(None, (), norm_hint=hint_b)
        scale = 1e-3 * hint_a
        product_bound = 1e-6 * hint_a
        gap_bound = hint_a
    return PingPongPair(
        separator=a,
        adjuster=b,
        gromov_sup=gromov_sup,
        window=window,
        window_margin=window_margin,
        scale=scale,
        product_bound=product_bound,
        gap_bound=gap_bound,
        mode=mode,
        ratio_required=ratio_required,
        ratio=a.norm() / b.norm(),
        separator_base=(int(u.word[0]), p),
        adjuster_base=(int(v.word[0]), q),
    )


# ---------------------------------------------------------------------------
# Canonical chains and the straightening map.


@dataclass
class PropertyACertificate:
    """Chain verdict for one element against one pair.

    ``chain`` holds the step isometries of the basepoint-translate of
    the defining chain; :meth:`chain_points` renders coordinates for
    plotting, with the usual far-radius caveat.
    """

    element: Isometry
    chain: list
    params_used: ChainParams
    ok: bool
    violation: dict | None
    gaps: np.ndarray
    products: np.ndarray
    mode: str

    def chain_points(self) -> np.ndarray:
        from .chains import chain_points

        return chain_points(self.chain)


def _rotation_to_e1(u: np.ndarray) -> np.ndarray:
    """Spatial rotation (det +1) taking the first axis to direction u."""
    u = np.asarray(u, dtype=float)
    d = u.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    c = float(u @ e1)
    if c > 1.0 - 1e-14:
        return np.eye(d)
    if c < -1.0 + 1e-14:
        m = np.eye(d)
        m[0, 0] = -1.0
        m[1, 1] = -1.0
        return m
    v = u - c * e1
    v /= np.linalg.norm(v)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    m = np.eye(d)
    m += (c - 1.0) * (np.outer(e1, e1) + np.outer(v, v))
    m += s * (np.outer(v, e1) - np.outer(e1, v))
    return m


def _embed_rotation(rot: np.ndarray) -> np.ndarray:
    dim = rot.shape[0]
    m = np.eye(dim + 1)
    m[1:, 1:] = rot
    return m


def _travel_directions(mats: np.ndarray):
    """Directions of g x0 and g^{-1} x0 for a matrix or a stack of them.

    g^{-1} x0 is read off the top row: the inverse is J g^T J.
    """
    _, u_out = radial_split(mats[..., :, 0])
    back = np.concatenate([mats[..., :1, 0], -mats[..., 0, 1:]], axis=-1)
    _, u_in = radial_split(back)
    return u_out, u_in


def _mark_count(length, spacing: float):
    """Steps marking a geodesic of ``length`` every ``spacing``.

    The count shrinks by one when the division lands on the gap bound,
    so roundoff cannot dip a step below it.  Broadcasts over ``length``.
    """
    n = np.maximum(np.floor(length / spacing), 1.0)
    return np.where((n > 1.0) & (length / n - spacing < 1e-9), n - 1.0, n)


def _canonical_steps(g: Isometry, a: Isometry, spacing: float) -> list:
    """Steps of the basepoint-translate of the canonical chain of ``g``.

    The chain marks the geodesic [x0, g x0] every ``spacing`` (see
    :func:`_mark_count`) and flanks it with a^{-1} x0 and g a x0.
    Steps: the flank ``a``, conjugated axis boosts, and the rotation
    residue times ``a``.  The residue comes from orthogonal factors
    only; recovering it from far matrix products instead would cancel
    catastrophically.
    """
    dim = a.dim
    L = g.norm()
    if L <= 1e-12:
        return [a, Isometry(g.matrix @ a.matrix)]
    u_out, u_in = _travel_directions(g.matrix)
    k1 = _embed_rotation(_rotation_to_e1(u_out))
    w = _embed_rotation(_rotation_to_e1(u_in))
    m_pi = np.eye(dim + 1)
    m_pi[1, 1] = -1.0
    m_pi[2, 2] = -1.0
    k2 = m_pi @ w.T
    n = int(_mark_count(L, spacing))
    step = Isometry(k1 @ boost(dim, 1, L / n).matrix @ k1.T)
    return [a] + [step] * n + [Isometry(k1 @ k2 @ a.matrix)]


def _chain_verdicts(mats: np.ndarray, pair: PingPongPair):
    """Closed-form verdicts on the canonical chains of a stack of elements.

    ``mats`` has shape (m, d+1, d+1) and every row must move the
    basepoint (|g| > 1e-12; straightening only asks about elements at
    least as long as the separator).  The chain of :func:`_canonical_steps`
    has flank gaps |a|, n interior gaps stable_arcosh(cosh h) with
    h = |g| / n, and interior products 0, since consecutive interior
    steps boost along one axis.  Only the two flank products depend on
    the direction of ``g``.  The first step ``a`` meets a boost toward
    u_out, so the first skip has cosh a00 cosh h + sinh h u_out . a[0, 1:].
    The last step is the rotation residue k1 k2 times ``a``, and k1 k2
    maps u_in to -u_out, so the last skip has cosh
    a00 cosh h - sinh h u_in . a[1:, 0].

    Returns (ok, gap, first, last) per row: the verdict, the interior
    gap and the two flank products.  ``ok`` judges as
    :func:`~kleinian.chains.check_chain` does, gaps at least D and
    products at most C, so a NaN gap or product fails.
    """
    params = pair.chain_params()
    am = pair.separator.matrix
    a_norm = stable_arcosh(am[0, 0])
    length = stable_arcosh(mats[:, 0, 0])
    u_out, u_in = _travel_directions(mats)
    h = length / _mark_count(length, params.gap_bound)
    ch, sh = np.cosh(h), np.sinh(h)
    gap = stable_arcosh(ch)
    first_skip = stable_arcosh(am[0, 0] * ch + sh * (u_out @ am[0, 1:]))
    last_skip = stable_arcosh(am[0, 0] * ch - sh * (u_in @ am[1:, 0]))
    first = 0.5 * (a_norm + gap - first_skip)
    last = 0.5 * (gap + a_norm - last_skip)
    ok = (
        (a_norm >= params.gap_bound)
        & (gap >= params.gap_bound)
        & (first <= params.product_bound)
        & (last <= params.product_bound)
    )
    return ok, gap, first, last


def check_property_A(
    element: Isometry,
    pair: PingPongPair,
    *,
    params: ChainParams | None = None,
) -> PropertyACertificate:
    """Certify the canonical chain of ``element`` against the pair.

    A sufficient-condition verifier: passing certifies the element,
    failing only says this particular marking failed.  The identity gets
    the two-flank chain; the separator's inverse fails by construction
    (its marks double back through the basepoint).  This builds and
    checks the step list; :func:`phi_map` and :func:`build_seed_alphabet`
    take their verdicts from the closed form of :func:`_chain_verdicts`
    and call this only for the certificates they return.
    """
    _require_matrices(pair, element)
    use = params if params is not None else pair.chain_params()
    steps = _canonical_steps(element, pair.separator, use.gap_bound)
    cert = check_chain(steps, use)
    return PropertyACertificate(
        element=element,
        chain=steps,
        params_used=use,
        ok=cert.ok,
        violation=cert.first_violation,
        gaps=cert.gaps,
        products=cert.products,
        mode=pair.mode,
    )


def _step_certificate(image: Isometry, pair: PingPongPair, ok: bool):
    """Step-form certificate of ``image``, held to its closed-form verdict."""
    cert = check_property_A(image, pair)
    if cert.ok != ok:
        raise SemigroupError(
            f"closed-form verdict {ok} disagrees with the step-form chain of "
            f"|g|={image.norm():.6g} (first violation: {cert.violation})"
        )
    return cert


def _decorate(element: Isometry, b: Isometry, k: int) -> Isometry:
    """Decoration ``k`` of ``element``: g, bg, gb, bgb for k = 0, 1, 2, 3."""
    if k in (1, 3):
        element = b @ element
    if k in (2, 3):
        element = element @ b
    return element


def _first_certified(mats: np.ndarray, pair: PingPongPair):
    """Per row of ``mats``, the first decoration (index into g, bg, gb,
    bgb) whose canonical chain certifies, or -1 when none does; plus the
    decorated stack, shape (4, m, d+1, d+1)."""
    b = pair.adjuster.matrix
    bg = b @ mats
    decorated = np.stack([mats, bg, mats @ b, bg @ b])
    ok = _chain_verdicts(decorated.reshape(-1, *mats.shape[1:]), pair)[0]
    ok = ok.reshape(4, -1)
    return np.where(ok.any(axis=0), ok.argmax(axis=0), -1), decorated


def _uncertified(element: Isometry, pair: PingPongPair):
    """The error for an element that no decoration certifies, carrying
    the four step-form certificates."""
    failed = [
        _step_certificate(_decorate(element, pair.adjuster, k), pair, False)
        for k in range(4)
    ]
    return FactCounterexampleError(
        f"no decoration of |g|={element.norm():.6g} certified; this "
        "contradicts the straightening argument",
        failed,
    )


def phi_map(element: Isometry, pair: PingPongPair):
    """Straighten ``element``: decorate with the adjuster until certified.

    Elements below the separator norm all map to the fixed product
    b a b.  Above it, the first of g, bg, gb, bgb (in that fixed order)
    whose chain certifies is returned with its certificate.  Verdicts
    come from the closed form of :func:`_chain_verdicts`, one row of the
    kernel :func:`build_seed_alphabet` runs over a whole annulus; the
    step-form certificate is built for the returned image only.  No
    candidate passing contradicts the straightening argument, so that
    raises :class:`FactCounterexampleError` carrying all four failed
    certificates.
    """
    _require_matrices(pair, element)
    a, b = pair.separator, pair.adjuster
    if element.norm() < a.norm():
        image = b @ a @ b
        ok = bool(_chain_verdicts(image.matrix[None], pair)[0][0])
        cert = _step_certificate(image, pair, ok)
        if not ok:
            raise FactCounterexampleError(
                "the short-element image b a b failed its own chain; the "
                "pair calibration is inconsistent",
                [cert],
            )
        return image, cert
    choice = int(_first_certified(element.matrix[None], pair)[0][0])
    if choice < 0:
        raise _uncertified(element, pair)
    image = _decorate(element, b, choice)
    return image, _step_certificate(image, pair, True)


def concat_F(parts, pair: PingPongPair) -> Isometry:
    """Interleaved product g_1 a g_2 a ... g_n with the norm assertion.

    Norms of certified parts add along the product up to
    :data:`EXTENSION_TOL`; a measured deficit raises
    :class:`LemmaCounterexampleError` (uncertified parts can trip this
    honestly, e.g. a part that is a power of the separator's inverse).
    A single part returns unchanged.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    if len(parts) == 1:
        return parts[0]
    _require_matrices(pair, *parts)
    a = pair.separator
    product = parts[0]
    for part in parts[1:]:
        product = product @ a @ part
    total = float(sum(p.norm() for p in parts))
    achieved = product.norm()
    if achieved < total - EXTENSION_TOL:
        raise LemmaCounterexampleError(
            f"interleaved norm {achieved:.9g} fell below the part sum "
            f"{total:.9g}",
            {
                "part_norms": [float(p.norm()) for p in parts],
                "sum": total,
                "achieved": float(achieved),
                "deficit": float(total - achieved),
            },
        )
    return product


def concatenate_certificates(
    first: PropertyACertificate,
    second: PropertyACertificate,
    pair: PingPongPair,
) -> PropertyACertificate:
    """Chain certificate for g a h from the certificates of g and h.

    The step chains splice: the second chain's leading flank step is the
    same ``a`` the first chain ends by crossing, so the merged step list
    is first + second[1:].  The merged chain is re-checked rather than
    trusted.
    """
    steps = list(first.chain) + list(second.chain)[1:]
    use = pair.chain_params()
    cert = check_chain(steps, use)
    element = first.element @ pair.separator @ second.element
    return PropertyACertificate(
        element=element,
        chain=steps,
        params_used=use,
        ok=cert.ok,
        violation=cert.first_violation,
        gaps=cert.gaps,
        products=cert.products,
        mode=pair.mode,
    )


# ---------------------------------------------------------------------------
# Seed alphabet.


@dataclass
class SeedAlphabet:
    """Starting alphabet: straightened images of an annulus, netted."""

    elements: list
    radius: float
    width: float
    separation: float
    eps: float
    mode: str
    capped: bool
    candidates: int
    certificates: list = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.elements)


def build_seed_alphabet(
    spec: GroupSpec,
    pair: PingPongPair,
    eps: float,
    *,
    n_min: int = 4,
    n_cap: int = 12,
    width: float | None = None,
    max_radius: float = 40.0,
    prune_margin: float = 2.0,
    max_elements: int = 1_500_000,
    separation: float | None = None,
) -> SeedAlphabet:
    """Net the straightened annulus of an enumerated ball into an alphabet.

    Walks the ball radius up from just past the separator norm until the
    net has ``n_min`` elements: straightens every member of the outermost
    width-``width`` annulus as :func:`phi_map` does, keeps images whose
    norms stay inside the annulus, and greedily nets them at separation
    ``0.004 eps R0`` in ascending norm order, capped at ``n_cap``.  The
    four decorations of the whole annulus are judged in one pass of the
    closed-form kernel; words and step-form certificates are built only
    for landing images and kept letters respectively.  Distinctness and
    separation are judged on freely reduced quotient words.  Literal
    mode reports the radius its constants would require instead of
    enumerating it.

    ``separation`` overrides the default net scale.  The boundary-measure
    checks need alphabets whose letters pairwise clear the chain-constant
    regime (around 18 C plus margin); the default scale guarantees that
    only when the annulus radius dwarfs the separator, so those fixtures
    pass the regime scale explicitly.  Separations of one or more are
    screened by Minkowski pairing of orbit columns, which is decisively
    accurate at unit scale; smaller ones use exact word reduction.
    """
    if pair.mode == "literal" or pair.symbolic:
        probe = enumerate_ball(spec, 1.8 * spec.max_generator_norm() + 4.0)
        delta = max(estimate_critical_exponent(probe).value, 1e-3)
        r0 = spec.max_generator_norm()
        required = 1e7 * (pair.scale + r0) * (1.0 + delta) / (delta * eps)
        raise EnumerationBudgetError(
            f"literal-mode seed alphabet needs ball radius ~{required:.3g}; "
            "enumeration cannot reach it, use synthetic mode",
            explored=0,
            level=required,
        )
    letter_map = _letter_matrices(spec)
    dim = spec.dim
    a_norm = pair.separator.norm()
    w = pair.scale if width is None else float(width)
    radius = int(math.ceil(a_norm + w + 1e-9))
    last_candidates = 0
    while radius <= max_radius:
        ball = enumerate_ball(
            spec, float(radius), prune_margin=prune_margin, max_elements=max_elements
        )
        members = ball.by_norm()
        norms = ball.norms[members]
        lo = radius - w
        sel = members[(norms >= lo) & (norms <= radius)]
        last_candidates = int(sel.size)
        # annulus members clear the separator norm (lo > |a|), so each
        # takes the decorated branch of phi_map
        choice, decorated = _first_certified(ball.mats[sel], pair)
        missing = np.flatnonzero(choice < 0)
        if missing.size:
            raise _uncertified(ball.element(int(sel[missing[0]])), pair)
        image_norms = stable_arcosh(decorated[choice, np.arange(sel.size), 0, 0])
        landed = (image_norms >= lo) & (image_norms <= radius + 1e-9)
        images = [
            _decorate(ball.element(int(sel[i])), pair.adjuster, int(choice[i]))
            for i in np.flatnonzero(landed)
        ]
        images.sort(key=lambda img: (img.norm(), img.word))
        if separation is None:
            sep_eff = max(0.004 * eps * radius, 1e-9)
        else:
            sep_eff = float(separation)
        kept = []
        if sep_eff >= 1.0 and images:
            cols = np.array([img.matrix[:, 0] for img in images])
            kept_rows: list = []
            for i in range(len(images)):
                if kept_rows:
                    kc = cols[kept_rows]
                    cosh_d = cols[i, 0] * kc[:, 0] - kc[:, 1:] @ cols[i, 1:]
                    if float(stable_arcosh(cosh_d).min()) < sep_eff:
                        continue
                kept_rows.append(i)
                if len(kept_rows) == n_cap:
                    break
            kept = [images[i] for i in kept_rows]
        else:
            kept_words = []
            for img in images:
                red = _free_reduce(img.word)
                admit = True
                for prev in kept_words:
                    quotient = _free_reduce(_inverse_word(prev) + red)
                    if not quotient:
                        admit = False
                        break
                    if _word_norm(quotient, letter_map, dim) < sep_eff:
                        admit = False
                        break
                if admit:
                    kept.append(img)
                    kept_words.append(red)
                if len(kept) == n_cap:
                    break
        if len(kept) >= n_min:
            return SeedAlphabet(
                elements=kept,
                radius=float(radius),
                width=w,
                separation=sep_eff,
                eps=eps,
                mode=pair.mode,
                capped=len(kept) == n_cap,
                candidates=last_candidates,
                certificates=[_step_certificate(g, pair, True) for g in kept],
            )
        radius += 1
    raise EnumerationBudgetError(
        f"no {n_min}-element seed alphabet up to radius {max_radius:.3g} "
        f"(last annulus had {last_candidates} candidates); the group may "
        "be too thin for this pair",
        explored=last_candidates,
        level=max_radius,
    )


# ---------------------------------------------------------------------------
# Separation audit of the interleaved family.


# entries of one row block of the pairing matrix in family_separation
PAIRING_BLOCK = 4_000_000


def _closest_branching_pair(cols: np.ndarray, first: np.ndarray):
    """(i, j), i < j, of the smallest pairing -<c_i, c_j> = cosh d over
    pairs with distinct first letters: the closest branching pair.

    Row blocks of at most :data:`PAIRING_BLOCK` entries keep memory
    bounded; block [s, e) pairs its rows with the columns from s on.
    Each block keeps its np.argmin (first minimum, or first NaN, in
    row-major order), so np.argmin over the block minima picks the same
    entry as one argmin over the whole masked n x n matrix.
    """
    n = cols.shape[0]
    rows = max(1, PAIRING_BLOCK // n)
    index = np.arange(n)
    pairs = []
    minima = []
    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.outer(cols[block, 0], cols[start:, 0])
            gram -= cols[block, 1:] @ cols[start:, 1:].T
        mask = (first[block, None] != first[None, start:]) & (
            index[None, start:] > index[block, None]
        )
        gram = np.where(mask, gram, np.inf)
        i, j = divmod(int(np.argmin(gram)), n - start)
        pairs.append((start + i, start + j))
        minima.append(gram[i, j])
    return pairs[int(np.argmin(minima))]


def family_separation(
    spec: GroupSpec,
    alphabet,
    pair: PingPongPair,
    *,
    depth: int = 3,
) -> dict:
    """All-pairs orbit separation of interleaved words up to ``depth``.

    Every quotient of two family words cancels, at word level, to one of
    two shapes: a branching pair (distinct first letters, measured from
    the Minkowski pairing of the two word columns, accurate because
    branching pairs overlap little) or a pure tail ``a F(t)`` (one word
    extends the other).  Coincidence is decided exactly by free
    reduction; the reported minima are re-measured from reduced words,
    never from far coordinates.
    """
    _require_matrices(pair)
    if not alphabet:
        raise ValueError("empty alphabet")
    letter_map = _letter_matrices(spec)
    dim = spec.dim
    a = pair.separator
    fam = _enumerate_family(alphabet, a, depth, math.inf)
    if fam.cap < depth:
        raise FeasibilityError(f"depth-{depth} words overflow float matrices")
    words = fam.words
    n_words = len(words)
    # label words in row order, for free reduction
    level = [g.word for g in alphabet]
    labels = list(level)
    for _ in range(1, depth):
        level = [lab + a.word + g.word for lab in level for g in alphabet]
        labels += level

    # exact coincidence screen on reduced normal forms
    seen: dict = {}
    duplicate = None
    for wrd, lab in zip(words, labels):
        key = _free_reduce(lab)
        if key in seen:
            duplicate = (seen[key], wrd)
            break
        seen[key] = wrd
    prefix_identity = None
    for wrd, lab in zip(words, labels):
        if len(wrd) <= depth - 1 and not _free_reduce(a.word + lab):
            prefix_identity = wrd
            break
    if duplicate is not None or prefix_identity is not None:
        return {
            "n_words": n_words,
            "depth": depth,
            "injective": False,
            "min_distance": 0.0,
            "duplicate": duplicate,
            "prefix_identity": prefix_identity,
        }

    cols = fam.columns
    first = fam.letters[:, 0]
    lengths = fam.lengths
    if (first != first[0]).any():
        bi, bj = _closest_branching_pair(cols, first)
        branch_quotient = _free_reduce(_inverse_word(labels[bi]) + labels[bj])
        min_branch = _word_norm(branch_quotient, letter_map, dim)
        branch_pair = (words[bi], words[bj])
    else:
        min_branch = math.inf
        branch_pair = None

    min_prefix = math.inf
    prefix_word = None
    short = lengths <= depth - 1
    if short.any():
        with np.errstate(over="ignore"):
            vals = cols[short] @ a.matrix[0]
        idx = int(np.flatnonzero(short)[int(np.argmin(vals))])
        prefix_quotient = _free_reduce(a.word + labels[idx])
        min_prefix = _word_norm(prefix_quotient, letter_map, dim)
        prefix_word = words[idx]

    return {
        "n_words": n_words,
        "depth": depth,
        "injective": True,
        "min_distance": float(min(min_branch, min_prefix)),
        "min_branch": float(min_branch),
        "branch_pair": branch_pair,
        "min_prefix": float(min_prefix),
        "prefix_word": prefix_word,
        "duplicate": None,
        "prefix_identity": None,
    }


# ---------------------------------------------------------------------------
# Deep elements.


@dataclass
class DeepElementWitness:
    """Witness segment: d(x, x0) = d(y, g x0) = M and [x, y] keeps
    measured distance about M from the whole orbit."""

    element: Isometry
    x: Point
    y: Point
    measured_depth: float


@dataclass
class DeepElementQuery:
    """Outcome of a deep-element search at depth ``M``.

    ``result`` stays None when no sample certifies at this budget; for
    groups whose orbit complement has bounded depth that is the expected
    answer, not an error.
    """

    M: float
    result: DeepElementWitness | None
    diagnostics: dict = field(default_factory=dict)


def _angular_bins(ball: OrbitBall, bin_width: float):
    pts = ball.orbit_points(ball.members)
    r, u = radial_split(pts)
    phi = np.arctan2(u[:, 1], u[:, 0])
    nbins = int(np.ceil((r.max() + 1e-9) / bin_width)) + 1
    which = np.minimum((r / bin_width).astype(int), nbins - 1)
    bins = []
    for b in range(nbins):
        sel = np.sort(phi[which == b])
        if sel.size:
            sel = np.concatenate([sel - 2 * np.pi, sel, sel + 2 * np.pi])
        bins.append(sel)
    return bins, nbins


def _certify_far(bins, nbins, bin_width, rs, phis, threshold):
    """True where no orbit point can lie within ``threshold`` (dim 2).

    Conservative sphere exclusion, binned by radius: an orbit point in
    the band [lo, hi] within ``threshold`` of a sample needs angular
    offset below the window solved from cosh T - cosh(radial gap), so
    empty windows across all bands certify the sample.  False negatives
    are possible, false positives are not.
    """
    ok = np.ones(rs.shape[0], dtype=bool)
    cosh_t = np.cosh(threshold)
    for b in range(nbins):
        ext = bins[b]
        if ext.size == 0:
            continue
        lo_edge = b * bin_width
        hi_edge = lo_edge + bin_width
        dr_min = np.maximum(0.0, np.maximum(lo_edge - rs, rs - hi_edge))
        num = cosh_t - np.cosh(dr_min)
        active = ok & (num > 0.0)
        if not active.any():
            continue
        r_lo = np.maximum(np.maximum(lo_edge, rs[active] - threshold), 1e-9)
        c = 1.0 - num[active] / (np.sinh(r_lo) * np.sinh(rs[active]))
        theta = np.where(c <= -1.0, np.pi, np.arccos(np.clip(c, -1.0, 1.0)))
        lo = np.searchsorted(ext, phis[active] - theta, side="left")
        hi = np.searchsorted(ext, phis[active] + theta, side="right")
        idx = np.flatnonzero(active)
        ok[idx[(hi - lo) > 0]] = False
    return ok


def _floor_depth(ball: OrbitBall, point: np.ndarray):
    """Certified lower bound for d(point, orbit) plus the nearest row."""
    value, _, row = orbit_distance(ball, point)
    r = float(stable_arcosh(point[0]))
    return min(value, ball.radius - r), row


def find_deep_element(
    spec: GroupSpec,
    M: float,
    ball: OrbitBall,
    *,
    peak_slack: float = 0.25,
    fractions=(0.35, 0.5, 0.65),
    h: float = H_GEO,
    bin_width: float = 0.25,
) -> DeepElementQuery:
    """Search the ball for a geodesic segment at depth ``M`` from the orbit.

    Scans members long enough to reach peak depth ``2M + peak_slack``,
    certifies candidate ray samples by conservative sphere exclusion (in
    dimension 3 and up, by one exact ``orbit_distance`` call over all
    samples, whose memory stays bounded), then walks the first
    certified geodesic to its depth-``M`` crossings P and Q.
    ``diagnostics["certified"]`` counts the candidates with a certified
    sample in every dimension.  The
    witness translates the crossing data back to the basepoint: with
    ``u`` the nearest member at P and ``v`` the nearest at Q, it is
    x = u^{-1} P, y = u^{-1} Q carried by g = u^{-1} v.  Returns an
    empty result when nothing certifies, the expected outcome for
    groups whose orbit complement has bounded depth.
    """
    if M < 0.0:
        raise ValueError("depth must be nonnegative")
    if M == 0.0:
        lab, mat, _ = spec.letters()[0]
        g = Isometry(mat, (lab,))
        return DeepElementQuery(
            M=0.0,
            result=DeepElementWitness(
                element=g,
                x=Point(basepoint(spec.dim)),
                y=g.orbit_point(),
                measured_depth=0.0,
            ),
            diagnostics={"trivial": True},
        )
    target = 2.0 * M + peak_slack
    if ball.radius <= 2.0 * target:
        raise ValueError(
            f"ball radius {ball.radius:.3g} cannot witness depth {M:.3g}; "
            f"need more than {2.0 * target:.3g}"
        )
    members = ball.by_norm()
    norms = ball.norms[members]
    cand = members[norms >= 2.0 * target]
    diag = {"candidates": int(cand.size), "threshold": float(target)}
    if cand.size == 0:
        return DeepElementQuery(M=M, result=None, diagnostics=diag)
    cand_norms = ball.norms[cand]
    _, cand_dirs = radial_split(ball.orbit_points(cand))

    rs = np.concatenate([f * cand_norms for f in fractions])
    if spec.dim == 2:
        bins, nbins = _angular_bins(ball, bin_width)
        phis = np.tile(np.arctan2(cand_dirs[:, 1], cand_dirs[:, 0]), len(fractions))
        deep = _certify_far(bins, nbins, bin_width, rs, phis, target)
    else:
        samples = ray_points(np.tile(cand_dirs, (len(fractions), 1)), rs)
        deep = orbit_distance(ball, samples)[0] >= target
    deep &= ball.radius - rs >= target
    per_candidate = deep.reshape(len(fractions), -1).any(axis=0)
    diag["certified"] = int(per_candidate.sum())
    hits = np.flatnonzero(per_candidate)
    chosen = int(hits[0]) if hits.size else None
    if chosen is None:
        return DeepElementQuery(M=M, result=None, diagnostics=diag)

    row = int(cand[chosen])
    length = float(cand_norms[chosen])
    u_dir = cand_dirs[chosen]
    ts = np.linspace(0.0, length, max(int(math.ceil(length / h)) + 1, 8))
    vals, _, _ = orbit_distance(ball, ray_points(u_dir, ts))
    floor = np.minimum(vals, ball.radius - ts)
    peak = int(np.argmax(floor))
    diag.update(
        {
            "chosen_norm": length,
            "chosen_word_length": int(ball.word_length[row]),
            "peak_depth": float(floor[peak]),
        }
    )
    if floor[peak] < target:
        return DeepElementQuery(M=M, result=None, diagnostics=diag)

    def depth_at(t: float):
        return _floor_depth(ball, ray_points(u_dir, t))

    def crossing(i_out, i_in):
        lo, hi = ts[i_out], ts[i_in]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            d, _ = depth_at(mid)
            if d <= M:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    below = np.flatnonzero(floor[: peak + 1] <= M)
    t_p = crossing(int(below[-1]), int(below[-1]) + 1)
    after = np.flatnonzero(floor[peak:] <= M) + peak
    t_q = crossing(int(after[0]), int(after[0]) - 1)
    p_point = ray_points(u_dir, t_p)
    q_point = ray_points(u_dir, t_q)
    _, row_p = _floor_depth(ball, p_point)
    _, row_q = _floor_depth(ball, q_point)
    anchor_inv = ball.element(int(row_p)).inverse()
    witness = anchor_inv @ ball.element(int(row_q))
    inner = np.linspace(t_p, t_q, max(int(math.ceil((t_q - t_p) / h)) + 1, 2))
    seg_vals, _, _ = orbit_distance(ball, ray_points(u_dir, inner))
    seg_floor = np.minimum(seg_vals, ball.radius - inner)
    measured = float(seg_floor.min())
    diag.update(
        {
            "segment_length": float(t_q - t_p),
            "witness_norm": float(witness.norm()),
            "crossing_depths": [float(depth_at(t_p)[0]), float(depth_at(t_q)[0])],
        }
    )
    return DeepElementQuery(
        M=M,
        result=DeepElementWitness(
            element=witness,
            x=anchor_inv.apply(p_point),
            y=anchor_inv.apply(q_point),
            measured_depth=measured,
        ),
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Staged construction.


@dataclass
class TruncatedFamily:
    """Every interleaved word up to a length cap, as one word tree.

    Rows run by length, then lexicographically, so the tree is complete
    and row lookups are arithmetic: appending alphabet index j to the
    word at row r gives row ``n (r + 1) + j`` (n letters), and the empty
    word sits at row -1.  ``letters`` holds each word's indices padded
    with -1, column-major so that per-position passes read contiguous
    memory; ``columns`` holds the orbit points f x0.  ``words`` and
    ``lengths`` are read off ``letters``.  Norms whose matrices overflow
    become inf and drop out of every series sum (undercounting, the
    conservative direction), with the count recorded.
    """

    letters: np.ndarray
    norms: np.ndarray
    columns: np.ndarray
    cap: int
    requested_cap: int
    overflow: int
    budget_hit: bool
    words: list = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)
    n_letters: int = field(init=False)

    def __post_init__(self):
        self.letters = np.asfortranarray(self.letters, dtype=np.int64)
        self.lengths = np.count_nonzero(self.letters >= 0, axis=1)
        self.words = [
            tuple(row[:n])
            for row, n in zip(self.letters.tolist(), self.lengths.tolist())
        ]
        self.n_letters = int(np.count_nonzero(self.lengths == 1))

    def rows_after(self, start: int, letters: np.ndarray) -> np.ndarray:
        """Rows of the word at row ``start`` (-1: the empty word) extended by
        each line of the padded index table ``letters``.  Rows at or past
        ``len(self.words)`` name words beyond the cap."""
        rows = np.full(letters.shape[0], start, dtype=np.int64)
        for col in letters.T:
            rows = np.where(col >= 0, self.n_letters * (rows + 1) + col, rows)
        return rows

    def row_of(self, word) -> int:
        """Row of a nonempty word of alphabet indices (KeyError outside)."""
        row = -1
        for j in word:
            if not 0 <= j < self.n_letters:
                raise KeyError(tuple(word))
            row = self.n_letters * (row + 1) + int(j)
        if not 0 <= row < len(self.words):
            raise KeyError(tuple(word))
        return row

    def poincare(self, s: float, cap: int | None = None) -> float:
        """Truncated series over nonempty words: sum of exp(-s |w|)."""
        mask = self.lengths <= (self.cap if cap is None else cap)
        vals = np.exp(-s * self.norms[mask])
        return float(np.sum(vals[np.isfinite(vals)]))

    def shell_sums(self, s: float) -> np.ndarray:
        out = []
        for n in range(1, self.cap + 1):
            vals = np.exp(-s * self.norms[self.lengths == n])
            out.append(float(np.sum(vals[np.isfinite(vals)])))
        return np.asarray(out)

    def tail_ratio(self, s: float) -> float:
        """Last-to-previous shell mass ratio; at least 1 means the
        truncated series was still growing at the cap."""
        shells = self.shell_sums(s)
        if shells.shape[0] < 2 or shells[-2] <= 0.0:
            return math.inf
        return float(shells[-1] / shells[-2])


@dataclass
class SemigroupStage:
    """One stage: alphabet, nested interval, reach radius, measurements."""

    k: int
    alphabet: list
    interval: tuple
    R_k: float
    truncated_F: TruncatedFamily
    condition_report: dict
    pair: PingPongPair


def _enumerate_family(
    alphabet,
    separator: Isometry,
    cap: int,
    max_words: int,
) -> TruncatedFamily:
    letter_mats = np.stack([g.matrix for g in alphabet])
    ext_mats = separator.matrix @ letter_mats
    max_step = max(g.norm() for g in alphabet) + separator.norm()
    # words longer than this overflow cosh; inf norms would only be
    # discarded later, so the cap is lowered up front
    cap_eff = max(1, min(cap, int(700.0 // max_step)))
    n_letters = len(alphabet)
    sizes = [n_letters**n for n in range(1, cap_eff + 1)]
    # the longest levels whose word count fits the budget, at least one
    cap_eff = max(1, int(np.count_nonzero(np.cumsum(sizes) <= max_words)))
    sizes = sizes[:cap_eff]
    budget_hit = cap_eff < cap
    # one stacked product per level; level n is word-major, letter-minor,
    # which is the lexicographic order of its words
    letters = np.full((sum(sizes), cap_eff), -1, dtype=np.int64, order="F")
    columns = np.empty((sum(sizes), letter_mats.shape[1]))
    mats = letter_mats
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, size in enumerate(sizes, start=1):
            block = slice(start, start + size)
            for p in range(n):
                digit = np.arange(size) // n_letters ** (n - 1 - p)
                letters[block, p] = digit % n_letters
            columns[block] = mats[:, :, 0]
            start += size
            if n < cap_eff:
                mats = np.matmul(mats[:, None], ext_mats[None]).reshape(
                    -1, *mats.shape[1:]
                )
        norms = stable_arcosh(columns[:, 0])
    overflow = ~np.isfinite(norms)
    norms[overflow] = math.inf
    return TruncatedFamily(
        letters=letters,
        norms=norms,
        columns=columns,
        cap=cap_eff,
        requested_cap=cap,
        overflow=int(overflow.sum()),
        budget_hit=budget_hit,
    )


def _family_exponent(fam: TruncatedFamily):
    """Growth fit over per-length shell tops, like the orbit estimate."""
    finite = np.isfinite(fam.norms)
    radii = []
    counts = []
    for n in range(1, fam.cap + 1):
        shell = fam.norms[(fam.lengths == n) & finite]
        if shell.size == 0:
            continue
        top = float(shell.max())
        radii.append(top)
        counts.append(int(np.sum(fam.norms[finite] <= top)))
    if len(radii) < 2:
        return 0.0, 0.0, radii, counts
    radii_arr = np.asarray(radii)
    logs = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(radii_arr, logs, 1)
    residual = float(np.max(np.abs(slope * radii_arr + intercept - logs)))
    return float(max(slope, 0.0)), residual, radii, counts


def _bisect_beta(fam: TruncatedFamily, lo: float, hi: float, target: float):
    """Largest s in (lo, hi] keeping the truncated series above ``target``."""
    p_lo = fam.poincare(lo)
    if p_lo <= target:
        return None, p_lo
    if fam.poincare(hi) > target:
        return hi, fam.poincare(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if fam.poincare(mid) > target:
            lo = mid
        else:
            hi = mid
    return lo, fam.poincare(lo)


def build_stage(
    prev,
    spec: GroupSpec,
    pair: PingPongPair,
    ball: OrbitBall,
    *,
    eps: float = 0.4,
    rho_R: float = 4.0,
    word_cap: int = 6,
    max_words: int = 200_000,
    substitute_margin: float | None = None,
) -> SemigroupStage:
    """Build the next stage from a seed alphabet or the previous stage.

    Stage 1 takes the seed alphabet as is.  Stage k+1 multiplies the
    reach radius by ``rho_R`` and appends one new letter, a certified
    interleave of (straightened separator power beyond the new radius)
    and (straightened k-th enumeration element, identity first).
    Genuine deep elements beyond the stage radius sit outside any
    enumerable ball at these scales, so the separator-power substitute
    stands in and is flagged in the report; deep elements are exercised
    separately at feasible depths.

    Measured per stage: (1) the family exponent against the ball
    exponent (recorded, not gated); (2) the interval width at most
    2^-k (gated); (3) the truncated series at beta clearing 2^k
    (gated); (4) the new family at every older beta_j staying under
    (2 - 2^(j-k)) M_j (gated).  Gate failures raise
    :class:`StageConditionError` with a diagnostic separating
    truncation shortfall from genuine violation.
    """
    _require_matrices(pair)
    gamma_est = estimate_critical_exponent(ball)

    substitute = None
    if isinstance(prev, SeedAlphabet):
        k = 1
        alphabet = list(prev.elements)
        r_k = prev.radius
        betas: dict = {}
        m_values: dict = {}
    elif isinstance(prev, SemigroupStage):
        k = prev.k + 1
        r_k = rho_R * prev.R_k
        margin = 10.0 * pair.scale if substitute_margin is None else substitute_margin
        if r_k + margin > 600.0:
            raise EnumerationBudgetError(
                f"stage radius {r_k:.3g} exceeds the float range of explicit "
                "matrices",
                explored=0,
                level=r_k,
            )
        a = pair.separator
        m = max(1, int(math.ceil((r_k + margin) / a.norm())))
        phi_hat = a.power(m)
        while phi_hat.norm() < r_k + margin:
            m += 1
            phi_hat = a.power(m)
        straight_phi, cert_phi = phi_map(phi_hat, pair)
        enum = ball.by_norm()
        g_index = min(k - 1, int(enum.size) - 1)
        g_k = ball.element(int(enum[g_index]))
        straight_g, cert_g = phi_map(g_k, pair)
        new_letter = concat_F([straight_phi, straight_g], pair)
        splice = concatenate_certificates(cert_phi, cert_g, pair)
        alphabet = list(prev.alphabet) + [new_letter]
        betas = {int(j): float(b) for j, b in prev.condition_report["betas"].items()}
        m_values = {int(j): float(v) for j, v in prev.condition_report["M"].items()}
        substitute = {
            "power": int(m),
            "norm": float(phi_hat.norm()),
            "straightened_norm": float(straight_phi.norm()),
            "enumeration_index": int(g_index),
            "new_letter_norm": float(new_letter.norm()),
            "meets_radius": bool(new_letter.norm() >= r_k),
            "splice_ok": bool(splice.ok),
        }
    else:
        raise TypeError("prev must be a SeedAlphabet or a SemigroupStage")

    fam = _enumerate_family(alphabet, pair.separator, word_cap, max_words)
    alpha, residual, radii, counts = _family_exponent(fam)
    degenerate = len(alphabet) == 1

    report: dict = {
        "k": k,
        "mode": pair.mode,
        "alphabet_size": len(alphabet),
        "alphabet_norms": [float(g.norm()) for g in alphabet],
        "R_k": float(r_k),
        "word_cap": int(fam.cap),
        "requested_cap": int(fam.requested_cap),
        "budget_hit": bool(fam.budget_hit),
        "overflowed_norms": int(fam.overflow),
        "degenerate": degenerate,
        "alpha": float(alpha),
        "alpha_residual": float(residual),
        "shell_radii": [float(r) for r in radii],
        "shell_counts": [int(c) for c in counts],
    }
    if substitute is not None:
        report["substitute_phi"] = substitute

    hi_width = 0.5**k
    hi = alpha + hi_width
    if k > 1:
        hi = min(hi, betas[k - 1] - 1e-12)
    lo = alpha + 1e-9
    target = float(2.0**k)
    if hi <= lo:
        report["failure"] = {"condition": 2, "reason": "empty beta interval"}
        raise StageConditionError(
            f"stage {k}: no room for beta below the previous stage", report
        )
    beta, p_beta = _bisect_beta(fam, lo, hi, target)
    if beta is None:
        tail = fam.tail_ratio(lo)
        report["failure"] = {
            "condition": 3,
            "poincare_at_alpha": float(p_beta),
            "target": target,
            "tail_ratio": float(tail),
            "diagnostic": (
                "truncation-dominated: series still growing at the cap"
                if tail >= 1.0
                else "genuine shortfall at this truncation"
            ),
        }
        raise StageConditionError(
            f"stage {k}: truncated series never clears {target:.3g}", report
        )
    betas[k] = float(beta)
    m_values[k] = float(p_beta)

    cond1 = {
        "alpha": float(alpha),
        "ball_exponent": float(gamma_est.value),
        "eps": float(eps),
        "relaxed_bound": float((1.0 - eps) * gamma_est.value),
        "relaxed_pass": bool(alpha >= (1.0 - eps) * gamma_est.value),
        "literal_bound": float((1.0 - 0.008 * eps) * gamma_est.value),
        "literal_pass": bool(alpha >= (1.0 - 0.008 * eps) * gamma_est.value),
        "gate": "recorded",
    }
    cond2 = {
        "width": float(beta - alpha),
        "bound": float(hi_width),
        "pass": bool(0.0 < beta - alpha <= hi_width),
    }
    cond3 = {
        "poincare": float(p_beta),
        "target": target,
        "pass": bool(p_beta > target),
        "tail_ratio": float(fam.tail_ratio(beta)),
    }
    checks = []
    cond4_pass = True
    for j in sorted(betas):
        beta_j = betas[j]
        value = fam.poincare(beta_j)
        bound = (2.0 - 2.0 ** (j - k)) * m_values[j]
        ok = value <= bound + 1e-12
        cond4_pass &= ok
        eps_j = math.exp(-beta_j * r_k)
        denom = 1.0 - 2.0 * eps_j * m_values[j]
        mech = (
            (m_values[j] + 2.0 * eps_j + 4.0 * m_values[j] * eps_j) / denom
            if denom > 0.0
            else math.inf
        )
        checks.append(
            {
                "j": int(j),
                "value": float(value),
                "bound": float(bound),
                "pass": bool(ok),
                "tail_ratio": float(fam.tail_ratio(beta_j)),
                "eps_j": float(eps_j),
                "mechanism_value": float(mech),
            }
        )
    cond4 = {"checks": checks, "pass": bool(cond4_pass)}
    report.update(
        {
            "beta": float(beta),
            "betas": {str(j): float(b) for j, b in betas.items()},
            "M": {str(j): float(v) for j, v in m_values.items()},
            "conditions": {"1": cond1, "2": cond2, "3": cond3, "4": cond4},
        }
    )
    if not cond2["pass"]:
        report["failure"] = {"condition": 2}
        raise StageConditionError(f"stage {k}: interval width violated", report)
    if not cond4_pass:
        worst = min(checks, key=lambda c: c["bound"] - c["value"])
        report["failure"] = {
            "condition": 4,
            "j": worst["j"],
            "diagnostic": (
                "truncation-dominated: series still growing at the cap"
                if worst["tail_ratio"] >= 1.0
                else "genuine violation at this truncation"
            ),
        }
        raise StageConditionError(
            f"stage {k}: older-beta mass bound failed at j={worst['j']}", report
        )
    return SemigroupStage(
        k=k,
        alphabet=alphabet,
        interval=(float(alpha), float(beta)),
        R_k=float(r_k),
        truncated_F=fam,
        condition_report=report,
        pair=pair,
    )
