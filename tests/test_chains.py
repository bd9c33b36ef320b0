import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian import (
    ChainCertificate,
    ChainParams,
    ChainRegimeError,
    ShadowingViolation,
    boost,
    chain_shadowing,
    check_chain,
    fellow_travel_check,
    nearest_point_on_geodesic,
)
from kleinian.hyperbolic import (
    basepoint,
    distance,
    geodesic_point,
    ray_points,
    segment_foot,
)

from conftest import (
    golden_section_projection,
    random_chain,
    random_isometry,
    random_point,
    rotation,
)

LN2 = math.log(2.0)


def collinear_chain(gap, n_points):
    """Steps of a chain through n_points evenly spaced on one geodesic."""
    return [boost(2, 1, gap)] * (n_points - 1)


def test_params_validation():
    p = ChainParams(product_bound=2.0, gap_bound=19.0)
    assert p.shadowing_regime
    assert not ChainParams(2.0, 18.9).shadowing_regime
    with pytest.raises(ValueError):
        ChainParams(-0.1, 10.0)
    with pytest.raises(ValueError):
        ChainParams(1.0, 0.0)


def test_collinear_points_pass():
    steps = collinear_chain(20.0, 5)
    cert = check_chain(steps, ChainParams(1.0, 20.0 - 1e-9))
    assert cert.ok
    assert cert.first_violation is None
    assert cert.gaps.shape == (4,)
    assert np.allclose(cert.gaps, 20.0, atol=1e-9)
    assert np.all(np.abs(cert.products) < 1e-8)


def test_collinear_steps_pass():
    steps = [boost(2, 1, 25.0)] * 4
    cert = check_chain(steps, ChainParams(0.5, 25.0 - 1e-9))
    assert cert.ok
    assert np.allclose(cert.gaps, 25.0, atol=1e-9)
    assert np.all(np.abs(cert.products) < 1e-8)
    report = chain_shadowing(check_chain(steps, ChainParams(0.5, 24.0)))
    assert report.ok and report.sharp_ok
    assert np.max(np.abs(report.endpoint_products)) < 1e-8
    assert np.max(report.offsets) < 1e-6
    assert np.allclose(report.feet, [25.0, 50.0, 75.0], atol=1e-5)


def test_gap_violation_reported_first():
    steps = collinear_chain(20.0, 4)
    cert = check_chain(steps, ChainParams(1.0, 25.0))
    assert not cert.ok
    assert cert.first_violation["kind"] == "gap"
    assert cert.first_violation["index"] == 0
    assert cert.first_violation["value"] == pytest.approx(20.0, abs=1e-9)


def test_gromov_violation_index_is_the_vertex():
    rng = np.random.default_rng(7)
    steps, gaps, targets = random_chain(rng, 3, 3.0, 20.0)
    while targets[0] <= 2.0:
        steps, gaps, targets = random_chain(rng, 3, 3.0, 20.0)
    cert = check_chain(steps, ChainParams(2.0, 19.0))
    assert not cert.ok
    assert cert.first_violation["kind"] == "gromov"
    assert cert.first_violation["index"] == 1
    assert cert.first_violation["value"] == pytest.approx(targets[0], abs=1e-8)


def test_param_monotonicity():
    rng = np.random.default_rng(19)
    steps, _, _ = random_chain(rng, 6, 1.0, 17.0)
    assert check_chain(steps, ChainParams(1.0, 17.0 - 1e-7)).ok
    assert check_chain(steps, ChainParams(1.5, 16.0)).ok
    assert check_chain(steps, ChainParams(1.0 + 0.5, 17.0 - 2.0)).ok


def test_reversal_symmetry():
    """The reversed chain z_N, ..., z_0, translated to start at the
    basepoint, steps by the inverses of the steps in reverse order."""
    rng = np.random.default_rng(29)
    steps, _, _ = random_chain(rng, 5, 0.7, 4.0, gap_spread=1.0)
    params = ChainParams(0.7 + 1e-7, 4.0 - 1e-7)
    cert = check_chain(steps, params)
    cert_rev = check_chain([s.inverse() for s in reversed(steps)], params)
    assert cert.ok and cert_rev.ok
    assert np.allclose(cert.gaps, cert_rev.gaps[::-1], atol=1e-9)
    assert np.allclose(cert.products, cert_rev.products[::-1], atol=1e-9)


def test_two_point_chain_has_no_products():
    steps = [boost(2, 1, 30.0)]
    cert = check_chain(steps, ChainParams(1.0, 29.0))
    assert cert.ok
    assert cert.products.shape == (0,)
    report = chain_shadowing(cert)
    assert report.ok and report.sharp_ok and report.feet_monotone
    assert report.offsets.shape == (0,)


def test_generator_hits_its_targets():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        steps, gaps, targets = random_chain(rng, 9, 2.0, 18.0, dim=dim)
        cert = check_chain(steps, ChainParams(2.0 + 1e-6, 18.0 - 1e-6))
        assert cert.ok
        assert np.max(np.abs(cert.gaps - gaps)) < 1e-8
        assert np.max(np.abs(cert.products - targets)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    c=st.floats(0.0, 2.0),
    d=st.floats(15.5, 28.0),
    dim=st.sampled_from([2, 3]),
)
def test_random_chains_verify(seed, n, c, d, dim):
    rng = np.random.default_rng(seed)
    steps, gaps, targets = random_chain(rng, n, c, d, dim=dim)
    cert = check_chain(steps, ChainParams(c + 1e-7, d - 1e-7))
    assert cert.ok, cert.first_violation


def test_nearest_point_perpendicular_foot():
    x = basepoint(2)
    y = boost(2, 1, 10.0).matrix[:, 0]
    s, t0 = 1.2, 3.0
    p = np.array(
        [np.cosh(s) * np.cosh(t0), np.cosh(s) * np.sinh(t0), np.sinh(s)]
    )
    t, dist = nearest_point_on_geodesic(x, y, p)
    assert t == pytest.approx(3.0, abs=1e-6)
    assert dist == pytest.approx(1.2, abs=1e-6)


def test_nearest_point_clamps_to_endpoints():
    x = basepoint(2)
    y = boost(2, 1, 10.0).matrix[:, 0]
    beyond = boost(2, 1, 12.0).matrix[:, 0]
    before = boost(2, 1, -3.0).matrix[:, 0]
    ts, dists = nearest_point_on_geodesic(x, y, np.array([beyond, before]))
    assert ts[0] == pytest.approx(10.0, abs=1e-6)
    assert dists[0] == pytest.approx(2.0, abs=1e-6)
    assert ts[1] == pytest.approx(0.0, abs=1e-6)
    assert dists[1] == pytest.approx(3.0, abs=1e-6)


def test_nearest_point_far_from_origin():
    x = boost(2, 1, 200.0).matrix[:, 0]
    y = boost(2, 1, 240.0).matrix[:, 0]
    s, r0 = 1.5, 220.0
    p = np.array(
        [np.cosh(s) * np.cosh(r0), np.cosh(s) * np.sinh(r0), np.sinh(s)]
    )
    t, dist = nearest_point_on_geodesic(x, y, p)
    assert t == pytest.approx(20.0, abs=1e-5)
    assert dist == pytest.approx(1.5, abs=1e-5)


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_projection_matches_golden_section(rng, dim):
    """Feet before x, past y, inside the segment and on it, against the
    search kept as the reference.  On the segment the search stops within
    its 1e-9 bracket of a sharp minimum, so there the closed form must do
    better: its distance is zero to roundoff.  Offsets rebuilt from the
    side lengths alone match off the segment, and are within
    sqrt(eps d(x, y)) of zero on it."""
    g = random_isometry(rng, dim, scale=1.0).matrix
    total = 5.0
    x, y = g[:, 0], (g @ boost(dim, 1, total).matrix)[:, 0]
    s = np.concatenate(
        [
            rng.uniform(-3.0, 0.0, 30),
            rng.uniform(total, total + 3.0, 30),
            rng.uniform(0.0, total, 60),
            rng.uniform(0.0, total, 20),
        ]
    )
    h = np.concatenate([rng.uniform(0.0, 2.0, 120), np.zeros(20)])
    v = rng.normal(size=(140, dim))
    v[:, 0] = 0.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    local = np.column_stack(
        [np.cosh(s) * np.cosh(h), np.sinh(s) * np.cosh(h), np.sinh(h)[:, None] * v[:, 1:]]
    )
    pts = local @ g.T
    t, dist = nearest_point_on_geodesic(x, y, pts)
    want_t, want = golden_section_projection(x, y, pts)
    assert np.all(t[:30] == 0.0) and np.all(t[30:60] == distance(x, y))
    assert np.max(np.abs(t - want_t)) <= 1e-6
    assert np.max(np.abs(dist[:120] - want[:120])) <= 1e-12
    assert np.max(dist[120:]) <= 1e-12
    assert np.all(dist[120:] <= want[120:])
    _, offset = segment_foot(distance(x, pts), distance(y, pts), distance(x, y))
    assert np.max(np.abs(offset[:120] - want[:120])) <= 1e-11
    assert np.max(offset[120:]) <= 1e-7


def test_nearest_point_degenerate_segment_raises():
    x = basepoint(2)
    with pytest.raises(ValueError):
        nearest_point_on_geodesic(x, x, x)


def test_shadowing_preconditions():
    steps = collinear_chain(20.0, 4)
    bad_cert = check_chain(steps, ChainParams(1.0, 25.0))
    with pytest.raises(ChainRegimeError):
        chain_shadowing(bad_cert)
    narrow = check_chain(steps, ChainParams(3.0, 19.0))
    assert narrow.ok
    assert not narrow.params.shadowing_regime
    with pytest.raises(ChainRegimeError):
        chain_shadowing(narrow)
    with pytest.raises(TypeError):
        chain_shadowing(steps)


def test_points_are_not_a_chain():
    """A chain is a sequence of isometry steps: point coordinates, as an
    array or as a list of rows, are refused, and so is an empty chain."""
    pts = np.array([basepoint(2), boost(2, 1, 20.0).matrix[:, 0]])
    for chain in (pts, list(pts), [boost(2, 1, 20.0), pts[1]]):
        with pytest.raises(TypeError):
            check_chain(chain, ChainParams(1.0, 19.0))
    with pytest.raises(TypeError):
        chain_shadowing(pts)
    with pytest.raises(ValueError):
        check_chain([], ChainParams(1.0, 19.0))


def test_shadowing_counterexample_raises_with_report():
    # a certificate that lies about its chain: products are far above C
    rng = np.random.default_rng(31)
    steps, gaps, targets = random_chain(rng, 5, 5.0, 26.0)
    while np.max(targets) < 4.0:
        steps, gaps, targets = random_chain(rng, 5, 5.0, 26.0)
    forged = ChainCertificate(
        ok=True,
        params=ChainParams(0.2, 26.0),
        chain=steps,
        products=np.zeros(3),
        gaps=gaps,
        first_violation=None,
    )
    with pytest.raises(ShadowingViolation) as err:
        chain_shadowing(forged)
    report = err.value.report
    assert not report.ok
    assert np.max(report.endpoint_products) > report.product_bound


def test_shadowing_bounds_on_random_chains():
    rng = np.random.default_rng(23)
    for c in (0.3, 1.0, 2.0):
        params = ChainParams(c, 2.0 * c + 15.0)
        for dim in (2, 3):
            for _ in range(5):
                steps, _, _ = random_chain(
                    rng, 8, c, params.gap_bound + rng.uniform(0.0, 3.0), dim=dim
                )
                report = chain_shadowing(check_chain(steps, params))
                assert report.ok
                assert report.sharp_ok
                assert np.max(report.endpoint_products) <= c + 2.0 * LN2
                assert np.max(report.offsets) <= c + 8.0 * LN2
                assert report.feet_monotone


def zigzag_chain(n_steps):
    """Steps of a turn by +-0.02 in the e1-e2 plane, then a boost of 25."""
    return [
        rotation(2, 1, 2, 0.02 * (-1) ** i) @ boost(2, 1, 25.0)
        for i in range(n_steps)
    ]


@pytest.mark.parametrize("n_steps", [19, 20, 27])
def test_far_step_chains_shadow(n_steps):
    """Totals 475 to 675: far past where a vertex's frame coordinates of
    z_0 overflow a sinh-weighted geodesic point.  The suite turns any
    RuntimeWarning into a failure."""
    cert = check_chain(zigzag_chain(n_steps), ChainParams(1.0, 20.0))
    assert cert.ok
    report = chain_shadowing(cert)
    assert report.ok and report.sharp_ok and report.feet_monotone
    assert np.all(np.isfinite(report.offsets)) and np.all(np.isfinite(report.feet))
    assert np.all(np.abs(report.offsets - 0.01) < 1e-5)


def test_far_chain_feet_match_mpmath():
    """Endpoint products, feet and offsets of the 27-step chain against
    50 digits.  The truth comes from the half-angle law and the
    right-angle relations sinh h = sinh d1 sin α, cosh d1 = cosh t cosh h;
    the second right triangle, cosh d2 = cosh(L - t) cosh h, confirms it."""
    steps = zigzag_chain(27)
    report = chain_shadowing(check_chain(steps, ChainParams(1.0, 20.0)))
    with mp.workdps(50):
        mats = [mp.matrix(s.matrix.tolist()) for s in steps]
        prefix, suffix = mp.eye(3), mp.eye(3)
        start, end = [], []
        for m, back in zip(mats, reversed(mats)):
            prefix, suffix = prefix * m, back * suffix
            start.append(mp.acosh(prefix[0, 0]))
            end.append(mp.acosh(suffix[0, 0]))
        total, end = start[-1], end[::-1]
        for i in range(26):
            d1, d2 = start[i], end[i + 1]
            a, b, g = (d1 + total - d2) / 2, (d2 + total - d1) / 2, (d1 + d2 - total) / 2
            tau2 = mp.sinh(b) * mp.sinh(g) / (mp.sinh((d1 + d2 + total) / 2) * mp.sinh(a))
            h = mp.asinh(mp.sinh(d1) * 2 * mp.sqrt(tau2) / (1 + tau2))
            t = mp.acosh(mp.cosh(d1) / mp.cosh(h))
            assert abs(mp.cosh(total - t) * mp.cosh(h) / mp.cosh(d2) - 1) < mp.mpf(10) ** -40
            assert abs(report.endpoint_products[i] - float(g)) <= 1e-10
            assert abs(report.feet[i] - float(t)) <= 1e-10
            assert abs(report.offsets[i] - float(h)) <= 1e-10


@pytest.mark.parametrize("length", [300.0, 360.0, 400.0])
def test_turns_between_far_steps_are_measured(length):
    """A right-angle turn between two steps of ``length`` has Gromov
    product (log 2) / 2 at any length.  Past 355 the skip entry
    (M_1 M_2)_00 = cosh^2 ``length`` overflows; read as inf, it made the
    product -inf and passed the chain.  A step straight back stays a
    violation."""
    step = boost(2, 1, length)
    cert = check_chain([step, rotation(2, 1, 2, math.pi / 2) @ step], ChainParams(0.2, 10.0))
    assert not cert.ok
    assert cert.first_violation["kind"] == "gromov"
    assert cert.first_violation["index"] == 1
    assert cert.products[0] == pytest.approx(LN2 / 2, abs=1e-9)
    back = check_chain([step, boost(2, 1, 1.0 - length)], ChainParams(0.2, 0.5))
    assert back.first_violation["kind"] == "gromov"


@pytest.mark.parametrize("length", [20.0, 100.0, 300.0, 360.0, 400.0, 700.0])
def test_backtracking_steps_measure_their_product(length):
    """A step of ``length`` back over all but 1 of the previous one has
    product ``length`` - 1.  The skip entry (M_1 M_2)_00 = cosh 1
    cancels from terms near cosh^2 ``length``: read from it, the product
    was 18.468 at 20 and ``length`` - 0.5 from 100 on."""
    cert = check_chain([boost(2, 1, length), boost(2, 1, 1.0 - length)], ChainParams(0.2, 0.5))
    assert cert.products[0] == pytest.approx(length - 1.0, rel=1e-14)


def test_chain_past_float_range_is_refused():
    """At total 750, cosh d(z_0, z_N) overflows: a typed refusal."""
    cert = check_chain(zigzag_chain(30), ChainParams(1.0, 20.0))
    assert cert.ok
    with pytest.raises(ChainRegimeError, match="stable_arcosh gives inf"):
        chain_shadowing(cert)


def test_fellow_travel_identical_geodesics():
    x = basepoint(2)
    y = boost(2, 1, 15.0).matrix[:, 0]
    report = fellow_travel_check(x, y, x, y, 1.0)
    assert report.ok
    assert report.max_offset < 1e-9
    assert report.deep_point_bound < 1e-9


def test_fellow_travel_perturbed_endpoint():
    rng = np.random.default_rng(13)
    x = basepoint(2)
    y = boost(2, 1, 15.0).matrix[:, 0]
    y2 = boost(2, 1, 15.0).apply(random_point(rng, 2, radius=0.5)).coords
    report = fellow_travel_check(x, y, x, y2, 1.0)
    assert report.ok
    assert report.max_offset <= 1.0
    # far from the perturbed endpoint the geodesics hug each other
    assert report.deep_point_bound < 0.5


def test_fellow_travel_precondition():
    x = basepoint(2)
    y = boost(2, 1, 10.0).matrix[:, 0]
    far = boost(2, 2, 5.0).matrix[:, 0]
    with pytest.raises(ChainRegimeError):
        fellow_travel_check(x, y, far, y, 1.0)


def test_fellow_travel_no_deep_samples():
    x = basepoint(2)
    y = boost(2, 1, 1.5).matrix[:, 0]
    report = fellow_travel_check(x, y, x, y, 1.0)
    assert report.ok
    assert report.deep_point_bound is None


def test_fellow_travel_offsets_are_exact_suprema(rng):
    """Dense samples of [x, y], projected by the search kept as the
    reference, never exceed the reported offsets, and reach them at the
    endpoints and window ends, where convexity puts the suprema."""
    x = basepoint(2)
    y = boost(2, 1, 12.0).matrix[:, 0]
    x2 = random_point(rng, 2, radius=0.8)
    y2 = boost(2, 1, 12.0).apply(random_point(rng, 2, radius=0.8)).coords
    ts = np.linspace(0.0, 12.0, 2401)
    deep = (ts >= 1.0 - 1e-12) & (ts <= 11.0 + 1e-12)
    # both orientations, so the supremum sits at the last endpoint once
    for a, b, a2, b2 in ((x, y, x2, y2), (y, x, y2, x2)):
        report = fellow_travel_check(a, b, a2, b2, 1.0)
        _, dists = golden_section_projection(a2, b2, geodesic_point(a, b, ts))
        assert np.max(dists) == pytest.approx(report.max_offset, abs=1e-9)
        assert np.max(dists[deep]) == pytest.approx(report.deep_point_bound, abs=1e-9)
        assert report.deep_point_bound < report.max_offset


def test_nearest_point_on_a_segment_past_the_coordinate_range():
    """x and y at radius 300 on either side of the basepoint (d = 600):
    sinh(d - t) x alone passes the float range, so geodesic_point divides
    by sinh d first, and the point at radius 290 on the segment is at
    distance about 0 from its foot t = 10, with no RuntimeWarning."""
    e1 = np.array([1.0, 0.0])
    x, y, p = ray_points(e1, 300.0), ray_points(-e1, 300.0), ray_points(e1, 290.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, dist = nearest_point_on_geodesic(x, y, p)
        foot = geodesic_point(x, y, t)
    assert t == pytest.approx(10.0, abs=1e-9)
    assert np.isfinite(dist) and dist <= 1e-9
    assert np.all(np.isfinite(foot))
