import math

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
    chain_points,
    chain_shadowing,
    check_chain,
    fellow_travel_check,
    nearest_point_on_geodesic,
)
from kleinian.hyperbolic import basepoint

from conftest import random_chain, random_point

LN2 = math.log(2.0)


def collinear_points(gap, n_points):
    ks = gap * np.arange(n_points)
    pts = np.zeros((n_points, 3))
    pts[:, 0] = np.cosh(ks)
    pts[:, 1] = np.sinh(ks)
    return pts


def test_params_validation():
    p = ChainParams(product_bound=2.0, gap_bound=19.0)
    assert p.shadowing_regime
    assert not ChainParams(2.0, 18.9).shadowing_regime
    with pytest.raises(ValueError):
        ChainParams(-0.1, 10.0)
    with pytest.raises(ValueError):
        ChainParams(1.0, 0.0)


def test_collinear_points_pass():
    pts = collinear_points(20.0, 5)
    cert = check_chain(pts, ChainParams(1.0, 20.0 - 1e-9))
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
    assert report.nearest_points is None


def test_gap_violation_reported_first():
    pts = collinear_points(20.0, 4)
    cert = check_chain(pts, ChainParams(1.0, 25.0))
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
    rng = np.random.default_rng(29)
    steps, _, _ = random_chain(rng, 5, 0.7, 4.0, gap_spread=1.0)
    pts = chain_points(steps)
    params = ChainParams(0.7 + 1e-7, 4.0 - 1e-7)
    cert = check_chain(pts, params)
    cert_rev = check_chain(pts[::-1].copy(), params)
    assert cert.ok and cert_rev.ok
    assert np.allclose(cert.gaps, cert_rev.gaps[::-1], atol=1e-9)
    assert np.allclose(cert.products, cert_rev.products[::-1], atol=1e-9)


def test_two_point_chain_has_no_products():
    steps = [boost(2, 1, 30.0)]
    cert = check_chain(steps, ChainParams(1.0, 29.0))
    assert cert.ok
    assert cert.products.shape == (0,)
    report = chain_shadowing(cert)
    assert report.ok
    assert report.offsets.shape == (0,)


def test_generator_hits_its_targets():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        steps, gaps, targets = random_chain(rng, 9, 2.0, 18.0, dim=dim)
        cert = check_chain(steps, ChainParams(2.0 + 1e-6, 18.0 - 1e-6))
        assert cert.ok
        assert np.max(np.abs(cert.gaps - gaps)) < 1e-8
        assert np.max(np.abs(cert.products - targets)) < 1e-8


def test_step_and_point_forms_agree_at_desk_scale():
    # n = 3 keeps every pair's inner radius <= 15, inside the coordinate
    # resolution envelope, so the two representations must agree
    rng = np.random.default_rng(3)
    steps, gaps, targets = random_chain(
        rng, 3, 0.05, 15.2, dim=2, gap_spread=0.5
    )
    pts = chain_points(steps)
    assert pts.shape == (3, 3)
    assert np.allclose(pts[0], basepoint(2))
    params = ChainParams(0.05 + 1e-9, 15.2 - 1e-9)
    cert_s = check_chain(steps, params)
    cert_p = check_chain(pts, params)
    assert cert_s.ok and cert_p.ok
    assert np.allclose(cert_s.gaps, cert_p.gaps, atol=1e-8)
    assert np.allclose(cert_s.products, cert_p.products, atol=1e-8)
    rep_s = chain_shadowing(cert_s)
    rep_p = chain_shadowing(cert_p)
    assert np.allclose(rep_s.endpoint_products, rep_p.endpoint_products, atol=1e-7)
    assert np.allclose(rep_s.offsets, rep_p.offsets, atol=1e-5)
    assert np.allclose(rep_s.feet, rep_p.feet, atol=1e-5)
    assert rep_p.nearest_points.shape == (1, 3)


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


def test_nearest_point_degenerate_segment_raises():
    x = basepoint(2)
    with pytest.raises(ValueError):
        nearest_point_on_geodesic(x, x, x)


def test_shadowing_preconditions():
    pts = collinear_points(20.0, 4)
    bad_cert = check_chain(pts, ChainParams(1.0, 25.0))
    with pytest.raises(ChainRegimeError):
        chain_shadowing(bad_cert)
    narrow = check_chain(pts, ChainParams(3.0, 19.0))
    assert narrow.ok
    assert not narrow.params.shadowing_regime
    with pytest.raises(ChainRegimeError):
        chain_shadowing(narrow)
    with pytest.raises(TypeError):
        chain_shadowing(pts)


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
    lenient = chain_shadowing(forged, strict=False)
    assert not lenient.ok


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
