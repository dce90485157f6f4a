"""Acceptance gate: quantitative reproduction of the headline results.

One test per criterion, each printing a single PASS/FAIL line with its
headline numbers (visible with ``pytest -s``) and enforcing both the stated
numeric tolerance and the runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from sasakigeo import (
    core,
    dhomothety as dh,
    functionals as fn,
    models,
    quotient as qt,
    subriemannian as sr,
    variations as va,
)
from sasakigeo.cli import main as cli_main

MODEL_KEYS = ("s3", "s5", "heisenberg")


def emit(number, ok, detail, elapsed):
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} | {detail} | {elapsed:.1f}s")


@pytest.fixture(scope="module")
def diameter_runs():
    """Shared 50-pair distance searches on both spheres (used by 04/06/07)."""
    out = {}
    t0 = time.perf_counter()
    for key in ("s3", "s5"):
        model = models.get_model(key)
        out[key] = sr.estimate_diameter(model, 50, sr.ShootingConfig(seed=7))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_01_structure_identity_suite():
    t0 = time.perf_counter()
    worst_all, worst_algebraic = 0.0, 0.0
    for key in MODEL_KEYS:
        report = core.verify_structure(models.get_model(key), n_points=1000, seed=0)
        worst_all = max(worst_all, max(r.max_residual for r in report.identities))
        for name in ("reeb-normalization", "phi-square", "phi-compatibility"):
            worst_algebraic = max(worst_algebraic, report.by_name(name).max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_all < 1e-6 and worst_algebraic < 1e-9 and elapsed < 10.0
    emit(1, ok, f"max residual {worst_all:.2e}, algebraic {worst_algebraic:.2e}", elapsed)
    assert worst_all < 1e-6
    assert worst_algebraic < 1e-9
    assert elapsed < 10.0


def test_02_transverse_curvature_relation():
    t0 = time.perf_counter()
    worst_relation = 0.0
    ratios = {}
    for key in MODEL_KEYS:
        model = models.get_model(key)
        rng = np.random.default_rng(1)
        x = model.random_points(rng, 200)
        X = model.random_unit_horizontal(rng, x)
        trace_route, eq_route = core.ricci_transverse(model, x, X, X)
        worst_relation = max(worst_relation, float(np.max(np.abs(trace_route - eq_route))))
        if key in ("s3", "s5"):
            # unit horizontal X: the ratio against g^T is the raw value
            ratios[key] = (float(np.min(trace_route)), float(np.max(trace_route)))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_relation < 1e-6
        and abs(ratios["s3"][0] - 4.0) < 1e-6 and abs(ratios["s3"][1] - 4.0) < 1e-6
        and abs(ratios["s5"][0] - 6.0) < 1e-6 and abs(ratios["s5"][1] - 6.0) < 1e-6
        and elapsed < 30.0
    )
    emit(2, ok, f"relation residual {worst_relation:.2e}, "
                f"s3 ratio {ratios['s3'][1]:.6f}, s5 ratio {ratios['s5'][1]:.6f}", elapsed)
    assert worst_relation < 1e-6
    assert abs(ratios["s3"][0] - 4.0) < 1e-6 and abs(ratios["s3"][1] - 4.0) < 1e-6
    assert abs(ratios["s5"][0] - 6.0) < 1e-6 and abs(ratios["s5"][1] - 6.0) < 1e-6
    assert elapsed < 30.0


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_03_flow_conservation_and_order(key):
    t0 = time.perf_counter()
    model = models.get_model(key)
    rng = np.random.default_rng(2)
    x = model.random_points(rng, 1)[0]
    u = model.random_unit_horizontal(rng, x[None])[0]
    state = sr.CotangentState.make(model, x, model.covector_from(x, u, 0.9))
    t_end = 2.0 * math.pi
    path = sr.integrate_geodesic(model, state, t_end, round(t_end / 1e-3))
    inv = path.invariants(model)
    eq = sr.geodesic_residual(model, path)
    _, orders = sr.measure_convergence_order(model, state, 2.0)
    elapsed = time.perf_counter() - t0
    drifts = (inv.h_drift, inv.alpha0_drift, inv.speed_relative_spread, inv.horizontality_max)
    ok = (
        max(drifts) < 1e-8
        and eq.max_residual < 1e-6
        and min(orders) >= 3.5
        and elapsed < 20.0
    )
    emit(3, ok, f"{key}: drift {max(drifts):.2e}, equation {eq.max_residual:.2e}, "
                f"order {min(orders):.2f}", elapsed)
    assert max(drifts) < 1e-8
    assert eq.max_residual < 1e-6
    assert min(orders) >= 3.5
    assert elapsed < 20.0


def test_04_sphere_diameter_bounds(diameter_runs):
    s3_rep, s5_rep = diameter_runs["s3"], diameter_runs["s5"]
    elapsed = diameter_runs["elapsed"]
    bound3 = math.pi * (1.0 + 1e-2)
    bound5 = math.pi * math.sqrt(2.0) * (1.0 + 1e-2)
    ok = (
        not s3_rep.partial and not s5_rep.partial
        and s3_rep.estimate <= bound3 and s5_rep.estimate <= bound5
        and elapsed < 600.0
    )
    emit(4, ok, f"s3 {s3_rep.estimate:.4f} <= {bound3:.4f}, "
                f"s5 {s5_rep.estimate:.4f} <= {bound5:.4f}, 50 pairs each", elapsed)
    assert not s3_rep.partial, f"unconverged pairs {s3_rep.failed_indices}"
    assert not s5_rep.partial, f"unconverged pairs {s5_rep.failed_indices}"
    assert s3_rep.estimate <= bound3
    assert s5_rep.estimate <= bound5
    assert elapsed < 600.0


def test_05_heisenberg_control_distance():
    t0 = time.perf_counter()
    heis = models.get_model("heisenberg")
    r = sr.cc_distance(heis, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    elapsed = time.perf_counter() - t0
    ok = (
        r.converged
        and abs(r.distance - 1.0) < 1e-3
        and sr.theoretical_diameter_bound(heis) is None
        and elapsed < 60.0
    )
    emit(5, ok, f"distance {r.distance:.6f} (target 1.000 +- 1e-3), no bound claimed",
         elapsed)
    assert r.converged
    assert abs(r.distance - 1.0) < 1e-3
    assert sr.theoretical_diameter_bound(heis) is None
    assert elapsed < 60.0


def test_06_minimizer_curvature_certificates(diameter_runs):
    t0 = time.perf_counter()
    worst = math.inf
    count = 0
    for key in ("s3", "s5"):
        model = models.get_model(key)
        for pr in diameter_runs[key].pairs:
            if not pr.result.converged or pr.result.distance == 0.0:
                continue
            path = sr.geodesic_from_result(model, pr.result)
            cert = va.myers_certificate(model, path, model.tau, minimizing=True)
            worst = min(worst, cert.integral)
            count += 1
            assert cert.length_within_bound
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-5 and elapsed < 120.0
    emit(6, ok, f"min certificate integral {worst:.3e} over {count} minimizers", elapsed)
    assert worst >= -1e-5
    assert elapsed < 120.0


def test_07_variation_identity_suite(diameter_runs):
    t0 = time.perf_counter()
    worst_identity = 0.0
    worst_admissibility = 0.0
    for key in MODEL_KEYS:
        model = models.get_model(key)
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            x = model.random_points(rng, 1)[0]
            u = model.random_unit_horizontal(rng, x[None])[0]
            a0 = rng.uniform(-1.5, 1.5)
            state = sr.CotangentState.make(model, x, model.covector_from(x, u, a0))
            path = sr.integrate_geodesic(model, state, 1.6, 1600)
            frame = va.transport_frame(model, path, va.initial_transverse_frame(model, path))
            rep = va.check_variation_identities(model, path, frame)
            vals = [
                rep.phi_reeb_second_derivative,
                rep.phi_reeb_curvature,
                rep.frame_second_derivative or 0.0,
                rep.frame_curvature or 0.0,
            ]
            worst_identity = max(worst_identity, max(vals))
            fields = va.sine_frame_fields(model, frame) + [va.phi_reeb_field(model, path)]
            worst_admissibility = max(
                worst_admissibility, max(f.admissibility_residual for f in fields)
            )
    # second variation on actual minimizers (three shortest per sphere)
    min_e2 = math.inf
    for key in ("s3", "s5"):
        model = models.get_model(key)
        hits = [p for p in diameter_runs[key].pairs if p.result.converged and p.result.distance > 0]
        hits.sort(key=lambda p: p.result.distance)
        for pr in hits[:3]:
            path = sr.geodesic_from_result(model, pr.result)
            frame = va.transport_frame(model, path, va.initial_transverse_frame(model, path))
            fields = va.sine_frame_fields(model, frame) + [va.phi_reeb_field(model, path)]
            for f in fields:
                min_e2 = min(min_e2, va.second_variation(model, path, f))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_identity < 1e-5
        and worst_admissibility < 1e-6
        and min_e2 >= -1e-5
        and elapsed < 120.0
    )
    emit(7, ok, f"identity {worst_identity:.2e}, admissibility {worst_admissibility:.2e}, "
                f"min E''(0) {min_e2:.3e}", elapsed)
    assert worst_identity < 1e-5
    assert worst_admissibility < 1e-6
    assert min_e2 >= -1e-5
    assert elapsed < 120.0


def test_08_deformation_scaling_suite():
    t0 = time.perf_counter()
    s3 = models.get_model("s3")
    mu = 2.0
    vol = dh.volume_scaling_check(s3, mu, samples=20000)
    ricci = dh.ricci_bound_check(s3, 1.0 / mu, samples=50, seed=3)
    deformed = dh.apply(s3, mu)
    diam = sr.estimate_diameter(deformed, 10, sr.ShootingConfig(seed=11, mode="riem"))
    elapsed = time.perf_counter() - t0
    ok = (
        vol.residual < 1e-2
        and ricci.min_horizontal_slack > -1e-6
        and ricci.max_mixed_residual < 1e-6
        and not diam.partial
        and diam.estimate <= math.pi + 2e-2
        and elapsed < 180.0
    )
    emit(8, ok, f"volume ratio {vol.measured_ratio:.4f} vs {vol.expected_ratio:.4f}, "
                f"Ricci slack {ricci.min_horizontal_slack:.2e}, "
                f"deformed diameter {diam.estimate:.4f} <= {math.pi + 2e-2:.4f}", elapsed)
    assert vol.residual < 1e-2
    assert ricci.min_horizontal_slack > -1e-6
    assert ricci.max_mixed_residual < 1e-6
    assert not diam.partial
    assert diam.estimate <= math.pi + 2e-2
    assert elapsed < 180.0


def test_09_energy_functional_suite():
    t0 = time.perf_counter()
    grid = qt.S2Grid(n_theta=64, n_phi=128, lmax=32)
    zero = qt.BasicPotential.zero(grid)
    phi = qt.harmonic_potential(grid, 2, 1, 0.02).plus(
        qt.harmonic_potential(grid, 4, 2, 0.008)
    )

    # velocity-integral path independence across three distinct paths
    routes = [
        fn.functional_L(fn.linear_path(zero, phi)),
        fn.functional_L(fn.power_path(zero, phi, 2.0)),
        fn.functional_L(
            fn.piecewise_linear_path([zero, qt.harmonic_potential(grid, 1, 1, 0.01), phi])
        ),
    ]
    path_independence = max(routes) - min(routes)

    # inequality chain over 100 random potentials
    worst_slack = math.inf
    for seed in range(100):
        psi = qt.random_potential(grid, np.random.default_rng(seed))
        I = fn.functional_I(zero, psi)
        J, _ = fn.j_consistency(zero, psi, fn.linear_path(zero, psi, 17))
        worst_slack = min(worst_slack, I, 2.0 * (I - J) - I, I - 2.0 * (I - J))

    # curvature-energy cocycle over a closed triangle of structures
    a = qt.harmonic_potential(grid, 2, 1, 0.015)
    b = qt.harmonic_potential(grid, 3, 2, 0.012)
    cocycle = abs(
        fn.functional_M(fn.linear_path(zero, a))
        + fn.functional_M(fn.linear_path(a, b))
        + fn.functional_M(fn.linear_path(b, zero))
    )

    # time-derivative identity on a curved path, and criticality of the
    # round structure after trace calibration
    derivative_residual = fn.ij_derivative_check(fn.power_path(zero, phi, 2.0, 65))
    cal = fn.calibrate_scalar_trace(grid)
    probe = qt.harmonic_potential(grid, 2, 1, 0.01).shifted(0.02)
    stationarity = fn.stationarity_residual(grid, probe, cal.constant)

    elapsed = time.perf_counter() - t0
    ok = (
        path_independence < 1e-6
        and worst_slack > -1e-7
        and cocycle < 1e-5
        and derivative_residual < 1e-4
        and stationarity < 1e-4
        and cal.constant == 0.5
        and elapsed < 300.0
    )
    emit(9, ok, f"path independence {path_independence:.2e}, chain slack {worst_slack:.2e}, "
                f"cocycle {cocycle:.2e}, derivative {derivative_residual:.2e}, "
                f"criticality {stationarity:.2e}", elapsed)
    assert path_independence < 1e-6
    assert worst_slack > -1e-7
    assert cocycle < 1e-5
    assert derivative_residual < 1e-4
    assert stationarity < 1e-4
    assert elapsed < 300.0


def test_10_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    outputs = []
    for tag in ("first", "second"):
        ident = tmp_path / f"ident-{tag}.json"
        dist = tmp_path / f"dist-{tag}.json"
        assert cli_main(
            ["check-identities", "--model", "s5", "--points", "200", "--seed", "42",
             "--output", str(ident)]
        ) == 0
        assert cli_main(
            ["cc-distance", "--model", "heisenberg", "--from", "0,0,0",
             "--to", "1,0,0", "--seed", "42", "--output", str(dist)]
        ) == 0
        payloads = []
        for path in (ident, dist):
            payload = json.loads(path.read_text())
            payload.pop("timestamp")
            payloads.append(payload)
        outputs.append(payloads)
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1]
    emit(10, ok, "identical payloads over repeated seeded runs "
                 "(check-identities, cc-distance)", elapsed)
    assert outputs[0] == outputs[1]
