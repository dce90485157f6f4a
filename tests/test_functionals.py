"""Energy functionals on transverse potentials: exactness, inequalities, cocycle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import functionals as fn, quotient as qt
from sasakigeo.numdiff import _cumulative_trapezoid, _simpson as simpson, path_derivative


@pytest.fixture(scope="module")
def grid():
    return qt.S2Grid(n_theta=64, n_phi=128, lmax=32)


@pytest.fixture(scope="module")
def zero(grid):
    return qt.BasicPotential.zero(grid)


@pytest.fixture(scope="module")
def phi(grid):
    return qt.harmonic_potential(grid, 2, 1, 0.02).plus(
        qt.harmonic_potential(grid, 3, 0, 0.01)
    )


@st.composite
def window_potentials(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = qt.S2Grid(n_theta=64, n_phi=128, lmax=32)
    return g, qt.random_potential(g, np.random.default_rng(seed))


class TestPathIndependence:
    def test_straight_equals_reparametrized(self, zero, phi):
        # the velocity integral has an exact potential, so its value depends
        # only on the endpoints
        straight = fn.functional_L(fn.linear_path(zero, phi))
        quad = fn.functional_L(fn.power_path(zero, phi, 2.0))
        cubic = fn.functional_L(fn.power_path(zero, phi, 3.0))
        assert abs(straight - quad) < 1e-12  # Simpson is exact through cubics
        assert abs(straight - cubic) < 1e-6  # quartic integrand: quadrature error

    def test_detour_path_agrees(self, grid, zero, phi):
        detour = qt.harmonic_potential(grid, 1, 1, 0.015)
        via = fn.functional_L(fn.piecewise_linear_path([zero, detour, phi]))
        direct = fn.functional_L(fn.linear_path(zero, phi))
        assert abs(via - direct) < 1e-10

    def test_round_trip_vanishes(self, zero, phi):
        assert abs(fn.functional_L(fn.piecewise_linear_path([zero, phi, zero]))) < 1e-12

    def test_constant_shift_value(self, grid, zero):
        # moving to the constant potential c crosses unit density: L = c
        const = zero.shifted(0.25)
        assert abs(fn.functional_L(fn.linear_path(zero, const)) - 0.25) < 1e-14


class TestEnergyInequalities:
    def test_distance_like_functional_nonnegative(self, zero, phi):
        assert fn.functional_I(zero, phi) >= 0.0
        assert fn.functional_I(zero, zero) == 0.0

    def test_j_half_of_i_on_surface_quotient(self, zero, phi):
        # n = 1 collapses the Aubin chain to equalities: J = I/2
        path = fn.linear_path(zero, phi)
        I = fn.functional_I(zero, phi)
        J, J_closed = fn.j_consistency(zero, phi, path)
        assert abs(J - 0.5 * I) < 1e-12
        assert abs(J - J_closed) < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(data=window_potentials())
    def test_chain_inequalities_hold(self, data):
        g, psi = data
        zero = qt.BasicPotential.zero(g)
        I = fn.functional_I(zero, psi)
        J, _ = fn.j_consistency(zero, psi, fn.linear_path(zero, psi, 17))
        assert I >= -1e-12
        assert 2.0 * (I - J) - I >= -1e-7   # I <= (n+1)(I-J)
        assert I - 2.0 * (I - J) >= -1e-7   # (n+1)(I-J) <= nI

    def test_endpoints_must_match_path(self, grid, zero, phi):
        other = qt.harmonic_potential(grid, 2, 2, 0.01)
        path = fn.linear_path(zero, phi)
        with pytest.raises(ValueError, match="endpoints"):
            fn.functional_J(zero, other, path)


class TestCurvatureEnergy:
    def test_cocycle_over_closed_triangle(self, grid, zero):
        a = qt.harmonic_potential(grid, 2, 1, 0.015)
        b = qt.harmonic_potential(grid, 3, 2, 0.012)
        total = (
            fn.functional_M(fn.linear_path(zero, a))
            + fn.functional_M(fn.linear_path(a, b))
            + fn.functional_M(fn.linear_path(b, zero))
        )
        assert abs(total) < 1e-5

    def test_round_structure_is_critical(self, grid):
        probe = qt.harmonic_potential(grid, 2, 1, 0.01).shifted(0.02)
        assert fn.stationarity_residual(grid, probe, 0.5) < 1e-4

    def test_wrong_trace_constant_is_detected(self, grid):
        # with the doubled constant the derivative at the round structure
        # picks up -4 x mean(psi), clearly nonzero for a mean-shifted probe
        probe = qt.harmonic_potential(grid, 2, 1, 0.01).shifted(0.02)
        assert fn.stationarity_residual(grid, probe, 1.0) > 1e-2

    def test_calibration_selects_half(self, grid):
        cal = fn.calibrate_scalar_trace(grid)
        assert cal.constant == 0.5
        assert cal.residuals[0.5] < 1e-6 < cal.residuals[1.0]


def _scalar_curvature_reference(potentials, calibration):
    """The scalar curvature fields formed per constant, node by node: the reference."""
    grid = potentials[0].grid
    logu = np.empty((len(potentials), grid.n_theta, grid.n_phi))
    for k, p in enumerate(potentials):
        logu[k] = p.u()
    coeffs = grid.analyze(np.log(logu, out=logu))
    scalar = grid.synthesize(coeffs * grid.laplace_multiplier[:, None])
    for k, p in enumerate(potentials):
        scalar[k] = calibration * 2.0 * ((qt.QUOTIENT_CURVATURE + 0.5 * scalar[k]) / p.u())
    return scalar


def _functional_M_reference(path, calibration=0.5):
    """M with one curvature transform per segment and constant: the reference loop."""
    path.require_positive()
    grid = path.grid
    total = 0.0
    for seg in path.segments:
        s_t = _scalar_curvature_reference(seg.phis, calibration)
        vals = [
            -grid.mean(dot.values * (s - fn.ROUND_TRANSVERSE_SCALAR) * phi.u())
            for phi, dot, s in zip(seg.phis, seg.phidots, s_t)
        ]
        total += float(simpson(vals, seg.ts))
    return total


class TestSharedCalibration:
    """One curvature transform per segment serves every calibration constant."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_M_equals_the_reference_loop(self, grid, zero, seed):
        phi = qt.random_potential(grid, np.random.default_rng(seed))
        paths = (
            fn.linear_path(zero, phi),
            fn.power_path(zero, phi, 2.0, 17),
            fn.piecewise_linear_path([zero, phi, phi.scaled(0.5)]),
        )
        for path in paths:
            for c in (0.5, 1.0):
                assert fn.functional_M(path, c) == _functional_M_reference(path, c)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_scalar_curvature_equals_the_reference(self, grid, zero, seed):
        phi = qt.random_potential(grid, np.random.default_rng(seed))
        stack = [zero, phi, phi.scaled(0.5)]
        for c in (0.5, 1.0):
            want = _scalar_curvature_reference(stack, c)
            assert qt.transverse_scalar_curvature(stack, c).tobytes() == want.tobytes()
            alone = _scalar_curvature_reference([phi], c)[0]
            assert qt.transverse_scalar_curvature(phi, c).tobytes() == alone.tobytes()

    def test_two_constants_equal_two_one_constant_calls(self, grid):
        psi = qt.random_potential(grid, np.random.default_rng(5)).shifted(0.01)
        both = fn._stationarity_residuals(grid, psi, (0.5, 1.0))
        assert both == {
            0.5: fn._stationarity_residuals(grid, psi, (0.5,))[0.5],
            1.0: fn._stationarity_residuals(grid, psi, (1.0,))[1.0],
        }
        assert both[0.5] == fn.stationarity_residual(grid, psi, 0.5)

    def test_calibration_analyzes_each_probe_path_once(self, grid, monkeypatch):
        calls = []
        analyze = grid.analyze
        monkeypatch.setattr(grid, "analyze", lambda X: calls.append(1) or analyze(X))
        fn.calibrate_scalar_trace(grid)
        assert len(calls) == 2

    def test_non_positive_node_reports_path_time(self, grid, zero):
        # L, J and M check each node's density as they form it, and stop at
        # the node require_positive names
        big = qt.harmonic_potential(grid, 2, 1, 0.2)
        path = fn.piecewise_linear_path([zero, big.scaled(0.1), big])
        with pytest.raises(qt.PositivityError) as expected:
            path.require_positive()
        assert "path time" in str(expected.value)
        for functional in (fn.functional_L, fn.functional_M, lambda p: fn.functional_J(zero, big, p)):
            with pytest.raises(qt.PositivityError) as caught:
                functional(path)
            assert str(caught.value) == str(expected.value)


class TestDerivativeIdentity:
    def test_linear_path_residual(self, zero, phi):
        res = fn.ij_derivative_check(fn.linear_path(zero, phi))
        assert res < 1e-6

    def test_curved_path_residual(self, zero, phi):
        # honest finite-difference residual on a genuinely curved path
        res = fn.ij_derivative_check(fn.power_path(zero, phi, 2.0, 65))
        assert res < 1e-4

    def test_requires_single_segment(self, grid, zero, phi):
        detour = qt.harmonic_potential(grid, 1, 1, 0.01)
        path = fn.piecewise_linear_path([zero, detour, phi])
        with pytest.raises(ValueError, match="single-segment"):
            fn.ij_derivative_check(path)

    def test_requires_constant_start(self, grid, phi):
        start = qt.harmonic_potential(grid, 1, 0, 0.01)
        with pytest.raises(ValueError, match="constant start"):
            fn.ij_derivative_check(fn.linear_path(start, phi))

    def test_requires_enough_nodes(self, zero, phi):
        with pytest.raises(ValueError, match="t-samples"):
            fn.ij_derivative_check(fn.linear_path(zero, phi, 5))


class TestPositivityWindow:
    def test_violation_reports_path_time(self, grid, zero):
        big = qt.harmonic_potential(grid, 2, 1, 0.2)
        path = fn.linear_path(zero, big)
        with pytest.raises(qt.PositivityError, match="path time"):
            path.require_positive()


class TestTransformCount:
    def test_report_and_calibration_transform_per_path(self, grid, monkeypatch):
        # path nodes carry their endpoints' fields and M batches each
        # segment's curvature, so the transforms do not grow with the nodes
        psi = qt.random_potential(grid, np.random.default_rng(4))
        calls = {"analyze": 0, "synthesize": 0}
        for name in calls:
            method = getattr(grid, name)

            def counted(X, name=name, method=method):
                calls[name] += 1
                return method(X)

            monkeypatch.setattr(grid, name, counted)
        report = fn.functional_report(grid, psi, nodes=33)
        cal = fn.calibrate_scalar_trace(grid)
        assert report.path_independence_residual < 1e-6 and cal.constant == 0.5
        assert calls["synthesize"] <= 40
        assert calls["analyze"] <= 10

    def test_zero_potential_runs_no_transform(self, grid, monkeypatch):
        def no_transform(X):
            raise AssertionError("the zero potential synthesized a field")

        monkeypatch.setattr(grid, "synthesize", no_transform)
        zero = qt.BasicPotential.zero(grid)
        for field in (zero.values, zero.box0()):
            assert field.shape == (grid.n_theta, grid.n_phi)
            assert not field.flags.writeable and not np.any(field)
        assert np.all(zero.u() == 1.0)


class TestReport:
    def test_full_report_consistency(self, grid, phi):
        report = fn.functional_report(grid, phi)
        assert report.path_independence_residual < 1e-6
        assert report.j_closed_form_residual < 1e-6
        assert report.chain_slack_lower > -1e-7
        assert report.chain_slack_upper > -1e-7
        assert report.I >= 0.0
        assert abs(report.J - 0.5 * report.I) < 1e-10


def _functional_report_reference(grid, phi, nodes=33):
    """The report with L integrated again inside ``j_consistency``, as it was."""
    zero = qt.BasicPotential.zero(grid)
    straight = fn.linear_path(zero, phi, nodes)
    curved = fn.power_path(zero, phi, 2.0, nodes)
    L = fn.functional_L(straight)
    L2 = fn.functional_L(curved)
    I = fn.functional_I(zero, phi)
    J = fn.functional_J(zero, phi, straight)
    J_closed = grid.mean((phi.values - zero.values) * zero.u()) - fn.functional_L(straight)
    M = fn.functional_M(straight)
    return fn.FunctionalReport(
        L=L,
        M=M,
        I=I,
        J=J,
        path_independence_residual=abs(L - L2),
        j_closed_form_residual=abs(J - J_closed),
        chain_slack_lower=2.0 * (I - J) - I,
        chain_slack_upper=I - 2.0 * (I - J),
    )


def _ij_derivative_reference(path):
    """The I - J derivative residual with each density formed three times, as it was."""
    seg = path.segments[0]
    grid = path.grid
    base = path.start
    path.require_positive()
    u_a = base.u()
    l_nodes = np.array(
        [grid.mean(dot.values * phi.u()) for phi, dot in zip(seg.phis, seg.phidots)]
    )
    l_cum = np.concatenate([[0.0], _cumulative_trapezoid(l_nodes, seg.ts)])
    f = np.empty(seg.ts.shape[0])
    rhs = np.empty(seg.ts.shape[0])
    for j, (phi, dot) in enumerate(zip(seg.phis, seg.phidots)):
        psi = phi.values - base.values
        u_t = phi.u()
        i_t = grid.mean(psi * (u_a - u_t))
        j_t = grid.mean(psi * u_a) - l_cum[j]
        f[j] = i_t - j_t
        rhs[j] = grid.mean(phi.values * dot.box0())
    lhs = path_derivative(f, float(seg.ts[1] - seg.ts[0]))
    return float(np.max(np.abs(lhs - rhs)[2:-2]))


class TestSharedNodeTerms:
    """L is integrated once per report and each node's density formed once."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_report_equals_the_reference(self, grid, seed, monkeypatch):
        phi = qt.random_potential(grid, np.random.default_rng(seed))
        want = _functional_report_reference(grid, phi)
        paths = []
        integrate = fn.functional_L
        monkeypatch.setattr(fn, "functional_L", lambda path: paths.append(path) or integrate(path))
        got = fn.functional_report(grid, phi)
        assert len(paths) == 2  # the straight and the curved path, each once
        got, want = dataclasses.astuple(got), dataclasses.astuple(want)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ij_derivative_equals_the_reference(self, grid, zero, seed, monkeypatch):
        phi = qt.random_potential(grid, np.random.default_rng(seed))
        for path in (fn.linear_path(zero, phi), fn.power_path(zero, phi, 2.0, 33)):
            want = _ij_derivative_reference(path)
            calls = []
            u = qt.BasicPotential.u
            monkeypatch.setattr(qt.BasicPotential, "u", lambda self: calls.append(1) or u(self))
            got = fn.ij_derivative_check(path)
            monkeypatch.undo()
            assert len(calls) == path.node_count
            assert np.array(got).tobytes() == np.array(want).tobytes()
