"""Cotangent flow conservation, two-point search, and distance oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import dhomothety as dh, models, subriemannian as sr


@st.composite
def flow_states(draw, key):
    """A seeded unit-speed initial state on the named model."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    a0 = draw(st.floats(min_value=-2.5, max_value=2.5))
    model = models.get_model(key)
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, 1)[0]
    u = model.random_unit_horizontal(rng, x[None])[0]
    cov = model.covector_from(x, u, a0)
    return model, sr.CotangentState.make(model, x, cov)


class TestIntegration:
    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg"])
    def test_invariant_drifts(self, key):
        model = models.get_model(key)
        rng = np.random.default_rng(1)
        x = model.random_points(rng, 1)[0]
        u = model.random_unit_horizontal(rng, x[None])[0]
        state = sr.CotangentState.make(model, x, model.covector_from(x, u, 0.8))
        path = sr.integrate_geodesic(model, state, 4.0, 4000)
        inv = path.invariants(model)
        assert inv.passed()
        assert inv.h_drift < 1e-10
        assert inv.alpha0_drift < 1e-10
        assert sr.geodesic_residual(model, path).passed

    def test_too_few_steps_rejected(self, s3):
        x = np.array([1.0, 0, 0, 0])
        u = s3.orthonormal_frame(x)[0]
        state = sr.CotangentState.make(s3, x, s3.covector_from(x, u, 0.0))
        with pytest.raises(ValueError, match="steps"):
            sr.integrate_geodesic(s3, state, 1.0, 8)

    def test_zero_horizontal_motion_rejected(self, s3):
        # a purely vertical covector has H = 0 in sub mode: no normal
        # geodesic starts that way
        x = np.array([1.0, 0, 0, 0])
        cov = s3.covector_from(x, np.zeros(4), 1.0)
        state = sr.CotangentState.make(s3, x, cov, "riem")
        with pytest.raises(ValueError, match="horizontal"):
            sr.integrate_geodesic(s3, state, 1.0, 100, mode="sub")

    def test_off_manifold_start_rejected(self, s3, heis):
        with pytest.raises(ValueError, match="constraint"):
            sr.CotangentState.make(s3, np.array([1.1, 0, 0, 0]), np.zeros(4))
        with pytest.raises(ValueError, match="non-finite"):
            sr.CotangentState.make(heis, np.array([0.0, np.inf, 0]), np.ones(3))
        with pytest.raises(ValueError, match="non-finite"):
            sr.CotangentState.make(heis, np.zeros(3), np.array([0.0, 1.0, np.nan]))

    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg"])
    def test_matches_closed_form(self, key):
        model = models.get_model(key)
        rng = np.random.default_rng(2)
        x = model.random_points(rng, 1)[0]
        u = model.random_unit_horizontal(rng, x[None])[0]
        cov = model.covector_from(x, u, 1.3)
        state = sr.CotangentState.make(model, x, cov)
        path = sr.integrate_geodesic(model, state, 2.0, 2000)
        exact = model.closed_form_from_covector(x, cov, path.t)
        assert np.max(np.abs(path.points - exact)) < 1e-9

    @pytest.mark.parametrize("key", ["s3", "heisenberg"])
    def test_convergence_order(self, key):
        model = models.get_model(key)
        rng = np.random.default_rng(3)
        x = model.random_points(rng, 1)[0]
        u = model.random_unit_horizontal(rng, x[None])[0]
        state = sr.CotangentState.make(model, x, model.covector_from(x, u, 1.0))
        _, orders = sr.measure_convergence_order(model, state, 2.0)
        assert min(orders) >= 3.5

    @settings(max_examples=15, deadline=None)
    @given(data=flow_states("s3"))
    def test_conservation_property(self, data):
        model, state = data
        path = sr.integrate_geodesic(model, state, 1.5, 300)
        inv = path.invariants(model)
        assert inv.h_drift < 1e-9
        assert inv.alpha0_drift < 1e-9
        assert inv.speed_relative_spread < 1e-9


class OffsetFlowHeisenberg(models.HeisenbergModel):
    """A planted wrong exact flow: every position off by 1e-2."""

    def flow_positions(self, x0, a, t):
        return super().flow_positions(x0, a, t) + 1e-2


class CountingSphere(models.SphereModel):
    def __init__(self, n):
        super().__init__(n)
        self.flow_calls = 0

    def flow_positions(self, x0, a, t):
        self.flow_calls += 1
        return super().flow_positions(x0, a, t)


class TestFlowEvaluator:
    @pytest.mark.parametrize("mode", ["sub", "riem"])
    def test_closest_approach_same_on_both_routes(self, s3, mode, monkeypatch):
        # blocks of 5 samples (12 rows x 4 coordinates each), the last one short
        monkeypatch.setattr(sr, "_FLOW_BLOCK", 5 * 12 * 4)
        rng = np.random.default_rng(6)
        p, q = s3.random_points(rng, 2)
        u = s3.random_unit_horizontal(rng, np.broadcast_to(p, (12, 4)))
        a0 = np.linspace(-1.0, 1.0, 12)  # riem rows 0 and 11 are the poles
        X0 = np.broadcast_to(p, (12, 4))
        cov = sr._search_covector(s3, X0, u, a0, mode)
        T = np.linspace(1.5, 3.0, 12)
        miss, t_at = sr._batched_closest_approach(s3, X0, cov, T, 300, q, mode)
        # reference: every row's trajectory sampled on its own grid, from the
        # per-row closed form (sub) or a 3000-step RK4 (riem)
        if mode == "sub":
            t = T[:, None] * np.linspace(0.0, 1.0, 301)[None, :]
            pts = np.stack([s3.closed_form_from_covector(p, cov[i], t[i]) for i in range(12)])
        else:
            pts = np.stack([
                sr.integrate_geodesic(
                    s3, sr.CotangentState.make(s3, p, cov[i], mode), T[i], 3000
                ).points[::10]
                for i in range(12)
            ])
        ref_miss, ref_t = sr._closest_sample(
            np.sum((pts - q) ** 2, axis=-1).T, T / 300
        )
        assert np.max(np.abs(miss - ref_miss)) < 1e-6
        assert np.max(np.abs(t_at - ref_t)) < 1e-6

    def test_wrong_exact_flow_never_certifies(self):
        # the search follows the planted flow, but certification integrates:
        # any converged answer must land on the target under RK4
        model = OffsetFlowHeisenberg()
        q = np.array([1.0, 0.0, 0.0])
        for mode in ("sub", "riem"):
            cfg = sr.ShootingConfig(
                seed=3, n_directions=8, n_alpha0=5, widen_rounds=0, confirm_rounds=0,
                max_refine_rounds=20, mode=mode,
            )
            for p in (np.zeros(3), np.array([0.99, 0.0, 0.0])):
                r = sr.cc_distance(model, p, q, cfg)
                assert r.converged == (r.miss <= cfg.hit_tol)
                if r.converged:
                    steps = max(32, int(round(r.distance / cfg.certify_step)))
                    path = sr.integrate_geodesic(model, r.best_init, r.distance, steps)
                    assert path.mode == mode
                    assert np.linalg.norm(path.points[-1] - q) <= cfg.hit_tol + 1e-6

    def test_both_modes_use_exact_flow(self):
        p, q = np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0])
        quick = dict(
            seed=1, n_directions=8, n_alpha0=5, widen_rounds=0, confirm_rounds=0,
            max_refine_rounds=10,
        )
        for mode in ("sub", "riem"):
            model = CountingSphere(1)
            sr.cc_distance(model, p, q, sr.ShootingConfig(mode=mode, **quick))
            assert model.flow_calls > 0


class TestBracketGeneration:
    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg"])
    def test_contact_bracket_value(self, key):
        # [X, phi X] has Reeb component -2 g(X, X): the distribution
        # bracket-generates in one step
        model = models.get_model(key)
        rng = np.random.default_rng(5)
        x = model.random_points(rng, 1)[0]
        X = model.random_unit_horizontal(rng, x[None])[0]
        chk = sr.strong_bracket_check(model, x, X)
        assert chk.residual < 1e-6

    def test_vertical_input_rejected(self, s3):
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="horizontal"):
            sr.strong_bracket_check(s3, x, s3.reeb(x))


class TestDistanceOracles:
    def test_heisenberg_unit_translation(self, heis):
        # straight horizontal segment: distance exactly 1
        r = sr.cc_distance(heis, np.zeros(3), np.array([1.0, 0, 0]))
        assert r.converged
        assert abs(r.distance - 1.0) < 1e-3

    def test_heisenberg_vertical_point(self, heis):
        # minimizing loop encloses unit area: length sqrt(4 pi)
        r = sr.cc_distance(heis, np.zeros(3), np.array([0.0, 0, 1.0]))
        assert r.converged
        assert abs(r.distance - math.sqrt(4.0 * math.pi)) < 1e-3

    def test_coincident_points(self, s3):
        p = np.array([1.0, 0, 0, 0])
        r = sr.cc_distance(s3, p, p)
        assert r.converged and r.distance == 0.0

    def test_s3_antipodal(self, s3):
        p = np.array([1.0, 0, 0, 0])
        r = sr.cc_distance(s3, p, -p)
        assert r.converged
        assert abs(r.distance - math.pi) < 1e-3

    def test_symmetry(self, s3):
        rng = np.random.default_rng(17)
        p, q = s3.random_points(rng, 2)
        cfg = sr.ShootingConfig(seed=5)
        d_pq = sr.cc_distance(s3, p, q, cfg)
        d_qp = sr.cc_distance(s3, q, p, cfg)
        assert d_pq.converged and d_qp.converged
        assert abs(d_pq.distance - d_qp.distance) < 2e-3

    def test_riemannian_mode_great_circles(self, s3):
        # the Riemannian distance on the round sphere is the chord angle;
        # a target on the Reeb orbit exercises the momentum-pole case
        cfg = sr.ShootingConfig(seed=1, mode="riem")
        p = np.array([1.0, 0, 0, 0])
        targets = [
            (np.array([0.0, 1, 0, 0]), math.pi / 2.0),
            (np.array([0.5, 0.5, 0.5, 0.5]), math.acos(0.5)),
        ]
        for q, exact in targets:
            r = sr.cc_distance(s3, p, q, cfg)
            assert r.converged
            assert abs(r.distance - exact) < 1e-3

    def test_riemannian_never_longer_than_horizontal(self, s3):
        rng = np.random.default_rng(23)
        p, q = s3.random_points(rng, 2)
        sub = sr.cc_distance(s3, p, q, sr.ShootingConfig(seed=2))
        riem = sr.cc_distance(s3, p, q, sr.ShootingConfig(seed=2, mode="riem"))
        assert sub.converged and riem.converged
        assert riem.distance <= sub.distance + 1e-3

    def test_endpoint_validation(self, s3, heis):
        p = np.array([1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="constraint"):
            sr.cc_distance(s3, p, np.array([0.0, 0, 0, 2.0]))
        # the Heisenberg chart has no constraint residual to catch a NaN
        with pytest.raises(ValueError, match="non-finite"):
            sr.cc_distance(heis, np.array([np.nan, 0, 0]), np.array([1.0, 0, 0]))

    def test_determinism(self, heis):
        cfg = sr.ShootingConfig(seed=9)
        a = sr.cc_distance(heis, np.zeros(3), np.array([0.4, 0.3, 0.2]), cfg)
        b = sr.cc_distance(heis, np.zeros(3), np.array([0.4, 0.3, 0.2]), cfg)
        assert a.distance == b.distance
        assert a.miss == b.miss


class TestDiameterEstimate:
    def test_thread_count_does_not_change_results(self, s3):
        # the deformed model's key prints mu to six digits, so a worker must
        # receive the model itself, not a model rebuilt from its key
        quick = sr.ShootingConfig(seed=5, n_directions=8, n_alpha0=5, confirm_rounds=0)
        cases = [
            (s3, 2, sr.ShootingConfig(seed=31)),
            (dh.apply(s3, 1.23456789), 1, quick),
        ]
        for model, pairs, cfg in cases:
            serial = sr.estimate_diameter(model, pairs, cfg, threads=1)
            threaded = sr.estimate_diameter(model, pairs, cfg, threads=2)
            assert serial.estimate == threaded.estimate
            assert [p.result.distance for p in serial.pairs] == [
                p.result.distance for p in threaded.pairs
            ]

    def test_bound_values(self, s3, s5, heis):
        assert abs(sr.theoretical_diameter_bound(s3) - math.pi) < 1e-12
        assert abs(sr.theoretical_diameter_bound(s5) - math.pi * math.sqrt(2)) < 1e-12
        assert sr.theoretical_diameter_bound(heis) is None


class TestGeodesicFromResult:
    def test_reconstructs_the_connection(self, s3_minimizer, s3):
        path, result = s3_minimizer
        assert abs(path.t[-1] - result.distance) < 1e-12
        inv = path.invariants(s3)
        assert inv.passed()

    def test_requires_convergence(self, s3):
        failed = sr.ShootingResult(
            "budget-exhausted", None, None, 1.0, None, False, 4.0, True, 0
        )
        with pytest.raises(ValueError):
            sr.geodesic_from_result(s3, failed)
