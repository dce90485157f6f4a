"""Model construction, registry keys, sampling, and closed-form flows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import models, subriemannian as sr
from sasakigeo.models import MODEL_KEYS, get_model, make_heisenberg, make_round_sphere


@st.composite
def unit_covector_data(draw, key):
    """Seeded (point, horizontal direction, Reeb momentum) triple."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    a0 = draw(st.floats(min_value=-2.0, max_value=2.0))
    model = get_model(key)
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, 1)[0]
    u = model.random_unit_horizontal(rng, x[None])[0]
    return model, x, u, a0


class TestRegistry:
    def test_known_keys(self):
        assert set(MODEL_KEYS) >= {"s3", "s5", "heisenberg"}

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="unknown model key"):
            get_model("s9")

    def test_deformed_key_parses(self):
        model = get_model("s3-dhom:2.0")
        assert model.n == 1
        assert abs(model.mu - 2.0) < 1e-15

    def test_deformed_key_malformed(self):
        with pytest.raises((KeyError, ValueError)):
            get_model("s3-dhom:abc")

    @pytest.mark.parametrize("key", ["s3-dhom:nan", "s3-dhom:inf"])
    def test_deformed_key_non_finite(self, key):
        with pytest.raises(KeyError, match="finite"):
            get_model(key)

    def test_factories_match_registry(self):
        assert make_round_sphere(1).key == get_model("s3").key
        assert make_heisenberg().key == get_model("heisenberg").key


class TestSampling:
    @pytest.mark.parametrize("key", ["s3", "s5"])
    def test_sphere_points_on_unit_sphere(self, key):
        model = get_model(key)
        x = model.random_points(np.random.default_rng(0), 500)
        assert np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) < 1e-12

    def test_projection_normalizes(self, s3):
        raw = np.array([3.0, 4.0, 0.0, 0.0])
        x = s3.project_point(raw)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-15

    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg"])
    def test_frame_orthonormal_and_ordered(self, key):
        # first 2n vectors horizontal, last one the Reeb field
        model = get_model(key)
        rng = np.random.default_rng(4)
        x = model.random_points(rng, 40)
        frame = model.orthonormal_frame(x)
        dim = model.dim
        gram = np.empty(x.shape[:-1] + (dim, dim))
        for i in range(dim):
            for j in range(dim):
                gram[..., i, j] = model.metric(x, frame[..., i, :], frame[..., j, :])
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-12
        for i in range(2 * model.n):
            assert np.max(np.abs(model.eta(x, frame[..., i, :]))) < 1e-12
        assert np.max(np.abs(frame[..., dim - 1, :] - model.reeb(x))) < 1e-12

    def test_unit_horizontal_survives_degenerate_draw(self, s3):
        # Drawing with the same seed twice makes the raw Gaussian parallel
        # to the point itself for engineered inputs; the fallback must still
        # return a unit horizontal vector rather than NaN.
        rng = np.random.default_rng(12)
        x = s3.random_points(rng, 64)
        v = s3.random_unit_horizontal(np.random.default_rng(12), x)
        assert np.all(np.isfinite(v))
        norms = s3.metric(x, v, v)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_tau_values(self, s3, s5, heis):
        assert s3.tau == 4.0
        assert s5.tau == 6.0
        assert heis.tau == 0.0


FLOW_KEYS = ("s3", "s5", "heisenberg", "s3-dhom:1.7")


class TestClosedFormFlow:
    def test_heisenberg_circle_endpoint(self, heis):
        # Hand-rolled oracle: from the origin with horizontal direction
        # (cos f, sin f) and Reeb momentum a0, the planar projection is a
        # circle turning at rate -2*a0 and the vertical coordinate is the
        # signed area swept (dz = y dx along horizontal curves).
        f, a0, T = 0.3, 0.7, 1.1
        c = -2.0 * a0
        ts = np.linspace(0.0, T, 4001)
        theta = f + c * ts
        xs = (np.sin(theta) - np.sin(f)) / c
        ys = -(np.cos(theta) - np.cos(f)) / c
        zs = np.concatenate(
            [[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))]
        )
        x0 = np.zeros(3)
        u = np.array([np.cos(f), np.sin(f), 0.0])
        cov = heis.covector_from(x0, u, a0)
        pts = heis.closed_form_from_covector(x0, cov, ts)
        planar_err = np.max(
            np.hypot(pts[:, 0] - xs, pts[:, 1] - ys)
        )
        assert planar_err < 1e-12
        assert np.max(np.abs(pts[:, 2] - zs)) < 1e-6  # trapezoid area error

    def test_sphere_zero_momentum_is_great_circle(self, s3):
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        u = s3.orthonormal_frame(x0)[0]
        cov = s3.covector_from(x0, u, 0.0)
        ts = np.linspace(0.0, 2.0, 9)
        pts = s3.closed_form_from_covector(x0, cov, ts)
        expected = np.cos(ts)[:, None] * x0 + np.sin(ts)[:, None] * u
        assert np.max(np.abs(pts - expected)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(data=unit_covector_data("s3"))
    def test_sphere_flow_stays_on_sphere_at_unit_speed(self, data):
        model, x, u, a0 = data
        cov = model.covector_from(x, u, a0)
        ts = np.linspace(0.0, 3.0, 601)
        pts = model.closed_form_from_covector(x, cov, ts)
        assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-9
        # cumulative chord length approaches arclength = elapsed time
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=-1)
        assert abs(np.sum(chords) - 3.0) < 1e-3

    @settings(max_examples=20, deadline=None)
    @given(data=unit_covector_data("heisenberg"))
    def test_heisenberg_flow_is_horizontal(self, data):
        model, x, u, a0 = data
        cov = model.covector_from(x, u, a0)
        ts = np.linspace(0.0, 2.0, 2001)
        pts = model.closed_form_from_covector(x, cov, ts)
        vel = np.gradient(pts, ts, axis=0)
        eta = model.eta(pts, vel)
        assert np.max(np.abs(eta[2:-2])) < 1e-5


    @pytest.mark.parametrize(
        "key, mode",
        [pytest.param(k, "sub", id=k) for k in FLOW_KEYS]
        + [pytest.param(k, "riem", id=f"{k}-riem") for k in FLOW_KEYS],
    )
    def test_batched_flow_matches_rows_and_rk4(self, key, mode):
        # rows with a0 = 0, a Heisenberg turning rate a_z = 2 a0 small enough
        # for the series branch all along (|a_z t| <= 4e-3 < 1e-2), turning
        # arcs, and in riem mode the poles a0 = +-1 (pure Reeb motion); each
        # row has its own time grid
        model = get_model(key)
        rng = np.random.default_rng(8)
        if mode == "sub":
            a0, T = np.array([0.0, 1e-3, 0.6, -1.4]), np.array([2.0, 1.5, 1.8, 1.2])
        else:
            a0 = np.array([0.0, 1e-3, 0.6, -0.9, 1.0, -1.0])
            T = np.array([2.0, 1.5, 1.8, 1.2, 1.6, 1.1])
        x = model.random_points(rng, a0.size)
        u = model.random_unit_horizontal(rng, x)
        cov = sr._search_covector(model, x, u, a0, mode)
        steps = 4000
        t = T[:, None] * np.linspace(0.0, 1.0, steps + 1)[None, :]
        batched = sr._flow_positions(model, x, cov, t, mode)
        assert batched.shape == (a0.size, steps + 1, model.ambient_dim)
        exact = getattr(model, "source", model)
        scale = getattr(model, "mu", 1.0)
        for i in range(a0.size):
            if mode == "sub":
                rows = exact.closed_form_from_covector(x[i], cov[i], scale * t[i])
                assert np.max(np.abs(batched[i] - rows)) < 1e-12
            state = sr.CotangentState.make(model, x[i], cov[i], mode)
            path = sr.integrate_geodesic(model, state, T[i], steps)
            assert np.max(np.abs(batched[i] - path.points)) < 1e-9


class TestCovectorAlgebra:
    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg"])
    def test_covector_roundtrip(self, key):
        # sharp(covector_from(x, u, a0)) = u + a0 * xi, and alpha0 reads back
        model = get_model(key)
        rng = np.random.default_rng(21)
        x = model.random_points(rng, 30)
        u = model.random_unit_horizontal(rng, x)
        a0 = rng.uniform(-2, 2, size=30)
        cov = model.covector_from(x, u, a0)
        v = model.sharp(x, cov)
        expected = u + a0[:, None] * model.reeb(x)
        assert np.max(np.abs(v - expected)) < 1e-12
        assert np.max(np.abs(model.alpha0(x, cov) - a0)) < 1e-12

    @pytest.mark.parametrize("key", ["s3", "heisenberg"])
    def test_hamiltonian_modes(self, key):
        model = get_model(key)
        rng = np.random.default_rng(22)
        x = model.random_points(rng, 10)
        u = model.random_unit_horizontal(rng, x)
        a0 = rng.uniform(-2, 2, size=10)
        cov = model.covector_from(x, u, a0)
        h_sub = model.hamiltonian(x, cov, mode="sub")
        h_riem = model.hamiltonian(x, cov, mode="riem")
        # sub mode sees only the unit horizontal part; riem adds a0^2/2
        assert np.max(np.abs(h_sub - 0.5)) < 1e-12
        assert np.max(np.abs(h_riem - 0.5 * (1.0 + a0**2))) < 1e-12
