"""Model construction, registry keys, sampling, and closed-form flows."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import dhomothety, models, subriemannian as sr
from sasakigeo.models import MODEL_KEYS, get_model


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
        # for the series branch all along (|a_z t| <= 4e-3 < 1), turning
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
        c = rng.standard_normal((a0.size, 2 * model.n))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        cov = np.concatenate(
            [sr._frame_chart(model, x[i], mode)(c[i:i + 1], a0[i:i + 1]) for i in range(a0.size)]
        )
        steps = 4000
        t = T[:, None] * np.linspace(0.0, 1.0, steps + 1)[None, :]
        batched = model.flow_points(x, cov, t, mode)
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


class TestReebFlow:
    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg", "s3-dhom:0.6", "s3-dhom:2.0"])
    def test_reeb_flow_matches_rk4_of_reeb_field(self, key):
        # independent route: integrate x' = reeb(x) with fine RK4 steps, every
        # point with its own (signed) flow time
        model = get_model(key)
        x = model.random_points(np.random.default_rng(9), 4)
        theta = np.array([1.3, -0.7, 2.1, 0.05])
        steps = 4000
        h = (theta / steps)[:, None]
        y = x.copy()
        for _ in range(steps):
            k1 = model.reeb(y)
            k2 = model.reeb(y + 0.5 * h * k1)
            k3 = model.reeb(y + 0.5 * h * k2)
            k4 = model.reeb(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.max(np.abs(model.reeb_flow(x, theta) - y)) < 1e-12


class TestFlowSqDistances:
    @pytest.mark.parametrize("key", ["s3", "s5", "s3-dhom:2.0", "s5-dhom:1.7", "heisenberg"])
    @pytest.mark.parametrize("mode", ["sub", "riem"])
    def test_matches_the_materialised_positions(self, key, mode):
        # the closed forms of the spheres and Heisenberg, and the deformed
        # spheres' delegation, against |sub flow positions (+ Reeb flow) -
        # q|^2, composed here, as are the riem positions; rows at a0 = 0, 1e-3 and +-1 (the poles in riem
        # mode), each on its own time grid, and a target on row 1's path,
        # where distances reach 0
        model = _sphere_or_deformed(key)
        rng = np.random.default_rng(12)
        a0 = np.array([0.0, 1e-3, -1.0, 1.0, 0.6, -0.95])
        if mode == "sub":
            a0[4:] = [2.7, -3.5]
        x = model.random_points(rng, a0.size)
        c = rng.standard_normal((a0.size, 2 * model.n))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        cov = np.concatenate(
            [sr._frame_chart(model, x[i], mode)(c[i:i + 1], a0[i:i + 1]) for i in range(a0.size)]
        )
        t = np.linspace(1.0, 4.0, a0.size)[:, None] * np.linspace(0.0, 1.0, 41)[None, :]
        X = model.flow_points(x, cov, t, "sub")
        if mode == "riem":
            X = model.reeb_flow(X, model.alpha0(x, cov)[:, None] * t)
        # the model's one closed form at the mode's Reeb weight, too
        assert np.max(np.abs(model.flow_points(x, cov, t, mode) - X)) <= 1e-12
        for q in (model.random_points(rng, 1)[0], X[1, 17]):
            want = np.sum((X - q) ** 2, axis=-1)
            got = model.flow_sq_distances(x, cov, t, q, mode)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


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


def _central_gradient(f, z, eps=1e-6):
    """Central differences of the scalar field ``f`` along each coordinate of ``z``."""
    out = np.empty_like(z)
    for k in range(z.shape[-1]):
        dz = np.zeros(z.shape[-1])
        dz[k] = eps
        out[..., k] = (f(z + dz) - f(z - dz)) / (2.0 * eps)
    return out


class TestHamiltonField:
    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg", "s3-dhom:2.0", "s5-dhom:1.7"])
    @pytest.mark.parametrize("mode", ["sub", "riem"])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_rhs_is_hamiltons_equations(self, key, mode, lead):
        # dx = dH/da and da = -dH/dx, by central differences of hamiltonian
        if key == "s5-dhom:1.7":
            model = dhomothety.apply(get_model("s5"), 1.7)
        else:
            model = get_model(key)
        rng = np.random.default_rng(31)
        count = int(np.prod(lead))
        x = model.random_points(rng, count).reshape(lead + (model.ambient_dim,))
        a = rng.standard_normal(lead + (model.ambient_dim,))
        d = model.ambient_dim
        dstate = model.hamiltonian_rhs(np.concatenate((x, a), axis=-1), mode)
        dx, da = dstate[..., :d], dstate[..., d:]
        assert dx.shape == da.shape == x.shape
        grad_a = _central_gradient(lambda b: model.hamiltonian(x, b, mode), a)
        grad_x = _central_gradient(lambda y: model.hamiltonian(y, a, mode), x)
        assert np.max(np.abs(dx - grad_a)) < 1e-7
        assert np.max(np.abs(da + grad_x)) < 1e-7


def _pair_rotation(v):
    """Multiplication by i on R^{2n+2} ~ C^{n+1}: each pair (p, q) -> (-q, p)."""
    out = np.empty_like(v)
    out[..., 0::2], out[..., 1::2] = -v[..., 1::2], v[..., 0::2]
    return out


def _pair_dot(u, v):
    return np.sum(u * v, axis=-1, keepdims=True)


def _elementwise_sphere_field(x, a, mode):
    """The sphere's Hamilton equations term by term: an independent copy of the field."""
    xx, aa, ax = _pair_dot(x, x), _pair_dot(a, a), _pair_dot(a, x)
    dx = xx * a - ax * x
    da = ax * a - aa * x
    if mode == "sub":
        Jx = _pair_rotation(x)
        aJx = _pair_dot(a, Jx)
        dx = dx - aJx * Jx
        da = da - aJx * _pair_rotation(a)
    return dx, da


def _oracle_field(key, x, a, mode):
    """The elementwise field of s3, s5 or ``s<k>-dhom:mu``.

    A deformed field is mu times the sub field plus the mu^2 a0 Reeb terms.
    """
    if key in ("s3", "s5"):
        return _elementwise_sphere_field(x, a, mode)
    mu = float(key.split(":")[1])
    dx, da = _elementwise_sphere_field(x, a, "sub")
    dx, da = mu * dx, mu * da
    if mode == "riem":
        Jx, Ja = _pair_rotation(x), _pair_rotation(a)
        a0 = _pair_dot(a, Jx)
        dx = dx + mu * mu * a0 * Jx
        da = da + mu * mu * a0 * Ja
    return dx, da


def _sphere_or_deformed(key):
    if key == "s5-dhom:1.7":
        return dhomothety.apply(get_model("s5"), 1.7)
    return get_model(key)


class TestGramField:
    @pytest.mark.parametrize("key", ["s3", "s5", "s5-dhom:1.7", "s3-dhom:2.0"])
    @pytest.mark.parametrize("mode", ["sub", "riem"])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_matches_elementwise_field_off_the_manifold(self, key, mode, lead):
        model = _sphere_or_deformed(key)
        d = model.ambient_dim
        rng = np.random.default_rng(47)
        x = 1.7 * rng.standard_normal(lead + (d,))
        a = rng.standard_normal(lead + (d,))
        got = model.hamiltonian_rhs(np.concatenate((x, a), axis=-1), mode)
        want = np.concatenate(_oracle_field(key, x, a, mode), axis=-1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("key", ["s3", "s5", "s5-dhom:1.7"])
    def test_project_state_lands_on_the_cotangent_bundle(self, key):
        model = _sphere_or_deformed(key)
        d = model.ambient_dim
        rng = np.random.default_rng(48)
        state = np.concatenate(
            (1.3 * rng.standard_normal((50, d)), rng.standard_normal((50, d))), axis=-1
        )
        out = model.project_state(state)
        x, a = out[:, :d], out[:, d:]
        assert out.shape == state.shape
        assert np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) <= 1e-15
        assert np.max(np.abs(np.sum(a * x, axis=-1))) <= 1e-15


class TestOutArguments:
    """``hamiltonian_rhs(out=)`` and ``project_state(out=)`` equal the allocating calls bit for bit."""

    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg", "s3-dhom:2.0"])
    @pytest.mark.parametrize("mode", ["sub", "riem"])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
    def test_out_equals_the_allocating_call(self, key, mode, lead):
        model = get_model(key)
        d = model.ambient_dim
        rng = np.random.default_rng(53)
        state = np.concatenate(
            (1.2 * rng.standard_normal(lead + (d,)), rng.standard_normal(lead + (d,))), axis=-1
        )
        before = state.copy()
        buf = np.full(state.shape, np.nan)
        got = model.hamiltonian_rhs(state, mode, out=buf)
        assert got is buf
        want = model.hamiltonian_rhs(state, mode)
        assert want.tobytes() == got.tobytes()
        buf = np.full(state.shape, np.nan)
        got = model.project_state(state, out=buf)
        assert got is buf
        assert model.project_state(state).tobytes() == got.tobytes()
        assert state.tobytes() == before.tobytes()

    def test_a_deformed_model_does_not_disturb_its_source(self):
        # s3-dhom:2.0 in riem mode runs the field of its source s3 at Reeb
        # weight 2, on the same leading shapes as s3's own calls
        s3 = get_model("s3")
        deformed = dhomothety.apply(s3, 2.0)
        assert deformed.source is s3
        rng = np.random.default_rng(54)
        states = [rng.standard_normal((3, 8)) for _ in range(4)]
        want_s3 = [get_model("s3").hamiltonian_rhs(s, "riem") for s in states]
        want_def = [get_model("s3-dhom:2.0").hamiltonian_rhs(s, "riem") for s in states]
        out = np.empty((3, 8))
        for s, w3, wd in zip(states, want_s3, want_def):
            assert s3.hamiltonian_rhs(s, "riem").tobytes() == w3.tobytes()
            assert deformed.hamiltonian_rhs(s, "riem", out=out).tobytes() == wd.tobytes()
            assert s3.hamiltonian_rhs(s, "riem", out=out).tobytes() == w3.tobytes()
            assert deformed.hamiltonian_rhs(s, "riem").tobytes() == wd.tobytes()

    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg", "s3-dhom:2.0"])
    def test_allocating_calls_return_new_arrays(self, key):
        model = get_model(key)
        rng = np.random.default_rng(55)
        s1, s2 = rng.standard_normal((2, 3, 2 * model.ambient_dim))
        for method in (model.hamiltonian_rhs, model.project_state):
            first = method(s1)
            kept = first.copy()
            second = method(s2)
            assert second is not first
            assert not np.shares_memory(first, second)
            assert first.tobytes() == kept.tobytes()

    def test_sphere_field_refuses_a_strided_out(self, s3):
        state = np.zeros((2, 8))
        with pytest.raises(ValueError, match="C-contiguous"):
            s3.hamiltonian_rhs(state, "sub", out=np.empty((8, 2)).T)

    def test_threads_sharing_a_sphere_get_their_own_work_arrays(self):
        # the sphere keeps its field's work arrays per thread: two threads on
        # one model and one leading shape must not see each other's
        model = get_model("s5")
        rng = np.random.default_rng(56)
        states = rng.standard_normal((2, 3, 12))
        want = [get_model("s5").hamiltonian_rhs(s, "riem") for s in states]
        bad = []

        def work(i):
            out = np.empty((3, 12))
            for _ in range(2000):
                if model.hamiltonian_rhs(states[i], "riem", out=out).tobytes() != want[i].tobytes():
                    bad.append(i)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1, 0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
