"""Structure identities, curvature routes, and their algebraic symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import core, models
from sasakigeo.models import HeisenbergModel

MODEL_KEYS = ["s3", "s5", "heisenberg"]


# Strategy: a seeded random point on the named model together with two
# tangent vectors.  Drawing the seed (rather than raw floats) keeps every
# sample exactly on the constraint set.
@st.composite
def point_and_tangents(draw, key="s3"):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    model = models.get_model(key)
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, 1)[0]
    X = model.random_tangents(rng, x[None])[0]
    Y = model.random_tangents(rng, x[None])[0]
    return model, x, X, Y


class TestStructureIdentities:
    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_all_pass_on_random_points(self, key):
        report = core.verify_structure(models.get_model(key), n_points=200, seed=3)
        failing = [r.name for r in report.identities if not r.passed]
        assert report.passed, f"failing identities on {key}: {failing}"

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_algebraic_identities_are_machine_precision(self, key):
        report = core.verify_structure(models.get_model(key), n_points=200, seed=3)
        for name in ("reeb-normalization", "phi-square", "phi-compatibility"):
            assert report.by_name(name).max_residual < 1e-9

    def test_rejects_empty_sample(self, s3):
        with pytest.raises(ValueError, match="empty"):
            core.verify_structure(s3, points=np.empty((0, 4)))

    def test_rejects_off_manifold_points(self, s3):
        bad = np.array([[1.1, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="constraint"):
            core.verify_structure(s3, points=bad)

    def test_negative_control_catches_bad_normalization(self):
        # A deliberately broken structure: the contact form is scaled by
        # 1.01, so eta(xi) = 1.01 and the suite must flag it.
        class Skewed(HeisenbergModel):
            def eta(self, x, v):
                return 1.01 * super().eta(x, v)

        report = core.verify_structure(Skewed(), n_points=50, seed=0)
        assert not report.passed
        assert not report.by_name("reeb-normalization").passed


class TestCurvatureSymmetries:
    @settings(max_examples=25, deadline=None)
    @given(data=point_and_tangents(key="s3"))
    def test_antisymmetry_in_first_pair(self, data):
        model, x, X, Y = data
        a = model.curvature(x, X, Y, Y, X)
        b = model.curvature(x, Y, X, Y, X)
        assert abs(a + b) < 1e-9 * max(1.0, abs(a))

    @settings(max_examples=25, deadline=None)
    @given(data=point_and_tangents(key="s5"))
    def test_pair_interchange(self, data):
        model, x, X, Y = data
        rng = np.random.default_rng(0)
        Z = model.random_tangents(rng, x[None])[0]
        W = model.random_tangents(rng, x[None])[0]
        a = model.curvature(x, X, Y, Z, W)
        b = model.curvature(x, Z, W, X, Y)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    @settings(max_examples=25, deadline=None)
    @given(data=point_and_tangents(key="heisenberg"))
    def test_first_bianchi(self, data):
        model, x, X, Y = data
        rng = np.random.default_rng(1)
        Z = model.random_tangents(rng, x[None])[0]
        cyc = (
            model.curvature_op(x, X, Y, Z)
            + model.curvature_op(x, Y, Z, X)
            + model.curvature_op(x, Z, X, Y)
        )
        assert float(np.max(np.abs(cyc))) < 1e-9

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_reeb_sectional_curvature_is_one(self, key):
        # For any unit horizontal X the plane span(X, xi) has curvature 1.
        model = models.get_model(key)
        rng = np.random.default_rng(7)
        x = model.random_points(rng, 20)
        X = model.random_unit_horizontal(rng, x)
        val = model.curvature(x, model.reeb(x), X, X, model.reeb(x))
        assert float(np.max(np.abs(val - 1.0))) < 1e-9


# Factors from the smallest subnormals to the largest doubles: their products
# underflow to signed zeros and overflow to infinities and NaNs.
MAGNITUDES = np.array([0.0, -0.0, 1e-310, -1e-310, 1e-300, -1.0, 1.0, 3.7, -1e150, 1e308, -1e308])
COLUMN_ROWS = core._COLUMN_SUM_ROWS


def assert_dot_bits(u, v):
    """``core._dot(u, v)`` equals numpy's reduce of the product bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.asarray(core._dot(u, v))
        want = np.asarray(np.add.reduce(u * v, axis=-1))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestColumnSumDot:
    """Wide batches sum the product's columns; the bits stay numpy's reduce."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_rows_on_both_sides_of_the_threshold(self, k):
        rng = np.random.default_rng(k)
        for rows in (1, 2, COLUMN_ROWS - 1, COLUMN_ROWS, COLUMN_ROWS + 1, 20000):
            u = rng.choice(MAGNITUDES, (rows, k)) * rng.uniform(0.5, 1.0, (rows, k))
            v = rng.choice(MAGNITUDES, (rows, k))
            assert_dot_bits(u, v)
            assert_dot_bits(u, v[0])  # one vector against every row
        assert_dot_bits(u[0], v[0])

    @pytest.mark.parametrize("k", range(1, 10))
    def test_stacks(self, k):
        rng = np.random.default_rng(100 + k)
        for shape in ((2, COLUMN_ROWS // 2 - 1), (2, COLUMN_ROWS // 2), (3, 7, 40), (5, 1, COLUMN_ROWS)):
            u = rng.choice(MAGNITUDES, shape + (k,))
            v = rng.standard_normal(shape + (k,))
            assert_dot_bits(u, v)

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_strided_frame_slices(self, key):
        model = models.get_model(key)
        x = model.random_points(np.random.default_rng(4), 2 * COLUMN_ROWS)
        frame = model.orthonormal_frame(x)
        for i in range(model.dim):
            for j in range(model.dim):
                assert_dot_bits(frame[..., i, :], frame[..., j, :])
            assert_dot_bits(frame[..., i, :], x)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_rows_of_negative_zeros_sum_to_positive_zero(self, k):
        # the reduce starts from +0.0, so -0.0 + ... + -0.0 reads +0.0
        u = np.full((COLUMN_ROWS + 3, k), -0.0)
        v = np.ones((COLUMN_ROWS + 3, k))
        assert_dot_bits(u, v)
        assert not np.signbit(core._dot(u, v)).any()


class TestRicciRoutes:
    """The transverse Ricci tensor has two independent evaluation routes:
    a frame trace of the transverse curvature, and the full Ricci plus twice
    the metric.  They must agree on horizontal directions."""

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_routes_agree(self, key):
        model = models.get_model(key)
        rng = np.random.default_rng(11)
        x = model.random_points(rng, 30)
        X = model.random_unit_horizontal(rng, x)
        trace_route, eq_route = core.ricci_transverse(model, x, X, X)
        assert float(np.max(np.abs(trace_route - eq_route))) < 1e-6

    @pytest.mark.parametrize("key", MODEL_KEYS + ["s3-dhom:2.0"])
    def test_each_route_has_one_helper(self, key, monkeypatch):
        model = models.get_model(key)
        rng = np.random.default_rng(17)
        x = model.random_points(rng, 2 * COLUMN_ROWS)
        X = model.random_unit_horizontal(rng, x)
        Y = model.random_unit_horizontal(rng, x)
        trace_route, eq_route = core.ricci_transverse(model, x, X, Y)
        assert trace_route.tobytes() == core._ricci_transverse_trace(model, x, X, Y).tobytes()
        assert eq_route.tobytes() == core._ricci_transverse_eq(model, x, X, Y).tobytes()

        def unread(*args):
            raise AssertionError("a route nobody reads was computed")

        # the trace route never forms the full Ricci, the equation route
        # never the transverse curvature
        monkeypatch.setattr(core, "ricci", unread)
        assert core._ricci_transverse_trace(model, x, X, Y).tobytes() == trace_route.tobytes()
        monkeypatch.undo()
        monkeypatch.setattr(core, "transverse_curvature", unread)
        assert core._ricci_transverse_eq(model, x, X, Y).tobytes() == eq_route.tobytes()

    def test_sphere_transverse_einstein_constants(self, s3, s5):
        # Ric^T = (2n + 2) g^T on the round spheres: 4 for n=1, 6 for n=2.
        for model, expect in ((s3, 4.0), (s5, 6.0)):
            rng = np.random.default_rng(5)
            x = model.random_points(rng, 25)
            X = model.random_unit_horizontal(rng, x)
            ric_t, _ = core.ricci_transverse(model, x, X, X)
            assert float(np.max(np.abs(ric_t - expect))) < 1e-6

    def test_heisenberg_is_transverse_ricci_flat(self, heis):
        rng = np.random.default_rng(9)
        x = heis.random_points(rng, 25)
        X = heis.random_unit_horizontal(rng, x)
        ric_t, _ = core.ricci_transverse(heis, x, X, X)
        assert float(np.max(np.abs(ric_t))) < 1e-6
        # while the full horizontal Ricci is -2 and Ric(xi, xi) = 2n = 2
        assert float(np.max(np.abs(core.ricci(heis, x, X, X) + 2.0))) < 1e-9
        xi = heis.reeb(x)
        assert float(np.max(np.abs(core.ricci(heis, x, xi, xi) - 2.0))) < 1e-9

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_curvature_report_cross_checks(self, key):
        model = models.get_model(key)
        rng = np.random.default_rng(13)
        x = model.random_points(rng, 1)[0]
        X = model.random_unit_horizontal(rng, x[None])[0]
        Y = model.phi(x, X)
        rep = core.curvature_report(model, x, X, Y)
        assert rep.passed
        # the transverse sectional value of a phi-invariant plane exceeds
        # the full one by exactly 3 (unit horizontal orthonormal pair)
        assert abs(rep.r_transverse - rep.r_full - 3.0) < 1e-6
