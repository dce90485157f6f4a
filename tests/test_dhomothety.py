"""Deformation algebra: scaling laws, structure preservation, curvature facts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import core, dhomothety as dh, models


@st.composite
def ratios(draw):
    """Deformation ratios away from the degenerate ends."""
    return draw(st.floats(min_value=0.3, max_value=3.0))


class TestDeformationAlgebra:
    def test_identity_deformation(self, s3):
        dm = dh.apply(s3, 1.0)
        rng = np.random.default_rng(0)
        x = s3.random_points(rng, 50)
        u = s3.random_tangents(rng, x)
        w = s3.random_tangents(rng, x)
        assert np.max(np.abs(dm.metric(x, u, w) - s3.metric(x, u, w))) < 1e-12
        assert np.max(np.abs(dm.reeb(x) - s3.reeb(x))) < 1e-12

    def test_composition_flattens(self, s3):
        twice = dh.apply(dh.apply(s3, 2.0), 1.5)
        once = dh.apply(s3, 3.0)
        assert twice.source is s3
        assert abs(twice.mu - once.mu) < 1e-12
        rng = np.random.default_rng(1)
        x = s3.random_points(rng, 20)
        u = s3.random_tangents(rng, x)
        assert np.max(np.abs(twice.metric(x, u, u) - once.metric(x, u, u))) < 1e-10

    def test_invalid_ratio(self, s3):
        with pytest.raises(ValueError, match="positive"):
            dh.apply(s3, 0.0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_ratio_rejected(self, s3, mu):
        with pytest.raises(ValueError, match="finite"):
            dh.apply(s3, mu)

    def test_ratio_range(self, s3):
        for mu in (1e-5, 1e5):
            with pytest.raises(ValueError, match=r"\[1e-4, 1e4\]"):
                dh.apply(s3, mu)
        for mu in (1e-4, 1e4):
            assert dh.apply(s3, mu).mu == mu

    def test_transverse_metric_scales(self, s3):
        mu = 2.5
        dm = dh.apply(s3, mu)
        rng = np.random.default_rng(2)
        x = s3.random_points(rng, 30)
        X = s3.random_unit_horizontal(rng, x)
        ratio = dm.metric(x, X, X) / s3.metric(x, X, X)
        assert np.max(np.abs(ratio - 1.0 / mu)) < 1e-12

    def test_reeb_normalized_in_new_structure(self, s3):
        dm = dh.apply(s3, 1.7)
        rng = np.random.default_rng(3)
        x = s3.random_points(rng, 30)
        assert np.max(np.abs(dm.eta(x, dm.reeb(x)) - 1.0)) < 1e-12
        assert np.max(np.abs(dm.metric(x, dm.reeb(x), dm.reeb(x)) - 1.0)) < 1e-12

    @settings(max_examples=8, deadline=None)
    @given(mu=ratios())
    def test_deformed_structure_identities(self, mu):
        s3 = models.get_model("s3")
        report = core.verify_structure(dh.apply(s3, mu), n_points=40, seed=7)
        assert report.passed, [r.name for r in report.identities if not r.passed]

    def test_tau_scales_with_ratio(self, s3, heis):
        assert abs(dh.apply(s3, 2.0).tau - 8.0) < 1e-12
        assert dh.apply(heis, 2.0).tau == 0.0


class TestScalingChecks:
    def test_volume_ratio_matches_power_law(self, s3, s5):
        # ratio mu^{-(n+1)}: the transverse part contributes mu^{-n} and the
        # Reeb fiber mu^{-1}
        for model, mu, expect in ((s3, 2.0, 0.25), (s5, 2.0, 0.125)):
            rep = dh.volume_scaling_check(model, mu, samples=5000)
            assert abs(rep.expected_ratio - expect) < 1e-15
            assert rep.residual < 1e-10  # pointwise-constant Gram ratio

    def test_ricci_bound_after_deformation(self, s3):
        rep = dh.ricci_bound_check(s3, 0.5, samples=40, seed=1)
        assert rep.source_precondition_slack > -1e-9
        assert rep.passed()
        assert rep.min_horizontal_slack > -1e-6
        assert rep.max_mixed_residual < 1e-6
        assert rep.transverse_invariance_residual < 1e-6

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5])
    def test_ricci_bound_domain(self, s3, t):
        with pytest.raises(ValueError, match="t must lie"):
            dh.ricci_bound_check(s3, t)

    def test_flat_source_fails_precondition(self, heis):
        # the Heisenberg group has no positive transverse lower bound, so
        # the hypothesis check must refuse to proceed
        with pytest.raises(ValueError, match="violates"):
            dh.ricci_bound_check(heis, 0.5, samples=20, seed=0)


def _volume_ratio_reference(model, mu, samples, seed):
    """The volume check's ratio with one metric call per Gram entry, as it was."""
    deformed = dh.apply(model, mu)
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, samples)
    frame = model.orthonormal_frame(x)
    dim = model.dim

    def gram(m):
        g = np.empty(x.shape[:-1] + (dim, dim))
        for i in range(dim):
            for j in range(i, dim):
                gij = m.metric(x, frame[..., i, :], frame[..., j, :])
                g[..., i, j] = gij
                g[..., j, i] = gij
        return g

    ratio = np.sqrt(np.linalg.det(gram(deformed)) / np.linalg.det(gram(model)))
    return float(np.mean(ratio))


def _ricci_bound_reference(model, t, samples, seed):
    """The Ricci bound check's fields through both routes of ``ricci_transverse``, as it was."""
    mu = 1.0 / t
    deformed = dh.apply(model, mu)
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, samples)
    X = model.random_unit_horizontal(rng, x)
    V = deformed.random_tangents(rng, x)
    rt_src, _ = core.ricci_transverse(model, x, X, X)
    needed = t * (2.0 * model.n + 2.0) * model.metric(x, X, X)
    pre_slack = float(np.min(rt_src - needed))
    ric_h = core.ricci(deformed, x, X, X)
    slack = ric_h - 2.0 * deformed.n * deformed.metric(x, X, X)
    xi_mu = deformed.reeb(x)
    mixed = core.ricci(deformed, x, V, xi_mu) - 2.0 * deformed.n * deformed.metric(x, V, xi_mu)
    rt_mu, _ = core.ricci_transverse(deformed, x, X, X)
    return dh.RicciBoundReport(
        t=float(t),
        mu=float(mu),
        source_precondition_slack=pre_slack,
        min_horizontal_slack=float(np.min(slack)),
        max_mixed_residual=float(np.max(np.abs(mixed))),
        transverse_invariance_residual=float(np.max(np.abs(rt_mu - rt_src))),
    )


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestSharedTerms:
    """The checks form each shared term once and keep the old bits."""

    @pytest.mark.parametrize("key", ["s3", "s5", "s3-dhom:2.0"])
    @pytest.mark.parametrize("mu", [0.5, 2.0, 3.0])
    def test_volume_ratio_equals_the_reference(self, key, mu):
        model = models.get_model(key)
        # 20000 samples sum the dot products by columns, 100 reduce them
        for samples, seed in ((20000, 0), (100, 3)):
            rep = dh.volume_scaling_check(model, mu, samples=samples, seed=seed)
            want = _volume_ratio_reference(model, mu, samples, seed)
            assert _bits([rep.measured_ratio]) == _bits([want])

    @pytest.mark.parametrize("key", ["s3", "s5", "s3-dhom:2.0"])
    def test_gram_matrices_equal_the_metric_calls(self, key, monkeypatch):
        # the mean ratio can hide a reordered Gram entry; the determinants'
        # inputs cannot.  mu = 3 is no power of two, so the order of the
        # deformed metric's operations shows in the bits
        model = models.get_model(key)
        det = np.linalg.det

        def recorded(grams):
            monkeypatch.setattr(np.linalg, "det", lambda g: grams.append(g.copy()) or det(g))
            return grams

        got = recorded([])
        dh.volume_scaling_check(model, 3.0, samples=500, seed=1)
        want = recorded([])
        _volume_ratio_reference(model, 3.0, 500, 1)
        monkeypatch.undo()
        deformed_want, model_want = want
        model_got, deformed_got = got
        assert model_got.tobytes() == model_want.tobytes()
        assert deformed_got.tobytes() == deformed_want.tobytes()

    def test_volume_check_forms_each_eta_once(self, s3, monkeypatch):
        calls = []
        eta = s3.eta
        monkeypatch.setattr(s3, "eta", lambda x, u: calls.append(1) or eta(x, u))
        dh.volume_scaling_check(s3, 2.0, samples=50)
        assert len(calls) == s3.dim  # was 12: two per deformed Gram entry

    @pytest.mark.parametrize("key", ["s3", "s5"])
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_ricci_bound_equals_the_reference(self, key, t, monkeypatch):
        model = models.get_model(key)
        for samples, seed in ((50, 0), (400, 2)):
            want = _ricci_bound_reference(model, t, samples, seed)

            def unread(*args):
                raise AssertionError("the check computed the Ric + 2g route it never reads")

            monkeypatch.setattr(core, "_ricci_transverse_eq", unread)
            got = dh.ricci_bound_check(model, t, samples=samples, seed=seed)
            monkeypatch.undo()
            assert _bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want))
