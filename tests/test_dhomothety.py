"""Deformation algebra: scaling laws, structure preservation, curvature facts."""

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
