"""Transported frames, admissible fields, variation identities, certificates."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from sasakigeo import core, dhomothety as dh, models, subriemannian as sr, variations as va


def unit_speed_path(model, seed, t_end=2.0, steps=2000, a0=0.6):
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, 1)[0]
    u = model.random_unit_horizontal(rng, x[None])[0]
    state = sr.CotangentState.make(model, x, model.covector_from(x, u, a0))
    return sr.integrate_geodesic(model, state, t_end, steps)


def _transport_per_slot(model, path, X_init):
    """The frame by RK4 on the transport rule one slot at a time: the loop oracle."""

    def rhs(j, Y):
        x, v = path.points[j], path.velocities[j]
        pv = model.phi(x, v)
        xb, vb = np.broadcast_to(x, Y.shape), np.broadcast_to(v, Y.shape)
        corr = model.metric(xb, Y, np.broadcast_to(pv, Y.shape))
        return -model.gamma(xb, vb, Y) - corr[..., None] * model.reeb(x)

    X = np.stack(X_init)
    h2 = 2.0 * path.step
    out = [X]
    for j in range(0, path.t.shape[0] - 1, 2):
        k1 = rhs(j, X)
        k2 = rhs(j + 1, X + 0.5 * h2 * k1)
        k3 = rhs(j + 1, X + 0.5 * h2 * k2)
        k4 = rhs(j + 2, X + h2 * k3)
        X = X + (h2 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        X = model.tangent_project(np.broadcast_to(path.points[j + 2], X.shape), X)
        out.append(X)
    return np.stack(out, axis=1)


class TestFrameTransport:
    @pytest.mark.parametrize("mu", [None, 1.7])
    def test_step_matrix_product_matches_slot_loop(self, s5, mu):
        model = s5 if mu is None else dh.apply(s5, mu)
        path = unit_speed_path(model, 47, t_end=1.2, steps=1200)
        init = va.initial_transverse_frame(model, path)
        frame = va.transport_frame(model, path, init)
        expected = _transport_per_slot(model, path, init)
        assert frame.vectors.shape == expected.shape == (2, 601, 6)
        assert np.max(np.abs(frame.vectors - expected)) < 1e-12

    def test_heisenberg_frame_is_empty(self, heis):
        path = unit_speed_path(heis, 48)
        frame = va.transport_frame(heis, path, va.initial_transverse_frame(heis, path))
        assert frame.vectors.shape == (0, 1001, 3)

    def test_s5_frame_invariants(self, s5):
        path = unit_speed_path(s5, 41)
        frame = va.transport_frame(s5, path, va.initial_transverse_frame(s5, path))
        assert frame.n_vectors == 2 * (s5.n - 1) == 2
        rep = va.frame_report(s5, frame)
        assert rep.passed()
        assert rep.transport_residual < 1e-8
        assert rep.orthonormality_residual < 1e-8
        # components along the velocity and its rotation stay pinned at zero
        assert rep.f1_max < 1e-10 and rep.f2_max < 1e-10
        assert rep.horizontality_max < 1e-10

    def test_s3_frame_is_empty(self, s3):
        path = unit_speed_path(s3, 42)
        frame = va.transport_frame(s3, path, va.initial_transverse_frame(s3, path))
        assert frame.n_vectors == 0
        assert va.frame_report(s3, frame).passed()

    def test_odd_step_count_rejected(self, s5):
        path = unit_speed_path(s5, 43, steps=2001)
        with pytest.raises(ValueError, match="even number of steps"):
            va.transport_frame(s5, path, va.initial_transverse_frame(s5, path))

    def test_non_orthonormal_initial_frame_rejected(self, s5):
        path = unit_speed_path(s5, 44)
        init = va.initial_transverse_frame(s5, path)
        init[0] = 2.0 * init[0]
        with pytest.raises(ValueError, match="orthonormal"):
            va.transport_frame(s5, path, init)

    def test_frame_bound_to_its_path(self, s5):
        path_a = unit_speed_path(s5, 45)
        path_b = unit_speed_path(s5, 46)
        frame = va.transport_frame(s5, path_a, va.initial_transverse_frame(s5, path_a))
        with pytest.raises(ValueError, match="different path"):
            va.check_variation_identities(s5, path_b, frame)


class TestAdmissibility:
    def test_standard_fields_are_admissible(self, s5):
        path = unit_speed_path(s5, 51)
        frame = va.transport_frame(s5, path, va.initial_transverse_frame(s5, path))
        fields = va.sine_frame_fields(s5, frame) + [va.phi_reeb_field(s5, path)]
        assert len(fields) == 3
        for f in fields:
            assert f.admissible()
            assert f.admissibility_residual < 1e-6

    def test_uncompensated_rotation_field_rejected(self, s3):
        # h * phi(velocity) alone violates the horizontal-variation relation:
        # the relation demands a growing Reeb component that this field lacks
        path = unit_speed_path(s3, 52)
        h = np.sin(2.0 * math.pi * path.t / path.t[-1])
        values = h[:, None] * s3.phi(path.points, path.velocities)
        with pytest.raises(va.AdmissibilityError) as err:
            bad = va.make_variation_field(s3, path, values, label="uncompensated")
            va.second_variation(s3, path, bad)
        assert err.value.residual > 1e-3

    def test_first_variation_vanishes(self, s3, s3_minimizer):
        path, _ = s3_minimizer
        f = va.phi_reeb_field(s3, path)
        assert abs(va.first_variation(s3, f)) < 1e-8


class TestVariationIdentities:
    @pytest.mark.parametrize("key,seed", [("s3", 61), ("s5", 62), ("heisenberg", 63)])
    def test_identities_on_generic_geodesics(self, key, seed):
        # the pointwise identities hold on any unit-speed normal geodesic,
        # minimizing or not
        model = models.get_model(key)
        path = unit_speed_path(model, seed, t_end=1.8)
        frame = va.transport_frame(model, path, va.initial_transverse_frame(model, path))
        rep = va.check_variation_identities(model, path, frame)
        assert rep.passed()
        assert rep.phi_reeb_second_derivative < 1e-6
        assert rep.phi_reeb_curvature < 1e-9

    def test_sum_identity(self, s5):
        # the summed second variation equals the sine-weighted curvature
        # integral that drives the diameter bound
        path = unit_speed_path(s5, 64)
        frame = va.transport_frame(s5, path, va.initial_transverse_frame(s5, path))
        rep = va.second_variation_sum(s5, path, frame)
        assert rep.residual < 1e-6


class TestSecondVariation:
    def test_positive_on_minimizers(self, s3, s3_minimizer):
        path, _ = s3_minimizer
        e2 = va.second_variation(s3, path, va.phi_reeb_field(s3, path))
        assert e2 > -1e-5

    def test_heisenberg_line_oracle(self, heis):
        # straight horizontal line of length 2: transverse curvature vanishes
        # so the summed second variation is the bare quadrature
        # int_0^2 (pi)^2 sin^2(pi t) dt = pi^2
        x0 = np.zeros(3)
        u = np.array([1.0, 0.0, 0.0])
        state = sr.CotangentState.make(heis, x0, heis.covector_from(x0, u, 0.0))
        path = sr.integrate_geodesic(heis, state, 2.0, 2000)
        frame = va.transport_frame(heis, path, va.initial_transverse_frame(heis, path))
        rep = va.second_variation_sum(heis, path, frame)
        assert abs(rep.total_second_variation - math.pi**2) < 1e-6

    def test_too_few_samples_rejected(self, s3):
        path = unit_speed_path(s3, 65, steps=20)
        f = va.phi_reeb_field(s3, path)
        with pytest.raises(ValueError, match="quadrature"):
            va.second_variation(s3, path, f)


class TestMyersCertificate:
    def test_requires_positive_tau(self, heis):
        path = unit_speed_path(heis, 71)
        with pytest.raises(ValueError, match="tau"):
            va.myers_certificate(heis, path, 0.0, minimizing=True)

    def test_requires_minimizing_flag(self, s3):
        path = unit_speed_path(s3, 72)
        with pytest.raises(ValueError, match="minimizing"):
            va.myers_certificate(s3, path, 4.0)

    def test_certificate_on_minimizer(self, s3, s3_minimizer):
        path, result = s3_minimizer
        cert = va.myers_certificate(s3, path, s3.tau, minimizing=result.converged)
        assert cert.passed
        assert cert.length_within_bound
        assert abs(cert.bound - math.pi) < 1e-12


class TestMyersClosedForm:
    """The certificate integral in closed form, across the length bound.

    Sub-mode geodesics are horizontal, and ``Ric^T(v, v) = tau`` for unit
    horizontal ``v`` on the round spheres and ``s3-dhom:mu``, so the integral
    of :func:`va._myers_integrand` over a geodesic of length ``L`` is
    ``(L/2)((2 pi/L)^2 (2n - 1) - tau)``: positive below the bound, zero at
    it and negative beyond, where the geodesic cannot minimize.
    """

    @pytest.mark.parametrize("key", ["s3", "s5", "s3-dhom:2.0"])
    def test_sign_changes_at_the_bound(self, key):
        model = models.get_model(key)
        bound = sr._myers_bound(model.n, model.tau)
        integrals = []
        for factor in (0.9, 1.0, 1.1):
            length = factor * bound
            path = unit_speed_path(
                model, 81, t_end=length, steps=2 * round(length / 4e-3), a0=0.3
            )
            integral = float(simpson(va._myers_integrand(model, path), x=path.t))
            w = 2.0 * math.pi / length
            closed = 0.5 * length * (w * w * (2 * model.n - 1) - model.tau)
            assert abs(integral - closed) < 1e-8, (factor, integral, closed)
            integrals.append(integral)
        assert integrals[0] > 0.0 and abs(integrals[1]) < 1e-8 and integrals[2] < 0.0
        # beyond the bound the phi-Reeb field shortens the geodesic
        e2 = va.second_variation(model, path, va.phi_reeb_field(model, path))
        assert e2 < 0.0


def _myers_integrand_reference(model, path):
    """The certificate integrand read off both routes of ``ricci_transverse``, as it was."""
    w, h = va._sine_profile(path.t, float(path.t[-1]))
    _, ric_t = core.ricci_transverse(model, path.points, path.velocities, path.velocities)
    return h**2 * (w**2 * (2 * model.n - 1) - ric_t)


class TestMyersIntegrandRoute:
    """The integrand computes only the ``Ric + 2 g`` route it reads."""

    @pytest.mark.parametrize("key", ["s3", "s5", "heisenberg", "s3-dhom:2.0"])
    def test_equals_the_reference(self, key, monkeypatch):
        model = models.get_model(key)
        # 1201 samples sum the dot products by columns, 41 reduce them
        for steps in (1200, 40):
            path = unit_speed_path(model, 5, t_end=1.2, steps=steps)
            want = _myers_integrand_reference(model, path)

            def unread(*args):
                raise AssertionError("the integrand computed the trace route it never reads")

            monkeypatch.setattr(core, "transverse_curvature", unread)
            got = va._myers_integrand(model, path)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes()
