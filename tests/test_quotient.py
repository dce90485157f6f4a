"""Spherical-harmonic transforms, fiber projection, and quotient geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakigeo import core, models, quotient as qt


@pytest.fixture(scope="module")
def grid():
    return qt.S2Grid(n_theta=64, n_phi=128, lmax=32)


@st.composite
def potentials(draw, grid_obj=None):
    """Seeded random potentials inside the positivity window."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = grid_obj or qt.S2Grid(n_theta=64, n_phi=128, lmax=32)
    return qt.random_potential(g, np.random.default_rng(seed))


class TestHarmonicTransforms:
    def test_roundtrip_is_machine_precision(self, grid):
        rng = np.random.default_rng(0)
        C = np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex)
        for l in range(grid.lmax + 1):
            C[l, : l + 1] = rng.normal(size=l + 1) + 1j * rng.normal(size=l + 1)
            C[l, 0] = C[l, 0].real  # m = 0 rows are real for real fields
        vals = grid.synthesize(C)
        back = grid.analyze(vals)
        assert np.max(np.abs(back - C)) < 1e-12

    def test_quotient_laplacian_multiplier(self, grid):
        # the complex transverse Laplacian acts on a degree-l harmonic as
        # multiplication by 2 l (l + 1); the quotient metric has curvature 4
        phi = qt.harmonic_potential(grid, 3, 2, 0.01)
        vals = phi.values
        mask = np.abs(vals) > 1e-5
        ratio = phi.box0()[mask] / vals[mask]
        assert np.max(np.abs(ratio - 2 * 3 * 4)) < 1e-9
        assert qt.QUOTIENT_CURVATURE == 4.0

    def test_mean_reads_the_constant_mode(self, grid):
        phi = qt.harmonic_potential(grid, 2, 1, 0.02)
        assert abs(phi.mean()) < 1e-15
        assert abs(phi.shifted(0.3).mean() - 0.3) < 1e-14
        vals = phi.shifted(0.3).values
        assert abs(grid.mean(vals) - 0.3) < 1e-13

    def test_pointwise_evaluation_matches_grid(self, grid):
        phi = qt.harmonic_potential(grid, 4, 3, 0.05)
        th = grid.theta[::8]
        ph = grid.phi[::16]
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        direct = grid.evaluate(phi.coeffs, TH.ravel(), PH.ravel())
        sub = phi.values[::8, ::16].ravel()
        assert np.max(np.abs(direct - sub)) < 1e-11

    def test_fields_synthesized_once_and_read_only(self, grid, monkeypatch):
        phi = qt.harmonic_potential(grid, 2, 1, 0.02).shifted(0.1)
        calls = []
        synthesize = grid.synthesize
        monkeypatch.setattr(grid, "synthesize", lambda C: calls.append(1) or synthesize(C))
        for _ in range(3):
            fields = (phi.values, phi.amplitude, phi.box0(), phi.u(), phi.min_density())
        assert len(calls) == 2  # the values and the box0 field, once each
        assert np.array_equal(phi.u(), 1.0 - synthesize(phi.coeffs * grid.box0_multiplier[:, None]))
        for field in (phi.values, phi.box0()):
            with pytest.raises(ValueError, match="read-only"):
                field += 1.0

    def test_batched_transforms_match_single_fields(self, grid):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((2, 3, grid.n_theta, grid.n_phi))
        C = grid.analyze(vals)
        assert C.shape == (2, 3, grid.lmax + 1, grid.lmax + 1)
        # reference: the quadrature order by order on one field
        F = np.fft.rfft(vals[1, 2], axis=1) * (2.0 * np.pi / grid.n_phi)
        ref = np.stack(
            [(grid.ptab[m] * grid.w) @ F[:, m] for m in range(grid.lmax + 1)], axis=1
        )
        assert np.max(np.abs(C[1, 2] - ref)) < 1e-14
        fields = grid.synthesize(C)
        assert fields.shape == vals.shape
        for i in range(2):
            for j in range(3):
                assert np.max(np.abs(C[i, j] - grid.analyze(vals[i, j]))) < 1e-15
                assert np.max(np.abs(fields[i, j] - grid.synthesize(C[i, j]))) < 1e-15
        # analysis of a band-limited stack inverts synthesis
        assert np.max(np.abs(grid.analyze(fields) - C)) < 1e-12

    def test_linear_combinations_carry_fields(self, grid, monkeypatch):
        a = qt.harmonic_potential(grid, 3, 1, 0.02)
        b = qt.harmonic_potential(grid, 2, 2, 0.01).shifted(0.1)
        combos = [a.scaled(-0.7), a.plus(b), b.minus(a), a.plus(b.minus(a).scaled(0.3))]
        fresh = [qt.BasicPotential(grid, c.coeffs.copy()) for c in combos]
        for p in (a, b, *fresh):
            p.values, p.box0()
        calls = []
        monkeypatch.setattr(grid, "synthesize", lambda C: calls.append(1))
        for combo, ref in zip(combos, fresh):
            assert np.max(np.abs(combo.values - ref.values)) < 1e-14
            assert np.max(np.abs(combo.box0() - ref.box0())) < 1e-14
            for field in (combo.values, combo.box0()):
                with pytest.raises(ValueError, match="read-only"):
                    field += 1.0
        assert calls == []  # built from the operands' fields, no transform

    @pytest.mark.parametrize(
        "n_theta, n_phi, lmax", [(64, 128, -1), (0, 128, 0), (64, 0, 0), (-1, -1, -2)]
    )
    def test_grid_rejects_empty_sizes(self, n_theta, n_phi, lmax):
        with pytest.raises(ValueError, match="lmax >= 0"):
            qt.S2Grid(n_theta=n_theta, n_phi=n_phi, lmax=lmax)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            qt.S2Grid(n_theta=16, n_phi=128, lmax=32)
        with pytest.raises(ValueError):
            qt.S2Grid(n_theta=64, n_phi=16, lmax=32)


class TestFiberProjection:
    def test_projection_lands_on_unit_sphere(self, s3):
        x = s3.random_points(np.random.default_rng(1), 200)
        n = qt.hopf_projection(x)
        assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-12

    def test_projection_constant_on_fibers(self, s3):
        # the fiber action rotates both complex coordinates simultaneously
        x = s3.random_points(np.random.default_rng(2), 100)
        for theta in (0.3, 1.2, 2.9):
            c, s = np.cos(theta), np.sin(theta)
            rot = np.empty_like(x)
            rot[:, 0] = c * x[:, 0] - s * x[:, 1]
            rot[:, 1] = s * x[:, 0] + c * x[:, 1]
            rot[:, 2] = c * x[:, 2] - s * x[:, 3]
            rot[:, 3] = s * x[:, 2] + c * x[:, 3]
            assert np.max(np.abs(qt.hopf_projection(rot) - qt.hopf_projection(x))) < 1e-12

    def test_angles_are_scale_invariant(self):
        n = np.array([0.3, -0.4, 0.5])
        t1, p1 = qt.sphere_angles(n)
        t2, p2 = qt.sphere_angles(7.0 * n)
        assert abs(t1 - t2) < 1e-14 and abs(p1 - p2) < 1e-14

    def test_fiber_length_is_full_circle(self, s3):
        length = qt.measure_fiber_length(s3)
        assert abs(length - 2.0 * np.pi) < 1e-6

    @pytest.mark.parametrize("mu", [0.6, 2.0])
    def test_fiber_length_of_deformed_sphere(self, mu):
        # the deformed Reeb field is mu times the round one
        length = qt.measure_fiber_length(models.get_model(f"s3-dhom:{mu}"))
        assert abs(length - 2.0 * np.pi / mu) < 1e-6

    def test_quotient_geometry_totals(self, s3, grid):
        geo = qt.quotient_geometry(s3, grid)
        assert abs(geo.area - np.pi) < 1e-10
        assert abs(geo.volume - 2.0 * np.pi**2) < 1e-6


class TestPotentials:
    def test_harmonic_amplitude_normalized(self, grid):
        phi = qt.harmonic_potential(grid, 5, 2, 0.03)
        assert abs(phi.amplitude - 0.03) < 1e-12

    def test_random_potential_stays_in_window(self, grid):
        for seed in range(8):
            phi = qt.random_potential(grid, np.random.default_rng(seed))
            assert phi.amplitude <= 0.05 + 1e-12
            assert phi.min_density() >= 0.7 - 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_values_rejects_non_finite(self, grid, bad):
        values = np.zeros((grid.n_theta, grid.n_phi))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qt.BasicPotential.from_values(grid, values)

    def test_positivity_guard(self, grid):
        big = qt.harmonic_potential(grid, 2, 1, 0.2)  # box0 peak way over 1
        with pytest.raises(qt.PositivityError) as err:
            big.require_positive()
        assert err.value.min_u < 0

    @settings(max_examples=10, deadline=None)
    @given(phi=potentials())
    def test_conformal_curvature_total_is_topological(self, phi):
        # Gauss-Bonnet on the quotient: the curvature of the deformed
        # transverse metric integrates to the same total for every potential,
        # which pins both the conformal-factor formula and its sign
        grid_obj = phi.grid
        s_t = qt.transverse_scalar_curvature(phi)
        gauss = s_t / (2.0 * 0.5)  # strip the scalar-trace calibration
        assert abs(grid_obj.mean(gauss * phi.u()) - 4.0) < 1e-9

    def test_round_structure_scalar_value(self, grid):
        zero = qt.BasicPotential.zero(grid)
        s_t = qt.transverse_scalar_curvature(zero)
        assert np.max(np.abs(s_t - 4.0)) < 1e-12


class TestLaplacianCompatibility:
    def test_pullback_laplacian_identity(self, s3, grid):
        # the full Laplacian of a pulled-back potential equals twice the
        # transverse complex Laplacian of its quotient representative
        phi = qt.harmonic_potential(grid, 2, 1, 0.02)
        pts = s3.random_points(np.random.default_rng(3), 40)
        residual = core.riemannian_laplacian_check(s3, phi, pts)
        assert residual < 1e-5

    def test_non_basic_function_rejected(self, s3):
        class NotBasic:
            def pullback(self, x):
                return x[..., 0]

            def box_pullback(self, x):
                return np.zeros(x.shape[:-1])

        pts = s3.random_points(np.random.default_rng(4), 10)
        with pytest.raises(ValueError, match="basic"):
            core.riemannian_laplacian_check(s3, NotBasic(), pts)
