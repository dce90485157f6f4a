"""Transverse quotient of the 3-sphere model: grid, potentials, curvature.

The Reeb orbits of the 3-sphere model are the fibers of the classical
fibration onto a 2-sphere; basic functions (those killed by the Reeb
derivative) are exactly pullbacks of functions on that quotient.  The
quotient carries one quarter of the round metric (curvature 4, area pi).
This module provides:

* ``S2Grid`` — Gauss-Legendre x trapezoid quadrature with spherical-harmonic
  analysis/synthesis built on a stable normalized associated-Legendre
  recurrence (no dependence on special-function libraries).
* ``BasicPotential`` — a band-limited potential on the quotient with its
  pullback to the 3-sphere and the operators entering the deformed
  structures: the basic complex Laplacian (harmonic multiplier 2l(l+1)), the
  deformed transverse density u = 1 - box0(phi), and the deformed transverse
  scalar curvature.
* fibration helpers — the quotient map, a measured Reeb fiber length, and
  the resulting total volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SasakiModel

__all__ = [
    "S2Grid",
    "BasicPotential",
    "PositivityError",
    "hopf_projection",
    "sphere_angles",
    "random_potential",
    "harmonic_potential",
    "measure_fiber_length",
    "QuotientGeometry",
    "quotient_geometry",
    "transverse_scalar_curvature",
]

QUOTIENT_CURVATURE = 4.0  # Gauss curvature of the quarter-round quotient


def _legendre_tables(lmax: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values P[m, l, i] at nodes x.

    Normalization: with Y_lm = P_lm(cos theta) e^{i m phi}, the Y_lm are
    orthonormal for the round unit-sphere area element.  Standard three-term
    recurrence in l at fixed m; stable for the moderate degrees used here.
    """
    n = x.shape[0]
    P = np.zeros((lmax + 1, lmax + 1, n))
    sx = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    P[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, lmax + 1):
        P[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sx * P[m - 1, m - 1]
    for m in range(lmax + 1):
        if m + 1 <= lmax:
            P[m, m + 1] = np.sqrt(2.0 * m + 3.0) * x * P[m, m]
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[m, l] = a * (x * P[m, l - 1] - b * P[m, l - 2])
    return P


class S2Grid:
    """Quadrature and harmonic transforms on the transverse quotient sphere.

    Colatitude nodes are Gauss-Legendre in cos(theta); azimuth is a uniform
    trapezoid grid (exact for trigonometric polynomials).  Fields are arrays
    of shape (n_theta, n_phi); coefficients are complex arrays C[l, m] for
    0 <= m <= l <= lmax, with the m < 0 content implied by reality.
    """

    def __init__(self, n_theta: int = 64, n_phi: int = 128, lmax: int = 32):
        if lmax >= n_theta:
            raise ValueError("need n_theta > lmax for exact analysis")
        if n_phi < 2 * lmax + 2:
            raise ValueError("need n_phi >= 2*lmax + 2 to resolve azimuth orders")
        self.n_theta = n_theta
        self.n_phi = n_phi
        self.lmax = lmax
        x, w = np.polynomial.legendre.leggauss(n_theta)
        self.x = x
        self.w = w
        self.theta = np.arccos(x)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.ptab = _legendre_tables(lmax, x)
        ls = np.arange(lmax + 1, dtype=float)
        self.box0_multiplier = 2.0 * ls * (ls + 1.0)  # basic complex Laplacian
        self.laplace_multiplier = 4.0 * ls * (ls + 1.0)  # quotient Laplace-Beltrami
        # quotient measure is one quarter of the round area element
        self.area = 0.25 * float(np.sum(w)) * 2.0 * np.pi

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Field on the grid -> coefficients C[l, m]."""
        F = np.fft.rfft(values, axis=1) * (2.0 * np.pi / self.n_phi)
        C = np.zeros((self.lmax + 1, self.lmax + 1), dtype=complex)
        for m in range(self.lmax + 1):
            C[:, m] = (self.ptab[m] * self.w) @ F[:, m]
        return C

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """Coefficients -> field on the grid."""
        H = np.zeros((self.n_theta, self.n_phi // 2 + 1), dtype=complex)
        for m in range(self.lmax + 1):
            H[:, m] = self.ptab[m].T @ C[:, m]
        return np.fft.irfft(H * self.n_phi, n=self.n_phi, axis=1)

    def mean(self, values: np.ndarray) -> float:
        """Average against the quotient area form (equals the round mean)."""
        return float(self.w @ values.mean(axis=1)) / float(np.sum(self.w))

    def evaluate(self, C: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Pointwise synthesis at arbitrary angles (vectorized over points)."""
        x = np.cos(np.asarray(theta, dtype=float))
        ptab = _legendre_tables(self.lmax, np.atleast_1d(x).ravel())
        shape = np.shape(theta)
        phi_flat = np.atleast_1d(np.asarray(phi, dtype=float)).ravel()
        out = np.zeros(phi_flat.shape)
        for m in range(self.lmax + 1):
            gm = np.einsum("l,ln->n", C[:, m], ptab[m])
            if m == 0:
                out = out + gm.real
            else:
                out = out + 2.0 * (gm * np.exp(1j * m * phi_flat)).real
        return out.reshape(shape) if shape else float(out[0])


class PositivityError(ValueError):
    """The deformed transverse form fails to be positive."""

    def __init__(self, min_u: float, context: str = ""):
        self.min_u = min_u
        msg = f"deformed transverse form not positive (min density {min_u:.4f})"
        if context:
            msg += f" {context}"
        super().__init__(msg)


def hopf_projection(x: np.ndarray) -> np.ndarray:
    """Quotient map of the 3-sphere model onto the unit 2-sphere.

    Constant on Reeb orbits of the model (simultaneous phase rotation of the
    two coordinate pairs).
    """
    x = np.asarray(x, dtype=float)
    x0, x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    return np.stack(
        [
            2.0 * (x0 * x2 + x1 * x3),
            2.0 * (x0 * x3 - x1 * x2),
            x0 * x0 + x1 * x1 - x2 * x2 - x3 * x3,
        ],
        axis=-1,
    )


def sphere_angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Colatitude/azimuth of 3-vectors, scale-invariant.

    Normalizing before taking angles makes pullbacks through the quotient
    map homogeneous of degree zero in the ambient coordinates, which is what
    the finite-difference Laplacian check requires.
    """
    n = np.asarray(n, dtype=float)
    r = np.linalg.norm(n, axis=-1)
    theta = np.arccos(np.clip(n[..., 2] / np.maximum(r, 1e-300), -1.0, 1.0))
    phi = np.arctan2(n[..., 1], n[..., 0])
    return theta, phi


def _read_only(field: np.ndarray) -> np.ndarray:
    field.setflags(write=False)
    return field


@dataclass
class BasicPotential:
    """A potential on the quotient sphere, pulled back to a basic function.

    All derived fields live on the grid: ``box0`` is the basic complex
    Laplacian (2 l(l+1) multiplier), ``u = 1 - box0(phi)`` the density of the
    deformed transverse area form relative to the undeformed one.  The values
    and ``box0`` are synthesized once per potential (the coefficients are
    never changed in place) and handed out read-only; ``u`` is a fresh array
    (caching it too would hold a third grid field per potential).
    """

    grid: S2Grid
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, grid: S2Grid, values: np.ndarray) -> "BasicPotential":
        return cls(grid, grid.analyze(np.asarray(values, dtype=float)))

    @classmethod
    def zero(cls, grid: S2Grid) -> "BasicPotential":
        return cls(grid, np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex))

    @cached_property
    def values(self) -> np.ndarray:
        return _read_only(self.grid.synthesize(self.coeffs))

    @property
    def amplitude(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def _box0(self) -> np.ndarray:
        return _read_only(self.grid.synthesize(self.coeffs * self.grid.box0_multiplier[:, None]))

    def box0(self) -> np.ndarray:
        return self._box0

    def u(self) -> np.ndarray:
        return 1.0 - self._box0

    def min_density(self) -> float:
        return float(np.min(self.u()))

    def require_positive(self, context: str = "") -> None:
        m = self.min_density()
        if m <= 0.0:
            raise PositivityError(m, context)

    def shifted(self, constant: float) -> "BasicPotential":
        C = self.coeffs.copy()
        C[0, 0] += constant * np.sqrt(4.0 * np.pi)
        return BasicPotential(self.grid, C)

    def scaled(self, factor: float) -> "BasicPotential":
        return BasicPotential(self.grid, self.coeffs * factor)

    def plus(self, other: "BasicPotential") -> "BasicPotential":
        return BasicPotential(self.grid, self.coeffs + other.coeffs)

    def minus(self, other: "BasicPotential") -> "BasicPotential":
        return BasicPotential(self.grid, self.coeffs - other.coeffs)

    def mean(self) -> float:
        return float(self.coeffs[0, 0].real / np.sqrt(4.0 * np.pi))

    # -- pullbacks to the 3-sphere -------------------------------------------

    def pullback(self, x: np.ndarray) -> np.ndarray:
        """Value of the potential at 3-sphere points (a basic function)."""
        theta, phi = sphere_angles(hopf_projection(x))
        return self.grid.evaluate(self.coeffs, theta, phi)

    def box_pullback(self, x: np.ndarray) -> np.ndarray:
        """Pullback of the basic complex Laplacian of the potential."""
        theta, phi = sphere_angles(hopf_projection(x))
        C = self.coeffs * self.grid.box0_multiplier[:, None]
        return self.grid.evaluate(C, theta, phi)


def harmonic_potential(
    grid: S2Grid, l: int, m: int = 0, amplitude: float = 0.01
) -> BasicPotential:
    """A single-harmonic potential scaled to the requested max amplitude."""
    if not 0 <= m <= l <= grid.lmax:
        raise ValueError("need 0 <= m <= l <= lmax")
    C = np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex)
    C[l, m] = 1.0
    pot = BasicPotential(grid, C)
    peak = pot.amplitude
    return pot.scaled(amplitude / peak)


def random_potential(
    grid: S2Grid,
    rng: np.random.Generator,
    lmax: int = 8,
    max_amplitude: float = 0.05,
    max_box_amplitude: float = 0.3,
    include_mean: bool = False,
) -> BasicPotential:
    """Random low-degree potential scaled well inside the positivity window."""
    lmax = min(lmax, grid.lmax)
    C = np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex)
    for l in range(0 if include_mean else 1, lmax + 1):
        C[l, 0] = rng.standard_normal()
        for m in range(1, l + 1):
            C[l, m] = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    pot = BasicPotential(grid, C)
    peak = pot.amplitude
    box_peak = float(np.max(np.abs(pot.box0())))
    scale = min(max_amplitude / peak, max_box_amplitude / max(box_peak, 1e-30))
    return pot.scaled(scale)


def transverse_scalar_curvature(
    potential: BasicPotential, calibration: float = 0.5
) -> np.ndarray:
    """Scalar curvature field of the deformed transverse metric.

    The deformed quotient metric is conformal, ``u`` times the undeformed
    one, so its Gauss curvature is ``(4 + (1/2) Lap log u) / u`` with ``Lap``
    the undeformed quotient Laplace-Beltrami operator.  ``calibration``
    converts the real scalar trace (twice the Gauss curvature) into the trace
    convention under which the undeformed structure is a critical point of
    the curvature energy; 1/2 selects the Gauss curvature itself.
    """
    grid = potential.grid
    u = potential.u()
    if np.min(u) <= 0.0:
        raise PositivityError(float(np.min(u)), "while computing scalar curvature")
    logu = np.log(u)
    lap_logu = grid.synthesize(
        grid.analyze(logu) * grid.laplace_multiplier[:, None]
    )
    gauss = (QUOTIENT_CURVATURE + 0.5 * lap_logu) / u
    return calibration * 2.0 * gauss


def measure_fiber_length(
    model: SasakiModel, x0: np.ndarray | None = None, step: float = 1e-3
) -> float:
    """Length of a Reeb orbit, measured by integrating the Reeb flow.

    Follows ``x' = xi(x)`` from ``x0`` and locates the first return to the
    start by parabolic interpolation of the squared distance.  The Reeb field
    has unit length, so flow time is arc length.
    """
    if x0 is None:
        x0 = model.random_points(np.random.default_rng(2), 1)[0]
    x = np.asarray(x0, dtype=float)

    def rhs(y):
        return model.reeb(y)

    t_cap = 16.0
    n = int(round(t_cap / step))
    d2 = np.empty(n + 1)
    d2[0] = 0.0
    traj_prev = x
    best = None
    for i in range(1, n + 1):
        k1 = rhs(traj_prev)
        k2 = rhs(traj_prev + 0.5 * step * k1)
        k3 = rhs(traj_prev + 0.5 * step * k2)
        k4 = rhs(traj_prev + step * k3)
        traj_prev = traj_prev + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        d2[i] = float(np.sum((traj_prev - x) ** 2))
        if i > 2 and d2[i - 1] < min(d2[i], d2[i - 2]) and d2[i - 1] < 1e-2:
            dm, d0, dp = d2[i - 2], d2[i - 1], d2[i]
            denom = dm - 2.0 * d0 + dp
            off = 0.5 * (dm - dp) / denom if abs(denom) > 1e-300 else 0.0
            best = ((i - 1) + off) * step
            break
    if best is None:
        raise RuntimeError("Reeb orbit did not return within the time cap")
    return float(best)


@dataclass
class QuotientGeometry:
    """Measured fibration data: fiber length, quotient area, total volume."""

    fiber_length: float
    area: float

    @property
    def volume(self) -> float:
        return self.fiber_length * self.area


def quotient_geometry(model: SasakiModel, grid: S2Grid) -> QuotientGeometry:
    return QuotientGeometry(measure_fiber_length(model), grid.area)
