"""Transverse quotient of the 3-sphere model: grid, potentials, curvature.

The Reeb orbits of the 3-sphere model are the fibers of the classical
fibration onto a 2-sphere; basic functions (those killed by the Reeb
derivative) are exactly pullbacks of functions on that quotient.  The
quotient carries one quarter of the round metric (curvature 4, area pi).
This module provides:

* ``S2Grid`` — Gauss-Legendre x trapezoid quadrature with spherical-harmonic
  analysis/synthesis built on a stable normalized associated-Legendre
  recurrence (no dependence on special-function libraries).  Both transforms
  take stacks of fields or coefficients and contract every azimuthal order
  in one matrix product.
* ``BasicPotential`` — a band-limited potential on the quotient with its
  pullback to the 3-sphere and the operators entering the deformed
  structures: the basic complex Laplacian (harmonic multiplier 2l(l+1)), the
  deformed transverse density u = 1 - box0(phi), and the deformed transverse
  scalar curvature.  Grid fields are carried through linear combinations,
  so a path node between two potentials costs no transform.
* fibration helpers — the quotient map, a Reeb fiber length measured along
  the model's exact Reeb flow, and the resulting total volume.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SasakiModel
from .numdiff import _parabolic_vertex

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


# Fields per block of a batched transform: bounds the temporary memory of a
# long stack (about 1 MB at the default 64 x 128 grid) instead of
# transforming it whole.
_TRANSFORM_BLOCK = 8


class S2Grid:
    """Quadrature and harmonic transforms on the transverse quotient sphere.

    Colatitude nodes are Gauss-Legendre in cos(theta); azimuth is a uniform
    trapezoid grid (exact for trigonometric polynomials).  Fields are arrays
    of shape (n_theta, n_phi); coefficients are complex arrays C[l, m] for
    0 <= m <= l <= lmax, with the m < 0 content implied by reality.  Both
    transforms accept leading batch axes, (..., n_theta, n_phi) and
    (..., lmax + 1, lmax + 1).
    """

    def __init__(self, n_theta: int = 64, n_phi: int = 128, lmax: int = 32):
        if lmax < 0 or n_theta < 1 or n_phi < 1:
            raise ValueError("need lmax >= 0 and n_theta, n_phi >= 1")
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
        self._analysis = self.ptab * w  # [m, l, i]: quadrature-weighted tables
        ls = np.arange(lmax + 1, dtype=float)
        self.box0_multiplier = 2.0 * ls * (ls + 1.0)  # basic complex Laplacian
        self.laplace_multiplier = 4.0 * ls * (ls + 1.0)  # quotient Laplace-Beltrami
        # quotient measure is one quarter of the round area element
        self.area = 0.25 * float(np.sum(w)) * 2.0 * np.pi

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Fields on the grid (..., n_theta, n_phi) -> coefficients C[..., l, m]."""
        values = np.asarray(values, dtype=float)
        lead = values.shape[:-2]
        stack = values.reshape((-1, self.n_theta, self.n_phi))
        C = np.empty((stack.shape[0], self.lmax + 1, self.lmax + 1), dtype=complex)
        for k in range(0, stack.shape[0], _TRANSFORM_BLOCK):
            F = np.fft.rfft(stack[k:k + _TRANSFORM_BLOCK], axis=-1)[..., : self.lmax + 1]
            F *= 2.0 * np.pi / self.n_phi
            C[k:k + _TRANSFORM_BLOCK] = _by_order(self._analysis, F)
        return C.reshape(lead + C.shape[1:])

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """Coefficients C[..., l, m] -> fields on the grid (..., n_theta, n_phi)."""
        C = np.asarray(C)
        lead = C.shape[:-2]
        stack = C.reshape((-1, self.lmax + 1, self.lmax + 1))
        out = np.empty((stack.shape[0], self.n_theta, self.n_phi))
        for k in range(0, stack.shape[0], _TRANSFORM_BLOCK):
            block = stack[k:k + _TRANSFORM_BLOCK]
            H = np.zeros((len(block), self.n_theta, self.n_phi // 2 + 1), dtype=complex)
            H[..., : self.lmax + 1] = _by_order(self.ptab.transpose(0, 2, 1), block * self.n_phi)
            out[k:k + len(block)] = np.fft.irfft(H, n=self.n_phi, axis=-1)
        return out.reshape(lead + out.shape[1:])

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


def _by_order(tables: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``out[b, r, m] = sum_c tables[m, r, c] X[b, c, m]``: every order in one matmul.

    The real tables act on the real and imaginary parts of the stack side by
    side, so the product stays real.
    """
    B = X.shape[0]
    Xm = X.transpose(2, 1, 0)  # [m, c, b]
    out = tables @ np.concatenate([Xm.real, Xm.imag], axis=-1)  # [m, r, 2b]
    return (out[..., :B] + 1j * out[..., B:]).transpose(2, 1, 0)


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
    deformed transverse area form relative to the undeformed one.  A
    potential made from coefficients synthesizes its values and ``box0`` once
    each (the coefficients are never changed in place) and hands them out
    read-only; ``u`` is a fresh array (caching it too would hold a third grid
    field per potential).

    Synthesis is linear, so a potential made by ``scaled``, ``plus`` or
    ``minus`` keeps its terms, weights on potentials made from coefficients,
    and forms each field on request, read-only, as the same combination of
    theirs: a path node between two potentials costs no transform, and a
    path holds no grid field of its own.
    """

    grid: S2Grid
    coeffs: np.ndarray
    # (weight, potential) pairs of a linear combination, over potentials
    # made from coefficients; empty for one made from coefficients
    _terms = ()

    @classmethod
    def from_values(cls, grid: S2Grid, values: np.ndarray) -> "BasicPotential":
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("potential values are non-finite (NaN or inf)")
        return cls(grid, grid.analyze(values))

    @classmethod
    def zero(cls, grid: S2Grid) -> "BasicPotential":
        """The zero potential; its fields are zero without a transform."""
        out = cls(grid, np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex))
        out._values = out._box0 = _read_only(np.zeros((grid.n_theta, grid.n_phi)))
        return out

    @cached_property
    def _values(self) -> np.ndarray:
        return _read_only(self.grid.synthesize(self.coeffs))

    @cached_property
    def _box0(self) -> np.ndarray:
        return _read_only(self.grid.synthesize(self.coeffs * self.grid.box0_multiplier[:, None]))

    def _field(self, name: str) -> np.ndarray:
        """The cached field ``name``, or for a combination the weighted sum of its terms'."""
        if not self._terms:
            return getattr(self, name)
        (w, p), *rest = self._terms
        out = w * getattr(p, name)
        for w, p in rest:
            out += w * getattr(p, name)
        return _read_only(out)

    @property
    def values(self) -> np.ndarray:
        return self._field("_values")

    @property
    def amplitude(self) -> float:
        return float(np.max(np.abs(self.values)))

    def box0(self) -> np.ndarray:
        return self._field("_box0")

    def u(self) -> np.ndarray:
        return 1.0 - self.box0()

    def min_density(self) -> float:
        return float(np.min(self.u()))

    def require_positive(self) -> None:
        m = self.min_density()
        if m <= 0.0:
            raise PositivityError(m)

    def shifted(self, constant: float) -> "BasicPotential":
        C = self.coeffs.copy()
        C[0, 0] += constant * np.sqrt(4.0 * np.pi)
        return BasicPotential(self.grid, C)

    def scaled(self, factor: float) -> "BasicPotential":
        return self._combined(self.coeffs * factor, [(factor, self)])

    def plus(self, other: "BasicPotential") -> "BasicPotential":
        return self._combined(self.coeffs + other.coeffs, [(1.0, self), (1.0, other)])

    def minus(self, other: "BasicPotential") -> "BasicPotential":
        return self._combined(self.coeffs - other.coeffs, [(1.0, self), (-1.0, other)])

    def _combined(
        self, coeffs: np.ndarray, terms: list[tuple[float, "BasicPotential"]]
    ) -> "BasicPotential":
        """``sum w p`` over ``terms``, kept as weights on potentials made from coefficients."""
        weights = {}
        for w, p in terms:
            for v, base in p._terms or [(1.0, p)]:
                weights[id(base)] = (weights.get(id(base), (0.0, base))[0] + w * v, base)
        out = BasicPotential(self.grid, coeffs)
        out._terms = tuple(weights.values())
        return out

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
) -> BasicPotential:
    """Random potential of degrees 1 to ``lmax`` (no mean), inside the positivity window.

    Scaled so that its peak is at most ``max_amplitude`` and that of
    ``box0`` at most 0.3, which keeps the density ``u`` at 0.7 or more.
    """
    lmax = min(lmax, grid.lmax)
    C = np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex)
    for l in range(1, lmax + 1):
        C[l, 0] = rng.standard_normal()
        for m in range(1, l + 1):
            C[l, m] = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    pot = BasicPotential(grid, C)
    peak = pot.amplitude
    box_peak = float(np.max(np.abs(pot.box0())))
    scale = min(max_amplitude / peak, 0.3 / max(box_peak, 1e-30))
    return pot.scaled(scale)


def transverse_scalar_curvature(
    potentials: BasicPotential | Iterable[BasicPotential], calibration: float = 0.5
) -> np.ndarray:
    """Scalar curvature field of the deformed transverse metric.

    The deformed quotient metric is conformal, ``u`` times the undeformed
    one, so its Gauss curvature is ``(4 + (1/2) Lap log u) / u`` with ``Lap``
    the undeformed quotient Laplace-Beltrami operator.  ``calibration``
    converts the real scalar trace (twice the Gauss curvature) into the trace
    convention under which the undeformed structure is a critical point of
    the curvature energy; 1/2 selects the Gauss curvature itself.

    ``potentials`` is one potential, giving one field, or a sequence of
    potentials on one grid, giving the stacked fields (K, n_theta, n_phi)
    from one batched analysis and one batched synthesis.
    """
    single = isinstance(potentials, BasicPotential)
    stack = [potentials] if single else list(potentials)
    grid = stack[0].grid
    u = np.empty((len(stack), grid.n_theta, grid.n_phi))
    for k, p in enumerate(stack):
        u[k] = p.u()
    if np.min(u) <= 0.0:
        raise PositivityError(float(np.min(u)), "while computing scalar curvature")
    scalar = _gauss_curvature(grid, u)
    scalar *= calibration * 2.0
    return scalar[0] if single else scalar


def _gauss_curvature(grid: S2Grid, u: np.ndarray) -> np.ndarray:
    """``(4 + (1/2) Lap log u) / u`` of the stacked positive densities ``u`` (K, n_theta, n_phi).

    The Gauss curvature of the deformed quotient metric, from one batched
    analysis and one batched synthesis; :func:`transverse_scalar_curvature`
    scales it by ``calibration * 2.0``.
    """
    coeffs = grid.analyze(np.log(u))
    coeffs *= grid.laplace_multiplier[:, None]
    scalar = grid.synthesize(coeffs)  # Lap log u
    del coeffs
    scalar *= 0.5
    scalar += QUOTIENT_CURVATURE
    scalar /= u
    return scalar


# Flow times per block of the fiber measurement: bounds the sampled orbit's
# memory while stopping soon after the first return.
_FIBER_BLOCK = 1024


def measure_fiber_length(model: SasakiModel) -> float:
    """Length of a Reeb orbit, measured along the model's exact Reeb flow.

    Samples ``model.reeb_flow`` from the model's first random point at seed
    2, at multiples of 1e-3 up to 16, in vectorized blocks of times, and
    locates the first return to the start by parabolic interpolation of the
    squared distance around the first sampled local minimum below 1e-2.  The
    Reeb field has unit length, so flow time is arc length.
    """
    x = model.random_points(np.random.default_rng(2), 1)[0]
    step, t_cap = 1e-3, 16.0
    n = int(round(t_cap / step))
    d2 = np.empty(n + 1)
    for k in range(0, n + 1, _FIBER_BLOCK):
        i = np.arange(k, min(k + _FIBER_BLOCK, n + 1))
        diff = model.reeb_flow(np.broadcast_to(x, (i.size, x.size)), i * step) - x
        d2[i] = np.sum(diff * diff, axis=-1)
        # sample i - 1 is a local minimum once sample i is known
        j = i[i > 2]
        hit = (d2[j - 1] < np.minimum(d2[j], d2[j - 2])) & (d2[j - 1] < 1e-2)
        if hit.any():
            i_hit = int(j[np.argmax(hit)])
            off = _parabolic_vertex(d2[i_hit - 2], d2[i_hit - 1], d2[i_hit])
            return float(((i_hit - 1) + off) * step)
    raise RuntimeError("Reeb orbit did not return within the time cap")


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
