"""Transverse homothetic deformation of a contact metric structure.

For a ratio ``mu > 0`` the deformed structure is

    eta_mu = eta / mu,   xi_mu = mu xi,   g_mu = g_T / mu  (+)  eta_mu (x) eta_mu,

which in terms of the shorthand ``s = 1/mu`` reads

    g_mu = s g + s (s - 1) eta (x) eta.

Everything about the deformed model is closed form in the source evaluators:

* Levi-Civita correction:  nabla^mu_X Y = nabla_X Y + D(X, Y) with
  ``D(X, Y) = (s - 1) (eta(X) phi Y + eta(Y) phi X)`` (derived from the Koszul
  formula; the only input is ``nabla eta = g(phi ., .)``).
* Curvature:  R_mu(X,Y)Z = R(X,Y)Z + (nabla_X D)(Y,Z) - (nabla_Y D)(X,Z)
  + D(X, D(Y,Z)) - D(Y, D(X,Z)), where the covariant derivative of D expands
  through ``(nabla_X phi)(Z) = eta(Z) X - g(X, Z) xi``.
* Cotangent Hamiltonians:  the horizontal kinetic term scales by 1/s and the
  Reeb kinetic term by 1/s^2, so both flows reuse the source closed forms.

Deforming twice composes exactly: ratios multiply, and ``apply`` flattens
nested deformations so the equality is algebraic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SasakiModel, ricci, ricci_transverse

__all__ = [
    "DHomotheticModel",
    "apply",
    "VolumeScalingReport",
    "RicciBoundReport",
    "volume_scaling_check",
    "ricci_bound_check",
]


class DHomotheticModel(SasakiModel):
    """A source model carrying the deformed metric structure."""

    def __init__(self, source: SasakiModel, mu: float):
        if not (math.isfinite(mu) and mu > 0):
            raise ValueError(f"deformation ratio must be finite and positive, got {mu!r}")
        self.source = source
        self.mu = float(mu)
        self.s = 1.0 / self.mu  # transverse metric scale
        self.n = source.n
        self.key = f"{source.key}-dhom:{self.mu:g}"

    @property
    def ambient_dim(self) -> int:
        return self.source.ambient_dim

    @property
    def tau(self) -> float:
        """Ric^T is deformation invariant while g^T scales by 1/mu."""
        return self.mu * getattr(self.source, "tau", 0.0)

    # -- manifold mechanics (unchanged) ------------------------------------
    def project_point(self, x):
        return self.source.project_point(x)

    def constraint_residual(self, x):
        return self.source.constraint_residual(x)

    def tangent_project(self, x, v):
        return self.source.tangent_project(x, v)

    def random_points(self, rng, count):
        return self.source.random_points(rng, count)

    # -- deformed structure tensors ----------------------------------------
    def metric(self, x, u, v):
        src = self.source
        s = self.s
        return s * src.metric(x, u, v) + s * (s - 1.0) * src.eta(x, u) * src.eta(x, v)

    def reeb(self, x):
        return self.mu * self.source.reeb(x)

    def eta_covector(self, x):
        return self.s * self.source.eta_covector(x)

    def phi(self, x, u):
        return self.source.phi(x, u)

    def _delta(self, x, u, w):
        """Connection correction D(u, w)."""
        src = self.source
        c = self.s - 1.0
        eu = src.eta(x, u)[..., None]
        ew = src.eta(x, w)[..., None]
        return c * (eu * src.phi(x, w) + ew * src.phi(x, u))

    def gamma(self, x, u, w):
        return self.source.gamma(x, u, w) + self._delta(x, u, w)

    def _nabla_delta(self, x, X, Y, Z):
        """(nabla_X D)(Y, Z) of the source connection, closed form."""
        src = self.source
        c = self.s - 1.0
        g = src.metric
        xi = src.reeb(x)
        eY = src.eta(x, Y)[..., None]
        eZ = src.eta(x, Z)[..., None]
        pX = src.phi(x, X)
        term = g(x, pX, Y)[..., None] * src.phi(x, Z)
        term = term + g(x, pX, Z)[..., None] * src.phi(x, Y)
        term = term + eY * (src.eta(x, Z)[..., None] * X - g(x, X, Z)[..., None] * xi)
        term = term + eZ * (src.eta(x, Y)[..., None] * X - g(x, X, Y)[..., None] * xi)
        return c * term

    def curvature_op(self, x, X, Y, Z):
        R = self.source.curvature_op(x, X, Y, Z)
        R = R + self._nabla_delta(x, X, Y, Z) - self._nabla_delta(x, Y, X, Z)
        R = R + self._delta(x, X, self._delta(x, Y, Z)) - self._delta(x, Y, self._delta(x, X, Z))
        return R

    def reeb_jacobian_T(self, x, a):
        return self.mu * self.source.reeb_jacobian_T(x, a)

    # -- musical isomorphisms ----------------------------------------------
    def flat(self, x, v):
        src = self.source
        s = self.s
        return s * src.flat(x, v) + s * (s - 1.0) * src.eta(x, v)[..., None] * src.eta_covector(x)

    def sharp(self, x, a):
        src = self.source
        a0 = src.alpha0(x, a)[..., None]
        xi = src.reeb(x)
        return (src.sharp(x, a) - a0 * xi) / self.s + a0 * xi / self.s**2

    # -- cotangent flow ----------------------------------------------------
    def hamiltonian(self, x, a, mode="sub"):
        src = self.source
        h_horizontal = src.hamiltonian(x, a, mode="sub")
        if mode == "sub":
            return h_horizontal / self.s
        a0 = src.alpha0(x, a)
        return h_horizontal / self.s + 0.5 * a0 * a0 / self.s**2

    def hamiltonian_rhs(self, x, a, mode="sub"):
        src = self.source
        dx, da = src.hamiltonian_rhs(x, a, mode="sub")
        dx, da = dx / self.s, da / self.s
        if mode == "riem":
            a0 = src.alpha0(x, a)[..., None]
            dx = dx + a0 * src.reeb(x) / self.s**2
            da = da - a0 * src.reeb_jacobian_T(x, a) / self.s**2
        return dx, da

    def project_state(self, x, a):
        return self.source.project_state(x, a)

    def flow_positions(self, x0, a, t):
        """Exact horizontal flow: the source flow at time ``mu t`` (H_sub scales by ``mu``)."""
        return self.source.flow_positions(x0, a, self.mu * np.asarray(t, dtype=float))

    def reeb_flow(self, x, theta):
        """The flow of ``xi_mu = mu xi``: the source's Reeb flow for time ``mu theta``."""
        return self.source.reeb_flow(x, self.mu * np.asarray(theta))


def apply(model: SasakiModel, mu: float) -> SasakiModel:
    """Deform ``model`` by ratio ``mu``; nested applications flatten exactly."""
    if isinstance(model, DHomotheticModel):
        return DHomotheticModel(model.source, model.mu * mu)
    return DHomotheticModel(model, mu)


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


@dataclass
class VolumeScalingReport:
    mu: float
    measured_ratio: float
    expected_ratio: float
    samples: int

    @property
    def residual(self) -> float:
        return abs(self.measured_ratio - self.expected_ratio)


def volume_scaling_check(
    model: SasakiModel, mu: float, samples: int = 20000, seed: int = 0
) -> VolumeScalingReport:
    """Monte-Carlo estimate of Vol(g_mu)/Vol(g) against mu^{-(n+1)}.

    At each sampled point the two volume forms are compared through the
    Gram determinants of the metrics on a common tangent frame, and the
    pointwise ratios are averaged over the samples.
    """
    deformed = apply(model, mu)
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
    return VolumeScalingReport(
        mu=float(mu),
        measured_ratio=float(np.mean(ratio)),
        expected_ratio=float(mu ** (-(model.n + 1))),
        samples=samples,
    )


@dataclass
class RicciBoundReport:
    t: float
    mu: float
    source_precondition_slack: float
    min_horizontal_slack: float
    max_mixed_residual: float
    transverse_invariance_residual: float
    samples: int

    def passed(self, tol: float = 1e-6) -> bool:
        return (
            self.min_horizontal_slack > -tol
            and self.max_mixed_residual < tol
            and self.transverse_invariance_residual < tol
        )


def ricci_bound_check(
    model: SasakiModel, t: float, samples: int = 50, seed: int = 0
) -> RicciBoundReport:
    """Curvature facts after deforming with ratio mu = 1/t.

    Requires Ric^T >= t(2n+2) g^T on the source (checked by sampling), then
    verifies at random points and directions:
    (i)  Ric_mu(X, X) >= 2n g_mu(X, X) for horizontal X,
    (ii) Ric_mu(V, xi_mu) = 2n g_mu(V, xi_mu) for arbitrary tangent V, and
    (iii) invariance of the transverse Ricci form under the deformation.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t!r}")
    mu = 1.0 / t
    deformed = apply(model, mu)
    rng = np.random.default_rng(seed)
    x = model.random_points(rng, samples)
    X = model.random_unit_horizontal(rng, x)
    V = deformed.random_tangents(rng, x)

    rt_src, _ = ricci_transverse(model, x, X, X)
    needed = t * (2.0 * model.n + 2.0) * model.metric(x, X, X)
    pre_slack = float(np.min(rt_src - needed))
    if pre_slack < -1e-8:
        raise ValueError(
            f"source model violates Ric^T >= t(2n+2) g^T (slack {pre_slack:.3e})"
        )

    ric_h = ricci(deformed, x, X, X)
    slack = ric_h - 2.0 * deformed.n * deformed.metric(x, X, X)

    xi_mu = deformed.reeb(x)
    mixed = ricci(deformed, x, V, xi_mu) - 2.0 * deformed.n * deformed.metric(x, V, xi_mu)

    rt_mu, _ = ricci_transverse(deformed, x, X, X)

    return RicciBoundReport(
        t=float(t),
        mu=float(mu),
        source_precondition_slack=pre_slack,
        min_horizontal_slack=float(np.min(slack)),
        max_mixed_residual=float(np.max(np.abs(mixed))),
        transverse_invariance_residual=float(np.max(np.abs(rt_mu - rt_src))),
        samples=samples,
    )
