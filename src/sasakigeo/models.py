"""Concrete models: odd-dimensional round spheres and the nilpotent group chart.

Sphere S^{2n+1}
    Unit sphere in R^{2n+2} with the induced metric.  The Reeb field is
    ``xi(x) = J x`` where ``J`` applies the 2x2 rotation [[0, -1], [1, 0]] to
    each coordinate pair (multiplication by i under R^{2n+2} ~ C^{n+1}), and
    ``phi(u) = J u + eta(u) x`` is the tangent projection of ``J``.  Constant
    curvature 1 gives closed-form curvature, and the cotangent Hamiltonians
    are written with degree-2 homogeneous extensions so that the exact flow
    preserves |x|^2, the gauge a.x and a(xi) identically; RK4 drift is then
    the only error and per-step projection removes it.

Nilpotent group (Heisenberg) chart
    Global coordinates (x, y, z) on R^3 with

        eta = 2 dz - 2 y dx,   xi = (0, 0, 1/2),   g = eta (x) eta + dx^2 + dy^2.

    The frame E1 = (1, 0, y), E2 = (0, 1, 0), E3 = xi is g-orthonormal with
    phi(E1) = E2, phi(E2) = -E1.  The normalisation is pinned by
    d eta = 2 g(phi ., .): the segment t -> (t, 0, 0) is horizontal with unit
    speed, which makes the closed-form distance from the origin to (1, 0, 0)
    exactly 1.  Christoffel symbols and curvature are hand-reduced closed
    forms (only R_1221 = -3, R_1331 = R_2332 = 1 survive in the frame).
"""

from __future__ import annotations

import math

import numpy as np

from .core import SasakiModel, _dot

__all__ = [
    "SphereModel",
    "HeisenbergModel",
    "make_round_sphere",
    "make_heisenberg",
    "get_model",
    "MODEL_KEYS",
]


class SphereModel(SasakiModel):
    """Round Sasakian sphere S^{2n+1} in R^{2n+2}."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.key = f"s{2 * n + 1}"

    @property
    def tau(self) -> float:
        """Sharp lower bound tau with Ric^T >= tau * g^T (Einstein: 2n + 2)."""
        return 2.0 * self.n + 2.0

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    # J acts pairwise: (a, b) -> (-b, a).
    def _J(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[..., 0::2] = -v[..., 1::2]
        out[..., 1::2] = v[..., 0::2]
        return out

    # -- manifold mechanics ------------------------------------------------
    def project_point(self, x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def constraint_residual(self, x):
        return np.abs(_dot(x, x) - 1.0)

    def tangent_project(self, x, v):
        return v - _dot(v, x)[..., None] * x

    def random_points(self, rng, count):
        x = rng.standard_normal((count, self.ambient_dim))
        return self.project_point(x)

    # -- structure tensors -------------------------------------------------
    def metric(self, x, u, v):
        return _dot(u, v)

    def reeb(self, x):
        return self._J(x)

    def eta_covector(self, x):
        return self._J(x)

    def phi(self, x, u):
        return self._J(u) + self.eta(x, u)[..., None] * x

    def gamma(self, x, u, w):
        return _dot(u, w)[..., None] * x

    def curvature_op(self, x, X, Y, Z):
        return _dot(Y, Z)[..., None] * X - _dot(X, Z)[..., None] * Y

    def reeb_jacobian_T(self, x, a):
        return -self._J(a)

    # -- cotangent flow ----------------------------------------------------
    def flat(self, x, v):
        return v

    def sharp(self, x, a):
        return self.tangent_project(x, a)

    def hamiltonian(self, x, a, mode="sub"):
        xx, aa = _dot(x, x), _dot(a, a)
        ax = _dot(a, x)
        h = 0.5 * (aa * xx - ax * ax)
        if mode == "sub":
            aJx = _dot(a, self._J(x))
            h = h - 0.5 * aJx * aJx
        return h

    def hamiltonian_rhs(self, x, a, mode="sub"):
        xx, aa = _dot(x, x)[..., None], _dot(a, a)[..., None]
        ax = _dot(a, x)[..., None]
        dx = xx * a - ax * x
        da = -aa * x + ax * a
        if mode == "sub":
            Jx = self._J(x)
            aJx = _dot(a, Jx)[..., None]
            dx = dx - aJx * Jx
            da = da - aJx * self._J(a)
        return dx, da

    def project_state(self, x, a):
        x = self.project_point(x)
        return x, a - _dot(a, x)[..., None] * x

    # -- exact flow --------------------------------------------------------
    def flow_positions(self, x0, a, t):
        """Positions of the exact horizontal flow: e^{-a0 t J}(cos(w t) x0 + sin(w t) W).

        ``x0`` and ``a`` are (..., d) rows and ``t`` is (..., K) times per
        row; the result is (..., K, d).  With ``u`` the horizontal velocity
        of ``a`` and ``a0`` its Reeb momentum, ``w = sqrt(|u|^2 + a0^2)`` and
        ``W = (u + a0 J x0)/w``.
        """
        x0 = np.asarray(x0, dtype=float)
        t = np.asarray(t, dtype=float)
        a0 = self.alpha0(x0, a)[..., None]
        u = self.velocity(x0, a, mode="sub")
        w = np.sqrt(_dot(u, u)[..., None] + a0 * a0)
        W = (u + a0 * self._J(x0)) / w
        wt = w * t
        c = np.cos(wt)[..., None] * x0[..., None, :] + np.sin(wt)[..., None] * W[..., None, :]
        return self.reeb_flow(c, -a0 * t)

    def reeb_flow(self, x, theta):
        """``e^{theta J} x``: each coordinate pair rotated by ``theta``."""
        theta = np.asarray(theta)[..., None]
        return np.cos(theta) * x + np.sin(theta) * self._J(x)


class HeisenbergModel(SasakiModel):
    """Left-invariant Sasakian structure on a global R^3 chart."""

    key = "heisenberg"
    n = 1

    def __init__(self, sample_radius: float = 1.5):
        # random_points draws from a cube of this half-width; the model itself
        # is defined on all of R^3.
        self.sample_radius = float(sample_radius)

    @property
    def ambient_dim(self) -> int:
        return 3

    # -- manifold mechanics ------------------------------------------------
    def project_point(self, x):
        return x

    def constraint_residual(self, x):
        return np.zeros(np.shape(x)[:-1])

    def tangent_project(self, x, v):
        return v

    def random_points(self, rng, count):
        return rng.uniform(-self.sample_radius, self.sample_radius, size=(count, 3))

    # -- frame decomposition ----------------------------------------------
    def _frame_coeffs(self, x, u):
        """Components of ``u`` in the orthonormal frame (E1, E2, E3)."""
        y = x[..., 1]
        a1 = u[..., 0]
        a2 = u[..., 1]
        a3 = 2.0 * (u[..., 2] - y * u[..., 0])
        return a1, a2, a3

    # -- structure tensors -------------------------------------------------
    def metric(self, x, u, v):
        eu = self.eta(x, u)
        ev = self.eta(x, v)
        return eu * ev + u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]

    def reeb(self, x):
        out = np.zeros_like(x)
        out[..., 2] = 0.5
        return out

    def eta_covector(self, x):
        y = x[..., 1]
        zero = np.zeros_like(y)
        return np.stack([-2.0 * y, zero, np.full_like(y, 2.0)], axis=-1)

    def phi(self, x, u):
        y = x[..., 1]
        u1 = u[..., 0] + 0.0 * y  # broadcast against the point batch
        u2 = u[..., 1] + 0.0 * y
        return np.stack([-u2, u1, -y * u2], axis=-1)

    def gamma(self, x, u, w):
        y = x[..., 1]
        u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
        w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]
        s12 = u1 * w2 + u2 * w1
        s13 = u1 * w3 + u3 * w1
        s23 = u2 * w3 + u3 * w2
        return np.stack(
            [
                2.0 * y * s12 - 2.0 * s23,
                -4.0 * y * u1 * w1 + 2.0 * s13,
                0.5 * (4.0 * y * y - 1.0) * s12 - 2.0 * y * s23,
            ],
            axis=-1,
        )

    def _from_frame_coeffs(self, x, b1, b2, b3):
        y = x[..., 1]
        return np.stack([b1 + 0.0 * y, b2 + 0.0 * y, b1 * y + 0.5 * b3], axis=-1)

    def curvature_op(self, x, X, Y, Z):
        cX = self._frame_coeffs(x, X)
        cY = self._frame_coeffs(x, Y)
        cZ = self._frame_coeffs(x, Z)
        out = [0.0, 0.0, 0.0]
        # pairing W |-> R(X,Y,Z,W) against the orthonormal frame
        for (i, j), k in (((0, 1), -3.0), ((0, 2), 1.0), ((1, 2), 1.0)):
            w_xy = cX[i] * cY[j] - cX[j] * cY[i]
            out[i] = out[i] + k * w_xy * cZ[j]
            out[j] = out[j] - k * w_xy * cZ[i]
        return self._from_frame_coeffs(x, out[0], out[1], out[2])

    def reeb_jacobian_T(self, x, a):
        return np.zeros(np.broadcast(x, a).shape)

    # -- cotangent flow ----------------------------------------------------
    def flat(self, x, v):
        y = x[..., 1]
        ev = self.eta(x, v)
        v1 = v[..., 0] + 0.0 * y
        v2 = v[..., 1] + 0.0 * y
        return np.stack([v1 - 2.0 * y * ev, v2, 2.0 * ev], axis=-1)

    def sharp(self, x, a):
        # inverse metric rows: (1, 0, y), (0, 1, 0), (y, 0, (1 + 4y^2)/4)
        y = x[..., 1]
        w = a[..., 0] + y * a[..., 2]
        a2 = a[..., 1] + 0.0 * y
        return np.stack([w, a2, y * w + 0.25 * a[..., 2]], axis=-1)

    def hamiltonian(self, x, a, mode="sub"):
        y = x[..., 1]
        w = a[..., 0] + y * a[..., 2]
        h = 0.5 * (w * w + a[..., 1] * a[..., 1])
        if mode == "riem":
            h = h + 0.125 * a[..., 2] * a[..., 2]
        return h

    def hamiltonian_rhs(self, x, a, mode="sub"):
        y = x[..., 1]
        w = a[..., 0] + y * a[..., 2]
        a2 = a[..., 1] + 0.0 * y
        dxz = y * w if mode == "sub" else y * w + 0.25 * a[..., 2]
        dx = np.stack([w, a2, dxz], axis=-1)
        da = np.stack([np.zeros_like(w), -w * a[..., 2], np.zeros_like(w)], axis=-1)
        return dx, da

    @property
    def tau(self) -> float:
        """Transversally flat: no positive lower bound on Ric^T."""
        return 0.0

    def flow_positions(self, x0, a, t):
        """Positions of the exact horizontal flow, (..., K, 3) for (..., K) times per row.

        The chart momenta a_x and a_z are conserved, and the pair
        (w, a_y) = (a_x + y a_z, a_y) rotates with angular rate a_z, so the
        planar projection traces a circular arc and z integrates in closed
        form via int y dx.  The naive arc formulas subtract two O(1/a_z)
        quantities and lose precision like 1/a_z^2 as the arc straightens, so
        everything is evaluated in product/sinc-difference form, which is
        uniform in the turning rate (the straight line is the a_z = 0 value,
        not a separate branch); the two removable singularities get short
        series below |a_z t| = 0.01.
        """
        t = np.asarray(t, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        a = np.asarray(a, dtype=float)
        px, py, pz = (x0[..., i, None] for i in range(3))
        ax, ay, az = (a[..., i, None] for i in range(3))
        w0 = ax + py * az
        rho = np.hypot(w0, ay)
        th0 = np.arctan2(ay, w0)

        def sinc(y):  # sin(y)/y without the numpy pi-normalization
            return np.sinc(y / np.pi)

        arc = az * t
        half = 0.5 * arc
        s_half = sinc(half)
        xs = px + rho * t * np.cos(th0 - half) * s_half
        ys = py + rho * t * np.sin(th0 - half) * s_half

        # z - pz = py (x - px) + (rho^2 t^2 / 2) (D + G) with
        #   D = [F(arc) - F(arc/2)] / arc,   F(s) = cos(2 th0 - s) sinc(s),
        #   G = [1 - sinc(arc)] / arc
        small = np.abs(arc) < 1e-2
        guarded = np.where(small, 1.0, arc)
        c2, s2 = np.cos(2.0 * th0), np.sin(2.0 * th0)
        d_exact = (np.cos(2.0 * th0 - arc) * sinc(arc) - np.cos(2.0 * th0 - half) * s_half)
        g_exact = (1.0 - sinc(arc)) / guarded
        a2 = arc * arc
        d_series = s2 * (0.5 - (7.0 / 24.0) * a2 + (31.0 / 720.0) * a2 * a2)
        d_series += c2 * arc * (-0.5 + a2 / 8.0 - a2 * a2 / 80.0)
        g_series = arc * (1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0)
        d = np.where(small, d_series, d_exact / guarded)
        g = np.where(small, g_series, g_exact)
        zs = pz + py * (xs - px) + 0.5 * rho * rho * t * t * (d + g)
        return np.stack([xs, ys, zs], axis=-1)

    def reeb_flow(self, x, theta):
        """The Reeb field (0, 0, 1/2) flows for time ``theta``: z moves by theta/2."""
        out = np.array(x, dtype=float)
        out[..., 2] += 0.5 * np.asarray(theta)
        return out


def make_round_sphere(n: int) -> SphereModel:
    """Round sphere S^{2n+1}; n is capped at desk scale."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 3:
        raise ValueError(f"n must be an integer in [1, 3], got {n!r}")
    return SphereModel(int(n))


def make_heisenberg() -> HeisenbergModel:
    return HeisenbergModel()


_BASE_MODELS = {
    "s3": lambda: SphereModel(1),
    "s5": lambda: SphereModel(2),
    "heisenberg": HeisenbergModel,
}
MODEL_KEYS = ("s3", "s5", "heisenberg", "s3-dhom:<mu>")


def get_model(key: str) -> SasakiModel:
    """Resolve a CLI/model key: s3, s5, heisenberg, or s3-dhom:<mu>."""
    key = key.strip().lower()
    if key in _BASE_MODELS:
        return _BASE_MODELS[key]()
    if key.startswith("s3-dhom:"):
        from .dhomothety import apply as dhom_apply

        try:
            mu = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise KeyError(f"bad deformation ratio in model key {key!r}") from exc
        if not (math.isfinite(mu) and mu > 0):
            raise KeyError(f"deformation ratio must be finite and positive in {key!r}")
        return dhom_apply(SphereModel(1), mu)
    raise KeyError(f"unknown model key {key!r}")
