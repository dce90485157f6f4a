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

import functools
import math
import threading

import numpy as np
from numpy.polynomial.polynomial import polyval

from .core import SasakiModel, _dot

__all__ = [
    "SphereModel",
    "HeisenbergModel",
    "get_model",
    "MODEL_KEYS",
]


@functools.lru_cache(maxsize=None)
def _field_map(reeb_weight: float) -> np.ndarray:
    """The 8x8 map from the sphere's Gram entries to the weights of its field.

    With ``W = (x, a, Jx, Ja)`` and ``G = (x, a) @ W^T``, the entries of
    ``G.reshape(8)`` are ``x.x, x.a, x.Jx, x.Ja, a.x, a.a, a.Jx, a.Ja`` and
    ``G.reshape(8) @ P`` holds the weights of ``W`` in ``dx`` and then in
    ``da``.  The field of ``H_sub + reeb_weight a0^2 / 2``, with
    ``a0 = aJx``, is

        dx = xx a - ax x + (reeb_weight - 1) aJx Jx,
        da = ax a - aa x + (reeb_weight - 1) aJx Ja:

    sub mode (weight 0) keeps the ``aJx`` terms and riem mode (weight 1)
    drops them.  The map is cached, so it is read-only.
    """
    xx, ax, aa, aJx = 0, 4, 5, 6
    P = np.zeros((8, 8))
    P[ax, 0], P[xx, 1] = -1.0, 1.0
    P[aa, 4], P[ax, 5] = -1.0, 1.0
    P[aJx, 2] = P[aJx, 7] = reeb_weight - 1.0
    P.flags.writeable = False
    return P


# Most work-array sets a sphere keeps for its field at a time, one per
# (thread, leading shape, Reeb weight): per thread, so that threads sharing a
# model never write into each other's arrays
_SCRATCH_SLOTS = 8


# Below |h| = _SERIES_CUT, sinc h and G = (1 - sinc 2h) / (2h) of the Heisenberg
# arc come from eight Taylor terms, which reach round-off there:
# sinc h = sum_k (-1)^k h^2k / (2k+1)!  and  G = 2h sum_k (-1)^k (2h)^2k / (2k+3)!.
# Above it, 1 - sinc 2h loses about eps / |h| to cancellation.
_SERIES_CUT = 0.5
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(8))
_G_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))


def _cos_sin(rate, t):
    """``cos(rate t)`` and ``sin(rate t)`` of the rows ``rate`` (rows, 1) at the times ``t``.

    When every row shares one time row ``t`` (1, K), as in the coarse scan,
    each distinct rate is evaluated once and gathered: equal rates give
    equal arguments, so the bits are those of the row-by-row evaluation.
    """
    if rate.ndim == 2 and t.ndim == 2 and t.shape[0] == 1 < rate.shape[0]:
        distinct, inverse = np.unique(rate.ravel(), return_inverse=True)
        arg = distinct[:, None] * t
        return np.cos(arg)[inverse], np.sin(arg)[inverse]
    arg = rate * t
    return np.cos(arg), np.sin(arg)


class SphereModel(SasakiModel):
    """Round Sasakian sphere S^{2n+1} in R^{2n+2}."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.key = f"s{2 * n + 1}"
        # state @ self._lift == (x, a, Jx, Ja) for a state row (x, a), as J
        # pairs coordinates within each half; every entry is 0 or +-1, so the
        # product is exact
        eye = np.eye(2 * self.ambient_dim)
        self._lift = np.concatenate((eye, self._J(eye)), axis=1)
        self._scratch = {}

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
        np.negative(v[..., 1::2], out=out[..., 0::2])
        out[..., 1::2] = v[..., 0::2]
        return out

    # -- manifold mechanics ------------------------------------------------
    def project_point(self, x):
        return x / np.sqrt(_dot(x, x))[..., None]

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

    def _field_scratch(self, key):
        """The field map and work arrays of :meth:`_weighted_rhs`, made for ``key``.

        ``key`` is ``(thread, lead, reeb_weight)``, with ``lead`` the states'
        leading shape.  Returns ``(P, W, W4, W4T, G, G8, C, C24)``: the map of
        :func:`_field_map`, the lifted rows ``W = (x, a, Jx, Ja)`` and their
        views (..., 4, d) and (..., d, 4), the Gram entries (..., 2, 4) and
        their view (..., 8), and the weights (..., 8) and their view (..., 2,
        4).  The set is kept under ``key``; at most :data:`_SCRATCH_SLOTS`
        sets are kept at a time.
        """
        _, lead, reeb_weight = key
        if len(self._scratch) >= _SCRATCH_SLOTS:
            self._scratch.clear()
        d = self.ambient_dim
        W, G, C = np.empty(lead + (4 * d,)), np.empty(lead + (2, 4)), np.empty(lead + (8,))
        W4 = W.reshape(lead + (4, d))
        scratch = self._scratch[key] = (
            _field_map(reeb_weight), W, W4, W4.swapaxes(-1, -2),
            G, G.reshape(lead + (8,)), C, C.reshape(lead + (2, 4)),
        )
        return scratch

    def _weighted_rhs(self, state, reeb_weight, out=None):
        # linear in W = (x, a, Jx, Ja), with weights read off its Gram entries
        lead, d = state.shape[:-1], state.shape[-1] // 2
        key = (threading.get_ident(), lead, reeb_weight)
        P, W, W4, W4T, G, G8, C, C24 = self._scratch.get(key) or self._field_scratch(key)
        if out is None:
            out = np.empty(state.shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        np.matmul(state, self._lift, out=W)
        np.matmul(state.reshape(lead + (2, d)), W4T, out=G)
        np.matmul(G8, P, out=C)
        np.matmul(C24, W4, out=out.reshape(lead + (2, d)))
        return out

    def project_state(self, state, out=None):
        d = self.ambient_dim
        if out is None:
            out = np.empty_like(state)
        x, a = state[..., :d], state[..., d:]
        x = np.divide(x, np.sqrt(_dot(x, x))[..., None], out=out[..., :d])
        np.subtract(a, _dot(a, x)[..., None] * x, out=out[..., d:])
        return out

    # -- exact flow --------------------------------------------------------
    def _flow_setup(self, x0, a, reeb_weight):
        """``W`` (..., d) and the rates ``w``, ``r`` (..., 1) of the exact flow.

        The flow of ``H_sub + reeb_weight a0^2 / 2`` from the rows ``(x0,
        a)`` is ``e^{r t J}(cos(w t) x0 + sin(w t) W)`` with ``r =
        (reeb_weight - 1) a0``: the sub flow's rotation, then the Reeb flow,
        as one rotation.  ``a0`` is the Reeb momentum of ``a``.  Its tangent
        part ``v = u + a0 J x0``, with ``u`` the horizontal velocity, gives
        ``w = |v| = sqrt(|u|^2 + a0^2)`` and ``W = v / w``.
        """
        v = self.tangent_project(x0, a)
        w = np.sqrt(_dot(v, v))[..., None]
        return v / w, w, (reeb_weight - 1.0) * self.alpha0(x0, a)[..., None]

    def _flow_points(self, x0, a, t, reeb_weight):
        """Positions (..., K, d) of the exact flow of :meth:`_flow_setup`."""
        x0 = np.asarray(x0, dtype=float)
        t = np.asarray(t, dtype=float)
        W, w, r = self._flow_setup(x0, a, reeb_weight)
        wt = w * t
        c = np.cos(wt)[..., None] * x0[..., None, :] + np.sin(wt)[..., None] * W[..., None, :]
        return self.reeb_flow(c, r * t)

    def _flow_sq_distances(self, x0, a, t, q, reeb_weight):
        """Squared distances from ``q`` in closed form, without the positions.

        As ``J`` is skew, ``<e^{theta J} y, q> = cos(theta) <y, q> - sin(theta)
        <y, J q>``, so each row of :meth:`_flow_setup` needs the four
        projections of ``x0`` and ``W`` on ``q`` and ``J q``, and each sample
        the cosines and sines of ``w t`` and ``theta = r t``.  The flow keeps
        ``|x| = |x0|``.
        """
        x0 = np.asarray(x0, dtype=float)
        t = np.asarray(t, dtype=float)
        W, w, r = self._flow_setup(x0, a, reeb_weight)
        Jq = self._J(q)
        xq, xJq = _dot(x0, q)[..., None], _dot(x0, Jq)[..., None]
        Wq, WJq = _dot(W, q)[..., None], _dot(W, Jq)[..., None]
        c, s = _cos_sin(w, t)
        cos_r, sin_r = _cos_sin(r, t)
        inner = cos_r * (c * xq + s * Wq) - sin_r * (c * xJq + s * WJq)
        return (_dot(x0, x0) + _dot(q, q))[..., None] - 2.0 * inner

    def reeb_flow(self, x, theta):
        """``e^{theta J} x``: each coordinate pair rotated by ``theta``."""
        theta = np.asarray(theta)[..., None]
        return np.cos(theta) * x + np.sin(theta) * self._J(x)


class HeisenbergModel(SasakiModel):
    """Left-invariant Sasakian structure on a global R^3 chart."""

    key = "heisenberg"
    n = 1
    # random_points draws from the cube of this half-width; the model itself
    # is defined on all of R^3
    sample_radius = 1.5

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

    def _weighted_rhs(self, state, reeb_weight, out=None):
        # a0 = a_z / 2, so the Reeb kinetic term reeb_weight a_z^2 / 8 moves z
        if out is None:
            out = np.empty(state.shape)
        y, az = state[..., 1], state[..., 5]
        w = np.add(state[..., 3], y * az, out=out[..., 0])
        out[..., 1] = state[..., 4]
        np.multiply(y, w, out=out[..., 2])
        if reeb_weight:
            out[..., 2] += (0.25 * reeb_weight) * az
        out[..., 3::2] = 0.0
        np.multiply(-w, az, out=out[..., 4])
        return out

    @property
    def tau(self) -> float:
        """Transversally flat: no positive lower bound on Ric^T."""
        return 0.0

    def _flow_offsets(self, x0, a, t, reeb_weight):
        """Offsets ``(X, Y, Z)`` from ``x0`` of the exact flow, each (..., K).

        The chart momenta a_x and a_z are conserved, and the pair
        ``(w, a_y) = (a_x + y a_z, a_y)`` rotates with angular rate ``a_z``, so
        the planar projection is a circular arc: with ``h = a_z t / 2``,
        ``X + i Y = t sinc(h) e^{-ih} (w0 + i a_y)``.  Along horizontal curves
        ``dz = y dx``, so ``Z = y0 X + X Y / 2 + (rho t)^2 G / 2`` with
        ``rho^2 = w0^2 + a_y^2`` and ``G = (1 - sinc 2h) / (2h)``: the last term
        is the signed area between the arc and its chord (Agrachev-Barilari-
        Boscain, Heisenberg chapter).  Both ``sinc h`` and ``G`` come from one
        cosine and sine of ``h``, with Taylor series below ``|h| < _SERIES_CUT``,
        where ``G`` would cancel; the straight line is the ``a_z = 0`` value.
        The flow of ``H_sub + reeb_weight a0^2 / 2`` adds the Reeb flow for
        time ``reeb_weight a0 t``, with ``a0 = a_z / 2``, which moves ``z`` by
        ``reeb_weight a_z t / 4``.
        """
        t = np.asarray(t, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        a = np.asarray(a, dtype=float)
        ay, az = a[..., 1, None], a[..., 2, None]
        w0 = a[..., 0, None] + x0[..., 1, None] * az
        h = (0.5 * az) * t
        c, s = np.cos(h), np.sin(h)
        small = np.abs(h) < _SERIES_CUT
        guarded = np.where(small, 1.0, h)
        sinc = s / guarded
        G = (1.0 - sinc * c) / (2.0 * guarded)
        if small.any():
            h2 = h[small] ** 2
            sinc[small] = polyval(h2, _SINC_SERIES)
            G[small] = (2.0 * h[small]) * polyval(4.0 * h2, _G_SERIES)
        ts = t * sinc
        X = ts * (w0 * c + ay * s)
        Y = ts * (ay * c - w0 * s)
        Z = x0[..., 1, None] * X + 0.5 * X * Y + (0.5 * (w0 * w0 + ay * ay)) * (t * t) * G
        if reeb_weight:
            Z = Z + (0.25 * reeb_weight) * az * t
        return X, Y, Z

    def _flow_points(self, x0, a, t, reeb_weight):
        """Positions (..., K, 3) of the exact flow, ``x0`` plus :meth:`_flow_offsets`."""
        x0 = np.asarray(x0, dtype=float)
        return x0[..., None, :] + np.stack(self._flow_offsets(x0, a, t, reeb_weight), axis=-1)

    def _flow_sq_distances(self, x0, a, t, q, reeb_weight):
        """Squared distances from ``q`` of :meth:`_flow_offsets`, without the positions."""
        x0 = np.asarray(x0, dtype=float)
        X, Y, Z = self._flow_offsets(x0, a, t, reeb_weight)
        d = x0 - q
        return (X + d[..., 0, None]) ** 2 + (Y + d[..., 1, None]) ** 2 + (Z + d[..., 2, None]) ** 2

    def reeb_flow(self, x, theta):
        """The Reeb field (0, 0, 1/2) flows for time ``theta``: z moves by theta/2."""
        out = np.array(x, dtype=float)
        out[..., 2] += 0.5 * np.asarray(theta)
        return out


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
        try:
            return dhom_apply(SphereModel(1), mu)
        except ValueError as exc:
            raise KeyError(f"{exc} in model key {key!r}") from exc
    raise KeyError(f"unknown model key {key!r}")
