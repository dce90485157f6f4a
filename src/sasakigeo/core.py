"""Core contact-metric machinery: model interface, structure identities, curvature.

Conventions used throughout the package
---------------------------------------

* A model of dimension ``2n + 1`` is presented through ambient coordinates
  (a round sphere sits in R^{2n+2}; the nilpotent group uses a global R^3
  chart).  Points and tangent vectors are plain float arrays of length
  ``ambient_dim``; every evaluator broadcasts over leading axes.
* The structure tensors are the metric ``g``, the unit Reeb field ``xi``, its
  dual one-form ``eta`` and the endomorphism ``phi`` with

      eta(xi) = 1,        phi o phi = -Id + eta (x) xi,
      g(phi u, phi v) = g(u, v) - eta(u) eta(v),
      d eta(u, v) = 2 g(phi u, v),          nabla_u xi = phi(u).

* Curvature sign convention: ``R(X, Y)Z = [nabla_X, nabla_Y]Z - nabla_{[X,Y]}Z``
  and ``R(X, Y, Z, W) = g(R(X, Y)Z, W)``, so the unit round sphere has
  ``R(X, Y, Z, W) = g(Y, Z) g(X, W) - g(X, Z) g(Y, W)`` and sectional
  curvature +1.  With this sign, ``(nabla_X phi)(Y) = eta(Y) X - g(X, Y) xi``
  holds on all models; the identity suite asserts it.
* The transverse (quotient Kahler) curvature of horizontal vectors is
  recovered from the full curvature via

      R_T(X, Y, Z, W) = R(X, Y, Z, W) - g(phi X, Z) g(phi Y, W)
                        + g(phi X, W) g(phi Y, Z) - 2 g(phi X, Y) g(phi Z, W)

  and satisfies ``Ric_T = Ric + 2 g`` on horizontal vectors.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .numdiff import directional_derivative, fd_hessian_diagonal_sum

__all__ = [
    "SasakiModel",
    "IdentityResult",
    "StructureReport",
    "CurvatureReport",
    "verify_structure",
    "transverse_curvature",
    "ricci",
    "ricci_transverse",
    "curvature_report",
    "riemannian_laplacian_check",
]


# Reeb kinetic weight of each mode: the flows are those of H_sub + weight a0^2 / 2
_REEB_WEIGHTS = {"sub": 0.0, "riem": 1.0}


# Fewest rows for which _dot sums columns.  numpy's reduce over a short last
# axis loops per row; one add per column wins from about 128-160 rows on
# last axes of 3-6 (2-core x86 box, numpy 2.4: 20 000 x 4 takes 490 us
# reduced, 110 us by columns), while one row keeps the reduce (3 us against
# 8-15 us).
_COLUMN_SUM_ROWS = 160


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # the ufunc reduction np.sum reaches through its Python wrappers: same
    # result, half the per-call overhead on the small arrays of the flow
    p = u * v
    k = p.shape[-1]
    if 1 < k < 8 and p.size >= _COLUMN_SUM_ROWS * k:
        # below 8 terms the reduce adds left to right from +0.0; the column
        # sum adds in the same order, and the final + 0.0 turns a row of
        # -0.0 into +0.0 as the reduce does, so the bits agree
        total = p[..., 0] + p[..., 1]
        for i in range(2, k):
            total += p[..., i]
        total += 0.0
        return total
    return np.add.reduce(p, axis=-1)


class SasakiModel(abc.ABC):
    """Pointwise evaluators for one contact metric model.

    Concrete models supply closed-form tensors; everything higher level
    (identity checks, flows, variations) is built generically on top of this
    interface.  All methods accept batched input: points ``x`` and vectors
    with shape (..., ambient_dim).  The cotangent flow acts on state rows
    ``state = [x | a]`` of shape (..., 2 * ambient_dim): the point in the
    first ``ambient_dim`` columns, its covector in the rest, one row per
    state.
    """

    key: str
    n: int  # transverse complex dimension; manifold dimension is 2n + 1

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    @abc.abstractmethod
    def ambient_dim(self) -> int: ...

    # -- manifold mechanics ------------------------------------------------
    @abc.abstractmethod
    def project_point(self, x: np.ndarray) -> np.ndarray:
        """Retract ambient coordinates onto the constraint set."""

    @abc.abstractmethod
    def constraint_residual(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def tangent_project(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project an ambient vector onto the tangent space at ``x``."""

    @abc.abstractmethod
    def random_points(self, rng: np.random.Generator, count: int) -> np.ndarray: ...

    # -- structure tensors -------------------------------------------------
    @abc.abstractmethod
    def metric(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def reeb(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def eta_covector(self, x: np.ndarray) -> np.ndarray:
        """Ambient components ``e`` with ``eta(u) = e . u`` for tangent u."""

    @abc.abstractmethod
    def phi(self, x: np.ndarray, u: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def gamma(self, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Christoffel correction: ``nabla_u W = dW/dt + gamma(x, u, W)``."""

    @abc.abstractmethod
    def curvature_op(
        self, x: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
    ) -> np.ndarray:
        """The vector ``R(X, Y)Z`` (closed form per model)."""

    def curvature(
        self,
        x: np.ndarray,
        X: np.ndarray,
        Y: np.ndarray,
        Z: np.ndarray,
        W: np.ndarray,
    ) -> np.ndarray:
        """``R(X, Y, Z, W) = g(R(X, Y)Z, W)``."""
        return self.metric(x, self.curvature_op(x, X, Y, Z), W)

    # -- musical isomorphisms and the cotangent flow -----------------------
    @abc.abstractmethod
    def flat(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ambient covector components ``a`` with ``a . u = g(v, u)``."""

    @abc.abstractmethod
    def sharp(self, x: np.ndarray, a: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def hamiltonian(self, x: np.ndarray, a: np.ndarray, mode: str = "sub") -> np.ndarray:
        """``mode='sub'``: H = (1/2) g^{-1}(a, a) - (1/2) a(xi)^2; ``'riem'`` keeps the full kinetic term."""

    def hamiltonian_rhs(
        self, state: np.ndarray, mode: str = "sub", out: np.ndarray | None = None
    ) -> np.ndarray:
        """Hamilton's equations ``[dH/da | -dH/dx]`` at the state rows ``[x | a]``.

        ``out``, if given, is a C-contiguous array of the state's shape that
        does not overlap it; the field is written there and returned.
        """
        return self._weighted_rhs(state, _REEB_WEIGHTS[mode], out)

    @abc.abstractmethod
    def _weighted_rhs(
        self, state: np.ndarray, reeb_weight: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Hamilton's equations of ``H_sub + reeb_weight a0^2 / 2`` at the state rows."""

    def project_state(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-step renormalisation of the state rows ``[x | a]`` (default: none).

        ``out``, if given, is an array of the state's shape that does not
        overlap it; the projected rows are written there and returned.
        """
        if out is None:
            return state
        np.copyto(out, state)
        return out

    # -- exact flows (the shooting search requires both) -------------------
    @abc.abstractmethod
    def reeb_flow(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Points ``x`` (..., d) moved along the Reeb field for times ``theta`` (...)."""

    def flow_points(
        self, x0: np.ndarray, a: np.ndarray, t: np.ndarray, mode: str = "sub"
    ) -> np.ndarray:
        """Positions (..., K, d) of the exact flow in ``mode``.

        The flow starts at the rows ``(x0, a)`` (..., d) and is sampled at the
        times ``t`` (..., K) of each row.
        """
        return self._flow_points(x0, a, t, _REEB_WEIGHTS[mode])

    def flow_sq_distances(
        self, x0: np.ndarray, a: np.ndarray, t: np.ndarray, q: np.ndarray, mode: str = "sub"
    ) -> np.ndarray:
        """Squared distances (..., K) from ``q`` of :meth:`flow_points`."""
        return self._flow_sq_distances(x0, a, t, q, _REEB_WEIGHTS[mode])

    @abc.abstractmethod
    def _flow_points(self, x0, a, t, reeb_weight):
        """:meth:`flow_points` for ``H_sub + reeb_weight a0^2 / 2``, in closed form."""

    @abc.abstractmethod
    def _flow_sq_distances(self, x0, a, t, q, reeb_weight):
        """:meth:`flow_sq_distances` for ``H_sub + reeb_weight a0^2 / 2``.

        Models give these without forming positions: the shooting search
        sizes its scan blocks by the sample count alone.
        """

    def closed_form_from_covector(
        self, x0: np.ndarray, alpha: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Positions of the exact horizontal-flow solution started at (x0, alpha)."""
        return self.flow_points(x0, alpha, t, "sub")

    # -- generic helpers ---------------------------------------------------
    def eta(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _dot(self.eta_covector(x), u)

    def alpha0(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Reeb component ``a(xi)`` of a covector; constant along the flow."""
        return _dot(a, self.reeb(x))

    def velocity(self, x: np.ndarray, a: np.ndarray, mode: str = "sub") -> np.ndarray:
        """Velocity paired with a covector: g^{-1} a, minus its Reeb part in sub mode."""
        v = self.sharp(x, a)
        if mode == "sub":
            v = v - self.alpha0(x, a)[..., None] * self.reeb(x)
        return v

    def covector_from(self, x: np.ndarray, u: np.ndarray, a0: float) -> np.ndarray:
        """Initial covector whose sub-Riemannian velocity is the horizontal ``u``.

        ``a = u^flat + a0 * eta``; with unit horizontal ``u`` this normalises
        the Hamiltonian to 1/2 (unit-speed flow) for every ``a0``.
        """
        a0 = np.asarray(a0, dtype=float)
        return self.flat(x, u) + a0[..., None] * self.eta_covector(x)

    def horizontal_project(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = self.tangent_project(x, v)
        return v - self.eta(x, v)[..., None] * self.reeb(x)

    def random_tangents(
        self, rng: np.random.Generator, x: np.ndarray, horizontal: bool = False
    ) -> np.ndarray:
        raw = rng.standard_normal(x.shape)
        v = self.horizontal_project(x, raw) if horizontal else self.tangent_project(x, raw)
        return v

    def random_unit_horizontal(self, rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
        v = self.random_tangents(rng, x, horizontal=True)
        norm2 = self.metric(x, v, v)
        bad = norm2 < 1e-12
        if np.any(bad):
            # a draw that lands in the vertical/normal space projects to zero;
            # fall back to the first horizontal frame vector there
            fallback = self.orthonormal_frame(x)[..., 0, :]
            v = np.where(bad[..., None], fallback, v)
            norm2 = self.metric(x, v, v)
        return v / np.sqrt(norm2)[..., None]

    def orthonormal_frame(self, x: np.ndarray) -> np.ndarray:
        """g-orthonormal frame of shape (..., dim, ambient_dim).

        The first 2n vectors are horizontal, the last is the Reeb field.
        Built by metric Gram-Schmidt from a fixed generic seed basis, so the
        frame is deterministic in the point.
        """
        x = np.asarray(x, dtype=float)
        seeds = _generic_seed_vectors(self.ambient_dim)
        kept = [self.reeb(x)]
        for s in seeds:
            if len(kept) == self.dim:
                break
            cand = self.tangent_project(x, np.broadcast_to(s, x.shape))
            for e in kept:
                cand = cand - self.metric(x, cand, e)[..., None] * e
            norm = np.sqrt(np.maximum(self.metric(x, cand, cand), 0.0))
            if np.min(norm) < 1e-8:
                continue  # seed degenerate somewhere in the batch; try the next
            kept.append(cand / norm[..., None])
        if len(kept) != self.dim:
            raise RuntimeError("failed to complete an orthonormal frame")
        horizontal, reeb = kept[1:], kept[0]
        return np.stack(horizontal + [reeb], axis=-2)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} key={self.key!r} dim={self.dim}>"


_SEED_CACHE: dict[int, np.ndarray] = {}


def _generic_seed_vectors(m: int) -> np.ndarray:
    """Fixed full-rank generic directions used to seed Gram-Schmidt frames."""
    if m not in _SEED_CACHE:
        rng = np.random.default_rng(20260826 + m)
        _SEED_CACHE[m] = rng.standard_normal((m + 2, m))
    return _SEED_CACHE[m]


# ---------------------------------------------------------------------------
# Structure identity suite.
# ---------------------------------------------------------------------------


@dataclass
class IdentityResult:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


@dataclass
class StructureReport:
    identities: list[IdentityResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.identities)

    def by_name(self, name: str) -> IdentityResult:
        for r in self.identities:
            if r.name == name:
                return r
        raise KeyError(name)


def _covariant_field_derivative(model, x, X, field_fn):
    """nabla_X of a tangent field given by an ambient evaluator.

    Straight-line central difference of the field (4th order, step 1e-4)
    plus the Christoffel correction.  Valid because every model's field
    evaluators extend smoothly and tangentially off the constraint set.
    """
    d = directional_derivative(field_fn, x, X, step=1e-4, order=4)
    return d + model.gamma(x, X, field_fn(x))


def _exterior_eta(model, x, fieldX, fieldY):
    """d eta (X, Y) = X(eta(Y~)) - Y(eta(X~)) - eta([X~, Y~]) by central FD at step 1e-5."""
    X, Y = fieldX(x), fieldY(x)

    def eta_of_Y(y):
        return model.eta(y, fieldY(y))

    def eta_of_X(y):
        return model.eta(y, fieldX(y))

    t1 = directional_derivative(eta_of_Y, x, X)
    t2 = directional_derivative(eta_of_X, x, Y)
    bracket = directional_derivative(fieldY, x, X) - directional_derivative(fieldX, x, Y)
    return t1 - t2 - model.eta(x, bracket)


def verify_structure(
    model: SasakiModel,
    n_points: int = 1000,
    seed: int = 0,
    points: np.ndarray | None = None,
    tol: float | None = None,
) -> StructureReport:
    """Check the defining contact-metric identities at sampled points.

    Algebraic identities are expected at near machine precision (1e-9); the
    ones that differentiate the structure tensors numerically get a 1e-6
    budget (the exterior-derivative checks use central differences at step
    1e-5).  Passing ``tol`` replaces every per-identity tolerance with a
    single budget.  Points are drawn from the model unless ``points`` is
    given, in which case they must satisfy the constraint.
    """
    rng = np.random.default_rng(seed)
    if points is None:
        x = model.random_points(rng, n_points)
    else:
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if x.shape[0] == 0:
            raise ValueError("empty sample set")
        worst = float(np.max(model.constraint_residual(x)))
        if worst > 1e-10:
            raise ValueError(f"points off the constraint set (residual {worst:.3e})")
    X = model.random_tangents(rng, x)
    Y = model.random_tangents(rng, x)
    xi = model.reeb(x)

    report = StructureReport()
    add = report.identities.append

    # eta(xi) = 1
    add(
        IdentityResult(
            "reeb-normalization",
            float(np.max(np.abs(model.eta(x, xi) - 1.0))),
            1e-9,
        )
    )

    # phi^2 = -Id + eta (x) xi
    r = model.phi(x, model.phi(x, X)) + X - model.eta(x, X)[..., None] * xi
    add(IdentityResult("phi-square", float(np.max(np.abs(r))), 1e-9))

    # g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)
    r = (
        model.metric(x, model.phi(x, X), model.phi(x, Y))
        - model.metric(x, X, Y)
        + model.eta(x, X) * model.eta(x, Y)
    )
    add(IdentityResult("phi-compatibility", float(np.max(np.abs(r))), 1e-9))

    # d eta (X, Y) = 2 g(phi X, Y), with projected-constant extensions
    def extendX(y):
        return model.tangent_project(y, X)

    def extendY(y):
        return model.tangent_project(y, Y)

    de = _exterior_eta(model, x, extendX, extendY)
    r = de - 2.0 * model.metric(x, model.phi(x, X), Y)
    add(IdentityResult("contact-form", float(np.max(np.abs(r))), 1e-6))

    # nabla_X xi = phi(X)
    nab = _covariant_field_derivative(model, x, X, model.reeb)
    add(
        IdentityResult(
            "reeb-parallelism",
            float(np.max(np.abs(nab - model.phi(x, X)))),
            1e-8,
        )
    )

    # iota_xi d eta = 0
    de = _exterior_eta(model, x, model.reeb, extendY)
    add(IdentityResult("reeb-contraction", float(np.max(np.abs(de))), 1e-6))

    # (nabla_X phi)(Y) = eta(Y) X - g(X, Y) xi  -- pins the curvature sign
    def phiY(y):
        return model.phi(y, extendY(y))

    lhs = _covariant_field_derivative(model, x, X, phiY) - model.phi(
        x, _covariant_field_derivative(model, x, X, extendY)
    )
    rhs = model.eta(x, Y)[..., None] * X - model.metric(x, X, Y)[..., None] * xi
    add(IdentityResult("phi-covariant-derivative", float(np.max(np.abs(lhs - rhs))), 1e-6))

    if tol is not None:
        for r in report.identities:
            r.tolerance = float(tol)
    return report


# ---------------------------------------------------------------------------
# Curvature: transverse reduction and Ricci traces.
# ---------------------------------------------------------------------------


def transverse_curvature(
    model: SasakiModel,
    x: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    W: np.ndarray,
) -> np.ndarray:
    """Curvature of the transverse Kahler quotient on horizontal vectors.

    Solves the O'Neill-type relation between the full and quotient curvature
    for R_T; all four arguments must lie in the contact distribution.
    """
    g = model.metric
    pX, pY, pZ = model.phi(x, X), model.phi(x, Y), model.phi(x, Z)
    return (
        model.curvature(x, X, Y, Z, W)
        - g(x, pX, Z) * g(x, pY, W)
        + g(x, pX, W) * g(x, pY, Z)
        - 2.0 * g(x, pX, Y) * g(x, pZ, W)
    )


def ricci(model: SasakiModel, x: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Ricci tensor as the frame trace of the full curvature."""
    frame = model.orthonormal_frame(x)
    total = 0.0
    for i in range(model.dim):
        e = frame[..., i, :]
        total = total + model.curvature(x, e, X, Y, e)
    return total


def ricci_transverse(
    model: SasakiModel, x: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transverse Ricci on horizontal X, Y by two independent routes.

    Returns ``(trace_route, eq_route)`` where the first traces the solved
    transverse curvature over a horizontal frame and the second uses
    ``Ric_T = Ric + 2 g``.
    """
    return _ricci_transverse_trace(model, x, X, Y), _ricci_transverse_eq(model, x, X, Y)


def _ricci_transverse_trace(model, x, X, Y):
    """Transverse Ricci as the horizontal-frame trace of the solved transverse curvature."""
    frame = model.orthonormal_frame(x)
    total = 0.0
    for i in range(2 * model.n):
        e = frame[..., i, :]
        total = total + transverse_curvature(model, x, e, X, Y, e)
    return total


def _ricci_transverse_eq(model, x, X, Y):
    """Transverse Ricci by ``Ric_T = Ric + 2 g``."""
    return ricci(model, x, X, Y) + 2.0 * model.metric(x, X, Y)


@dataclass
class CurvatureReport:
    """Point evaluation of full/transverse curvature with cross-route residuals."""

    r_full: float
    r_transverse: float
    residuals: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(v < 1e-6 for v in self.residuals.values())


def curvature_report(
    model: SasakiModel, x: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> CurvatureReport:
    """Sectional-style curvature data for a horizontal pair (X, Y) at ``x``."""
    Xh = model.horizontal_project(x, X)
    Yh = model.horizontal_project(x, Y)
    r_full = model.curvature(x, Xh, Yh, Yh, Xh)
    r_t = transverse_curvature(model, x, Xh, Yh, Yh, Xh)
    trace_route, eq_route = ricci_transverse(model, x, Xh, Xh)
    return CurvatureReport(
        r_full=float(r_full),
        r_transverse=float(r_t),
        residuals={"ricci-transverse-routes": float(np.abs(trace_route - eq_route))},
    )


# ---------------------------------------------------------------------------
# Laplacian compatibility on basic functions.
# ---------------------------------------------------------------------------


def riemannian_laplacian_check(
    model: SasakiModel,
    potential,
    points: np.ndarray,
) -> float:
    """max |Delta f - 2 box f| over the sample points.

    ``potential`` must provide ``pullback(x)`` (values of the basic function
    on the model, for ambient points in a neighbourhood of the constraint
    set) and ``box_pullback(x)`` (the transverse complex Laplacian of the
    quotient representative, pulled back the same way).  The full Laplacian
    is computed by ambient finite differences at step 1e-2 of the degree-0
    homogeneous extension, which restricts to the manifold Laplacian.

    Raises if the function fails to be basic (nonzero Reeb derivative).
    """
    x = np.asarray(points, dtype=float)
    xi_deriv = directional_derivative(potential.pullback, x, model.reeb(x), step=1e-4)
    worst = float(np.max(np.abs(xi_deriv)))
    if worst > 1e-8:
        raise ValueError(f"function is not basic: Reeb derivative up to {worst:.3e}")
    lap_flat = fd_hessian_diagonal_sum(potential.pullback, x)
    delta = -lap_flat  # geometer sign: positive spectrum
    box = potential.box_pullback(x)
    return float(np.max(np.abs(delta - 2.0 * box)))
