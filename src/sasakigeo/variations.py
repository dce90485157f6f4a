"""Second-variation apparatus along normal sub-Riemannian geodesics.

Transversally parallel frames are transported along a unit-speed geodesic,
trigonometric test variation fields are built on top of them, and the energy
functional's first and second variations are evaluated by quadrature.  The
pointwise identities relating covariant derivatives and curvature terms of
the test fields are checked by computing both sides independently: the left
numerically (finite differences of sampled components plus the Christoffel
correction), the right from closed-form coefficient functions.  The sum of
all second variations collapses to an integral controlled by the transverse
Ricci curvature, which yields the diameter bound certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SasakiModel, _ricci_transverse_eq, transverse_curvature
from .numdiff import _simpson, path_derivative
from .subriemannian import GeodesicPath, _myers_bound

__all__ = [
    "ParallelFrame",
    "FrameReport",
    "VariationField",
    "AdmissibilityError",
    "initial_transverse_frame",
    "transport_frame",
    "frame_report",
    "make_variation_field",
    "sine_frame_fields",
    "phi_reeb_field",
    "first_variation",
    "second_variation",
    "VariationIdentityReport",
    "check_variation_identities",
    "SumIdentityReport",
    "second_variation_sum",
    "MyersCertificate",
    "myers_certificate",
]


# ---------------------------------------------------------------------------
# Transversally parallel frames.
# ---------------------------------------------------------------------------


@dataclass
class ParallelFrame:
    """Horizontal frame vectors transported along a geodesic.

    ``vectors`` has shape (n_vectors, M, ambient); the frame lives on the
    even-index subgrid of the path (step twice the path step) so that the
    transport integrator can use stored midpoint samples.  ``indices`` maps
    subgrid slots to path sample indices.
    """

    path: GeodesicPath
    t: np.ndarray
    vectors: np.ndarray
    indices: np.ndarray

    @property
    def n_vectors(self) -> int:
        return int(self.vectors.shape[0])


@dataclass
class FrameReport:
    transport_residual: float
    orthonormality_residual: float
    f1_max: float
    f2_max: float
    horizontality_max: float

    def passed(self) -> bool:
        """Every residual below 1e-6."""
        worst = max(
            self.transport_residual,
            self.orthonormality_residual,
            self.f1_max,
            self.f2_max,
            self.horizontality_max,
        )
        return worst < 1e-6


def _require_unit_speed(model: SasakiModel, path: GeodesicPath) -> None:
    speed2 = model.metric(path.points, path.velocities, path.velocities)
    worst = float(np.max(np.abs(speed2 - 1.0)))
    if worst > 1e-6:
        raise ValueError(f"path is not unit speed (|g(v,v)-1| up to {worst:.3e})")


def initial_transverse_frame(model: SasakiModel, path: GeodesicPath) -> list[np.ndarray]:
    """Orthonormal horizontal start vectors orthogonal to gamma' and Phi gamma'.

    Returns 2(n-1) vectors; the list is empty when n = 1.
    """
    x0 = path.points[0]
    v0 = path.velocities[0]
    pv0 = model.phi(x0, v0)
    kept: list[np.ndarray] = []
    frame = model.orthonormal_frame(x0)
    for i in range(2 * model.n):
        cand = frame[i]
        for b in (v0, pv0, *kept):
            cand = cand - model.metric(x0, cand, b) * b
        norm = float(np.sqrt(max(model.metric(x0, cand, cand), 0.0)))
        if norm > 1e-8:
            kept.append(cand / norm)
        if len(kept) == 2 * (model.n - 1):
            break
    return kept


def transport_frame(
    model: SasakiModel, path: GeodesicPath, X_init: list[np.ndarray]
) -> ParallelFrame:
    """Transport horizontal vectors so they stay perpendicular to the motion.

    The transport rule is ``dX/dt = -Gamma(v, X) - g(X, Phi v) xi``: parallel
    transport plus the Reeb-direction correction that keeps X horizontal
    along a curve whose velocity twists by the Reeb momentum.  Integration is
    RK4 with step ``h = 2 * path.step`` on the even-index subgrid, using the
    stored odd-index samples as midpoints, with a tangent projection after
    each step.

    The rule and the projection are linear in X, so each is evaluated once
    on the identity basis at every path sample (one batched model call per
    method): rows of ``A_j`` and ``P_j``.  For row vectors, one RK4 step of
    ``X' = X A`` from sample ``j`` is then the matrix
    ``M = (I + h/6 (K1 + 2 K2 + 2 K3 + K4)) P_{j+2}`` with ``K1 = A_j``,
    ``K2 = (I + h/2 K1) A_{j+1}``, ``K3 = (I + h/2 K2) A_{j+1}`` and
    ``K4 = (I + h K3) A_{j+2}``, formed for all slots in one batch, and the
    frame is the running product ``X_{s+1} = X_s M_s``.
    """
    _require_unit_speed(model, path)
    n_samples = path.t.shape[0]
    if n_samples < 5 or n_samples % 2 == 0:
        raise ValueError("path needs an even number of steps for midpoint transport")
    expected = 2 * (model.n - 1)
    if len(X_init) != expected:
        raise ValueError(f"expected {expected} initial frame vectors, got {len(X_init)}")

    indices = np.arange(0, n_samples, 2)
    tt = path.t[indices]
    x0, v0 = path.points[0], path.velocities[0]
    if expected == 0:
        vectors = np.zeros((0, indices.shape[0], model.ambient_dim))
        return ParallelFrame(path, tt, vectors, indices)

    X = np.stack([np.asarray(v, dtype=float) for v in X_init])
    pv0 = model.phi(x0, v0)
    gram = np.array(
        [[float(model.metric(x0, a, b)) for b in X] for a in X]
    )
    if float(np.max(np.abs(gram - np.eye(expected)))) > 1e-8:
        raise ValueError("initial frame is not orthonormal")
    for name, ref in (("Reeb", model.reeb(x0)), ("velocity", v0), ("Phi-velocity", pv0)):
        worst = max(float(np.abs(model.metric(x0, v, ref))) for v in X)
        if worst > 1e-8:
            raise ValueError(f"initial frame not orthogonal to the {name} direction")

    d = model.ambient_dim
    eye = np.eye(d)
    shape = (n_samples, d, d)
    x, v = path.points, path.velocities
    xb = np.broadcast_to(x[:, None], shape)
    basis = np.broadcast_to(eye, shape)
    pv = np.broadcast_to(model.phi(x, v)[:, None], shape)
    corr = model.metric(xb, basis, pv)
    A = -model.gamma(xb, np.broadcast_to(v[:, None], shape), basis)
    A -= corr[..., None] * model.reeb(x)[:, None]
    P = model.tangent_project(xb, basis)

    h2 = 2.0 * path.step
    K1, A_mid, A_end = A[0:-1:2], A[1::2], A[2::2]
    K2 = (eye + 0.5 * h2 * K1) @ A_mid
    K3 = (eye + 0.5 * h2 * K2) @ A_mid
    K4 = (eye + h2 * K3) @ A_end
    M = (eye + (h2 / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)) @ P[2::2]

    out = np.empty((expected, indices.shape[0], d))
    out[:, 0] = X
    for slot, step in enumerate(M):
        X = X @ step
        out[:, slot + 1] = X
    return ParallelFrame(path, tt, out, indices)


def _covariant_along(model, points, velocities, values, dt):
    """Covariant derivative of a field sampled along a path."""
    return path_derivative(values, dt) + model.gamma(points, velocities, values)


def frame_report(model: SasakiModel, frame: ParallelFrame) -> FrameReport:
    """Residuals of the transported-frame invariants, maxima over samples."""
    path = frame.path
    if frame.n_vectors == 0:
        return FrameReport(0.0, 0.0, 0.0, 0.0, 0.0)
    pts = path.points[frame.indices]
    vel = path.velocities[frame.indices]
    pvel = model.phi(pts, vel)
    xi = model.reeb(pts)
    dt = 2.0 * path.step

    transport = 0.0
    f1 = f2 = horiz = 0.0
    for i in range(frame.n_vectors):
        Xi = frame.vectors[i]
        DX = _covariant_along(model, pts, vel, Xi, dt)
        resid = DX - model.eta(pts, DX)[..., None] * xi
        mag = np.sqrt(np.maximum(model.metric(pts, resid, resid), 0.0))
        transport = max(transport, float(np.max(mag[2:-2])))
        f1 = max(f1, float(np.max(np.abs(model.metric(pts, Xi, vel)))))
        f2 = max(f2, float(np.max(np.abs(model.metric(pts, Xi, pvel)))))
        horiz = max(horiz, float(np.max(np.abs(model.eta(pts, Xi)))))

    basis = list(frame.vectors) + [vel, pvel]
    ortho = 0.0
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            gab = model.metric(pts, basis[a], basis[b])
            target = 1.0 if a == b else 0.0
            ortho = max(ortho, float(np.max(np.abs(gab - target))))
    return FrameReport(transport, ortho, f1, f2, horiz)


# ---------------------------------------------------------------------------
# Variation fields.
# ---------------------------------------------------------------------------


class AdmissibilityError(ValueError):
    """The variation field does not generate horizontal curves."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"variation field violates the horizontality constraint "
            f"(residual {residual:.3e})"
        )


@dataclass
class VariationField:
    """A vector field along (a subgrid of) a geodesic, vanishing at endpoints.

    ``indices`` selects the path samples the field lives on; the grid must be
    uniform.  The admissibility residual is
    ``max | d/dt g(V, xi) - 2 g(V, Phi gamma') |`` over interior samples: the
    condition for V to generate horizontal-curve variations.
    """

    path: GeodesicPath
    t: np.ndarray
    values: np.ndarray
    indices: np.ndarray
    admissibility_residual: float
    endpoint_norms: tuple[float, float]
    label: str = ""

    def admissible(self) -> bool:
        """Admissibility residual below 1e-5 and both endpoint norms below 1e-10."""
        return (
            self.admissibility_residual < 1e-5
            and max(self.endpoint_norms) < 1e-10
        )


def make_variation_field(
    model: SasakiModel,
    path: GeodesicPath,
    values: np.ndarray,
    indices: np.ndarray | None = None,
    label: str = "",
) -> VariationField:
    if indices is None:
        indices = np.arange(path.t.shape[0])
    t = path.t[indices]
    pts = path.points[indices]
    vel = path.velocities[indices]
    dt = float(t[1] - t[0])
    eta_v = model.eta(pts, values)
    lhs = path_derivative(eta_v, dt)
    rhs = 2.0 * model.metric(pts, values, model.phi(pts, vel))
    residual = float(np.max(np.abs(lhs - rhs)[2:-2]))
    norms = np.sqrt(np.maximum(model.metric(pts, values, values), 0.0))
    return VariationField(
        path, t, values, indices, residual, (float(norms[0]), float(norms[-1])), label
    )


def _sine_profile(t: np.ndarray, length: float) -> tuple[float, np.ndarray]:
    """``w = 2 pi / l`` and the test fields' profile ``h = sin(w t)``, zero at both ends."""
    w = 2.0 * np.pi / length
    return w, np.sin(w * t)


def sine_frame_fields(
    model: SasakiModel, frame: ParallelFrame
) -> list[VariationField]:
    """The fields h X_i on the frame subgrid, with ``h`` of :func:`_sine_profile`."""
    path = frame.path
    _, h = _sine_profile(frame.t, float(path.t[-1]))
    return [
        make_variation_field(model, path, h[:, None] * X, frame.indices, f"sine-frame-{i}")
        for i, X in enumerate(frame.vectors)
    ]


def _phi_reeb_profile(t: np.ndarray, length: float) -> tuple[float, np.ndarray, np.ndarray]:
    """``w`` and ``h`` of :func:`_sine_profile` and ``k = (l / pi)(1 - cos(w t))``, so k' = 2h."""
    w, h = _sine_profile(t, length)
    return w, h, (length / np.pi) * (1.0 - np.cos(w * t))


def phi_reeb_field(model: SasakiModel, path: GeodesicPath) -> VariationField:
    """The field h Phi gamma' + k xi of :func:`_phi_reeb_profile`."""
    _, h, k = _phi_reeb_profile(path.t, float(path.t[-1]))
    pvel = model.phi(path.points, path.velocities)
    xi = model.reeb(path.points)
    vals = h[:, None] * pvel + k[:, None] * xi
    return make_variation_field(model, path, vals, None, "phi-reeb")


# ---------------------------------------------------------------------------
# First and second variation of energy.
# ---------------------------------------------------------------------------


def _field_derivatives(model, V: VariationField):
    """Points, velocities, and the first and second covariant derivatives of ``V`` at its samples."""
    pts = V.path.points[V.indices]
    vel = V.path.velocities[V.indices]
    dt = float(V.t[1] - V.t[0])
    DV = _covariant_along(model, pts, vel, V.values, dt)
    return pts, vel, DV, _covariant_along(model, pts, vel, DV, dt)


def first_variation(model: SasakiModel, V: VariationField) -> float:
    """dE(0) for the variation generated by V; zero for admissible fields.

    Computed as the quadrature of g(nabla_v V, gamma'), which integrates by
    parts onto the geodesic equation.
    """
    pts, vel, DV, _ = _field_derivatives(model, V)
    return float(_simpson(model.metric(pts, DV, vel), V.t))


def second_variation(model: SasakiModel, path: GeodesicPath, V: VariationField) -> float:
    """d2E(0) for an admissible variation field, by composite Simpson.

    The integrand combines the second covariant derivative of V, the
    curvature term R(V, gamma')gamma', and the Reeb-momentum cross terms.
    """
    if V.t.shape[0] < 32:
        raise ValueError("quadrature needs at least 32 samples")
    if not V.admissible():
        raise AdmissibilityError(V.admissibility_residual)
    pts, vel, DW, DDW = _field_derivatives(model, V)
    a0 = float(np.mean(path.alpha0s))
    W = V.values
    RVvv = model.curvature_op(pts, W, vel, vel)
    main = model.metric(pts, W, DDW + RVvv)
    cross = model.eta(pts, W) * model.metric(pts, W, vel) + model.metric(
        pts, DW, model.phi(pts, W)
    )
    return float(-_simpson(main, V.t) + 2.0 * a0 * _simpson(cross, V.t))


# ---------------------------------------------------------------------------
# Pointwise identity checks for the test fields.
# ---------------------------------------------------------------------------


@dataclass
class VariationIdentityReport:
    """Max interior residuals of the four test-field identities.

    (a) and (b) concern the sine-frame fields and are None when the frame is
    empty (n = 1); (c) and (d) concern the h Phi gamma' + k xi field.
    """

    frame_second_derivative: float | None
    frame_curvature: float | None
    phi_reeb_second_derivative: float
    phi_reeb_curvature: float

    def passed(self) -> bool:
        """Every computed residual below 1e-5."""
        vals = [
            v
            for v in (
                self.frame_second_derivative,
                self.frame_curvature,
                self.phi_reeb_second_derivative,
                self.phi_reeb_curvature,
            )
            if v is not None
        ]
        return max(vals) < 1e-5


def check_variation_identities(
    model: SasakiModel, path: GeodesicPath, frame: ParallelFrame
) -> VariationIdentityReport:
    if frame.path is not path:
        raise ValueError("frame was transported along a different path")
    _require_unit_speed(model, path)
    length = float(path.t[-1])
    a0 = float(np.mean(path.alpha0s))

    res_a = res_b = None
    if frame.n_vectors > 0:
        w, h = _sine_profile(frame.t, length)
        hdd = -(w**2) * h
        res_a = res_b = 0.0
        for Xi, V in zip(frame.vectors, sine_frame_fields(model, frame)):
            pts, vel, _, DDV = _field_derivatives(model, V)
            lhs_a = model.metric(pts, V.values, DDV)
            res_a = max(res_a, float(np.max(np.abs(lhs_a - h * hdd)[2:-2])))
            lhs_b = model.metric(pts, V.values, model.curvature_op(pts, V.values, vel, vel))
            rhs_b = h**2 * transverse_curvature(model, pts, Xi, vel, vel, Xi)
            res_b = max(res_b, float(np.max(np.abs(lhs_b - rhs_b)[2:-2])))

    V = phi_reeb_field(model, path)
    pts, vel, _, DDW = _field_derivatives(model, V)
    w, h, k = _phi_reeb_profile(V.t, length)
    hdd = -(w**2) * h
    W = V.values
    lhs_c = model.metric(pts, W, DDW)
    rhs_c = h * (hdd + 3.0 * h - (2.0 * a0) ** 2 * h) - k**2
    res_c = float(np.max(np.abs(lhs_c - rhs_c)[2:-2]))
    pvel = model.phi(pts, vel)
    lhs_d = model.metric(pts, W, model.curvature_op(pts, W, vel, vel))
    rhs_d = (
        h**2 * transverse_curvature(model, pts, pvel, vel, vel, pvel)
        - 3.0 * h**2
        + k**2
    )
    res_d = float(np.max(np.abs(lhs_d - rhs_d)[2:-2]))
    return VariationIdentityReport(res_a, res_b, res_c, res_d)


# ---------------------------------------------------------------------------
# Summed second variation and the diameter-bound certificate.
# ---------------------------------------------------------------------------


def _myers_integrand(model: SasakiModel, path: GeodesicPath) -> np.ndarray:
    w, h = _sine_profile(path.t, float(path.t[-1]))
    ric_t = _ricci_transverse_eq(model, path.points, path.velocities, path.velocities)
    return h**2 * (w**2 * (2 * model.n - 1) - ric_t)


@dataclass
class SumIdentityReport:
    """Sum of test-field second variations vs the closed-form integral."""

    total_second_variation: float
    integral: float

    @property
    def residual(self) -> float:
        return abs(self.total_second_variation - self.integral)


def second_variation_sum(
    model: SasakiModel, path: GeodesicPath, frame: ParallelFrame
) -> SumIdentityReport:
    total = sum(
        second_variation(model, path, f) for f in sine_frame_fields(model, frame)
    )
    total += second_variation(model, path, phi_reeb_field(model, path))
    integral = float(_simpson(_myers_integrand(model, path), path.t))
    return SumIdentityReport(float(total), integral)


@dataclass
class MyersCertificate:
    """Nonnegativity certificate for the summed second variation.

    ``integral`` is the closed-form value of the summed second variation of
    the test fields; on a minimizing geodesic it cannot be negative, which
    forces ``length <= bound`` with ``bound = 2 pi sqrt((2n-1)/tau)``.
    """

    integral: float
    length: float
    bound: float
    tau: float

    @property
    def passed(self) -> bool:
        return self.integral >= -1e-5

    @property
    def length_within_bound(self) -> bool:
        return self.length <= self.bound + 1e-2


def myers_certificate(
    model: SasakiModel, path: GeodesicPath, tau: float, minimizing: bool = False
) -> MyersCertificate:
    if tau <= 0:
        raise ValueError("tau must be a positive lower transverse-Ricci bound")
    if not minimizing:
        raise ValueError(
            "certificate applies to minimizing geodesics only; pass minimizing=True "
            "for a converged shortest connection"
        )
    integral = float(_simpson(_myers_integrand(model, path), path.t))
    length = float(path.t[-1])
    return MyersCertificate(integral, length, _myers_bound(model.n, tau), tau)
