"""Energy functionals on paths of transverse potentials over the 3-sphere.

Deforming the contact form by a basic potential changes the transverse area
density by ``u = 1 - box0(phi)``.  Four path functionals probe that family:

* ``functional_L`` — mean of the path velocity against the deformed measure;
  an exact potential exists, so the value depends only on the endpoints.
* ``functional_I`` — endpoint pairing of the potential difference with the
  change in measure; nonnegative.
* ``functional_J`` — path integral with the start measure as reference;
  path-independent, with a closed form via L.
* ``functional_M`` — curvature energy whose integrand weights the velocity
  by the deviation of the deformed transverse scalar curvature from its
  round value; its critical points are the transversally Einstein
  structures, which calibrates the scalar-trace convention.

All quotient integrals run on an ``S2Grid``; the time direction uses
composite Simpson per smooth segment, so piecewise-linear paths are handled
segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numdiff import _cumulative_trapezoid, _simpson, path_derivative
from .quotient import (
    BasicPotential,
    PositivityError,
    S2Grid,
    _gauss_curvature,
)

__all__ = [
    "PathSegment",
    "PotentialPath",
    "linear_path",
    "power_path",
    "piecewise_linear_path",
    "functional_L",
    "functional_I",
    "functional_J",
    "j_consistency",
    "functional_M",
    "ij_derivative_check",
    "stationarity_residual",
    "CalibrationResult",
    "calibrate_scalar_trace",
    "FunctionalReport",
    "functional_report",
    "ROUND_TRANSVERSE_SCALAR",
]

# transverse scalar curvature of the undeformed structure, n = 1
ROUND_TRANSVERSE_SCALAR = 4.0


@dataclass
class PathSegment:
    """A smooth stretch of a potential path on a uniform time grid."""

    ts: np.ndarray
    phis: list[BasicPotential]
    phidots: list[BasicPotential]

    def __post_init__(self) -> None:
        if len(self.phis) != self.ts.shape[0] or len(self.phidots) != self.ts.shape[0]:
            raise ValueError("segment arrays disagree in length")
        if self.ts.shape[0] < 3:
            raise ValueError("segment needs at least 3 nodes")


@dataclass
class PotentialPath:
    """Piecewise-smooth path of basic potentials."""

    grid: S2Grid
    segments: list[PathSegment]

    @property
    def start(self) -> BasicPotential:
        return self.segments[0].phis[0]

    @property
    def end(self) -> BasicPotential:
        return self.segments[-1].phis[-1]

    @property
    def node_count(self) -> int:
        return sum(seg.ts.shape[0] for seg in self.segments)

    def require_positive(self) -> None:
        for seg in self.segments:
            for t, phi in zip(seg.ts, seg.phis):
                _positive_at(t, phi.u())


def _positive_at(t: float, u: np.ndarray) -> np.ndarray:
    """The density ``u`` at path time ``t``; raises :class:`PositivityError` unless it is positive."""
    m = float(np.min(u))
    if m <= 0.0:
        raise PositivityError(m, f"at path time t={float(t):.4f}")
    return u


def _interpolated_path(
    phi_a: BasicPotential,
    phi_b: BasicPotential,
    weight_fn,
    weight_dot_fn,
    nodes: int,
    t0: float = 0.0,
    t1: float = 1.0,
) -> PathSegment:
    ts = np.linspace(t0, t1, nodes)
    diff = phi_b.minus(phi_a)
    phis = [phi_a.plus(diff.scaled(float(weight_fn(t)))) for t in ts]
    dots = [diff.scaled(float(weight_dot_fn(t))) for t in ts]
    return PathSegment(ts, phis, dots)


def linear_path(
    phi_a: BasicPotential, phi_b: BasicPotential, nodes: int = 33
) -> PotentialPath:
    seg = _interpolated_path(phi_a, phi_b, lambda t: t, lambda t: 1.0, nodes)
    return PotentialPath(phi_a.grid, [seg])


def power_path(
    phi_a: BasicPotential, phi_b: BasicPotential, exponent: float = 2.0, nodes: int = 33
) -> PotentialPath:
    """Reparametrized path t -> phi_a + t^p (phi_b - phi_a), same endpoints."""
    if exponent < 1.0:
        raise ValueError("exponent below 1 makes the velocity singular at t=0")
    seg = _interpolated_path(
        phi_a,
        phi_b,
        lambda t: t**exponent,
        lambda t: exponent * t ** (exponent - 1.0),
        nodes,
    )
    return PotentialPath(phi_a.grid, [seg])


def piecewise_linear_path(
    waypoints: list[BasicPotential], nodes_per_segment: int = 17
) -> PotentialPath:
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints")
    n_seg = len(waypoints) - 1
    segs = []
    for i in range(n_seg):
        t0, t1 = i / n_seg, (i + 1) / n_seg
        seg = _interpolated_path(
            waypoints[i],
            waypoints[i + 1],
            lambda t, a=t0, b=t1: (t - a) / (b - a),
            lambda t, a=t0, b=t1: 1.0 / (b - a),
            nodes_per_segment,
            t0,
            t1,
        )
        segs.append(seg)
    return PotentialPath(waypoints[0].grid, segs)


def _require_grid(grid: S2Grid) -> None:
    if grid.n_theta < 32 or grid.n_phi < 64:
        raise ValueError("quadrature grid must be at least 32 x 64")


MIN_NODES = 16  # fewest time quadrature nodes a functional integrates a path with


def _require_nodes(path: PotentialPath) -> None:
    if path.node_count < MIN_NODES:
        raise ValueError(f"path needs at least {MIN_NODES} quadrature nodes")


def _segment_integral(seg: PathSegment, node_fn) -> float:
    """Simpson integral of ``node_fn(u, dot)`` over the segment.

    ``u`` is each node's density, formed once and checked positive, and
    ``dot`` its velocity.
    """
    vals = np.array(
        [node_fn(_positive_at(t, phi.u()), dot) for t, phi, dot in zip(seg.ts, seg.phis, seg.phidots)]
    )
    return float(_simpson(vals, seg.ts))


def functional_L(path: PotentialPath) -> float:
    """Path integral of the mean velocity against the deformed measure."""
    _require_grid(path.grid)
    _require_nodes(path)
    grid = path.grid
    return sum(
        _segment_integral(seg, lambda u, dot: grid.mean(dot.values * u))
        for seg in path.segments
    )


def functional_I(phi_a: BasicPotential, phi_b: BasicPotential) -> float:
    """Endpoint pairing of the difference with the change of measure."""
    phi_a.require_positive()
    phi_b.require_positive()
    grid = phi_a.grid
    psi = phi_b.values - phi_a.values
    return grid.mean(psi * (phi_a.u() - phi_b.u()))


def _require_endpoints(
    phi_a: BasicPotential, phi_b: BasicPotential, path: PotentialPath
) -> None:
    tol = 1e-12
    if (
        np.max(np.abs(path.start.coeffs - phi_a.coeffs)) > tol
        or np.max(np.abs(path.end.coeffs - phi_b.coeffs)) > tol
    ):
        raise ValueError("path endpoints do not match the given potentials")


def functional_J(
    phi_a: BasicPotential, phi_b: BasicPotential, path: PotentialPath
) -> float:
    """Path integral of the velocity against the start-measure deficit."""
    _require_grid(path.grid)
    _require_nodes(path)
    _require_endpoints(phi_a, phi_b, path)
    grid = path.grid
    u_a = phi_a.u()
    return sum(
        _segment_integral(seg, lambda u, dot: grid.mean(dot.values * (u_a - u)))
        for seg in path.segments
    )


def j_consistency(
    phi_a: BasicPotential, phi_b: BasicPotential, path: PotentialPath
) -> tuple[float, float]:
    """(path-integral value, closed-form value) of J; they must agree.

    The closed form pairs the endpoint difference with the start measure and
    subtracts L.
    """
    return functional_J(phi_a, phi_b, path), _j_closed_form(phi_a, phi_b, functional_L(path))


def _j_closed_form(phi_a: BasicPotential, phi_b: BasicPotential, L: float) -> float:
    """J from the value ``L`` of :func:`functional_L` on a path from ``phi_a`` to ``phi_b``."""
    return phi_a.grid.mean((phi_b.values - phi_a.values) * phi_a.u()) - L


def functional_M(path: PotentialPath, calibration: float = 0.5) -> float:
    """Curvature energy: velocity weighted by the scalar-curvature deviation."""
    return _functional_Ms(path, (calibration,))[0]


def _functional_Ms(path: PotentialPath, calibrations) -> list[float]:
    """:func:`functional_M` at each constant of ``calibrations``, in order.

    Each segment's densities ``u`` and velocity fields are formed once per
    node and its Gauss curvature fields ``K`` once, in one batched
    transform; each constant ``c`` scales them to the scalar curvature
    ``(c * 2.0) * K`` of :func:`transverse_scalar_curvature`.
    """
    _require_grid(path.grid)
    _require_nodes(path)
    grid = path.grid
    totals = [0.0] * len(calibrations)
    for seg in path.segments:
        u = np.empty((len(seg.phis), grid.n_theta, grid.n_phi))
        for k, (t, phi) in enumerate(zip(seg.ts, seg.phis)):
            u[k] = _positive_at(t, phi.u())
        vals = [[] for _ in calibrations]
        for dot, K, u_k in zip(seg.phidots, _gauss_curvature(grid, u), u):
            v = dot.values
            for j, c in enumerate(calibrations):
                vals[j].append(-grid.mean(v * ((c * 2.0) * K - ROUND_TRANSVERSE_SCALAR) * u_k))
        for j, node_vals in enumerate(vals):
            totals[j] += float(_simpson(node_vals, seg.ts))
    return totals


def ij_derivative_check(path: PotentialPath) -> float:
    """Max residual of the derivative identity for I - J along the path.

    Compares the finite-difference time derivative of
    ``I(start, phi_t) - J(start, phi_t)`` with the deformed-Laplacian pairing
    of phi_t against the velocity.  The start potential must be constant so
    the moving endpoint carries all the content of the comparison.
    """
    if len(path.segments) != 1:
        raise ValueError("derivative check needs a smooth single-segment path")
    seg = path.segments[0]
    if seg.ts.shape[0] < 8:
        raise ValueError("too few t-samples: need at least 8 for the stencil")
    grid = path.grid
    base = path.start
    if float(np.max(np.abs(base.box0()))) > 1e-10:
        raise ValueError("derivative check requires a constant start potential")
    # each node's density, formed once and checked positive
    us = [_positive_at(t, phi.u()) for t, phi in zip(seg.ts, seg.phis)]

    u_a = us[0]
    # running L over the segment (trapezoid prefix sums), then J closed form
    l_nodes = np.array([grid.mean(dot.values * u_t) for u_t, dot in zip(us, seg.phidots)])
    l_cum = np.concatenate([[0.0], _cumulative_trapezoid(l_nodes, seg.ts)])
    f = np.empty(seg.ts.shape[0])
    rhs = np.empty(seg.ts.shape[0])
    for j, (phi, dot, u_t) in enumerate(zip(seg.phis, seg.phidots, us)):
        psi = phi.values - base.values
        i_t = grid.mean(psi * (u_a - u_t))
        j_t = grid.mean(psi * u_a) - l_cum[j]
        f[j] = i_t - j_t
        # deformed Laplacian against the deformed measure; the densities cancel
        rhs[j] = grid.mean(phi.values * dot.box0())
    dt = float(seg.ts[1] - seg.ts[0])
    lhs = path_derivative(f, dt)
    return float(np.max(np.abs(lhs - rhs)[2:-2]))


# ---------------------------------------------------------------------------
# Scalar-trace calibration via stationarity at the round structure.
# ---------------------------------------------------------------------------


def _stationarity_residuals(grid: S2Grid, psi: BasicPotential, calibrations) -> dict[float, float]:
    """|dM(0)(psi)| per calibration, by central differencing of M along t -> t * psi.

    The difference step is 1e-2.  Each probe path is built once, and its
    one curvature transform serves every constant (:func:`_functional_Ms`).
    """
    eps = 1e-2
    zero = BasicPotential.zero(grid)
    m = {c: [] for c in calibrations}
    for step in (eps, -eps):
        path = linear_path(zero, psi.scaled(step))
        for c, value in zip(calibrations, _functional_Ms(path, calibrations)):
            m[c].append(value)
    return {c: float(abs((fwd - bwd) / (2.0 * eps))) for c, (fwd, bwd) in m.items()}


def stationarity_residual(grid: S2Grid, psi: BasicPotential, calibration: float) -> float:
    """|dM(0)(psi)| by central differencing of M along t -> t * psi, at step 1e-2."""
    return _stationarity_residuals(grid, psi, (calibration,))[calibration]


@dataclass
class CalibrationResult:
    constant: float
    residuals: dict[float, float] = field(default_factory=dict)


def calibrate_scalar_trace(grid: S2Grid) -> CalibrationResult:
    """Pick the scalar-trace constant that makes the round structure critical.

    Tries the two plausible normalizations of the curvature trace (real trace
    and half of it) against a fixed probe potential with nonzero mean: the
    constant 0.01 plus the harmonic coefficients ``C[1, 0] = 0.004`` and
    ``C[2, 1] = 0.003 + 0.001i``.  The round structure must be a critical
    point of the curvature energy, which only one constant achieves.  Both
    constants are tried on the same two probe paths.
    """
    C = np.zeros((grid.lmax + 1, grid.lmax + 1), dtype=complex)
    C[2, 1] = 0.003 + 0.001j
    C[1, 0] = 0.004
    psi = BasicPotential.zero(grid).shifted(0.01).plus(BasicPotential(grid, C))
    residuals = _stationarity_residuals(grid, psi, (0.5, 1.0))
    constant = min(residuals, key=residuals.get)
    return CalibrationResult(constant, residuals)


# ---------------------------------------------------------------------------
# Summary report for a single potential.
# ---------------------------------------------------------------------------


@dataclass
class FunctionalReport:
    """All four functionals for the path 0 -> phi, with diagnostics."""

    L: float
    M: float
    I: float
    J: float
    path_independence_residual: float
    j_closed_form_residual: float
    chain_slack_lower: float
    chain_slack_upper: float


def functional_report(grid: S2Grid, phi: BasicPotential, nodes: int = 33) -> FunctionalReport:
    """Evaluate the functionals on the straight path from zero to ``phi``.

    The inequality-chain slacks are those of
    ``0 <= I <= (n+1)(I-J) <= nI`` with n = 1.
    """
    zero = BasicPotential.zero(grid)
    straight = linear_path(zero, phi, nodes)
    curved = power_path(zero, phi, 2.0, nodes)
    L = functional_L(straight)
    L2 = functional_L(curved)
    I = functional_I(zero, phi)
    J = functional_J(zero, phi, straight)
    J_closed = _j_closed_form(zero, phi, L)
    M = functional_M(straight)
    chain_lower = 2.0 * (I - J) - I  # (n+1)(I-J) - I >= 0
    chain_upper = I - 2.0 * (I - J)  # n I - (n+1)(I-J) >= 0
    return FunctionalReport(
        L=L,
        M=M,
        I=I,
        J=J,
        path_independence_residual=abs(L - L2),
        j_closed_form_residual=abs(J - J_closed),
        chain_slack_lower=chain_lower,
        chain_slack_upper=chain_upper,
    )
