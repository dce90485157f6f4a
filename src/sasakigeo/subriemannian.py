"""Normal geodesic flow on the cotangent bundle and distance estimation.

The horizontal (sub-Riemannian) Hamiltonian is

    H(x, a) = (1/2) g^{-1}(a, a) - (1/2) a(xi)^2,

whose flow projects to horizontal constant-speed curves ("normal geodesics")
satisfying  ``nabla_v v + 2 a0 phi(v) = 0``  with ``a0 = a(xi)`` constant.
Integration is fixed-step RK4 on state rows ``[x | a]`` (point and covector
side by side, one array) with per-step state projection, over a leading axis
of rows that share each step's model calls; :func:`integrate_geodesic`
records one row's path.  The searches run batched over rows of initial
covectors through the model's exact flow, one closed form per model at the
mode's Reeb weight (0 in sub mode, 1 in riem mode).  The sampled closest
approaches ask the model for squared distances to the target
(``flow_sq_distances``), a block of samples at a time, without positions;
Newton takes the endpoints themselves (``flow_points``).
Certification always integrates the connecting geodesic by RK4 to the flight
time the search found, with step doubling run as two rows of one RK4 run:
the reported ``miss`` is the fine endpoint's distance to the target plus the
Richardson estimate of the integration error there, and the reported length
is that flight time.  A candidate whose exact flow already misses by more
than ``hit_tol``, or whose flight time is not positive, is not integrated
and is never a hit: no zero-length connection is reported between distinct
points.  The search's steps, tolerances and budgets other than the coarse
grid, the horizon and the confirmation passes are :class:`ShootingConfig`
class constants.

Distances are estimated by shooting: a coarse grid over unit horizontal
directions crossed with a Reeb-momentum grid, whose trajectories are ranked
by their closest approach to the target (sampled, with sub-step parabolic
interpolation).  A compass (pattern) search on (direction, a0) walks the best
seeds into their basins on the same sampled closest approaches; Newton on
(direction, a0, flight time) then puts the exact endpoint on the target.
Each seed's refine is a generator that yields its flow evaluations as
requests, and the seeds of a pass run side by side under one scheduler,
:func:`_drive`, whose every tick answers all pending requests of a kind with
one flow call; the steps whose bits depend on the shape of a BLAS call stay
in each seed's generator, so each seed is its own refine bit for bit.
Directions are unit rows ``c`` of frame coordinates in the orthonormal
horizontal frame at the start point ``p``; one linear chart per search pass
turns ``(c, a0)`` into unit-speed covectors, and between chart evaluations
the search calls the model only through its exact flow.  A reported length is
that of a normal geodesic from ``p`` whose certified miss is within
``hit_tol`` of the target, otherwise the search returns a budget-exhausted
status.

Each pair's search is a generator of the same kind, whose requests are the
hits to certify: :func:`cc_distance` drives one search and
:func:`estimate_diameter` those of all its pairs, whose pending requests
share one RK4 run of independent rows per tick.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .core import SasakiModel, _dot
from .numdiff import _parabolic_vertex, directional_derivative, path_derivative

__all__ = [
    "CotangentState",
    "GeodesicPath",
    "PathInvariants",
    "integrate_geodesic",
    "geodesic_residual",
    "strong_bracket_check",
    "measure_convergence_order",
    "ShootingConfig",
    "ShootingResult",
    "cc_distance",
    "DiameterReport",
    "PairResult",
    "estimate_diameter",
    "theoretical_diameter_bound",
    "geodesic_from_result",
]


# ---------------------------------------------------------------------------
# Cotangent states and integrated paths.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CotangentState:
    """A validated (point, covector) pair with cached Reeb momentum and energy."""

    point: np.ndarray
    covector: np.ndarray
    alpha0: float
    h_value: float
    mode: str = "sub"

    @classmethod
    def make(
        cls, model: SasakiModel, point: np.ndarray, covector: np.ndarray, mode: str = "sub"
    ) -> "CotangentState":
        point = np.asarray(point, dtype=float)
        covector = np.asarray(covector, dtype=float)
        if not np.all(np.isfinite(point)):
            raise ValueError("base point has non-finite coordinates")
        if not np.all(np.isfinite(covector)):
            raise ValueError("covector has non-finite components")
        res = float(np.max(model.constraint_residual(point)))
        if res > 1e-9:
            raise ValueError(f"base point off the constraint set (residual {res:.3e})")
        h = float(model.hamiltonian(point, covector, mode=mode))
        a0 = float(model.alpha0(point, covector))
        # independent route through the sharp map; both must agree
        quad = float(_dot(covector, model.sharp(point, covector)))
        h_dual = 0.5 * quad - (0.5 * a0 * a0 if mode == "sub" else 0.0)
        if abs(h - h_dual) > 1e-12 * max(1.0, abs(h)):
            raise ValueError(
                f"inconsistent Hamiltonian evaluations: {h!r} vs {h_dual!r}"
            )
        return cls(point, covector, a0, h, mode)


@dataclass
class PathInvariants:
    """Sampled conservation/consistency numbers for one integrated path."""

    horizontality_max: float
    speed_relative_spread: float
    alpha0_drift: float
    h_drift: float
    constraint_max: float

    def passed(self, mode: str = "sub") -> bool:
        ok = (
            self.speed_relative_spread < 1e-7
            and self.alpha0_drift < 1e-8
            and self.h_drift < 1e-8
            and self.constraint_max < 1e-9
        )
        if mode == "sub":
            ok = ok and self.horizontality_max < 1e-7
        return ok


@dataclass
class GeodesicPath:
    """Uniformly sampled trajectory of the cotangent flow.

    Arrays are stored sample-major, one row per entry of ``t``.
    """

    mode: str
    t: np.ndarray
    points: np.ndarray
    covectors: np.ndarray
    velocities: np.ndarray
    alpha0s: np.ndarray
    h_values: np.ndarray
    step: float
    length: float

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def invariants(self, model: SasakiModel) -> PathInvariants:
        speeds = np.sqrt(
            np.maximum(model.metric(self.points, self.velocities, self.velocities), 0.0)
        )
        mean_speed = float(np.mean(speeds))
        spread = float(np.std(speeds) / mean_speed) if mean_speed > 0 else 0.0
        horiz = float(np.max(np.abs(model.eta(self.points, self.velocities))))
        return PathInvariants(
            horizontality_max=horiz,
            speed_relative_spread=spread,
            alpha0_drift=float(np.max(np.abs(self.alpha0s - self.alpha0s[0]))),
            h_drift=float(np.max(np.abs(self.h_values - self.h_values[0]))),
            constraint_max=float(np.max(model.constraint_residual(self.points))),
        )


# ---------------------------------------------------------------------------
# Integrator core.
# ---------------------------------------------------------------------------


def _rk4_rows(model, state, h, iterations, mode):
    """RK4 samples of the state rows ``[x | a]`` (rows, 2 d), row ``i`` at step ``h[i]``.

    Returns the points and covectors, (iterations + 1, rows, d) each, as
    views of one sample buffer.  Rows are independent, so each row's samples
    are those of a one-row run bit for bit; the rows share each step's model
    calls.  Every buffer is made once per run: the model writes the four
    stages into their own arrays, the stage arguments and the weighted sum of
    the stages go to two more, with the operations of ``y + (h / 2) k1`` and
    ``k1 + 2 k2 + 2 k3 + k4`` in their written order, and every step ends
    with the model's state projection, written straight into the sample
    buffer.
    """
    # each row's step repeated along the row: a same-shape product skips
    # numpy's broadcasting, which costs more than the product on one row
    h = np.repeat(np.asarray(h, dtype=float)[:, None], state.shape[-1], axis=1)
    half, sixth = 0.5 * h, h / 6.0
    ys = np.empty((iterations + 1,) + state.shape)
    ys[0] = y = state
    rhs, project = model.hamiltonian_rhs, model.project_state
    add, mul = np.add, np.multiply
    stage, acc, k1, k2, k3, k4 = np.empty((6,) + state.shape)
    for i in range(iterations):
        rhs(y, mode, out=k1)
        rhs(add(y, mul(half, k1, out=stage), out=stage), mode, out=k2)
        rhs(add(y, mul(half, k2, out=stage), out=stage), mode, out=k3)
        rhs(add(y, mul(h, k3, out=stage), out=stage), mode, out=k4)
        add(k1, mul(2.0, k2, out=acc), out=acc)
        add(acc, mul(2.0, k3, out=stage), out=acc)
        add(acc, k4, out=acc)
        y = project(add(y, mul(sixth, acc, out=acc), out=acc), out=ys[i + 1])
    d = state.shape[-1] // 2
    return ys[..., :d], ys[..., d:]


MIN_STEPS = 16  # fewest RK4 steps integrate_geodesic takes a path in
# Smallest RK4 step integrate_geodesic takes.  The geodesic residual
# differentiates the sampled velocities by finite differences, which divide
# their round-off by the step: at unit speed the residual reads up to about
# 2e-16 / step, 4e-7 at this floor against its bound of 1e-6.
MIN_STEP = 5e-10


def integrate_geodesic(
    model: SasakiModel,
    init: CotangentState,
    t_end: float,
    steps: int,
) -> GeodesicPath:
    """Integrate the cotangent flow of the state's mode and record every sample.

    ``t_end`` must be finite and positive, ``steps`` an integer of at least
    :data:`MIN_STEPS`, the step ``t_end / steps`` at least :data:`MIN_STEP`
    and, in sub mode, the initial state must carry horizontal motion (H > 0).
    """
    mode = init.mode
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    if not isinstance(steps, numbers.Integral) or isinstance(steps, bool):
        raise ValueError(f"steps must be an integer count, got {steps!r}")
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    h = t_end / steps
    if h < MIN_STEP:
        raise ValueError(f"RK4 step t_end / steps = {h:.3g} is below the floor {MIN_STEP:g}")
    h_sub = float(model.hamiltonian(init.point, init.covector, mode="sub"))
    if mode == "sub" and not h_sub > 1e-15:
        raise ValueError("initial covector has no horizontal motion (H = 0)")
    state = np.concatenate((init.point, init.covector))[None]
    xs, as_ = _rk4_rows(model, state, [h], steps, mode)
    xs, as_ = xs[:, 0].copy(), as_[:, 0].copy()
    t = np.linspace(0.0, t_end, steps + 1)
    vel = model.velocity(xs, as_, mode)
    speeds = np.sqrt(np.maximum(model.metric(xs, vel, vel), 0.0))
    return GeodesicPath(
        mode=mode,
        t=t,
        points=xs,
        covectors=as_,
        velocities=vel,
        alpha0s=np.asarray(model.alpha0(xs, as_)),
        h_values=np.asarray(model.hamiltonian(xs, as_, mode)),
        step=h,
        length=float(np.trapezoid(speeds, t)),
    )


@dataclass
class GeodesicResidual:
    """Pointwise defect of the geodesic equation along an integrated path."""

    max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual < 1e-6


def geodesic_residual(model: SasakiModel, path: GeodesicPath) -> GeodesicResidual:
    """Residual of ``nabla_v v + 2 a0 phi(v)`` (sub) or ``nabla_v v`` (riem).

    The covariant acceleration is rebuilt from the stored samples by
    4th-order finite differences plus the Christoffel correction, so this is
    an independent check on the Hamiltonian route.  Edge samples are skipped
    (one-sided stencils are noisier and the contract is about the interior).
    """
    x, v = path.points, path.velocities
    dv = path_derivative(v, path.step)
    acc = dv + model.gamma(x, v, v)
    if path.mode == "sub":
        acc = acc + 2.0 * path.alpha0s[..., None] * model.phi(x, v)
    norms = np.sqrt(np.maximum(model.metric(x, acc, acc), 0.0))
    return GeodesicResidual(float(np.max(norms[2:-2])))


def measure_convergence_order(
    model: SasakiModel, init: CotangentState, t_end: float
) -> tuple[list[float], list[float]]:
    """Endpoint errors against the closed-form flow and fitted orders.

    Integrates at 250, 500 and 1000 steps.  Returns (errors, orders) where
    ``orders[i]`` is the rate fitted between consecutive step counts.
    """
    steps_list = (250, 500, 1000)
    exact = model.closed_form_from_covector(init.point, init.covector, np.array([t_end]))[0]
    errors = []
    for steps in steps_list:
        path = integrate_geodesic(model, init, t_end, steps)
        errors.append(float(np.linalg.norm(path.points[-1] - exact)))
    orders = []
    for e1, e2, n1, n2 in zip(errors, errors[1:], steps_list, steps_list[1:]):
        if e2 == 0:
            orders.append(np.inf)
        else:
            orders.append(math.log(e1 / e2) / math.log(n2 / n1))
    return errors, orders


# ---------------------------------------------------------------------------
# Bracket-generation check.
# ---------------------------------------------------------------------------


def strong_bracket_check(model: SasakiModel, p: np.ndarray, X: np.ndarray) -> float:
    """Finite-difference Lie bracket test that D is bracket generating.

    Extends ``X`` and ``phi X`` by projection, forms ``[X, phi X]`` with
    2nd-order central differences at step 1e-5, and returns the residual
    ``|g([X, phi X], xi) + 2 g(X, X)|`` against the closed-form value
    ``-2 g(X, X)``.
    """
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    gXX = float(model.metric(p, X, X))
    if not gXX > 1e-12:
        raise ValueError("X must be nonzero")
    if abs(float(model.eta(p, X))) > 1e-8 * max(1.0, math.sqrt(gXX)):
        raise ValueError("X must be horizontal")

    def fieldX(y):
        return model.horizontal_project(y, np.broadcast_to(X, y.shape))

    def fieldPhiX(y):
        return model.phi(y, fieldX(y))

    bracket = directional_derivative(fieldPhiX, p, fieldX(p)) - directional_derivative(
        fieldX, p, fieldPhiX(p)
    )
    value = float(model.metric(p, model.tangent_project(p, bracket), model.reeb(p)))
    return abs(value + 2.0 * gXX)


# ---------------------------------------------------------------------------
# Shooting search.
# ---------------------------------------------------------------------------


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class ShootingConfig:
    """Budgets and discretisation knobs for the distance search.

    The fields are what callers set.  The search's own steps, tolerances and
    refine and widen budgets are class constants.
    """

    n_directions: int = 32
    n_alpha0: int = 17
    alpha0_max: float = 4.0
    t_max: float | None = None
    seed: int = 0
    confirm_rounds: int = 4
    mode: str = "sub"

    search_step: ClassVar[float] = 2e-2
    # RK4 certifies at ``2 certify_step`` and ``certify_step`` (step doubling)
    certify_step: ClassVar[float] = 5e-3
    hit_tol: ClassVar[float] = 1e-3
    top_k: ClassVar[int] = 3
    max_refine_rounds: ClassVar[int] = 60
    widen_rounds: ClassVar[int] = 3
    alpha0_cap: ClassVar[float] = 32.0

    def __post_init__(self):
        for name in ("alpha0_max",) + (() if self.t_max is None else ("t_max",)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and math.isfinite(value) and value > 0
            ):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name, least in (("n_directions", 1), ("n_alpha0", 1), ("confirm_rounds", 0)):
            value = getattr(self, name)
            if not _is_count(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.mode not in ("sub", "riem"):
            raise ValueError(f"mode must be 'sub' or 'riem', got {self.mode!r}")

    def resolved_t_max(self, model: SasakiModel) -> float:
        if self.t_max is not None:
            return float(self.t_max)
        # a positive transverse Ricci bound caps lengths of minimizers
        bound = theoretical_diameter_bound(model)
        return 1.25 * bound if bound is not None else 8.0


@dataclass
class ShootingResult:
    """Outcome of one point-to-point search."""

    status: str  # "converged" | "budget-exhausted"
    distance: float | None
    best_init: CotangentState | None
    miss: float
    alpha0: float | None
    alpha0_boundary: bool
    widened_to: float
    plateau: bool  # the refine's Newton stalled above hit_tol
    rounds: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# Samples (rows x times) per flow block: bounds the temporary memory of a
# wide scan instead of building the whole trajectory.  Every model gives
# squared distances without positions (``SasakiModel._flow_sq_distances`` is
# abstract), so a sample is a few scalars.
_FLOW_BLOCK = 1 << 14


def _closest_sample(d2, h, n_steps):
    """Closest approach from squared distances ``d2[k, i]`` sampled every ``h[i]``.

    Row ``i`` holds ``n_steps[i] + 1`` samples (a scalar count serves every
    row), and any sample after them must be ``+inf``.  Returns (miss_i, t_i)
    refined by parabolic interpolation of the squared distance through the
    discrete minimum; a minimum at either end of the samples is taken as it
    is.  Needs at least three samples.
    """
    rows = np.arange(d2.shape[1])
    idx = np.argmin(d2, axis=0)
    j = np.clip(idx, 1, np.asarray(n_steps) - 1)
    dm, d0, dp = d2[j - 1, rows], d2[j, rows], d2[j + 1, rows]
    offset = _parabolic_vertex(dm, d0, dp)
    inner = j == idx
    offset = np.where(inner, offset, 0.0)
    d2_best = np.where(inner, np.minimum(d0, d0 - 0.25 * (dm - dp) * offset), d2[idx, rows])
    return np.sqrt(np.maximum(d2_best, 0.0)), (idx + offset) * h


def _batched_closest_approach(model, x0, a0cov, T, n_steps, target, mode):
    """Closest approach to ``target`` along each row's trajectory.

    Row ``i`` is sampled at the times ``T_i k / n_i`` for ``k = 0 .. n_i``, as
    in a one-row call, a block of samples at a time, and the model gives the
    squared distances to ``target`` directly.  ``T`` and ``n_steps`` are
    scalars shared by every row, or one value per row; with per-row counts
    the grids are padded to the longest with ``+inf``.  Shared scalars hand
    the model one time row for all rows.
    """
    T = np.reshape(np.asarray(T, dtype=float), (-1, 1))
    n = np.reshape(n_steps, (-1, 1))
    last = int(n.max())
    d2 = np.empty((last + 1, x0.shape[0]))
    width = max(1, _FLOW_BLOCK // x0.shape[0])
    for k in range(0, last + 1, width):
        frac = np.arange(k, min(k + width, last + 1)) / n
        d2[k:k + frac.shape[1]] = model.flow_sq_distances(x0, a0cov, T * frac, target, mode).T
    if n.size > 1:
        d2[np.arange(last + 1)[:, None] > n[:, 0]] = np.inf
    return _closest_sample(d2, (T / n)[:, 0], n[:, 0])


def _frame_chart(model, p, mode):
    """Unit-speed covectors ``c F^flat + a0 eta`` at ``p`` of unit frame coordinates ``c``.

    ``F`` is the orthonormal horizontal frame at ``p``; ``F^flat`` and ``eta``
    are evaluated once here.  In Riemannian mode the velocity picks up an
    ``a0 xi`` component, so ``c`` shrinks by ``sqrt(1 - a0^2)`` to keep flow
    time equal to arclength (the search ranks candidates by flow time, which
    must mean length in both modes).
    """
    flat_frame = model.flat(p, model.orthonormal_frame(p)[: 2 * model.n])
    eta = model.eta_covector(p)

    def covectors(c, a0):
        """Covectors (rows, d) of the rows ``c`` (rows, 2n) and momenta ``a0`` (rows,)."""
        a0 = np.asarray(a0, dtype=float)
        if mode == "riem":
            c = c * np.sqrt(np.maximum(1.0 - a0 * a0, 0.0))[:, None]
        return c @ flat_frame + a0[:, None] * eta

    return covectors


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _direction_basis(c):
    """Orthonormal rows of ``R^{2n}`` perpendicular to the unit row ``c``."""
    basis = []
    for e in np.eye(c.size):
        cand = e - (e @ c) * c
        for b in basis:
            cand = cand - (cand @ b) * b
        norm = math.sqrt(float(cand @ cand))
        if norm > 1e-6:
            basis.append(cand / norm)
        if len(basis) == c.size - 1:
            break
    return np.array(basis)


def _scan_directions(h, count, rng):
    """Unit rows of ``R^h`` (frame coordinates) with guaranteed angular coverage.

    Independent uniform draws leave coverage gaps that can hide a whole
    attraction basin from the coarse scan.  With horizontal rank 2 the
    directions form a circle, so an evenly spaced grid with a random offset
    bounds the largest gap by 2 pi / count; for higher rank, scrambled Sobol
    points pushed through the normal map (:func:`_sobol_normal`) give
    quasi-uniform coverage of the direction sphere.  Both stay deterministic
    in ``rng`` and change with it across widen/confirm passes.
    """
    if h == 2:
        ang = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return _unit(_sobol_normal(h, count, rng))


# Sobol' sequence of 30-bit points with the Joe-Kuo direction numbers (SIAM J.
# Sci. Comput. 30, 2008) of its first ranks: primitive polynomial and initial
# direction numbers of each coordinate; the first coordinate is all ones.
_SOBOL_BITS = 30
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17))
_MSB_FIRST = 1 << np.arange(_SOBOL_BITS - 1, -1, -1)


@cache
def _sobol_direction_bits():
    """Direction numbers ``v[d, j]`` as bits ``(rank, 30, 30)``, most significant first.

    Coordinate ``d`` continues its initial numbers by the Bratley-Fox
    recurrence of its polynomial, and column ``j`` is shifted to bit ``29 - j``.
    Built on the first scan of rank above 2, not at import, so that runs
    without one do not hold its temporaries.
    """
    rows = []
    for poly, vinit in zip(_SOBOL_POLY, _SOBOL_VINIT):
        m = poly.bit_length() - 1
        v = list(vinit) if m else [1] * _SOBOL_BITS
        for j in range(len(v), _SOBOL_BITS):
            new = v[j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append([vj << (_SOBOL_BITS - 1 - j) for j, vj in enumerate(v)])
    bits = (np.array(rows)[..., None] & _MSB_FIRST) != 0
    bits.setflags(write=False)  # shared by every call
    return bits

# Cephes ``ndtri``: the rational approximations for |y - 1/2| <= 1/2 - exp(-2)
# and for exp(-32) < y < exp(-2).  The denominators lead with 1.0: ``1.0 * x``
# is ``x`` exactly, so Horner's rule over them is Cephes' ``p1evl``.
_NDTRI_E2 = 0.13533528323661269189
_NDTRI_S2PI = 2.50662827463100050242e0
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)


def _polevl(x, coef):
    """Horner's rule, leading coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0):
    """Inverse normal CDF of values in ``[exp(-32), 1 - exp(-32)]``, as Cephes computes it.

    Cephes' branches and order of operations, so each value is scipy's
    ``ndtri`` bit for bit; ``math.log`` is the C library's ``log``, which
    ``np.log`` is not in the last place.  The branch for ``y < exp(-32)`` is
    left out: the Sobol' points keep ``y`` above 5e-11.
    """
    flip = y0 > 1.0 - _NDTRI_E2
    y = np.where(flip, 1.0 - y0, y0)
    x = np.empty_like(y)
    mid = y > _NDTRI_E2
    c = y[mid] - 0.5
    c2 = c * c
    x[mid] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _NDTRI_S2PI
    r = np.sqrt(-2.0 * np.array([math.log(v) for v in y[~mid].tolist()]))
    z = 1.0 / r
    log_r = np.array([math.log(v) for v in r.tolist()])
    t = r - log_r / r - z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    x[~mid] = np.where(flip[~mid], t, -t)
    return x


def _sobol_normal(h, count, rng):
    """``count`` scrambled Sobol' points of ``R^h`` through the inverse normal CDF.

    The same array as ``scipy.stats.qmc.MultivariateNormalQMC(np.zeros(h),
    seed=rng).random(count)``, bit for bit, and ``rng`` is left as scipy
    leaves it: the scramble is drawn from one child spawned off ``rng``.  It
    is Matousek's random linear scramble (J. Complexity 14, 1998): a unit
    lower-triangular bit matrix per coordinate applied to its direction
    numbers, then a random digital shift.  Point ``k`` XORs the shift with
    the scrambled numbers of the set bits of the Gray code of ``k``.
    """
    if h > len(_SOBOL_POLY):
        limit = len(_SOBOL_POLY)
        raise ValueError(f"Sobol' scan directions are tabulated for rank <= {limit}, got {h}")
    child = rng.spawn(1)[0]
    shift = child.integers(2, size=(h, _SOBOL_BITS), dtype=np.uint32) @ (1 << np.arange(_SOBOL_BITS))
    ltm = np.tril(child.integers(2, size=(h, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    v = (_sobol_direction_bits()[:h] @ ltm.transpose(0, 2, 1)) & 1
    k = np.arange(count)
    gray = ((k ^ (k >> 1))[:, None] >> np.arange(_SOBOL_BITS)) & 1
    u = (((np.einsum("kj,djp->kdp", gray, v) & 1) @ _MSB_FIRST) ^ shift) * 2.0**-_SOBOL_BITS
    return _ndtri(0.5 + (1 - 1e-10) * (u - 0.5))


def cc_distance(
    model: SasakiModel, p: np.ndarray, q: np.ndarray, cfg: ShootingConfig | None = None
) -> ShootingResult:
    """Length of the best normal geodesic found from ``p`` into a ball around ``q``.

    The returned length is the flight time of a unit-speed normal geodesic
    from ``p`` whose RK4 endpoint, with its certified integration error, lies
    within ``miss`` (at most ``hit_tol``) of ``q``.  It bounds the distance
    between the points from above only once the length of a path across that
    miss is added, and that sum is not reported.  Unit-speed initial
    covectors make length equal to flow time, so the search ranks candidates
    directly by closest approach and flow time.
    """
    cfg = cfg or ShootingConfig()
    certify = partial(_certify, model, step=ShootingConfig.certify_step)
    return _drive([_pair_search(model, p, q, cfg)], {"certify": certify})[0]


def _pair_search(model, p, q, cfg):
    """The search of one pair, as a generator of certification requests.

    It yields ``("certify", (state, t, q))`` for each hit it would certify,
    receives that request's certified miss, and returns the result.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for x in (p, q):
        if not np.all(np.isfinite(x)):
            raise ValueError("endpoint has non-finite coordinates")
        res = float(model.constraint_residual(x))
        if res > 1e-9:
            raise ValueError(f"endpoint off the constraint set (residual {res:.3e})")
    with np.errstate(over="ignore"):
        separation = float(np.linalg.norm(p - q))
    # the scan's parabolic stencils double squared distances of this size
    if not math.isfinite(2.0 * separation * separation):
        raise ValueError("endpoints too far apart: the search's squared distances overflow")
    if separation <= 1e-14:
        return ShootingResult("converged", 0.0, None, 0.0, None, False, cfg.alpha0_max, False, 0)

    t_max = cfg.resolved_t_max(model)
    A = cfg.alpha0_max
    round_id = 0
    for widen_round in range(cfg.widen_rounds + 1):
        result = yield from _certified_pass(model, p, q, cfg, t_max, A, round_id)
        round_id += 1
        if result.converged:
            break
        if A >= cfg.alpha0_cap or widen_round == cfg.widen_rounds:
            return result
        A = min(2.0 * A, cfg.alpha0_cap)

    # Convergence only certifies *a* geodesic into the target ball, and the
    # refinement can settle on a long connection while a short one exists in
    # a basin the walk skipped.  Re-search with the horizon capped below the
    # found length: each pass either turns up a strictly shorter connection
    # (take it, cap again) or exhausts its budget, which is the signal that
    # nothing shorter is reachable at this resolution.
    best = result
    for _ in range(cfg.confirm_rounds):
        t_cap = best.distance - max(2.0 * cfg.hit_tol, 0.02)
        if t_cap <= 4.0 * cfg.search_step:
            break
        probe = yield from _certified_pass(model, p, q, cfg, t_cap, A, round_id)
        round_id += 1
        if not probe.converged:
            break
        best = probe
    return best


def _certified_pass(model, p, q, cfg, t_max, A, round_id):
    """One search pass, then its hits in rank order until one certifies.

    A generator like :func:`_pair_search`: only hits are certified.  Any
    other candidate makes no RK4 run, and its exact miss is the one
    reported.
    """
    ranked, rounds = _search_once(model, p, q, cfg, t_max, A, round_id)
    for miss_c, t_c, cov, a0_c, plateau, hit in ranked:
        state = CotangentState.make(model, p, cov, cfg.mode)
        miss = (yield "certify", (state, t_c, q)) if hit else miss_c
        boundary = abs(a0_c) > 0.95 * A
        if hit and miss <= cfg.hit_tol:
            return ShootingResult("converged", t_c, state, miss, a0_c, boundary, A, plateau, rounds)
    return ShootingResult("budget-exhausted", None, state, miss, a0_c, boundary, A, plateau, rounds)


def _search_once(model, p, q, cfg, t_max, A, round_id=0):
    """The ranked candidates of one search pass and its refine rounds.

    A candidate is ``(miss, t, covector, a0, stalled, hit)``.  The hits come
    first, shortest first, then the closest non-hit, if any: the others can
    never be reported.
    """
    mode = cfg.mode
    # distinct stream from other cfg.seed consumers (e.g. pair sampling), so
    # a direction draw never aliases the Gaussian that generated an endpoint;
    # the round id decorrelates draws across widen/confirm passes so a re-scan
    # explores genuinely new directions instead of replaying the first grid
    rng = np.random.default_rng([cfg.seed, 0x5EED, round_id])
    chart = _frame_chart(model, p, mode)
    dirs = _scan_directions(2 * model.n, cfg.n_directions, rng)
    # Riemannian momenta live on the unit sphere of the full tangent space,
    # so the Reeb coordinate is capped at 1 there (the pole is the pure Reeb
    # geodesic; every direction row collapses onto it, which is harmless)
    A_eff = min(A, 1.0) if mode == "riem" else A
    a0s = np.linspace(-A_eff, A_eff, cfg.n_alpha0)

    # coarse grid: every direction with every Reeb momentum, unit speed
    A0 = np.tile(a0s, cfg.n_directions)
    cov = chart(np.repeat(dirs, cfg.n_alpha0, axis=0), A0)
    X0 = np.broadcast_to(p, cov.shape)
    n_coarse = max(16, int(round(t_max / cfg.search_step)))
    miss, t_at = _batched_closest_approach(model, X0, cov, t_max, n_coarse, q, mode)

    # Seed set: the overall closest approaches plus the closest approach
    # inside each flow-time band.  Unit-speed covectors make flow time equal
    # length, and a short connection can show a larger coarse miss than a long
    # trajectory that happens to sail near the target, so short-time bands
    # must stay represented among the seeds.
    order = np.lexsort((np.abs(A0), t_at, miss))
    seeds = [int(r) for r in order[: cfg.top_k]]
    edges = np.linspace(0.0, t_max, 5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = np.nonzero((t_at >= lo) & (t_at < hi) & (t_at > 0.5 * cfg.search_step))[0]
        if band.size:
            sub = np.lexsort((np.abs(A0[band]), t_at[band], miss[band]))[0]
            seeds.append(int(band[sub]))
    rows = np.array(sorted(dict.fromkeys(seeds), key=lambda r: t_at[r]))
    miss_r, t_r, c_r, a0_r, stalled_r, total_rounds = _refine_candidate(
        model, chart, p, q, dirs[rows // cfg.n_alpha0], A0[rows], t_at[rows], cfg, t_max
    )
    refined = list(zip(miss_r.tolist(), t_r.tolist(), c_r, a0_r.tolist(), stalled_r.tolist()))

    # A candidate is a hit when its exact miss is within hit_tol after a
    # positive flight time: at t <= 0 the connection is p itself, of length
    # 0, which is never a distance between distinct points.
    def _hit(miss_c, t_c):
        return miss_c <= cfg.hit_tol and t_c > 0.0

    # shortest verified connection wins; with no hits, the closest approach
    def _rank(c):
        miss_c, t_c, _, a0_c, _ = c
        if _hit(miss_c, t_c):
            return (0, t_c, abs(a0_c), miss_c)
        return (1, miss_c, t_c, abs(a0_c))

    refined.sort(key=_rank)
    ranked = []
    for miss_c, t_c, c_c, a0_c, stalled in refined:
        hit = _hit(miss_c, t_c)
        ranked.append((miss_c, t_c, chart(c_c[None], [a0_c])[0], a0_c, stalled, hit))
        if not hit:
            break  # remaining candidates have worse refined misses
    return ranked, total_rounds


def _certify(model, requests, step):
    """Certified misses of the requests ``(state, t, q)``, in one RK4 run.

    Request ``j`` is certified at its flight time ``t_j`` by RK4 at ``2
    step`` and ``step`` (step doubling): its two rows step by ``t_j / n_j``
    and ``t_j / (2 n_j)``, and read their samples ``n_j`` and ``2 n_j`` of
    one :func:`_rk4_rows` run of ``2 max n`` steps.  Rows are independent,
    so each miss is that of the request's own two-row run bit for bit.  The
    miss is the fine endpoint's distance to ``q`` plus ``16/15`` of the gap
    between the two endpoints: the Richardson estimate of the coarse path's
    order-4 error, which bounds the fine path's by a factor 16.  Flight times
    must be positive: the search certifies no zero-length connection.  Only
    RK4 certifies, so a wrong exact flow can cost a connection but never
    certify a false one.
    """
    n = [max(16, int(round(t / (2.0 * step)))) for _, t, _ in requests]
    rows = np.repeat([np.concatenate((st.point, st.covector)) for st, _, _ in requests], 2, axis=0)
    h = [r for (_, t, _), nj in zip(requests, n) for r in (t / nj, t / (2 * nj))]
    xs, _ = _rk4_rows(model, rows, h, 2 * max(n), requests[0][0].mode)
    misses = []
    for j, ((_, _, q), nj) in enumerate(zip(requests, n)):
        end = xs[2 * nj, 2 * j + 1]
        gap = float(np.linalg.norm(xs[nj, 2 * j] - end))
        misses.append(float(np.linalg.norm(end - q)) + 16.0 / 15.0 * gap)
    return misses


def _drive(gens, answer, drop=lambda i, results: False):
    """Run the request generators ``gens`` to their results, a tick at a time.

    A generator yields requests ``(kind, payload)`` and is sent each one's
    reply.  A tick answers every pending request with one call per kind:
    ``answer[kind]`` takes that kind's payloads in generator order and
    returns their replies.  Before each tick, ``drop(i, results)`` may end
    pending generator ``i`` given the results so far (``None`` for one not
    finished); a dropped generator is not resumed and its result stays
    ``None``.
    """
    results = [None] * len(gens)
    pending = {}

    def advance(i, reply=None):
        try:
            pending[i] = gens[i].send(reply)
        except StopIteration as done:
            results[i] = done.value

    for i in range(len(gens)):
        advance(i)
    while pending:
        tick = [(i, request) for i, request in sorted(pending.items()) if not drop(i, results)]
        pending.clear()
        for kind, reply in answer.items():
            asked = [(i, payload) for i, (k, payload) in tick if k == kind]
            if asked:
                for (i, _), r in zip(asked, reply([payload for _, payload in asked])):
                    advance(i, r)
    return results


def _refine_seed(chart, q, c, a0, t_seed, cfg, t_max):
    """Compass walk on sampled closest approaches, then Newton on (direction, a0, flight time).

    One seed's refine, as a generator of flow requests: ``("sampled", (cov,
    T, n))`` asks for the closest approaches ``(miss, t)`` of the covector
    rows ``cov`` sampled as in :func:`_batched_closest_approach`, and
    ``("endpoints", (cov, ts))`` for their exact endpoints at the times
    ``ts``.  Each round of the walk probes ``+-d_dir`` along each direction
    basis row and ``+-d_a0``, and moves to the best probe or halves both
    steps; the walk runs while the miss is above 0.05, for at most 30
    rounds.  Newton solves ``x(t; c, a0) = q`` on exact endpoints: ``2n + 1``
    unknowns, as many as the manifold's dimension (least squares on the
    spheres' extra ambient row).  A round takes a forward-difference
    Jacobian from ``2n + 2`` rows and accepts the first of the steps 1, 1/2,
    1/4, 1/8 that lowers the miss and keeps ``t`` in ``(0, t_max]``; it
    stops when none does.

    Returns ``(miss, t, c, a0, stalled, rounds)``: the exact miss at flight
    time ``t``, the direction (a unit row of ``chart``'s frame coordinates)
    and Reeb momentum, whether Newton stalled above ``hit_tol``, and the
    rounds made.
    """
    # keep the local horizon tight around the seeded flight time: a generous
    # window lets the closest approach jump to an unrelated longer connection
    # and the walk leaks out of the seeded basin
    t_loc = min(max(1.15 * t_seed + 0.2, 0.3), t_max)
    n_steps = max(16, int(round(t_loc / cfg.search_step)))
    # riem momenta stay on the unit sphere; sub momenta within alpha0_cap,
    # since near p Newton's a0 column shrinks with t and its steps blow up
    cap = 1.0 if cfg.mode == "riem" else cfg.alpha0_cap
    c = _unit(c)
    miss, t_at = yield "sampled", (chart(c[None], [a0]), t_loc, n_steps)
    miss, t_at = float(miss[0]), float(t_at[0])
    d_dir, d_a0 = 0.25, 0.5
    rounds = 0
    while rounds < min(30, cfg.max_refine_rounds) and miss > 0.05:
        rounds += 1
        # +-d_dir along each basis row in turn, then +-d_a0
        B = _direction_basis(c)
        moved = _unit(np.stack([c + d_dir * B, c - d_dir * B], axis=1).reshape(-1, c.size))
        probes_c = np.vstack([moved, c, c])
        probes_a = [a0] * len(moved) + [min(a0 + d_a0, cap), max(a0 - d_a0, -cap)]
        pm, pt = yield "sampled", (chart(probes_c, probes_a), t_loc, n_steps)
        k = int(np.argmin(pm))
        if pm[k] < miss:
            c, a0 = probes_c[k], probes_a[k]
            miss, t_at = float(pm[k]), float(pt[k])
        else:
            d_dir *= 0.5
            d_a0 *= 0.5
            if d_dir < 1e-4:
                break

    eps = 1e-6
    halvings = 0.5 ** np.arange(4)
    stalled = False
    while rounds < cfg.max_refine_rounds:
        rounds += 1
        # the centre row, then one forward-difference row per unknown (the
        # direction basis, a0, t), each row at its own time
        B = _direction_basis(c)
        X = yield "endpoints", (
            chart(np.vstack([c, _unit(c + eps * B), c, c]), [a0] * (len(B) + 1) + [a0 + eps, a0]),
            [t_at] * (len(B) + 2) + [t_at + eps],
        )
        miss = float(np.linalg.norm(X[0] - q))
        delta = np.linalg.lstsq((X[1:] - X[0]).T / eps, q - X[0], rcond=None)[0]
        trial_c = _unit(c + np.outer(halvings, delta[:-2] @ B))
        trial_a = np.clip(a0 + halvings * delta[-2], -cap, cap)
        trial_t = t_at + halvings * delta[-1]
        X = yield "endpoints", (chart(trial_c, trial_a), trial_t)
        with np.errstate(over="ignore"):  # a far-off trial's miss overflows to inf: never better
            trial_miss = np.linalg.norm(X - q, axis=-1)
        better = (trial_t > 0.0) & (trial_t <= t_max) & (trial_miss < miss)
        if not better.any():
            stalled = miss > cfg.hit_tol
            break
        k = int(np.argmax(better))
        c, a0, t_at, miss = trial_c[k], trial_a[k], float(trial_t[k]), float(trial_miss[k])
    return miss, t_at, c, a0, stalled, rounds


def _refine_candidate(model, chart, p, q, C, A0, T0, cfg, t_max):
    """The refines (:func:`_refine_seed`) of one pass's seeds, run by :func:`_drive`.

    The seeds are the rows of ``C`` (directions), ``A0`` and ``T0`` (seeded
    flight times, in increasing order).  Each tick makes one
    :func:`_batched_closest_approach` call for all sampled requests and one
    ``flow_points`` call for all endpoint requests.  The flow acts row by
    row and the BLAS calls stay in each seed's generator, so each seed's
    numbers are those of its refine alone.

    A seed is skipped once an earlier seed has hit within ``hit_tol`` at a
    flight time more than 0.2 below its own: the seed is longer than a
    connection in hand.  The rule stops such a seed's refine once the hit is
    in hand, and picks the kept seeds at the end, since a seed can finish
    before the hit that skips it.  Returns ``(miss, t, c, a0, stalled,
    rounds)``: the first five of each kept seed's result, as arrays in seed
    order, then the rounds summed over the kept seeds.
    """
    mode = cfg.mode

    def cuts(rows):
        """The slices of each ask's rows in their concatenation."""
        bounds = list(accumulate((len(r) for r in rows), initial=0))
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def sampled(asks):
        """Each ask's closest approaches ``(miss, t)``, in one flow call."""
        rows, T, n = zip(*asks)
        sizes = [len(r) for r in rows]
        cov = np.concatenate(rows)
        miss, t = _batched_closest_approach(
            model, np.broadcast_to(p, cov.shape), cov, np.repeat(T, sizes), np.repeat(n, sizes),
            q, mode,
        )
        return [(miss[c], t[c]) for c in cuts(rows)]

    def endpoints(asks):
        """Each ask's exact endpoints at its own times, in one flow call."""
        rows, ts = zip(*asks)
        cov = np.concatenate(rows)
        X = model.flow_points(np.broadcast_to(p, cov.shape), cov, np.concatenate(ts)[:, None], mode)
        return [X[c, 0] for c in cuts(rows)]

    def after_a_hit(t_seed, refined):
        return any(miss <= cfg.hit_tol and t_seed > t + 0.2 for miss, t, *_ in refined)

    seeds = [_refine_seed(chart, q, c, a0, t_seed, cfg, t_max) for c, a0, t_seed in zip(C, A0, T0)]
    results = _drive(seeds, {"sampled": sampled, "endpoints": endpoints},
                     lambda i, done: after_a_hit(T0[i], [r for r in done[:i] if r is not None]))
    kept = []
    for t_seed, r in zip(T0, results):
        if not after_a_hit(t_seed, kept):
            kept.append(r)
    miss, t, c, a0, stalled, rounds = zip(*kept)
    return np.array(miss), np.array(t), np.array(c), np.array(a0), np.array(stalled), sum(rounds)


# ---------------------------------------------------------------------------
# Diameter estimation over sampled pairs.
# ---------------------------------------------------------------------------


@dataclass
class PairResult:
    index: int
    p: np.ndarray
    q: np.ndarray
    result: ShootingResult


@dataclass
class DiameterReport:
    model_key: str
    estimate: float
    worst_pair: PairResult | None
    pairs: list[PairResult] = field(default_factory=list)
    partial: bool = False

    @property
    def failed_indices(self) -> list[int]:
        return [pr.index for pr in self.pairs if not pr.result.converged]


def estimate_diameter(
    model: SasakiModel,
    pair_samples: int,
    cfg: ShootingConfig | None = None,
    threads: int = 1,
) -> DiameterReport:
    """Max of converged pairwise distance bounds over seeded random pairs.

    Pairs that exhaust the search budget are flagged and excluded from the
    max, marking the report partial.  The pairs' searches run side by side
    in the calling process, and each RK4 run certifies the pending requests
    of every pair; each pair's result is its :func:`cc_distance`.
    ``threads`` is accepted and ignored, kept so that callers passing it
    keep working.
    """
    if not _is_count(pair_samples, 1):
        raise ValueError(f"pair_samples must be an integer >= 1, got {pair_samples!r}")
    cfg = cfg or ShootingConfig()
    rng = np.random.default_rng(cfg.seed)
    ps = model.random_points(rng, pair_samples)
    qs = model.random_points(rng, pair_samples)
    searches = [_pair_search(model, ps[i], qs[i], cfg) for i in range(pair_samples)]
    certify = partial(_certify, model, step=ShootingConfig.certify_step)
    results = _drive(searches, {"certify": certify})
    pairs = [PairResult(i, ps[i], qs[i], results[i]) for i in range(pair_samples)]
    converged = [pr for pr in pairs if pr.result.converged]
    worst = max(converged, key=lambda pr: pr.result.distance, default=None)
    return DiameterReport(
        model_key=model.key,
        estimate=worst.result.distance if worst is not None else math.nan,
        worst_pair=worst,
        pairs=pairs,
        partial=len(converged) < len(pairs),
    )


def geodesic_from_result(model: SasakiModel, result: ShootingResult) -> GeodesicPath:
    """Re-integrate a converged shooting result as a sampled path.

    The step count is about 2e-3 flow time per step, at least 64, and a
    multiple of four so downstream consumers can halve the grid.
    """
    if not result.converged or result.best_init is None or result.distance is None:
        raise ValueError("only a converged search result defines a geodesic")
    if result.distance <= 0.0:
        raise ValueError("degenerate zero-length result")
    steps = max(64, 4 * int(round(result.distance / 0.002 / 4)))
    return integrate_geodesic(model, result.best_init, result.distance, steps)


def _myers_bound(n: int, tau: float) -> float:
    """``2 pi sqrt((2n-1)/tau)``: the length bound for minimizers when Ric^T >= tau g^T, tau > 0."""
    return 2.0 * math.pi * math.sqrt((2 * n - 1) / tau)


def theoretical_diameter_bound(model: SasakiModel) -> float | None:
    """The model's :func:`_myers_bound` at its transverse Ricci bound, if positive."""
    tau = getattr(model, "tau", 0.0)
    return _myers_bound(model.n, tau) if tau > 0 else None
