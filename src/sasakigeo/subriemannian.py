"""Normal geodesic flow on the cotangent bundle and distance estimation.

The horizontal (sub-Riemannian) Hamiltonian is

    H(x, a) = (1/2) g^{-1}(a, a) - (1/2) a(xi)^2,

whose flow projects to horizontal constant-speed curves ("normal geodesics")
satisfying  ``nabla_v v + 2 a0 phi(v) = 0``  with ``a0 = a(xi)`` constant.
Integration is fixed-step RK4 on (x, a) with per-step state projection.  The
searches run batched over rows of initial covectors through one flow
evaluator, the model's exact flow in both modes: the sub flow
(``flow_positions``), followed in riem mode by the Reeb flow (``reeb_flow``)
for time ``a0 t``.  Certification always integrates the connecting geodesic
by RK4.

Distances are estimated by shooting: a coarse grid over unit horizontal
directions crossed with a Reeb-momentum grid, followed by compass (pattern)
search on (direction, a0) where the time variable is handled by recording the
closest approach to the target along each trajectory (with sub-step parabolic
interpolation).  Found lengths are upper bounds for the Carnot-Caratheodory
distance; a miss within ``hit_tol`` of the target is required before a value
is reported, otherwise the search returns a budget-exhausted status.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.stats import qmc

from .core import SasakiModel, _dot
from .numdiff import path_derivative

__all__ = [
    "CotangentState",
    "GeodesicPath",
    "PathInvariants",
    "integrate_geodesic",
    "geodesic_residual",
    "strong_bracket_check",
    "BracketCheck",
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

    model_key: str
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
        return cls(model.key, point, covector, a0, h, mode)


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

    model_key: str
    mode: str
    t: np.ndarray
    points: np.ndarray
    covectors: np.ndarray
    velocities: np.ndarray
    alpha0s: np.ndarray
    h_values: np.ndarray
    step: float
    length: float
    energy: float

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


def _rk4_step(model, x, a, h, mode):
    k1x, k1a = model.hamiltonian_rhs(x, a, mode)
    k2x, k2a = model.hamiltonian_rhs(x + 0.5 * h * k1x, a + 0.5 * h * k1a, mode)
    k3x, k3a = model.hamiltonian_rhs(x + 0.5 * h * k2x, a + 0.5 * h * k2a, mode)
    k4x, k4a = model.hamiltonian_rhs(x + h * k3x, a + h * k3a, mode)
    x1 = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    a1 = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    return model.project_state(x1, a1)


def integrate_geodesic(
    model: SasakiModel,
    init: CotangentState,
    t_end: float,
    steps: int,
    mode: str | None = None,
) -> GeodesicPath:
    """Integrate the cotangent flow and record every sample.

    ``steps`` must be at least 16 and, in sub mode, the initial state must
    carry horizontal motion (H > 0).
    """
    mode = init.mode if mode is None else mode
    if steps < 16:
        raise ValueError("steps must be >= 16")
    h_sub = float(model.hamiltonian(init.point, init.covector, mode="sub"))
    if mode == "sub" and not h_sub > 1e-15:
        raise ValueError("initial covector has no horizontal motion (H = 0)")
    h = float(t_end) / steps
    x = init.point.copy()
    a = init.covector.copy()
    xs = np.empty((steps + 1,) + x.shape)
    as_ = np.empty_like(xs)
    xs[0], as_[0] = x, a
    for i in range(steps):
        x, a = _rk4_step(model, x, a, h, mode)
        xs[i + 1], as_[i + 1] = x, a
    t = np.linspace(0.0, float(t_end), steps + 1)
    vel = model.velocity(xs, as_, mode)
    speeds = np.sqrt(np.maximum(model.metric(xs, vel, vel), 0.0))
    length = float(np.trapezoid(speeds, t))
    energy = 0.5 * float(np.trapezoid(speeds * speeds, t))
    return GeodesicPath(
        model_key=model.key,
        mode=mode,
        t=t,
        points=xs,
        covectors=as_,
        velocities=vel,
        alpha0s=np.asarray(model.alpha0(xs, as_)),
        h_values=np.asarray(model.hamiltonian(xs, as_, mode)),
        step=h,
        length=length,
        energy=energy,
    )


@dataclass
class GeodesicResidual:
    """Pointwise defect of the geodesic equation along an integrated path."""

    max_residual: float
    samples_checked: int

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
    interior = norms[2:-2]
    return GeodesicResidual(float(np.max(interior)), int(interior.shape[0]))


def measure_convergence_order(
    model: SasakiModel,
    init: CotangentState,
    t_end: float,
    steps_list: tuple[int, ...] = (250, 500, 1000),
) -> tuple[list[float], list[float]]:
    """Endpoint errors against the closed-form flow and fitted orders.

    Returns (errors, orders) where ``orders[i]`` is the rate fitted between
    consecutive step counts.
    """
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


@dataclass
class BracketCheck:
    eta_bracket: float
    residual: float


def strong_bracket_check(
    model: SasakiModel, p: np.ndarray, X: np.ndarray, step: float = 1e-5
) -> BracketCheck:
    """Finite-difference Lie bracket test that D is bracket generating.

    Extends ``X`` and ``phi X`` by projection, forms ``[X, phi X]`` with
    central differences, and compares ``g([X, phi X], xi)`` against the
    closed-form value ``-2 g(X, X)``.
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

    def fd_along(f, base, direction):
        return (f(base + step * direction) - f(base - step * direction)) / (2.0 * step)

    bracket = fd_along(fieldPhiX, p, fieldX(p)) - fd_along(fieldX, p, fieldPhiX(p))
    value = float(model.metric(p, model.tangent_project(p, bracket), model.reeb(p)))
    return BracketCheck(eta_bracket=value, residual=abs(value + 2.0 * gXX))


# ---------------------------------------------------------------------------
# Shooting search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShootingConfig:
    """Budgets and discretisation knobs for the distance search."""

    n_directions: int = 32
    n_alpha0: int = 17
    alpha0_max: float = 4.0
    t_max: float | None = None
    search_step: float = 2e-2
    certify_step: float = 1e-3
    hit_tol: float = 1e-3
    top_k: int = 3
    max_refine_rounds: int = 60
    plateau_tol: float = 1e-6
    seed: int = 0
    widen_rounds: int = 3
    confirm_rounds: int = 4
    alpha0_cap: float = 32.0
    mode: str = "sub"

    def resolved_t_max(self, model: SasakiModel) -> float:
        if self.t_max is not None:
            return float(self.t_max)
        tau = getattr(model, "tau", 0.0)
        if tau > 0:
            # a positive transverse Ricci bound caps lengths of minimizers
            return 1.25 * 2.0 * math.pi * math.sqrt((2 * model.n - 1) / tau)
        return 8.0


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
    plateau: bool
    rounds: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# Output elements (rows x times x coordinates) per flow block: bounds the
# temporary memory of a wide scan instead of building the whole trajectory.
_FLOW_BLOCK = 1 << 14


def _flow_positions(model, x0, a, t, mode):
    """Exact positions (rows, K, d) of the rows ``(x0, a)`` at the times ``t`` (rows, K).

    The Reeb momentum ``a0`` is conserved and the Reeb flow commutes with the
    horizontal flow, so the riem flow is the sub flow followed by the Reeb
    flow for time ``a0 t``.
    """
    X = model.flow_positions(x0, a, t)
    if mode == "riem":
        X = model.reeb_flow(X, model.alpha0(x0, a)[:, None] * t)
    return X


def _closest_sample(d2, h):
    """Closest approach from squared distances ``d2[k, i]`` sampled every ``h[i]``.

    Returns (miss_i, t_i) refined by parabolic interpolation of the squared
    distance through the discrete minimum.
    """
    n_steps = d2.shape[0] - 1
    B = d2.shape[1]
    idx = np.argmin(d2, axis=0)
    rows = np.arange(B)
    t_best = idx * h
    d2_best = d2[idx, rows]
    inner = (idx > 0) & (idx < n_steps)
    if np.any(inner):
        j = idx[inner]
        r = rows[inner]
        dm, d0, dp = d2[j - 1, r], d2[j, r], d2[j + 1, r]
        denom = dm - 2.0 * d0 + dp
        safe = np.abs(denom) > 1e-300
        offset = np.where(safe, 0.5 * (dm - dp) / np.where(safe, denom, 1.0), 0.0)
        offset = np.clip(offset, -1.0, 1.0)
        d2_interp = d0 - 0.25 * (dm - dp) * offset
        t_best[inner] = (j + offset) * h[inner]
        d2_best[inner] = np.minimum(d0, d2_interp)
    return np.sqrt(np.maximum(d2_best, 0.0)), t_best


def _batched_closest_approach(model, x0, a0cov, T, n_steps, target, mode):
    """Closest approach to ``target`` along each row's trajectory.

    Rows are sampled every ``T_i / n_steps``, a block of times at a time.
    """
    T = np.asarray(T, dtype=float)
    d2 = np.empty((n_steps + 1, x0.shape[0]))
    width = max(1, _FLOW_BLOCK // (x0.shape[0] * x0.shape[-1]))
    for k in range(0, n_steps + 1, width):
        frac = np.arange(k, min(k + width, n_steps + 1)) / n_steps
        diff = _flow_positions(model, x0, a0cov, T[:, None] * frac, mode) - target
        d2[k:k + frac.size] = _dot(diff, diff).T
    return _closest_sample(d2, T / n_steps)


def _direction_basis(model, p, u):
    """Orthonormal horizontal directions perpendicular to ``u`` at ``p``."""
    frame = model.orthonormal_frame(p)
    basis = []
    for i in range(2 * model.n):
        cand = frame[i]
        cand = cand - model.metric(p, cand, u) * u
        for b in basis:
            cand = cand - model.metric(p, cand, b) * b
        norm = math.sqrt(max(float(model.metric(p, cand, cand)), 0.0))
        if norm > 1e-6:
            basis.append(cand / norm)
        if len(basis) == 2 * model.n - 1:
            break
    return basis


def _normalize_horizontal(model, p, u):
    u = model.horizontal_project(p, u)
    return u / math.sqrt(float(model.metric(p, u, u)))


def _scan_directions(model, p, count, rng):
    """Unit horizontal directions at ``p`` with guaranteed angular coverage.

    Independent uniform draws leave coverage gaps that can hide a whole
    attraction basin from the coarse scan.  With horizontal rank 2 the
    directions form a circle, so an evenly spaced grid with a random offset
    bounds the largest gap by 2 pi / count; for higher rank, scrambled Sobol
    points pushed through the normal map give quasi-uniform coverage of the
    direction sphere.  Both stay deterministic in ``rng`` and change with it
    across widen/confirm passes.
    """
    frame = np.asarray(model.orthonormal_frame(p))
    h = 2 * model.n
    if h == 2:
        ang = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(count) / count
        coef = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        coef = qmc.MultivariateNormalQMC(np.zeros(h), seed=rng).random(count)
        coef /= np.linalg.norm(coef, axis=1, keepdims=True)
    dirs = coef @ frame[:h]
    norms = np.sqrt(model.metric(p, dirs, dirs))
    return dirs / norms[:, None]


def _search_covector(model, x, u, a0, mode):
    """Unit-speed covector with horizontal direction ``u`` and Reeb momentum ``a0``.

    In Riemannian mode the velocity picks up an ``a0 xi`` component, so the
    horizontal part shrinks to keep flow time equal to arclength (the search
    ranks candidates by flow time, which must mean length in both modes).
    """
    a0 = np.asarray(a0, dtype=float)
    if mode == "riem":
        scale = np.sqrt(np.maximum(1.0 - a0 * a0, 0.0))
        u = np.asarray(u) * scale[..., None]
    return model.covector_from(x, u, a0)


def cc_distance(
    model: SasakiModel, p: np.ndarray, q: np.ndarray, cfg: ShootingConfig | None = None
) -> ShootingResult:
    """Length of the best normal geodesic found from ``p`` into a ball around ``q``.

    The returned length is an upper bound for the distance between the
    points.  Unit-speed initial covectors make length equal to flow time, so
    the search ranks candidates directly by closest approach and flow time.
    """
    cfg = cfg or ShootingConfig()
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for x in (p, q):
        if not np.all(np.isfinite(x)):
            raise ValueError("endpoint has non-finite coordinates")
        res = float(model.constraint_residual(x))
        if res > 1e-9:
            raise ValueError(f"endpoint off the constraint set (residual {res:.3e})")
    if float(np.linalg.norm(p - q)) <= 1e-14:
        return ShootingResult("converged", 0.0, None, 0.0, None, False, cfg.alpha0_max, True, 0)

    t_max = cfg.resolved_t_max(model)
    A = cfg.alpha0_max
    result = None
    round_id = 0
    for widen_round in range(cfg.widen_rounds + 1):
        result = _search_once(model, p, q, cfg, t_max, A, round_id)
        round_id += 1
        if result.converged:
            break
        if A >= cfg.alpha0_cap or widen_round == cfg.widen_rounds:
            return result
        A = min(2.0 * A, cfg.alpha0_cap)
    if not result.converged:
        return result

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
        probe = _search_once(model, p, q, cfg, t_cap, A, round_id)
        round_id += 1
        if not probe.converged:
            break
        best = probe
    return best


def _search_once(model, p, q, cfg, t_max, A, round_id=0):
    mode = cfg.mode
    # distinct stream from other cfg.seed consumers (e.g. pair sampling), so
    # a direction draw never aliases the Gaussian that generated an endpoint;
    # the round id decorrelates draws across widen/confirm passes so a re-scan
    # explores genuinely new directions instead of replaying the first grid
    rng = np.random.default_rng([cfg.seed, 0x5EED, round_id])
    pts = np.broadcast_to(p, (cfg.n_directions,) + p.shape)
    dirs = _scan_directions(model, p, cfg.n_directions, rng)
    # Riemannian momenta live on the unit sphere of the full tangent space,
    # so the Reeb coordinate is capped at 1 there (the pole is the pure Reeb
    # geodesic; every direction row collapses onto it, which is harmless)
    A_eff = min(A, 1.0) if mode == "riem" else A
    a0s = np.linspace(-A_eff, A_eff, cfg.n_alpha0)

    # coarse grid: every direction with every Reeb momentum, unit speed
    D = np.repeat(dirs, cfg.n_alpha0, axis=0)
    A0 = np.tile(a0s, cfg.n_directions)
    X0 = np.repeat(pts, cfg.n_alpha0, axis=0)
    cov = _search_covector(model, X0, D, A0, mode)
    n_coarse = max(16, int(round(t_max / cfg.search_step)))
    T = np.full(D.shape[0], t_max)
    miss, t_at = _batched_closest_approach(model, X0, cov, T, n_coarse, q, mode)

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
    seen: set[int] = set()
    uniq = [s for s in seeds if not (s in seen or seen.add(s))]
    uniq.sort(key=lambda r: t_at[r])

    refined = []
    total_rounds = 0
    for row in uniq:
        hit_lengths = [c[1] for c in refined if c[0] <= cfg.hit_tol]
        if hit_lengths and t_at[row] > min(hit_lengths) + 0.2:
            continue  # seeded longer than a connection already in hand
        cand = _refine_candidate(
            model, p, q, dirs[row // cfg.n_alpha0], A0[row], t_at[row], cfg, t_max
        )
        total_rounds += cand[5]
        refined.append(cand)

    # shortest verified connection wins; with no hits, the closest approach
    def _rank(c):
        miss_c, t_c, _, a0_c, _, _ = c
        if miss_c <= cfg.hit_tol:
            return (0, t_c, abs(a0_c), miss_c)
        return (1, miss_c, t_c, abs(a0_c))

    refined.sort(key=_rank)
    last = None
    for miss_c, t_c, u_c, a0_c, plateau, _ in refined:
        # certify at the fine step before trusting the candidate
        horizon = min(max(1.25 * t_c, 0.4), t_max)
        n_fine = max(32, int(round(horizon / cfg.certify_step)))
        # always by RK4, whatever flow the search used: a wrong exact flow can
        # cost a connection but never certify a false one
        cov_c = _search_covector(model, p, u_c, a0_c, mode)
        state = CotangentState.make(model, p, cov_c, mode)
        path = integrate_geodesic(model, state, horizon, n_fine)
        diff = path.points - q
        miss_f, t_f = _closest_sample(_dot(diff, diff)[:, None], np.array([path.step]))
        miss_f, t_f = float(miss_f[0]), float(t_f[0])
        boundary = abs(a0_c) > 0.95 * A
        last = (state, miss_f, a0_c, boundary, plateau)
        if miss_f <= cfg.hit_tol:
            return ShootingResult(
                "converged", t_f, state, miss_f, a0_c, boundary, A, plateau, total_rounds
            )
        if miss_c > cfg.hit_tol:
            break  # remaining candidates have worse refined misses
    state, miss_f, a0_c, boundary, plateau = last
    return ShootingResult(
        "budget-exhausted", None, state, miss_f, a0_c, boundary, A, plateau, total_rounds
    )


def _refine_candidate(model, p, q, u, a0, t_seed, cfg, t_max):
    """Two-phase local solve: compass walk, then damped Gauss-Newton.

    The compass phase moves (direction, Reeb momentum) until the closest
    approach is roughly in the attraction basin; Gauss-Newton then drives the
    endpoint onto the target at a fixed flight time, re-estimating that time
    after every accepted step.
    """
    mode = cfg.mode
    # keep the local horizon tight around the seeded flight time: a generous
    # window lets the closest approach jump to an unrelated longer connection
    # and the walk leaks out of the seeded basin
    t_loc = min(max(1.15 * t_seed + 0.2, 0.3), t_max)
    n_steps = max(16, int(round(t_loc / cfg.search_step)))

    def rows(us, a0s):
        X0 = np.broadcast_to(p, (len(us),) + p.shape)
        return X0, _search_covector(model, X0, np.stack(us), np.asarray(a0s, dtype=float), mode)

    def evaluate(us, a0s):
        X0, cov = rows(us, a0s)
        T = np.full(len(us), t_loc)
        return _batched_closest_approach(model, X0, cov, T, n_steps, q, mode)

    def clamp_a0(v):
        if mode == "riem":
            return float(np.clip(v, -1.0, 1.0))
        return float(v)

    u = _normalize_horizontal(model, p, u)
    miss, t_at = evaluate([u], [a0])
    miss, t_at = float(miss[0]), float(t_at[0])
    d_dir, d_a0 = 0.25, 0.5
    plateau = False
    last_length = t_at
    rounds = 0
    compass_cap = min(30, cfg.max_refine_rounds)
    while rounds < compass_cap and miss > 0.05:
        rounds += 1
        basis = _direction_basis(model, p, u)
        probes_u, probes_a = [], []
        for b in basis:
            for s in (+1.0, -1.0):
                probes_u.append(_normalize_horizontal(model, p, u + s * d_dir * b))
                probes_a.append(a0)
        for s in (+1.0, -1.0):
            probes_u.append(u)
            probes_a.append(clamp_a0(a0 + s * d_a0))
        pm, pt = evaluate(probes_u, probes_a)
        k = int(np.argmin(pm))
        if float(pm[k]) < miss:
            u, a0 = probes_u[k], probes_a[k]
            miss, t_at = float(pm[k]), float(pt[k])
            plateau = abs(t_at - last_length) < cfg.plateau_tol
            last_length = t_at
        else:
            d_dir *= 0.5
            d_a0 *= 0.5
            if d_dir < 1e-4:
                break

    # Gauss-Newton on (tangent direction coordinates, Reeb momentum) at the
    # current flight time; finite-difference Jacobian columns ride in one
    # batch with the centre point.
    eps = 1e-6
    lam = 1e-8
    t_cur = max(t_at, 4 * cfg.search_step)
    while rounds < cfg.max_refine_rounds and miss > 0.05 * cfg.hit_tol:
        rounds += 1
        basis = _direction_basis(model, p, u)
        n_par = len(basis) + 1
        us = [u]
        a0s = [a0]
        for b in basis:
            us.append(_normalize_horizontal(model, p, u + eps * b))
            a0s.append(a0)
        us.append(u)
        a0s.append(a0 + eps)
        X0, cov = rows(us, a0s)
        X = _flow_positions(model, X0, cov, np.full((len(us), 1), t_cur), mode)[:, 0]
        r = X[0] - q
        J = (X[1:] - X[0]) / eps  # (n_par, amb): rows are parameter directions
        G = J @ J.T
        rhs = -J @ r
        accepted = False
        for _ in range(6):
            try:
                delta = np.linalg.solve(G + lam * np.eye(n_par), rhs)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            u_new = u + sum(float(delta[i]) * basis[i] for i in range(len(basis)))
            u_new = _normalize_horizontal(model, p, u_new)
            a0_new = clamp_a0(a0 + float(delta[-1]))
            m_new, t_new = evaluate([u_new], [a0_new])
            m_new, t_new = float(m_new[0]), float(t_new[0])
            if m_new < miss:
                u, a0, miss = u_new, a0_new, m_new
                t_at = t_new
                plateau = abs(t_at - last_length) < cfg.plateau_tol
                last_length = t_at
                t_cur = max(t_new, 4 * cfg.search_step)
                lam = max(lam * 0.1, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            plateau = True
            break
    return miss, t_at, u, a0, plateau, rounds


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
    max, marking the report partial.  The result does not depend on
    ``threads``: jobs are fully determined by (pair, cfg) and collected in
    submission order.
    """
    if pair_samples < 1:
        raise ValueError("need at least one pair")
    cfg = cfg or ShootingConfig()
    rng = np.random.default_rng(cfg.seed)
    ps = model.random_points(rng, pair_samples)
    qs = model.random_points(rng, pair_samples)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(cc_distance, repeat(model), ps, qs, repeat(cfg), chunksize=1))
    else:
        results = [cc_distance(model, ps[i], qs[i], cfg) for i in range(pair_samples)]
    pairs = [PairResult(i, ps[i], qs[i], r) for i, r in enumerate(results)]
    converged = [pr for pr in pairs if pr.result.converged]
    worst = max(converged, key=lambda pr: pr.result.distance, default=None)
    return DiameterReport(
        model_key=model.key,
        estimate=worst.result.distance if worst is not None else math.nan,
        worst_pair=worst,
        pairs=pairs,
        partial=len(converged) < len(pairs),
    )


def geodesic_from_result(
    model: SasakiModel, result: ShootingResult, steps: int | None = None
) -> GeodesicPath:
    """Re-integrate a converged shooting result as a sampled path.

    The step count defaults to roughly 2e-3 flow time per step, rounded to a
    multiple of four so downstream consumers can halve the grid.
    """
    if not result.converged or result.best_init is None or result.distance is None:
        raise ValueError("only a converged search result defines a geodesic")
    if result.distance <= 0.0:
        raise ValueError("degenerate zero-length result")
    if steps is None:
        steps = max(64, 4 * int(round(result.distance / 0.002 / 4)))
    if steps % 4:
        raise ValueError("steps must be a multiple of four")
    return integrate_geodesic(model, result.best_init, result.distance, steps)


def theoretical_diameter_bound(model: SasakiModel) -> float | None:
    """Diameter bound ``2 pi sqrt((2n-1)/tau)`` when Ric^T >= tau g^T, tau > 0."""
    tau = getattr(model, "tau", 0.0)
    if tau > 0:
        return 2.0 * math.pi * math.sqrt((2 * model.n - 1) / tau)
    return None
