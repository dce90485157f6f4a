"""Independent checks of the program's outputs.

Nothing here calls into ``sasakigeo``: the flows, the Hamiltonian equations
and the Parseval sums are written out again from the formulas, so a fault in
the program's integrator or quadrature cannot hide itself.  Every check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

IVP_TOL = 1e-12


def complex_rotation(v):
    """Multiplication by i on R^{2k} ~ C^k: each pair (a, b) -> (-b, a)."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


# ---------------------------------------------------------------------------
# Flows written apart from the program.
# ---------------------------------------------------------------------------


def sphere_sub_flow(p, a, t):
    """Exact sub-Riemannian flow on the unit sphere: e^{-a0 tJ}(cos(wt)p + sin(wt)W)."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    Jp = complex_rotation(p)
    a0 = float(a @ Jp)
    u = a - float(a @ p) * p - a0 * Jp
    w = math.sqrt(float(u @ u) + a0 * a0)
    W = (u + a0 * Jp) / w
    c = math.cos(w * t) * p + math.sin(w * t) * W
    ang = -a0 * t
    return math.cos(ang) * c + math.sin(ang) * complex_rotation(c)


def _heisenberg_rhs(_t, y):
    # H = (w^2 + a_y^2)/2 with w = a_x + y a_z
    x, yy, z, ax, ay, az = y
    w = ax + yy * az
    return [w, ay, yy * w, 0.0, -w * az, 0.0]


def _dhom_sphere_riem_rhs(s):
    # H = (1/s) H_sub(x, a) + (a.Jx)^2 / (2 s^2) on the deformed round sphere,
    # with H_sub = (|a|^2|x|^2 - (a.x)^2 - (a.Jx)^2)/2
    def rhs(_t, y):
        half = y.shape[0] // 2
        x, a = y[:half], y[half:]
        Jx, Ja = complex_rotation(x), complex_rotation(a)
        xx, aa, ax, aJx = x @ x, a @ a, a @ x, a @ Jx
        dx = (xx * a - ax * x - aJx * Jx) / s + aJx * Jx / s**2
        da = -(aa * x - ax * a + aJx * Ja) / s + aJx * Ja / s**2
        return np.concatenate([dx, da])

    return rhs


def ivp_flow(rhs, p, a, t):
    y0 = np.concatenate([np.asarray(p, dtype=float), np.asarray(a, dtype=float)])
    sol = solve_ivp(rhs, (0.0, float(t)), y0, method="DOP853", rtol=IVP_TOL, atol=IVP_TOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[: y0.shape[0] // 2, -1]


def heisenberg_sub_flow(p, a, t):
    return ivp_flow(_heisenberg_rhs, p, a, t)


def dhom_sphere_riem_flow(mu, p, a, t):
    return ivp_flow(_dhom_sphere_riem_rhs(1.0 / mu), p, a, t)


def reference_flow(kind, p, a, t, mu=None):
    """Endpoint of the cotangent flow of the model ``kind`` started at (p, a)."""
    if kind == "sphere":
        return sphere_sub_flow(p, a, t)
    if kind == "heisenberg":
        return heisenberg_sub_flow(p, a, t)
    if kind == "dhom-riem":
        return dhom_sphere_riem_flow(mu, p, a, t)
    raise ValueError(f"no reference flow for {kind!r}")


# ---------------------------------------------------------------------------
# distance-sub
# ---------------------------------------------------------------------------


def sphere_bound(n):
    """Curvature diameter bound 2 pi sqrt((2n-1)/tau) with tau = 2n + 2."""
    return 2.0 * math.pi * math.sqrt((2 * n - 1) / (2 * n + 2))


def check_distance(query, result, hit_tol):
    """Check one point-to-point search result.

    ``query`` carries the endpoints, the model kind (``sphere`` or
    ``heisenberg``), the sphere's ``n`` and, for pairs with a known answer,
    ``known``.
    """
    p, q = query["p"], query["q"]
    if not result.converged or result.distance is None or result.best_init is None:
        return [f"{query['name']}: search did not converge ({result.status})"]
    d = float(result.distance)
    fails = []
    known = query.get("known")
    if known is not None and abs(d - known) > 1e-3:
        fails.append(f"{query['name']}: distance {d!r} != known {known!r}")
    if query["kind"] == "sphere":
        lower = math.acos(min(1.0, max(-1.0, float(p @ q)))) - hit_tol
        upper = sphere_bound(query["n"]) * (1.0 + 1e-2)
        if not lower <= d <= upper:
            fails.append(f"{query['name']}: distance {d!r} outside [{lower!r}, {upper!r}]")
    else:
        lower = float(np.hypot(*(q - p)[:2])) - hit_tol
        if d < lower:
            fails.append(f"{query['name']}: distance {d!r} below planar bound {lower!r}")
    init = result.best_init
    if np.max(np.abs(init.point - p)) > 1e-12:
        fails.append(f"{query['name']}: search started away from p")
    end = reference_flow(query["kind"], init.point, init.covector, d)
    miss = float(np.linalg.norm(end - q))
    if not miss <= hit_tol:
        fails.append(f"{query['name']}: flow for time {d!r} misses q by {miss:.3e}")
    return fails


# ---------------------------------------------------------------------------
# diameter-riem
# ---------------------------------------------------------------------------


def check_diameter(report, mu, hit_tol):
    """Check one Riemannian diameter estimate on the deformed 3-sphere.

    With s = 1/mu the deformed metric satisfies s^2 g <= g_mu <= s g (mu >= 1),
    so every distance lies in [s d0, sqrt(s) d0] with d0 the round distance.
    """
    s = 1.0 / mu
    fails = []
    if report.partial:
        fails.append(f"estimate is partial (unconverged pairs {report.failed_indices})")
    if not report.estimate <= math.pi + 2e-2:
        fails.append(f"estimate {report.estimate!r} exceeds pi + 2e-2")
    for pr in report.pairs:
        r = pr.result
        if not r.converged or r.best_init is None:
            continue
        d = float(r.distance)
        d0 = math.acos(min(1.0, max(-1.0, float(pr.p @ pr.q))))
        lower, upper = s * d0 - hit_tol, math.sqrt(s) * d0 + hit_tol
        if not lower <= d <= upper:
            fails.append(f"pair {pr.index}: distance {d!r} outside [{lower!r}, {upper!r}]")
        if np.max(np.abs(r.best_init.point - pr.p)) > 1e-12:
            fails.append(f"pair {pr.index}: search started away from p")
        end = dhom_sphere_riem_flow(mu, r.best_init.point, r.best_init.covector, d)
        miss = float(np.linalg.norm(end - pr.q))
        if not miss <= hit_tol:
            fails.append(f"pair {pr.index}: flow for time {d!r} misses q by {miss:.3e}")
    return fails


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_geodesic(kind, path, tol=1e-8):
    """The program's integrated endpoint against the reference flow."""
    end = reference_flow(kind, path.points[0], path.covectors[0], path.t_end)
    err = float(np.linalg.norm(path.points[-1] - end))
    if not err <= tol:
        return [f"{kind}: integrated endpoint off the exact flow by {err:.3e}"]
    return []


def parseval_energy(coeffs):
    """I(0, phi) = (1/4 pi) sum_lm c_m 2l(l+1)|C_lm|^2 with c_0 = 1, c_{m>0} = 2."""
    C = np.asarray(coeffs)
    lmax = C.shape[0] - 1
    ls = np.arange(lmax + 1, dtype=float)
    weight = np.full(lmax + 1, 2.0)
    weight[0] = 1.0
    power = np.abs(C) ** 2 * weight[None, :]
    return float(np.sum(2.0 * ls * (ls + 1.0) * power.sum(axis=1)) / (4.0 * math.pi))


def check_functionals(payload, coeffs, tol=1e-10):
    """I, J and L of the straight path 0 -> phi against their Parseval values.

    For n = 1 the chain I <= 2(I - J) <= I is an equality, so J = I/2, and
    L = mean(phi) - I/2.
    """
    if not payload.get("passed"):
        return ["functionals report did not pass its own invariants"]
    got = payload["functionals"]
    I = parseval_energy(coeffs)
    mean = float(np.real(coeffs[0, 0])) / math.sqrt(4.0 * math.pi)
    expect = {"I": I, "J": 0.5 * I, "L": mean - 0.5 * I}
    fails = []
    for name, want in expect.items():
        if not abs(got[name] - want) <= tol * abs(I):
            fails.append(f"functional {name} = {got[name]!r}, Parseval gives {want!r}")
    return fails
