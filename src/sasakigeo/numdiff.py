"""Finite-difference helpers shared across the package.

Everything here works on plain numpy arrays and broadcasts over leading axes,
so the same helpers serve single points and batched evaluations.  Sampled-path
derivatives use 4th-order stencils (5-point central in the interior, one-sided
at the ends) which keeps discretisation error around h^4 -- far below the
tolerances used by the curvature and variation checks for the default step
sizes.  The parabolic vertex of three equally spaced samples refines a
sampled minimum (the search's closest approaches, the Reeb fiber's return).

The composite Simpson and cumulative trapezoid sums that the variation and
functional quadratures take along a time grid live here too, written in
numpy with ``scipy.integrate``'s own arithmetic so that every result is
bit-identical to it.  Importing ``scipy.integrate`` costs more than half a
second, several times the rest of the package, and these two sums are all
the package used it for.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "directional_derivative",
    "path_derivative",
    "fd_hessian_diagonal_sum",
]


def directional_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    direction: np.ndarray,
    step: float = 1e-5,
    order: int = 2,
) -> np.ndarray:
    """Central finite difference of ``f`` along a straight line through ``x``.

    ``f`` maps (..., m) arrays to arrays whose leading axes match; the
    derivative is taken along ``x + t * direction`` at t = 0.  ``order`` is 2
    (3-point) or 4 (5-point).
    """
    h = step
    if order == 2:
        return (f(x + h * direction) - f(x - h * direction)) / (2.0 * h)
    if order == 4:
        fm2 = f(x - 2.0 * h * direction)
        fm1 = f(x - h * direction)
        fp1 = f(x + h * direction)
        fp2 = f(x + 2.0 * h * direction)
        return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    raise ValueError(f"unsupported FD order {order}")


# 4th-order first-derivative stencils for the first/last two samples of a path.
_EDGE_FIRST = np.array(
    [
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
    ]
) / 12.0


def path_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """d/dt of uniformly sampled data ``values`` with shape (N, ...).

    4th-order accurate everywhere (central 5-point stencil in the interior,
    one-sided 5-point stencils at the two samples on each end).  Requires
    N >= 5.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * dt)
    head = np.tensordot(_EDGE_FIRST, v[:5], axes=(1, 0)) / dt
    tail = -np.tensordot(_EDGE_FIRST, v[-1:-6:-1], axes=(1, 0)) / dt
    out[0], out[1] = head[0], head[1]
    out[-1], out[-2] = tail[0], tail[1]
    return out


def _parabolic_vertex(dm, d0, dp):
    """Offset, in sample spacings from the middle sample, of the vertex of the
    parabola through the samples ``dm, d0, dp`` at offsets -1, 0, 1.

    Clipped to [-1, 1]; 0 where the samples are collinear (no vertex).
    """
    denom = dm - 2.0 * d0 + dp
    safe = np.abs(denom) > 1e-300
    return np.where(safe, 0.5 * (dm - dp) / np.where(safe, denom, 1.0), 0.0).clip(-1.0, 1.0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of the samples ``y`` at the increasing nodes ``x``.

    The same sum as ``scipy.integrate.simpson(y, x=x)``, bit for bit: the
    irregular-spacing rule over pairs of intervals, and for an even sample
    count Cartwright's correction for the last interval.  Needs at least 3
    samples.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 3:
        raise ValueError("Simpson's rule needs at least 3 samples")
    d = np.diff(np.asarray(x, dtype=float))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = d[0:stop:2], d[1 : stop + 1 : 2]
    hsum, hprod = h0 + h1, h0 * h1
    ratio = h0 / h1
    weighted = (
        y[0:stop:2] * (2.0 - 1.0 / ratio)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod))
        + y[2 : stop + 2 : 2] * (2.0 - ratio)
    )
    total = np.sum(hsum / 6.0 * weighted)
    if n % 2 == 0:
        # 0-d arrays, not scalars: their powers round as scipy's do
        a, b = np.asarray(d[-2]), np.asarray(d[-1])
        total += (
            (2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[-1]
            + (b**2 + 3.0 * a * b) / (6 * a) * y[-2]
            - b**3 / (6 * a * (a + b)) * y[-3]
        )
    return total


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``y`` from ``x[0]`` to each later node.

    The same sums as ``scipy.integrate.cumulative_trapezoid(y, x)``, bit for
    bit (length ``len(y) - 1``).  Needs at least 3 samples.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 3:
        raise ValueError("the trapezoid sums need at least 3 samples")
    return np.cumsum(np.diff(np.asarray(x, dtype=float)) * (y[1:] + y[:-1]) / 2.0)


def fd_hessian_diagonal_sum(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Sum of pure second partials of ``f`` over ambient coordinates.

    This is the flat-space Laplacian of ``f`` at each of the (..., m) points
    ``x`` with a 4th-order 5-point stencil per axis at step 1e-2 (analyst
    sign convention: positive on convex bumps).
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    h = 1e-2
    center = f(x)
    total = np.zeros_like(center)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        fm2 = f(x - 2.0 * h * e)
        fm1 = f(x - h * e)
        fp1 = f(x + h * e)
        fp2 = f(x + 2.0 * h * e)
        total = total + (
            -fm2 + 16.0 * fm1 - 30.0 * center + 16.0 * fp1 - fp2
        ) / (12.0 * h * h)
    return total
