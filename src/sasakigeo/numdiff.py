"""Finite-difference helpers shared across the package.

Everything here works on plain numpy arrays and broadcasts over leading axes,
so the same helpers serve single points and batched evaluations.  Sampled-path
derivatives use 4th-order stencils (5-point central in the interior, one-sided
at the ends) which keeps discretisation error around h^4 -- far below the
tolerances used by the curvature and variation checks for the default step
sizes.  The parabolic vertex of three equally spaced samples refines a
sampled minimum (the search's closest approaches, the Reeb fiber's return).
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
