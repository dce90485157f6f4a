"""Exact sub-Riemannian distances on Heisenberg and the round spheres, against the search.

The oracles here are closed forms reduced to one-dimensional root finding,
kept apart from the bounds in ``benchmark/checks.py`` so that neither copy
can hide a slip in the other.

- Heisenberg (Agrachev-Barilari-Boscain, *A Comprehensive Introduction to
  Sub-Riemannian Geometry*, Heisenberg chapter): minimizers from the origin
  are unit-speed circular arcs with turning angle ``s`` in ``(0, 2 pi)``.  With
  chord ``r`` and signed area ``A`` between arc and chord,
  ``A / r^2 = (s - sin s) / (2 s^2 sinc^2(s/2))``, and the length is
  ``r / sinc(s/2)``.
  The Heisenberg flow itself is checked against its Hamiltonian system
  integrated by ``mpmath`` quadrature at 40 digits.
- Round sphere ``S^{2n+1}`` (Boscain-Rossi, SIAM J. Control Optim. 47 (2008);
  Baudoin-Wang, Math. Z. 275 (2013)): along a unit-speed geodesic with Reeb
  momentum ``a0``, ``<p, x(t)> = e^{-i a0 t}(cos wt + i (a0/w) sin wt)`` with
  ``w = sqrt(1 + a0^2)``.  The modulus fixes ``sin wt = w sqrt(1 - |z|^2)``
  on two branches of ``wt``; the phase is one root in ``a0`` per branch, and
  the least ``t`` is the distance.  In riem mode the metric is the round one,
  so the distance is ``arccos(p . q)``.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from sasakigeo import models, subriemannian as sr


def _sinc(u):
    return np.sinc(u / np.pi)


def heisenberg_distance(p, q):
    """Exact CC distance between ``p`` and ``q`` on the Heisenberg model."""
    X, Y = q[0] - p[0], q[1] - p[1]
    Z = q[2] - p[2] - p[1] * X
    r = math.hypot(X, Y)
    A = abs(Z - 0.5 * X * Y)
    if A == 0.0:
        return r
    if r == 0.0:
        return math.sqrt(4.0 * math.pi * A)
    # (s - sin s) / (2 s^2 sinc^2(s/2)), written as (s - sin s) / (8 sin^2(s/2)),
    # rises from 0 to infinity on (0, 2 pi)
    ratio = A / (r * r)
    s = brentq(
        lambda s: (s - math.sin(s)) / (8.0 * math.sin(0.5 * s) ** 2) - ratio,
        1e-12, 2.0 * math.pi - 1e-12, xtol=1e-15, rtol=4.0 * np.finfo(float).eps,
        maxiter=500,
    )
    return r / float(_sinc(0.5 * s))


def heisenberg_flow_mp(x0, a, t, reeb_weight):
    """The Heisenberg flow of ``H_sub + reeb_weight a0^2 / 2`` at time ``t``, to 40 digits.

    Hamilton's equations ``x' = w, y' = a_y, z' = y w + reeb_weight a_z / 4``
    with ``w = a_x + y a_z`` turn ``(w, a_y)`` at the constant rate ``a_z``;
    ``x`` and ``z`` are integrated by quadrature.
    """
    import mpmath  # only this oracle needs it; the others collect without it

    with mpmath.workdps(40):
        px, py, pz, ax, ay, az, t = (mpmath.mpf(float(v)) for v in (*x0, *a, t))
        w0 = ax + py * az

        def w(s):
            return w0 * mpmath.cos(az * s) + ay * mpmath.sin(az * s)

        def y(s):
            if az == 0:
                return py + ay * s
            return py + (ay * mpmath.sin(az * s) + w0 * (mpmath.cos(az * s) - 1)) / az

        x = px + mpmath.quad(w, [0, t])
        z = pz + mpmath.quad(lambda s: y(s) * w(s) + reeb_weight * az / 4, [0, t])
        return np.array([float(x), float(y(t)), float(z)])


def hermitian(p, q):
    """``<p, q>`` in ``C^{n+1}``, complex coordinates ``x_{2k} + i x_{2k+1}`` (the model's J)."""
    zp = p[0::2] + 1j * p[1::2]
    zq = q[0::2] + 1j * q[1::2]
    return complex(np.sum(np.conj(zp) * zq))


def sphere_distance(p, q):
    """Exact sub-Riemannian distance between ``p`` and ``q`` on a round sphere."""
    z = hermitian(p, q)
    m = abs(z)
    if m >= 1.0 - 1e-14:
        # the fiber through p: a closed horizontal loop enclosing the angle
        theta = abs(math.atan2(z.imag, z.real))
        return math.sqrt(max(2.0 * math.pi * theta - theta * theta, 0.0))
    if m == 0.0:
        return 0.5 * math.pi
    root = math.sqrt(1.0 - m * m)
    a_max = m / root  # beyond it no wt solves sin wt = w sqrt(1 - |z|^2)

    def flight(a0, branch):
        w = math.sqrt(1.0 + a0 * a0)
        wt = math.asin(min(w * root, 1.0))
        return (wt if branch == 0 else math.pi - wt) / w, w

    def mismatch(a0, branch):
        # Im(<p, x(t)> conj(z)): zero where the phase of <p, x(t)> is that of z
        t, w = flight(a0, branch)
        wt = w * t
        value = np.exp(-1j * a0 * t) * (math.cos(wt) + 1j * (a0 / w) * math.sin(wt))
        return value * z.conjugate()

    inner = min(a_max, 8.0)
    grid = np.linspace(-inner, inner, 4001)
    if a_max > inner:
        outer = np.geomspace(inner, a_max, 400)
        grid = np.concatenate([-outer[::-1], grid, outer])
    best = math.inf
    for branch in (0, 1):
        vals = np.array([mismatch(a, branch).imag for a in grid])
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]:
            lo, hi = grid[i], grid[i + 1]
            if vals[i] == 0.0:
                a0 = lo
            elif vals[i + 1] == 0.0:
                a0 = hi
            else:
                a0 = brentq(lambda a: mismatch(a, branch).imag, lo, hi, xtol=1e-15,
                            rtol=4.0 * np.finfo(float).eps, maxiter=500)
            if mismatch(a0, branch).real > 0.0:
                best = min(best, flight(a0, branch)[0])
    return best


def fiber_point(p, theta):
    """``e^{i theta} p``: the point of the Reeb fiber through ``p`` at angle ``theta``."""
    q = np.empty_like(p)
    c, s = math.cos(theta), math.sin(theta)
    q[0::2] = c * p[0::2] - s * p[1::2]
    q[1::2] = s * p[0::2] + c * p[1::2]
    return q


class TestOracleSelfChecks:
    def test_heisenberg_closed_values(self):
        origin = np.zeros(3)
        assert heisenberg_distance(origin, np.array([1.0, 0.0, 0.0])) == 1.0
        assert heisenberg_distance(origin, np.array([0.0, 0.0, 1.0])) == pytest.approx(
            math.sqrt(4.0 * math.pi), abs=1e-15
        )
        # half a circle of radius 1/2 encloses pi/8 over the unit chord
        half = heisenberg_distance(origin, np.array([1.0, 0.0, math.pi / 8.0]))
        assert half == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_sphere_closed_values(self):
        for n in (1, 2):
            p = np.zeros(2 * n + 2)
            p[0] = 1.0
            assert sphere_distance(p, -p) == pytest.approx(math.pi, abs=1e-15)
            q = np.zeros_like(p)
            q[2] = 1.0  # <p, q> = 0
            assert sphere_distance(p, q) == 0.5 * math.pi

    def test_fiber_value_matches_root_finder(self):
        # the fiber formula at theta = pi/2 is the limit of the general root
        p = np.array([1.0, 0.0, 0.0, 0.0])
        fiber = math.sqrt(2.0 * math.pi * (math.pi / 2) - (math.pi / 2) ** 2)
        assert sphere_distance(p, fiber_point(p, 0.5 * math.pi)) == pytest.approx(
            0.5 * math.sqrt(3.0) * math.pi, abs=1e-15
        )
        for eps in (1e-6, 1e-8):
            q = fiber_point(p, 0.5 * math.pi)
            q[2] = eps
            q /= np.linalg.norm(q)
            assert abs(sphere_distance(p, q) - fiber) < 10.0 * math.sqrt(eps)

    @pytest.mark.parametrize("key", ["heisenberg", "s3", "s5"])
    def test_short_flow_arcs_are_exact(self, key):
        # short normal geodesics minimize: the oracle returns their flow time
        model = models.get_model(key)
        oracle = heisenberg_distance if key == "heisenberg" else sphere_distance
        rng = np.random.default_rng(5)
        p = model.random_points(rng, 1)[0]
        chart = sr._frame_chart(model, p, "sub")
        c = rng.standard_normal((4, 2 * model.n))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        a0 = np.array([-1.5, -0.3, 0.0, 0.8])
        cov = chart(c, a0)
        t = np.full((4, 1), 0.9)
        q = model.flow_points(np.broadcast_to(p, cov.shape), cov, t, "sub")[:, 0]
        for qi in q:
            assert oracle(p, qi) == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("mode", ["sub", "riem"])
def test_heisenberg_flow_matches_mpmath(mode):
    # each row ends at its own turning angle a_z t: 0, 1e-9, just under and
    # just over the series cut |a_z t| = 2 _SERIES_CUT, and 1.7 to 10; the
    # earlier samples of each row fill in smaller angles
    heis = models.get_model("heisenberg")
    cut = 2.0 * models._SERIES_CUT
    turn = np.array([0.0, 1e-9, cut * (1 - 1e-9), cut * (1 + 1e-9), 1.7, -4.0, 10.0])
    T = np.array([2.0, 1.0, 3.0, 8.0, 2.5, 6.0, 5.0])
    rng = np.random.default_rng(13)
    x0 = heis.random_points(rng, turn.size)
    a = np.column_stack([rng.uniform(-2.0, 2.0, (turn.size, 2)), turn / T])
    t = T[:, None] * np.array([0.1, 0.5, 0.999, 1.0])
    q = np.array([2.5, -3.0, 1.5])
    got = heis.flow_points(x0, a, t, mode)
    got_d2 = heis.flow_sq_distances(x0, a, t, q, mode)
    weight = 1.0 if mode == "riem" else 0.0
    for i in range(turn.size):
        for k in range(t.shape[1]):
            want = heisenberg_flow_mp(x0[i], a[i], t[i, k], weight)
            assert np.linalg.norm(got[i, k] - want) <= 1e-14 * np.linalg.norm(want), (i, k)
            want_d2 = float(np.sum((want - q) ** 2))
            assert abs(got_d2[i, k] - want_d2) <= 1e-14 * want_d2, (i, k)


def test_heisenberg_search_is_exact():
    heis = models.get_model("heisenberg")
    rep = sr.estimate_diameter(heis, 10, sr.ShootingConfig(seed=3))
    assert not rep.partial
    for pair in rep.pairs:
        exact = heisenberg_distance(pair.p, pair.q)
        assert abs(pair.result.distance - exact) < 1e-12, (pair.index, pair.result.distance, exact)


@pytest.mark.parametrize("key", ["s3", "s5"])
def test_sphere_search_is_exact_and_never_short(key):
    model = models.get_model(key)
    rep = sr.estimate_diameter(model, 8, sr.ShootingConfig(seed=7))
    assert not rep.partial
    for pair in rep.pairs:
        exact = sphere_distance(pair.p, pair.q)
        d = pair.result.distance
        assert exact - 1e-12 <= d <= exact + 1e-12, (pair.index, d, exact)


@pytest.mark.parametrize("key", ["s3", "s5"])
def test_round_sphere_riem_distance_is_the_great_circle(key):
    model = models.get_model(key)
    rep = sr.estimate_diameter(model, 8, sr.ShootingConfig(seed=4, mode="riem"))
    assert not rep.partial
    for pair in rep.pairs:
        exact = math.acos(float(np.clip(pair.p @ pair.q, -1.0, 1.0)))
        assert abs(pair.result.distance - exact) < 1e-12, (pair.index, pair.result.distance, exact)
