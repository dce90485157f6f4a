"""The benchmark's workloads: seeded inputs, the program calls, and their checks.

A workload is built from ``--seed`` and hands out rounds.  A round is a list
of ops; an op is a program call (timed) plus the check of its output
(untimed).  Round ``r`` of a seed always holds the same ops on the same
inputs, so a traced run can replay exactly what an untraced run measured.

Pairs for the searches come in fixed shapes placed at random: the seed draws
a random isometry of the model and the shape fixes the pair up to it.  The
distance, and most of the search's work, depend only on the shape, so ten
seeds give ten different inputs with the same distances and nearly the same
cost.  That keeps ``dist_mean`` and the timings steady across seeds while
every run still searches between points it has not seen before.

The sphere shapes are quantiles of the pairs the program itself draws
(``random_points`` gives uniform points, so for a pair on S^{2k-1} the
complex inner product has |<p,q>|^2 ~ Beta(1, k-1) and a uniform phase):
``sphere_shape(k, u)`` puts |<p,q>|^2 and |arg <p,q>| at their u-quantiles.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sasakigeo import cli, core, dhomothety, models, quotient, subriemannian, variations

import checks

WORKLOADS = ("distance-sub", "diameter-riem", "verify")

# Heisenberg offsets h: the pair is (p, p * h) under the group law below.
HEIS_UNIT = np.array([1.0, 0.0, 0.0])  # distance 1
HEIS_REEB = np.array([0.0, 0.0, 1.0])  # distance sqrt(4 pi)
RIEM_MU = 2.0


def sphere_shape(k, u):
    """<p, q> whose |.|^2 and |arg| sit at the u-quantiles for uniform pairs on S^{2k-1}.

    |<p,q>|^2 ~ Beta(1, k-1), with quantile 1 - (1-u)^(1/(k-1)), and
    |arg <p,q>| ~ U[0, pi].  The complex inner product fixes a pair up to
    U(k), an isometry of the sphere and of its D-homothetic deformations.
    """
    return math.sqrt(1.0 - (1.0 - u) ** (1.0 / (k - 1))) * np.exp(1j * math.pi * u)


S3_SHAPE = sphere_shape(2, 0.5)  # the medians
S5_SHAPE = sphere_shape(3, 0.5)
RIEM_SHAPES = (sphere_shape(2, 0.25), sphere_shape(2, 0.75))  # the quartiles


def _realify(z):
    """C^k -> R^{2k}, z_j -> (Re z_j, Im z_j), matching the models' J."""
    return np.stack([z.real, z.imag], axis=-1).reshape(z.shape[:-1] + (-1,))


def _haar_unitary(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sphere_pair(rng, k, c):
    """Random pair on S^{2k-1} with complex inner product <p, q> = c."""
    U = _haar_unitary(rng, k)
    e0 = np.zeros(k, complex)
    e0[0] = 1.0
    w = np.zeros(k, complex)
    w[0], w[1] = c, math.sqrt(1.0 - abs(c) ** 2)
    return _realify(U @ e0), _realify(U @ w)


def heis_translate(p, h):
    """Left translation p * h in the chart where E1 = d_x + y d_z, E2 = d_y."""
    return np.array([p[0] + h[0], p[1] + h[1], p[2] + h[2] + p[1] * h[0]])


@dataclass
class Op:
    name: str
    call: Callable[[], object]  # the timed program call
    check: Callable[[object], list]  # failure messages for its output


class DistanceSub:
    """Point-to-point cc_distance queries in sub mode, default ShootingConfig."""

    def __init__(self, seed):
        self.seed = seed
        self.cfg = subriemannian.ShootingConfig()
        self.models = {key: models.get_model(key) for key in ("s3", "s5", "heisenberg")}

    def queries(self, r):
        rng = np.random.default_rng([self.seed, r, 1])
        out = []
        for name, h, known in (
            ("heis-unit", HEIS_UNIT, 1.0),
            ("heis-reeb", HEIS_REEB, math.sqrt(4.0 * math.pi)),
        ):
            p = rng.uniform(-1.0, 1.0, 3)
            out.append(dict(name=name, key="heisenberg", kind="heisenberg",
                            p=p, q=heis_translate(p, h), known=known))
        p = rng.standard_normal(4)
        p /= np.linalg.norm(p)
        out.append(dict(name="s3-antipode", key="s3", kind="sphere", n=1,
                        p=p, q=-p, known=math.pi))
        for name, key, k, c in (("s3-pair", "s3", 2, S3_SHAPE), ("s5-pair", "s5", 3, S5_SHAPE)):
            p, q = sphere_pair(rng, k, c)
            out.append(dict(name=name, key=key, kind="sphere", n=k - 1, p=p, q=q))
        return out

    def round(self, r):
        ops = []
        for query in self.queries(r):
            model = self.models[query["key"]]

            def call(query=query, model=model):
                return subriemannian.cc_distance(model, query["p"], query["q"], self.cfg)

            def check(result, query=query):
                return checks.check_distance(query, result, self.cfg.hit_tol)

            ops.append(Op(query["name"], call, check))
        return ops

    @staticmethod
    def distances(result):
        return [result.distance] if result.converged else []


class ShapedPairsModel(dhomothety.DHomotheticModel):
    """The deformed 3-sphere whose pair sampling places fixed pair shapes.

    ``estimate_diameter`` draws its pairs through ``random_points``, first the
    p's and then the q's, with a generator seeded from the config.  Here the
    first call draws a random unitary per pair and returns p_i = U_i e0, the
    second returns q_i = U_i w_i with <e0, w_i> the i-th shape.  Everything
    else is the program's deformed model.
    """

    def __init__(self, mu, shapes):
        super().__init__(models.get_model("s3"), mu)
        self.shapes = tuple(shapes)
        self._placements = None

    def random_points(self, rng, count):
        if count != len(self.shapes):
            raise ValueError(f"expected {len(self.shapes)} pairs, got {count}")
        if self._placements is None:
            self._placements = [sphere_pair(rng, 2, c) for c in self.shapes]
            return np.stack([p for p, _ in self._placements])
        qs = np.stack([q for _, q in self._placements])
        self._placements = None
        return qs


class DiameterRiem:
    """estimate_diameter on s3-dhom:2.0 in riem mode (acceptance 08's setting)."""

    def __init__(self, seed):
        self.seed = seed
        self.mu = RIEM_MU
        self.hit_tol = subriemannian.ShootingConfig().hit_tol

    def round(self, r):
        cfg_seed = int(np.random.default_rng([self.seed, r, 2]).integers(2**31))
        cfg = subriemannian.ShootingConfig(seed=cfg_seed, mode="riem")

        def call():
            model = ShapedPairsModel(self.mu, RIEM_SHAPES)
            return subriemannian.estimate_diameter(model, len(RIEM_SHAPES), cfg, threads=1)

        def check(report):
            return checks.check_diameter(report, self.mu, self.hit_tol)

        return [Op("estimate", call, check)]

    @staticmethod
    def distances(report):
        return [pr.result.distance for pr in report.pairs if pr.result.converged]


def _sphere_covector(rng, k, a0):
    """Point on S^{2k-1} and the covector of a unit horizontal speed, Reeb momentum a0."""
    p = rng.standard_normal(2 * k)
    p /= np.linalg.norm(p)
    Jp = checks.complex_rotation(p)
    u = rng.standard_normal(2 * k)
    u -= (u @ p) * p + (u @ Jp) * Jp
    u /= np.linalg.norm(u)
    return p, u + a0 * Jp


def _heis_covector(rng, a0):
    p = rng.uniform(-1.0, 1.0, 3)
    th = rng.uniform(0.0, 2.0 * math.pi)
    az = 2.0 * a0  # a(xi) = a_z / 2
    return p, np.array([math.cos(th) - p[1] * az, math.sin(th), az])


class Verify:
    """The checks that run no search, in identical seeded rounds (one op a round)."""

    GEODESIC_T = 1.2
    GEODESIC_STEPS = 1200
    VOLUME_SAMPLES = 20000
    RICCI_SAMPLES = 50
    FUNCTIONALS_GRID = (64, 128, 32)  # the CLI's default grid

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.models = {key: models.get_model(key) for key in ("s3", "s5", "heisenberg")}
        self.s3 = self.models["s3"]
        self._grid = None

    def inputs(self, r):
        rng = np.random.default_rng([self.seed, r, 3])
        geo = {}
        for key in ("s3", "s5", "heisenberg"):
            a0 = rng.uniform(-1.0, 1.0)
            if key == "heisenberg":
                geo[key] = _heis_covector(rng, a0)
            else:
                geo[key] = _sphere_covector(rng, 2 if key == "s3" else 3, a0)
        seeds = [int(v) for v in rng.integers(0, 2**31, size=4)]
        return geo, seeds

    def _geodesic_round(self, key, point, covector, seed):
        model = self.models[key]
        out = {"structure": core.verify_structure(model, seed=seed)}
        state = subriemannian.CotangentState.make(model, point, covector)
        path = subriemannian.integrate_geodesic(model, state, self.GEODESIC_T, self.GEODESIC_STEPS)
        frame = variations.transport_frame(
            model, path, variations.initial_transverse_frame(model, path)
        )
        out["path"] = path
        out["identities"] = variations.check_variation_identities(model, path, frame)
        fields = variations.sine_frame_fields(model, frame)
        fields.append(variations.phi_reeb_field(model, path))
        out["second_variations"] = [variations.second_variation(model, path, f) for f in fields]
        if key != "heisenberg":
            out["certificate"] = variations.myers_certificate(
                model, path, model.tau, minimizing=True
            )
        return out

    def round(self, r):
        geo, seeds = self.inputs(r)
        out_path = os.path.join(self.out_dir, f"functionals-{self.seed}-{r}.json")

        def call():
            out = {}
            for key, (point, covector) in geo.items():
                out[key] = self._geodesic_round(key, point, covector, seeds[0])
            out["volume"] = dhomothety.volume_scaling_check(
                self.s3, RIEM_MU, samples=self.VOLUME_SAMPLES, seed=seeds[1]
            )
            out["ricci"] = dhomothety.ricci_bound_check(
                self.s3, 1.0 / RIEM_MU, samples=self.RICCI_SAMPLES, seed=seeds[2]
            )
            out["cli_exit"] = cli.main(
                ["functionals", "--random", "--seed", str(seeds[3]), "--output", out_path]
            )
            return out

        def check(out):
            return self.check_round(out, seeds[3], out_path)

        return [Op("round", call, check)]

    def check_round(self, out, functionals_seed, out_path):
        fails = []
        for key in ("s3", "s5", "heisenberg"):
            res = out[key]
            if not res["structure"].passed:
                fails.append(f"{key}: structure identities failed")
            fails += checks.check_geodesic("heisenberg" if key == "heisenberg" else "sphere",
                                           res["path"])
            if not res["identities"].passed():
                fails.append(f"{key}: variation identities failed")
            worst = min(res["second_variations"])
            if not worst >= -1e-5:
                fails.append(f"{key}: second variation {worst!r} < -1e-5")
            cert = res.get("certificate")
            if cert is not None and not cert.integral >= -1e-5:
                fails.append(f"{key}: certificate integral {cert.integral!r} < -1e-5")
        if not out["volume"].residual < 1e-2:
            fails.append(f"volume ratio residual {out['volume'].residual!r}")
        if not out["ricci"].passed():
            fails.append("deformed Ricci bound check failed")
        if out["cli_exit"] != 0:
            return fails + [f"functionals CLI exited {out['cli_exit']}"]
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(out_path)
        fails += checks.check_functionals(payload, self.potential_coeffs(functionals_seed))
        return fails

    def potential_coeffs(self, functionals_seed):
        """Coefficients of the CLI's ``--random --seed k`` potential."""
        if self._grid is None:
            n_theta, n_phi, lmax = self.FUNCTIONALS_GRID
            self._grid = quotient.S2Grid(n_theta=n_theta, n_phi=n_phi, lmax=lmax)
        rng = np.random.default_rng(functionals_seed)
        return quotient.random_potential(self._grid, rng).coeffs

    @staticmethod
    def distances(out):
        return [out[key]["path"].length for key in ("s3", "s5", "heisenberg")]


def make(name, seed, out_dir):
    if name == "distance-sub":
        return DistanceSub(seed)
    if name == "diameter-riem":
        return DiameterRiem(seed)
    if name == "verify":
        return Verify(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
