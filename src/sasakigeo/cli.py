"""Batch front-end: deterministic experiment runs with JSON/CSV reports.

Exit codes: 0 when all checked invariants hold, 2 when an invariant fails,
3 when a search exhausts its budget without converging, 1 on usage errors
(unknown model, malformed flags, unwritable output).  Reports are JSON with
a ``schema`` version field; the ``timestamp`` field is the only
non-deterministic entry for fixed seeds.  Geodesic paths can be dumped as
CSV with columns t, x..., v..., alpha0, H.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import core, dhomothety, functionals, models, quotient, subriemannian, variations

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(args, body: dict) -> None:
    """Write ``body`` under the report header shared by every command."""
    report = {
        "schema": 1,
        "timestamp": _utc_now(),
        "command": args.command,
        "model": args.model,
        **body,
    }
    text = json.dumps(report, indent=2, default=_np_default, allow_nan=False)
    if args.output is None:
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and inf are usage errors naming the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return value


def _parse_vector(text: str, expected_dim: int | None = None) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed vector {text!r}: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"vector {text!r} has non-finite components")
    if expected_dim is not None and vec.shape != (expected_dim,):
        raise ValueError(
            f"vector {text!r} has {vec.size} components, expected {expected_dim}"
        )
    return vec


def _base_point(model) -> np.ndarray:
    x = np.zeros(model.ambient_dim)
    if float(model.constraint_residual(x)) > 1e-9:
        x[0] = 1.0
        x = model.project_point(x)
    return x


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns an exit code.
# ---------------------------------------------------------------------------


def _cmd_check_identities(args) -> int:
    model = models.get_model(args.model)
    rng = np.random.default_rng(args.seed)
    pts = model.random_points(rng, args.points)
    report = core.verify_structure(model, points=pts, tol=args.tol)
    payload = {
        "points": args.points,
        "seed": args.seed,
        "identities": [
            {
                "name": r.name,
                "max_residual": r.max_residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in report.identities
        ],
        "passed": report.passed,
    }
    _emit(args, payload)
    return EXIT_PASS if report.passed else EXIT_INVARIANT


def _cmd_geodesic(args) -> int:
    model = models.get_model(args.model)
    point = (
        _parse_vector(args.point, model.ambient_dim)
        if args.point
        else _base_point(model)
    )
    if args.direction:
        direction = _parse_vector(args.direction, model.ambient_dim)
    else:
        direction = model.orthonormal_frame(point)[0]
    direction = model.horizontal_project(point, direction)
    norm = float(np.sqrt(model.metric(point, direction, direction)))
    if norm < 1e-12:
        raise ValueError("direction has no horizontal component")
    direction = direction / norm
    cov = model.covector_from(point, direction, args.alpha0)
    state = subriemannian.CotangentState.make(model, point, cov, args.mode)
    steps = args.steps or max(16, int(round(args.t_end / 1e-3)))
    path = subriemannian.integrate_geodesic(model, state, args.t_end, steps)
    inv = path.invariants(model)
    residual = subriemannian.geodesic_residual(model, path)
    if args.csv:
        cols = (
            ["t"]
            + [f"x{i}" for i in range(model.ambient_dim)]
            + [f"v{i}" for i in range(model.ambient_dim)]
            + ["alpha0", "H"]
        )
        table = np.column_stack(
            [path.t, path.points, path.velocities, path.alpha0s, path.h_values]
        )
        np.savetxt(args.csv, table, delimiter=",", header=",".join(cols), comments="")
    ok = inv.passed(args.mode) and residual.passed
    payload = {
        "mode": args.mode,
        "t_end": args.t_end,
        "steps": steps,
        "alpha0": args.alpha0,
        "invariants": {
            "h_drift": inv.h_drift,
            "alpha0_drift": inv.alpha0_drift,
            "speed_relative_spread": inv.speed_relative_spread,
            "horizontality_max": inv.horizontality_max,
            "constraint_max": inv.constraint_max,
        },
        "equation_residual": residual.max_residual,
        "passed": ok,
    }
    _emit(args, payload)
    return EXIT_PASS if ok else EXIT_INVARIANT


def _cmd_cc_distance(args) -> int:
    model = models.get_model(args.model)
    p = _parse_vector(getattr(args, "from"), model.ambient_dim)
    q = _parse_vector(args.to, model.ambient_dim)
    cfg = subriemannian.ShootingConfig(
        seed=args.seed, alpha0_max=args.alpha0_max, t_max=args.t_max
    )
    result = subriemannian.cc_distance(model, p, q, cfg)
    payload = {
        "from": list(p),
        "to": list(q),
        "seed": args.seed,
        "status": result.status,
        "distance": result.distance,
        "miss": result.miss,
        "alpha0": result.alpha0,
        "alpha0_boundary": result.alpha0_boundary,
        "widened_to": result.widened_to,
    }
    _emit(args, payload)
    return EXIT_PASS if result.converged else EXIT_BUDGET


def _cmd_diameter(args) -> int:
    model = models.get_model(args.model)
    cfg = subriemannian.ShootingConfig(seed=args.seed)
    report = subriemannian.estimate_diameter(
        model, args.pairs, cfg, threads=args.threads
    )
    bound = subriemannian.theoretical_diameter_bound(model)
    within = bound is None or report.estimate <= bound * (1.0 + 1e-2)
    payload = {
        "pairs": args.pairs,
        "seed": args.seed,
        # NaN when no pair converged; JSON has no NaN
        "estimate": report.estimate if math.isfinite(report.estimate) else None,
        "bound": bound,
        "within_bound": within,
        "partial": report.partial,
        "failed_indices": report.failed_indices,
        "pair_results": [
            {
                "index": pr.index,
                "status": pr.result.status,
                "distance": pr.result.distance,
                "alpha0": pr.result.alpha0,
            }
            for pr in report.pairs
        ],
    }
    _emit(args, payload)
    if report.partial:
        return EXIT_BUDGET
    return EXIT_PASS if within else EXIT_INVARIANT


def _converged_geodesic(model, seed: int):
    """A converged shortest connection between a seeded random pair."""
    rng = np.random.default_rng(seed)
    p, q = model.random_points(rng, 2)
    cfg = subriemannian.ShootingConfig(seed=seed)
    result = subriemannian.cc_distance(model, p, q, cfg)
    if not result.converged:
        return None, result
    return subriemannian.geodesic_from_result(model, result), result


def _cmd_second_variation(args) -> int:
    model = models.get_model(args.model)
    path, result = _converged_geodesic(model, args.seed)
    if path is None:
        payload = {
            "seed": args.seed,
            "status": result.status,
        }
        _emit(args, payload)
        return EXIT_BUDGET
    frame = variations.transport_frame(
        model, path, variations.initial_transverse_frame(model, path)
    )
    fr = variations.frame_report(model, frame)
    ident = variations.check_variation_identities(model, path, frame)
    fields = variations.sine_frame_fields(model, frame) + [
        variations.phi_reeb_field(model, path)
    ]
    field_rows = []
    ok = fr.passed() and ident.passed()
    for f in fields:
        e2 = variations.second_variation(model, path, f)
        row = {
            "label": f.label,
            "admissibility_residual": f.admissibility_residual,
            "first_variation": variations.first_variation(model, path, f),
            "second_variation": e2,
        }
        field_rows.append(row)
        if f.admissibility_residual > 1e-6 or e2 < -1e-5:
            ok = False
    payload = {
        "seed": args.seed,
        "status": result.status,
        "length": float(path.t[-1]),
        "alpha0": result.alpha0,
        "frame": {
            "n_vectors": frame.n_vectors,
            "transport_residual": fr.transport_residual,
            "orthonormality_residual": fr.orthonormality_residual,
            "f1_max": fr.f1_max,
            "f2_max": fr.f2_max,
        },
        "identities": {
            "frame_second_derivative": ident.frame_second_derivative,
            "frame_curvature": ident.frame_curvature,
            "phi_reeb_second_derivative": ident.phi_reeb_second_derivative,
            "phi_reeb_curvature": ident.phi_reeb_curvature,
        },
        "fields": field_rows,
        "passed": ok,
    }
    _emit(args, payload)
    return EXIT_PASS if ok else EXIT_INVARIANT


def _cmd_myers_verify(args) -> int:
    model = models.get_model(args.model)
    tau = model.tau
    if tau <= 0:
        raise ValueError(
            f"model {args.model} has no positive transverse Ricci bound; "
            "the diameter theorem is vacuous for it"
        )
    bound = subriemannian.theoretical_diameter_bound(model)
    rows = []
    any_budget = False
    all_pass = True
    for k in range(args.pairs):
        path, result = _converged_geodesic(model, args.seed + k)
        if path is None:
            any_budget = True
            rows.append({"pair": k, "status": result.status})
            continue
        cert = variations.myers_certificate(
            model, path, tau, minimizing=result.converged
        )
        rows.append(
            {
                "pair": k,
                "status": result.status,
                "length": cert.length,
                "integral": cert.integral,
                "passed": cert.passed,
                "length_within_bound": cert.length_within_bound,
            }
        )
        if not (cert.passed and cert.length_within_bound):
            all_pass = False
    payload = {
        "seed": args.seed,
        "tau": tau,
        "bound": bound,
        "certificates": rows,
        "passed": all_pass,
    }
    _emit(args, payload)
    if not all_pass:
        return EXIT_INVARIANT
    return EXIT_BUDGET if any_budget else EXIT_PASS


def _cmd_dhomothety(args) -> int:
    source = models.get_model(args.model)
    deformed = dhomothety.apply(source, args.mu)
    rng = np.random.default_rng(args.seed)
    pts = deformed.random_points(rng, 200)
    structure = core.verify_structure(deformed, points=pts)
    vol = dhomothety.volume_scaling_check(
        source, args.mu, samples=args.samples, seed=args.seed
    )
    vol_ok = vol.residual < 1e-2
    ricci_section = None
    ok = structure.passed and vol_ok
    if args.mu >= 1.0:
        t = 1.0 / args.mu
        ricci = dhomothety.ricci_bound_check(source, t, samples=50, seed=args.seed)
        ricci_section = {
            "t": ricci.t,
            "mu": ricci.mu,
            "source_precondition_slack": ricci.source_precondition_slack,
            "min_horizontal_slack": ricci.min_horizontal_slack,
            "max_mixed_residual": ricci.max_mixed_residual,
            "transverse_invariance_residual": ricci.transverse_invariance_residual,
            "passed": ricci.passed(),
        }
        ok = ok and ricci.passed()
    payload = {
        "mu": args.mu,
        "seed": args.seed,
        "structure_passed": structure.passed,
        "volume": {
            "measured_ratio": vol.measured_ratio,
            "expected_ratio": vol.expected_ratio,
            "residual": vol.residual,
            "passed": vol_ok,
        },
        "ricci_bound": ricci_section,
        "passed": ok,
    }
    _emit(args, payload)
    return EXIT_PASS if ok else EXIT_INVARIANT


def _cmd_functionals(args) -> int:
    model = models.get_model(args.model)
    if model.ambient_dim != 4 or model.n != 1:
        raise ValueError("functionals require the 3-sphere model (transverse surface)")
    n_theta, n_phi = (int(tok) for tok in args.grid.lower().split("x"))
    grid = quotient.S2Grid(n_theta=n_theta, n_phi=n_phi, lmax=args.lmax)
    if args.values_csv:
        vals = np.loadtxt(args.values_csv, delimiter=",")
        if vals.shape != (n_theta, n_phi):
            raise ValueError(
                f"values file shape {vals.shape} does not match grid {n_theta}x{n_phi}"
            )
        phi = quotient.BasicPotential.from_values(grid, vals)
        source = args.values_csv
    elif args.random:
        phi = quotient.random_potential(grid, np.random.default_rng(args.seed))
        source = f"random(seed={args.seed})"
    else:
        phi = quotient.harmonic_potential(grid, args.l, args.m, args.amplitude)
        source = f"harmonic(l={args.l}, m={args.m}, amplitude={args.amplitude})"
    geometry = quotient.quotient_geometry(model, grid)
    calibration = functionals.calibrate_scalar_trace(grid)
    report = functionals.functional_report(grid, phi, geometry.volume, nodes=args.nodes)
    ij = functionals.ij_derivative_check(
        functionals.linear_path(quotient.BasicPotential.zero(grid), phi, args.nodes)
    )
    ok = (
        report.path_independence_residual < 1e-6
        and report.j_closed_form_residual < 1e-6
        and report.chain_slack_lower > -1e-7
        and report.chain_slack_upper > -1e-7
        and report.I >= -1e-8
        and ij < 1e-4
        and calibration.constant == 0.5
    )
    payload = {
        "potential": {
            "source": source,
            "amplitude": phi.amplitude,
            "min_density": phi.min_density(),
        },
        "grid": {"n_theta": n_theta, "n_phi": n_phi, "lmax": args.lmax},
        "geometry": {
            "fiber_length": geometry.fiber_length,
            "area": geometry.area,
            "volume": geometry.volume,
        },
        "calibration": {
            "constant": calibration.constant,
            "residuals": {str(k): v for k, v in calibration.residuals.items()},
        },
        "functionals": {"L": report.L, "M": report.M, "I": report.I, "J": report.J},
        "diagnostics": {
            "path_independence_residual": report.path_independence_residual,
            "j_closed_form_residual": report.j_closed_form_residual,
            "chain_slack_lower": report.chain_slack_lower,
            "chain_slack_upper": report.chain_slack_upper,
            "ij_derivative_residual": ij,
        },
        "passed": ok,
    }
    _emit(args, payload)
    return EXIT_PASS if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sasakigeo",
        description=(
            "Numerical verification toolkit for Sasakian and sub-Riemannian "
            "geometry on closed-form models."
        ),
        epilog=(
            "Model keys: s3, s5, heisenberg, s3-dhom:<mu>.  CSV path dumps "
            "have columns t, x0..x(d-1), v0..v(d-1), alpha0, H.  Exit codes: "
            "0 pass, 1 usage error, 2 failed invariant, 3 search budget "
            "exhausted."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--model", default="s3", help="model key (default s3)")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--output", default=None, help="write JSON here (default stdout)")
        return p

    p = add("check-identities", _cmd_check_identities, "structure identity residuals")
    p.add_argument("--points", type=int, default=200, help="sample point count")
    p.add_argument("--tol", type=_finite_float, default=None, help="override all tolerances")

    p = add("geodesic", _cmd_geodesic, "integrate one normal geodesic")
    p.add_argument("--point", default=None, help="start point (comma-separated)")
    p.add_argument("--direction", default=None, help="initial horizontal direction")
    p.add_argument("--alpha0", type=_finite_float, default=0.3, help="Reeb momentum")
    p.add_argument("--t-end", type=_finite_float, default=float(2.0 * np.pi))
    p.add_argument("--steps", type=int, default=None, help="step count (default t/1e-3)")
    p.add_argument("--mode", choices=("sub", "riem"), default="sub")
    p.add_argument("--csv", default=None, help="write the sampled path as CSV")

    p = add("cc-distance", _cmd_cc_distance, "distance between two points")
    p.add_argument("--from", required=True, help="start point (comma-separated)")
    p.add_argument("--to", required=True, help="target point (comma-separated)")
    p.add_argument("--alpha0-max", type=_finite_float, default=4.0)
    p.add_argument(
        "--t-max", type=_finite_float, default=None, help="search horizon (default: model rule)"
    )

    p = add("diameter", _cmd_diameter, "diameter estimate over random pairs")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)

    add("second-variation", _cmd_second_variation, "variation identities and energies")

    p = add("myers-verify", _cmd_myers_verify, "diameter-bound certificates")
    p.add_argument("--pairs", type=int, default=4)

    p = add("dhomothety", _cmd_dhomothety, "deformation scaling checks")
    p.add_argument("--mu", type=_finite_float, required=True, help="deformation parameter")
    p.add_argument("--samples", type=int, default=100000, help="volume MC samples")

    p = add("functionals", _cmd_functionals, "energy functionals on potentials")
    p.add_argument("--l", type=int, default=2, help="harmonic degree")
    p.add_argument("--m", type=int, default=1, help="harmonic order")
    p.add_argument("--amplitude", type=_finite_float, default=0.02)
    p.add_argument("--random", action="store_true", help="use a seeded random potential")
    p.add_argument("--values-csv", default=None, help="potential values on the grid")
    p.add_argument("--grid", default="64x128", help="n_theta x n_phi")
    p.add_argument("--lmax", type=int, default=32)
    p.add_argument("--nodes", type=int, default=33, help="time quadrature nodes")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        detail = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        print(f"sasakigeo: error: {detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
