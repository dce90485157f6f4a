"""What the traced run wraps, and the per-layer metrics it derives.

Every public function of each module is a span ``<module>.<function>``.
Every public method of each module's public classes is a folded call
``<module>.<Class>.<method>``, except the models' methods, which all belong
to the ``models`` layer as ``models.<method>`` whatever module defines the
class (the abstract base in ``core``, the deformed model in ``dhomothety``).
A few private search steps and hot methods get short names of their own.
Properties are not wrapped; their time goes to the caller's layer, except
for the wrapped calls they make.  The metrics below are computed from the
spans and counters alone.
"""

from __future__ import annotations

import inspect

from sasakigeo import (
    cli, core, dhomothety, functionals, models, numdiff, quotient, subriemannian, variations,
)

from tracing import LAYERS

_MODULES = {
    "models": models, "subriemannian": subriemannian, "variations": variations,
    "numdiff": numdiff, "core": core, "dhomothety": dhomothety, "quotient": quotient,
    "functionals": functionals,
}

RICCI_SPANS = ("core.ricci", "core.ricci_transverse", "core.transverse_curvature")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "models.rhs_calls": ("count", "lower"),
    "models.rhs_rows": ("count", "lower"),
    "models.rhs_rows_per_call": ("rows", "higher"),
    "models.rhs_s": ("s", "lower"),
    "models.rhs_us_per_row": ("us", "lower"),
    "models.project_calls": ("count", "lower"),
    "models.project_s": ("s", "lower"),
    "subriemannian.search_calls": ("count", "lower"),
    "subriemannian.search_s": ("s", "lower"),
    "subriemannian.search_self_s": ("s", "lower"),
    "subriemannian.refine_rounds": ("count", "lower"),
    "subriemannian.widened": ("count", "lower"),
    "subriemannian.rows_per_result": ("rows", "lower"),
    "subriemannian.diameter_s": ("s", "lower"),
    "subriemannian.integrate_calls": ("count", "lower"),
    "subriemannian.integrate_s": ("s", "lower"),
    "variations.transport_s": ("s", "lower"),
    "variations.identities_s": ("s", "lower"),
    "variations.second_variation_s": ("s", "lower"),
    "variations.certificate_s": ("s", "lower"),
    "numdiff.calls": ("count", "lower"),
    "numdiff.s": ("s", "lower"),
    "core.verify_structure_s": ("s", "lower"),
    "core.ricci_s": ("s", "lower"),
    "dhomothety.volume_check_s": ("s", "lower"),
    "dhomothety.ricci_check_s": ("s", "lower"),
    "quotient.analyze_calls": ("count", "lower"),
    "quotient.synthesize_calls": ("count", "lower"),
    "quotient.transform_s": ("s", "lower"),
    "quotient.geometry_s": ("s", "lower"),
    "functionals.report_s": ("s", "lower"),
    "functionals.calibrate_s": ("s", "lower"),
    "functionals.ij_check_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS + ("bench",)},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _count_rhs_rows(counters, args, _out):
    x = args[1]  # (self, x, a, mode): one row per point
    counters["rhs_rows"] += x.size // x.shape[-1]


def _count_result(counters, _args, result):
    if result.converged and result.distance:
        counters["results"] += 1


def _count_widen(counters, args, _out):
    model, _p, _q, cfg, t_max, A, round_id = args
    if round_id > 0 and t_max == cfg.resolved_t_max(model) and A > cfg.alpha0_max:
        counters["widened"] += 1


def _count_refine(counters, _args, out):
    counters["refine_rounds"] += out[5]


# methods that the metrics refer to by a short name
SHORT_NAMES = {
    "hamiltonian_rhs": "models.rhs",
    "project_state": "models.project",
    "S2Grid.analyze": "quotient.analyze",
    "S2Grid.synthesize": "quotient.synthesize",
}


def _public_methods(cls):
    for attr, obj in vars(cls).items():
        func = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
        if (not attr.startswith("_") and inspect.isfunction(func)
                and not getattr(func, "__isabstractmethod__", False)):
            yield attr


def targets():
    """(span name, owner, attribute, hook, fold) for everything the traced run wraps."""
    out = []
    for layer, mod in _MODULES.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                hook = _count_result if attr == "cc_distance" else None
                out.append((f"{layer}.{attr}", mod, attr, hook, layer == "numdiff"))
        for cname, cls in vars(mod).items():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__) or cname[0] == "_":
                continue
            is_model = issubclass(cls, core.SasakiModel)
            for attr in _public_methods(cls):
                if is_model:
                    name = SHORT_NAMES.get(attr, f"models.{attr}")
                else:
                    name = SHORT_NAMES.get(f"{cname}.{attr}", f"{layer}.{cname}.{attr}")
                hook = _count_rhs_rows if name == "models.rhs" else None
                out.append((name, cls, attr, hook, True))
    out += [
        ("cli.main", cli, "main", None, False),
        ("subriemannian.search", subriemannian, "_search_once", _count_widen, False),
        ("subriemannian.refine", subriemannian, "_refine_candidate", _count_refine, False),
    ]
    return out


def metrics(tracer, overhead_s):
    """Every per-layer metric from one traced phase."""
    totals = tracer.totals()
    c = tracer.counters

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def incl(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def self_s(*names):
        return sum(totals[n][2] for n in names if n in totals)

    numdiff_spans = [n for n in totals if n.startswith("numdiff.")]
    rhs_calls, rhs_rows = calls("models.rhs"), c["rhs_rows"]
    results = c["results"]
    values = {
        "models.rhs_calls": rhs_calls,
        "models.rhs_rows": rhs_rows,
        "models.rhs_rows_per_call": rhs_rows / rhs_calls if rhs_calls else 0.0,
        "models.rhs_s": incl("models.rhs"),
        "models.rhs_us_per_row": 1e6 * incl("models.rhs") / rhs_rows if rhs_rows else 0.0,
        "models.project_calls": calls("models.project"),
        "models.project_s": incl("models.project"),
        "subriemannian.search_calls": calls("subriemannian.search"),
        "subriemannian.search_s": incl("subriemannian.search"),
        "subriemannian.search_self_s": self_s("subriemannian.search"),
        "subriemannian.refine_rounds": c["refine_rounds"],
        "subriemannian.widened": c["widened"],
        # RK4 evaluates the right-hand side four times per row and step
        "subriemannian.rows_per_result": rhs_rows / 4.0 / results if results else 0.0,
        "subriemannian.diameter_s": incl("subriemannian.estimate_diameter"),
        "subriemannian.integrate_calls": calls("subriemannian.integrate_geodesic"),
        "subriemannian.integrate_s": incl("subriemannian.integrate_geodesic"),
        "variations.transport_s": incl("variations.transport_frame"),
        "variations.identities_s": incl("variations.check_variation_identities"),
        "variations.second_variation_s": incl("variations.second_variation"),
        "variations.certificate_s": incl("variations.myers_certificate"),
        "numdiff.calls": calls(*numdiff_spans),
        "numdiff.s": incl(*numdiff_spans),
        "core.verify_structure_s": incl("core.verify_structure"),
        "core.ricci_s": self_s(*RICCI_SPANS),
        "dhomothety.volume_check_s": incl("dhomothety.volume_scaling_check"),
        "dhomothety.ricci_check_s": incl("dhomothety.ricci_bound_check"),
        "quotient.analyze_calls": calls("quotient.analyze"),
        "quotient.synthesize_calls": calls("quotient.synthesize"),
        "quotient.transform_s": incl("quotient.analyze", "quotient.synthesize"),
        "quotient.geometry_s": incl("quotient.quotient_geometry"),
        "functionals.report_s": incl("functionals.functional_report"),
        "functionals.calibrate_s": incl("functionals.calibrate_scalar_trace"),
        "functionals.ij_check_s": incl("functionals.ij_derivative_check"),
        "cli.main_s": incl("cli.main"),
        **{f"{layer}.self_s": v for layer, v in tracer.layer_self().items()},
        "trace.wall_s": tracer.wall(),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
