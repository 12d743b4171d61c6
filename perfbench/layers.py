"""What the traced run wraps, and the per-layer metrics derived from its spans.

Layers are the ``passivenet`` modules.  Each traced function is wrapped
under every name that binds it (see ``tracer``); ``numpy.linalg.eigvals``
and ``numpy.linalg.svd`` are traced as kernels attributed to their caller.

A per-layer time is reported in seconds (``.self_s``) when every workload
calls that function, and otherwise as its share of the traced iteration's
wall time (``.self_frac``), which is exactly 0 on a workload that bypasses
the layer.  Counts are per iteration and repeat exactly.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import numpy as np

from passivenet import (core, feedback, loewner, passivity, pipelines, secondorder,
                        simulate, transforms, websterfem)

from tracer import FunctionStats, Target

import workloads


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _shape(args, kwargs, result) -> dict:
    return {"shape": list(np.shape(_arg(args, kwargs, 0, "a")))}


def _steps(args, kwargs, result) -> dict:
    attrs = {"steps": int(np.shape(_arg(args, kwargs, 1, "inputs"))[0])}
    if isinstance(result, tuple):
        _, balance, states = result
        scale = float(np.einsum("ij,ij->i", states, states).max())
        attrs["energy_defect_max"] = workloads.energy_defect_max(balance, scale)
    return attrs


def _points(args, kwargs, result) -> dict:
    return {"points": int(result.ok.size), "gated": int((~result.ok).sum())}


def _dofs(args, kwargs, result) -> dict:
    return {"dofs": int(result.mass.shape[0])}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _verdict(args, kwargs, result) -> dict:
    if isinstance(result, tuple):       # properly_impedance_passive: (flag, margin)
        return {}
    return {"verdict": result.verdict, "margin": result.margin}


_FUNCTIONS = {
    core: ["transfer_function"],
    passivity: ["impedance_certificate", "discrete_impedance_certificate",
                "discrete_scattering_certificate", "scattering_passive_via_cayley",
                "properly_impedance_passive"],
    transforms: ["internal_cayley", "external_cayley", "inverse_external_cayley"],
    feedback: ["star_of_impedance_pair", "star_product"],
    secondorder: ["first_order_realization"],
    websterfem: ["assemble"],
    loewner: ["default_scheme", "piston_impedance", "sample_function",
              "loewner_matrices", "realify", "reduce_order"],
    simulate: ["frequency_response", "step_response", "resonances",
               "excitation_signal", "write_response_csv", "write_timeseries_csv"],
    pipelines: ["waveguide_compose", "waveguide_report", "butterworth_compose",
                "butterworth_sparams"],
}

_ATTRS = {"simulate.step_response": _steps, "simulate.frequency_response": _points,
          "websterfem.assemble": _dofs, "simulate.write_response_csv": _file_bytes,
          "simulate.write_timeseries_csv": _file_bytes}
_ATTRS.update({f"passivity.{fn}": _verdict for fn in _FUNCTIONS[passivity]})


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def trace_targets() -> list[Target]:
    """Every public function the traced run wraps, plus the two kernels."""
    targets = []
    for module, names in _FUNCTIONS.items():
        for fn in names:
            name = f"{_layer(module)}.{fn}"
            targets.append(Target(name, module, fn, attrs=_ATTRS.get(name)))
    targets += [Target("linalg.eigvals", np.linalg, "eigvals", kernel=True, attrs=_shape),
                Target("linalg.svd", np.linalg, "svd", kernel=True, attrs=_shape)]
    return targets


def stage_targets(wl) -> list[Target]:
    """The calls an untraced run times: compose, sweep and stepping."""
    wanted = {wl.compose_span, wl.sweep_span, wl.step_span}
    return [replace(t, attrs=None) for t in trace_targets() if t.name in wanted]


def namespaces() -> list:
    """Every loaded passivenet module: the places a traced name can be bound."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "passivenet" or name.startswith("passivenet.")]


# metric prefix -> the span names it aggregates
GROUPS = {
    "core.transfer_function": ["core.transfer_function"],
    "simulate.frequency_response": ["simulate.frequency_response"],
    "simulate.step_response": ["simulate.step_response"],
    "simulate.resonances": ["simulate.resonances"],
    "simulate.excitation_signal": ["simulate.excitation_signal"],
    "simulate.write_csv": ["simulate.write_response_csv", "simulate.write_timeseries_csv"],
    "pipelines.compose": ["pipelines.waveguide_compose", "pipelines.butterworth_compose"],
    "pipelines.butterworth_sparams": ["pipelines.butterworth_sparams"],
    "websterfem.assemble": ["websterfem.assemble"],
    "secondorder.first_order_realization": ["secondorder.first_order_realization"],
    "loewner.default_scheme": ["loewner.default_scheme"],
    "loewner.piston_impedance": ["loewner.piston_impedance"],
    "loewner.sample_function": ["loewner.sample_function"],
    "loewner.reduce": ["loewner.loewner_matrices", "loewner.realify", "loewner.reduce_order"],
    "feedback.star_of_impedance_pair": ["feedback.star_of_impedance_pair"],
    "feedback.star_product": ["feedback.star_product"],
    "transforms.internal_cayley": ["transforms.internal_cayley"],
    "transforms.external_cayley": ["transforms.external_cayley",
                                   "transforms.inverse_external_cayley"],
    "passivity.certify": [f"passivity.{fn}" for fn in _FUNCTIONS[passivity]],
    "linalg.eigvals": ["linalg.eigvals"],
    "linalg.svd": ["linalg.svd"],
}

# (name, unit, better); the order is the order they are printed in
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("core.transfer_function.calls", "count", "lower"),
    ("core.transfer_function.self_frac", "1", "lower"),
    ("simulate.frequency_response.self_frac", "1", "lower"),
    ("simulate.frequency_response.gated_frac", "1", "lower"),
    ("simulate.step_response.self_frac", "1", "lower"),
    ("simulate.step_response.steps", "count", "lower"),
    ("simulate.resonances.self_frac", "1", "lower"),
    ("simulate.excitation_signal.self_frac", "1", "lower"),
    ("simulate.write_csv.self_frac", "1", "lower"),
    ("simulate.write_csv.bytes", "B", "lower"),
    ("simulate.energy_defect_max", "1", "lower"),
    ("pipelines.compose.self_s", "s", "lower"),
    ("pipelines.butterworth_sparams.self_frac", "1", "lower"),
    ("websterfem.assemble.self_frac", "1", "lower"),
    ("websterfem.assemble.dofs", "count", "lower"),
    ("secondorder.first_order_realization.self_frac", "1", "lower"),
    ("loewner.default_scheme.self_frac", "1", "lower"),
    ("loewner.piston_impedance.calls", "count", "lower"),
    ("loewner.piston_impedance.self_frac", "1", "lower"),
    ("loewner.sample_function.self_frac", "1", "lower"),
    ("loewner.reduce.self_frac", "1", "lower"),
    ("loewner.sv_ratio", "1", "lower"),
    ("feedback.star_of_impedance_pair.self_s", "s", "lower"),
    ("feedback.star_product.calls", "count", "lower"),
    ("feedback.star_product.self_s", "s", "lower"),
    ("transforms.internal_cayley.self_s", "s", "lower"),
    ("transforms.external_cayley.self_s", "s", "lower"),
    ("passivity.certify.calls", "count", "lower"),
    ("passivity.certify.self_s", "s", "lower"),
    ("passivity.not_passive", "count", "lower"),
    ("linalg.eigvals.calls", "count", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
]


def _group(stats: dict, names: list) -> FunctionStats:
    total = FunctionStats()
    for name in names:
        st = stats.get(name)
        if st is not None:
            total.calls += st.calls
            total.self_s += st.self_s
            total.total_s += st.total_s
    return total


def iteration_metrics(stats: dict, spans: list, wall: float) -> dict:
    """Per-layer values of one traced iteration (before medians are taken).

    ``spans`` are the iteration's own spans, for attributes recorded on them.
    """
    values = {}
    for prefix, names in GROUPS.items():
        g = _group(stats, names)
        values[f"{prefix}.calls"] = g.calls
        values[f"{prefix}.self_s"] = g.self_s
        values[f"{prefix}.self_frac"] = g.self_s / wall

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    points = attr_sum("simulate.frequency_response", "points")
    values["simulate.frequency_response.gated_frac"] = (
        attr_sum("simulate.frequency_response", "gated") / points if points else 0.0)
    values["simulate.step_response.steps"] = attr_sum("simulate.step_response", "steps")
    values["simulate.write_csv.bytes"] = (attr_sum("simulate.write_response_csv", "bytes")
                                          + attr_sum("simulate.write_timeseries_csv", "bytes"))
    values["websterfem.assemble.dofs"] = attr_sum("websterfem.assemble", "dofs")
    defects = [s.attrs["energy_defect_max"] for s in spans
               if "energy_defect_max" in s.attrs]
    values["simulate.energy_defect_max"] = max(defects) if defects else 0.0
    values["passivity.not_passive"] = sum(
        1 for s in spans if s.name.startswith("passivity.")
        and s.attrs.get("verdict") == passivity.NOT_PASSIVE)
    return values
