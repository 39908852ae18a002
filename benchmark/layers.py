"""Per-layer metrics of a traced run, computed from the tracer's spans.

Each entry names the end-to-end metric it should move (see README.md).
  ms       mean wall time of one call, children included
  self_ms  the same minus the time of traced calls made inside it
  calls    calls per traced round
The phase restricts which spans count: "setup" (input generation, V bank,
warm-up), "round" (the timed operations) or None for both.
A metric is absent when none of the library functions it needs exists; it
then reads 0 and is listed as absent in the result file and on stderr.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from splinereg.regularizers_analytic import REGULARIZER_NAMES

# One entry point in a later version may serve all three callers.
PENALTY_ENTRY_POINTS = (
    "regularizers_analytic.penalty",
    "regularizers_analytic.penalty_parallel",
    "regularizers_analytic.weighted_value_and_gradient",
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    how: str
    spans: tuple
    phase: str | None


_HOW = {"_ms": "ms", "_self_ms": "self_ms", "_calls": "calls"}


def _layer(function: str, suffix: str, phase, spans=None) -> Layer:
    how = _HOW[suffix]
    unit = "count" if how == "calls" else "ms"
    return Layer(function + suffix, unit, how, tuple(spans or (function,)), phase)


SPAN_LAYERS = (
    _layer("bspline_core.sample_displacement", "_ms", "round"),
    _layer("bspline_core.sample_displacement", "_calls", "round"),
    _layer("bspline_core.scatter_separable", "_ms", "round"),
    _layer("bspline_core.scatter_separable", "_calls", "round"),
    _layer("bspline_core.axis_weight_matrix", "_ms", "round"),
    _layer("bspline_core.support_index_map", "_ms", "setup"),
    _layer("regularizers_analytic.build_vbank", "_ms", None),
    _layer("regularizers_analytic.penalty", "_self_ms", "round", PENALTY_ENTRY_POINTS),
    _layer("regularizers_analytic.penalty", "_calls", "round", PENALTY_ENTRY_POINTS),
    _layer("volume_io.trilinear_sample", "_ms", "round"),
    _layer("volume_io.trilinear_sample", "_calls", "round"),
    _layer("volume_io.warp_volume", "_ms", None),
    _layer("volume_io.make_phantom", "_ms", "setup"),
    _layer("volume_io.make_ground_truth_field", "_ms", "setup"),
    _layer("volume_io.box_downsample", "_ms", None),
    _layer("volume_io.read_grid", "_ms", "setup"),
    _layer("registration.mse_cost_grad", "_self_ms", "round"),
    _layer("registration.lbfgs", "_self_ms", "round", ("registration._lbfgs",)),
    _layer("registration.fit_grid_to_field", "_ms", "round"),
    _layer("field_metrics.jacobian_map", "_ms", None),
    _layer("field_metrics.warp_landmarks", "_ms", None),
)

# Computed in `collect` or by a workload; they read 0 on workloads that never
# reach the layer.
OTHER_LAYERS = {
    "splinereg.import_ms": "ms",
    "regularizers_analytic.ns_per_tile.grad": "ns",
    "regularizers_analytic.ns_per_tile.large": "ns",
    "regularizers_analytic.peak_alloc_mb": "MB",
    "registration.cost_evals": "count",
    "registration.accepted_iterations": "count",
    "registration.evals_per_iteration": "1",
    "registration.stage_s.1": "s",
    "registration.stage_s.2": "s",
    **{f"regularizers_numeric.fd_penalty_ms.{n}": "ms" for n in REGULARIZER_NAMES},
    "trace.overhead_pct": "%",
}


def span_metrics(tracer, traced_rounds: int) -> tuple:
    """(metrics, absent names) for the span-derived layers."""
    metrics, absent = {}, []
    for layer in SPAN_LAYERS:
        if not any(s in tracer.traced_names for s in layer.spans):
            absent.append(layer.name)
            metrics[layer.name] = (0.0, layer.unit)
        elif layer.how == "calls":
            count = len(tracer.select(layer.spans, layer.phase))
            metrics[layer.name] = (count / max(traced_rounds, 1), layer.unit)
        else:
            value = tracer.mean_ms(layer.spans, layer.phase, self_time=layer.how == "self_ms")
            metrics[layer.name] = (value, layer.unit)
    return metrics, absent


def registration_metrics(tracer, traced_rounds: int, accepted: float) -> tuple:
    """Cost evaluations made by the optimizer and the wall time of each stage."""
    metrics, absent = {}, []
    needed = ("registration.mse_cost_grad", "registration.optimize")
    if all(n in tracer.traced_names for n in needed):
        evals = sum(
            1 for i in tracer.select("registration.mse_cost_grad", "round")
            if tracer.has_ancestor(i, "registration.optimize")
        ) / max(traced_rounds, 1)
    else:
        absent += ["registration.cost_evals", "registration.evals_per_iteration"]
        evals = 0.0
    metrics["registration.cost_evals"] = (evals, "count")
    metrics["registration.evals_per_iteration"] = (evals / accepted if accepted else 0.0, "1")

    # a stage ends when its optimizer loop returns
    stages = [[], []]
    if "registration._lbfgs" in tracer.traced_names:
        for i in tracer.select("registration.optimize", "round"):
            start = tracer.spans[i].start
            ends = [s.end for s in tracer.spans if s.parent == i and s.name == "registration._lbfgs"]
            for n, end in enumerate(ends[:2]):
                stages[n].append(end - start)
                start = end
    else:
        absent += ["registration.stage_s.1", "registration.stage_s.2"]
    for n, values in enumerate(stages, start=1):
        metrics[f"registration.stage_s.{n}"] = (sum(values) / len(values) if values else 0.0, "s")
    return metrics, absent


def collect(workload, state, tracer, durations: dict, import_s: float) -> tuple:
    """(every per-layer metric, absent names) of a traced run."""
    traced_rounds = len(durations[True])
    metrics, absent = span_metrics(tracer, traced_rounds)
    metrics.update({name: (0.0, unit) for name, unit in OTHER_LAYERS.items()})
    metrics["splinereg.import_ms"] = (1e3 * import_s, "ms")
    extras = workload.layer_extras(state, tracer)
    metrics.update(extras)
    reg_metrics, reg_absent = registration_metrics(
        tracer, traced_rounds, extras.get("registration.accepted_iterations", (0.0,))[0]
    )
    metrics.update(reg_metrics)
    plain = statistics.median(durations[False])
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(durations[True]) - plain) / plain, "%")
    return metrics, absent + reg_absent
