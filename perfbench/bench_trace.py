"""Spans around calls into pqharmonic's public functions, for the traced run.

``Tracer.install`` replaces each traced function with a wrapper in its own
module and under every name another pqharmonic module bound to it with
``from ... import`` (``solver.density_from_jets`` for example), so no call
goes around the trace. Recursive calls (``serialize.dumps``, ``jet_batch``
through ``Rescaled``) become nested spans. Spans stay in memory until the
run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op_id: int | None
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _family(section) -> str:
    return {
        "Hopf": "hopf", "ConformalGradient": "conformal",
        "LinearAmbient": "linear", "Rescaled": "scaled",
    }.get(type(section).__name__, "other")


def _nbytes(jets) -> int:
    return sum(getattr(v, "nbytes", 0) for v in vars(jets).values())


def _steps(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments["steps"]


# (module, function, attributes taken before the call, attributes after it)
def _targets(mods) -> list:
    tell = (lambda args, kwargs: {"pos": args[1].tell()},
            lambda args, kwargs, result, before: {"bytes": args[1].tell() - before["pos"]})
    sweep = lambda fn: (
        lambda args, kwargs: {"steps": _steps(fn)(args, kwargs)},
        lambda args, kwargs, result, before: {**before, "roots": len(result.roots)},
    )
    return [
        ("geometry", "make_quadrature", None,
         lambda args, kwargs, result, before: {"points": result.n_points}),
        ("geometry", "frame_batch", None, None),
        ("geometry", "geodesic_batch", None, None),
        ("geometry", "transport_batch", None, None),
        ("sections", "jet_batch",
         lambda args, kwargs: {"family": _family(args[0]), "points": args[2].shape[0]},
         lambda args, kwargs, result, before: {**before, "bytes_out": _nbytes(result)}),
        ("sections", "derivative_batch", None, None),
        ("energy", "density_from_jets", None, None),
        ("energy", "energy", None, None),
        ("variational", "residual_from_jets", None, None),
        ("variational", "first_variation", None, None),
        ("solver", "scale_sweep", *sweep(mods["solver"].scale_sweep)),
        ("solver", "conformal_axis_sweep", *sweep(mods["solver"].conformal_axis_sweep)),
        ("regions", "export_region_grid", None,
         lambda args, kwargs, result, before: {"cells": len(result)}),
        ("regions", "region_grid_to_csv", *tell),
        ("regions", "region_grid_to_svg", *tell),
        ("serialize", "dumps", None,
         lambda args, kwargs, result, before: {"bytes": len(result)}),
        ("cli", "main", None, None),
    ]


TRACED_MODULES = ("geometry", "sections", "energy", "variational", "solver",
                  "regions", "serialize", "cli")


class Tracer:
    """Collects spans while ``enabled``; ``op_id`` tags the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"pqharmonic.{m}") for m in TRACED_MODULES}
        package = [mod for name, mod in sys.modules.items()
                   if name == "pqharmonic" or name.startswith("pqharmonic.")]
        for mod_name, fn_name, before, after in _targets(mods):
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, before, after)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, span_name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else {}
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, tracer.op_id, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_time += span.duration
            span.attrs = after(args, kwargs, result, pre) if after else pre
            return result

        return wrapper

    def outermost(self, span: Span) -> bool:
        """True unless the span is a recursive call of the same function."""
        return span.parent is None or self.spans[span.parent].name != span.name

    def ancestors(self, span: Span):
        index = span.parent
        while index is not None:
            yield self.spans[index]
            index = self.spans[index].parent


FAMILIES = ("hopf", "conformal", "linear", "scaled", "other")
SWEEPS = ("solver.scale_sweep", "solver.conformal_axis_sweep")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("geometry.make_quadrature.calls", "count"), ("geometry.make_quadrature.self_ms", "ms"),
     ("geometry.make_quadrature.points", "count"),
     ("geometry.frame_batch.calls", "count"), ("geometry.frame_batch.self_ms", "ms"),
     ("geometry.geodesic_batch.calls", "count"), ("geometry.transport_batch.calls", "count")]
    + [(f"sections.jet_batch.{fam}.{what}", unit)
       for fam in FAMILIES
       for what, unit in (("calls", "count"), ("self_ms", "ms"), ("points", "count"),
                          ("bytes_out", "bytes"))]
    + [("sections.jet_batch.linear_scaled_share", "ratio"),
       ("sections.derivative_batch.calls", "count"), ("sections.derivative_batch.self_ms", "ms"),
       ("energy.density_from_jets.calls", "count"), ("energy.density_from_jets.self_ms", "ms"),
       ("energy.energy.self_ms", "ms"),
       ("variational.residual_from_jets.calls", "count"),
       ("variational.residual_from_jets.self_ms", "ms"),
       ("variational.first_variation.calls", "count"),
       ("variational.first_variation.self_ms", "ms"),
       ("solver.sweep.self_ms", "ms"), ("solver.residual_evals_per_sweep", "count"),
       ("solver.energy_evals_per_sweep", "count"), ("solver.evals_per_step.s50", "ratio"),
       ("solver.evals_per_step.s200", "ratio"), ("solver.roots_found", "count"),
       ("regions.export_region_grid.self_ms", "ms"), ("regions.export_region_grid.cells", "count"),
       ("regions.region_grid_to_csv.self_ms", "ms"), ("regions.region_grid_to_csv.bytes", "bytes"),
       ("regions.region_grid_to_svg.self_ms", "ms"), ("regions.region_grid_to_svg.bytes", "bytes"),
       ("serialize.dumps.calls", "count"), ("serialize.dumps.self_ms", "ms"),
       ("serialize.dumps.bytes", "bytes"), ("cli.main.self_ms", "ms"),
       ("trace.overhead_ratio", "ratio"),
       ("defects.failed", "count"), ("defects.fail_ratio", "ratio")]
)

# counts that must be nonzero on the workload that exercises the layer
REQUIRED_NONZERO = {
    "survey": (
        "geometry.make_quadrature.calls", "geometry.frame_batch.calls",
        "geometry.geodesic_batch.calls", "geometry.transport_batch.calls",
        *(f"sections.jet_batch.{fam}.calls" for fam in FAMILIES),
        "sections.derivative_batch.calls", "energy.density_from_jets.calls",
        "variational.residual_from_jets.calls", "variational.first_variation.calls",
        "serialize.dumps.calls",
    ),
    "sweep": (
        "geometry.make_quadrature.calls", "sections.jet_batch.hopf.calls",
        "sections.jet_batch.conformal.calls", "energy.density_from_jets.calls",
        "variational.residual_from_jets.calls", "solver.residual_evals_per_sweep",
        "solver.energy_evals_per_sweep", "solver.evals_per_step.s50",
        "solver.evals_per_step.s200", "solver.roots_found", "serialize.dumps.calls",
    ),
    "regions": (
        "regions.export_region_grid.cells", "regions.region_grid_to_csv.bytes",
        "regions.region_grid_to_svg.bytes",
    ),
}

# layers a workload bypasses: every count under these prefixes must stay zero
REQUIRED_ZERO = {"regions": ("sections.", "variational.", "solver.", "energy.")}


def per_layer_values(tracer: Tracer, linear_scaled_ops: set[int]) -> dict[str, float]:
    """Per-layer totals over the traced spans: counts, and self times in ms."""
    values = {name: 0.0 for name, _ in PER_LAYER}

    def add(key: str, amount: float) -> None:
        values[key] += amount

    sweeps = {steps: [0, 0] for steps in (50, 200)}  # steps -> [sweeps, evals]
    sweep_evals = {"variational.residual_from_jets": 0, "energy.density_from_jets": 0}
    n_sweeps = 0
    # time inside outermost linear/scaled jet_batch calls, FD children included,
    # and the total time of the operations on linear or scaled fields
    share = [0.0, 0.0]
    for span in tracer.spans:
        name, self_ms = span.name, 1e3 * span.self_time
        if name == "sections.jet_batch":
            prefix = f"sections.jet_batch.{span.attrs['family']}"
            add(f"{prefix}.calls", 1)
            add(f"{prefix}.self_ms", self_ms)
            add(f"{prefix}.points", span.attrs["points"])
            add(f"{prefix}.bytes_out", span.attrs.get("bytes_out", 0))
            if (tracer.outermost(span) and span.op_id in linear_scaled_ops
                    and span.attrs["family"] in ("linear", "scaled")):
                share[0] += span.duration
        elif name in SWEEPS:
            n_sweeps += 1
            add("solver.sweep.self_ms", self_ms)
            add("solver.roots_found", span.attrs.get("roots", 0))
            if span.attrs["steps"] in sweeps:
                sweeps[span.attrs["steps"]][0] += 1
        else:
            for what in ("calls", "self_ms", "points", "cells", "bytes"):
                key = f"{name}.{what}"
                if key not in values:
                    continue
                if what == "calls":
                    add(key, 1)
                elif what == "self_ms":
                    add(key, self_ms)
                elif what == "bytes" and name == "serialize.dumps":
                    # only the outermost call: nested calls' text is part of it
                    if tracer.outermost(span):
                        add(key, span.attrs["bytes"])
                else:
                    add(key, span.attrs[what])
        if name == "cli.main" and span.op_id in linear_scaled_ops:
            share[1] += span.duration
        if name in sweep_evals:
            sweep = next((a for a in tracer.ancestors(span) if a.name in SWEEPS), None)
            if sweep is not None:
                sweep_evals[name] += 1
                if sweep.attrs["steps"] in sweeps:
                    sweeps[sweep.attrs["steps"]][1] += 1
    if n_sweeps:
        values["solver.residual_evals_per_sweep"] = sweep_evals["variational.residual_from_jets"] / n_sweeps
        values["solver.energy_evals_per_sweep"] = sweep_evals["energy.density_from_jets"] / n_sweeps
    for steps, (count, evals) in sweeps.items():
        if count:
            values[f"solver.evals_per_step.s{steps}"] = evals / (steps * count)
    if share[1]:
        values["sections.jet_batch.linear_scaled_share"] = share[0] / share[1]
    return values


def layer_problems(workload: str, values: dict[str, float]) -> list[str]:
    """Counts that contradict which layers the workload exercises."""
    problems = [f"{name} is zero" for name in REQUIRED_NONZERO[workload] if not values[name]]
    for prefix in REQUIRED_ZERO.get(workload, ()):
        problems += [f"{name} = {values[name]} on a workload that bypasses it"
                     for name, unit in PER_LAYER
                     if name.startswith(prefix) and unit == "count" and values[name]]
    return problems
