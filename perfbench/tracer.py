"""Outside-in tracing of one powerlimits pass.

The program is not instrumented.  Instead, :func:`traced` replaces each
layer function at the site where its caller looks it up: the modules bind
names with ``from ... import ...``, so patching the home module would miss
the calls.  The sites are the public function attributes of
``experiments``, ``samplers``, ``stats``, ``torus`` and ``preimage``
(which covers ``experiments.power_batch``, ``samplers.haar_batch``,
``stats.fourier_sums``, ``torus.trig_poly_values`` and the like), the
``sample_batch`` methods of the law classes, ``FourierDensity.sample``,
the report serializers, and ``cli.run_experiment``.  A span is named after
the function's home module, so ``stats.fourier_sums`` records as
``kernels.fourier_sums`` (the leading underscore of ``_kernels`` is
dropped to keep metric names valid).

Spans stay in memory as ``[name, start, end, parent, counts]`` and are
written out by the caller at the end.  A span's self time is its duration
minus the durations of its direct children; the pass is single-threaded,
so children nest strictly.  Work counts are computed from argument and
result shapes after the span has ended, inside a ``trace.measure`` span
that is subtracted from the parent's self time like any other child.

No layer waits on another: the pass runs on one thread with no queue, and
BLAS threads are joined inside each call, so no wait metric is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics as st
import types
from collections import Counter, defaultdict
from time import perf_counter

from powerlimits import cli, experiments, preimage, samplers, stats, torus
from powerlimits.groups import unitarity_defect


def _matmuls(out, a):
    m = int(a["m"])
    return {"matmuls": len(out) * (m.bit_length() - 1 + bin(m).count("1")),
            "max_defect": unitarity_defect(out)}


# Work counts per span name, from the bound arguments ``a`` and the result.
COUNTS = {
    "kernels.fourier_sums": lambda out, a: {"terms": len(a["angles"]) * len(a["lattice"])},
    "kernels.trig_poly_values": lambda out, a: {"terms": len(a["points"]) * len(a["lattice"]),
                                                "points": len(a["points"])},
    "kernels.fold_grid": lambda out, a: {"bytes": 8 * a["values"].size + out.nbytes},
    "groups.haar_batch": lambda out, a: {"matrices": int(a["size"])},
    "groups.eigenangles_batch": lambda out, a: {"matrices": len(a["mats"])},
    "groups.power_batch": _matmuls,
    "preimage.preimages_batch": lambda out, a: {"rows": len(a["mats"])},
    "preimage.uniform_torus_rows": lambda out, a: {
        "rows_dropped": len(a["eigenangle_rows"]) - len(out)},
    "samplers.sample_batch": lambda out, a: {"draws": len(out)},
    "torus.FourierDensity.sample": lambda out, a: {"rows": out.size},
    "torus.sample_grid": lambda out, a: {"draws": out.size},
    "stats.empirical_fourier_many": lambda out, a: {"statistics": len(out)},
}

# Functions whose self time and call count are reported, with the counts
# reported beside them.
REPORTED = {
    "cli.main": (),
    "experiments.run_experiment": (),
    "experiments.report_serialize": (),
    "samplers.sample_batch": ("draws",),
    "groups.haar_batch": ("matrices",),
    "groups.power_batch": ("matmuls", "max_defect"),
    "groups.eigenangles_batch": ("matrices",),
    "groups.embed_batch": (),
    "preimage.preimages_batch": ("rows", "errors"),
    "preimage.uniform_torus_rows": ("rows_dropped",),
    "preimage.limit_law_batch": (),
    "torus.FourierDensity.sample": (),
    "torus.to_grid": (),
    "torus.grid_pushforward": (),
    "torus.fourier_pushforward": (),
    "torus.sample_grid": ("draws",),
    "torus.power_angles": (),
    "torus.random_fourier_density": (),
    "kernels.fourier_sums": ("terms",),
    "kernels.trig_poly_values": ("terms",),
    "kernels.fold_grid": ("bytes",),
    "stats.empirical_fourier_many": ("statistics",),
    "stats.trace_moments": (),
    "stats.entry_moments": (),
    "stats.two_sample_test": (),
    "stats.coefficient_bound_test": (),
}

COUNT_UNITS = {"bytes": "B", "max_defect": "1"}

# Metrics derived from several spans, or from the pass as a whole.
DERIVED = {
    "torus.FourierDensity.sample.accept_ratio": ("ratio", "higher"),
    "samplers.perturbed_haar.accept_ratio": ("ratio", "higher"),
    "samplers.perturbed_haar.rounds": ("count", "lower"),
    "experiments.rows": ("count", "lower"),
    "experiments.alarm_rows": ("count", "lower"),
    "experiments.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name with its (unit, better) pair."""
    out = {}
    for name, counts in REPORTED.items():
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.calls"] = ("count", "lower")
        for c in counts:
            out[f"{name}.{c}"] = (COUNT_UNITS.get(c, "count"),
                                  "higher" if c == "draws" else "lower")
    out.update(DERIVED)
    return out


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1].lstrip("_")


class Recorder:
    """Spans of one pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, counted_as: str | None = None):
        """``fn`` recording one span named ``name`` per call, with the work
        counts of ``COUNTS[counted_as or name]``."""
        spans, stack = self.spans, self._stack
        count = COUNTS.get(counted_as or name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = {"errors": 1}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                measure = ["trace.measure", perf_counter(), 0.0, parent, None]
                spans.append(measure)
                span[4] = count(result, signature.bind(*args, **kwargs).arguments)
                measure[2] = perf_counter()
            return result

        return traced_call

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self, wall: float) -> dict:
        """Per-layer values of this pass (without the report-level rows)."""
        self_s = self.self_times()
        values = defaultdict(float)
        calls = Counter()
        names = [s[0] for s in self.spans]
        perturbed_rows = proposals = rounds = density_rows = density_points = 0
        for i, (name, _, _, parent, counts) in enumerate(self.spans):
            counts = counts or {}
            values[f"{name}.self_s"] += self_s[i]
            calls[name] += 1
            for key, v in counts.items():
                key = f"{name}.{key}"
                values[key] = max(values[key], v) if key.endswith("max_defect") else values[key] + v
            owner = names[parent] if parent >= 0 else None
            if name == "groups.haar_batch" and owner == "samplers.PerturbedHaarLaw.sample_batch":
                rounds += 1
                proposals += counts.get("matrices", 0)
            elif name == "kernels.trig_poly_values" and owner == "torus.FourierDensity.sample":
                density_points += counts.get("points", 0)
            elif name == "samplers.PerturbedHaarLaw.sample_batch":
                perturbed_rows += counts.get("draws", 0)
            elif name == "torus.FourierDensity.sample":
                density_rows += counts.get("rows", 0)
        # the law classes record separately; report them as one sampler layer
        for name in list(calls):
            if name.startswith("samplers.") and name.endswith(".sample_batch"):
                calls["samplers.sample_batch"] += calls[name]
                for key in ("self_s", "draws"):
                    values[f"samplers.sample_batch.{key}"] += values[f"{name}.{key}"]
        for name, n in calls.items():
            values[f"{name}.calls"] = n
        values["samplers.perturbed_haar.rounds"] = rounds
        values["samplers.perturbed_haar.accept_ratio"] = perturbed_rows / proposals if proposals else 0.0
        values["torus.FourierDensity.sample.accept_ratio"] = (
            density_rows / density_points if density_points else 0.0)
        values["experiments.unattributed_s"] = wall - sum(self_s)
        return values

    def draws(self) -> int:
        """Rows returned by the workload's law samplers in this pass."""
        v = self.summary(0.0)
        return int(v["samplers.sample_batch.draws"] + v["torus.sample_grid.draws"])


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Route every layer call site through ``recorder`` for the duration."""
    patched = []

    def patch(owner, attr, name, counted_as=None):
        original = owner.__dict__[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original, counted_as))

    for module in (experiments, samplers, stats, torus, preimage):
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("powerlimits.")):
                patch(module, attr, f"{_layer(obj)}.{obj.__name__}")
    for law in vars(samplers).values():
        if isinstance(law, type) and "sample_batch" in law.__dict__:
            patch(law, "sample_batch", f"samplers.{law.__name__}.sample_batch",
                  "samplers.sample_batch")
    patch(torus.FourierDensity, "sample", "torus.FourierDensity.sample")
    patch(experiments.ExperimentReport, "to_json", "experiments.report_serialize")
    patch(experiments.ExperimentReport, "to_csv", "experiments.report_serialize")
    patch(cli, "run_experiment", "experiments.run_experiment")
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def median_metrics(passes: list) -> dict:
    """Median of each per-layer value over the traced passes."""
    keys = set().union(*passes)
    return {k: st.median(p.get(k, 0.0) for p in passes) for k in keys}
