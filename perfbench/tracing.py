"""Spans around the calls the package's modules make across layers.

The benchmark installs wrappers on module attributes for the duration of a
traced pass: the names ``cli`` resolves in ``config``, ``experiments`` in
``photons``, ``fitting`` and ``dynamics``, and ``photons``/``fitting`` in
``physics``.  Nothing in the package changes.  Each span records its name,
its parent span, and its start and end; a layer's self time is a span's
duration minus the part its child spans cover.  A wrapped name the package
no longer has is skipped, so its metric reads 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span ``name``; ``count(tracer, arguments,
        result)`` then reads counters from the bound arguments and result."""
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, parent, perf_counter(), 0.0])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _count_histogram(tracer, arguments, hist):
    tracer.counters["photons.counts"] += int(hist.total_counts)


def _count_arrivals(tracer, arguments, stream):
    # Candidates proposed: the Poisson mean rate_max * gate_time, computed
    # from the call's arguments, not counted inside the sampler.
    if arguments.get("rate_max") is not None:
        tracer.counters["photons.proposed"] += arguments["rate_max"] * arguments["gate_time"]
    tracer.counters["photons.accepted"] += len(stream)


def _count_rate_points(tracer, arguments, rate):
    tracer.counters["physics.rate_points"] += int(np.size(arguments["t"]))


def _count_fit(tracer, arguments, result):
    tracer.counters["fitting.fits"] += 1
    tracer.counters["fitting.nfev"] += result.iterations
    tracer.counters["fitting.unconverged"] += not result.converged
    n_free = len(result.params.as_array()) - len(result.frozen)
    dof = max(len(arguments["hist"].counts) - n_free, 1)
    tracer.samples["fitting.reduced_chi2"].append(result.residual / dof)


def _count_phase_steps(tracer, arguments, result):
    _, psi = result
    tracer.counters["dynamics.phase_steps"] += (psi.shape[0] - 1) * psi.shape[1]


def _count_quadrature_steps(tracer, arguments, path):
    tracer.counters["dynamics.quadrature_steps"] += len(path.x) - 1


# (module, attribute, span name, counter).  The span name's first part is
# the layer its self time is charged to; record writes are charged to cli.
TARGETS = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "_atomic_write_text", "cli.write_text", None),
    ("cli", "_campaign_svg", "cli.write_svg", None),
    ("experiments", "persist_run", "cli.persist_run", None),
    ("experiments", "run_campaign", "experiments.run_campaign", None),
    ("experiments", "make_run_record", "experiments.make_run_record", None),
    ("experiments", "amplitude_sweep", "experiments.amplitude_sweep", None),
    ("experiments", "sensitivity_campaign", "experiments.sensitivity_campaign", None),
    ("experiments", "squeeze_sweep", "experiments.squeeze_sweep", None),
    ("experiments", "lower_bound_search", "experiments.lower_bound_search", None),
    ("experiments", "synthesize_histogram", "photons.synthesize_histogram", _count_histogram),
    ("photons", "sample_arrivals", "photons.sample_arrivals", _count_arrivals),
    ("photons", "detect", "photons.detect", None),
    ("photons", "apply_time_jitter", "photons.apply_time_jitter", None),
    ("photons", "tac_fold", "photons.tac_fold", None),
    # synthesize_histogram imports the rate from physics at call time;
    # fitting bound the name at import.
    ("physics", "total_scattering_rate", "physics.total_scattering_rate", _count_rate_points),
    ("fitting", "total_scattering_rate", "physics.total_scattering_rate", _count_rate_points),
    ("experiments", "initial_guess", "fitting.initial_guess", None),
    ("experiments", "chain_init_params", "fitting.chain_init_params", None),
    ("experiments", "fit_histogram", "fitting.fit_histogram", _count_fit),
    ("fitting", "model_curve", "fitting.model_curve", None),
    ("experiments", "_locked_phase_ensemble", "dynamics.locked_phase", _count_phase_steps),
    ("experiments", "detect_lock", "dynamics.detect_lock", None),
    ("experiments", "integrate_quadratures", "dynamics.integrate_quadratures", _count_quadrature_steps),
)


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    try:
        for module_name, attribute, span, count in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attribute, None)
            if callable(fn):
                originals.append((module, attribute, fn))
                setattr(module, attribute, tracer.wrap(span, fn, count))
        yield tracer
    finally:
        for module, attribute, fn in reversed(originals):
            setattr(module, attribute, fn)


# Per-layer metric -> (unit, better).  cli.bytes_written and
# trace.overhead_s are measured by the runner, not by spans.
LAYER_METRICS = {
    "experiments.self_s": ("s", "lower"),
    "experiments.calls": ("count", "lower"),
    "photons.synthesize_s": ("s", "lower"),
    "photons.synthesize_calls": ("count", "lower"),
    "photons.sample_arrivals_s": ("s", "lower"),
    "photons.detect_s": ("s", "lower"),
    "photons.jitter_s": ("s", "lower"),
    "photons.fold_s": ("s", "lower"),
    "photons.proposed": ("count", "lower"),
    "photons.accepted": ("count", "higher"),
    "photons.acceptance": ("fraction", "higher"),
    "photons.counts": ("count", "higher"),
    "fitting.initial_guess_s": ("s", "lower"),
    "fitting.fit_s": ("s", "lower"),
    "fitting.model_curve_s": ("s", "lower"),
    "fitting.model_curve_calls": ("count", "lower"),
    "fitting.nfev": ("count", "lower"),
    "fitting.fits": ("count", "higher"),
    "fitting.unconverged": ("count", "lower"),
    "fitting.reduced_chi2_p50": ("chi2/dof", "lower"),
    "dynamics.locked_phase_s": ("s", "lower"),
    "dynamics.locked_phase_calls": ("count", "lower"),
    "dynamics.phase_steps": ("count", "lower"),
    "dynamics.detect_lock_s": ("s", "lower"),
    "dynamics.detect_lock_calls": ("count", "lower"),
    "dynamics.quadratures_s": ("s", "lower"),
    "dynamics.quadrature_steps": ("count", "lower"),
    "physics.rate_s": ("s", "lower"),
    "physics.rate_points": ("count", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.record_write_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_INCLUSIVE = {
    "photons.synthesize_s": "photons.synthesize_histogram",
    "photons.sample_arrivals_s": "photons.sample_arrivals",
    "photons.detect_s": "photons.detect",
    "photons.jitter_s": "photons.apply_time_jitter",
    "photons.fold_s": "photons.tac_fold",
    "fitting.initial_guess_s": "fitting.initial_guess",
    "fitting.fit_s": "fitting.fit_histogram",
    "fitting.model_curve_s": "fitting.model_curve",
    "dynamics.locked_phase_s": "dynamics.locked_phase",
    "dynamics.detect_lock_s": "dynamics.detect_lock",
    "dynamics.quadratures_s": "dynamics.integrate_quadratures",
    "physics.rate_s": "physics.total_scattering_rate",
    "config.load_s": "config.load_config",
}

_CALLS = {
    "photons.synthesize_calls": "photons.synthesize_histogram",
    "fitting.model_curve_calls": "fitting.model_curve",
    "dynamics.locked_phase_calls": "dynamics.locked_phase",
    "dynamics.detect_lock_calls": "dynamics.detect_lock",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass."""
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    for (name, _, start, end), own in zip(tracer.spans, self_times(tracer.spans)):
        layer = name.split(".", 1)[0]
        inclusive[name] += end - start
        calls[name] += 1
        layer_self[layer] += own
        layer_calls[layer] += 1
    c = tracer.counters
    metrics = {key: inclusive[name] for key, name in _INCLUSIVE.items()}
    metrics.update({key: calls[name] for key, name in _CALLS.items()})
    chi2 = tracer.samples["fitting.reduced_chi2"]
    metrics.update(
        {
            "experiments.self_s": layer_self["experiments"],
            "experiments.calls": layer_calls["experiments"],
            # cli spans wrap only file writes and have no traced children.
            "cli.record_write_s": layer_self["cli"],
            "photons.proposed": c["photons.proposed"],
            "photons.accepted": c["photons.accepted"],
            "photons.acceptance": (
                c["photons.accepted"] / c["photons.proposed"] if c["photons.proposed"] else 0.0
            ),
            "photons.counts": c["photons.counts"],
            "fitting.nfev": c["fitting.nfev"],
            "fitting.fits": c["fitting.fits"],
            "fitting.unconverged": c["fitting.unconverged"],
            "fitting.reduced_chi2_p50": statistics.median(chi2) if chi2 else 0.0,
            "dynamics.phase_steps": c["dynamics.phase_steps"],
            "dynamics.quadrature_steps": c["dynamics.quadrature_steps"],
            "physics.rate_points": c["physics.rate_points"],
        }
    )
    return metrics
