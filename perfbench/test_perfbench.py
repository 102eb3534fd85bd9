"""Tests of the benchmark's own pieces: span self time, the independent
truth formulas, and a smoke-sized run of every workload."""

import itertools
import json
import math

import numpy as np
import pytest

from perfbench import run, tracing, truth, workloads


@pytest.fixture
def fake_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(ticks)))


def test_self_time_of_nested_spans(fake_clock):
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    def root():
        return wrapped_middle() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("b.leaf", leaf)
    wrapped_middle = tracer.wrap("a.middle", middle)
    assert tracer.wrap("a.root", root)() == 3

    names = [span[0] for span in tracer.spans]
    parents = [span[1] for span in tracer.spans]
    assert names == ["a.root", "a.middle", "b.leaf", "b.leaf", "b.leaf"]
    assert parents == [-1, 0, 1, 1, 0]
    # Each clock read advances one tick: a leaf lasts 1, the middle span
    # 5 of which its leaves cover 2, the root 9 of which 5 + 1 is covered.
    durations = [end - start for _, _, start, end in tracer.spans]
    assert durations == [9.0, 5.0, 1.0, 1.0, 1.0]
    own = tracing.self_times(tracer.spans)
    assert own == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert sum(own) == durations[0]


def test_self_times_of_a_synthetic_tree():
    spans = [
        ["x.root", -1, 0.0, 10.0],
        ["y.child", 0, 1.0, 4.0],
        ["z.grandchild", 1, 1.5, 2.5],
        ["y.child", 0, 5.0, 9.0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_installed_wrappers_are_removed():
    class Module:
        @staticmethod
        def model_curve():
            return "curve"

    modules = {name: Module() for name in ("cli", "experiments", "fitting", "photons", "physics")}
    original = Module.model_curve
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        assert modules["fitting"].model_curve() == "curve"
    assert modules["fitting"].model_curve is original
    assert [span[0] for span in tracer.spans] == ["fitting.model_curve"]
    assert tracing.layer_metrics(tracer)["fitting.model_curve_calls"] == 1


def test_amplitude_response_at_the_defaults():
    assert truth.amplitude_per_volt_nm_per_mv(workloads.BASE_CONFIG) == pytest.approx(362.0, abs=0.05)
    assert truth.true_amplitude_um(workloads.BASE_CONFIG, 18.25) == pytest.approx(24.446, abs=1e-3)


def test_photon_budget_at_the_reference_amplitude():
    # The 22 um, 10 s reference point: 1.246e7 emitted, about 5.24e4 detected.
    config = workloads.BASE_CONFIG
    assert 10 * truth.mean_scattering_rate(config, 22.0) == pytest.approx(1.246e7, rel=1e-3)
    mean, sd = truth.expected_counts(config, 22.0)
    assert mean == pytest.approx(5.24e4, rel=2e-3)
    assert sd == pytest.approx(math.sqrt(mean * 2.75 / 1.5), rel=1e-12)


def test_scattering_rate_average_matches_the_program():
    from phonon_sensor import default_config
    from phonon_sensor.physics import total_scattering_rate

    config = default_config()
    omega = config.drive.injection_frequency
    t = (np.arange(1 << 14) + 0.5) * (2 * math.pi / omega) / (1 << 14)
    program = float(np.mean(total_scattering_rate(config.beams, 24e-6, 0.3, omega, t)))
    assert truth.mean_scattering_rate(workloads.BASE_CONFIG, 24.0) == pytest.approx(program, rel=1e-9)


def test_sample_variance_factor_matches_the_covariance_sum():
    n, rate, dt = 40, 3.0, 0.1
    rho = math.exp(-rate * dt)
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    variance_of_mean = float(np.sum(rho**lags)) / n**2
    assert truth.sample_variance_factor(rate, n, dt) == pytest.approx(1 - variance_of_mean, rel=1e-12)


def test_squeeze_expectation_tends_to_the_law_for_long_records():
    config = json.loads(json.dumps(workloads.BASE_CONFIG))
    config["experiment"]["squeeze_periods"] = 10**7
    assert truth.expected_squeeze_ratio(config, 0.9, 0.0) == pytest.approx(10.0, rel=1e-3)
    config["experiment"]["squeeze_periods"] = 10000
    assert truth.expected_squeeze_ratio(config, 0.9, 0.0) == pytest.approx(9.49, abs=0.01)


def test_benchmark_file_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_runs_to_its_end(name):
    workload = workloads.build(name, 7, "smoke")
    result = run.run_workload(name, 7, 0.0, False, scale="smoke", setup_starts=1)
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] == len(workload.ops)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    result = run.run_workload("histogram-recovery", 7, 0.0, True, scale="smoke")
    assert result["correct"] is True
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["photons.synthesize_calls"] == 13
    assert metrics["fitting.fits"] == 13
    assert metrics["dynamics.locked_phase_calls"] == 0
    assert metrics["photons.accepted"] <= metrics["photons.proposed"]
