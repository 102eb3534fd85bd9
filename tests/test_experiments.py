import hashlib
import json
import math
import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phonon_sensor import experiments, fitting
from phonon_sensor.config import (
    ConfigError,
    canonicalize,
    config_from_dict,
    default_config,
    load_config,
)
from phonon_sensor.constants import TWO_PI
from phonon_sensor.experiments import (
    REFERENCE_DELTA_A,
    REFERENCE_SLOPE,
    REFERENCE_TAU,
    RunRecordError,
    amplitude_sweep,
    calibrate_force,
    load_run,
    lower_bound_search,
    make_run_record,
    persist_run,
    rerun_record,
    run_campaign,
    sensitivity,
    sensitivity_campaign,
    squeeze_sweep,
)
from phonon_sensor.photons import TacHistogram, folded_law, synthesize_histogram

CONFIG = default_config()
TRAP = CONFIG.trap
SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def with_experiment(config, **fields):
    """``config`` with the given campaign settings of its experiment section."""
    return replace(config, experiment=replace(config.experiment, **fields))


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, over all threads."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _worker_pid(_job) -> int:
    return os.getpid()


class TestCalibrateForce:
    def test_reference_point(self):
        slope = calibrate_force(TRAP, [(3.0, 12e-6)])
        # 362.8 yN/mV within 0.5%.
        assert slope == pytest.approx(362.8e-21, rel=5e-3)

    def test_zero_displacement_zero_slope(self):
        assert calibrate_force(TRAP, [(3.0, 0.0)]) == 0.0

    def test_linearity_in_displacement(self):
        base = calibrate_force(TRAP, [(3.0, 12e-6)])
        doubled = calibrate_force(TRAP, [(3.0, 24e-6)])
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_multiple_points_least_squares(self):
        slope = calibrate_force(TRAP, [(1.0, 4e-6), (2.0, 8e-6), (3.0, 12e-6)])
        assert slope == pytest.approx(calibrate_force(TRAP, [(3.0, 12e-6)]), rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            calibrate_force(TRAP, [])
        with pytest.raises(ValueError):
            calibrate_force(TRAP, [(0.0, 5e-6)])


class TestSensitivityFormula:
    def test_reference_evaluation_inside_published_band(self):
        value = sensitivity(REFERENCE_DELTA_A, REFERENCE_TAU, REFERENCE_SLOPE)
        assert value == REFERENCE_DELTA_A * math.sqrt(REFERENCE_TAU) / REFERENCE_SLOPE
        assert 297e-24 < value < 397e-24  # 347 +/- 50 yN/sqrt(Hz)

    def test_linearity_in_delta_a(self):
        one = sensitivity(1e-9, 100.0, 1e15)
        assert sensitivity(2e-9, 100.0, 1e15) == pytest.approx(2 * one, rel=1e-12)

    def test_unit_case(self):
        # 1 nm scatter, 1 s, 1 nm/yN -> 1 yN/sqrt(Hz).
        assert sensitivity(1e-9, 1.0, 1e-9 / 1e-24) == pytest.approx(1e-24, rel=1e-12)

    def test_scaling_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            da = rng.uniform(1e-9, 1e-7)
            tau = rng.uniform(1.0, 1e4)
            slope = rng.uniform(1e13, 1e16)
            base = sensitivity(da, tau, slope)
            assert sensitivity(da, tau, 2 * slope) == pytest.approx(base / 2, rel=1e-12)
            assert sensitivity(da, 4 * tau, slope) == pytest.approx(2 * base, rel=1e-12)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            sensitivity(1e-9, 1.0, 0.0)


class TestAmplitudeSweep:
    def test_recovers_configured_linear_response(self):
        results = amplitude_sweep(CONFIG, seed=101)
        # Configured response: force_per_volt * amplitude_per_force.
        expected_slope = CONFIG.drive.force_per_volt * CONFIG.amplitude_per_force
        assert results["amplitude_per_volt_nm_per_mv"] == pytest.approx(
            expected_slope * 1e9 * 1e-3, rel=0.03
        )
        assert results["free_running_amplitude_um"] == pytest.approx(
            CONFIG.free_running_amplitude * 1e6, rel=0.02
        )
        assert results["r_squared"] > 0.999
        # Slope ratio check: about 0.9979 nm/yN within 1%.
        assert results["amplitude_per_force_nm_per_yn"] == pytest.approx(0.9979, rel=0.01)
        assert all(row["locked"] for row in results["rows"])

    def test_internal_consistency_identity(self):
        results = amplitude_sweep(with_experiment(CONFIG, amplitude_trials=2), seed=7)
        per_force = results["amplitude_per_force_nm_per_yn"] * 1e-9 / 1e-24
        assert per_force * CONFIG.drive.force_per_volt == pytest.approx(
            results["amplitude_per_volt_nm_per_mv"] * 1e-9 / 1e-3, rel=1e-12
        )

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigError, match="three distinct voltages"):
            with_experiment(CONFIG, amplitude_voltages=(5e-3,))
        with pytest.raises(ConfigError, match="three distinct voltages"):
            with_experiment(CONFIG, amplitude_voltages=(5e-3, 5e-3, 5e-3))

    def test_unlockable_voltage_excluded_with_warning(self, caplog):
        config = with_experiment(
            CONFIG, amplitude_voltages=(1e-7, 5e-3, 10e-3, 15e-3), amplitude_trials=2
        )
        with caplog.at_level("WARNING"):
            results = amplitude_sweep(config, seed=3)
        assert "fails the lock criterion" in caplog.text
        assert results["rows"][0]["locked"] is False
        assert results["r_squared"] > 0.99

    @pytest.mark.parametrize("phase, ratio", [(math.pi / 2, 1 / 1.9), (0.0, 10.0)])
    def test_lock_spread_carries_the_squeeze_variance_ratio(self, phase, ratio):
        # The locked-phase engine scales the thermal diffusion and the
        # electrode force variance alike by 1/(1 - g cos 2 phi).
        drive = replace(CONFIG.drive, squeeze_gain=0.9, squeeze_phase=phase, squeeze_enabled=True)
        squeezed = replace(CONFIG, drive=drive)
        assert CONFIG.electric_noise.rms_voltage > 0
        for voltage in (0.2e-3, 5e-3):
            plain = experiments._expected_lock_spread(CONFIG, voltage)
            assert experiments._expected_lock_spread(squeezed, voltage) == pytest.approx(
                math.sqrt(ratio) * plain, rel=1e-12
            )

    def test_voltage_without_converged_fits_keeps_its_row(self, caplog):
        # 1 s gates with 0.45 us jitter leave both 5 mV histograms too flat
        # to fit at the default seed.
        config = config_from_dict(
            {
                "pipeline": {"gate_time_s": 1.0, "timing_jitter_us": 0.45},
                "experiment": {
                    "amplitude_voltages_mv": [5.0, 12.5, 15.0, 18.25],
                    "amplitude_trials": 2,
                },
            }
        )
        with caplog.at_level("WARNING"):
            rows = amplitude_sweep(config)["rows"]
        assert "no converged fits at 5 mV" in caplog.text
        assert [row["voltage_mv"] for row in rows] == pytest.approx([5.0, 12.5, 15.0, 18.25])
        first = rows[0]
        assert first["locked"] is True
        assert math.isnan(first["amplitude_um"]) and math.isnan(first["amplitude_err_um"])
        assert (first["trials"], first["dropped"]) == (0, 2)


class TestRecoveryStacks:
    """The recovery campaigns fit their histograms in stacks of FIT_STACK,
    and each trial's result is that of its fit alone.  The benchmark
    counts and times the fits by wrapping ``experiments.fit_histogram``,
    so each fit must still be one call to that module attribute."""

    def test_each_trial_is_its_fit_alone(self, monkeypatch, caplog):
        # 18 trials over 15-25 um, the fifth one flat: it is dropped before
        # stacking, and the other 17 fit as a stack of 16 and one of 1.
        config = config_from_dict({"pipeline": {"gate_time_s": 1.0, "timing_jitter_us": 0.2}})
        omega_i, pipe = config.drive.injection_frequency, config.pipeline
        trials = [(a, 700 + k) for k, a in enumerate(np.linspace(15e-6, 25e-6, 18))]
        flat = TacHistogram(
            pipe.bin_width,
            TWO_PI / omega_i,
            np.random.default_rng(3).poisson(8.0, 538),
            pipe.gate_time,
        )
        synthesize = experiments.synthesize_histogram

        def with_a_flat_one(beams, amplitude, phase, omega_i, pipeline, seed):
            if seed == 704:
                return flat
            return synthesize(beams, amplitude, phase, omega_i, pipeline, seed=seed)

        monkeypatch.setattr(experiments, "synthesize_histogram", with_a_flat_one)
        stacks, calls = [], []
        fit_histograms, fit_histogram = fitting.fit_histograms, experiments.fit_histogram

        def recording(hists, *args, **kwargs):
            stacks.append(len(hists))
            return fit_histograms(hists, *args, **kwargs)

        def recording_one(hist, *args, **kwargs):
            calls.append((hist, fit_histogram(hist, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(fitting, "fit_histograms", recording)
        monkeypatch.setattr(experiments, "fit_histogram", recording_one)
        with caplog.at_level("WARNING"):
            fitted = experiments._recover_amplitudes(config, trials)
        assert stacks == [experiments.FIT_STACK, 17 - experiments.FIT_STACK]
        assert len(calls) == 17 and all(hist is not flat for hist, _ in calls)
        assert "trial dropped at 17.35 um: histogram is flat" in caplog.text
        expected = []
        for amplitude, seed in trials:
            hist = with_a_flat_one(
                config.beams, amplitude, config.experiment.reference_phase, omega_i, pipe, seed
            )
            if seed == 704:
                expected.append(None)
                continue
            result = fit_histogram(
                hist, config.beams, experiments.fit_init(config, hist), omega_i=omega_i
            )
            expected.append(result.amplitude if result.converged else None)
            (called,) = [got for drawn, got in calls if drawn.seed == seed]
            assert called == result
        assert fitted == expected
        assert fitted[4] is None and all(a is not None for k, a in enumerate(fitted) if k != 4)


class TestFitInit:
    def test_warm_start_makes_no_model_pass(self, monkeypatch):
        # Alpha and beta come from the detection chain, so once the template
        # bank is cached the start is built without a model curve.
        config = config_from_dict({"pipeline": {"gate_time_s": 1.0}})
        omega_i, pipe = config.drive.injection_frequency, config.pipeline
        hist = synthesize_histogram(config.beams, 22e-6, 0.03, omega_i, pipe, seed=5)
        warm = experiments.fit_init(config, hist)
        calls = []
        curve = fitting.model_curve

        def counting_curve(*args, **kwargs):
            calls.append(args)
            return curve(*args, **kwargs)

        monkeypatch.setattr(fitting, "model_curve", counting_curve)
        assert experiments.fit_init(config, hist) == warm
        assert calls == []


class TestSqueezeSweep:
    def test_matches_variance_law_within_bootstrap_errors(self):
        config = with_experiment(CONFIG, squeeze_trials=25, squeeze_periods=4000)
        rows = squeeze_sweep(config, seed=11)["rows"]
        for row in rows:
            assert row["stable"]
            diff = abs(row["sim_ratio_y"] - row["theory_ratio_y"])
            assert diff < 3.5 * row["sim_ratio_y_err"], row

    def test_monotone_toward_half_along_squeeze_axis(self):
        points = [(g, math.pi / 2) for g in (0.0, 0.3, 0.6, 0.9)]
        config = with_experiment(CONFIG, squeeze_trials=20, squeeze_periods=4000)
        rows = squeeze_sweep(config, points=points, seed=13)["rows"]
        ratios = [row["sim_ratio_y"] for row in rows]
        assert all(np.diff(ratios) < 0)
        assert ratios[-1] == pytest.approx(1 / 1.9, abs=0.06)

    def test_needs_a_trial(self):
        with pytest.raises(ConfigError, match="trial counts must be >= 1"):
            with_experiment(CONFIG, squeeze_trials=0)

    def test_antisqueezed_point(self):
        config = with_experiment(CONFIG, squeeze_trials=20, squeeze_periods=6000)
        rows = squeeze_sweep(config, points=[(0.9, 0.0)], seed=17)["rows"]
        assert rows[0]["theory_ratio_y"] == pytest.approx(10.0, rel=1e-12)
        assert rows[0]["sim_ratio_y"] == pytest.approx(10.0, rel=0.25)

    def test_unstable_point_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            rows = squeeze_sweep(
                with_experiment(CONFIG, squeeze_trials=20, squeeze_periods=1000),
                points=[(1.0, 0.0)],
                seed=19,
            )["rows"]
        assert rows[0]["stable"] is False
        assert math.isnan(rows[0]["sim_ratio_y"])


@pytest.fixture(scope="module")
def lower_bound_results():
    config = with_experiment(CONFIG, lower_bound_trials=24)
    off = lower_bound_search(config, squeeze=False, seed=23)
    on = lower_bound_search(config, squeeze=True, seed=23)
    return off, on


class TestLowerBound:
    @pytest.fixture
    def results(self, lower_bound_results):
        return lower_bound_results

    def test_probability_monotone_within_counting_noise(self, results):
        for res in results:
            probs = np.array(res["lock_probability"])
            n = res["trials"]
            for i in range(len(probs) - 1):
                sigma = math.sqrt(
                    max(probs[i] * (1 - probs[i]), 0.25 / n) / n
                    + max(probs[i + 1] * (1 - probs[i + 1]), 0.25 / n) / n
                )
                assert probs[i] <= probs[i + 1] + 3 * sigma

    def test_critical_point_bracketed(self, results):
        for res in results:
            grid = list(zip(res["voltages_mv"], res["lock_probability"]))
            below = [p for v, p in grid if v < res["critical_voltage_mv"]]
            above = [p for v, p in grid if v > res["critical_voltage_mv"]]
            assert below and max(below) < 0.9
            assert above and min(above) >= 0.9

    def test_squeezing_halves_critical_voltage(self, results):
        off, on = results
        ratio = off["critical_voltage_mv"] / on["critical_voltage_mv"]
        assert 1.5 <= ratio <= 2.5

    def test_critical_force_uses_configured_slope(self, results):
        off, _ = results
        assert off["critical_force_yn"] == pytest.approx(
            off["critical_voltage_mv"] * 1e-3 * CONFIG.drive.force_per_volt * 1e24, rel=1e-12
        )

    def test_noiseless_lock_everywhere_is_unbracketed(self):
        quiet = replace(
            with_experiment(CONFIG, lower_bound_trials=20),
            noise=replace(CONFIG.noise, temperature=1e-9),
            electric_noise=replace(CONFIG.electric_noise, rms_voltage=0.0),
        )
        with pytest.raises(ValueError, match="not bracketed"):
            lower_bound_search(quiet, squeeze=False, seed=29)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ConfigError, match=">= 20 trials"):
            with_experiment(CONFIG, lower_bound_trials=10)

    def test_default_search_memory_is_bounded(self):
        # Lock is judged while the phase is stepped, so no psi[step, trial]
        # array is kept; one voltage's alone (50 001 steps x 32 trials)
        # would take 12.8 MB.
        tracemalloc.start()
        try:
            lower_bound_search(CONFIG, squeeze=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestConcurrency:
    """The squeeze sweep runs its envelope batches on a thread pool and the
    lower-bound campaign runs its two searches in forked worker processes;
    neither pool nor the number of CPUs may show in an output, and no
    worker may outlive a campaign."""

    # The benchmark's smoke settings: 2 s gates, 20 trials, shipped grid.
    SHORT = replace(
        CONFIG,
        pipeline=replace(CONFIG.pipeline, gate_time=2.0),
        experiment=replace(CONFIG.experiment, lower_bound_trials=20),
    )

    def lower_bound_record(self, results=None) -> str:
        if results is None:
            results = run_campaign("lower-bound", self.SHORT, seed=37)
        return json.dumps(make_run_record("lower-bound", self.SHORT, 37, results), sort_keys=True)

    def test_lower_bound_campaign_equals_serial_searches(self, monkeypatch):
        before = threading.active_count()
        results = run_campaign("lower-bound", self.SHORT, seed=37)
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []
        # run_campaign searches the config as a run record stores it.
        config = canonicalize(self.SHORT)
        for key, squeeze in (("unsqueezed", False), ("squeezed", True)):
            serial = lower_bound_search(config, squeeze=squeeze, seed=37)
            assert results[key]["lock_probability"] == serial["lock_probability"]
            assert results[key]["critical_voltage_mv"] == serial["critical_voltage_mv"]
        # The record's bytes do not depend on the pool.
        pooled = self.lower_bound_record(results)
        monkeypatch.setattr(experiments, "_available_cpus", lambda: 1)
        assert self.lower_bound_record() == pooled

    def test_lower_bound_campaign_without_fork_runs_in_series(self, monkeypatch):
        pooled = self.lower_bound_record()
        if experiments._available_cpus() > 1:
            assert os.getpid() not in experiments._run_concurrently(
                _worker_pid, range(2), processes=True
            )
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert experiments._run_concurrently(_worker_pid, range(2), processes=True) == [
            os.getpid()
        ] * 2
        assert self.lower_bound_record() == pooled

    def test_worker_error_ends_every_thread(self):
        # A zero damping rate passes squeeze_sweep and fails in every
        # envelope batch, so the error is raised inside the workers.
        before = threading.active_count()
        undamped = replace(
            with_experiment(CONFIG, squeeze_trials=20, squeeze_periods=500),
            noise=replace(CONFIG.noise, damping=0.0),
        )
        with pytest.raises(ValueError, match="positive damping rate"):
            squeeze_sweep(undamped, points=[(0.3, 0.0)], seed=43)
        assert threading.active_count() == before
        # Without thermal or electrode noise every voltage locks, so both
        # searches raise inside their worker processes.
        quiet = config_from_dict(
            {
                "physics": {"noise": {"temperature_mk": 0.0, "electric_rms_mv": 0.0}},
                "pipeline": {"gate_time_s": 0.2},
                "experiment": {"lower_bound_trials": 20},
            }
        )
        with pytest.raises(ValueError, match="not bracketed"):
            run_campaign("lower-bound", quiet)
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_sweep_does_not_depend_on_the_worker_count(self, monkeypatch, caplog):
        # Two unstable points between stable ones: the warnings keep the
        # grid order, and the shared bootstrap generator its draw order.
        points = [(0.3, 0.0), (1.2, 0.0), (0.6, math.pi / 2), (1.0, 0.0), (0.9, 0.4)]
        config = with_experiment(CONFIG, squeeze_trials=10, squeeze_periods=500)

        def sweep():
            caplog.clear()
            with caplog.at_level("WARNING", logger="phonon_sensor.experiments"):
                result = squeeze_sweep(config, points=points, seed=43)
            return json.dumps(result), [record.getMessage() for record in caplog.records]

        pooled, pooled_log = sweep()
        monkeypatch.setattr(experiments, "_available_cpus", lambda: 1)
        serial, serial_log = sweep()
        assert pooled == serial
        assert pooled_log == serial_log == [
            "unstable squeeze point g=1.2 phi=0 skipped",
            "unstable squeeze point g=1 phi=0 skipped",
        ]

    def test_default_search_working_set(self):
        # One reused draw buffer and the increments held in the phase rows:
        # three (chunk, trials x voltages) arrays, about 4.6 MB.
        assert traced_peak(lambda: lower_bound_search(CONFIG, squeeze=False)) <= 7e6

    def test_lower_bound_campaign_working_set(self, monkeypatch):
        # tracemalloc does not see worker processes, so the two searches run
        # here, in series; the campaign then peaks as one search does.
        monkeypatch.setattr(experiments, "_available_cpus", lambda: 1)
        assert traced_peak(lambda: run_campaign("lower-bound", CONFIG)) <= 7e6


class TestFixedSeedOutputs:
    """Exact campaign outputs at fixed seeds, recorded before the locked-phase
    step and the envelope integrator were rewritten for speed.  A later
    change of draws or of arithmetic that moves a result fails here."""

    # The sha256 of the run record that `phonon-sensor campaign <kind>
    # --config configs/default.yaml` writes.  A change that moves these
    # numbers on purpose updates the digest and says so.
    DEFAULT_RECORD_SHA256 = {
        "lower-bound": "ee6717ea29d11fb1314f7e8c9e83bea2f2d9cd22c193a6bd4f36fb67af18004d",
        "sensitivity": "8ae2062b1143c628bede7634ed659e803c15b28d81f8d6d66a99ca208bb22c5b",
        "sweep-amplitude": "37b4c70af76310bc558575c08d024fbff63c614f177d65c9ec29990b62f6b192",
        "sweep-squeeze": "6445a80f2ef27fd964564179e414278c9522ccd8e9b171311c06e814edd427ca",
    }

    @pytest.mark.parametrize("kind", sorted(DEFAULT_RECORD_SHA256))
    def test_default_smallest_force_record(self, kind, tmp_path):
        config = load_config(SHIPPED_CONFIG)
        seed = config.experiment.seed
        path = tmp_path / f"{kind}.json"
        persist_run(make_run_record(kind, config, seed, run_campaign(kind, config, seed)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.DEFAULT_RECORD_SHA256[kind]

    def test_lower_bound_lock_fractions(self):
        # The benchmark's smoke settings: 2 s gates, 20 trials, shipped grid.
        short = replace(
            with_experiment(CONFIG, lower_bound_trials=20),
            pipeline=replace(CONFIG.pipeline, gate_time=2.0),
        )
        off = lower_bound_search(short, squeeze=False, seed=37)
        on = lower_bound_search(short, squeeze=True, seed=37)
        assert off["lock_probability"] == [0.0] * 7 + [0.35, 0.9, 1.0, 1.0, 1.0]
        assert on["lock_probability"] == (
            [0.0, 0.05, 0.0, 0.0, 0.3, 0.6] + [1.0] * 6
        )

    def test_squeeze_ratios(self):
        rows = squeeze_sweep(
            with_experiment(CONFIG, squeeze_trials=20, squeeze_periods=2000),
            points=[(0.9, math.pi / 2), (0.5, 0.0)],
            seed=41,
        )["rows"]
        ratios = [row["sim_ratio_y"] for row in rows]
        assert ratios == pytest.approx([0.5362266307392819, 1.7833302851049535], rel=1e-12)


class TestAsimovBias:
    """The campaign fit's bias from the Asimov histogram, the one equal to
    its expected counts (Cowan, Cranmer, Gross & Vitells, EPJ C 71, 1554,
    2011): its fit is the estimator's large-sample centre, with no noise
    and no seed, and must lie well inside the Cramer-Rao bound."""

    @pytest.mark.parametrize("gate_time", [1.0, 10.0])
    @pytest.mark.parametrize("jitter_us", [0.0, 0.2])
    @pytest.mark.parametrize("amplitude", [15e-6, 21.677e-6, 28e-6])
    def test_fit_of_expected_counts_is_within_a_tenth_of_the_bound(
        self, monkeypatch, gate_time, jitter_us, amplitude
    ):
        # The flatness check weighs a histogram against Poisson scatter,
        # which an Asimov histogram lacks: at 1 s and 0.2 us its noiseless
        # chi-square against flat falls below the threshold.  For the same
        # reason template matching cannot start it, so the fit starts at
        # the truth.
        monkeypatch.setattr(fitting, "_is_flat", lambda counts: False)
        config = config_from_dict(
            {"pipeline": {"gate_time_s": gate_time, "timing_jitter_us": jitter_us}}
        )
        pipe, beams = config.pipeline, config.beams
        omega_i, phase = config.drive.injection_frequency, config.experiment.reference_phase
        mean_signal, signal_means, gate_share = folded_law(beams, amplitude, phase, omega_i, pipe)
        expected = signal_means + mean_signal / pipe.snr * gate_share / gate_share.sum()
        hist = TacHistogram(
            pipe.bin_width, TWO_PI / omega_i, np.zeros(len(expected)), pipe.gate_time
        )
        hist.counts = expected
        init = fitting.chain_init_params(
            hist, pipe.efficiency, pipe.snr, amplitude, phase, pipe.timing_jitter
        )
        result = fitting.fit_histogram(hist, beams, init, omega_i=omega_i)
        assert result.converged
        free = ["amplitude", "phase"]
        info = fitting.fisher_information(
            init, beams, omega_i, hist.period, pipe.bin_width, free
        )
        phase_crb = math.sqrt(np.linalg.inv(info)[1, 1])
        assert abs(result.amplitude - amplitude) < 0.1 * experiments._amplitude_crb(
            config, amplitude
        )
        assert abs(fitting.wrap_phase(result.phase - phase)) < 0.1 * phase_crb


class TestSensitivityCampaign:
    def test_empirical_and_reference_reports(self):
        results = sensitivity_campaign(with_experiment(CONFIG, repetitions=8), seed=31)
        assert results["tau_s"] == 8 * CONFIG.pipeline.gate_time
        assert results["sensitivity_yn_per_sqrt_hz"] == pytest.approx(
            results["delta_a_nm"] * math.sqrt(results["tau_s"]) / results["slope_nm_per_yn"],
            rel=1e-12,
        )
        reference = sensitivity(REFERENCE_DELTA_A, REFERENCE_TAU, REFERENCE_SLOPE)
        assert reference == pytest.approx(336.1e-24, rel=1e-3)
        assert results["dropped"] == 0
        # The bound depends on no seed: 48.3 nm at the default 24.446 um.
        assert results["delta_a_crb_nm"] == pytest.approx(48.32, rel=1e-3)
        assert results["delta_a_over_crb"] == results["delta_a_nm"] / results["delta_a_crb_nm"]

    def test_record_carries_the_bound(self):
        config = config_from_dict({"experiment": {"repetitions": 3}})
        results = run_campaign("sensitivity", config, 31)
        assert results["reference_sensitivity_yn_per_sqrt_hz"] == pytest.approx(336.1, rel=1e-3)
        assert results["delta_a_crb_nm"] == pytest.approx(48.32, rel=1e-3)
        assert results["delta_a_over_crb"] == pytest.approx(
            results["delta_a_nm"] / results["delta_a_crb_nm"], rel=1e-12
        )

    def test_dropped_repetitions_are_reported(self):
        # 1 s gates with 0.3 us jitter leave some 7.5 mV histograms too flat
        # to fit: at seed 31, 3 of 8.
        config = config_from_dict(
            {
                "physics": {"drive": {"injection_voltage_mv": 7.5}},
                "pipeline": {"gate_time_s": 1.0, "timing_jitter_us": 0.3},
                "experiment": {"repetitions": 8},
            }
        )
        assert run_campaign("sensitivity", config, 31)["dropped"] == 3


class TestRunRecords:
    def test_round_trip(self, tmp_path):
        results = run_campaign("calibrate", CONFIG)
        record = make_run_record("calibrate", CONFIG, CONFIG.experiment.seed, results)
        path = tmp_path / "run.json"
        persist_run(record, path)
        loaded = load_run(path)
        assert loaded == record

    def test_tampered_checksum_rejected(self, tmp_path):
        results = run_campaign("calibrate", CONFIG)
        record = make_run_record("calibrate", CONFIG, 1, results)
        path = tmp_path / "run.json"
        persist_run(record, path)
        data = json.loads(path.read_text())
        data["results"]["force_per_volt_n_per_v"] *= 1.001
        path.write_text(json.dumps(data))
        with pytest.raises(RunRecordError, match="checksum"):
            load_run(path)

    def test_unreadable_record_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        with pytest.raises(RunRecordError):
            load_run(path)

    def test_schema_version_checked(self, tmp_path):
        record = make_run_record("calibrate", CONFIG, 1, {"x": 1})
        record["schema"] = 99
        path = tmp_path / "run.json"
        persist_run(record, path)
        with pytest.raises(RunRecordError, match="schema"):
            load_run(path)

    def test_rerun_reproduces_bit_identical_results(self, tmp_path):
        config = with_experiment(CONFIG, amplitude_trials=2)
        seed = 37
        results = run_campaign("sweep-amplitude", config, seed)
        record = make_run_record("sweep-amplitude", config, seed, results)
        path = tmp_path / "sweep.json"
        persist_run(record, path)
        replayed = rerun_record(load_run(path))
        assert replayed == record

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            run_campaign("frobnicate", CONFIG)

    def test_unwritable_destination_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        record = make_run_record("calibrate", CONFIG, 1, {"x": 1})
        with pytest.raises(OSError):
            persist_run(record, blocker / "run.json")
