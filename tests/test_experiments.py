import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from phonon_sensor.config import default_config
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
CONFIG = default_config()
TRAP = CONFIG.trap


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
        record, rows = amplitude_sweep(CONFIG, seed=101)
        # Configured response: force_per_volt * amplitude_per_force.
        expected_slope = CONFIG.drive.force_per_volt * CONFIG.amplitude_per_force
        assert record.amplitude_per_volt == pytest.approx(expected_slope, rel=0.03)
        assert record.free_running_amplitude == pytest.approx(
            CONFIG.free_running_amplitude, rel=0.02
        )
        assert record.r_squared > 0.999
        # Slope ratio check: about 0.9979 nm/yN within 1%.
        assert record.amplitude_per_force == pytest.approx(0.9979e15, rel=0.01)
        assert all(row["locked"] for row in rows)

    def test_internal_consistency_identity(self):
        record, _ = amplitude_sweep(CONFIG, trials=2, seed=7)
        assert record.amplitude_per_force * record.force_per_volt == pytest.approx(
            record.amplitude_per_volt, rel=1e-12
        )

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            amplitude_sweep(CONFIG, voltages=[5e-3], trials=1)
        with pytest.raises(ValueError):
            amplitude_sweep(CONFIG, voltages=[5e-3, 5e-3, 5e-3], trials=1)

    def test_unlockable_voltage_excluded_with_warning(self, caplog):
        voltages = [1e-7, 5e-3, 10e-3, 15e-3]
        with caplog.at_level("WARNING"):
            record, rows = amplitude_sweep(CONFIG, voltages=voltages, trials=2, seed=3)
        assert "fails the lock criterion" in caplog.text
        assert rows[0]["locked"] is False
        assert record.r_squared > 0.99


class TestSqueezeSweep:
    def test_matches_variance_law_within_bootstrap_errors(self):
        rows, _ = squeeze_sweep(CONFIG, trials=25, periods=4000, seed=11)
        for row in rows:
            assert row["stable"]
            diff = abs(row["sim_ratio_y"] - row["theory_ratio_y"])
            assert diff < 3.5 * row["sim_ratio_y_err"], row

    def test_monotone_toward_half_along_squeeze_axis(self):
        points = [(g, math.pi / 2) for g in (0.0, 0.3, 0.6, 0.9)]
        rows, _ = squeeze_sweep(CONFIG, points=points, trials=20, periods=4000, seed=13)
        ratios = [row["sim_ratio_y"] for row in rows]
        assert all(np.diff(ratios) < 0)
        assert ratios[-1] == pytest.approx(1 / 1.9, abs=0.06)

    def test_antisqueezed_point(self):
        rows, _ = squeeze_sweep(
            CONFIG, points=[(0.9, 0.0)], trials=20, periods=6000, seed=17
        )
        assert rows[0]["theory_ratio_y"] == pytest.approx(10.0, rel=1e-12)
        assert rows[0]["sim_ratio_y"] == pytest.approx(10.0, rel=0.25)

    def test_unstable_point_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            rows, _ = squeeze_sweep(
                CONFIG, points=[(1.0, 0.0)], trials=20, periods=1000, seed=19
            )
        assert rows[0]["stable"] is False
        assert math.isnan(rows[0]["sim_ratio_y"])


@pytest.fixture(scope="module")
def lower_bound_results():
    off = lower_bound_search(CONFIG, trials=24, squeeze=False, seed=23)
    on = lower_bound_search(CONFIG, trials=24, squeeze=True, seed=23)
    return off, on


class TestLowerBound:
    @pytest.fixture
    def results(self, lower_bound_results):
        return lower_bound_results

    def test_probability_monotone_within_counting_noise(self, results):
        for res in results:
            probs = np.array(res.lock_probability)
            n = res.trials
            for i in range(len(probs) - 1):
                sigma = math.sqrt(
                    max(probs[i] * (1 - probs[i]), 0.25 / n) / n
                    + max(probs[i + 1] * (1 - probs[i + 1]), 0.25 / n) / n
                )
                assert probs[i] <= probs[i + 1] + 3 * sigma

    def test_critical_point_bracketed(self, results):
        for res in results:
            below = [p for v, p in zip(res.voltages, res.lock_probability) if v < res.critical_voltage]
            above = [p for v, p in zip(res.voltages, res.lock_probability) if v > res.critical_voltage]
            assert below and max(below) < 0.9
            assert above and min(above) >= 0.9

    def test_squeezing_halves_critical_voltage(self, results):
        off, on = results
        ratio = off.critical_voltage / on.critical_voltage
        assert 1.5 <= ratio <= 2.5
        assert on.squeezing_enabled and not off.squeezing_enabled

    def test_critical_force_uses_configured_slope(self, results):
        off, _ = results
        assert off.critical_force == pytest.approx(
            off.critical_voltage * CONFIG.drive.force_per_volt, rel=1e-12
        )

    def test_noiseless_lock_everywhere_is_unbracketed(self):
        quiet = replace(
            CONFIG,
            noise=replace(CONFIG.noise, temperature=1e-9),
            electric_noise=replace(CONFIG.electric_noise, rms_voltage=0.0),
        )
        with pytest.raises(ValueError, match="not bracketed"):
            lower_bound_search(quiet, trials=20, squeeze=False, seed=29)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_search(CONFIG, trials=10, squeeze=False)

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


class TestSensitivityCampaign:
    def test_empirical_and_reference_reports(self):
        report, reference = sensitivity_campaign(CONFIG, repetitions=8, seed=31)
        assert report.tau == 8 * CONFIG.pipeline.gate_time
        assert report.sensitivity == pytest.approx(
            report.delta_a * math.sqrt(report.tau) / report.slope, rel=1e-12
        )
        assert reference.sensitivity == pytest.approx(336.1e-24, rel=1e-3)


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
        config = replace(
            CONFIG, experiment=replace(CONFIG.experiment, amplitude_trials=2)
        )
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
