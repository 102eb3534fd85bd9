"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with the measured numbers (run with -s to see them all).
"""

import math
import subprocess
import sys

import numpy as np
from scipy import stats

from phonon_sensor.config import config_from_dict, default_config
from phonon_sensor.constants import DEFAULT_AXIAL_FREQUENCY, TWO_PI
from phonon_sensor.dynamics import envelope_paths
from phonon_sensor.experiments import (
    REFERENCE_DELTA_A,
    REFERENCE_SLOPE,
    REFERENCE_TAU,
    amplitude_sweep,
    load_run,
    lower_bound_search,
    rerun_record,
    sensitivity,
)
from phonon_sensor.fitting import (
    FitModelParams,
    chain_init_params,
    fit_histogram,
    initial_guess,
    model_curve,
    wrap_phase,
)
from phonon_sensor.photons import PipelineConfig, synthesize_histogram
from phonon_sensor.physics import (
    DriveConfig,
    TrapConfig,
    collection_efficiency,
    default_beams,
    default_efficiency_chain,
    scattering_rate,
    squeeze_variance_ratio,
    static_force,
    total_scattering_rate,
    total_scattering_rate_max,
)

from oracles import sample_arrivals

CONFIG = default_config()
BEAMS = default_beams()
OMEGA = DEFAULT_AXIAL_FREQUENCY
PERIOD = TWO_PI / OMEGA

# Frozen quadrature oracle: period-averaged two-beam rate times a 10 s gate
# at 22 um amplitude (40-digit evaluation).
EMITTED_ORACLE_22UM_10S = 12464153.58171404


def report(label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_efficiency_chain():
    eta = collection_efficiency(default_efficiency_chain())
    ok = abs(eta - 0.0025) <= 1e-4
    report("criterion 1 (efficiency chain)", ok, f"eta = {eta:.6f} vs 0.0025 +/- 0.0001")


def test_criterion_02_static_force():
    force = static_force(TrapConfig(), 12e-6)
    ok = abs(force - 1088.5e-21) / 1088.5e-21 < 0.005
    report(
        "criterion 2 (static force)",
        ok,
        f"F = {force * 1e21:.2f} zN vs 1088.5 zN +/- 0.5%",
    )


def test_criterion_03_squeezing_law():
    # Simulated variance ratios across the gain/phase grid against the
    # closed-form law, within 3 bootstrap sigma; the g cos(2 phi) = -1
    # point must give 0.50 +/- 0.03.
    trials, periods = 50, 10000
    duration = periods * PERIOD
    rng = np.random.default_rng(2024)
    noise = CONFIG.noise
    trap = CONFIG.trap

    def variances(gain, phase, seed0):
        drive = DriveConfig(
            squeeze_gain=gain, squeeze_phase=phase, squeeze_enabled=gain > 0
        )
        out = []
        for k in range(trials):
            path = envelope_paths(
                trap,
                drive,
                noise,
                duration,
                [seed0 + k],
                stationary_start=abs(gain * math.cos(2 * phase)) < 1.0,
            )
            out.append(np.var(path.y[0]))
        return np.array(out)

    base = variances(0.0, 0.0, 10_000)
    grid = [(g, p) for g in (0.0, 0.3, 0.6, 0.9) for p in (0.0, math.pi / 4, math.pi / 2)]
    grid.append((1.0, math.pi / 2))  # g cos(2 phi) = -1
    worst = 0.0
    three_db_ratio = None
    for i, (gain, phase) in enumerate(grid):
        values = variances(gain, phase, 20_000 + 1000 * i)
        ratio = values.mean() / base.mean()
        boots = [
            rng.choice(values, trials).mean() / rng.choice(base, trials).mean()
            for _ in range(200)
        ]
        sigma = float(np.std(boots))
        theory = squeeze_variance_ratio(gain, phase)
        pull = abs(ratio - theory) / sigma
        worst = max(worst, pull)
        assert pull < 3.0, (gain, phase, ratio, theory, sigma)
        if gain == 1.0:
            three_db_ratio = ratio
    ok = abs(three_db_ratio - 0.5) <= 0.03
    report(
        "criterion 3 (squeezing law)",
        ok and worst < 3.0,
        f"worst pull {worst:.2f} sigma; 3 dB point ratio = {three_db_ratio:.4f} "
        "vs 0.50 +/- 0.03",
    )


def test_criterion_04_fluctuation_dissipation():
    from phonon_sensor.dynamics import thermal_quadrature_variance

    noise = CONFIG.noise
    drive = DriveConfig()
    target = thermal_quadrature_variance(CONFIG.trap, drive, noise)
    xs, ys = [], []
    for seed in range(60):
        path = envelope_paths(
            CONFIG.trap, drive, noise, 10000 * PERIOD, [seed], stationary_start=True
        )
        xs.append(path.x[0])
        ys.append(path.y[0])
    var_x = float(np.var(np.concatenate(xs)))
    var_y = float(np.var(np.concatenate(ys)))
    ok = abs(var_x / target - 1) < 0.05 and abs(var_y / target - 1) < 0.05
    report(
        "criterion 4 (fluctuation-dissipation)",
        ok,
        f"var(X)/target = {var_x / target:.4f}, var(Y)/target = {var_y / target:.4f} "
        "(need within 5%)",
    )


def test_criterion_05_fit_round_trip():
    pipe = CONFIG.pipeline
    passes = 0
    total = 0
    for amp, phase, seed0 in ((21.677e-6, 0.028, 50_000), (24.462e-6, 0.042, 60_000)):
        for k in range(100):
            hist = synthesize_histogram(BEAMS, amp, phase, OMEGA, pipe, seed=seed0 + k)
            # The campaigns' start: the reference phase, not the true one,
            # so the fit must move the phase.
            start_phase = CONFIG.experiment.reference_phase
            amplitude = initial_guess(hist, BEAMS, start_phase)
            init = chain_init_params(hist, pipe.efficiency, pipe.snr, amplitude, start_phase)
            result = fit_histogram(hist, BEAMS, init=init)
            total += 1
            if (
                result.converged
                and abs(result.amplitude - amp) < 0.15e-6
                and abs(wrap_phase(result.phase - phase)) < 0.01
            ):
                passes += 1
    ok = passes >= 0.95 * total
    report(
        "criterion 5 (fit round trip)",
        ok,
        f"{passes}/{total} seeds within 0.15 um and 0.01 rad (need >= 95%)",
    )


def test_criterion_06_phase_time_equivalence():
    # Exact kernel identity.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        amp = rng.uniform(0, 30e-6)
        phase = rng.uniform(-4, 4)
        delta = rng.uniform(-4, 4)
        t = rng.uniform(0, 5 * PERIOD)
        for beam in BEAMS:
            a = scattering_rate(beam, amp, phase + delta, OMEGA, t)
            b = scattering_rate(beam, amp, phase, OMEGA, t + delta / OMEGA)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    kernel_ok = worst < 1e-12

    # Exact model-curve identity for whole-bin shifts on a period of whole
    # bins.
    n_bins = 538
    h = PERIOD / n_bins
    base = FitModelParams(21.677e-6, 0.028, 1.0, 0.0, 0.8e-6)
    curve = model_curve(base, BEAMS, PERIOD, h)
    model_worst = 0.0
    for k in (3, 67, 269):
        shifted = FitModelParams(21.677e-6, 0.028 + k * h * OMEGA, 1.0, 0.0, 0.8e-6)
        rolled = model_curve(shifted, BEAMS, PERIOD, h)
        err = np.max(np.abs(rolled - np.roll(curve, -k)) / np.maximum(np.abs(curve), 1e-300))
        model_worst = max(model_worst, float(err))
    model_ok = model_worst < 1e-12

    # Statistical equivariance at the histogram level.
    pipe = PipelineConfig(gate_time=10.0)
    omega_int = TWO_PI / (538 * pipe.bin_width)
    shift_bins = 75
    delta = shift_bins * pipe.bin_width * omega_int
    h_base = synthesize_histogram(BEAMS, 22e-6, 0.0, omega_int, pipe, seed=71)
    h_shift = synthesize_histogram(BEAMS, 22e-6, delta, omega_int, pipe, seed=72)
    a = np.roll(h_base.counts, -shift_bins).astype(float)
    b = h_shift.counts.astype(float)
    scale_a = math.sqrt(b.sum() / a.sum())
    chi2 = float(np.sum((scale_a * a - b / scale_a) ** 2 / (a + b)))
    p_value = stats.chi2.sf(chi2, len(a) - 1)
    stat_ok = p_value > 0.001

    ok = kernel_ok and model_ok and stat_ok
    report(
        "criterion 6 (phase-time equivalence)",
        ok,
        f"kernel rel err {worst:.2e}, model rel err {model_worst:.2e} (need < 1e-12); "
        f"histogram equivariance p = {p_value:.3f}",
    )


def test_criterion_07_sensitivity_formula():
    value = sensitivity(REFERENCE_DELTA_A, REFERENCE_TAU, REFERENCE_SLOPE)
    exact = REFERENCE_DELTA_A * math.sqrt(REFERENCE_TAU) / REFERENCE_SLOPE
    in_band = 297e-24 <= value <= 397e-24
    ok = in_band and value == exact
    report(
        "criterion 7 (sensitivity formula)",
        ok,
        f"S = {value * 1e24:.1f} yN/sqrt(Hz), inside 347 +/- 50 band, exact identity",
    )


def test_criterion_08_calibration_consistency():
    results = amplitude_sweep(CONFIG, seed=80_000)
    slope_nm_mv = results["amplitude_per_volt_nm_per_mv"]
    ratio_nm_yn = results["amplitude_per_force_nm_per_yn"]
    slope_ok = abs(slope_nm_mv - 362.1) / 362.1 < 0.03
    ratio_ok = abs(ratio_nm_yn - 0.9979) / 0.9979 < 0.01
    ok = slope_ok and ratio_ok
    report(
        "criterion 8 (calibration consistency)",
        ok,
        f"dA/dV = {slope_nm_mv:.1f} nm/mV (vs 362.1, 3%), "
        f"dA/dF = {ratio_nm_yn:.4f} nm/yN (vs 0.9979, 1%), "
        f"intercept = {results['free_running_amplitude_um']:.3f} um",
    )


def test_criterion_09_lower_bound_protocol():
    off = lower_bound_search(CONFIG, squeeze=False, seed=90_000)
    on = lower_bound_search(CONFIG, squeeze=True, seed=90_000)

    def monotone(res):
        probs = np.array(res["lock_probability"])
        n = res["trials"]
        for i in range(len(probs) - 1):
            sigma = math.sqrt(
                max(probs[i] * (1 - probs[i]), 0.25 / n) / n
                + max(probs[i + 1] * (1 - probs[i + 1]), 0.25 / n) / n
            )
            if probs[i] > probs[i + 1] + 3 * sigma:
                return False
        return True

    mono_ok = monotone(off) and monotone(on)
    bracket_ok = (
        min(off["lock_probability"]) < 0.9 <= max(off["lock_probability"])
        and min(on["lock_probability"]) < 0.9 <= max(on["lock_probability"])
    )
    ratio = off["critical_voltage_mv"] / on["critical_voltage_mv"]
    ratio_ok = 1.5 <= ratio <= 2.5
    ok = mono_ok and bracket_ok and ratio_ok
    report(
        "criterion 9 (lower-bound protocol)",
        ok,
        f"Vc = {off['critical_voltage_mv']:.3f} mV (off) / "
        f"{on['critical_voltage_mv']:.3f} mV (3 dB squeeze), ratio {ratio:.2f} "
        f"(need 2.0 +/- 0.5); monotone={mono_ok}, bracketed={bracket_ok}; "
        f"critical force {off['critical_force_yn']:.0f} -> "
        f"{on['critical_force_yn']:.0f} yN",
    )


def test_criterion_10_photon_budget():
    emitted = sample_arrivals(
        lambda t: total_scattering_rate(BEAMS, 22e-6, 0.0, OMEGA, t),
        10.0,
        rate_max=total_scattering_rate_max(BEAMS, 22e-6, OMEGA),
        seed=100,
    )
    emit_ok = abs(len(emitted) - EMITTED_ORACLE_22UM_10S) < 3 * math.sqrt(
        EMITTED_ORACLE_22UM_10S
    )

    hist = synthesize_histogram(BEAMS, 22e-6, 0.0, OMEGA, CONFIG.pipeline, seed=101)
    predicted = EMITTED_ORACLE_22UM_10S * 0.0028 * 1.5
    chain_ok = abs(hist.total_counts - predicted) < 3 * math.sqrt(predicted)
    # The closed-form chain reproduces the reported 5.353e4 to about 2%;
    # the documented acceptance band is 5%.
    reported_ok = abs(hist.total_counts - 5.353e4) / 5.353e4 < 0.05
    ok = emit_ok and chain_ok and reported_ok
    report(
        "criterion 10 (photon budget)",
        ok,
        f"emitted {len(emitted)} vs oracle {EMITTED_ORACLE_22UM_10S:.0f} "
        f"(3 sqrt(N) = {3 * math.sqrt(EMITTED_ORACLE_22UM_10S):.0f}); detected "
        f"{hist.total_counts} vs chain {predicted:.0f} and reported 53530 (5%)",
    )


def test_criterion_11_determinism(tmp_path):
    # CLI campaign outputs byte-identical across re-runs, and a persisted
    # record replays to an identical record.
    reduced = config_from_dict(
        {
            "experiment": {
                "amplitude_trials": 2,
                "squeeze_trials": 8,
                "squeeze_periods": 2000,
            }
        }
    )
    cfg_path = tmp_path / "reduced.yaml"
    from phonon_sensor.config import save_config

    save_config(reduced, cfg_path)

    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        code = subprocess.run(
            [
                sys.executable,
                "-m",
                "phonon_sensor.cli",
                "campaign",
                "sweep-squeeze",
                "--config",
                str(cfg_path),
                "--out",
                str(out_dir),
            ],
            capture_output=True,
        ).returncode
        assert code == 0
        outputs.append(
            {
                path.name: path.read_bytes()
                for path in sorted(out_dir.iterdir())
            }
        )
    files_ok = outputs[0] == outputs[1] and len(outputs[0]) >= 3

    record_path = tmp_path / "run_a" / "sweep-squeeze.json"
    record = load_run(record_path)
    replay_ok = rerun_record(record) == record

    ok = files_ok and replay_ok
    report(
        "criterion 11 (determinism)",
        ok,
        f"{len(outputs[0])} output files byte-identical across re-runs; "
        f"record replay identical = {replay_ok}",
    )
