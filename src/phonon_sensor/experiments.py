"""Measurement campaigns: calibration, sensitivity, squeezing and the
smallest-force (lock lower-bound) search, plus persistent run records.

Each campaign function is pure given (config, seed) and returns plain
result objects plus row dicts ready for CSV emission; persistence is
checksummed JSON that reproduces bit-identical results on re-run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    RunConfig,
    canonicalize,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from .constants import TWO_PI
from .dynamics import (
    _locked_phase_spreads,
    integrate_quadratures,
    stationary_mean_displacement,
    thermal_quadrature_variance,
)
from .fileio import atomic_write_text
from .fitting import NoModulationError, chain_init_params, fit_histogram, initial_guess
from .photons import synthesize_histogram
from .physics import (
    DriveConfig,
    InstabilityError,
    TrapConfig,
    squeeze_variance_ratio,
    static_force,
)

log = logging.getLogger(__name__)

# Reference sensitivity inputs of the published evaluation.
REFERENCE_DELTA_A = 15e-9  # m
REFERENCE_TAU = 500.0  # s
REFERENCE_SLOPE = 0.9979e-9 / 1e-24  # m/N


class RunRecordError(ValueError):
    """Corrupt, tampered or incompatible run record."""


@dataclass(frozen=True)
class CalibrationRecord:
    force_per_volt: float  # N/V
    amplitude_per_volt: float  # m/V
    amplitude_per_force: float  # m/N
    free_running_amplitude: float  # m
    r_squared: float
    residuals: tuple[float, ...]  # m, one per voltage


@dataclass(frozen=True)
class SensitivityReport:
    delta_a: float  # m
    tau: float  # s
    repetitions: int
    slope: float  # m/N
    sensitivity: float  # N/sqrt(Hz)


@dataclass(frozen=True)
class LowerBoundResult:
    voltages: tuple[float, ...]
    lock_probability: tuple[float, ...]
    trials: int
    critical_voltage: float
    critical_force: float
    squeezing_enabled: bool


def calibrate_force(trap: TrapConfig, dc_measurements) -> float:
    """Slope of the static force against electrode voltage, through origin."""
    measurements = [(float(v), float(z)) for v, z in dc_measurements]
    if not measurements:
        raise ValueError("need at least one measurement")
    v2 = sum(v * v for v, _ in measurements)
    if v2 == 0:
        raise ValueError("all voltages are zero; slope is undefined")
    vf = sum(v * static_force(trap, z) for v, z in measurements)
    return vf / v2


def sensitivity(delta_a: float, tau: float, slope: float) -> float:
    """Force sensitivity delta_A * sqrt(tau) / (dA/dF) in N/sqrt(Hz)."""
    if slope == 0:
        raise ValueError("zero amplitude-per-force slope")
    if delta_a < 0 or tau <= 0 or slope < 0:
        raise ValueError("delta_a, tau and slope must be positive")
    return delta_a * math.sqrt(tau) / slope


def _spawn_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _true_amplitude(config: RunConfig, voltage: float) -> float:
    """Operating amplitude at an injection voltage: free-running plus response."""
    drive = replace(config.drive, injection_voltage=voltage)
    return config.free_running_amplitude + stationary_mean_displacement(
        config.trap, drive, config.noise
    )


def _expected_lock_spread(config: RunConfig, voltage: float) -> float:
    """Small-signal locked phase spread sqrt(D / w_L) of the phase model."""
    drive = replace(config.drive, injection_voltage=voltage)
    torque_scale = (
        2.0 * config.noise.mass * config.trap.secular_z * config.free_running_amplitude
    )
    lock_rate = drive.force / torque_scale
    if lock_rate == 0:
        return math.inf
    diffusion = config.noise.force_spectral_density() / (2.0 * torque_scale**2)
    en = config.electric_noise
    force_rms = en.rms_voltage * drive.force_per_volt
    diffusion += (force_rms**2 / 2.0) * en.correlation_time / torque_scale**2
    return math.sqrt(diffusion / lock_rate)


def fit_init(config: RunConfig, hist):
    """Fit start of a histogram taken under ``config``: the template-matched
    amplitude, the reference phase, detection-chain alpha/beta and jitter."""
    pipe = config.pipeline
    guess = initial_guess(
        hist, config.beams, config.drive.injection_frequency, sigma_t=pipe.timing_jitter
    )
    return chain_init_params(
        hist,
        pipe.efficiency,
        pipe.snr,
        amplitude=guess.amplitude,
        phase=config.experiment.reference_phase,
        sigma_t=pipe.timing_jitter,
    )


def _recover_amplitudes(config: RunConfig, amplitude: float, seeds) -> list[float]:
    """Synthesize one histogram per seed and fit it; the converged amplitudes.

    A histogram too flat to fit (:class:`NoModulationError`) is dropped like
    an unconverged fit.
    """
    exp, pipe = config.experiment, config.pipeline
    omega_i = config.drive.injection_frequency
    amplitudes = []
    for seed in seeds:
        hist = synthesize_histogram(
            config.beams, amplitude, exp.reference_phase, omega_i, pipe, seed=seed
        )
        try:
            init = fit_init(config, hist)
            result = fit_histogram(hist, config.beams, init=init, omega_i=omega_i)
        except NoModulationError as exc:
            log.warning("trial dropped at %.4g um: %s", amplitude * 1e6, exc)
            continue
        if result.converged:
            amplitudes.append(result.amplitude)
    return amplitudes


def amplitude_sweep(
    config: RunConfig,
    voltages=None,
    trials: int | None = None,
    seed: int | None = None,
):
    """Fit the oscillation amplitude across injection voltages and regress.

    Runs dynamics -> photon pipeline -> fit for each voltage and trial,
    regresses the fitted amplitude on voltage and reports the slope, the
    zero-voltage intercept (free-running amplitude) and regression quality.
    Voltages whose trials all fail the lock criterion are excluded with a
    warning.
    """
    exp = config.experiment
    voltages = list(exp.amplitude_voltages if voltages is None else voltages)
    trials = exp.amplitude_trials if trials is None else trials
    seed = exp.seed if seed is None else seed
    if len(set(voltages)) < 3:
        raise ValueError("need at least three distinct voltages for the regression")

    seeds = _spawn_seeds(seed, len(voltages) * trials)
    rows = []
    kept_v, kept_a = [], []
    for i, voltage in enumerate(voltages):
        # A voltage too weak to hold lock contributes no valid fits.
        if _expected_lock_spread(config, voltage) >= exp.lock_threshold:
            log.warning(
                "voltage %.3g mV fails the lock criterion; excluded", voltage * 1e3
            )
            rows.append(
                {
                    "voltage_mv": voltage * 1e3,
                    "locked": False,
                    "amplitude_um": float("nan"),
                    "amplitude_err_um": float("nan"),
                    "trials": 0,
                }
            )
            continue
        amp_true = _true_amplitude(config, voltage)
        fits = _recover_amplitudes(config, amp_true, seeds[i * trials : (i + 1) * trials])
        if not fits:
            log.warning("no converged fits at %.3g mV; excluded", voltage * 1e3)
            continue
        mean_amp = float(np.mean(fits))
        rows.append(
            {
                "voltage_mv": voltage * 1e3,
                "locked": True,
                "amplitude_um": mean_amp * 1e6,
                "amplitude_err_um": float(np.std(fits)) / math.sqrt(len(fits)) * 1e6,
                "trials": len(fits),
            }
        )
        kept_v.append(voltage)
        kept_a.append(mean_amp)

    if len(kept_v) < 3:
        raise ValueError("fewer than three voltages survived the lock criterion")
    v = np.array(kept_v)
    a = np.array(kept_a)
    design = np.column_stack([v, np.ones_like(v)])
    coef, *_ = np.linalg.lstsq(design, a, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    predicted = design @ coef
    ss_res = float(np.sum((a - predicted) ** 2))
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")

    force_per_volt = config.drive.force_per_volt
    record = CalibrationRecord(
        force_per_volt=force_per_volt,
        amplitude_per_volt=slope,
        amplitude_per_force=slope / force_per_volt,
        free_running_amplitude=intercept,
        r_squared=r_squared,
        residuals=tuple(float(x) for x in (a - predicted)),
    )
    return record, rows


def squeeze_sweep(
    config: RunConfig,
    points=None,
    trials: int | None = None,
    periods: int | None = None,
    seed: int | None = None,
    n_bootstrap: int = 200,
):
    """Relative quadrature variance across the squeeze (gain, phase) grid.

    Simulates the rotating-frame envelope per grid point, normalizes the
    displaced-quadrature variance by the unsqueezed baseline, and overlays
    the closed-form variance ratio.  Bootstrap resampling of trials supplies
    the error bars.  Grid points with g cos(2 phi) >= 1 are flagged as
    unstable and skipped.
    """
    exp = config.experiment
    if points is None:
        points = [(g, p) for g in exp.squeeze_gains for p in exp.squeeze_phases]
    trials = exp.squeeze_trials if trials is None else trials
    periods = exp.squeeze_periods if periods is None else periods
    seed = exp.seed if seed is None else seed

    duration = periods * TWO_PI / config.drive.injection_frequency
    base_drive = replace(
        config.drive, injection_voltage=0.0, squeeze_gain=0.0, squeeze_enabled=False
    )

    def trial_variances(drive, seeds):
        var_y, var_x = [], []
        for s in seeds:
            path = integrate_quadratures(
                config.trap,
                drive,
                config.noise,
                duration,
                seed=s,
                stationary_start=abs(
                    drive.effective_gain * math.cos(2 * drive.squeeze_phase)
                )
                < 1.0,
            )
            var_y.append(float(np.var(path.y)))
            var_x.append(float(np.var(path.x)))
        return np.array(var_y), np.array(var_x)

    rng = np.random.default_rng(seed)
    baseline_seeds = _spawn_seeds(seed, trials)
    base_y, base_x = trial_variances(base_drive, baseline_seeds)
    base_mean = base_y.mean()

    rows = []
    for k, (gain, phase) in enumerate(points):
        modulation = gain * math.cos(2 * phase)
        row = {
            "gain": gain,
            "phase_rad": phase,
            "trials": trials,
            "theory_ratio_y": float("nan"),
            "theory_ratio_x": float("nan"),
            "sim_ratio_y": float("nan"),
            "sim_ratio_y_err": float("nan"),
            "sim_ratio_x": float("nan"),
            "stable": modulation < 1.0,
        }
        if modulation >= 1.0:
            log.warning("unstable squeeze point g=%.3g phi=%.3g skipped", gain, phase)
            rows.append(row)
            continue
        row["theory_ratio_y"] = squeeze_variance_ratio(gain, phase)
        if modulation > -1.0:
            row["theory_ratio_x"] = 1.0 / (1.0 + modulation)
        drive = replace(
            config.drive,
            injection_voltage=0.0,
            squeeze_gain=gain,
            squeeze_phase=phase,
            squeeze_enabled=True,
        )
        point_seeds = _spawn_seeds(seed + 104729 * (k + 1), trials)
        var_y, var_x = trial_variances(drive, point_seeds)
        ratio = var_y.mean() / base_mean
        boots = np.empty(n_bootstrap)
        for b in range(n_bootstrap):
            num = rng.choice(var_y, trials).mean()
            den = rng.choice(base_y, trials).mean()
            boots[b] = num / den
        row["sim_ratio_y"] = float(ratio)
        row["sim_ratio_y_err"] = float(np.std(boots))
        if modulation > -1.0:
            row["sim_ratio_x"] = float(var_x.mean() / base_x.mean())
        rows.append(row)
    summary = {
        "baseline_variance_m2": float(base_mean),
        "thermal_variance_m2": thermal_quadrature_variance(config.drive, config.noise),
    }
    return rows, summary


def lower_bound_search(
    config: RunConfig,
    voltages=None,
    trials: int | None = None,
    squeeze: bool = False,
    seed: int | None = None,
) -> LowerBoundResult:
    """Smallest locking voltage at 90% success probability.

    The injection-locked phase model runs ``trials`` independent 10-second
    trials against thermal plus electrode noise at every grid voltage, the
    whole grid in one stepping loop with one generator per voltage; the
    critical voltage is where the locked fraction crosses 0.9, interpolated
    linearly in log-voltage between the bracketing grid points.  Squeezing
    applies the frequency-doubled drive at full gain and the phase that
    squeezes the phase quadrature (the 3 dB configuration).
    """
    exp = config.experiment
    voltages = list(exp.lower_bound_voltages if voltages is None else voltages)
    trials = exp.lower_bound_trials if trials is None else trials
    seed = exp.seed if seed is None else seed
    if trials < 20:
        raise ValueError("lower-bound protocol needs >= 20 trials per voltage")
    if sorted(voltages) != voltages:
        raise ValueError("voltage grid must be ascending")

    drive_template = replace(
        config.drive,
        squeeze_gain=1.0 if squeeze else 0.0,
        squeeze_phase=math.pi / 2,
        squeeze_enabled=squeeze,
    )

    drives = [replace(drive_template, injection_voltage=voltage) for voltage in voltages]
    spreads = _locked_phase_spreads(
        config.trap,
        drives,
        config.noise,
        config.pipeline.gate_time,
        2e-4,
        _spawn_seeds(seed + (1 if squeeze else 0), len(voltages)),
        config.electric_noise,
        config.free_running_amplitude,
        trials,
    )
    locked = np.count_nonzero(spreads < exp.lock_threshold, axis=1)
    probabilities = [int(n) / trials for n in locked]

    probs = np.array(probabilities)
    above = probs >= 0.9
    if not above.any() or above[0]:
        raise ValueError(
            "90% lock criterion not bracketed by the voltage grid "
            f"(probabilities {probabilities})"
        )
    idx = int(np.argmax(above))
    v1, v2 = voltages[idx - 1], voltages[idx]
    p1, p2 = probabilities[idx - 1], probabilities[idx]
    log_vc = math.log(v1) + (0.9 - p1) * (math.log(v2) - math.log(v1)) / (p2 - p1)
    critical_voltage = math.exp(log_vc)

    return LowerBoundResult(
        voltages=tuple(voltages),
        lock_probability=tuple(probabilities),
        trials=trials,
        critical_voltage=critical_voltage,
        critical_force=critical_voltage * config.drive.force_per_volt,
        squeezing_enabled=squeeze,
    )


def sensitivity_campaign(
    config: RunConfig,
    repetitions: int | None = None,
    voltage: float | None = None,
    seed: int | None = None,
):
    """Empirical sensitivity from repeated pipeline fits at one voltage.

    The scatter of the fitted amplitude over the repetitions gives delta_A;
    the total measurement time is repetitions times the gate time; the
    amplitude-per-force slope comes from the locked-oscillator response.
    The reference formula evaluation is reported alongside.
    """
    exp = config.experiment
    repetitions = exp.repetitions if repetitions is None else repetitions
    voltage = config.drive.injection_voltage if voltage is None else voltage
    seed = exp.seed if seed is None else seed
    if repetitions < 2:
        raise ValueError("need at least two repetitions")

    fitted = _recover_amplitudes(
        config, _true_amplitude(config, voltage), _spawn_seeds(seed, repetitions)
    )
    if len(fitted) < 2:
        raise ValueError("not enough converged fits for a scatter estimate")

    delta_a = float(np.std(fitted, ddof=1))
    tau = repetitions * config.pipeline.gate_time
    slope = config.amplitude_per_force
    report = SensitivityReport(
        delta_a=delta_a,
        tau=tau,
        repetitions=repetitions,
        slope=slope,
        sensitivity=sensitivity(delta_a, tau, slope),
    )
    reference = SensitivityReport(
        delta_a=REFERENCE_DELTA_A,
        tau=REFERENCE_TAU,
        repetitions=repetitions,
        slope=REFERENCE_SLOPE,
        sensitivity=sensitivity(REFERENCE_DELTA_A, REFERENCE_TAU, REFERENCE_SLOPE),
    )
    return report, reference


# ---------------------------------------------------------------------------
# Run records

RUN_RECORD_SCHEMA = 1


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def make_run_record(kind: str, config: RunConfig, seed: int, results) -> dict:
    payload = {
        "schema": RUN_RECORD_SCHEMA,
        "kind": kind,
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "seed": seed,
        "results": results,
    }
    payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    return payload


def persist_run(record: dict, path) -> None:
    """Atomically write a run record (temp file then rename)."""
    atomic_write_text(path, json.dumps(record, indent=1, sort_keys=True) + "\n")


def load_run(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RunRecordError(f"{path}: unreadable run record: {exc}") from exc
    if record.get("schema") != RUN_RECORD_SCHEMA:
        raise RunRecordError(
            f"{path}: schema version {record.get('schema')!r} unsupported"
        )
    stored = record.get("checksum")
    body = {k: v for k, v in record.items() if k != "checksum"}
    expected = hashlib.sha256(_canonical(body).encode()).hexdigest()
    if stored != expected:
        raise RunRecordError(f"{path}: checksum mismatch; record was modified")
    return record


def rerun_record(record: dict) -> dict:
    """Re-execute the campaign stored in a record from its config and seed."""
    config = config_from_dict(record["config"])
    kind = record["kind"]
    seed = record["seed"]
    results = run_campaign(kind, config, seed)
    return make_run_record(kind, config, seed, results)


def run_campaign(kind: str, config: RunConfig, seed: int | None = None):
    """Dispatch a named campaign and return JSON-serializable results."""
    config = canonicalize(config)
    seed = config.experiment.seed if seed is None else seed
    if kind == "calibrate":
        slope = calibrate_force(config.trap, [(3.0, 12e-6)])
        return {
            "force_per_volt_n_per_v": slope,
            "static_force_zn_at_12um_3v": static_force(config.trap, 12e-6) * 1e21,
        }
    if kind == "sweep-amplitude":
        record, rows = amplitude_sweep(config, seed=seed)
        return {
            "rows": rows,
            "amplitude_per_volt_nm_per_mv": record.amplitude_per_volt * 1e9 * 1e-3,
            "amplitude_per_force_nm_per_yn": record.amplitude_per_force * 1e9 * 1e-24,
            "free_running_amplitude_um": record.free_running_amplitude * 1e6,
            "r_squared": record.r_squared,
        }
    if kind == "sweep-squeeze":
        rows, summary = squeeze_sweep(config, seed=seed)
        return {"rows": rows, **summary}
    if kind == "lower-bound":
        results = {}
        for squeeze in (False, True):
            res = lower_bound_search(config, squeeze=squeeze, seed=seed)
            key = "squeezed" if squeeze else "unsqueezed"
            results[key] = {
                "voltages_mv": [v * 1e3 for v in res.voltages],
                "lock_probability": list(res.lock_probability),
                "trials": res.trials,
                "critical_voltage_mv": res.critical_voltage * 1e3,
                "critical_force_yn": res.critical_force * 1e24,
            }
        results["critical_voltage_ratio"] = (
            results["unsqueezed"]["critical_voltage_mv"]
            / results["squeezed"]["critical_voltage_mv"]
        )
        return results
    if kind == "sensitivity":
        report, reference = sensitivity_campaign(config, seed=seed)
        return {
            "delta_a_nm": report.delta_a * 1e9,
            "tau_s": report.tau,
            "repetitions": report.repetitions,
            "slope_nm_per_yn": report.slope * 1e9 * 1e-24,
            "sensitivity_yn_per_sqrt_hz": report.sensitivity * 1e24,
            "reference_sensitivity_yn_per_sqrt_hz": reference.sensitivity * 1e24,
        }
    raise ValueError(f"unknown campaign {kind!r}")
