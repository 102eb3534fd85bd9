"""Measurement campaigns: calibration, sensitivity, squeezing and the
smallest-force (lock lower-bound) search, plus persistent run records.

Each campaign function is pure given (config, seed) and returns the
``results`` its run record holds: a JSON-ready dict of unit-suffixed
values, with row dicts ready for CSV emission; persistence is checksummed
JSON that reproduces bit-identical results on re-run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

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
    envelope_paths,
    stationary_mean_displacement,
    thermal_quadrature_variance,
)
from .fileio import atomic_write_text
from .fitting import (
    DEFAULT_FROZEN,
    PARAM_NAMES,
    FitModelParams,
    FitStack,
    NoModulationError,
    chain_init_params,
    derive_alpha_beta,
    fisher_information,
    fit_histogram,
    initial_guess,
)
from .photons import expected_bin_count, folded_law, synthesize_histogram
from .physics import TrapConfig, squeeze_variance_ratio, static_force

log = logging.getLogger(__name__)

# Reference sensitivity inputs of the published evaluation.
REFERENCE_DELTA_A = 15e-9  # m
REFERENCE_TAU = 500.0  # s
REFERENCE_SLOPE = 0.9979e-9 / 1e-24  # m/N

# Envelope trials integrated per call in the squeeze sweep.  Batching makes
# the variance calls and each call's setup per batch rather than per trial,
# so two sweep workers seldom hand the interpreter lock back and forth; 8
# trials of 10 000 periods take about 1.3 MB.
ENVELOPE_BATCH = 8

# Histograms fitted per Levenberg-Marquardt loop by the recovery campaigns.
# A stack forms its model passes, residuals and step algebra once per
# iteration for all of its fits, which pays numpy's per-call costs once.  A
# round of the jittered recovery benchmark took 0.083, 0.071, 0.068 and
# 0.067 s of CPU at stacks of 8, 16, 24 and 32, and peaked at 41.5, 41.8,
# 42.3 and 42.9 MB: past 16, each 1% is bought with about 0.5 MB.
FIT_STACK = 16

SQUEEZE_BOOTSTRAP = 200  # resamples behind each squeeze point's error bar

# Locked-phase step of the lower-bound search, in s.  The critical voltage
# depends on it until the electrode force is integrated exactly (ROADMAP 3).
LOWER_BOUND_STEP = 2e-4


class RunRecordError(ValueError):
    """Corrupt, tampered or incompatible run record."""


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


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_concurrently(fn, jobs, processes: bool = False) -> list:
    """``[fn(job) for job in jobs]``, with the calls run on a pool.

    The pool holds threads, or with ``processes`` forked worker processes,
    whose calls do not share the interpreter lock; ``fn``, the jobs and the
    results must then pickle, and the caller must run no other thread, as
    forking copies no thread but the calling one.  The jobs must share no
    generator or other mutable state.  Results come back in submission
    order, so they do not depend on the number of workers.  The calls run
    in series when one CPU is available, or when processes are asked for
    on a platform that cannot fork.  A job's exception is raised here once
    every worker has ended.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _available_cpus())
    if processes:
        # Imported here, by the one caller that forks, so that the other
        # campaigns do not pay for the import.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [fn(job) for job in jobs]
    if processes:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    else:
        pool = ThreadPoolExecutor(workers)
    with pool:
        return list(pool.map(fn, jobs))


def _true_amplitude(config: RunConfig, voltage: float) -> float:
    """Operating amplitude at an injection voltage: free-running plus response."""
    drive = replace(config.drive, injection_voltage=voltage)
    return config.free_running_amplitude + stationary_mean_displacement(
        config.trap, drive, config.noise
    )


def _expected_lock_spread(config: RunConfig, voltage: float) -> float:
    """Small-signal locked phase spread sqrt(D / w_L) of the phase model.

    As in the locked-phase engine, the squeeze drive's quadrature variance
    ratio scales both the thermal diffusion and the electrode force
    variance.
    """
    drive = replace(config.drive, injection_voltage=voltage)
    torque_scale = 2.0 * config.trap.mass * config.trap.secular_z * config.free_running_amplitude
    lock_rate = drive.force / torque_scale
    if lock_rate == 0:
        return math.inf
    diffusion = config.noise.force_spectral_density(config.trap.mass) / (2.0 * torque_scale**2)
    en = config.electric_noise
    force_rms = en.rms_voltage * drive.force_per_volt
    diffusion += (force_rms**2 / 2.0) * en.correlation_time / torque_scale**2
    diffusion *= squeeze_variance_ratio(drive.effective_gain, drive.squeeze_phase)
    return math.sqrt(diffusion / lock_rate)


def fit_init(config: RunConfig, hist):
    """Fit start of a histogram taken under ``config``: the reference phase,
    the amplitude the initial guess gives at that phase, and the
    detection-chain alpha/beta and jitter."""
    pipe, phase = config.pipeline, config.experiment.reference_phase
    amplitude = initial_guess(hist, config.beams, phase, sigma_t=pipe.timing_jitter)
    return chain_init_params(
        hist,
        pipe.efficiency,
        pipe.snr,
        amplitude=amplitude,
        phase=phase,
        sigma_t=pipe.timing_jitter,
    )


def _amplitude_crb(config: RunConfig, amplitude: float) -> float:
    """Cramer-Rao bound of one gate's fitted amplitude.

    The Fisher information of the parameters the campaigns fit is taken at
    the true amplitude and the reference phase, with alpha and beta at
    their detection-chain values for the gate's mean count.
    """
    pipe = config.pipeline
    omega_i = config.drive.injection_frequency
    period = TWO_PI / omega_i
    phase = config.experiment.reference_phase
    mean_signal, _, _ = folded_law(tuple(config.beams), amplitude, phase, omega_i, pipe)
    alpha, beta = derive_alpha_beta(
        pipe.efficiency,
        pipe.gate_time,
        expected_bin_count(period, pipe.bin_width),
        mean_signal * (1.0 + 1.0 / pipe.snr),
        pipe.snr,
    )
    params = FitModelParams(amplitude, phase, alpha, beta, pipe.timing_jitter)
    free = [name for name in PARAM_NAMES if name not in DEFAULT_FROZEN]
    info = fisher_information(params, config.beams, period, pipe.bin_width, free)
    j = free.index("amplitude")
    return math.sqrt(np.linalg.inv(info)[j, j])


def _recover_amplitudes(config: RunConfig, trials) -> list[float | None]:
    """Synthesize one histogram per ``(amplitude, seed)`` trial and fit it;
    each trial's converged amplitude, or None for a dropped one.

    Each histogram is guessed as it is drawn, and the fits run in stacks of
    :data:`FIT_STACK` (:class:`FitStack`) in trial order, each stack once
    it is full; each fit is still one :func:`fit_histogram` call, so the
    benchmark's span around that name sees every fit and every stack's
    loop.  A histogram too flat to fit
    (:class:`NoModulationError`) is dropped before stacking, and an
    unconverged fit is dropped like it.
    """
    exp, pipe = config.experiment, config.pipeline
    omega_i = config.drive.injection_frequency
    fitted, stack = [None] * len(trials), []
    for k, (amplitude, seed) in enumerate(trials):
        hist = synthesize_histogram(
            config.beams, amplitude, exp.reference_phase, omega_i, pipe, seed=seed
        )
        try:
            stack.append((k, hist, fit_init(config, hist)))
        except NoModulationError as exc:
            log.warning("trial dropped at %.4g um: %s", amplitude * 1e6, exc)
        # A stack is fitted once it is full, or at the last trial.
        if stack and (len(stack) == FIT_STACK or k == len(trials) - 1):
            hists, inits = [hist for _, hist, _ in stack], [init for _, _, init in stack]
            lockstep = FitStack(hists, config.beams, inits)
            for j, hist, init in stack:
                result = fit_histogram(hist, config.beams, init, stack=lockstep)
                if result.converged:
                    fitted[j] = result.amplitude
            stack = []
    return fitted


def amplitude_sweep(config: RunConfig, seed: int | None = None):
    """Fit the oscillation amplitude across injection voltages and regress.

    Runs dynamics -> photon pipeline -> fit for each voltage of
    ``experiment.amplitude_voltages`` and each of ``amplitude_trials`` trials,
    regresses the fitted amplitude on voltage and returns the rows, the
    slope per volt and per force, the zero-voltage intercept (free-running
    amplitude) and the regression's R^2.
    Voltages that fail the lock criterion, or keep no converged fit, are
    excluded from the regression with a warning; their rows stay, with a
    NaN amplitude.  Each row counts the fits it kept (``trials``) and the
    trials it dropped because the histogram was flat or the fit did not
    converge (``dropped``).
    """
    exp = config.experiment
    voltages, trials = exp.amplitude_voltages, exp.amplitude_trials
    seed = exp.seed if seed is None else seed
    seeds = _spawn_seeds(seed, len(voltages) * trials)
    rows, locked, recoveries = [], [], []
    for i, voltage in enumerate(voltages):
        row = {
            "voltage_mv": voltage * 1e3,
            "locked": True,
            "amplitude_um": math.nan,
            "amplitude_err_um": math.nan,
            "trials": 0,
            "dropped": 0,
        }
        rows.append(row)
        # A voltage too weak to hold lock contributes no valid fits.
        if _expected_lock_spread(config, voltage) >= exp.lock_threshold:
            log.warning(
                "voltage %.3g mV fails the lock criterion; excluded", voltage * 1e3
            )
            row["locked"] = False
            continue
        amp_true = _true_amplitude(config, voltage)
        locked.append((row, voltage))
        recoveries += [(amp_true, s) for s in seeds[i * trials : (i + 1) * trials]]

    # The trials of every locked voltage are fitted together, in order.
    fitted = _recover_amplitudes(config, recoveries)
    kept_v, kept_a = [], []
    for j, (row, voltage) in enumerate(locked):
        fits = [a for a in fitted[j * trials : (j + 1) * trials] if a is not None]
        row["trials"], row["dropped"] = len(fits), trials - len(fits)
        if not fits:
            log.warning("no converged fits at %.3g mV; excluded", voltage * 1e3)
            continue
        mean_amp = float(np.mean(fits))
        row["amplitude_um"] = mean_amp * 1e6
        row["amplitude_err_um"] = float(np.std(fits)) / math.sqrt(len(fits)) * 1e6
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

    return {
        "rows": rows,
        "amplitude_per_volt_nm_per_mv": slope * 1e9 * 1e-3,
        "amplitude_per_force_nm_per_yn": slope / config.drive.force_per_volt * 1e9 * 1e-24,
        "free_running_amplitude_um": intercept * 1e6,
        "r_squared": r_squared,
    }


def squeeze_sweep(config: RunConfig, points=None, seed: int | None = None):
    """Relative quadrature variance across the squeeze (gain, phase) grid.

    Simulates the rotating-frame envelope per grid point, ``squeeze_trials``
    trials of ``squeeze_periods`` injection periods each, normalizes the
    displaced-quadrature variance by the unsqueezed baseline, and overlays
    the closed-form variance ratio.  Bootstrap resampling of trials supplies
    the error bars.  Grid points with g cos(2 phi) >= 1 are flagged as
    unstable and skipped.  The grid is ``squeeze_gains`` x ``squeeze_phases``
    unless ``points`` lists (gain, phase) pairs: the one way to sweep another
    grid, or a gain above 1, which the config rejects and the sweep flags.
    """
    exp = config.experiment
    if points is None:
        points = [(g, p) for g in exp.squeeze_gains for p in exp.squeeze_phases]
    trials = exp.squeeze_trials
    seed = exp.seed if seed is None else seed
    duration = exp.squeeze_periods * TWO_PI / config.drive.injection_frequency
    base_drive = replace(
        config.drive, injection_voltage=0.0, squeeze_gain=0.0, squeeze_enabled=False
    )

    # Every stable point's trials have their own seeds, so the envelope
    # batches of the baseline and of every point are integrated
    # concurrently; the rows and the bootstrap, which share one generator,
    # then follow in grid order.
    jobs = [(base_drive, _spawn_seeds(seed, trials))]
    for k, (gain, phase) in enumerate(points):
        if gain * math.cos(2 * phase) < 1.0:
            drive = replace(
                config.drive,
                injection_voltage=0.0,
                squeeze_gain=gain,
                squeeze_phase=phase,
                squeeze_enabled=True,
            )
            jobs.append((drive, _spawn_seeds(seed + 104729 * (k + 1), trials)))
    batches = [
        (drive, seeds[first : first + ENVELOPE_BATCH])
        for drive, seeds in jobs
        for first in range(0, trials, ENVELOPE_BATCH)
    ]

    def batch_variances(batch):
        drive, seeds = batch
        stationary = abs(drive.effective_gain * math.cos(2 * drive.squeeze_phase)) < 1.0
        path = envelope_paths(
            config.trap, drive, config.noise, duration, seeds, stationary_start=stationary
        )
        return np.array([np.var(path.y, axis=1), np.var(path.x, axis=1)])

    # (var_y, var_x) of every job's trials, in job order.
    done = _run_concurrently(batch_variances, batches)
    per_job = len(done) // len(jobs)
    variances = (
        np.concatenate(done[first : first + per_job], axis=1)
        for first in range(0, len(done), per_job)
    )
    rng = np.random.default_rng(seed)
    base_y, base_x = next(variances)
    base_mean = base_y.mean()
    if not base_mean > 0:
        raise ValueError(
            "the unsqueezed baseline variance is 0 (no thermal noise), so no squeeze "
            "ratio is defined"
        )

    rows = []
    for gain, phase in points:
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
        var_y, var_x = next(variances)
        ratio = var_y.mean() / base_mean
        boots = np.empty(SQUEEZE_BOOTSTRAP)
        for b in range(SQUEEZE_BOOTSTRAP):
            num = rng.choice(var_y, trials).mean()
            den = rng.choice(base_y, trials).mean()
            boots[b] = num / den
        row["sim_ratio_y"] = float(ratio)
        row["sim_ratio_y_err"] = float(np.std(boots))
        if modulation > -1.0:
            row["sim_ratio_x"] = float(var_x.mean() / base_x.mean())
        rows.append(row)
    thermal = thermal_quadrature_variance(config.trap, config.drive, config.noise)
    return {"rows": rows, "baseline_variance_m2": float(base_mean), "thermal_variance_m2": thermal}


def lower_bound_search(config: RunConfig, squeeze: bool = False, seed: int | None = None):
    """Smallest locking voltage at 90% success probability.

    The injection-locked phase model runs ``lower_bound_trials`` independent
    trials of one gate time against thermal plus electrode noise at every
    voltage of ``lower_bound_voltages``, the whole grid in one stepping loop
    with one generator per voltage; the critical voltage is where the locked
    fraction crosses 0.9, interpolated linearly in log-voltage between the
    bracketing grid points.  Squeezing applies the frequency-doubled drive
    at full gain and the phase that squeezes the phase quadrature (the 3 dB
    configuration).  Returns the search's section of the lower-bound record:
    the voltage grid, the locked fraction at each voltage, the trial count,
    and the critical voltage and force.
    """
    exp = config.experiment
    voltages, trials = exp.lower_bound_voltages, exp.lower_bound_trials
    seed = exp.seed if seed is None else seed

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
        LOWER_BOUND_STEP,
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

    return {
        "voltages_mv": [v * 1e3 for v in voltages],
        "lock_probability": probabilities,
        "trials": trials,
        "critical_voltage_mv": critical_voltage * 1e3,
        "critical_force_yn": critical_voltage * config.drive.force_per_volt * 1e24,
    }


def sensitivity_campaign(config: RunConfig, seed: int | None = None):
    """Empirical sensitivity from repeated pipeline fits at one voltage.

    The fits run ``experiment.repetitions`` gates at the drive's injection
    voltage.  The scatter of the fitted amplitude over the repetitions
    gives delta_A; the total measurement time is repetitions times the
    gate time; the amplitude-per-force slope comes from the
    locked-oscillator response.  The results count the repetitions dropped
    as flat or unconverged, and hold the Cramer-Rao bound of one gate's
    amplitude, the scatter an efficient fit would reach, and the published
    evaluation's reference sensitivity.
    """
    repetitions = config.experiment.repetitions
    seed = config.experiment.seed if seed is None else seed
    amplitude = _true_amplitude(config, config.drive.injection_voltage)
    trials = [(amplitude, s) for s in _spawn_seeds(seed, repetitions)]
    fitted = [a for a in _recover_amplitudes(config, trials) if a is not None]
    if len(fitted) < 2:
        raise ValueError("not enough converged fits for a scatter estimate")

    delta_a = float(np.std(fitted, ddof=1))
    tau = repetitions * config.pipeline.gate_time
    slope = config.amplitude_per_force
    # The ratio of the reported values, so that it is exactly their ratio.
    delta_a_nm, delta_a_crb_nm = delta_a * 1e9, _amplitude_crb(config, amplitude) * 1e9
    reference = sensitivity(REFERENCE_DELTA_A, REFERENCE_TAU, REFERENCE_SLOPE)
    return {
        "delta_a_nm": delta_a_nm,
        "delta_a_crb_nm": delta_a_crb_nm,
        "delta_a_over_crb": delta_a_nm / delta_a_crb_nm,
        "tau_s": tau,
        "repetitions": repetitions,
        "dropped": repetitions - len(fitted),
        "slope_nm_per_yn": slope * 1e9 * 1e-24,
        "sensitivity_yn_per_sqrt_hz": sensitivity(delta_a, tau, slope) * 1e24,
        "reference_sensitivity_yn_per_sqrt_hz": reference * 1e24,
    }


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
    if not isinstance(record, dict):
        raise RunRecordError(f"{path}: run record is a JSON {type(record).__name__}, not an object")
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


def _search(config: RunConfig, seed: int, squeeze: bool) -> dict:
    """One lower-bound search, as the lower-bound record holds it."""
    # Pickled by name, it finds the search as a module global: a wrapper set there need not pickle.
    return lower_bound_search(config, squeeze=squeeze, seed=seed)


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
        return amplitude_sweep(config, seed=seed)
    if kind == "sweep-squeeze":
        return squeeze_sweep(config, seed=seed)
    if kind == "lower-bound":
        # The two searches share no state, and their step loops hold the
        # interpreter lock, so they run in forked processes; spawned ones
        # would import numpy and the package again (about 0.3 s each), which
        # costs more than it saves.
        unsqueezed, squeezed = _run_concurrently(
            partial(_search, config, seed), (False, True), processes=True
        )
        return {
            "unsqueezed": unsqueezed,
            "squeezed": squeezed,
            "critical_voltage_ratio": unsqueezed["critical_voltage_mv"]
            / squeezed["critical_voltage_mv"],
        }
    if kind == "sensitivity":
        return sensitivity_campaign(config, seed=seed)
    raise ValueError(f"unknown campaign {kind!r}")
