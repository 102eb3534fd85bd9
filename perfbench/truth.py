"""Quantities the benchmark computes apart from the program, and the checks
that compare the program's campaign results with them.

Everything here reads the raw numbers of the YAML mapping the benchmark
wrote; nothing calls into ``phonon_sensor``.
"""

from __future__ import annotations

import math

import numpy as np

ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg (CODATA 2018)

# The amplitude error bars come from 4 fits per voltage; pooled over the
# grid that is a t statistic with about 18 degrees of freedom, whose tail
# beyond 6 is about 1e-5.  5 standard errors would be about 1e-4.
AMPLITUDE_TOLERANCE = 6.0
# The bootstrap error of a squeeze ratio is close to Gaussian.
SQUEEZE_TOLERANCE = 5.0
# Standard deviations allowed for the photon budget and for a dip of the
# locked fraction between neighbouring grid voltages.
COUNT_TOLERANCE = 5.0
LOCK_TOLERANCE = 3.0
# Acceptance band of the squeezed/unsqueezed critical-voltage ratio; the
# paper gives 2.
RATIO_BAND = (1.5, 2.5)


def amplitude_per_volt_nm_per_mv(config: dict) -> float:
    """Locked response kappa / (m zeta w_z) of the oscillation amplitude."""
    physics = config["physics"]
    kappa = physics["drive"]["force_per_volt_yn_per_mv"] * 1e-24 / 1e-3  # N/V
    mass = physics["trap"]["mass_amu"] * ATOMIC_MASS_UNIT
    zeta = physics["noise"]["damping_rate_per_s"]
    omega_z = 2 * math.pi * physics["trap"]["axial_hz"]
    return kappa / (mass * zeta * omega_z) * 1e9 * 1e-3


def true_amplitude_um(config: dict, voltage_mv: float) -> float:
    """Free-running amplitude plus the locked response at a voltage."""
    a0 = config["physics"]["free_running_amplitude_um"]
    return a0 + voltage_mv * amplitude_per_volt_nm_per_mv(config) * 1e-3


def mean_scattering_rate(config: dict, amplitude_um: float, n_points: int = 1 << 16) -> float:
    """Period average of the summed Lorentzian scattering rate, photons/s.

    Each beam scatters (Gamma s / 4 pi) / (1 + s + 4 ((Delta - k v) / Gamma)^2)
    with v = omega A cos(theta); the average over theta uses the midpoint
    rule, which converges geometrically for a smooth periodic integrand.
    """
    physics = config["physics"]
    omega = 2 * math.pi * physics["drive"]["injection_frequency_hz"]
    theta = (np.arange(n_points) + 0.5) * (2 * math.pi / n_points)
    velocity = omega * amplitude_um * 1e-6 * np.cos(theta)
    total = np.zeros(n_points)
    for beam in physics["beams"]:
        gamma = 2 * math.pi * beam["linewidth_hz"]
        detuning = 2 * math.pi * beam["detuning_hz"]
        k = 2 * math.pi / (beam["wavelength_nm"] * 1e-9)
        s = beam["saturation"]
        ratio = (detuning - k * velocity) / gamma
        total += (gamma * s / (4 * math.pi)) / (1 + s + 4 * ratio**2)
    return float(total.mean())


def expected_counts(config: dict, amplitude_um: float) -> tuple[float, float]:
    """Mean and standard deviation of a histogram's total counts at an
    oscillation amplitude.

    Signal photons are Poisson with mean mu = eta gate <R>; the background
    is Poisson with mean N_signal / SNR, so the total has mean
    mu (1 + 1/SNR) and variance mu (1 + 1/SNR)^2 + mu / SNR.
    """
    pipeline = config["pipeline"]
    mu = pipeline["efficiency"] * pipeline["gate_time_s"] * mean_scattering_rate(config, amplitude_um)
    snr = pipeline["snr"]
    return mu * (1 + 1 / snr), math.sqrt(mu * (1 + 1 / snr) ** 2 + mu / snr)


def sample_variance_factor(rate: float, n_points: int, dt: float) -> float:
    """E[np.var(u)] / var(u) for n_points of a stationary AR(1) sequence.

    With lag-k correlation rho^k, rho = exp(-rate dt), the mean of the
    population-normalized sample variance is
    1 - (1 + 2 sum_k (1 - k/n) rho^k) / n.
    """
    rho = math.exp(-rate * dt)
    lags = np.arange(1, n_points)
    correlation_sum = float(np.sum((1 - lags / n_points) * rho**lags))
    return 1 - (1 + 2 * correlation_sum) / n_points


def expected_squeeze_ratio(config: dict, gain: float, phase: float) -> float:
    """Mean of the simulated var(Y) ratio: the squeeze law 1 / (1 - g cos 2phi)
    times the finite-record bias of each sample variance.

    The displaced quadrature relaxes at (zeta / 2)(1 - g cos 2phi); the
    envelope is sampled once per injection period over squeeze_periods.
    """
    modulation = gain * math.cos(2 * phase)
    zeta = config["physics"]["noise"]["damping_rate_per_s"]
    dt = 1.0 / config["physics"]["drive"]["injection_frequency_hz"]
    n_points = config["experiment"]["squeeze_periods"] + 1
    bias = sample_variance_factor(0.5 * zeta * (1 - modulation), n_points, dt)
    baseline = sample_variance_factor(0.5 * zeta, n_points, dt)
    return bias / baseline / (1 - modulation)


# ---------------------------------------------------------------------------
# Checks.  Each takes the op's configuration mapping and the run record's
# results and returns a list of messages, empty when the check passes.


def check_rows_locked(config: dict, results: dict) -> list[str]:
    rows = results["rows"]
    want = config["experiment"]["amplitude_voltages_mv"]
    problems = []
    if [round(r["voltage_mv"], 9) for r in rows] != [round(v, 9) for v in want]:
        problems.append(f"rows at {[r['voltage_mv'] for r in rows]} mV, expected {want}")
    unlocked = [r["voltage_mv"] for r in rows if not r["locked"]]
    if unlocked:
        problems.append(f"voltages {unlocked} mV judged unlocked")
    return problems


def check_amplitude_truth(config: dict, results: dict) -> list[str]:
    """Pooled mean amplitude and regressed slope against A0 + V kappa/(m zeta w_z)."""
    rows = [r for r in results["rows"] if r["locked"]]
    if len(rows) < 3:
        return [f"only {len(rows)} locked rows"]
    volts = np.array([r["voltage_mv"] for r in rows])
    amps = np.array([r["amplitude_um"] for r in rows]) * 1e3  # nm
    errs = np.array([r["amplitude_err_um"] for r in rows]) * 1e3
    counts = np.array([r["trials"] for r in rows], dtype=float)
    truth = np.array([true_amplitude_um(config, v) for v in volts]) * 1e3
    # The reported error is std(ddof=0)/sqrt(n); pool the unbiased
    # per-voltage variances into one per-fit variance.
    dof = float(np.sum(counts - 1))
    if dof <= 0:
        return ["no degrees of freedom for an error estimate"]
    pooled = math.sqrt(float(np.sum(errs**2 * counts**2)) / dof)
    sigma = pooled / np.sqrt(counts)
    problems = []

    offset = float(np.mean(amps - truth))
    offset_err = math.sqrt(float(np.sum(sigma**2))) / len(rows)
    if not abs(offset) <= AMPLITUDE_TOLERANCE * offset_err:
        problems.append(
            f"pooled amplitude off by {offset:+.1f} nm "
            f"({offset / offset_err:+.1f} x {offset_err:.1f} nm)"
        )

    dv = volts - volts.mean()
    slope_err = math.sqrt(float(np.sum(dv**2 * sigma**2))) / float(np.sum(dv**2))
    slope = results["amplitude_per_volt_nm_per_mv"]
    want = amplitude_per_volt_nm_per_mv(config)
    if not abs(slope - want) <= AMPLITUDE_TOLERANCE * slope_err:
        problems.append(
            f"slope {slope:.2f} nm/mV against {want:.2f} "
            f"({(slope - want) / slope_err:+.1f} x {slope_err:.2f})"
        )
    return problems


def check_delta_a(config: dict, results: dict) -> list[str]:
    delta_a = results["delta_a_nm"]
    if not (math.isfinite(delta_a) and delta_a > 0):
        return [f"delta_a = {delta_a!r} nm is not positive and finite"]
    return []


def check_squeeze_law(config: dict, results: dict) -> list[str]:
    exp = config["experiment"]
    rows = results["rows"]
    problems = []
    if len(rows) != len(exp["squeeze_gains"]) * len(exp["squeeze_phases_rad"]):
        problems.append(f"{len(rows)} grid rows")
    for row in rows:
        gain, phase = row["gain"], row["phase_rad"]
        stable = gain * math.cos(2 * phase) < 1.0
        where = f"g={gain:g} phi={phase:.3f}"
        if row["stable"] != stable:
            problems.append(f"{where}: stable flag {row['stable']}")
            continue
        if not stable:
            continue
        err = row["sim_ratio_y_err"]
        want = expected_squeeze_ratio(config, gain, phase)
        if not (err > 0 and abs(row["sim_ratio_y"] - want) <= SQUEEZE_TOLERANCE * err):
            problems.append(
                f"{where}: var(Y) ratio {row['sim_ratio_y']:.4f} +/- {err:.4f}, "
                f"expected {want:.4f}"
            )
    return problems


def check_lock_fractions(config: dict, results: dict) -> list[str]:
    problems = []
    for key in ("unsqueezed", "squeezed"):
        section = results[key]
        p = section["lock_probability"]
        trials = section["trials"]
        if p[0] != 0.0 or p[-1] != 1.0:
            problems.append(f"{key}: locked fraction {p[0]} at the lowest voltage, {p[-1]} at the highest")
        for lo, hi in zip(p, p[1:]):
            mean = 0.5 * (lo + hi)
            allowed = LOCK_TOLERANCE * math.sqrt(2 * mean * (1 - mean) / trials) + 1 / trials
            if hi < lo - allowed:
                problems.append(f"{key}: locked fraction falls from {lo} to {hi}")
    return problems


def check_critical_ratio(config: dict, results: dict) -> list[str]:
    unsqueezed = results["unsqueezed"]["critical_voltage_mv"]
    squeezed = results["squeezed"]["critical_voltage_mv"]
    ratio = results["critical_voltage_ratio"]
    problems = []
    if not squeezed < unsqueezed:
        problems.append(f"squeezed critical voltage {squeezed} mV not below {unsqueezed} mV")
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        problems.append(f"critical-voltage ratio {ratio:.3f} outside {RATIO_BAND}")
    return problems


CHECKS = {
    "rows-locked": check_rows_locked,
    "amplitude-truth": check_amplitude_truth,
    "delta-a": check_delta_a,
    "squeeze-law": check_squeeze_law,
    "lock-fractions": check_lock_fractions,
    "critical-ratio": check_critical_ratio,
}
