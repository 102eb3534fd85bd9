"""Stochastic time-domain simulation of the locked oscillator.

Three complementary integrators:

* :func:`integrate_langevin` - the full second-order equation of motion with
  thermal forcing, parametric (squeeze) modulation and optionally the
  saturable radiation-pressure force that produces the self-sustained limit
  cycle; it cross-checks the envelope model.
* :func:`integrate_quadratures` - the linearized rotating-frame envelope
  equations for the in-phase/quadrature components, integrated with exact
  Gaussian transition steps (no step-size bias).
* :func:`_locked_phase_spreads` - the injection-locked phase model used by
  the smallest-force protocol: the oscillation phasor is pinned at the
  free-running amplitude while its phase feels the injection restoring
  torque, thermal diffusion and band-limited electrode noise.  It steps the
  trials of a whole voltage grid as the columns of one loop, drawing each
  voltage's normals a chunk of steps at a time, and judges lock as it
  steps, so the phase array is never stored; :func:`detect_lock` judges a
  stored phase array through the same circular-spread helper.

Thermal forcing follows the narrowband decomposition
f(t) = f_x(t) cos(w t) + f_y(t) sin(w t) with slowly varying white Gaussian
components of spectral density 2 m zeta k_B T, which makes the stationary
quadrature variances equal k_B T / (2 m w^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    BOLTZMANN,
    DEFAULT_DAMPING_RATE,
    DOPPLER_TEMPERATURE,
    ION_MASS,
    TWO_PI,
)
from .physics import (
    DriveConfig,
    InstabilityError,
    TrapConfig,
    squeeze_variance_ratio,
    total_radiation_pressure_force,
)

MIN_STEPS_PER_PERIOD = 50
DEFAULT_STEPS_PER_PERIOD = 200
DEFAULT_LOCK_THRESHOLD = 0.3  # rad
PHASE_CHUNK = 500  # locked-phase steps whose normals are drawn at once


@dataclass
class QuadraturePath:
    """Slow in-phase/quadrature components (X, Y) of the oscillation."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.x) == len(self.y)):
            raise ValueError("quadrature arrays must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def amplitude(self) -> np.ndarray:
        return np.hypot(self.x, self.y)

    @property
    def phase(self) -> np.ndarray:
        return np.arctan2(self.y, self.x)


@dataclass(frozen=True)
class NoiseModel:
    """Thermal bath and effective damping of the locked oscillator."""

    temperature: float = DOPPLER_TEMPERATURE  # K
    damping: float = DEFAULT_DAMPING_RATE  # 1/s
    mass: float = ION_MASS  # kg

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")
        if self.mass <= 0:
            raise ValueError("mass must be > 0")

    def force_spectral_density(self) -> float:
        """Two-sided spectral density 2 m zeta k_B T of each slow component."""
        return 2.0 * self.mass * self.damping * BOLTZMANN * self.temperature


@dataclass(frozen=True)
class ElectricNoise:
    """Band-limited voltage noise on the injection electrode.

    Modeled as Ornstein-Uhlenbeck force components in the rotating frame;
    the correlation time is calibrated so the smallest-force protocol
    reproduces the observed critical voltage with the default 2 mV level.
    """

    rms_voltage: float = 2e-3  # V
    correlation_time: float = 5e-5  # s

    def __post_init__(self):
        if self.rms_voltage < 0:
            raise ValueError("rms_voltage must be >= 0")
        if self.correlation_time <= 0:
            raise ValueError("correlation_time must be > 0")


def _squeeze_modulation(drive: DriveConfig) -> float:
    return drive.effective_gain * math.cos(2.0 * drive.squeeze_phase)


def integrate_langevin(
    trap: TrapConfig,
    beams,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None = None,
    seed: int = 0,
    nonlinear: bool = False,
    initial_position: float = 0.0,
    initial_velocity: float = 0.0,
    n_trajectories: int = 1,
):
    """Integrate the driven, damped, parametrically modulated oscillator.

    Linear mode uses the constant friction rate of ``noise``; the nonlinear
    mode replaces it with the saturable radiation-pressure force of the beam
    pair, which self-amplifies small motion into a stable limit cycle.
    Steps ``n_trajectories`` independent runs together and returns
    ``(times, z[step, traj], v[step, traj])``.  Deterministic for a given
    seed.
    """
    omega_i = drive.injection_frequency
    period = TWO_PI / trap.secular_z
    if dt is None:
        dt = period / DEFAULT_STEPS_PER_PERIOD
    if dt > period / MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"dt = {dt:.3e} s too coarse; need <= {period / MIN_STEPS_PER_PERIOD:.3e} s"
        )
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if not nonlinear and _squeeze_modulation(drive) >= 1.0:
        raise InstabilityError(
            "g cos(2 phi) >= 1: parametric drive exceeds the linear damping"
        )

    rng = np.random.default_rng(seed)
    n_steps = int(round(duration / dt))
    mass = trap.mass
    zeta = noise.damping
    wz2 = trap.secular_z**2
    par_coeff = drive.effective_gain * zeta * trap.secular_z
    two_phi = 2.0 * drive.squeeze_phase
    force_amp = drive.force

    # Slow thermal quadrature forces, refreshed once per oscillation period.
    refresh = max(1, int(round(period / dt)))
    sigma_f = math.sqrt(noise.force_spectral_density() / (refresh * dt))

    beams = tuple(beams)

    def accel(z, v, t, fx, fy):
        a = -(wz2 + par_coeff * math.sin(2.0 * omega_i * t + two_phi)) * z
        if nonlinear:
            a = a + total_radiation_pressure_force(beams, v) / mass
        else:
            a = a - zeta * v
        thermal = fx * math.cos(omega_i * t) + fy * math.sin(omega_i * t)
        return a + (force_amp * math.sin(omega_i * t) + thermal) / mass

    shape = (n_trajectories,)
    z = np.full(shape, initial_position, dtype=float)
    v = np.full(shape, initial_velocity, dtype=float)
    fx = np.zeros(shape)
    fy = np.zeros(shape)

    times = np.arange(n_steps + 1) * dt
    zs = np.empty((n_steps + 1, n_trajectories))
    vs = np.empty((n_steps + 1, n_trajectories))
    zs[0], vs[0] = z, v

    for i in range(n_steps):
        t = i * dt
        if i % refresh == 0 and sigma_f > 0:
            fx = rng.normal(0.0, sigma_f, shape)
            fy = rng.normal(0.0, sigma_f, shape)
        a1 = accel(z, v, t, fx, fy)
        z_new = z + v * dt + 0.5 * a1 * dt * dt
        v_pred = v + a1 * dt
        a2 = accel(z_new, v_pred, t + dt, fx, fy)
        v = v + 0.5 * (a1 + a2) * dt
        z = z_new
        zs[i + 1], vs[i + 1] = z, v

    return times, zs, vs


def integrate_quadratures(
    trap: TrapConfig,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    seed: int = 0,
    initial_x: float = 0.0,
    initial_y: float = 0.0,
    stationary_start: bool = False,
) -> QuadraturePath:
    """Integrate the rotating-frame envelope equations.

    dX/dt = -(zeta/2)(1 + g cos 2phi) X + f_x/(2 m w_z)
    dY/dt = -(zeta/2)(1 - g cos 2phi) Y + (F0 + f_y)/(2 m w_z)

    Steps one injection period at a time with the exact Gaussian transition
    of the Ornstein-Uhlenbeck process, so stationary statistics carry no
    discretization bias.  ``stationary_start`` draws the initial point from
    the stationary distribution instead of using the given initial values.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if noise.damping <= 0:
        raise ValueError("the envelope model needs a positive damping rate")
    modulation = _squeeze_modulation(drive)
    if modulation >= 1.0:
        raise InstabilityError(
            f"g cos(2 phi) = {modulation:.6g} >= 1: displaced quadrature diverges"
        )
    if modulation < -1.0:
        raise InstabilityError(
            f"g cos(2 phi) = {modulation:.6g} < -1: in-phase quadrature diverges"
        )

    dt = TWO_PI / drive.injection_frequency
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one step")

    rng = np.random.default_rng(seed)
    denom = 2.0 * noise.mass * trap.secular_z
    diffusion = noise.force_spectral_density() / denom**2  # white-noise intensity
    lam_x = 0.5 * noise.damping * (1.0 + modulation)
    lam_y = 0.5 * noise.damping * (1.0 - modulation)
    mean_y = drive.force / (denom * lam_y)

    def step_params(lam):
        if lam > 0:
            decay = math.exp(-lam * dt)
            var = diffusion * (1.0 - decay * decay) / (2.0 * lam)
        else:
            decay = 1.0  # marginal quadrature: pure random walk
            var = diffusion * dt
        return decay, math.sqrt(var)

    decay_x, sd_x = step_params(lam_x)
    decay_y, sd_y = step_params(lam_y)

    if stationary_start:
        if lam_x <= 0 or lam_y <= 0:
            raise InstabilityError("no stationary state at |g cos 2 phi| = 1")
        x0 = rng.normal(0.0, math.sqrt(diffusion / (2.0 * lam_x)))
        y0 = rng.normal(mean_y, math.sqrt(diffusion / (2.0 * lam_y)))
    else:
        x0, y0 = initial_x, initial_y

    # The exact transition is the AR(1) recursion u[n] = decay u[n-1] + kick,
    # evaluated as an IIR filter.  scipy.signal is imported here, by its only
    # user, because importing it costs most of the package's import time.
    from scipy.signal import lfilter

    def ar1(u0, decay, kicks):
        out, _ = lfilter([1.0], [1.0, -decay], kicks, zi=[decay * u0])
        return np.concatenate([[u0], out])

    x = ar1(x0, decay_x, sd_x * rng.normal(0.0, 1.0, n_steps))
    y = mean_y + ar1(y0 - mean_y, decay_y, sd_y * rng.normal(0.0, 1.0, n_steps))

    times = np.arange(n_steps + 1) * dt
    return QuadraturePath(times=times, x=x, y=y)


def stationary_mean_displacement(
    trap: TrapConfig, drive: DriveConfig, noise: NoiseModel
) -> float:
    """Mean of the displaced quadrature, F0 / (m zeta w_z (1 - g cos 2phi))."""
    modulation = _squeeze_modulation(drive)
    if modulation >= 1.0:
        raise InstabilityError("g cos(2 phi) >= 1")
    return drive.force / (
        noise.mass * noise.damping * trap.secular_z * (1.0 - modulation)
    )


def thermal_quadrature_variance(drive: DriveConfig, noise: NoiseModel) -> float:
    """Unsqueezed stationary variance k_B T / (2 m w_i^2) of each quadrature."""
    return (
        BOLTZMANN
        * noise.temperature
        / (2.0 * noise.mass * drive.injection_frequency**2)
    )


def _locked_phase_spreads(
    trap: TrapConfig,
    drives,
    noise: NoiseModel,
    duration: float,
    dt: float | None,
    seeds,
    electric_noise: ElectricNoise | None,
    operating_amplitude: float,
    n_trials: int,
) -> np.ndarray:
    """Phase dynamics of the injection-locked oscillator at fixed amplitude.

    The gain-saturated oscillator holds its amplitude at the operating value
    while the phase relative to the injection reference obeys

        dpsi/dt = -w_L sin(psi) + eta(t)

    with locking rate w_L = F0 / (2 m w_z A0), starting from psi = 0.
    ``eta`` collects thermal phase diffusion and the band-limited electrode
    voltage noise, both scaled by the quadrature variance ratio of the
    squeeze drive (the frequency-doubled drive redistributes fluctuations
    between quadratures, squeezing the phase quadrature when
    g cos 2phi < 0).

    Steps ``n_trials`` trials of every drive in ``drives`` as the columns
    of one loop and returns ``spread[drive, trial]``, the circular standard
    deviation of each trial's phase over the final half of the record; a
    trial is locked when its spread is below the lock threshold.  Each
    drive has its own generator, seeded by its entry of ``seeds``, whose
    normals are drawn ``PHASE_CHUNK`` steps at a time in the per-step order
    diffusion kick, then electrode kick, so a drive's trials do not depend
    on the other drives.  Instead of storing the phase, each chunk adds the
    unit phasors exp(i psi) of its rows inside the window to a running sum
    per trial.  ``dt=None`` takes the smallest min(1e-4 s, 0.05 / w_L) of
    the drives.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if operating_amplitude <= 0:
        raise ValueError("operating_amplitude must be > 0")
    if not drives or len(drives) != len(seeds):
        raise ValueError("need at least one drive and one seed per drive")

    torque_scale = 2.0 * noise.mass * trap.secular_z * operating_amplitude
    lock_rates = [drive.force / torque_scale for drive in drives]
    if dt is None:
        dt = min(1e-4 if rate == 0 else min(1e-4, 0.05 / rate) for rate in lock_rates)
    n_steps = int(round(duration / dt))
    if n_steps < 2:
        raise ValueError("duration shorter than two steps")

    electrode = electric_noise is not None and electric_noise.rms_voltage > 0
    decay = math.exp(-dt / electric_noise.correlation_time) if electrode else 0.0
    rngs = [np.random.default_rng(seed) for seed in seeds]

    # Per-drive constants, then repeated over that drive's columns.
    sqrt_2d_dt, kick, f_perp = [], [], []
    for drive, rng in zip(drives, rngs):
        # The squeeze drive redistributes quadrature fluctuations; the phase
        # quadrature carries the variance ratio of the frequency-doubled drive.
        ratio = squeeze_variance_ratio(drive.effective_gain, drive.squeeze_phase)
        diffusion = ratio * noise.force_spectral_density() / (2.0 * torque_scale**2)
        sqrt_2d_dt.append(math.sqrt(2.0 * diffusion * dt))
        if electrode:
            force_rms = electric_noise.rms_voltage * drive.force_per_volt
            sigma_perp = (force_rms / math.sqrt(2.0)) * math.sqrt(ratio)
            kick.append(sigma_perp * math.sqrt(1.0 - decay * decay))
            f_perp.append(rng.normal(0.0, sigma_perp, n_trials))
    neg_rate = np.repeat([-rate for rate in lock_rates], n_trials)
    sqrt_2d_dt = np.repeat(sqrt_2d_dt, n_trials)
    kick = np.repeat(kick, n_trials)
    f_perp = np.concatenate(f_perp) if electrode else np.zeros(len(neg_rate))

    start = _window_start(np.arange(n_steps + 1) * dt, None)
    draw_shape = (2, n_trials) if electrode else (n_trials,)
    cur = np.zeros(len(neg_rate))
    phasors = np.zeros(len(neg_rate), dtype=complex)
    block = np.empty((PHASE_CHUNK, len(neg_rate)))
    for first in range(0, n_steps, PHASE_CHUNK):
        rows = min(PHASE_CHUNK, n_steps - first)
        normals = np.concatenate(
            [rng.normal(0.0, 1.0, (rows,) + draw_shape) for rng in rngs], axis=-1
        )
        diffusion_kicks = sqrt_2d_dt * (normals[:, 0] if electrode else normals)
        electrode_kicks = kick * normals[:, 1] if electrode else None
        del normals
        for k in range(rows):
            step = (neg_rate * np.sin(cur) + f_perp / torque_scale) * dt
            step += diffusion_kicks[k]
            cur = cur + step
            block[k] = cur
            if electrode:
                f_perp = decay * f_perp + electrode_kicks[k]
        # Rows first + 1 .. first + rows were stepped; sum those in the window.
        lo = max(start - first - 1, 0)
        if lo < rows:
            phasors += np.exp(1j * block[lo:rows]).sum(axis=0)
    return _spread(phasors, n_steps + 1 - start).reshape(len(drives), n_trials)


def demodulate(
    times: np.ndarray, positions: np.ndarray, omega_i: float, window: float
) -> QuadraturePath:
    """Sliding in-phase/quadrature projection of positions along axis 0.

    X(t) = (2/w) integral of z sin(w_i s) ds over the window centered on t,
    and likewise with cos for Y.  The window is rounded to an integer number
    of oscillation periods, which makes the projection exact for a pure
    sinusoid.  ``positions`` may be one trajectory ``z[step]`` or several
    ``z[step, traj]``; X and Y then have the same trailing axes.
    """
    period = TWO_PI / omega_i
    if window < period:
        raise ValueError("window must cover at least one oscillation period")
    if len(times) < 2:
        raise ValueError("trajectory too short")
    dt = float(times[1] - times[0])
    n_window = int(round(round(window / period) * period / dt))
    if n_window >= len(times):
        raise ValueError("window longer than trajectory")

    z = np.asarray(positions)
    angle = np.reshape(omega_i * times, (-1,) + (1,) * (z.ndim - 1))
    width = n_window * dt

    def project(reference):
        # Trapezoid cumulative integral, then window sums by difference.
        f = z * reference
        cum = np.cumsum(0.5 * (f[1:] + f[:-1]) * dt, axis=0)
        del f  # one array fewer alive while the window sums are formed
        out = cum[n_window - 1 :].copy()
        out[1:] -= cum[:-n_window]
        out *= 2.0 / width
        return out

    x = project(np.sin(angle))
    y = project(np.cos(angle))
    centers = 0.5 * (times[n_window:] + times[:-n_window])
    return QuadraturePath(times=centers, x=x, y=y)


def _window_start(times: np.ndarray, window: float | None) -> int:
    """First index of the evaluation window ``times >= times[-1] - window``.

    The default window is the final half of the record.
    """
    duration = float(times[-1] - times[0])
    if window is None:
        window = 0.5 * duration
    if window > duration:
        raise ValueError("window longer than record")
    return int(np.searchsorted(times, times[-1] - window))


def _spread(phasor_sum, count: int) -> np.ndarray:
    """Circular standard deviation sqrt(-2 ln R) from the sum of ``count``
    unit phasors exp(i psi), with R = |sum| / count; inf where R <= 1e-12."""
    resultant = np.abs(phasor_sum) / count
    with np.errstate(divide="ignore"):
        spread = np.sqrt(np.maximum(-2.0 * np.log(resultant), 0.0))
    return np.where(resultant > 1e-12, spread, np.inf)


def circular_std(phases: np.ndarray) -> float:
    """Circular standard deviation sqrt(-2 ln R) of a phase sample."""
    if len(phases) == 0:
        raise ValueError("empty phase sample")
    return float(_spread(np.exp(1j * np.asarray(phases)).sum(), len(phases)))


def detect_lock(
    times: np.ndarray,
    psi: np.ndarray,
    threshold: float = DEFAULT_LOCK_THRESHOLD,
    window: float | None = None,
) -> np.ndarray:
    """Lock verdict of every trial of a phase array ``psi[step, trial]``.

    A trial is locked when the circular standard deviation of its phase over
    the evaluation window (default: final half of the record) stays below
    the threshold.  Returns one boolean per trial.
    """
    if len(times) == 0:
        raise ValueError("empty phase record")
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    tail = psi[_window_start(times, window) :]
    # Sum the unit phasors a chunk of rows at a time to bound memory.
    phasors = sum(
        np.exp(1j * tail[k : k + PHASE_CHUNK]).sum(axis=0)
        for k in range(0, len(tail), PHASE_CHUNK)
    )
    return _spread(phasors, len(tail)) < threshold


DRIFT_REFERENCE_TIME = 500.0  # s, horizon at which the random walk matches


def drift_profile(
    trap: TrapConfig,
    times: np.ndarray,
    model: str = "linear",
    seed: int | None = None,
) -> np.ndarray:
    """Axial frequency over time under the chosen drift model.

    ``linear`` applies the constant Hz-per-second rate; ``random_walk`` is a
    zero-drift walk whose RMS at the reference horizon equals the linear
    model's displacement there.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    if model == "linear":
        return trap.secular_z + TWO_PI * trap.drift_rate * times
    if model == "random_walk":
        rng = np.random.default_rng(seed)
        steps = np.diff(times, prepend=times[0])
        scale = (TWO_PI * trap.drift_rate) ** 2 * DRIFT_REFERENCE_TIME
        walk = np.cumsum(rng.normal(0.0, 1.0, len(times)) * np.sqrt(scale * steps))
        return trap.secular_z + walk
    raise ValueError(f"unknown drift model {model!r}")
