"""Stochastic time-domain simulation of the locked oscillator.

Three complementary integrators:

* :func:`integrate_langevin` - the full second-order equation of motion with
  thermal forcing, parametric (squeeze) modulation and optionally the
  saturable radiation-pressure force that produces the self-sustained limit
  cycle.
* :func:`integrate_quadratures` - the linearized rotating-frame envelope
  equations for the in-phase/quadrature components, integrated with exact
  Gaussian transition steps (no step-size bias).
* :func:`integrate_locked_phase` - the injection-locked phase model used by
  the smallest-force protocol: the oscillation phasor is pinned at the
  free-running amplitude while its phase feels the injection restoring
  torque, thermal diffusion and band-limited electrode noise.

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
    DEFAULT_FREE_RUNNING_AMPLITUDE,
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


@dataclass
class Trajectory:
    """Sampled (t, z, v) path of one integration run."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.positions) == len(self.velocities)):
            raise ValueError("trajectory arrays must have equal length")

    def __len__(self):
        return len(self.times)


@dataclass
class QuadraturePath:
    """Slow in-phase/quadrature components (X, Y) of the oscillation.

    By convention X carries the free-running amplitude plus its fluctuation
    and Y carries amplitude times phase deviation, so for small deviations
    the oscillation phase is Y divided by the operating amplitude.
    """

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

    def phase_deviation(self, operating_amplitude: float) -> np.ndarray:
        """Small-signal phase Y/A0 about the operating amplitude."""
        if operating_amplitude <= 0:
            raise ValueError("operating_amplitude must be > 0")
        return self.y / operating_amplitude

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class NoiseModel:
    """Thermal bath and effective damping of the locked oscillator."""

    temperature: float = DOPPLER_TEMPERATURE  # K
    damping: float = DEFAULT_DAMPING_RATE  # 1/s
    mass: float = ION_MASS  # kg
    rng_seed: int = 0

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


@dataclass(frozen=True)
class LockVerdict:
    locked: bool
    phase_std: float
    mean_phase: float
    criterion_threshold: float


def _resolve_seed(noise: NoiseModel, seed):
    return noise.rng_seed if seed is None else seed


def _squeeze_modulation(drive: DriveConfig) -> float:
    return drive.effective_gain * math.cos(2.0 * drive.squeeze_phase)


def _langevin_ensemble(
    trap: TrapConfig,
    beams,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None,
    seed,
    nonlinear: bool,
    n_trajectories: int,
    initial_position=0.0,
    initial_velocity=0.0,
):
    """Vectorized stepping shared by the public single-trajectory API."""
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

    rng = np.random.default_rng(_resolve_seed(noise, seed))
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


def integrate_langevin(
    trap: TrapConfig,
    beams,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None = None,
    seed: int | None = None,
    nonlinear: bool = False,
    initial_position: float = 0.0,
    initial_velocity: float = 0.0,
) -> Trajectory:
    """Integrate the driven, damped, parametrically modulated oscillator.

    Linear mode uses the constant friction rate of ``noise``; the nonlinear
    mode replaces it with the saturable radiation-pressure force of the beam
    pair, which self-amplifies small motion into a stable limit cycle.
    Deterministic for a given seed.
    """
    times, zs, vs = _langevin_ensemble(
        trap,
        beams,
        drive,
        noise,
        duration,
        dt,
        seed,
        nonlinear,
        n_trajectories=1,
        initial_position=initial_position,
        initial_velocity=initial_velocity,
    )
    return Trajectory(times=times, positions=zs[:, 0], velocities=vs[:, 0])


def integrate_quadratures(
    trap: TrapConfig,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None = None,
    seed: int | None = None,
    initial_x: float = 0.0,
    initial_y: float = 0.0,
    stationary_start: bool = False,
) -> QuadraturePath:
    """Integrate the rotating-frame envelope equations.

    dX/dt = -(zeta/2)(1 + g cos 2phi) X + f_x/(2 m w_z)
    dY/dt = -(zeta/2)(1 - g cos 2phi) Y + (F0 + f_y)/(2 m w_z)

    Uses the exact Gaussian transition of the Ornstein-Uhlenbeck process, so
    the step may be much longer than the oscillation period and stationary
    statistics carry no discretization bias.  ``stationary_start`` draws the
    initial point from the stationary distribution instead of using the
    given initial values.
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

    period = TWO_PI / drive.injection_frequency
    if dt is None:
        dt = period
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one step")

    rng = np.random.default_rng(_resolve_seed(noise, seed))
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


def _locked_phase_ensemble(
    trap: TrapConfig,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None,
    seed,
    electric_noise: ElectricNoise | None,
    operating_amplitude: float,
    drift_enabled: bool,
    initial_phase: float,
    n_trials: int,
):
    """Vectorized locked-phase stepping; returns (times, psi[step, trial])."""
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if operating_amplitude <= 0:
        raise ValueError("operating_amplitude must be > 0")

    torque_scale = 2.0 * noise.mass * trap.secular_z * operating_amplitude
    lock_rate = drive.force / torque_scale
    if dt is None:
        dt = 1e-4 if lock_rate == 0 else min(1e-4, 0.05 / lock_rate)
    n_steps = int(round(duration / dt))
    if n_steps < 2:
        raise ValueError("duration shorter than two steps")

    rng = np.random.default_rng(_resolve_seed(noise, seed))

    # The squeeze drive redistributes quadrature fluctuations; the phase
    # quadrature carries the variance ratio of the frequency-doubled drive.
    ratio = squeeze_variance_ratio(drive.effective_gain, drive.squeeze_phase)
    diffusion = ratio * noise.force_spectral_density() / (2.0 * torque_scale**2)
    sqrt_2d_dt = math.sqrt(2.0 * diffusion * dt)

    shape = (n_trials,)
    psi = np.empty((n_steps + 1, n_trials))
    psi[0] = initial_phase

    if electric_noise is not None and electric_noise.rms_voltage > 0:
        tau = electric_noise.correlation_time
        force_rms = electric_noise.rms_voltage * drive.force_per_volt
        sigma_perp = (force_rms / math.sqrt(2.0)) * math.sqrt(ratio)
        decay = math.exp(-dt / tau)
        kick = sigma_perp * math.sqrt(1.0 - decay * decay)
        f_perp = rng.normal(0.0, sigma_perp, shape)
    else:
        f_perp = np.zeros(shape)
        decay = kick = 0.0

    drift_rate = TWO_PI * trap.drift_rate if drift_enabled else 0.0

    for i in range(n_steps):
        detuning = drift_rate * (i * dt)
        cur = psi[i]
        step = (-detuning - lock_rate * np.sin(cur) + f_perp / torque_scale) * dt
        step += sqrt_2d_dt * rng.normal(0.0, 1.0, shape)
        psi[i + 1] = cur + step
        if kick:
            f_perp = decay * f_perp + kick * rng.normal(0.0, 1.0, shape)

    times = np.arange(n_steps + 1) * dt
    return times, psi


def integrate_locked_phase(
    trap: TrapConfig,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None = None,
    seed: int | None = None,
    electric_noise: ElectricNoise | None = None,
    operating_amplitude: float = DEFAULT_FREE_RUNNING_AMPLITUDE,
    drift_enabled: bool = False,
    initial_phase: float = 0.0,
) -> QuadraturePath:
    """Phase dynamics of the injection-locked oscillator at fixed amplitude.

    The gain-saturated oscillator holds its amplitude at the operating value
    while the phase relative to the injection reference obeys

        dpsi/dt = -detuning(t) - w_L sin(psi) + eta(t)

    with locking rate w_L = F0 / (2 m w_z A0).  ``eta`` collects thermal
    phase diffusion and the band-limited electrode voltage noise, both scaled
    by the quadrature variance ratio of the squeeze drive (the
    frequency-doubled drive redistributes fluctuations between quadratures,
    squeezing the phase quadrature when g cos 2phi < 0).  Returns the phasor
    path (A0 cos psi, A0 sin psi), so the path phase equals psi.
    """
    times, psi = _locked_phase_ensemble(
        trap,
        drive,
        noise,
        duration,
        dt,
        seed,
        electric_noise,
        operating_amplitude,
        drift_enabled,
        initial_phase,
        n_trials=1,
    )
    angle = psi[:, 0]
    return QuadraturePath(
        times=times,
        x=operating_amplitude * np.cos(angle),
        y=operating_amplitude * np.sin(angle),
    )


def demodulate(trajectory: Trajectory, omega_i: float, window: float) -> QuadraturePath:
    """Sliding in-phase/quadrature projection of a position trajectory.

    X(t) = (2/w) integral of z sin(w_i s) ds over the window centered on t,
    and likewise with cos for Y.  The window is rounded to an integer number
    of oscillation periods, which makes the projection exact for a pure
    sinusoid.
    """
    period = TWO_PI / omega_i
    if window < period:
        raise ValueError("window must cover at least one oscillation period")
    if len(trajectory) < 2:
        raise ValueError("trajectory too short")
    dt = float(trajectory.times[1] - trajectory.times[0])
    n_window = int(round(round(window / period) * period / dt))
    if n_window >= len(trajectory):
        raise ValueError("window longer than trajectory")

    t = trajectory.times
    z = trajectory.positions
    zs = z * np.sin(omega_i * t)
    zc = z * np.cos(omega_i * t)
    # Trapezoid cumulative integrals, then window sums by difference.
    cs = np.concatenate([[0.0], np.cumsum(0.5 * (zs[1:] + zs[:-1]) * dt)])
    cc = np.concatenate([[0.0], np.cumsum(0.5 * (zc[1:] + zc[:-1]) * dt)])
    width = n_window * dt
    x = (2.0 / width) * (cs[n_window:] - cs[:-n_window])
    y = (2.0 / width) * (cc[n_window:] - cc[:-n_window])
    centers = 0.5 * (t[n_window:] + t[:-n_window])
    return QuadraturePath(times=centers, x=x, y=y)


def circular_std(phases: np.ndarray) -> float:
    """Circular standard deviation sqrt(-2 ln R) of a phase sample."""
    if len(phases) == 0:
        raise ValueError("empty phase sample")
    resultant = abs(np.mean(np.exp(1j * np.asarray(phases))))
    if resultant <= 1e-12:
        return math.inf
    return math.sqrt(-2.0 * math.log(resultant))


def detect_lock(
    path: QuadraturePath,
    threshold: float = DEFAULT_LOCK_THRESHOLD,
    window: float | None = None,
) -> LockVerdict:
    """Judge phase lock from the circular spread of the path phase.

    The verdict is locked when the circular standard deviation of
    arctan2(Y, X) over the evaluation window (default: final half of the
    path) stays below the threshold.
    """
    if len(path) == 0:
        raise ValueError("empty quadrature path")
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    duration = path.duration
    if window is None:
        window = 0.5 * duration
    if window > duration:
        raise ValueError("window longer than path")
    t_start = path.times[-1] - window
    sel = path.times >= t_start
    phases = path.phase[sel]
    spread = circular_std(phases)
    mean_phase = float(np.angle(np.mean(np.exp(1j * phases))))
    return LockVerdict(
        locked=bool(spread < threshold),
        phase_std=float(spread),
        mean_phase=mean_phase,
        criterion_threshold=float(threshold),
    )


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


def _write_columns(path, magic: str, columns: dict, seed, config_hash) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[k], dtype=float) for k in names]
    lines = [
        magic,
        f"# seed = {'-' if seed is None else seed}",
        f"# config_hash = {config_hash or '-'}",
        "# columns = " + " ".join(names),
    ]
    for row in zip(*arrays):
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_columns(path, magic: str, n_columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != magic:
        raise ValueError(f"{path}: wrong file type")
    data = [
        [float(x) for x in line.split()]
        for line in lines
        if line and not line.startswith("#")
    ]
    out = np.array(data, dtype=float)
    if out.ndim != 2 or out.shape[1] != n_columns:
        raise ValueError(f"{path}: expected {n_columns} columns")
    return out


TRAJECTORY_MAGIC = "# phonon-sensor trajectory v1"
QUADRATURE_MAGIC = "# phonon-sensor quadrature-path v1"


def save_trajectory(trajectory: Trajectory, path, seed=None, config_hash=None) -> None:
    """Columnar text export: time, position, velocity."""
    _write_columns(
        path,
        TRAJECTORY_MAGIC,
        {
            "time_s": trajectory.times,
            "position_m": trajectory.positions,
            "velocity_m_per_s": trajectory.velocities,
        },
        seed,
        config_hash,
    )


def load_trajectory(path) -> Trajectory:
    data = _read_columns(path, TRAJECTORY_MAGIC, 3)
    return Trajectory(times=data[:, 0], positions=data[:, 1], velocities=data[:, 2])


def save_quadrature_path(path_obj: QuadraturePath, path, seed=None, config_hash=None) -> None:
    """Columnar text export: time, X, Y."""
    _write_columns(
        path,
        QUADRATURE_MAGIC,
        {"time_s": path_obj.times, "x_m": path_obj.x, "y_m": path_obj.y},
        seed,
        config_hash,
    )


def load_quadrature_path(path) -> QuadraturePath:
    data = _read_columns(path, QUADRATURE_MAGIC, 3)
    return QuadraturePath(times=data[:, 0], x=data[:, 1], y=data[:, 2])


def limit_cycle_amplitude(trajectory: Trajectory, omega_i: float, tail: float = 0.25):
    """Mean oscillation amplitude over the trailing fraction of a run."""
    n_tail = max(2, int(len(trajectory) * tail))
    window = 10 * TWO_PI / omega_i
    times = trajectory.times[-n_tail:]
    sub = Trajectory(
        times=times,
        positions=trajectory.positions[-n_tail:],
        velocities=trajectory.velocities[-n_tail:],
    )
    quad = demodulate(sub, omega_i, window)
    return float(np.mean(quad.amplitude))
