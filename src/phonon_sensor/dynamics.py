"""Stochastic time-domain simulation of the locked oscillator.

Two integrators:

* :func:`envelope_paths` - the linearized rotating-frame envelope
  equations for the in-phase/quadrature components, integrated with exact
  Gaussian transition steps (no step-size bias), one path per seed in one
  call; a path does not depend on the other seeds.  The exact transition
  is the AR(1) recursion u[n] = a u[n-1] + kick, which :func:`_ar1_scan`
  evaluates with numpy in blocks: a growth table, a cumsum and a decay
  table per block.
* :func:`_locked_phase_spreads` - the injection-locked phase model used by
  the smallest-force protocol: the oscillation phasor is pinned at the
  free-running amplitude while its phase feels the injection restoring
  torque, thermal diffusion and band-limited electrode noise.  It steps the
  trials of a whole voltage grid as the columns of one loop.  Per chunk of
  steps it draws each voltage's normals and forms every additive increment
  at once, so a step is four in-place ufunc calls; it judges lock from
  running sums of cos psi and sin psi, so the phase array is never stored.

Thermal forcing follows the narrowband decomposition
f(t) = f_x(t) cos(w t) + f_y(t) sin(w t) with slowly varying white Gaussian
components of spectral density 2 m zeta k_B T, which makes the stationary
quadrature variances equal k_B T / (2 m w^2).

The full second-order Langevin equation and the demodulation of its
trajectories into quadratures are not part of the twin: they live in the
test suite's oracles (``tests/oracles.py``), which check the envelope
model against them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    BOLTZMANN,
    DEFAULT_DAMPING_RATE,
    DOPPLER_TEMPERATURE,
    TWO_PI,
)
from .physics import (
    DriveConfig,
    InstabilityError,
    TrapConfig,
    squeeze_variance_ratio,
)

PHASE_CHUNK = 500  # locked-phase steps whose normals are drawn at once
AR1_SPAN = 300.0  # largest decay exponent rate_dt L of one AR(1) scan block
AR1_LOOP_BLOCKS = 8  # rows of at most this many blocks scan them one call each


@dataclass
class QuadraturePath:
    """Slow in-phase/quadrature components (X, Y) of the oscillation."""

    x: np.ndarray
    y: np.ndarray

    @property
    def amplitude(self) -> np.ndarray:
        return np.hypot(self.x, self.y)

    @property
    def phase(self) -> np.ndarray:
        return np.arctan2(self.y, self.x)


@dataclass(frozen=True)
class NoiseModel:
    """Thermal bath and effective damping of the locked oscillator; the
    oscillator's mass is the trap's (:attr:`TrapConfig.mass`)."""

    temperature: float = DOPPLER_TEMPERATURE  # K
    damping: float = DEFAULT_DAMPING_RATE  # 1/s

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")

    def force_spectral_density(self, mass: float) -> float:
        """Two-sided spectral density 2 m zeta k_B T of each slow component."""
        return 2.0 * mass * self.damping * BOLTZMANN * self.temperature


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


def envelope_paths(
    trap: TrapConfig,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    seeds,
    initial_x: float = 0.0,
    initial_y: float = 0.0,
    stationary_start: bool = False,
) -> QuadraturePath:
    """Integrate the rotating-frame envelope equations, one trajectory per
    seed, returned as ``x[traj, step]`` and ``y[traj, step]``.

    dX/dt = -(zeta/2)(1 + g cos 2phi) X + f_x/(2 m w_z)
    dY/dt = -(zeta/2)(1 - g cos 2phi) Y + (F0 + f_y)/(2 m w_z)

    Steps one injection period at a time with the exact Gaussian transition
    of the Ornstein-Uhlenbeck process, so stationary statistics carry no
    discretization bias.  ``stationary_start`` draws the initial point from
    the stationary distribution instead of using the given initial values.
    Each trajectory draws from its own generator, seeded by its seed, and
    rows are scanned and offset independently, so row k is bit for bit the
    path of a call with ``seeds[k]`` alone.
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

    denom = 2.0 * trap.mass * trap.secular_z
    diffusion = noise.force_spectral_density(trap.mass) / denom**2  # white-noise intensity
    lam_x = 0.5 * noise.damping * (1.0 + modulation)
    lam_y = 0.5 * noise.damping * (1.0 - modulation)
    mean_y = drive.force / (denom * lam_y)
    n_rows = n_steps + 1

    def scan_tables(lam):
        if lam > 0:
            decay = math.exp(-lam * dt)
            var = diffusion * (1.0 - decay * decay) / (2.0 * lam)
        else:
            var = diffusion * dt  # marginal quadrature: pure random walk
        return _ar1_tables(lam * dt, n_rows, math.sqrt(var))

    if stationary_start and (lam_x <= 0 or lam_y <= 0):
        raise InstabilityError("no stationary state at |g cos 2 phi| = 1")

    # Each row is drawn into a scratch row, which holds the start value in
    # column 0 and the unit kicks after it, and scanned from there.
    tables = scan_tables(lam_x), scan_tables(lam_y)
    paths = np.empty((2, len(seeds), n_rows))
    kicks = np.empty(n_rows)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if stationary_start:
            x0 = rng.normal(0.0, math.sqrt(diffusion / (2.0 * lam_x)))
            y0 = rng.normal(mean_y, math.sqrt(diffusion / (2.0 * lam_y)))
        else:
            x0, y0 = initial_x, initial_y
        for row, start, table in zip(paths[:, k], (x0, y0 - mean_y), tables):
            kicks[0] = start
            rng.standard_normal(out=kicks[1:])
            _ar1_scan(kicks, row, table)
    paths[1] += mean_y
    return QuadraturePath(paths[0], paths[1])


@functools.lru_cache(maxsize=4)
def _ar1_tables(rate_dt: float, n: int, scale: float):
    """Tables of :func:`_ar1_scan` for rows of ``n`` elements, the decay
    a = exp(-rate_dt) per element and kicks scaled by ``scale``: scale a^-i
    (1 for the start) and a^i at each element's offset i in its block, the
    block length L and a^L.

    L keeps rate_dt L <= AR1_SPAN, so a^-L stays far from overflow; a row
    that fits in one block (every row at rate_dt = 0) is one block.  The
    tables are kept for the next calls with the same arguments: the squeeze
    sweep integrates each drive's trials in batches, and forming the tables
    costs about as much as scanning two rows.
    """
    if rate_dt * n <= AR1_SPAN:
        length = n
    else:
        length = max(1, int(AR1_SPAN / rate_dt))
    powers = np.exp(rate_dt * (np.arange(n) % length))
    shrink = 1.0 / powers
    growth = powers * scale
    growth[0] = 1.0
    growth.flags.writeable = shrink.flags.writeable = False
    return growth, shrink, length, math.exp(-rate_dt * length)


def _ar1_scan(kicks: np.ndarray, out: np.ndarray, tables) -> None:
    """Write to ``out`` the AR(1) path u[0] = kicks[0],
    u[n] = a u[n-1] + scale kicks[n], with the tables of
    :func:`_ar1_tables`; ``kicks`` is overwritten.

    Within a block starting at b, u[b+i] = a^i cumsum_j(scale a^-j
    kicks[b+j]) once the carry a u[b-1] = a^L S is added to the block's
    first term, S being the previous block's last cumsum.

    numpy releases the interpreter lock in a 1-D cumsum into another array,
    but not in one in place or in a 2-D one over a few long rows, so each
    block is summed into ``out`` by one such call, and takes its carry from
    the block before.  A row of more than AR1_LOOP_BLOCKS blocks (rate_dt above
    0.24 at 10 000 steps), where those calls would cost more than the sums,
    is summed by one 2-D call after one pass adds every carry from the sums
    of the blocks' own terms.  There rate_dt L >= 150
    (L = floor(AR1_SPAN / rate_dt), or 1), so the part of a carry that
    reaches back two blocks is below e^-150 of the path.
    """
    growth, shrink, length, span_decay = tables
    n = len(kicks)
    kicks *= growth
    if n > AR1_LOOP_BLOCKS * length:
        carries = np.add.reduceat(kicks, np.arange(0, n, length))[:-1]
        carries *= span_decay
        kicks[length::length] += carries
        full = n // length * length
        blocks = (-1, length)
        np.add.accumulate(kicks[:full].reshape(blocks), axis=1, out=out[:full].reshape(blocks))
        np.add.accumulate(kicks[full:], out=out[full:])
    else:
        for lo in range(0, n, length):
            if lo:
                kicks[lo] += span_decay * out[lo - 1]
            np.add.accumulate(kicks[lo : lo + length], out=out[lo : lo + length])
    out *= shrink


def stationary_mean_displacement(
    trap: TrapConfig, drive: DriveConfig, noise: NoiseModel
) -> float:
    """Mean of the displaced quadrature, F0 / (m zeta w_z (1 - g cos 2phi))."""
    modulation = _squeeze_modulation(drive)
    if modulation >= 1.0:
        raise InstabilityError("g cos(2 phi) >= 1")
    return drive.force / (trap.mass * noise.damping * trap.secular_z * (1.0 - modulation))


def thermal_quadrature_variance(trap: TrapConfig, drive: DriveConfig, noise: NoiseModel) -> float:
    """Unsqueezed stationary variance k_B T / (2 m w_i^2) of each quadrature."""
    return BOLTZMANN * noise.temperature / (2.0 * trap.mass * drive.injection_frequency**2)


def _locked_phase_spreads(
    trap: TrapConfig,
    drives,
    noise: NoiseModel,
    duration: float,
    dt: float,
    seeds,
    electric_noise: ElectricNoise,
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
    on the other drives.

    Everything but the injection torque is known before a chunk is
    stepped, so each chunk first forms the additive increment
    ``g = sqrt(2 D dt) xi + f_perp dt / torque_scale`` of all its rows,
    advancing the left-point electrode force ``f_perp`` row by row.  Each
    drive's normals go to one reused ``(chunk, draws, trials)`` buffer and
    are scaled straight into that drive's columns of ``block``, which holds
    the increments.  A step is then four in-place ufunc calls on
    preallocated rows, ``psi[k+1] = psi[k] + (-w_L dt) sin(psi[k]) + g[k]``
    followed by ``sin(psi[k+1])``, which the next step reuses; step k reads
    ``g[k]`` before it overwrites that row of ``block`` with the new phase.
    Instead of storing the phase, each chunk adds sum(cos psi) and
    sum(sin psi) of its rows inside the window to running sums per trial;
    the cosines are taken in place in ``block`` and the sines are the ones
    already formed by the steps.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if operating_amplitude <= 0:
        raise ValueError("operating_amplitude must be > 0")
    if not drives or len(drives) != len(seeds):
        raise ValueError("need at least one drive and one seed per drive")

    torque_scale = 2.0 * trap.mass * trap.secular_z * operating_amplitude
    lock_rates = [drive.force / torque_scale for drive in drives]
    n_steps = int(round(duration / dt))
    if n_steps < 2:
        raise ValueError("duration shorter than two steps")

    electrode = electric_noise.rms_voltage > 0
    decay = math.exp(-dt / electric_noise.correlation_time) if electrode else 0.0
    rngs = [np.random.default_rng(seed) for seed in seeds]

    # Per-drive scale factors of the normals; f_perp is each drive's start force.
    sqrt_2d_dt, kick, f_perp = [], [], []
    for drive, rng in zip(drives, rngs):
        # The squeeze drive redistributes quadrature fluctuations; the phase
        # quadrature carries the variance ratio of the frequency-doubled drive.
        ratio = squeeze_variance_ratio(drive.effective_gain, drive.squeeze_phase)
        diffusion = ratio * noise.force_spectral_density(trap.mass) / (2.0 * torque_scale**2)
        sqrt_2d_dt.append(math.sqrt(2.0 * diffusion * dt))
        if electrode:
            force_rms = electric_noise.rms_voltage * drive.force_per_volt
            sigma_perp = (force_rms / math.sqrt(2.0)) * math.sqrt(ratio)
            kick.append(sigma_perp * math.sqrt(1.0 - decay * decay))
            f_perp.append(rng.normal(0.0, sigma_perp, n_trials))
    n_drives, n_cols = len(drives), len(drives) * n_trials
    neg_rate_dt = np.repeat([-rate * dt for rate in lock_rates], n_trials)
    force_step = dt / torque_scale

    # The lock window is the final half of the record.
    times = np.arange(n_steps + 1) * dt
    start = int(np.searchsorted(times, 0.5 * times[-1]))
    chunk = PHASE_CHUNK
    # One drive's normals of a chunk, refilled for each drive in turn.
    draws = np.empty((chunk, 2 if electrode else 1, n_trials))
    # block[k] holds the increment g of step k until the step overwrites
    # it with psi after that step.  force[k] and sines[k] hold f_perp and
    # sin(psi) before step k of the chunk; row 0 carries over from the
    # previous chunk.
    block = np.empty((chunk, n_cols))
    if electrode:
        force = np.empty((chunk + 1, n_cols))
        force[0] = np.concatenate(f_perp)
    sines = np.zeros((chunk + 1, n_cols))
    tmp = np.empty(n_cols)
    cur = np.zeros(n_cols)
    cos_sum = np.zeros(n_cols)
    sin_sum = np.zeros(n_cols)
    for first in range(0, n_steps, chunk):
        rows = min(chunk, n_steps - first)
        for j, rng in enumerate(rngs):
            cols = slice(j * n_trials, (j + 1) * n_trials)
            rng.standard_normal(out=draws[:rows])
            np.multiply(draws[:rows, 0], sqrt_2d_dt[j], out=block[:rows, cols])
            if electrode:
                np.multiply(draws[:rows, 1], kick[j], out=force[1 : rows + 1, cols])
        if electrode:
            for k in range(rows):
                np.multiply(force[k], decay, out=tmp)
                force[k + 1] += tmp
            force_rows = force[:rows]
            force_rows *= force_step
            block[:rows] += force_rows
            force[0] = force[rows]
        for k in range(rows):
            np.multiply(neg_rate_dt, sines[k], out=tmp)
            tmp += block[k]
            np.add(cur, tmp, out=block[k])
            cur = block[k]
            np.sin(cur, out=sines[k + 1])
        cur = cur.copy()  # block is refilled by the next chunk
        # Rows first + 1 .. first + rows were stepped; sum those in the window.
        lo = max(start - first - 1, 0)
        if lo < rows:
            window = block[lo:rows]
            cos_sum += np.cos(window, out=window).sum(axis=0)
            sin_sum += sines[lo + 1 : rows + 1].sum(axis=0)
        sines[0] = sines[rows]
    spread = _spread(cos_sum + 1j * sin_sum, n_steps + 1 - start)
    return spread.reshape(n_drives, n_trials)


def _spread(phasor_sum, count: int) -> np.ndarray:
    """Circular standard deviation sqrt(-2 ln R) from the sum of ``count``
    unit phasors exp(i psi), with R = |sum| / count; inf where R <= 1e-12."""
    resultant = np.abs(phasor_sum) / count
    with np.errstate(divide="ignore"):
        spread = np.sqrt(np.maximum(-2.0 * np.log(resultant), 0.0))
    return np.where(resultant > 1e-12, spread, np.inf)
