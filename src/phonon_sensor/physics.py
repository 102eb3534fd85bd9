"""Closed-form physics kernels of the trapped-ion phonon-laser sensor.

Everything here is a pure function of its inputs: scattering rate of a
Doppler-modulated two-level ion, light-induced damping, radiation pressure,
static electrode force, fluorescence collection efficiency and the classical
squeezing variance law.

The campaigns use only the rate's argument check, :func:`static_force` and
:func:`squeeze_variance_ratio`.  The rest is the twin's closed-form layer,
which no campaign calls and the tests and README read.  The pointwise rates
(``scattering_rate``, ``total_scattering_rate`` and their ``_max`` bounds)
cross-check ``fitting.rate_integrals`` and bound the per-photon oracle's
thinning.  The radiation-pressure pieces (``radiation_pressure_force``,
``damping_coefficient`` and their ``total_`` sums) drive the Langevin
oracle; the damping is the force's slope at rest.  The efficiency chain
(``EfficiencyChain``, ``default_efficiency_chain``, ``solid_angle_fraction``,
``collection_efficiency``) gives README's collection-efficiency row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    DEFAULT_AXIAL_FREQUENCY,
    DEFAULT_DRIFT_RATE,
    DEFAULT_FORCE_PER_VOLT,
    DEFAULT_LINEWIDTH,
    DEFAULT_RADIAL_FREQUENCY_X,
    DEFAULT_RADIAL_FREQUENCY_Y,
    DEFAULT_WAVE_NUMBER,
    ELEMENTARY_CHARGE,
    HBAR,
    ION_MASS,
    TWO_PI,
)


class InstabilityError(ValueError):
    """Parametric drive strong enough to destabilize a quadrature."""


def _require_finite(name, value):
    # A Python float (np.float64 is one) takes the scalar test: 0.1 us
    # against numpy's 5 us, on two scalars of every model pass.
    finite = math.isfinite(value) if isinstance(value, float) else np.all(np.isfinite(value))
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LaserBeam:
    """One 397-nm beam: detuning (rad/s, signed), saturation, wave number.

    A red beam has detuning < 0, a blue beam detuning > 0.
    """

    detuning: float
    saturation: float
    wave_number: float = DEFAULT_WAVE_NUMBER
    linewidth: float = DEFAULT_LINEWIDTH

    def __post_init__(self):
        _require_finite("detuning", self.detuning)
        if self.saturation < 0:
            raise ValueError(f"saturation must be >= 0, got {self.saturation}")
        if self.wave_number <= 0:
            raise ValueError(f"wave_number must be > 0, got {self.wave_number}")
        if self.linewidth <= 0:
            raise ValueError(f"linewidth must be > 0, got {self.linewidth}")


def default_beams() -> tuple[LaserBeam, LaserBeam]:
    """The red/blue beam pair used by all shipped defaults."""
    red = LaserBeam(detuning=TWO_PI * -75e6, saturation=0.8)
    blue = LaserBeam(detuning=TWO_PI * 30e6, saturation=0.4)
    return red, blue


@dataclass(frozen=True)
class TrapConfig:
    """Ion mass/charge and secular frequencies of the surface trap."""

    mass: float = ION_MASS
    charge: float = ELEMENTARY_CHARGE
    secular_z: float = DEFAULT_AXIAL_FREQUENCY
    secular_x: float = DEFAULT_RADIAL_FREQUENCY_X
    secular_y: float = DEFAULT_RADIAL_FREQUENCY_Y
    drift_rate: float = DEFAULT_DRIFT_RATE  # Hz of secular_z/2pi per second

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        if self.charge <= 0:
            raise ValueError(f"charge must be > 0, got {self.charge}")
        for name in ("secular_z", "secular_x", "secular_y"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class DriveConfig:
    """Injection drive plus the optional frequency-doubled squeeze drive.

    The squeeze drive runs at exactly twice the injection frequency and is
    phase-synchronized with it; ``squeeze_phase`` is its relative phase.
    """

    injection_voltage: float = 0.0  # V
    injection_frequency: float = DEFAULT_AXIAL_FREQUENCY  # rad/s
    force_per_volt: float = DEFAULT_FORCE_PER_VOLT  # N/V
    squeeze_gain: float = 0.0  # dimensionless, in [0, 1]
    squeeze_phase: float = 0.0  # rad
    squeeze_enabled: bool = False

    def __post_init__(self):
        if self.injection_voltage < 0:
            raise ValueError("injection_voltage must be >= 0")
        if self.injection_frequency <= 0:
            raise ValueError("injection_frequency must be > 0")
        if self.force_per_volt < 0:
            raise ValueError("force_per_volt must be >= 0")
        if not 0.0 <= self.squeeze_gain <= 1.0:
            raise ValueError(f"squeeze_gain must be in [0, 1], got {self.squeeze_gain}")

    @property
    def force(self) -> float:
        """Injection force amplitude F = V * (N/V calibration slope)."""
        return self.injection_voltage * self.force_per_volt

    @property
    def effective_gain(self) -> float:
        """Squeeze gain actually applied (zero when the drive is off)."""
        return self.squeeze_gain if self.squeeze_enabled else 0.0


@dataclass(frozen=True)
class EfficiencyChain:
    """Multiplicative fluorescence collection chain, each factor in (0, 1]."""

    solid_angle: float
    transmittance: float = 1.0
    detector: float = 1.0
    splitter: float = 1.0
    residual: float = 1.0
    converter: float = 1.0

    def __post_init__(self):
        for name, value in self.factors:
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    @property
    def factors(self) -> tuple[tuple[str, float], ...]:
        return (
            ("solid_angle", self.solid_angle),
            ("transmittance", self.transmittance),
            ("detector", self.detector),
            ("splitter", self.splitter),
            ("residual", self.residual),
            ("converter", self.converter),
        )

    @classmethod
    def from_numerical_aperture(cls, na: float, **factors) -> "EfficiencyChain":
        return cls(solid_angle=solid_angle_fraction(na), **factors)


def default_efficiency_chain() -> EfficiencyChain:
    """Imaging chain of the shipped defaults: NA 0.36 lens, PMT branch."""
    return EfficiencyChain.from_numerical_aperture(
        0.36,
        transmittance=0.80,
        detector=0.23,
        splitter=0.70,
        residual=0.88,
        converter=0.66,
    )


def solid_angle_fraction(na: float) -> float:
    """Fraction of the full sphere captured by a lens of numerical aperture na.

    Spherical-cap formula (1 - sqrt(1 - NA^2)) / 2.
    """
    if not 0.0 < na <= 1.0:
        raise ValueError(f"numerical aperture must be in (0, 1], got {na}")
    return (1.0 - math.sqrt(1.0 - na * na)) / 2.0


def collection_efficiency(chain: EfficiencyChain) -> float:
    """Product of the chain factors."""
    eta = 1.0
    for _, value in chain.factors:
        eta *= value
    return eta


def _require_frequency(omega_i):
    if not (math.isfinite(omega_i) and omega_i > 0):
        raise ValueError(f"omega_i must be > 0 and finite, got {omega_i!r}")


def scattering_rate(beam: LaserBeam, amplitude, phase, omega_i, t):
    """Instantaneous scattering rate of one beam off the oscillating ion.

    rate = (Gamma s/4pi) / (1 + s + 4[(Delta - k w A cos(w t + phi))/Gamma]^2)

    ``t`` may be a scalar or array; the result is periodic in t with period
    2 pi / omega_i.
    """
    return total_scattering_rate((beam,), amplitude, phase, omega_i, t)


def scattering_rate_max(beam: LaserBeam, amplitude: float, omega_i: float) -> float:
    """Exact upper bound of scattering_rate over a period (analytic)."""
    _require_frequency(omega_i)
    s, gamma = beam.saturation, beam.linewidth
    swing = beam.wave_number * omega_i * amplitude
    nearest = np.clip(beam.detuning / swing, -1.0, 1.0) if swing > 0 else 0.0
    ratio = (beam.detuning - swing * nearest) / gamma
    return (gamma * s / (4.0 * math.pi)) / (1.0 + s + 4.0 * ratio**2)


def _check_rate_arguments(beams, amplitude, phase, omega_i) -> tuple[tuple, float]:
    """Check the rate's arguments other than the times; return the beams
    as a non-empty tuple and the amplitude as a float."""
    beams = tuple(beams)
    if not beams:
        raise ValueError("need at least one beam")
    amplitude = float(amplitude)
    if amplitude < 0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    _require_finite("amplitude", amplitude)
    _require_finite("phase", phase)
    _require_frequency(omega_i)
    return beams, amplitude


def total_scattering_rate(beams, amplitude, phase, omega_i, t):
    """Sum of per-beam scattering rates (see ``scattering_rate``).

    The inputs are checked and the Doppler cosine is formed once for all
    beams; each beam's Lorentzian is then evaluated in place.  A scalar
    ``t`` gives a scalar.
    """
    beams, amplitude = _check_rate_arguments(beams, amplitude, phase, omega_i)
    _require_finite("t", t)
    t = np.asarray(t)
    cosine = np.multiply(t, omega_i, out=np.empty(t.shape))
    cosine += phase
    np.cos(cosine, out=cosine)
    total = np.zeros(cosine.shape)
    rate = np.empty(cosine.shape)
    for beam in beams:
        s, gamma = beam.saturation, beam.linewidth
        np.multiply(cosine, beam.wave_number * omega_i * amplitude, out=rate)
        np.subtract(beam.detuning, rate, out=rate)
        rate /= gamma
        np.square(rate, out=rate)
        rate *= 4.0
        rate += 1.0 + s
        np.divide(gamma * s / (4.0 * math.pi), rate, out=rate)
        total += rate
    return total if total.ndim else total[()]


def total_scattering_rate_max(beams, amplitude: float, omega_i: float) -> float:
    beams = tuple(beams)
    if not beams:
        raise ValueError("need at least one beam")
    return sum(scattering_rate_max(b, amplitude, omega_i) for b in beams)


def damping_coefficient(beam: LaserBeam, mass: float, standard_theory: bool = False) -> float:
    """Light-induced friction rate of one beam, in 1/s.

    zeta = -(4 hbar k^2 Delta/Gamma) / (m [1 + s + 4 (Delta/Gamma)^2]^2)

    Positive for a red beam (cooling), negative for a blue beam (gain).
    ``standard_theory`` multiplies by the saturation parameter, which the
    low-intensity linearization of ``radiation_pressure_force`` carries.
    """
    if mass <= 0:
        raise ValueError(f"mass must be > 0, got {mass}")
    s, gamma = beam.saturation, beam.linewidth
    ratio = beam.detuning / gamma
    value = -(4.0 * HBAR * beam.wave_number**2 * ratio) / (
        mass * (1.0 + s + 4.0 * ratio**2) ** 2
    )
    if standard_theory:
        value *= s
    return value


def total_damping_coefficient(beams, mass: float, standard_theory: bool = False) -> float:
    return sum(damping_coefficient(b, mass, standard_theory) for b in beams)


def radiation_pressure_force(beam: LaserBeam, velocity):
    """Saturable light force on the ion moving with the given velocity.

    F(v) = hbar k (Gamma/2) s / (1 + s + 4[(Delta - k v)/Gamma]^2)

    Its slope at v = 0 reproduces -m * damping_coefficient(...) times the
    saturation parameter (the standard-theory variant).
    """
    _require_finite("velocity", velocity)
    s, gamma = beam.saturation, beam.linewidth
    ratio = (beam.detuning - beam.wave_number * np.asarray(velocity)) / gamma
    return HBAR * beam.wave_number * (gamma / 2.0) * s / (1.0 + s + 4.0 * ratio**2)


def total_radiation_pressure_force(beams, velocity):
    total = 0.0
    for beam in beams:
        total = total + radiation_pressure_force(beam, velocity)
    return total


def static_force(trap: TrapConfig, displacement: float) -> float:
    """Restoring force m w_z^2 z on an ion displaced by z."""
    return trap.mass * trap.secular_z**2 * displacement


def squeeze_variance_ratio(gain: float, phase: float) -> float:
    """Quadrature variance ratio 1/(1 - g cos 2phi) under parametric drive.

    Values below one mean the monitored quadrature is squeezed; the drive
    becomes parametrically unstable at g cos(2 phi) >= 1.
    """
    modulation = gain * math.cos(2.0 * phase)
    if modulation >= 1.0:
        raise InstabilityError(
            f"parametric divergence: g cos(2 phi) = {modulation:.6g} >= 1"
        )
    return 1.0 / (1.0 - modulation)
