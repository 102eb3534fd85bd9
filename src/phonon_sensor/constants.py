"""Physical constants and shared default parameters of the sensor model.

All angular frequencies are stored in rad/s; plain Hz appears only at I/O
boundaries (config files, reports).
"""

import math

# CODATA 2022 values as scipy.constants 1.17 gives them (atomic_mass, c,
# elementary_charge, hbar, k); written out so that importing the package
# does not import scipy.  A test pins them against scipy.constants.
ATOMIC_MASS_UNIT = 1.66053906892e-27  # kg
SPEED_OF_LIGHT = 299792458.0  # m/s
ELEMENTARY_CHARGE = 1.602176634e-19  # C
HBAR = 1.0545718176461565e-34  # J s
BOLTZMANN = 1.380649e-23  # J/K

TWO_PI = 2.0 * math.pi

# 397-nm cooling transition of a single Ca-40 ion.
DEFAULT_LINEWIDTH = TWO_PI * 20.68e6  # rad/s
RESONANCE_FREQUENCY = 755.22e12  # Hz
DEFAULT_WAVE_NUMBER = TWO_PI * RESONANCE_FREQUENCY / SPEED_OF_LIGHT  # rad/m

ION_MASS = 40.0 * ATOMIC_MASS_UNIT  # kg

# Measured secular frequencies of the surface trap.
DEFAULT_AXIAL_FREQUENCY = TWO_PI * 186.02e3  # rad/s
DEFAULT_RADIAL_FREQUENCY_X = TWO_PI * 680.4e3  # rad/s
DEFAULT_RADIAL_FREQUENCY_Y = TWO_PI * 1020.3e3  # rad/s

# Slow axial-frequency drift from electrode voltage drift: 10 Hz per 500 s.
DEFAULT_DRIFT_RATE = 10.0 / 500.0  # Hz per second

# DC calibration of the injection electrode: 362.8 yN per mV.
DEFAULT_FORCE_PER_VOLT = 362.8e-24 / 1e-3  # N/V

# Measured amplitude response of the locked oscillator: 0.9979 nm per yN.
DEFAULT_AMPLITUDE_PER_FORCE = 0.9979e-9 / 1e-24  # m/N

# Effective amplitude relaxation rate of the locked oscillator, anchored to
# the measured amplitude-per-force slope through dY/dF = 1/(m*zeta*omega_z).
DEFAULT_DAMPING_RATE = 1.0 / (
    ION_MASS * DEFAULT_AXIAL_FREQUENCY * DEFAULT_AMPLITUDE_PER_FORCE
)  # 1/s

# Gain-saturated oscillation amplitude with no injection applied.
DEFAULT_FREE_RUNNING_AMPLITUDE = 17.839e-6  # m

# Doppler cooling limit for the default linewidth.
DOPPLER_TEMPERATURE = HBAR * DEFAULT_LINEWIDTH / (2.0 * BOLTZMANN)  # K
