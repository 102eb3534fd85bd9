"""Digital twin of an injection-locked trapped-ion phonon-laser force sensor.

Modules
-------
physics      closed-form kernels (scattering, damping, forces, squeezing law)
dynamics     stochastic integrators and lock detection
photons      Monte Carlo photon pipeline and TAC histograms
fitting      amplitude/phase recovery from histograms
experiments  measurement campaigns and run records
config       declarative YAML run configuration
fileio       atomic writes and the histogram/fit-report text format
cli          command-line entry point
"""

from .config import RunConfig, default_config, load_config, save_config
from .dynamics import (
    ElectricNoise,
    NoiseModel,
    QuadraturePath,
    demodulate,
    detect_lock,
    integrate_langevin,
    integrate_quadratures,
)
from .fitting import (
    FitModelParams,
    FitResult,
    derive_alpha_beta,
    fit_histogram,
    initial_guess,
    model_curve,
)
from .photons import (
    DetectionConfig,
    PhotonStream,
    PipelineConfig,
    TacHistogram,
    detect,
    merge,
    sample_arrivals,
    synthesize_histogram,
    tac_fold,
)
from .physics import (
    DriveConfig,
    EfficiencyChain,
    InstabilityError,
    LaserBeam,
    TrapConfig,
    collection_efficiency,
    damping_coefficient,
    default_beams,
    radiation_pressure_force,
    scattering_rate,
    squeeze_variance_ratio,
    static_force,
    total_scattering_rate,
)

__version__ = "0.1.0"
