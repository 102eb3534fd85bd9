"""Least-squares recovery of oscillation amplitude and phase from a TAC histogram.

The model is the two-beam scattering rate, circularly convolved with a
Gaussian time-dispersion kernel over the folding period, integrated into
the TAC bins, scaled and offset:

    counts(bin) = alpha * <smeared rate over bin> + beta * width_fraction

Amplitude and phase are the physical parameters; alpha, beta and the
dispersion width sigma_t are nuisance parameters that default to the
closed-form detection-chain values and stay frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from .constants import TWO_PI
from .fileio import optional, read_header_file, write_header_file
from .photons import TacHistogram
from .physics import total_scattering_rate

PARAM_NAMES = ("amplitude", "phase", "alpha", "beta", "sigma_t")
DEFAULT_FROZEN = ("alpha", "beta", "sigma_t")


class NoModulationError(ValueError):
    """Histogram carries no usable Doppler modulation."""


@dataclass(frozen=True)
class FitModelParams:
    amplitude: float  # m
    phase: float  # rad, reported wrapped to (-pi, pi]
    alpha: float  # scale
    beta: float  # counts offset per full-width bin
    sigma_t: float  # s

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.sigma_t < 0:
            raise ValueError("sigma_t must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in PARAM_NAMES])


@dataclass(frozen=True)
class FitResult:
    params: FitModelParams
    errors: dict[str, float]
    residual: float  # weighted residual sum of squares
    converged: bool
    iterations: int
    frozen: tuple[str, ...]

    @property
    def amplitude(self) -> float:
        return self.params.amplitude

    @property
    def phase(self) -> float:
        return self.params.phase


def wrap_phase(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(phi, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def model_profile(
    params: FitModelParams, beams, omega_i: float, period: float, n_fine: int
) -> np.ndarray:
    """Smeared periodic rate profile on n_fine uniform cells over the period.

    The Gaussian kernel is sampled on the same grid, normalized to unit sum
    and applied by circular convolution, so the profile is covariant under
    grid-commensurate time translations.
    """
    if params.sigma_t > period / 2:
        raise ValueError("sigma_t wider than half the period")
    h = period / n_fine
    centers = (np.arange(n_fine) + 0.5) * h
    rate = total_scattering_rate(beams, params.amplitude, params.phase, omega_i, centers)
    if params.sigma_t > h / 2:
        offsets = np.arange(n_fine) * h
        offsets = np.where(offsets > period / 2, offsets - period, offsets)
        kernel = np.exp(-0.5 * (offsets / params.sigma_t) ** 2)
        kernel /= kernel.sum()
        rate = np.real(np.fft.ifft(np.fft.fft(rate) * np.fft.fft(kernel)))
    return rate


def _bin_integrals(profile: np.ndarray, period: float, edges: np.ndarray) -> np.ndarray:
    """Integral of the piecewise-constant profile between consecutive edges."""
    n_fine = len(profile)
    h = period / n_fine
    cum = np.concatenate([[0.0], np.cumsum(profile) * h])
    fine_edges = np.arange(n_fine + 1) * h
    return np.diff(np.interp(edges, fine_edges, cum))


def model_curve(
    params: FitModelParams,
    beams,
    omega_i: float,
    period: float,
    bin_width: float,
    fine_factor: int = 8,
) -> np.ndarray:
    """Expected counts per TAC bin for the given model parameters.

    A trailing partial bin receives proportionally fewer counts; both the
    rate term and the flat offset scale with the actual bin width.
    """
    from .photons import expected_bin_count

    n_bins = expected_bin_count(period, bin_width)
    edges = np.minimum(np.arange(n_bins + 1) * bin_width, period)
    n_fine = fine_factor * n_bins
    profile = model_profile(params, beams, omega_i, period, n_fine)
    integrals = _bin_integrals(profile, period, edges)
    widths = np.diff(edges)
    return params.alpha * integrals / bin_width + params.beta * widths / bin_width


def derive_alpha_beta(
    eta: float, gate_time: float, n_intervals: int, total_counts: float, snr: float
) -> tuple[float, float]:
    """Closed-form scale and offset of the detection chain.

    alpha = eta * t_m / n  and  beta = N / (n (1 + SNR)).
    """
    if n_intervals <= 0:
        raise ValueError("n_intervals must be > 0")
    if snr <= -1:
        raise ValueError("snr must exceed -1")
    alpha = eta * gate_time / n_intervals
    beta = total_counts / (n_intervals * (1.0 + snr))
    return alpha, beta


def amplitude_diagnostic_height(
    params: FitModelParams, beams, omega_i: float, period: float, n_fine: int = 4096
) -> float:
    """Height of the secondary feature of the smeared profile.

    Evaluated at the phase where the ion counter-propagates fastest, i.e.
    where the far-detuned beam approaches its Doppler resonance; this is the
    second peak of the folded fluorescence curve and the feature whose
    height grows with oscillation amplitude.
    """
    profile = model_profile(params, beams, omega_i, period, n_fine)
    t_star = (math.pi - params.phase) / omega_i % period
    idx = int(t_star / (period / n_fine)) % n_fine
    return float(profile[idx])


def _is_flat(counts: np.ndarray) -> bool:
    # Chi-square against a flat histogram; Poisson scatter alone stays near
    # one per degree of freedom, real Doppler modulation is far above.
    mean = max(counts.mean(), 1.0)
    chi2 = float(np.sum((counts - mean) ** 2) / mean)
    dof = max(len(counts) - 1, 1)
    return chi2 < dof + 8.0 * math.sqrt(2.0 * dof)


def initial_guess(
    hist: TacHistogram,
    beams,
    omega_i: float | None = None,
    amplitude_range: tuple[float, float] = (12e-6, 32e-6),
    sigma_t: float = 0.0,
    n_amplitudes: int = 24,
) -> FitModelParams:
    """Coarse starting point from template matching.

    The offset comes from the histogram floor, the phase from the circular
    cross-correlation peak against a zero-phase template, and the amplitude
    from a 1-D grid scored by the same correlation (the grid resolves the
    growth of the second peak with amplitude).
    """
    if omega_i is None:
        omega_i = TWO_PI / hist.period
    counts = hist.counts.astype(float)
    if _is_flat(counts):
        raise NoModulationError("histogram is flat; nothing to fit")

    widths = np.diff(hist.bin_edges)
    full = widths >= hist.bin_width * (1 - 1e-9)
    beta_guess = max(0.0, float(np.partition(counts[full], 2)[:3].mean()))
    signal = counts - beta_guess * widths / hist.bin_width
    signal -= signal.mean()

    spectrum = np.fft.rfft(signal)
    best = None
    amplitudes = np.linspace(*amplitude_range, n_amplitudes)
    for amp in amplitudes:
        template = model_curve(
            FitModelParams(amp, 0.0, 1.0, 0.0, sigma_t),
            beams,
            omega_i,
            hist.period,
            hist.bin_width,
        )
        template = template - template.mean()
        norm = math.sqrt(float(np.sum(template**2)))
        if norm == 0:
            continue
        # Circular cross-correlation over all bin shifts at once.
        corr = np.fft.irfft(spectrum * np.conj(np.fft.rfft(template)), len(signal))
        shift = int(np.argmax(corr))
        score = corr[shift] / norm
        if best is None or score > best[0]:
            best = (score, amp, shift, template)
    if best is None:
        raise NoModulationError("no usable template correlation")
    _, amp, shift, template = best

    # data(i) ~ template(i - shift): the pattern moved right by `shift`
    # bins, i.e. the phase decreased by shift * bin * omega.
    phase = wrap_phase(-shift * hist.bin_width * omega_i)

    rate_template = model_curve(
        FitModelParams(amp, phase, 1.0, 0.0, sigma_t),
        beams,
        omega_i,
        hist.period,
        hist.bin_width,
    )
    denom = float(np.sum(rate_template * widths / hist.bin_width))
    alpha = max(
        1e-12, float(np.sum(counts - beta_guess * widths / hist.bin_width)) / denom
    )
    return FitModelParams(
        amplitude=float(amp),
        phase=phase,
        alpha=alpha,
        beta=beta_guess,
        sigma_t=sigma_t,
    )


def fit_histogram(
    hist: TacHistogram,
    beams,
    init: FitModelParams | None = None,
    frozen: tuple[str, ...] = DEFAULT_FROZEN,
    omega_i: float | None = None,
    weighted: bool = True,
    max_evaluations: int = 500,
) -> FitResult:
    """Weighted nonlinear least squares on a TAC histogram.

    Poisson weights 1/max(count, 1) stabilize low-count bins; ``frozen``
    names parameters held at their initial values.  Convergence follows the
    relative-residual (1e-8) and step-norm (1e-10) thresholds; running out
    of evaluations flags the result instead of raising.
    """
    if hist.total_counts == 0:
        raise NoModulationError("empty histogram")
    counts = hist.counts.astype(float)
    if _is_flat(counts):
        raise NoModulationError("histogram is flat; nothing to fit")
    if omega_i is None:
        omega_i = TWO_PI / hist.period
    unknown = set(frozen) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown frozen parameters: {sorted(unknown)}")
    if init is None:
        init = initial_guess(hist, beams, omega_i)
    if not np.all(np.isfinite(init.as_array())):
        raise ValueError("initial parameters must be finite")

    free = [name for name in PARAM_NAMES if name not in frozen]
    if not free:
        raise ValueError("at least one parameter must be free")

    weights = 1.0 / np.sqrt(np.maximum(counts, 1.0)) if weighted else np.ones_like(counts)

    lower = {"amplitude": 0.0, "phase": -2 * math.pi, "alpha": 0.0, "beta": 0.0, "sigma_t": 0.0}
    upper = {
        "amplitude": np.inf,
        "phase": 2 * math.pi,
        "alpha": np.inf,
        "beta": np.inf,
        "sigma_t": hist.period / 2 * 0.999,
    }
    scales = {
        "amplitude": 1e-6,
        "phase": 0.1,
        "alpha": max(init.alpha, 1e-12),
        "beta": max(init.beta, 1.0),
        "sigma_t": max(init.sigma_t, hist.bin_width),
    }

    def build(vector) -> FitModelParams:
        values = dict(zip(PARAM_NAMES, (float(v) for v in init.as_array())))
        values.update(zip(free, (float(v) for v in vector)))
        values["amplitude"] = max(values["amplitude"], 0.0)
        return FitModelParams(**values)

    def residuals(vector):
        params = build(vector)
        curve = model_curve(params, beams, omega_i, hist.period, hist.bin_width)
        return weights * (counts - curve)

    x0 = [getattr(init, name) for name in free]
    result = least_squares(
        residuals,
        x0,
        bounds=([lower[n] for n in free], [upper[n] for n in free]),
        x_scale=[scales[n] for n in free],
        ftol=1e-8,
        xtol=1e-10,
        gtol=1e-12,
        max_nfev=max_evaluations,
        method="trf",
    )

    converged = result.status > 0
    params = build(result.x)
    params = replace(params, phase=wrap_phase(params.phase))

    dof = max(len(counts) - len(free), 1)
    scale2 = 2.0 * result.cost / dof
    errors = {name: 0.0 for name in PARAM_NAMES}
    try:
        jtj_inv = np.linalg.pinv(result.jac.T @ result.jac)
        sigma = np.sqrt(np.maximum(np.diag(jtj_inv) * scale2, 0.0))
        for name, err in zip(free, sigma):
            errors[name] = float(err)
    except np.linalg.LinAlgError:
        converged = False

    return FitResult(
        params=params,
        errors=errors,
        residual=float(2.0 * result.cost),
        converged=bool(converged),
        iterations=int(result.nfev),
        frozen=tuple(frozen),
    )


def chain_init_params(
    hist: TacHistogram,
    eta: float,
    snr: float,
    amplitude: float,
    phase: float,
    sigma_t: float = 0.0,
) -> FitModelParams:
    """Fit initialization with alpha/beta at their detection-chain values."""
    alpha, beta = derive_alpha_beta(
        eta, hist.gate_time, hist.n_bins, hist.total_counts, snr
    )
    return FitModelParams(
        amplitude=amplitude, phase=phase, alpha=alpha, beta=beta, sigma_t=sigma_t
    )


FIT_REPORT_MAGIC = "# phonon-sensor fit-report v1"
_FIT_REPORT_KEYS = {
    "converged": lambda text: text == "true",
    "iterations": int,
    "residual": float,
    "frozen": optional(lambda text: tuple(text.split(","))),
    **{key: float for name in PARAM_NAMES for key in (name, f"{name}_err")},
}


def save_fit_report(result: FitResult, path, config_hash: str | None = None) -> None:
    """Stable key-value text report of a completed fit."""
    header = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "frozen": ",".join(result.frozen) or None,
        "config_hash": config_hash or None,
    }
    for name in PARAM_NAMES:
        header.update({name: getattr(result.params, name), f"{name}_err": result.errors[name]})
    write_header_file(path, FIT_REPORT_MAGIC, header)


def load_fit_report(path) -> FitResult:
    fields, _ = read_header_file(path, FIT_REPORT_MAGIC, _FIT_REPORT_KEYS)
    return FitResult(
        params=FitModelParams(**{name: fields[name] for name in PARAM_NAMES}),
        errors={name: fields[f"{name}_err"] for name in PARAM_NAMES},
        residual=fields["residual"],
        converged=fields["converged"],
        iterations=fields["iterations"],
        frozen=fields["frozen"] or (),
    )
