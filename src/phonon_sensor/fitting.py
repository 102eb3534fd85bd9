"""Poisson maximum-likelihood recovery of oscillation amplitude and phase
from a TAC histogram.

The model is the two-beam scattering rate, circularly convolved with a
Gaussian time-dispersion kernel over the folding period, integrated into
the TAC bins, scaled and offset:

    counts(bin) = alpha * <smeared rate over bin> + beta * width_fraction

The fit minimises the Poisson deviance of the counts against this model.
Amplitude and phase are the physical parameters; alpha, beta and the
dispersion width sigma_t are nuisance parameters that default to the
closed-form detection-chain values and stay frozen.

The model's derivatives are exact: the rate's closed-form derivatives in
amplitude and phase come from the pass that forms the rate, and the smear
and the bin integrals are linear, so they carry over column by column;
sigma_t's column smears the rate with the kernel's width derivative.  The
fit is a Levenberg-Marquardt loop of its own on these columns,
chain-ruled through the deviance residuals;
:func:`fisher_information` builds the Cramer-Rao bound from the same
columns.

:func:`model_profile`, the rate on the profile cells smeared by the
kernel, is the one forward model of the fit and of the photon sampler's
binned law, on one grid.  What depends only on the binning, never on the
counts, is built once per binning and reused read-only: the bin edges
and widths, the profile cells' centres, the table of cos w t and sin w t
on those centres (from which every profile's rate forms its Doppler
phase w t + phi by angle addition), the table of the cells each TAC bin
reads and their weights (through which the fit and the sampler integrate
a piecewise quadratic profile over the bins), the spectrum of the
Gaussian dispersion kernel, and the initial guess's zero-phase template
bank over its fixed amplitude grid, whose conjugate spectra form one 2-D
array so that a single inverse FFT correlates a histogram with every
template.  What depends on the profile's shape but not on alpha or beta,
the bin integrals of the profile and of its derivative rows, is kept
read-only for the last few shapes, so fits that share a start form it
once.  The circular smear is one real linear convolution of a fast
(5-smooth) FFT length, folded back onto the period, so a profile grid
with a large prime factor never takes the slow prime-length FFT path.
The FFTs are numpy's, and the fast length is computed here, so fitting
imports no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import TWO_PI
from .fileio import optional, read_header_file, write_header_file
from .photons import TacHistogram, bin_grid
from .physics import _require_finite, total_scattering_rate

PARAM_NAMES = ("amplitude", "phase", "alpha", "beta", "sigma_t")
DEFAULT_FROZEN = ("alpha", "beta", "sigma_t")
# Profile cells per TAC bin of the fit model and of the photon sampler.
MODEL_FINE_FACTOR = 8


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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in PARAM_NAMES])


@dataclass(frozen=True)
class FitResult:
    params: FitModelParams
    errors: dict[str, float]
    residual: float  # Poisson deviance 2 sum(m - n + n ln(n/m)) at the fit
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
    beams,
    amplitude: float,
    phase: float,
    sigma_t: float,
    omega_i: float,
    period: float,
    n_fine: int,
    free=(),
) -> np.ndarray:
    """Smeared periodic rate profile on n_fine uniform cells over the period.

    The one forward model of the fit and the photon sampler; the rate forms
    its Doppler phase by angle addition from the grid's ``_doppler_table``.

    With ``free`` the result is a stack: the profile, then its derivatives
    in those free parameters it depends on, in the order amplitude, phase,
    sigma_t.  The smear is linear, so the rate's closed-form derivatives
    are smeared with the same kernel; the sigma_t row is the rate smeared
    with the kernel's derivative in its width.
    """
    centers = _fine_grid(period, n_fine)
    table = _doppler_table(omega_i, period, n_fine)
    doppler = [name for name in ("amplitude", "phase") if name in free]
    rate = total_scattering_rate(beams, amplitude, phase, omega_i, centers, bool(doppler), table)
    if not free:
        return circular_smear(rate, period, sigma_t)
    rows = dict(zip(("rate", "amplitude", "phase"), rate)) if doppler else {"rate": rate}
    stack = circular_smear(np.stack([rows[name] for name in ("rate", *doppler)]), period, sigma_t)
    if "sigma_t" in free:
        width = circular_smear(rows["rate"], period, sigma_t, width_derivative=True)
        stack = np.vstack([stack, width])
    return stack


def circular_smear(
    profile: np.ndarray, period: float, sigma_t: float, width_derivative: bool = False
) -> np.ndarray:
    """Circular Gaussian convolution of a profile on uniform cells over the period.

    The Gaussian kernel is sampled on the same grid, normalized to unit sum
    and applied by circular convolution, so the profile is covariant under
    grid-commensurate time translations and keeps its sum.  The circular
    convolution is computed as the linear one on a fast FFT length of at
    least twice the grid, with its upper half folded back onto the period.
    A kernel narrower than half a cell leaves the profile as it is.  A 2-D
    ``profile`` is smeared row by row.

    With ``width_derivative`` the result is the smeared profile's
    derivative in sigma_t instead, which is 0 while the smear is the
    identity.
    """
    if sigma_t > period / 2:
        raise ValueError("sigma_t wider than half the period")
    n_fine = profile.shape[-1]
    if _smear_is_identity(period, n_fine, sigma_t):
        return np.zeros_like(profile) if width_derivative else profile
    fft = _fft()
    n_fft, kernel_spectrum = _kernel_spectrum(period, n_fine, sigma_t, width_derivative)
    linear = fft.irfft(fft.rfft(profile, n_fft) * kernel_spectrum, n_fft)
    return linear[..., :n_fine] + linear[..., n_fine : 2 * n_fine]


@lru_cache(maxsize=1)
def _fft():
    """numpy.fft, imported on first use, so that importing the package
    loads no FFT module.

    The first call also frees one 1 MB block.  glibc's malloc serves blocks
    below its mmap threshold from the heap and raises that threshold to the
    size of the largest mapped block freed.  Without the raise, the smear's
    FFT buffers (100-280 kB a call) are mapped and faulted in anew on every
    call: a warm jittered-recovery round took 46k minor faults against 15
    (numpy 2.4, glibc 2.36, 2-core VM).
    """
    import numpy.fft

    bytearray(1 << 20)
    return numpy.fft


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c of at least n >= 1, as
    ``scipy.fft.next_fast_len(n, real=True)`` gives it."""
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        power35 = power5
        while power35 < best:
            # The smallest power of two that lifts power35 to at least n.
            best = min(best, power35 << (-(-n // power35) - 1).bit_length())
            power35 *= 3
        power5 *= 5
    return best


def _smear_is_identity(period: float, n_fine: int, sigma_t: float) -> bool:
    """A kernel at most half a profile cell wide leaves the profile as it is."""
    return sigma_t <= period / n_fine / 2


@lru_cache(maxsize=8)
def _kernel_spectrum(
    period: float, n_fine: int, sigma_t: float, width_derivative: bool = False
) -> tuple[int, np.ndarray]:
    """Fast FFT length and read-only real spectrum of the smearing kernel.

    The kernel is the unit-sum Gaussian on the profile grid with offsets
    wrapped to (-period/2, period/2], zero-padded to ``n_fft``, the
    smallest 5-smooth length of at least 2 n_fine.  With
    ``width_derivative`` it is that kernel's derivative in sigma_t:
    (dk - k_hat sum(dk)) / sum(k), with dk = k offsets^2 / sigma_t^3.
    """
    h = period / n_fine
    offsets = np.arange(n_fine) * h
    offsets = np.where(offsets > period / 2, offsets - period, offsets)
    kernel = np.exp(-0.5 * (offsets / sigma_t) ** 2)
    if width_derivative:
        dk = kernel * offsets**2 / sigma_t**3
        kernel = (dk - kernel / kernel.sum() * dk.sum()) / kernel.sum()
    else:
        kernel /= kernel.sum()
    fft = _fft()
    n_fft = _next_fast_len(2 * n_fine)
    spectrum = fft.rfft(kernel, n_fft)
    spectrum.flags.writeable = False
    return n_fft, spectrum


@lru_cache(maxsize=8)
def _fine_grid(period: float, n_fine: int) -> np.ndarray:
    """Read-only centres of n_fine uniform profile cells over the period."""
    centers = (np.arange(n_fine) + 0.5) * (period / n_fine)
    centers.flags.writeable = False
    return centers


@lru_cache(maxsize=8)
def _doppler_table(omega_i: float, period: float, n_fine: int) -> tuple:
    """Read-only cos w t and sin w t on the centres of n_fine uniform
    profile cells over the period, from which the scattering rate forms
    its Doppler phase w t + phi by angle addition.  The centres are
    checked finite here, once, and not on each rate pass."""
    centers = _fine_grid(period, n_fine)
    _require_finite("t", centers)
    angle = omega_i * centers
    table = np.cos(angle), np.sin(angle)
    for array in table:
        array.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _bin_weights(period: float, n_fine: int, bin_width: float, stop=math.inf) -> tuple:
    """Read-only ``(index, weight)`` of shape (n_bins, K + 2): the cells each
    TAC bin reads, with the bin edges clipped at ``stop``, and their
    weights, 0 in the padding.  K is the most cells a bin touches.

    The weights integrate exactly the piecewise quadratic through each
    cell's centre value and its two neighbours' (wrapping around the
    period).  On the part [a, b] of a cell inside a bin, in cell units from
    its centre, the cell weighs b - a - (b^3 - a^3)/3 and its right and
    left neighbours (b^3 - a^3)/6 +- (b^2 - a^2)/4; a whole cell weighs
    11/12 on itself and 1/24 on each neighbour.
    """
    edges, _ = bin_grid(period, bin_width)
    at = np.minimum(edges, stop) / period * n_fine
    first = np.floor(at[:-1]).astype(np.intp)
    cells = first[:, None] - 1 + np.arange(int(np.max(np.ceil(at[1:]) - first)) + 2)
    lo = np.clip(at[:-1, None] - cells, 0.0, 1.0)
    hi = np.clip(at[1:, None] - cells, 0.0, 1.0)
    a, b, width = lo - 0.5, hi - 0.5, hi - lo
    d2, d3 = width * (b + a), width * (a * a + a * b + b * b)
    weight = width - d3 / 3
    weight[:, 1:] += d3[:, :-1] / 6 + d2[:, :-1] / 4
    weight[:, :-1] += d3[:, 1:] / 6 - d2[:, 1:] / 4
    weight *= period / n_fine
    index = cells % n_fine
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def _bin_integrals(profile: np.ndarray, period: float, bin_width: float, stop=math.inf):
    """Integral of the profile over each TAC bin clipped at ``stop``, row
    by row for a 2-D profile, from the binning's :func:`_bin_weights`."""
    index, weight = _bin_weights(period, profile.shape[-1], bin_width, stop)
    return np.einsum("...bk,bk->...b", np.take(profile, index, axis=-1), weight)


def model_curve(
    params: FitModelParams,
    beams,
    omega_i: float,
    period: float,
    bin_width: float,
    free=(),
):
    """Expected counts per TAC bin for the given model parameters.

    A trailing partial bin receives proportionally fewer counts; both the
    rate term and the flat offset scale with the actual bin width.

    With ``free`` the result is ``(curve, columns)``: column j is the
    curve's exact derivative in parameter ``free[j]``.  The alpha and beta
    columns are the rate integrals and the bin widths over the bin width;
    the amplitude, phase and sigma_t columns are alpha times the bin
    integrals of the profile's derivatives (:func:`model_profile`).  Those
    integrals do not depend on alpha or beta and are kept
    (:func:`_shape_integrals`); the scaling is applied fresh on each call.
    """
    shape_free = tuple(name for name in ("amplitude", "phase", "sigma_t") if name in free)
    shape = (params.amplitude, params.phase, params.sigma_t)
    integrals = _shape_integrals(tuple(beams), *shape, omega_i, period, bin_width, shape_free)
    _, widths = bin_grid(period, bin_width)
    rate = integrals[0] if shape_free else integrals
    curve = params.alpha * rate / bin_width + params.beta * widths / bin_width
    if not free:
        return curve
    columns = {"alpha": rate / bin_width, "beta": widths / bin_width}
    columns.update(zip(shape_free, params.alpha * integrals[1:] / bin_width))
    return curve, np.column_stack([columns[name] for name in free])


@lru_cache(maxsize=16)
def _shape_integrals(
    beams: tuple,
    amplitude: float,
    phase: float,
    sigma_t: float,
    omega_i: float,
    period: float,
    bin_width: float,
    free: tuple,
) -> np.ndarray:
    """Read-only bin integrals of the smeared profile, then (with ``free``)
    of its derivative rows in those shape parameters, as
    :func:`model_profile` stacks them.

    They hold no alpha or beta, so the fits that share a start (the
    template amplitude, the reference phase and sigma_t, equal across a
    campaign's gates) form the start's profile once; the last 16 are
    kept.
    """
    n_fine = MODEL_FINE_FACTOR * len(bin_grid(period, bin_width)[1])
    profile = model_profile(beams, amplitude, phase, sigma_t, omega_i, period, n_fine, free)
    integrals = _bin_integrals(profile, period, bin_width)
    integrals.flags.writeable = False
    return integrals


def fisher_information(
    params: FitModelParams, beams, omega_i: float, period: float, bin_width: float, free
) -> np.ndarray:
    """Fisher information of one histogram's Poisson counts in ``free``.

    The counts per bin are independent Poisson variates of mean m(theta),
    so I = sum over bins of dm dm^T / m, built from the model's derivative
    columns; ``sqrt(inv(I)[j, j])`` is the Cramer-Rao bound of parameter j
    (Kay, Fundamentals of Statistical Signal Processing: Estimation
    Theory, 1993).
    """
    curve, columns = model_curve(params, beams, omega_i, period, bin_width, free=tuple(free))
    return columns.T @ (columns / curve[:, None])


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


def _is_flat(counts: np.ndarray) -> bool:
    # Chi-square against a flat histogram; Poisson scatter alone stays near
    # one per degree of freedom, real Doppler modulation is far above.
    mean = max(counts.mean(), 1.0)
    chi2 = float(np.sum((counts - mean) ** 2) / mean)
    dof = max(len(counts) - 1, 1)
    return chi2 < dof + 8.0 * math.sqrt(2.0 * dof)


def _correlation_length(n: int) -> int:
    """Smallest 5-smooth length that holds a linear correlation of n bins."""
    return _next_fast_len(2 * n)


@lru_cache(maxsize=8)
def _template_bank(
    beams: tuple,
    omega_i: float,
    period: float,
    bin_width: float,
    sigma_t: float,
) -> tuple:
    """Zero-phase, zero-mean templates over the amplitude grid of 24
    amplitudes evenly spaced over 12-32 um, in grid order.

    The bank is ``(amplitudes, norms, spectra)``, read-only, with row k of
    ``spectra`` the conjugate ``rfft`` of template k on the correlation
    length of :func:`_correlation_length`; templates of zero norm are left
    out.
    """
    fft = _fft()
    amplitudes, norms, templates = [], [], []
    for amp in np.linspace(12e-6, 32e-6, 24):
        template = model_curve(
            FitModelParams(amp, 0.0, 1.0, 0.0, sigma_t), beams, omega_i, period, bin_width
        )
        template = template - template.mean()
        norm = math.sqrt(float(np.sum(template**2)))
        if norm == 0:
            continue
        amplitudes.append(amp)
        norms.append(norm)
        templates.append(template)
    n_fft = _correlation_length(len(bin_grid(period, bin_width)[1]))
    spectra = np.empty((len(templates), n_fft // 2 + 1), complex)
    for row, template in zip(spectra, templates):
        row[:] = np.conj(fft.rfft(template, n_fft))
    bank = (np.array(amplitudes), np.array(norms), spectra)
    for array in bank:
        array.flags.writeable = False
    return bank


def _circular_correlation(signal: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Circular cross-correlation of ``signal`` with every template of a
    bank, row by row over all bin shifts at once: the linear one on the
    :func:`_correlation_length`, with its negative lags folded back onto
    the period.  ``spectra`` holds the templates' conjugate spectra."""
    n = len(signal)
    n_fft = _correlation_length(n)
    fft = _fft()
    linear = fft.irfft(fft.rfft(signal, n_fft) * spectra, n_fft)
    return linear[:, :n] + linear[:, n_fft - n :]


def initial_guess(
    hist: TacHistogram,
    beams,
    omega_i: float | None = None,
    sigma_t: float = 0.0,
) -> tuple[float, float]:
    """Coarse ``(amplitude, phase)`` from template matching.

    The histogram floor is taken off as an offset; the phase comes from the
    circular cross-correlation peak against a zero-phase template, and the
    amplitude from a fixed grid of 24 amplitudes evenly spaced over
    12-32 um, scored by the same correlation (the grid resolves the growth
    of the second peak with amplitude).  The scale and offset of a fit
    start come from :func:`derive_alpha_beta`.
    """
    if omega_i is None:
        omega_i = TWO_PI / hist.period
    counts = hist.counts.astype(float)
    if _is_flat(counts):
        raise NoModulationError("histogram is flat; nothing to fit")

    _, widths = bin_grid(hist.period, hist.bin_width)
    full = widths >= hist.bin_width * (1 - 1e-9)
    floor = max(0.0, float(np.partition(counts[full], 2)[:3].mean()))
    signal = counts - floor * widths / hist.bin_width
    signal -= signal.mean()

    amplitudes, norms, template_conj = _template_bank(
        tuple(beams), omega_i, hist.period, hist.bin_width, sigma_t
    )
    if not len(amplitudes):
        raise NoModulationError("no usable template correlation")
    corr = _circular_correlation(signal, template_conj)
    shifts = np.argmax(corr, axis=1)
    # The first highest score wins.
    best = int(np.argmax(corr[np.arange(len(shifts)), shifts] / norms))
    amp, shift = amplitudes[best], int(shifts[best])

    # data(i) ~ template(i - shift): the pattern moved right by `shift`
    # bins, i.e. the phase decreased by shift * bin * omega.
    return float(amp), wrap_phase(-shift * hist.bin_width * omega_i)


def _fit_bounds(period: float) -> dict[str, tuple[float, float]]:
    """Range of each parameter the fit searches, for a folding period."""
    return {
        "amplitude": (0.0, np.inf),
        "phase": (-2 * math.pi, 2 * math.pi),
        "alpha": (0.0, np.inf),
        "beta": (0.0, np.inf),
        "sigma_t": (0.0, period / 2 * 0.999),
    }


def check_start(init: FitModelParams, period: float) -> None:
    """Raise a ValueError naming the first start value that is not finite
    or lies outside the range the fit searches at this folding period."""
    for name, (low, high) in _fit_bounds(period).items():
        value = getattr(init, name)
        if not (math.isfinite(value) and low <= value <= high):
            raise ValueError(f"initial {name} = {value:g} outside [{low:g}, {high:g}]")


def _deviance_residuals(curve, counts, n_log_n) -> tuple[np.ndarray, np.ndarray]:
    """Signed deviance residuals rho and their derivatives in the model m.

    With h = m - n + n ln(n/m) the half deviance of a bin, rho =
    sign(n - m) sqrt(2 h) and d rho/dm = -|m - n| / (m sqrt(2 h)), which
    tends to -1/sqrt(n) at m = n.  Where m is within n/2 of n, h is a small
    difference of large terms, so sqrt(2 h)/|m - n| is taken from
    u - log1p(u), u = m/n - 1, or from its series below |u| = 1e-6.
    """
    # An empty model bin gives a large but finite residual.
    curve = np.maximum(curve, np.finfo(float).tiny)
    gap = curve - counts
    half_deviance = gap + n_log_n - counts * np.log(curve)
    root = np.sqrt(2.0 * np.maximum(half_deviance, 0.0))
    residuals = np.copysign(root, counts - curve)

    near = np.abs(gap) < 0.5 * counts
    slope = np.divide(np.abs(gap), root, out=np.zeros_like(gap), where=~near)
    u = gap[near] / counts[near]
    series = 1.0 + u / 3.0
    ratio = np.divide(
        np.abs(u), np.sqrt(2.0 * (u - np.log1p(u))), out=series, where=np.abs(u) >= 1e-6
    )
    slope[near] = np.sqrt(counts[near]) * ratio
    return residuals, -slope / curve


def fit_histogram(
    hist: TacHistogram,
    beams,
    init: FitModelParams,
    frozen: tuple[str, ...] = DEFAULT_FROZEN,
    omega_i: float | None = None,
    max_evaluations: int = 500,
) -> FitResult:
    """Poisson maximum-likelihood fit of a TAC histogram.

    Folded counts are independent Poisson variates per bin, so the fit
    minimises the Poisson deviance (the Baker-Cousins likelihood
    chi-square) by least squares on the signed deviance residuals
    ``sign(n - m) sqrt(2 (m - n + n ln(n/m)))``, with ``n ln(n/m) = 0`` at
    ``n = 0``; unlike count weights, it does not pull the model toward
    low-count bins.  The caller builds the start ``init``, as
    :func:`chain_init_params` does from a guessed amplitude and phase;
    ``frozen`` names parameters held at their start values.  The result's
    ``residual`` is the deviance.

    The solver is Levenberg-Marquardt with Marquardt's diag(J^T J)
    scaling (More, 1978): damping falls tenfold after an accepted step and
    rises tenfold after a rejected one, trial points are clipped onto the
    searched range, and a step is accepted when the deviance does not
    rise.  The fit has converged when an accepted step lowers the deviance
    by at most 1e-8 of it, or a step's scaled length is at most 1e-10 of
    the parameters'.  Running out of ``max_evaluations`` flags the result
    instead of raising; ``iterations`` counts the evaluations.  Each
    evaluation is one model pass that also yields the exact Jacobian
    columns, and the errors come from pinv(J^T J) times the deviance per
    degree of freedom.

    Every start value must be finite and inside the searched range
    (:func:`check_start`), or a ValueError names it.  While sigma_t is at
    most half a profile cell the smear is the identity and its column is
    0, so a free sigma_t that starts there (at 0, say) keeps its start
    value.
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
    check_start(init, hist.period)

    free = tuple(name for name in PARAM_NAMES if name not in frozen)
    # While the smear is the identity its sigma_t column is 0, whatever the
    # other parameters: a free sigma_t that starts there cannot move.
    if _smear_is_identity(hist.period, MODEL_FINE_FACTOR * hist.n_bins, init.sigma_t):
        free = tuple(name for name in free if name != "sigma_t")
    if not free:
        raise ValueError("at least one parameter must be free")
    bounds = np.array([_fit_bounds(hist.period)[name] for name in free]).T

    # n ln n, taken as 0 at n = 0.
    n_log_n = counts * np.log(np.where(counts > 0, counts, 1.0))

    if "alpha" in free and init.alpha == 0:
        # At alpha = 0 the amplitude and phase columns vanish, and the first
        # steps would move alpha alone.  Start instead at the alpha that puts
        # every count under the start's profile.
        unit = replace(init, alpha=1.0, beta=0.0)
        rate = model_curve(unit, beams, omega_i, hist.period, hist.bin_width)
        init = replace(init, alpha=counts.sum() / rate.sum())

    def build(vector) -> FitModelParams:
        return replace(init, **dict(zip(free, map(float, vector))))

    def evaluate(vector) -> tuple[np.ndarray, np.ndarray, float]:
        """Residuals, Jacobian and deviance from one model pass."""
        curve, columns = model_curve(
            build(vector), beams, omega_i, hist.period, hist.bin_width, free=free
        )
        residuals, slope = _deviance_residuals(curve, counts, n_log_n)
        return residuals, slope[:, None] * columns, float(residuals @ residuals)

    # Levenberg-Marquardt; zero columns keep a scale of 1.
    x = np.array([getattr(init, name) for name in free])
    residuals, jac, deviance = evaluate(x)
    nfev, damping, converged = 1, 1e-3, False
    while nfev < max_evaluations and not converged:
        jtj = jac.T @ jac
        scale = np.diag(jtj).copy()
        scale[scale == 0] = 1.0
        step = np.linalg.solve(jtj + damping * np.diag(scale), -(jac.T @ residuals))
        trial = np.clip(x + step, *bounds)
        root = np.sqrt(scale)
        converged = np.linalg.norm(root * (trial - x)) <= 1e-10 * np.linalg.norm(root * x)
        if converged:
            break
        trial_residuals, trial_jac, trial_deviance = evaluate(trial)
        nfev += 1
        if not trial_deviance <= deviance:
            damping *= 10.0
            continue
        converged = deviance - trial_deviance <= 1e-8 * deviance
        x, residuals, jac, deviance = trial, trial_residuals, trial_jac, trial_deviance
        damping /= 10.0

    params = build(x)
    params = replace(params, phase=wrap_phase(params.phase))

    dof = max(len(counts) - len(free), 1)
    errors = {name: 0.0 for name in PARAM_NAMES}
    try:
        jtj_inv = np.linalg.pinv(jac.T @ jac)
        sigma = np.sqrt(np.maximum(np.diag(jtj_inv) * deviance / dof, 0.0))
        errors.update(zip(free, (float(err) for err in sigma)))
    except np.linalg.LinAlgError:
        converged = False

    return FitResult(
        params=params,
        errors=errors,
        residual=deviance,
        converged=bool(converged),
        iterations=nfev,
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
        "residual_statistic": "poisson-deviance",
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
