"""Poisson maximum-likelihood recovery of oscillation amplitude and phase
from a TAC histogram.

The model is the two-beam scattering rate, convolved with a Gaussian
time dispersion and folded onto the period, integrated over the TAC bins,
scaled and offset:

    counts(bin) = alpha * <smeared rate over bin> + beta * width_fraction

The fit minimises the Poisson deviance of the counts against this model.
Amplitude and phase are the physical parameters; alpha, beta and the
dispersion width sigma_t are nuisance parameters that default to the
closed-form detection-chain values and stay frozen.

:func:`rate_integrals` is the one forward model of the fit and of the
photon sampler's binned law, and it is exact: the rate is a cosine series
in its Doppler phase w t + phi with closed-form coefficients, the
dispersion multiplies harmonic n by exp(-(n w sigma_t)^2/2), and each bin
integrates to a difference of the series' antiderivative at its edges.
There is no grid, no quadrature and no FFT.  The model's derivatives are
the same sums over other coefficients, so they are exact too.  The fit is
a Levenberg-Marquardt loop of its own on these columns, chain-ruled
through the deviance residuals; :func:`fisher_information` builds the
Cramer-Rao bound from the same columns.

What depends only on the binning, never on the counts, is built once per
binning and reused read-only: the bin edges and widths, the sines and
cosines of the harmonics at the bin edges, and the initial guess's
zero-phase template bank over its fixed amplitude grid, whose conjugate
spectra form one 2-D array so that a single inverse FFT correlates a
histogram with every template.  What depends on the model's shape but not
on alpha or beta, the bin integrals and their derivative rows, is kept
read-only for the last few shapes, so fits that share a start form it
once.  The correlation runs on a fast (5-smooth) FFT length; the FFTs are
numpy's, and the fast length is computed here, so fitting imports no
scipy module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import TWO_PI
from .fileio import optional, read_header_file, write_header_file
from .photons import TacHistogram, bin_grid
from .physics import _check_rate_arguments

PARAM_NAMES = ("amplitude", "phase", "alpha", "beta", "sigma_t")
DEFAULT_FROZEN = ("alpha", "beta", "sigma_t")
# The rate's cosine series is cut at the first harmonic whose bound,
# relative to the largest, falls below the tolerance, and at most at the
# cap, which bounds the cost of an absurd amplitude.
HARMONIC_TOLERANCE = 2.0**-53
HARMONIC_CAP = 4096


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


def _harmonic_count(rho: float, width: float) -> int:
    """Smallest n >= 1 at which rho^n exp(-(n width)^2/2) falls below
    HARMONIC_TOLERANCE, at most HARMONIC_CAP."""
    if rho == 0:
        return 1
    slope, curvature = -math.log(rho), 0.5 * width * width
    depth = -math.log(HARMONIC_TOLERANCE)
    # The positive root of curvature n^2 + slope n = depth.
    root = math.sqrt(slope * slope + 4 * curvature * depth) + slope
    return min(math.floor(2 * depth / root) + 1, HARMONIC_CAP) if root else HARMONIC_CAP


def _rate_harmonics(beams: tuple, amplitude: float, omega_i: float, width: float, slope: bool):
    """Cosine series of the summed rate in theta = w t + phi: ``(c_0, c)``,
    with ``c[n - 1]`` the coefficient of cos n theta for n = 1..N, and
    with ``slope`` also their derivatives in the amplitude.

    A beam scatters K Im 1/(z - u cos theta), with the pole
    z = Delta - i (Gamma/2) sqrt(1 + s), K = (Gamma s/4pi) Gamma/(2 sqrt(1 + s))
    and u = k w A.  With w = sqrt(z^2 - u^2) on the root with
    Re(w conj z) >= 0 and rho = u/(z + w), which is below 1 in modulus
    and 0 at A = 0, 1/(z - u cos theta) = (1/w)(1 + 2 sum rho^n cos n theta)
    (Gradshteyn & Ryzhik 1.447).  So c_0 = K Im 1/w, c_n = 2 K Im rho^n/w,
    and d(rho^n/w)/du = n rho^(n-1) z/(w^2 (z + w)) + rho^n u/w^3.  N is
    :func:`_harmonic_count` of the largest |rho| at the jitter's width
    w sigma_t in phase.
    """
    c0 = dc0 = 0.0
    rhos, weights = [], []
    for beam in beams:
        root = math.sqrt(1 + beam.saturation)
        z = complex(beam.detuning, -0.5 * beam.linewidth * root)
        scale = beam.linewidth**2 * beam.saturation / (8 * math.pi * root)
        u = beam.wave_number * omega_i * amplitude
        w = cmath.sqrt(z * z - u * u)
        if (w * z.conjugate()).real < 0:
            w = -w
        rhos.append(u / (z + w))
        c0 += scale * (1 / w).imag
        chain = scale * beam.wave_number * omega_i
        dc0 += chain * (u / w**3).imag
        weights.append((2 * scale / w, 2 * chain * z / (w * w * (z + w)), 2 * chain * u / w**3))
    n = _harmonic_count(max(map(abs, rhos)), width)
    # powers[:, n] = rho^n, for n = 0..N.
    powers = np.empty((len(rhos), n + 1), complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = np.array(rhos)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    weights = np.array(weights).T
    c = (weights[0] @ powers[:, 1:]).imag
    if not slope:
        return c0, c
    dc = weights[1] @ powers[:, :-1]
    dc *= np.arange(1, n + 1)
    dc += weights[2] @ powers[:, 1:]
    return c0, c, dc0, dc.imag


def rate_integrals(
    beams, amplitude, phase, sigma_t, omega_i, period, bin_width, free=(), stop=math.inf
) -> np.ndarray:
    """Integral over each TAC bin, its edges clipped at ``stop``, of the
    rate convolved with a Gaussian of width sigma_t in time.

    The one forward model of the fit and the photon sampler.  With theta =
    w t + phi the rate is c_0 + sum c_n cos n theta (:func:`_rate_harmonics`),
    and the Gaussian multiplies harmonic n by g_n = exp(-(n w sigma_t)^2/2):
    folded onto the period, the wrapped normal of each photon's jitter.  A
    bin [t_a, t_b] integrates to S(t_b) - S(t_a) + c_0 (t_b - t_a), with
    S(t) = Im sum alpha_n e^(i n w t) (:func:`_edge_sums`) and alpha_n =
    c_n g_n e^(i n phi)/(n w): no grid and no quadrature.

    With ``free`` the result is a stack: the integrals, then their exact
    derivatives in those of amplitude, phase and sigma_t that ``free``
    names, in that order: the same sums over the c_n's amplitude
    derivatives, i n alpha_n, and -(n w)^2 sigma_t alpha_n, which is 0 at
    sigma_t = 0.
    """
    beams, amplitude = _check_rate_arguments(beams, amplitude, phase, omega_i)
    if sigma_t > period / 2:
        raise ValueError("sigma_t wider than half the period")
    width = omega_i * sigma_t
    harmonics = _rate_harmonics(beams, amplitude, omega_i, width, "amplitude" in free)
    c0, c = harmonics[:2]
    n = np.arange(1, len(c) + 1)
    turn = np.exp(n * (1j * phase))
    turn /= n * omega_i
    if width:
        turn *= np.exp(-0.5 * (n * width) ** 2)
    alpha = [c * turn]
    if "amplitude" in free:
        alpha.append(harmonics[3] * turn)
    if "phase" in free:
        alpha.append(1j * n * alpha[0])
    if "sigma_t" in free:
        alpha.append(-sigma_t * (n * omega_i) ** 2 * alpha[0])
    edges, widths = bin_grid(period, bin_width)
    if stop < period:
        widths = np.diff(np.minimum(edges, stop))
    sums = _edge_sums(np.array(alpha), omega_i, period, bin_width, stop)
    integrals = sums[:, 1:] - sums[:, :-1]
    integrals[0] += c0 * widths
    if "amplitude" in free:
        integrals[1] += harmonics[2] * widths
    return integrals if free else integrals[0]


def _sin_cos(n: int, angles: np.ndarray) -> np.ndarray:
    """Rows sin k x and cos k x for k = 1..n in turn, over the angles x:
    shape (2 n, len(x)).  Each entry is formed alike whatever n is."""
    table = np.empty((n, 2, len(angles)))
    np.multiply.outer(np.arange(1, n + 1), angles, out=table[:, 1])
    np.sin(table[:, 1], out=table[:, 0])
    np.cos(table[:, 1], out=table[:, 1])
    return table.reshape(2 * n, len(angles))


class _EdgePhases:
    """Read-only e^(i n w t) at a binning's edges, for n = 1..size.

    The edges t_j = j h, j < n_bins, split as j = q R + r with R about
    4 sqrt(n_bins): e^(i n w t_j) is the coarse factor ``coarse[q, n - 1]``
    = e^(i n w q R h), 1 at q = 0, times the fine one, whose sin and cos
    are rows 2n - 2 and 2n - 1 of ``fine``; its last column holds the last
    edge (the period, clipped).  The tables grow at least twofold when a
    pass asks for more harmonics; a pass that asks for fewer reads their
    leading part, whose values do not depend on the size.
    """

    def __init__(self, omega_i: float, period: float, bin_width: float):
        edges, widths = bin_grid(period, bin_width)
        self.n_bins = len(widths)
        fine_count = min(4 * math.isqrt(self.n_bins - 1) + 4, self.n_bins)
        coarse_count = -(-self.n_bins // fine_count)
        step = omega_i * bin_width
        self.fine_angles = np.append(step * np.arange(fine_count), omega_i * edges[-1])
        self.coarse_angles = step * fine_count * np.arange(coarse_count)
        self.size = 0

    def tables(self, n: int) -> tuple:
        if n > self.size:
            self.size = min(max(n, 2 * self.size), HARMONIC_CAP)
            self.fine = _sin_cos(self.size, self.fine_angles)
            coarse = _sin_cos(self.size, self.coarse_angles).reshape(self.size, 2, -1)
            self.coarse = np.ascontiguousarray((coarse[:, 1] + 1j * coarse[:, 0]).T)
            self.fine.flags.writeable = self.coarse.flags.writeable = False
        return self.coarse[:, :n], self.fine[: 2 * n]


# A binning's tables, built once and grown in place.
_edge_phases = lru_cache(maxsize=8)(_EdgePhases)


def _edge_sums(
    alpha: np.ndarray, omega_i: float, period: float, bin_width: float, stop: float
) -> np.ndarray:
    """S_j = Im sum_n alpha[:, n - 1] e^(i n w t_j) at each TAC bin edge
    t_j clipped at ``stop``, row by row: a complex product with the coarse
    factors, then a real one with the fine table, as Im(x e^(i y)) =
    Re x sin y + Im x cos y.  The first row's product is formed alone, so
    its sums do not depend on the rows below it."""
    n_rows, n = alpha.shape
    phases = _edge_phases(omega_i, period, bin_width)
    coarse, fine = phases.tables(n)
    split = np.multiply(alpha[:, None, :], coarse, out=np.empty((n_rows, len(coarse), n), complex))
    split = split.view(float)
    products = np.empty((n_rows, len(coarse), fine.shape[1]))
    np.matmul(split[0], fine, out=products[0])
    if n_rows > 1:
        np.matmul(split[1:].reshape(-1, 2 * n), fine, out=products[1:].reshape(-1, fine.shape[1]))
    sums = np.empty((n_rows, phases.n_bins + 1))
    sums[:, :-1] = products[:, :, :-1].reshape(n_rows, -1)[:, : phases.n_bins]
    sums[:, -1] = products[:, 0, -1]
    if stop < period:
        cut = bin_grid(period, bin_width)[0] >= stop
        sums[:, cut] = alpha.view(float) @ _sin_cos(n, np.array([omega_i * stop]))
    return sums


@lru_cache(maxsize=1)
def _fft():
    """numpy.fft, imported on first use, so that importing the package
    loads no FFT module.

    The first call also frees one 1 MB block.  glibc's malloc serves blocks
    below its mmap threshold from the heap and raises that threshold to the
    size of the largest mapped block freed.  Without the raise, whether the
    template correlation's buffers (about 200 kB a call) are mapped and
    faulted in anew on every call depends on the heap's history: a warm
    recovery round without jitter took 3106 minor faults in one build and
    8 in another that differed from it only in a docstring, against 8
    with the raise (numpy 2.4, glibc 2.36, 2-core VM).
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
    integrals' derivatives (:func:`rate_integrals`).  Those
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
    """Read-only :func:`rate_integrals`, with (for ``free``) their
    derivative rows in those shape parameters.

    They hold no alpha or beta, so the fits that share a start (the
    template amplitude, the reference phase and sigma_t, equal across a
    campaign's gates) form the start's integrals once; the last 16 are
    kept.
    """
    integrals = rate_integrals(beams, amplitude, phase, sigma_t, omega_i, period, bin_width, free)
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
    (:func:`check_start`), or a ValueError names it.  The sigma_t column
    is 0 at sigma_t = 0, so a free sigma_t that starts at 0 stays there.
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
    # The model is even in sigma_t, so its sigma_t column is 0 at 0,
    # whatever the other parameters: a free sigma_t that starts there
    # cannot move.
    if init.sigma_t == 0:
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
