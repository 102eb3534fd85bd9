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

The loop runs a stack of fits in lockstep (:func:`fit_histograms`): one
model pass with a leading fit axis, one set of residuals and one round of
step algebra per iteration for every fit still running, with each fit's
decisions and arithmetic its own, so a fit gives the result it gives
alone; :func:`fit_histogram` is the stack of one.  Through a
:class:`FitStack`, each fit of a stack is still one :func:`fit_histogram`
call, the first of which runs the stack's loop.

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


def _harmonic_count(rho: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Smallest n >= 1 at which r^n exp(-(n width)^2/2) falls below
    HARMONIC_TOLERANCE, with r the largest |rho| over the beams (rows), per
    column, as floats and not capped: a longer series than HARMONIC_CAP
    is cut."""
    depth = -math.log(HARMONIC_TOLERANCE)
    # Clipped into (0, 1), r = 0 gives a count of 1 and no slope is 0.
    slope = -np.log(np.clip(np.abs(rho).max(axis=0), np.finfo(float).tiny, 1 - 2**-53))
    # The positive root of (width^2/2) n^2 + slope n = depth.
    root = np.sqrt(slope * slope + 2 * depth * width * width) + slope
    return np.floor(2 * depth / root) + 1


@lru_cache(maxsize=8)
def _beam_poles(beams: tuple) -> tuple:
    """Per beam, as (beams, 1) columns: the pole z, the scale K and the
    wave number k of :func:`_rate_harmonics`."""
    detuning, linewidth, saturation, wave_number = (
        np.array([[getattr(beam, name)] for beam in beams])
        for name in ("detuning", "linewidth", "saturation", "wave_number")
    )
    root = np.sqrt(1 + saturation)
    z = detuning - 0.5j * linewidth * root
    scale = linewidth**2 * saturation / (8 * math.pi * root)
    for array in (z, scale, wave_number):
        array.flags.writeable = False
    return z, scale, wave_number


def _pole_ratios(beams: tuple, amplitude: np.ndarray, omega_i: float) -> tuple:
    """u, w and rho of :func:`_rate_harmonics`, per beam (rows) and
    amplitude (columns)."""
    z, _, wave_number = _beam_poles(beams)
    u = wave_number * omega_i * amplitude
    w = np.sqrt(z * z - u * u)
    w[(w * z.conj()).real < 0] *= -1
    return u, w, u / (z + w)


def _series_length(beams, amplitude, omega_i: float, width) -> np.ndarray:
    """:func:`_harmonic_count` of each amplitude's series at the jitter's
    width w sigma_t in phase, not capped."""
    return _harmonic_count(_pole_ratios(tuple(beams), np.atleast_1d(amplitude), omega_i)[2], width)


def _rate_harmonics(beams: tuple, amplitude, omega_i: float, width, slope: bool):
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
    w sigma_t in phase, at most HARMONIC_CAP.

    ``amplitude`` and ``width`` may also be 1-D arrays, one entry per fit.
    The result is then ``(N, c_0, c, ...)``: each fit's N, the c_0 of each
    fit, and rows of c that run to the largest N, of which row i is read
    to N[i].  Every entry is formed alone, whatever the other fits are.
    """
    stacked = np.ndim(amplitude) > 0
    amplitude = np.atleast_1d(amplitude)
    z, scale, wave_number = _beam_poles(tuple(beams))
    u, w, rho = _pole_ratios(tuple(beams), amplitude, omega_i)
    counts = np.minimum(_harmonic_count(rho, width), HARMONIC_CAP).astype(int)
    n = int(counts.max())
    # powers[b, k, n] = rho^n of beam b and fit k, for n = 0..N.
    powers = np.empty(rho.shape + (n + 1,), complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = rho[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    c0 = (scale * (1 / w).imag).sum(axis=0)
    c = ((2 * scale / w)[..., None] * powers[..., 1:]).sum(axis=0).imag
    series = [c0, c]
    if slope:
        chain = scale * wave_number * omega_i
        cube = w**3
        dc = ((2 * chain * z / (w * w * (z + w)))[..., None] * powers[..., :-1]).sum(axis=0)
        dc *= np.arange(1, n + 1)
        dc += ((2 * chain * u / cube)[..., None] * powers[..., 1:]).sum(axis=0)
        series += [(chain * (u / cube).imag).sum(axis=0), dc.imag]
    if stacked:
        return (counts, *series)
    return tuple(term[0] for term in series)


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

    ``amplitude``, ``phase`` and ``sigma_t`` may also be 1-D arrays of one
    length, one entry per fit; the result then gains a leading fit axis.
    Each fit keeps its own series length and its own edge sums, so its
    integrals are those of a call with its values alone.
    """
    stacked = np.ndim(amplitude) > 0
    amplitude, phase, sigma_t = np.broadcast_arrays(
        np.atleast_1d(amplitude), np.atleast_1d(phase), np.atleast_1d(sigma_t)
    )
    # NaN is the least of any array that holds one, so one check covers all.
    beams, _ = _check_rate_arguments(beams, np.min(amplitude), phase, omega_i)
    if np.any(sigma_t > period / 2):
        raise ValueError("sigma_t wider than half the period")
    width = omega_i * sigma_t
    counts, c0, c, *slopes = _rate_harmonics(beams, amplitude, omega_i, width, "amplitude" in free)
    n = np.arange(1, c.shape[1] + 1)
    turn = np.exp(n * (1j * phase[:, None]))
    turn /= n * omega_i
    if np.any(width):
        turn *= np.exp(-0.5 * (n * width[:, None]) ** 2)
    alpha = [c * turn]
    if "amplitude" in free:
        alpha.append(slopes[1] * turn)
    if "phase" in free:
        alpha.append(1j * n * alpha[0])
    if "sigma_t" in free:
        alpha.append(-sigma_t[:, None] * (n * omega_i) ** 2 * alpha[0])
    alpha = np.stack(alpha, axis=1)
    edges, widths = bin_grid(period, bin_width)
    if stop < period:
        widths = np.diff(np.minimum(edges, stop))
    integrals = np.empty(alpha.shape[:2] + widths.shape)
    # Fits of one series length share calls, each of which forms every
    # fit's products alone; a call takes at most about 2048 coefficient
    # rows, which bounds its working arrays.
    for count in sorted(set(counts.tolist())):
        same = np.flatnonzero(counts == count)
        per_call = max(1, 2048 // (alpha.shape[1] * count))
        for first in range(0, len(same), per_call):
            fits = same[first : first + per_call]
            sums = _edge_sums(alpha[fits, :, :count], omega_i, period, bin_width, stop)
            integrals[fits] = sums[..., 1:] - sums[..., :-1]
    integrals[:, 0] += c0[:, None] * widths
    if "amplitude" in free:
        integrals[:, 1] += slopes[0][:, None] * widths
    if not free:
        integrals = integrals[:, 0]
    return integrals if stacked else integrals[0]


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
    """S_j = Im sum_n alpha[..., n - 1] e^(i n w t_j) at each TAC bin edge
    t_j clipped at ``stop``, row by row: a complex product with the coarse
    factors, then a real one with the fine table, as Im(x e^(i y)) =
    Re x sin y + Im x cos y.  The first row's product is formed alone, so
    its sums do not depend on the rows below it.

    ``alpha`` may carry a leading fit axis; each fit's products are then
    formed alone, as a call with its rows alone forms them."""
    stacked = alpha.ndim == 3
    if not stacked:
        alpha = alpha[None]
    n_fits, n_rows, n = alpha.shape
    phases = _edge_phases(omega_i, period, bin_width)
    coarse, fine = phases.tables(n)
    split = np.empty((n_fits, n_rows, len(coarse), n), complex)
    np.multiply(alpha[:, :, None, :], coarse, out=split)
    split = split.view(float)
    products = np.empty((n_fits, n_rows, len(coarse), fine.shape[1]))
    np.matmul(split[:, 0], fine, out=products[:, 0])
    if n_rows > 1:
        rest = products[:, 1:].reshape(n_fits, -1, fine.shape[1])
        np.matmul(split[:, 1:].reshape(n_fits, -1, 2 * n), fine, out=rest)
    # Freed before the sums are built, which lowers a stack's peak memory.
    del split
    sums = np.empty((n_fits, n_rows, phases.n_bins + 1))
    sums[..., :-1] = products[..., :-1].reshape(n_fits, n_rows, -1)[..., : phases.n_bins]
    sums[..., -1] = products[:, :, 0, -1]
    if stop < period:
        cut = bin_grid(period, bin_width)[0] >= stop
        sums[..., cut] = alpha.view(float) @ _sin_cos(n, np.array([omega_i * stop]))
    return sums if stacked else sums[0]


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
    scales = np.array([params.alpha]), np.array([params.beta])
    curve, rows = _scaled(integrals.reshape(1, -1, len(widths)), *scales, widths, bin_width, free)
    if not free:
        return curve[0]
    return curve[0], np.ascontiguousarray(rows[0].T)


def _scaled(integrals, alpha, beta, widths, bin_width, free) -> tuple:
    """Curves of a stack of fits with scales ``alpha`` and offsets
    ``beta``, from their bin integrals and derivative rows in the shape
    parameters of ``free`` (:func:`rate_integrals`), and the rows of each
    curve's derivatives in ``free``."""
    shape_free = [name for name in ("amplitude", "phase", "sigma_t") if name in free]
    rate = integrals[:, 0]
    curve = alpha[:, None] * rate / bin_width + beta[:, None] * widths / bin_width
    rows = np.empty((len(integrals), len(free), len(widths)))
    for row, name in zip(rows.transpose(1, 0, 2), free):
        if name == "alpha":
            np.divide(rate, bin_width, out=row)
        elif name == "beta":
            row[:] = widths / bin_width
        else:
            np.multiply(alpha[:, None], integrals[:, 1 + shape_free.index(name)], out=row)
            row /= bin_width
    return curve, rows


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

    The histogram floor, the mean of its three lowest full bins, is taken
    off as an offset, so a period of fewer than three full bins raises
    :class:`NoModulationError`; the phase comes from the
    circular cross-correlation peak against a zero-phase template, and the
    amplitude from a fixed grid of 24 amplitudes evenly spaced over
    12-32 um, scored by the same correlation (the grid resolves the growth
    of the second peak with amplitude).  The scale and offset of a fit
    start come from :func:`derive_alpha_beta`.
    """
    if omega_i is None:
        omega_i = TWO_PI / hist.period
    _, widths = bin_grid(hist.period, hist.bin_width)
    full = widths >= hist.bin_width * (1 - 1e-9)
    if np.count_nonzero(full) < 3:
        raise NoModulationError(
            f"full TAC bins in the period: {np.count_nonzero(full)}, fewer than the 3 "
            "the initial guess's floor needs"
        )
    counts = hist.counts.astype(float)
    if _is_flat(counts):
        raise NoModulationError("histogram is flat; nothing to fit")

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


def check_start(init: FitModelParams, period: float, beams, omega_i: float) -> None:
    """Raise a ValueError naming the first start value that is not finite
    or lies outside the range the fit searches at this folding period, or
    a start amplitude whose rate series HARMONIC_CAP would cut."""
    _check_starts([init], period, beams, omega_i)


def _check_starts(inits, period: float, beams, omega_i: float) -> None:
    """:func:`check_start` of each start, with one series check for all."""
    bounds = _fit_bounds(period)
    for init in inits:
        for name, (low, high) in bounds.items():
            value = getattr(init, name)
            if not (math.isfinite(value) and low <= value <= high):
                raise ValueError(f"initial {name} = {value:g} outside [{low:g}, {high:g}]")
    amplitudes = np.array([init.amplitude for init in inits])
    widths = omega_i * np.array([init.sigma_t for init in inits])
    cut = _series_length(beams, amplitudes, omega_i, widths) > HARMONIC_CAP
    if cut.any():
        raise ValueError(
            f"initial amplitude = {amplitudes[cut][0]:g} needs more than {HARMONIC_CAP} harmonics"
        )


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
    root = np.log(curve)
    root *= counts
    # root = sqrt(2 h), with h = (gap + n ln n) - n ln m.
    np.subtract(gap + n_log_n, root, out=root)
    np.maximum(root, 0.0, out=root)
    root *= 2.0
    np.sqrt(root, out=root)
    residuals = np.copysign(root, counts - curve)

    # Each branch is formed on every bin and the other's values discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        u = gap / counts
        ratio = np.log1p(u)
        np.subtract(u, ratio, out=ratio)
        ratio *= 2.0
        np.sqrt(ratio, out=ratio)
        size = np.abs(u)
        np.divide(size, ratio, out=ratio)
        np.divide(u, 3.0, out=u)
        u += 1.0
        np.copyto(ratio, u, where=size < 1e-6)
        np.abs(gap, out=gap)
        slope = np.sqrt(counts, out=size)
        slope *= ratio
        far = ~(gap < 0.5 * counts)
        np.copyto(slope, np.divide(gap, root, out=ratio), where=far)
    slope /= curve
    return residuals, np.negative(slope, out=slope)


def fit_histogram(
    hist: TacHistogram,
    beams,
    init: FitModelParams,
    frozen: tuple[str, ...] = DEFAULT_FROZEN,
    omega_i: float | None = None,
    max_evaluations: int = 500,
    stack: FitStack | None = None,
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
    rise.  A trial whose rate series HARMONIC_CAP would cut is rejected
    unformed, as a rise is.  The fit has converged when an accepted step
    lowers the deviance by at most 1e-8 of it, or a step's scaled length
    is at most 1e-10 of the parameters'.  Running out of
    ``max_evaluations`` flags the result instead of raising;
    ``iterations`` counts the evaluations.  Each evaluation is one model
    pass that also yields the exact Jacobian columns, and the errors come
    from pinv(J^T J) times the deviance per degree of freedom.

    Every start value must be finite and inside the searched range
    (:func:`check_start`), or a ValueError names it.  The sigma_t column
    is 0 at sigma_t = 0, so a free sigma_t that starts at 0 stays there.

    This is the stack of one of :func:`fit_histograms`, whose fits give
    the results they give alone.  Given a :class:`FitStack` that holds
    ``hist`` from ``init``, made with the same beams and settings, the
    result is this fit's from the stack's one loop.
    """
    if stack is None:
        return fit_histograms([hist], beams, [init], frozen, omega_i, max_evaluations)[0]
    if (tuple(beams), tuple(frozen), omega_i, max_evaluations) != stack.settings:
        raise ValueError("a stack's fits take the beams and settings it was made with")
    return stack.result(hist, init)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _pseudo_inverses(matrices: np.ndarray) -> list:
    """pinv of each matrix of a stack, or None for one whose SVD fails; a
    failure leaves the others as the stack's pinv gives them."""
    try:
        return list(np.linalg.pinv(matrices))
    except np.linalg.LinAlgError:
        if len(matrices) == 1:
            return [None]
        return [inverse for matrix in matrices for inverse in _pseudo_inverses(matrix[None])]


def fit_histograms(
    hists,
    beams,
    inits,
    frozen: tuple[str, ...] = DEFAULT_FROZEN,
    omega_i: float | None = None,
    max_evaluations: int = 500,
) -> list[FitResult]:
    """:func:`fit_histogram` of each histogram from its own start, as one
    stack: the histograms share a binning, and their fits free the same
    parameters.

    The fits run one lockstep Levenberg-Marquardt loop.  Each iteration
    forms the step algebra of every fit still running at once, and one
    model pass (:func:`rate_integrals` with a fit axis) and one set of
    deviance residuals for every trial point.  Damping, acceptance,
    convergence, ``max_evaluations`` and ``iterations`` stay per fit, and
    each fit's arithmetic is formed alone, so a fit's result equals that
    of :func:`fit_histogram` on its histogram, whatever stack it is in.
    The starts' bin integrals come from the kept ones
    (:func:`_shape_integrals`), so fits that share a start form it once.
    """
    hists, inits = list(hists), list(inits)
    if not hists or len(hists) != len(inits):
        raise ValueError("need one start per histogram")
    period, bin_width = hists[0].period, hists[0].bin_width
    if any((hist.period, hist.bin_width) != (period, bin_width) for hist in hists):
        raise ValueError("the histograms of a stack must share one binning")
    counts = np.array([hist.counts for hist in hists], float)
    for hist, row in zip(hists, counts):
        if hist.total_counts == 0:
            raise NoModulationError("empty histogram")
        if _is_flat(row):
            raise NoModulationError("histogram is flat; nothing to fit")
    if omega_i is None:
        omega_i = TWO_PI / period
    unknown = set(frozen) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown frozen parameters: {sorted(unknown)}")
    beams = tuple(beams)
    _check_starts(inits, period, beams, omega_i)

    free = tuple(name for name in PARAM_NAMES if name not in frozen)
    # The model is even in sigma_t, so its sigma_t column is 0 at 0,
    # whatever the other parameters: a free sigma_t that starts there
    # cannot move.
    if "sigma_t" in free and not all(init.sigma_t for init in inits):
        if any(init.sigma_t for init in inits):
            raise ValueError("the fits of a stack must free the same parameters")
        free = tuple(name for name in free if name != "sigma_t")
    if not free:
        raise ValueError("at least one parameter must be free")
    bounds = np.array([_fit_bounds(period)[name] for name in free]).T
    shape_free = tuple(name for name in ("amplitude", "phase", "sigma_t") if name in free)
    _, widths = bin_grid(period, bin_width)

    # n ln n, taken as 0 at n = 0.
    n_log_n = counts * np.log(np.where(counts > 0, counts, 1.0))

    if "alpha" in free:
        # At alpha = 0 the amplitude and phase columns vanish, and the first
        # steps would move alpha alone.  Start instead at the alpha that puts
        # every count under the start's profile.
        for k, init in enumerate(inits):
            if init.alpha == 0:
                unit = replace(init, alpha=1.0, beta=0.0)
                rate = model_curve(unit, beams, omega_i, period, bin_width)
                inits[k] = replace(init, alpha=counts[k].sum() / rate.sum())

    # Each fit's parameters in PARAM_NAMES order; the free ones move.
    params = np.array([init.as_array() for init in inits])
    index = [PARAM_NAMES.index(name) for name in free]

    def evaluate(fits, at, first=False):
        """J^T J, J^T r and the deviance of each of ``fits`` at its
        parameter row in ``at``, from one model pass."""
        amplitude, phase, alpha, beta, sigma_t = at.T.copy()
        if first:
            integrals = np.array(
                [
                    _shape_integrals(beams, *shape, omega_i, period, bin_width, shape_free)
                    for shape in zip(amplitude, phase, sigma_t)
                ]
            )
        else:
            integrals = rate_integrals(
                beams, amplitude, phase, sigma_t, omega_i, period, bin_width, shape_free
            )
        integrals = integrals.reshape(len(fits), -1, len(widths))
        curve, jt = _scaled(integrals, alpha, beta, widths, bin_width, free)
        del integrals
        # Indexing by every fit would copy the counts.
        which = fits if len(fits) < len(counts) else slice(None)
        residuals, slope = _deviance_residuals(curve, counts[which], n_log_n[which])
        jt *= slope[:, None, :]
        return jt @ jt.transpose(0, 2, 1), jt @ residuals[:, :, None], _row_dots(residuals, residuals)

    # Levenberg-Marquardt in lockstep; zero columns keep a scale of 1.
    n_fits = len(hists)
    jtj, jtr, deviance = evaluate(np.arange(n_fits), params, first=True)
    nfev = np.ones(n_fits, int)
    damping = np.full(n_fits, 1e-3)
    converged = np.zeros(n_fits, bool)
    diagonal = np.arange(len(free))
    while True:
        fits = np.flatnonzero(~converged & (nfev < max_evaluations))
        if not len(fits):
            break
        x, system = params[fits][:, index], jtj[fits]
        scale = system[:, diagonal, diagonal]
        scale[scale == 0] = 1.0
        system[:, diagonal, diagonal] += damping[fits, None] * scale
        step = np.linalg.solve(system, -jtr[fits])[:, :, 0]
        moved_to = np.clip(x + step, *bounds)
        root = np.sqrt(scale)
        moved = root * (moved_to - x)
        stopped = np.sqrt(_row_dots(moved, moved)) <= 1e-10 * np.sqrt(_row_dots(root * x, root * x))
        converged[fits[stopped]] = True
        fits, trial = fits[~stopped], params[fits[~stopped]]
        trial[:, index] = moved_to[~stopped]
        # A trial whose series the cap would cut is rejected unformed, as a
        # rise of the deviance is.
        amplitude, sigma_t = trial[:, 0], trial[:, 4]
        formed = _series_length(beams, amplitude, omega_i, omega_i * sigma_t) <= HARMONIC_CAP
        nfev[fits] += 1
        damping[fits[~formed]] *= 10.0
        fits, trial = fits[formed], trial[formed]
        if not len(fits):
            continue
        trial_jtj, trial_jtr, trial_deviance = evaluate(fits, trial)
        accepted = trial_deviance <= deviance[fits]
        damping[fits[~accepted]] *= 10.0
        fits, trial_deviance = fits[accepted], trial_deviance[accepted]
        converged[fits] = deviance[fits] - trial_deviance <= 1e-8 * deviance[fits]
        params[fits], jtj[fits], jtr[fits] = trial[accepted], trial_jtj[accepted], trial_jtr[accepted]
        deviance[fits] = trial_deviance
        damping[fits] /= 10.0

    dof = max(len(widths) - len(free), 1)
    inverses = _pseudo_inverses(jtj)
    results = []
    for k, init in enumerate(inits):
        fitted = replace(init, **dict(zip(free, map(float, params[k, index]))))
        errors = {name: 0.0 for name in PARAM_NAMES}
        if inverses[k] is not None:
            sigma = np.sqrt(np.maximum(np.diag(inverses[k]) * deviance[k] / dof, 0.0))
            errors.update(zip(free, (float(err) for err in sigma)))
        results.append(
            FitResult(
                params=replace(fitted, phase=wrap_phase(fitted.phase)),
                errors=errors,
                residual=float(deviance[k]),
                converged=bool(converged[k]) and inverses[k] is not None,
                iterations=int(nfev[k]),
                frozen=tuple(frozen),
            )
        )
    return results


class FitStack:
    """Histograms of one binning whose fits run as one lockstep loop.

    Each member is fitted through :func:`fit_histogram` with ``stack``
    set, so every fit is still one call that returns its own result.  The
    loop (:func:`fit_histograms`) runs when the first member is asked
    for, and the others' results are then returned as it gave them.
    """

    def __init__(
        self,
        hists,
        beams,
        inits,
        frozen: tuple[str, ...] = DEFAULT_FROZEN,
        omega_i: float | None = None,
        max_evaluations: int = 500,
    ):
        self.hists, self.inits = list(hists), list(inits)
        self.settings = (tuple(beams), tuple(frozen), omega_i, max_evaluations)
        self._results = None

    def result(self, hist: TacHistogram, init: FitModelParams) -> FitResult:
        """The fit of member ``hist`` from ``init``."""
        for k, (member, start) in enumerate(zip(self.hists, self.inits)):
            if member is hist and start == init:
                break
        else:
            raise ValueError("the histogram and start are not a member of the stack")
        if self._results is None:
            beams, frozen, omega_i, max_evaluations = self.settings
            self._results = fit_histograms(
                self.hists, beams, self.inits, frozen, omega_i, max_evaluations
            )
        return self._results[k]


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
