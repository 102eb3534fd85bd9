"""Poisson maximum-likelihood recovery of oscillation amplitude and phase
from a TAC histogram.

The model is the two-beam scattering rate, convolved with a Gaussian
time dispersion and folded onto the period, integrated over the TAC bins,
scaled and offset:

    counts(bin) = alpha * <smeared rate over bin> + beta * width_fraction

The fit minimises the Poisson deviance of the counts against this model.
Amplitude and phase are the physical parameters; alpha, beta and the
dispersion width sigma_t are nuisance parameters that default to the
closed-form detection-chain values and stay frozen.  The binning fixes
the model frequency: the model, the guess and the fit take the folding
period and form w = 2 pi / period from it.

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

A fit starts from :func:`initial_guess`, a linear regression of the
counts on the forward model's own low harmonics: at a known phase, the
amplitude of a fixed grid whose harmonics best match the histogram's.

What depends only on the binning, never on the counts, is built once per
binning and reused read-only: the bin edges and widths, the sines and
cosines of the harmonics at the bin edges, and the initial guess's
regression rows.  The guess's harmonics over its amplitude grid are built
once per beams, period and jitter width.
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
# The initial guess regresses on at most this many harmonics, and takes its
# amplitude from the grid np.linspace(*GUESS_GRID), 0.1 um apart; the grid
# is built at the first guess, so that importing the package forms no array.
GUESS_HARMONICS = 8
GUESS_GRID = (8e-6, 40e-6, 321)


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


def _pole_ratios(beams: tuple, amplitude: np.ndarray, omega: float) -> tuple:
    """u, w and rho of :func:`_rate_harmonics`, per beam (rows) and
    amplitude (columns), at the angular frequency ``omega``."""
    z, _, wave_number = _beam_poles(beams)
    u = wave_number * omega * amplitude
    w = np.sqrt(z * z - u * u)
    w[(w * z.conj()).real < 0] *= -1
    return u, w, u / (z + w)


def _series_length(beams, amplitude, omega: float, width) -> np.ndarray:
    """:func:`_harmonic_count` of each amplitude's series at the jitter's
    width w sigma_t in phase, not capped."""
    return _harmonic_count(_pole_ratios(tuple(beams), np.atleast_1d(amplitude), omega)[2], width)


def _rate_harmonics(beams: tuple, amplitude: np.ndarray, omega: float, width, slope: bool):
    """Cosine series of the summed rate in theta = w t + phi, one per
    entry of the 1-D ``amplitude`` and ``width`` (one per fit):
    ``(N, c_0, c)``, with N each fit's series length, c_0 each fit's
    constant term and row i of ``c`` the coefficients of cos n theta for
    n = 1..N[i] in entries n - 1; the rows run to the largest N.  With
    ``slope`` the result also holds the amplitude derivatives of c_0 and
    of ``c``.  Every entry is formed alone, whatever the other fits are.

    A beam scatters K Im 1/(z - u cos theta), with the pole
    z = Delta - i (Gamma/2) sqrt(1 + s), K = (Gamma s/4pi) Gamma/(2 sqrt(1 + s))
    and u = k w A.  With w = sqrt(z^2 - u^2) on the root with
    Re(w conj z) >= 0 and rho = u/(z + w), which is below 1 in modulus
    and 0 at A = 0, 1/(z - u cos theta) = (1/w)(1 + 2 sum rho^n cos n theta)
    (Gradshteyn & Ryzhik 1.447).  So c_0 = K Im 1/w, c_n = 2 K Im rho^n/w,
    and d(rho^n/w)/du = n rho^(n-1) z/(w^2 (z + w)) + rho^n u/w^3.  N is
    :func:`_harmonic_count` of the largest |rho| at the jitter's width
    w sigma_t in phase, at most HARMONIC_CAP.
    """
    z, scale, wave_number = _beam_poles(tuple(beams))
    u, w, rho = _pole_ratios(tuple(beams), amplitude, omega)
    counts = np.minimum(_harmonic_count(rho, width), HARMONIC_CAP).astype(int)
    n = int(counts.max())
    # powers[b, k, n] = rho^n of beam b and fit k, for n = 0..N.
    powers = np.empty(rho.shape + (n + 1,), complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = rho[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    c0 = (scale * (1 / w).imag).sum(axis=0)
    c = ((2 * scale / w)[..., None] * powers[..., 1:]).sum(axis=0).imag
    series = [counts, c0, c]
    if slope:
        chain = scale * wave_number * omega
        cube = w**3
        dc = ((2 * chain * z / (w * w * (z + w)))[..., None] * powers[..., :-1]).sum(axis=0)
        dc *= np.arange(1, n + 1)
        dc += ((2 * chain * u / cube)[..., None] * powers[..., 1:]).sum(axis=0)
        series += [(chain * (u / cube).imag).sum(axis=0), dc.imag]
    return tuple(series)


def rate_integrals(
    beams, amplitude, phase, sigma_t, period, bin_width, free=(), stop=math.inf
) -> np.ndarray:
    """Integral over each TAC bin, its edges clipped at ``stop``, of the
    rate convolved with a Gaussian of width sigma_t in time, at the
    frequency w = 2 pi / ``period``.

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
    # A subnormal period's frequency overflows.
    if not (period > 0 and math.isfinite(period) and math.isfinite(TWO_PI / period)):
        raise ValueError(f"period must be > 0 and finite, got {period!r}")
    omega = TWO_PI / period
    # NaN is the least of any array that holds one, so one check covers all.
    beams, _ = _check_rate_arguments(beams, np.min(amplitude), phase, omega)
    if np.any(sigma_t > period / 2):
        raise ValueError("sigma_t wider than half the period")
    width = omega * sigma_t
    counts, c0, c, *slopes = _rate_harmonics(beams, amplitude, omega, width, "amplitude" in free)
    n = np.arange(1, c.shape[1] + 1)
    turn = np.exp(n * (1j * phase[:, None]))
    turn /= n * omega
    if np.any(width):
        turn *= np.exp(-0.5 * (n * width[:, None]) ** 2)
    alpha = [c * turn]
    if "amplitude" in free:
        alpha.append(slopes[1] * turn)
    if "phase" in free:
        alpha.append(1j * n * alpha[0])
    if "sigma_t" in free:
        alpha.append(-sigma_t[:, None] * (n * omega) ** 2 * alpha[0])
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
            sums = _edge_sums(alpha[fits, :, :count], period, bin_width, stop)
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
    """Read-only e^(i n w t) at a binning's edges, for n = 1..size and
    w = 2 pi / period.

    The edges t_j = j h, j < n_bins, split as j = q R + r with R about
    4 sqrt(n_bins): e^(i n w t_j) is the coarse factor ``coarse[q, n - 1]``
    = e^(i n w q R h), 1 at q = 0, times the fine one, whose sin and cos
    are rows 2n - 2 and 2n - 1 of ``fine``; its last column holds the last
    edge (the period, clipped).  The tables grow at least twofold when a
    pass asks for more harmonics; a pass that asks for fewer reads their
    leading part, whose values do not depend on the size.
    """

    def __init__(self, period: float, bin_width: float):
        edges, widths = bin_grid(period, bin_width)
        self.n_bins = len(widths)
        fine_count = min(4 * math.isqrt(self.n_bins - 1) + 4, self.n_bins)
        coarse_count = -(-self.n_bins // fine_count)
        step = TWO_PI / period * bin_width
        self.fine_angles = np.append(step * np.arange(fine_count), TWO_PI / period * edges[-1])
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


def _edge_sums(alpha: np.ndarray, period: float, bin_width: float, stop: float) -> np.ndarray:
    """S_j = Im sum_n alpha[k, r, n - 1] e^(i n w t_j) at each TAC bin edge
    t_j clipped at ``stop``, for each fit k and row r, with w = 2 pi /
    period: a complex product with the coarse factors, then a real one
    with the fine table, as Im(x e^(i y)) = Re x sin y + Im x cos y.  Each
    fit's products are formed alone, as a call with its rows alone forms
    them, and a fit's first row alone, so its sums do not depend on the
    rows below it."""
    n_fits, n_rows, n = alpha.shape
    phases = _edge_phases(period, bin_width)
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
        sums[..., cut] = alpha.view(float) @ _sin_cos(n, np.array([TWO_PI / period * stop]))
    return sums


def model_curve(params: FitModelParams, beams, period: float, bin_width: float, free=()):
    """Expected counts per TAC bin for the given model parameters.

    A trailing partial bin receives proportionally fewer counts; both the
    rate term and the flat offset scale with the actual bin width.

    With ``free`` the result is ``(curve, columns)``: column j is the
    curve's exact derivative in parameter ``free[j]``.  The alpha and beta
    columns are the rate integrals and the bin widths over the bin width;
    the amplitude, phase and sigma_t columns are alpha times the bin
    integrals' derivatives (:func:`rate_integrals`).
    """
    shape_free = tuple(name for name in ("amplitude", "phase", "sigma_t") if name in free)
    shape = (params.amplitude, params.phase, params.sigma_t)
    integrals = rate_integrals(beams, *shape, period, bin_width, shape_free)
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


def fisher_information(
    params: FitModelParams, beams, period: float, bin_width: float, free
) -> np.ndarray:
    """Fisher information of one histogram's Poisson counts in ``free``.

    The counts per bin are independent Poisson variates of mean m(theta),
    so I = sum over bins of dm dm^T / m, built from the model's derivative
    columns; ``sqrt(inv(I)[j, j])`` is the Cramer-Rao bound of parameter j
    (Kay, Fundamentals of Statistical Signal Processing: Estimation
    Theory, 1993).
    """
    curve, columns = model_curve(params, beams, period, bin_width, free=tuple(free))
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


@lru_cache(maxsize=8)
def _harmonic_projector(period: float, bin_width: float, harmonics: int):
    """Read-only complex rows, one per harmonic m = 1..``harmonics``, that
    take a histogram's counts to (a_m - i b_m)/w of :func:`initial_guess`.

    The rows are m times those of the pseudo-inverse of the regressors:
    the bin widths, then the differences of sin m w t and of cos m w t at
    the bin edges, which are m w times the bin integrals of cos m w t and
    of -sin m w t.

    A build also frees one 1 MB block, so that the recovery campaigns raise
    glibc's mmap threshold before their first fit.  glibc's malloc serves
    blocks below that threshold from the heap and raises it to the size of
    the largest mapped block freed; without the raise the stacked fits'
    working arrays (a few hundred kB a pass) are mapped and faulted in anew
    on every pass.  A warm pass that guesses and fits 48 histograms in 3
    stacks of 16 took 566 minor faults at 10 s gates and 586 at 1 s gates
    with 0.2 us jitter without the raise, against 0-2 with it (numpy 2.4.6,
    glibc 2.36, 2-core VM).
    """
    bytearray(1 << 20)
    edges, widths = bin_grid(period, bin_width)
    regressors = np.vstack([widths, np.diff(_sin_cos(harmonics, TWO_PI / period * edges))])
    inverse = np.linalg.pinv(regressors.T)
    projector = np.arange(1, harmonics + 1)[:, None] * (inverse[1::2] + 1j * inverse[2::2])
    projector.flags.writeable = False
    return projector


@lru_cache(maxsize=8)
def _guess_shapes(beams: tuple, omega: float, sigma_t: float, harmonics: int) -> tuple:
    """Read-only: the initial guess's amplitude grid, and one unit row per
    grid amplitude of the smeared rate's harmonics c_m g_m for
    m = 1..``harmonics``: c_m = 2 K Im rho^m/w summed over the beams, as in
    :func:`_rate_harmonics` (which would form every amplitude's whole
    series, several MB at 40 um), and g_m = exp(-(m w sigma_t)^2/2).  A row
    of zero norm stays 0."""
    amplitudes = np.linspace(*GUESS_GRID)
    _, scale, _ = _beam_poles(beams)
    _, w, rho = _pole_ratios(beams, amplitudes, omega)
    m = np.arange(1, harmonics + 1)
    shapes = ((2 * scale / w)[..., None] * rho[..., None] ** m).sum(axis=0).imag
    shapes *= np.exp(-0.5 * (m * omega * sigma_t) ** 2)
    norms = np.linalg.norm(shapes, axis=1, keepdims=True)
    np.divide(shapes, norms, out=shapes, where=norms > 0)
    amplitudes.flags.writeable = shapes.flags.writeable = False
    return amplitudes, shapes


def initial_guess(hist: TacHistogram, beams, phase: float, *, sigma_t: float = 0.0) -> float:
    """Start amplitude of a fit at a known ``phase``, from the histogram's
    low harmonics.

    The counts are regressed, by least squares, on the bin widths and the
    bin integrals of cos m w t and sin m w t, w = 2 pi / period, with
    coefficients a_m and b_m, for m = 1..M.  M is at most GUESS_HARMONICS
    and at most (full bins - 1)/2.  A single harmonic's unit shape is +-1
    at every amplitude, so M must be at least 2, and a period of fewer
    than 5 full bins raises :class:`NoModulationError`.  The width column
    takes up the offset.  By the forward model (:func:`rate_integrals`),
    z_m = a_m - i b_m = alpha c_m g_m e^(i m phase), so Re(z_m e^(-i m phase))
    is the scaled shape alpha c_m g_m.  The guess is the amplitude of
    the GUESS_GRID whose unit shape best matches it: the one that
    maximises the sum over m of Re(z_m e^(-i m phase)) times the unit row
    of c_m g_m (:func:`_guess_shapes`), the first of equal scores.  The
    scale and offset of a fit start come from :func:`derive_alpha_beta`.
    """
    _, widths = bin_grid(hist.period, hist.bin_width)
    full = np.count_nonzero(widths >= hist.bin_width * (1 - 1e-9))
    if full < 5:
        raise NoModulationError(
            f"full TAC bins in the period: {full}, fewer than the 5 the initial guess needs"
        )
    if _is_flat(hist.counts.astype(float)):
        raise NoModulationError("histogram is flat; nothing to fit")
    harmonics = min(GUESS_HARMONICS, (full - 1) // 2)
    projector = _harmonic_projector(hist.period, hist.bin_width, harmonics)
    turn = np.exp(-1j * phase * np.arange(1, harmonics + 1))
    # Not matmul: OpenBLAS runs a complex matrix-vector product of 8 x 538
    # on threads, which doubled a recovery round's CPU time.
    shape = (np.einsum("mj,j->m", projector, hist.counts) * turn).real
    amplitudes, shapes = _guess_shapes(tuple(beams), TWO_PI / hist.period, sigma_t, harmonics)
    return float(amplitudes[np.argmax(shapes @ shape)])


def _fit_bounds(period: float) -> dict[str, tuple[float, float]]:
    """Range of each parameter the fit searches, for a folding period."""
    return {
        "amplitude": (0.0, np.inf),
        "phase": (-2 * math.pi, 2 * math.pi),
        "alpha": (0.0, np.inf),
        "beta": (0.0, np.inf),
        "sigma_t": (0.0, period / 2 * 0.999),
    }


def check_starts(inits, period: float, beams) -> None:
    """Raise a ValueError naming the first start value, over the starts
    ``inits`` in turn, that is not finite or lies outside the range the fit
    searches at this folding period, or a start amplitude whose rate
    series HARMONIC_CAP would cut; one series check covers every start."""
    bounds = _fit_bounds(period)
    for init in inits:
        for name, (low, high) in bounds.items():
            value = getattr(init, name)
            if not (math.isfinite(value) and low <= value <= high):
                raise ValueError(f"initial {name} = {value:g} outside [{low:g}, {high:g}]")
    omega = TWO_PI / period
    amplitudes = np.array([init.amplitude for init in inits])
    widths = omega * np.array([init.sigma_t for init in inits])
    cut = _series_length(beams, amplitudes, omega, widths) > HARMONIC_CAP
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
    :func:`chain_init_params` does from an amplitude and phase;
    ``frozen`` names parameters held at their start values.  The result's
    ``residual`` is the deviance.

    The solver is Levenberg-Marquardt with Marquardt's diag(J^T J)
    scaling (More, 1978): damping falls tenfold after an accepted step and
    rises tenfold after a rejected one, trial points are clipped onto the
    searched range, and a step is accepted when the deviance does not
    rise.  A trial whose rate series HARMONIC_CAP would cut is rejected
    unformed, as a rise is.  The fit has converged when an accepted step
    lowers the deviance by at most 1e-8 of it, or a step's scaled length
    is at most 1e-10 of the parameters'.  A fit whose stop follows a trial
    the cap rejected, with no step accepted in between but the stopping
    one, is held at the cap, whose rejections shrank its last steps, and is
    flagged unconverged.  Running out of
    ``max_evaluations`` flags the result instead of raising;
    ``iterations`` counts the evaluations.  Each evaluation is one model
    pass that also yields the exact Jacobian columns, and the errors come
    from pinv(J^T J) times the deviance per degree of freedom.

    Every start value must be finite and inside the searched range
    (:func:`check_starts`), or a ValueError names it; a start at which the
    deviance is not finite raises one too.  The sigma_t column
    is 0 at sigma_t = 0, so a free sigma_t that starts at 0 stays there.

    This is the stack of one of :func:`fit_histograms`, whose fits give
    the results they give alone.  Given a :class:`FitStack` that holds
    ``hist`` from ``init``, made with the same beams and settings, the
    result is this fit's from the stack's one loop.
    """
    if stack is None:
        return fit_histograms([hist], beams, [init], frozen, max_evaluations)[0]
    if (tuple(beams), tuple(frozen), max_evaluations) != stack.settings:
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
    unknown = set(frozen) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown frozen parameters: {sorted(unknown)}")
    beams = tuple(beams)
    check_starts(inits, period, beams)

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
                rate = model_curve(unit, beams, period, bin_width)
                inits[k] = replace(init, alpha=counts[k].sum() / rate.sum())

    # Each fit's parameters in PARAM_NAMES order; the free ones move.
    params = np.array([init.as_array() for init in inits])
    index = [PARAM_NAMES.index(name) for name in free]

    def evaluate(fits, at):
        """J^T J, J^T r and the deviance of each of ``fits`` at its
        parameter row in ``at``, from one model pass."""
        amplitude, phase, alpha, beta, sigma_t = at.T.copy()
        integrals = rate_integrals(
            beams, amplitude, phase, sigma_t, period, bin_width, shape_free
        ).reshape(len(fits), -1, len(widths))
        curve, jt = _scaled(integrals, alpha, beta, widths, bin_width, free)
        del integrals
        # Indexing by every fit would copy the counts.
        which = fits if len(fits) < len(counts) else slice(None)
        residuals, slope = _deviance_residuals(curve, counts[which], n_log_n[which])
        jt *= slope[:, None, :]
        return jt @ jt.transpose(0, 2, 1), jt @ residuals[:, :, None], _row_dots(residuals, residuals)

    # Levenberg-Marquardt in lockstep; zero columns keep a scale of 1.
    n_fits = len(hists)
    # A start whose model overflows raises below rather than warning here.
    with np.errstate(over="ignore", invalid="ignore"):
        jtj, jtr, deviance = evaluate(np.arange(n_fits), params)
    if not np.all(np.isfinite(deviance)):
        raise ValueError("the deviance at the start is not finite")
    nfev = np.ones(n_fits, int)
    damping = np.full(n_fits, 1e-3)
    converged = np.zeros(n_fits, bool)
    # Fits with a trial rejected at the cap since their last accepted step;
    # a step that ends a fit keeps the mark, as the cap shrank that step.
    capped = np.zeros(n_fits, bool)
    diagonal = np.arange(len(free))
    omega = TWO_PI / period
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
        formed = _series_length(beams, amplitude, omega, omega * sigma_t) <= HARMONIC_CAP
        nfev[fits] += 1
        damping[fits[~formed]] *= 10.0
        capped[fits[~formed]] = True
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
        capped[fits] &= converged[fits]

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
                converged=bool(converged[k] and not capped[k]) and inverses[k] is not None,
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
        max_evaluations: int = 500,
    ):
        self.hists, self.inits = list(hists), list(inits)
        self.settings = (tuple(beams), tuple(frozen), max_evaluations)
        self._results = None

    def result(self, hist: TacHistogram, init: FitModelParams) -> FitResult:
        """The fit of member ``hist`` from ``init``."""
        for k, (member, start) in enumerate(zip(self.hists, self.inits)):
            if member is hist and start == init:
                break
        else:
            raise ValueError("the histogram and start are not a member of the stack")
        if self._results is None:
            beams, frozen, max_evaluations = self.settings
            self._results = fit_histograms(self.hists, beams, self.inits, frozen, max_evaluations)
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
