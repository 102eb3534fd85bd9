"""Monte Carlo photon arrival times and TAC histogram folding.

Arrival times are drawn from the detected scattering rate (the emitted rate
times the detection efficiency, applied once) by thinning an inhomogeneous
Poisson process, mixed with uniform background set by the
signal-to-background ratio, optionally jittered, and folded modulo the
oscillation period into fixed-width TAC bins.  Every stage passes a plain
float array of arrival times.

The emitted rate is the two-beam scattering rate exactly as the rate
formula states it; the detected photon budget of the shipped defaults then
reproduces the reference count chain (about 1.25e7 emitted in 10 s at
22 um amplitude, about 5.3e4 detected at 0.28% efficiency and SNR 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .fileio import optional, read_header_file, write_header_file


@dataclass
class TacHistogram:
    """Folded photon counts per TAC bin.

    The last bin may be partial when the bin width does not divide the
    period; ``bin_width * n_bins >= period`` always holds.
    """

    bin_width: float
    period: float
    counts: np.ndarray
    gate_time: float
    seed: int | None = None
    config_hash: str | None = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.bin_width <= 0 or self.period <= 0:
            raise ValueError("bin_width and period must be > 0")
        if self.bin_width > self.period:
            raise ValueError("bin_width must not exceed the period")
        if self.gate_time <= 0:
            raise ValueError("gate_time must be > 0")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        expected = expected_bin_count(self.period, self.bin_width)
        if len(self.counts) != expected:
            raise ValueError(
                f"counts length {len(self.counts)} != ceil(period/bin_width) = {expected}"
            )

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_edges(self) -> np.ndarray:
        return bin_edges(self.period, self.bin_width)


def expected_bin_count(period: float, bin_width: float) -> int:
    return int(math.ceil(period / bin_width - 1e-9))


def bin_edges(period: float, bin_width: float) -> np.ndarray:
    """TAC bin edges over one period; the last bin may be partial."""
    edges = np.arange(expected_bin_count(period, bin_width) + 1) * bin_width
    return np.minimum(edges, period)


def sample_arrivals(
    rate_fn, gate_time: float, rate_max: float, seed: int | None = None
) -> np.ndarray:
    """Sorted arrival times of an inhomogeneous Poisson process, by thinning.

    ``rate_fn`` maps time (array) to a rate in photons/s and must be bounded
    by ``rate_max``.  Candidates are proposed uniformly at the bound rate
    and accepted with probability rate/bound.
    """
    if gate_time <= 0:
        raise ValueError("gate_time must be > 0")
    if not np.isfinite(rate_max) or rate_max < 0:
        raise ValueError(f"rate bound must be finite and >= 0, got {rate_max}")
    if rate_max == 0.0:
        return np.empty(0)

    rng = np.random.default_rng(seed)
    n_candidates = rng.poisson(rate_max * gate_time)
    t_cand = rng.uniform(0.0, gate_time, n_candidates)
    rates = np.asarray(rate_fn(t_cand))
    if np.any(rates < 0):
        raise ValueError("rate_fn returned a negative rate")
    if np.any(rates > rate_max * (1 + 1e-9)):
        raise ValueError("rate_fn exceeds the supplied bound; thinning is biased")
    return np.sort(t_cand[rng.uniform(0.0, rate_max, n_candidates) < rates])


def detect(
    signal: np.ndarray, snr: float, gate_time: float, seed: int | None = None
) -> np.ndarray:
    """Add uniform background at the signal count over the SNR, and sort.

    An infinite SNR adds no background.
    """
    rng = np.random.default_rng(seed)
    background = rng.uniform(0.0, gate_time, rng.poisson(len(signal) / snr))
    return np.sort(np.concatenate([signal, background]))


def apply_time_jitter(times: np.ndarray, sigma: float, seed: int | None = None) -> np.ndarray:
    """Gaussian timing jitter of the stop reference.

    Models the time dispersion of the arrival-time electronics.  The times
    are not wrapped or re-sorted: folding modulo the period makes the
    jittered histogram the circular Gaussian convolution of the unjittered
    one.
    """
    rng = np.random.default_rng(seed)
    return times + rng.normal(0.0, sigma, len(times))


def tac_fold(
    times: np.ndarray, period: float, bin_width: float, gate_time: float
) -> TacHistogram:
    """Fold arrivals modulo the period into TAC bins of the given width."""
    if period <= 0:
        raise ValueError("period must be > 0")
    if not 0 < bin_width <= period:
        raise ValueError("need 0 < bin_width <= period")
    n_bins = expected_bin_count(period, bin_width)
    idx = np.minimum((np.mod(times, period) / bin_width).astype(np.int64), n_bins - 1)
    return TacHistogram(bin_width, period, np.bincount(idx, minlength=n_bins), gate_time)


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end photon pipeline settings."""

    efficiency: float = 0.0028
    snr: float = 2.0  # signal rate / background rate; inf disables background
    bin_width: float = 10e-9  # s
    gate_time: float = 10.0  # s
    timing_jitter: float = 0.0  # s, Gaussian sigma of the stop reference

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin_width must be > 0")
        if self.gate_time <= 0:
            raise ValueError("gate_time must be > 0")
        if self.timing_jitter < 0:
            raise ValueError("timing_jitter must be >= 0")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not self.snr > 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")


def synthesize_histogram(
    beams,
    amplitude: float,
    phase: float,
    omega_i: float,
    pipeline: PipelineConfig,
    seed: int | None = None,
    config_hash: str | None = None,
) -> TacHistogram:
    """Run the full pipeline: sample, detect, jitter, fold.

    The proposal envelope is thinned at the detected-signal level (the
    analytic rate bound times the efficiency), which is statistically
    identical to emitting first and thinning afterwards.
    """
    from .physics import total_scattering_rate, total_scattering_rate_max

    beams = tuple(beams)
    rng_seed = np.random.SeedSequence(seed).generate_state(3)
    eta = pipeline.efficiency
    gate = pipeline.gate_time

    def detected_rate(t):
        rate = total_scattering_rate(beams, amplitude, phase, omega_i, t)
        rate *= eta
        return rate

    bound = eta * total_scattering_rate_max(beams, amplitude, omega_i)
    times = sample_arrivals(detected_rate, gate, rate_max=bound, seed=int(rng_seed[0]))
    times = detect(times, pipeline.snr, gate, seed=int(rng_seed[1]))
    if pipeline.timing_jitter > 0:
        times = apply_time_jitter(times, pipeline.timing_jitter, seed=int(rng_seed[2]))
    hist = tac_fold(times, TWO_PI / omega_i, pipeline.bin_width, gate)
    hist.seed = seed
    hist.config_hash = config_hash
    return hist


HISTOGRAM_MAGIC = "# phonon-sensor tac-histogram v1"
_HISTOGRAM_KEYS = {
    "period_s": float,
    "bin_width_s": float,
    "gate_time_s": float,
    "n_bins": int,
    "total_counts": int,
    "seed": optional(int),
    "config_hash": optional(str),
}


def save_histogram(hist: TacHistogram, path) -> None:
    """Write the bit-exact text representation of a histogram."""
    values = (hist.period, hist.bin_width, hist.gate_time, hist.n_bins, hist.total_counts,
              hist.seed, hist.config_hash or None)  # in the order of _HISTOGRAM_KEYS
    header = dict(zip(_HISTOGRAM_KEYS, values))
    write_header_file(path, HISTOGRAM_MAGIC, header, "counts:", (int(c) for c in hist.counts))


def load_histogram(path) -> TacHistogram:
    header, body = read_header_file(path, HISTOGRAM_MAGIC, _HISTOGRAM_KEYS, "counts:")
    hist = TacHistogram(
        bin_width=header["bin_width_s"],
        period=header["period_s"],
        counts=np.array([int(line) for line in body], dtype=np.int64),
        gate_time=header["gate_time_s"],
        seed=header["seed"],
        config_hash=header["config_hash"],
    )
    for key, value in (("n_bins", hist.n_bins), ("total_counts", hist.total_counts)):
        if value != header[key]:
            raise ValueError(f"{path}: {key} mismatch with counts body")
    return hist
