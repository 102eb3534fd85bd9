"""Monte Carlo photon stream generation and TAC histogram folding.

Arrival times are drawn from the modulated scattering rate by thinning an
inhomogeneous Poisson process, thinned again by the detection efficiency,
mixed with uniform background set by the signal-to-background ratio, and
folded modulo the oscillation period into fixed-width TAC bins.

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


@dataclass(frozen=True)
class DetectionConfig:
    """Detection efficiency, signal-to-background ratio and RNG seed."""

    efficiency: float = 0.0028
    snr: float = 2.0  # signal rate / background rate; inf disables background
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not self.snr > 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")


@dataclass
class PhotonStream:
    """Sorted arrival times within the gate, tagged signal/background."""

    arrival_times: np.ndarray
    is_signal: np.ndarray
    gate_time: float

    def __post_init__(self):
        self.arrival_times = np.asarray(self.arrival_times, dtype=float)
        self.is_signal = np.asarray(self.is_signal, dtype=bool)
        if self.arrival_times.shape != self.is_signal.shape:
            raise ValueError("arrival_times and is_signal must match")
        if self.gate_time <= 0:
            raise ValueError("gate_time must be > 0")
        if self.arrival_times.size:
            if np.any(np.diff(self.arrival_times) < 0):
                raise ValueError("arrival_times must be sorted ascending")
            if self.arrival_times[0] < 0 or self.arrival_times[-1] > self.gate_time:
                raise ValueError("arrival times must lie within [0, gate_time]")

    def __len__(self):
        return len(self.arrival_times)

    @property
    def n_signal(self) -> int:
        return int(np.count_nonzero(self.is_signal))

    @property
    def n_background(self) -> int:
        return len(self) - self.n_signal


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
        edges = np.arange(self.n_bins + 1) * self.bin_width
        return np.minimum(edges, self.period)


def expected_bin_count(period: float, bin_width: float) -> int:
    return int(math.ceil(period / bin_width - 1e-9))


def sample_arrivals(
    rate_fn,
    gate_time: float,
    seed: int | None = None,
    rate_max: float | None = None,
) -> PhotonStream:
    """Draw an inhomogeneous Poisson arrival stream by thinning.

    ``rate_fn`` maps time (array) to a rate in photons/s and must be bounded
    by ``rate_max``; when the bound is not supplied it is probed on a dense
    grid with a safety margin.  Candidates are proposed uniformly at the
    bound rate and accepted with probability rate/bound.
    """
    if gate_time <= 0:
        raise ValueError("gate_time must be > 0")
    rng = np.random.default_rng(seed)

    if rate_max is None:
        probe = rate_fn(np.linspace(0.0, gate_time, 8192))
        if np.any(probe < 0):
            raise ValueError("rate_fn returned a negative rate")
        rate_max = 1.2 * float(np.max(probe)) + 1e-300
    if not np.isfinite(rate_max) or rate_max < 0:
        raise ValueError(f"rate bound must be finite and >= 0, got {rate_max}")

    if rate_max == 0.0:
        return PhotonStream(np.empty(0), np.empty(0, dtype=bool), gate_time)

    n_candidates = rng.poisson(rate_max * gate_time)
    t_cand = rng.uniform(0.0, gate_time, n_candidates)
    rates = np.asarray(rate_fn(t_cand))
    if np.any(rates < 0):
        raise ValueError("rate_fn returned a negative rate")
    if np.any(rates > rate_max * (1 + 1e-9)):
        raise ValueError("rate_fn exceeds the supplied bound; thinning is biased")
    accepted = np.sort(t_cand[rng.uniform(0.0, rate_max, n_candidates) < rates])
    return PhotonStream(accepted, np.ones(accepted.size, dtype=bool), gate_time)


def detect(stream: PhotonStream, det: DetectionConfig) -> PhotonStream:
    """Thin the stream by the detection efficiency and add background.

    Each photon survives independently with probability ``efficiency``;
    uniform background arrivals are added at the detected-signal rate
    divided by the SNR (an infinite SNR disables the background).
    """
    rng = np.random.default_rng(det.rng_seed)
    keep = (
        rng.uniform(0.0, 1.0, len(stream)) < det.efficiency
        if det.efficiency < 1.0
        else np.ones(len(stream), dtype=bool)
    )
    t_signal = stream.arrival_times[keep]

    if math.isinf(det.snr):
        n_background = 0
    else:
        n_background = rng.poisson(t_signal.size / det.snr)
    t_background = rng.uniform(0.0, stream.gate_time, n_background)

    times = np.concatenate([t_signal, t_background])
    labels = np.concatenate(
        [np.ones(t_signal.size, dtype=bool), np.zeros(n_background, dtype=bool)]
    )
    order = np.argsort(times, kind="stable")
    return PhotonStream(times[order], labels[order], stream.gate_time)


def apply_time_jitter(stream: PhotonStream, sigma: float, seed: int | None = None) -> PhotonStream:
    """Gaussian timing jitter of the stop reference, wrapped into the gate.

    Models the time dispersion of the arrival-time electronics; a folded
    histogram of the jittered stream matches the circular Gaussian
    convolution of the unjittered one.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0 or len(stream) == 0:
        return stream
    rng = np.random.default_rng(seed)
    times = np.mod(
        stream.arrival_times + rng.normal(0.0, sigma, len(stream)), stream.gate_time
    )
    order = np.argsort(times, kind="stable")
    return PhotonStream(times[order], stream.is_signal[order], stream.gate_time)


def tac_fold(stream: PhotonStream, period: float, bin_width: float) -> TacHistogram:
    """Fold arrivals modulo the period into TAC bins of the given width."""
    if period <= 0:
        raise ValueError("period must be > 0")
    if not 0 < bin_width <= period:
        raise ValueError("need 0 < bin_width <= period")
    n_bins = expected_bin_count(period, bin_width)
    folded = np.mod(stream.arrival_times, period)
    idx = np.minimum((folded / bin_width).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    return TacHistogram(
        bin_width=bin_width,
        period=period,
        counts=counts,
        gate_time=stream.gate_time,
    )


def merge(first: TacHistogram, second: TacHistogram) -> TacHistogram:
    """Combine two histograms of identical binning; gate times add."""
    if not math.isclose(first.bin_width, second.bin_width, rel_tol=1e-12):
        raise ValueError("bin widths differ")
    if not math.isclose(first.period, second.period, rel_tol=1e-12):
        raise ValueError("periods differ")
    return TacHistogram(
        bin_width=first.bin_width,
        period=first.period,
        counts=first.counts + second.counts,
        gate_time=first.gate_time + second.gate_time,
    )


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end photon pipeline settings."""

    efficiency: float = 0.0028
    snr: float = 2.0
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
        DetectionConfig(efficiency=self.efficiency, snr=self.snr)


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

    def detected_rate(t):
        return eta * total_scattering_rate(beams, amplitude, phase, omega_i, t)

    bound = eta * total_scattering_rate_max(beams, amplitude, omega_i)
    stream = sample_arrivals(
        detected_rate, pipeline.gate_time, seed=int(rng_seed[0]), rate_max=bound
    )
    stream = detect(
        stream,
        DetectionConfig(efficiency=1.0, snr=pipeline.snr, rng_seed=int(rng_seed[1])),
    )
    stream = apply_time_jitter(stream, pipeline.timing_jitter, seed=int(rng_seed[2]))
    hist = tac_fold(stream, TWO_PI / omega_i, pipeline.bin_width)
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
