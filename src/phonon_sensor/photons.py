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

    @property
    def bin_centers(self) -> np.ndarray:
        edges = self.bin_edges
        return 0.5 * (edges[:-1] + edges[1:])


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


def save_histogram(hist: TacHistogram, path) -> None:
    """Write the bit-exact text representation of a histogram."""
    lines = [
        HISTOGRAM_MAGIC,
        f"period_s = {hist.period!r}",
        f"bin_width_s = {hist.bin_width!r}",
        f"gate_time_s = {hist.gate_time!r}",
        f"n_bins = {hist.n_bins}",
        f"total_counts = {hist.total_counts}",
        f"seed = {'-' if hist.seed is None else hist.seed}",
        f"config_hash = {hist.config_hash or '-'}",
        "counts:",
    ]
    lines.extend(str(int(c)) for c in hist.counts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_histogram(path) -> TacHistogram:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != HISTOGRAM_MAGIC:
        raise ValueError(f"{path}: not a tac-histogram file")
    header = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        if line == "counts:":
            body_start = i + 1
            break
        if "=" not in line:
            raise ValueError(f"{path}: malformed header line {line!r}")
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()
    if body_start is None:
        raise ValueError(f"{path}: missing counts section")
    counts = np.array([int(line) for line in lines[body_start:] if line], dtype=np.int64)
    hist = TacHistogram(
        bin_width=float(header["bin_width_s"]),
        period=float(header["period_s"]),
        counts=counts,
        gate_time=float(header["gate_time_s"]),
        seed=None if header["seed"] == "-" else int(header["seed"]),
        config_hash=None if header["config_hash"] == "-" else header["config_hash"],
    )
    if hist.n_bins != int(header["n_bins"]):
        raise ValueError(f"{path}: n_bins mismatch")
    if hist.total_counts != int(header["total_counts"]):
        raise ValueError(f"{path}: total_counts mismatch with counts body")
    return hist
