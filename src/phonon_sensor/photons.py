"""Photon-counting TAC histograms drawn from their exact law.

The detected signal is an inhomogeneous Poisson process at the two-beam
scattering rate times the detection efficiency (applied once).  Folded
modulo the oscillation period, its counts in the TAC bins are independent
Poisson variates whose means integrate that rate over the gate, so
:func:`synthesize_histogram` draws the folded counts directly: the signal
total, then its split over the bins (the full periods after the timing
jitter, the partial one unjittered), then uniform background at the
signal count over the signal-to-background ratio.  No arrival time is
drawn.  The bin means are exact: they come from the fit's forward model,
``fitting.rate_integrals``, the rate's cosine series integrated in closed
form over each bin.

What depends only on the binning is built once per binning and shared
read-only: the bin edges and widths (:func:`bin_grid`).  What depends only
on the amplitude is built once per amplitude: :func:`folded_law` keeps the
law of the last (beams, amplitude, phase, frequency, pipeline) it was asked
for, read-only, so every gate a campaign draws at one amplitude, and the
Cramer-Rao bound at that amplitude, share one law.

The per-photon path (thinning of arrival times, Gaussian timing jitter,
folding modulo the period) lives in the test suite's oracles
(``tests/oracles.py``), which check the binned law against it.  The
emitted rate is the two-beam scattering rate exactly as the rate formula
states it; the detected photon budget of the shipped defaults then
reproduces the reference count chain (about 1.25e7 emitted in 10 s at
22 um amplitude, about 5.3e4 detected at 0.28% efficiency and SNR 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        for name in ("bin_width", "period", "gate_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} must be finite")
        if self.bin_width <= 0 or self.period <= 0:
            raise ValueError("bin_width and period must be > 0")
        if self.bin_width > self.period:
            raise ValueError("bin_width must not exceed the period")
        if not math.isfinite(self.period / self.bin_width):
            raise ValueError("period / bin_width must be finite")
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


def expected_bin_count(period: float, bin_width: float) -> int:
    return int(math.ceil(period / bin_width - 1e-9))


@lru_cache(maxsize=8)
def bin_grid(period: float, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only TAC bin edges and widths over one period; the last bin
    may be partial."""
    edges = np.arange(expected_bin_count(period, bin_width) + 1) * bin_width
    edges = np.minimum(edges, period)
    widths = np.diff(edges)
    edges.flags.writeable = widths.flags.writeable = False
    return edges, widths


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


@lru_cache(maxsize=1)
def folded_law(
    beams: tuple, amplitude: float, phase: float, omega_i: float, pipeline: PipelineConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Parameters of one gate's folded counts: the mean signal total, the
    mean signal count per TAC bin, and the time per bin the gate folds in.

    The gate holds ``floor(gate/T)`` full periods plus the partial period
    ``[0, gate mod T)``.  Both integrate the rate over the bins exactly,
    through the fit's forward model ``fitting.rate_integrals``.  The full
    periods' bin means are those after the timing jitter: each arrival
    jittered by a Gaussian and folded, which multiplies harmonic n of the
    rate by exp(-(n w sigma)^2/2) and keeps the sum.  The partial period's
    are the rate with sigma = 0 over the bins clipped at ``gate mod T``,
    unjittered as the background is.  The total is the sum of the bin
    means.

    The law of the last arguments is kept, with read-only arrays, so the
    gates drawn in a row at one amplitude build it once; ``beams`` is a
    tuple, which the cache can key on.
    """
    from .fitting import rate_integrals

    period, bin_width = TWO_PI / omega_i, pipeline.bin_width
    edges, widths = bin_grid(period, bin_width)
    n_periods, rest = divmod(pipeline.gate_time, period)
    gate_share = n_periods * widths + np.clip(rest - edges[:-1], 0.0, widths)

    law = (beams, amplitude, phase)
    signal_means = n_periods * rate_integrals(*law, pipeline.timing_jitter, period, bin_width)
    signal_means += rate_integrals(*law, 0.0, period, bin_width, stop=rest)
    signal_means *= pipeline.efficiency
    # A cut an ulp past a bin edge can round below 0 (-6.9e-19 counts in a
    # test case), and past the harmonic cap (about 0.46 mm) the truncated
    # series can dip below 0.
    np.maximum(signal_means, 0.0, out=signal_means)
    signal_means.flags.writeable = gate_share.flags.writeable = False
    return float(signal_means.sum()), signal_means, gate_share


def synthesize_histogram(
    beams,
    amplitude: float,
    phase: float,
    omega_i: float,
    pipeline: PipelineConfig,
    seed: int | None = None,
    config_hash: str | None = None,
) -> TacHistogram:
    """Draw one gate's folded TAC histogram from its exact law.

    The signal total is Poisson at the folded mean and is split over the
    bins by a multinomial on their smeared means, so a seed's total does
    not depend on the jitter.  The background total is Poisson at that
    signal count over the SNR and is split in proportion to the time each
    bin's folded interval spends in the gate.  The background is left
    unjittered: jitter moves a uniform folded density only at the partial
    period's edge, a share below jitter/gate of it.  The two stages draw
    from independent streams of ``seed``.
    """
    signal_seed, background_seed = np.random.SeedSequence(seed).generate_state(2)
    mean_signal, signal_means, gate_share = folded_law(
        tuple(beams), amplitude, phase, omega_i, pipeline
    )
    rng = np.random.default_rng(signal_seed)
    n_signal = rng.poisson(mean_signal)
    counts = rng.multinomial(n_signal, signal_means / signal_means.sum())
    rng = np.random.default_rng(background_seed)
    n_background = rng.poisson(n_signal / pipeline.snr)
    counts += rng.multinomial(n_background, gate_share / gate_share.sum())
    return TacHistogram(
        pipeline.bin_width, TWO_PI / omega_i, counts, pipeline.gate_time, seed, config_hash
    )


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
