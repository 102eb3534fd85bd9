import hashlib
import inspect
import json
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from phonon_sensor import experiments, photons
from phonon_sensor.config import config_from_dict
from phonon_sensor.constants import DEFAULT_AXIAL_FREQUENCY, TWO_PI
from phonon_sensor.photons import (
    PipelineConfig,
    TacHistogram,
    bin_grid,
    folded_law,
    load_histogram,
    save_histogram,
    synthesize_histogram,
)
from phonon_sensor.physics import (
    default_beams,
    total_scattering_rate,
    total_scattering_rate_max,
)

from oracles import apply_time_jitter, sample_arrivals, tac_fold

BEAMS = default_beams()
OMEGA = DEFAULT_AXIAL_FREQUENCY
PERIOD = TWO_PI / OMEGA


def uniform_times(n, gate, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0, gate, n))


class TestSampleArrivals:
    def test_constant_rate_is_poisson(self):
        rate = 1000.0
        counts = [
            len(sample_arrivals(lambda t: np.full_like(t, rate), 1.0, rate_max=rate, seed=s))
            for s in range(100)
        ]
        mean = np.mean(counts)
        assert abs(mean - rate) < 3 * math.sqrt(rate / 100)
        # Poisson: variance comparable to the mean.
        assert np.var(counts) == pytest.approx(rate, rel=0.5)

    def test_zero_rate_empty(self):
        times = sample_arrivals(lambda t: np.zeros_like(t), 1.0, rate_max=1.0, seed=1)
        assert len(times) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_arrivals(lambda t: -np.ones_like(t), 1.0, rate_max=1.0, seed=1)

    def test_rate_exceeding_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            sample_arrivals(lambda t: np.full_like(t, 10.0), 1.0, rate_max=1.0, seed=1)

    def test_deterministic(self):
        fn = lambda t: total_scattering_rate(BEAMS, 20e-6, 0.1, OMEGA, t)
        bound = total_scattering_rate_max(BEAMS, 20e-6, OMEGA)
        a = sample_arrivals(fn, 0.1, rate_max=bound, seed=3)
        b = sample_arrivals(fn, 0.1, rate_max=bound, seed=3)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0)


def thinned_counts(amplitude, phase, pipe, seed):
    """Folded counts of the per-photon path: thinned signal, uniform
    background at the signal count over the SNR, Gaussian jitter of every
    arrival, fold."""
    eta = pipe.efficiency
    signal = sample_arrivals(
        lambda t: eta * total_scattering_rate(BEAMS, amplitude, phase, OMEGA, t),
        pipe.gate_time,
        rate_max=eta * total_scattering_rate_max(BEAMS, amplitude, OMEGA),
        seed=seed,
    )
    rng = np.random.default_rng([seed, 1])
    background = rng.uniform(0.0, pipe.gate_time, rng.poisson(len(signal) / pipe.snr))
    times = np.concatenate([signal, background])
    if pipe.timing_jitter > 0:
        times = apply_time_jitter(times, pipe.timing_jitter, seed=[seed, 2])
    return tac_fold(times, PERIOD, pipe.bin_width, pipe.gate_time).counts


class TestBinnedLaw:
    @pytest.mark.parametrize("jitter", [0.0, 0.2e-6])
    def test_per_bin_counts_match_the_thinning_sampler(self, jitter):
        # Summed over 40 gates of 1 s each path holds about 400 counts per
        # bin; the per-bin difference over its Poisson error is then a
        # standard normal, whose rms over 538 bins is 1 within about 0.03.
        pipe = PipelineConfig(gate_time=1.0, timing_jitter=jitter)
        binned = sum(
            synthesize_histogram(BEAMS, 22e-6, 0.3, OMEGA, pipe, seed=1000 + k).counts
            for k in range(40)
        )
        thinned = sum(thinned_counts(22e-6, 0.3, pipe, seed=2000 + k) for k in range(40))
        z = (binned - thinned) / np.sqrt(np.maximum(binned + thinned, 1))
        assert 0.85 < math.sqrt(np.mean(z**2)) < 1.15

    def test_gate_of_whole_and_half_periods_folds_exactly(self):
        # Over 1000.5 periods, bins in the first half of the period collect
        # 1001 periods of the rate and those in the second half 1000; 13 ns
        # bins leave a partial last bin.
        pipe = PipelineConfig(gate_time=1000.5 * PERIOD, bin_width=13e-9)
        total, means, gate_share = folded_law(BEAMS, 22e-6, 0.3, OMEGA, pipe)
        edges = bin_grid(PERIOD, pipe.bin_width)[0]
        widths = np.diff(edges)
        assert widths[-1] < 0.6 * pipe.bin_width

        def integral(lo, hi):
            # Midpoint rule on 4096 cells per interval, apart from the
            # sampler's grid.
            cells = (np.arange(4096) + 0.5) / 4096
            t = lo[:, None] + cells * (hi - lo)[:, None]
            rate = total_scattering_rate(BEAMS, 22e-6, 0.3, OMEGA, t.ravel()).reshape(t.shape)
            return pipe.efficiency * rate.mean(axis=1) * (hi - lo)

        half = np.clip(edges, 0.0, PERIOD / 2)
        expected = 1000 * integral(edges[:-1], edges[1:]) + integral(half[:-1], half[1:])
        np.testing.assert_allclose(means, expected, rtol=2e-5)
        assert total == pytest.approx(expected.sum(), rel=2e-5)
        np.testing.assert_allclose(gate_share, 1000 * widths + np.diff(half), rtol=1e-12)
        assert gate_share.sum() == pytest.approx(pipe.gate_time, rel=1e-12)


    def test_a_cut_just_past_a_bin_edge_keeps_the_means_non_negative(self):
        # Two bins of 3 us and a gate one ulp past the first bin edge: the
        # second bin's mean is the rate over 4e-22 s, which the difference
        # of the series' sums at the two edges rounds to -2.5e-16.
        pipe = PipelineConfig(bin_width=3e-6, gate_time=math.nextafter(3e-6, 1.0))
        total, means, _ = folded_law(BEAMS, 40e-6, 2.0, OMEGA, pipe)
        assert 0.0 <= means[1] < 1e-12 * means[0]
        assert total == pytest.approx(means[0], rel=1e-12)
        assert synthesize_histogram(BEAMS, 40e-6, 2.0, OMEGA, pipe, seed=1).counts[1] == 0

    def test_one_bin_per_period_and_a_short_gate(self):
        # One bin per period and a gate of 0.92% of it, at 26.4 um: the
        # bin's mean is the rate over the gate, which the 8-cell quadratic
        # rule made negative.  Against 200-point Gauss-Legendre.
        pipe = PipelineConfig(bin_width=PERIOD, gate_time=0.009196258873828023 * PERIOD)
        amplitude, phase = 26.433433473707547e-6, 0.054568316071163636
        total, means, _ = folded_law(BEAMS, amplitude, phase, OMEGA, pipe)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        half = 0.5 * pipe.gate_time
        rate = total_scattering_rate(BEAMS, amplitude, phase, OMEGA, half * (nodes + 1))
        expected = pipe.efficiency * half * np.sum(weights * rate)
        assert means[0] == pytest.approx(expected, rel=1e-13)
        assert total == means[0]
        hist = synthesize_histogram(BEAMS, amplitude, phase, OMEGA, pipe, seed=1)
        assert hist.n_bins == 1


class TestTacFold:
    def test_exact_folding(self):
        t = PERIOD * np.array([0.25, 1.25, 2.25])
        # Bin width T/10 keeps the fold target strictly inside bin 2.
        hist = tac_fold(t, PERIOD, PERIOD / 10, 10 * PERIOD)
        assert hist.total_counts == 3
        assert np.count_nonzero(hist.counts) == 1
        assert hist.counts[2] == 3

    def test_uniform_arrivals_flat(self):
        gate = 1000 * PERIOD
        hist = tac_fold(uniform_times(200000, gate, seed=11), PERIOD, PERIOD / 50, gate)
        _, p_value = stats.chisquare(hist.counts)  # integer bin count
        assert p_value > 0.01

    def test_counts_conserved(self):
        hist = tac_fold(uniform_times(12345, 5.0, seed=13), PERIOD, 10e-9, 5.0)
        assert hist.total_counts == 12345

    def test_partial_last_bin_geometry(self):
        hist = tac_fold(uniform_times(10, 1.0, seed=1), PERIOD, 10e-9, 1.0)
        assert hist.n_bins == 538
        assert hist.n_bins * hist.bin_width >= hist.period
        widths = np.diff(bin_grid(hist.period, hist.bin_width)[0])
        assert widths[-1] == pytest.approx(hist.period - 537 * 10e-9)

    def test_bad_bin_width_rejected(self):
        times = uniform_times(10, 1.0)
        with pytest.raises(ValueError):
            tac_fold(times, PERIOD, 2 * PERIOD, 1.0)
        with pytest.raises(ValueError):
            tac_fold(times, 0.0, 10e-9, 1.0)


def two_sample_chi2(a, b):
    """Pearson two-sample homogeneity statistic and p-value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    ka = math.sqrt(b.sum() / a.sum())
    kb = 1 / ka
    chi2 = float(np.sum((ka * a - kb * b) ** 2 / (a + b)))
    dof = len(a) - 1
    return chi2, stats.chi2.sf(chi2, dof)


class TestPhaseRotation:
    def test_phase_shift_rotates_histogram(self):
        # Generating with a phase advanced by an integer number of bins is
        # statistically identical to rotating the folded histogram.
        pipe = PipelineConfig(gate_time=10.0)
        n_shift = 60
        # Use an exact integer-bin period so rotation is exact.
        omega = TWO_PI / (538 * pipe.bin_width)
        delta = n_shift * pipe.bin_width * omega
        h_base = synthesize_histogram(BEAMS, 22e-6, 0.0, omega, pipe, seed=17)
        h_shift = synthesize_histogram(BEAMS, 22e-6, delta, omega, pipe, seed=18)
        # Advancing the phase moves the pattern to earlier folded times.
        rotated = np.roll(h_base.counts, -n_shift)
        _, p_value = two_sample_chi2(rotated, h_shift.counts)
        assert p_value > 0.001


class TestMerge:
    def test_ten_short_runs_match_one_long_run(self):
        pipe_short = PipelineConfig(gate_time=1.0)
        pipe_long = PipelineConfig(gate_time=10.0)
        parts = [
            synthesize_histogram(BEAMS, 22e-6, 0.1, OMEGA, pipe_short, seed=100 + i)
            for i in range(10)
        ]
        # Histograms of identical binning merge by adding counts and gates.
        combined = TacHistogram(
            bin_width=parts[0].bin_width,
            period=parts[0].period,
            counts=sum(part.counts for part in parts),
            gate_time=sum(part.gate_time for part in parts),
        )
        assert combined.gate_time == pytest.approx(10.0)
        single = synthesize_histogram(BEAMS, 22e-6, 0.1, OMEGA, pipe_long, seed=200)
        assert combined.total_counts == pytest.approx(
            single.total_counts, abs=6 * math.sqrt(single.total_counts)
        )
        _, p_value = two_sample_chi2(combined.counts, single.counts)
        assert p_value > 0.001


class TestJitter:
    def test_zero_sigma_identity(self):
        times = uniform_times(100, 1.0)
        np.testing.assert_array_equal(apply_time_jitter(times, 0.0, seed=1), times)

    def test_jitter_past_gate_end_folds_modulo_period(self):
        # One photon 1 ns before the end of a gate of 1000.5 periods, pushed
        # past it by a fixed draw, lands in the bin of (t + n) mod T, not in
        # that of its position wrapped into the gate (half a period away).
        gate, sigma, width, seed = 1000.5 * PERIOD, 1e-6, 10e-9, 3
        t = gate - 1e-9
        n = np.random.default_rng(seed).normal(0.0, sigma)
        assert t + n > gate
        hist = tac_fold(apply_time_jitter(np.array([t]), sigma, seed=seed), PERIOD, width, gate)
        expected = math.floor(((t + n) % PERIOD) / width)
        assert np.flatnonzero(hist.counts).tolist() == [expected]
        assert expected != math.floor((((t + n) % gate) % PERIOD) / width)

    def test_jitter_smears_folded_structure(self):
        pipe_sharp = PipelineConfig(gate_time=5.0, timing_jitter=0.0)
        pipe_smeared = PipelineConfig(gate_time=5.0, timing_jitter=0.8e-6)
        sharp = synthesize_histogram(BEAMS, 22e-6, 0.0, OMEGA, pipe_sharp, seed=3)
        smeared = synthesize_histogram(BEAMS, 22e-6, 0.0, OMEGA, pipe_smeared, seed=3)
        assert smeared.total_counts == sharp.total_counts  # jitter moves, never drops
        assert np.ptp(smeared.counts) < 0.7 * np.ptp(sharp.counts)


class TestHistogramFile:
    def test_round_trip_bit_exact(self, tmp_path):
        pipe = PipelineConfig(gate_time=2.0)
        hist = synthesize_histogram(BEAMS, 21.677e-6, 0.028, OMEGA, pipe, seed=5)
        hist.config_hash = "abc123"
        path = tmp_path / "hist.txt"
        save_histogram(hist, path)
        first = path.read_bytes()
        loaded = load_histogram(path)
        save_histogram(loaded, path)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(loaded.counts, hist.counts)
        assert loaded.period == hist.period
        assert loaded.bin_width == hist.bin_width
        assert loaded.gate_time == hist.gate_time
        assert loaded.config_hash == "abc123"

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a histogram\n")
        with pytest.raises(ValueError):
            load_histogram(path)

    def test_tampered_counts_rejected(self, tmp_path):
        pipe = PipelineConfig(gate_time=1.0)
        hist = synthesize_histogram(BEAMS, 21.677e-6, 0.028, OMEGA, pipe, seed=5)
        path = tmp_path / "hist.txt"
        save_histogram(hist, path)
        lines = path.read_text().splitlines()
        lines[-1] = str(int(lines[-1]) + 1)  # bump one count
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="total_counts"):
            load_histogram(path)


class TestValidation:
    def test_detection_config_validation(self):
        with pytest.raises(ValueError, match="efficiency"):
            PipelineConfig(efficiency=0.0)
        with pytest.raises(ValueError, match="efficiency"):
            PipelineConfig(efficiency=1.5)
        with pytest.raises(ValueError, match="snr"):
            PipelineConfig(efficiency=0.5, snr=0.0)

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            TacHistogram(
                bin_width=10e-9,
                period=PERIOD,
                counts=np.zeros(10, dtype=int),
                gate_time=1.0,
            )
        with pytest.raises(ValueError):
            TacHistogram(
                bin_width=10e-9,
                period=PERIOD,
                counts=-np.ones(538, dtype=int),
                gate_time=1.0,
            )


class TestStageSpans:
    """The benchmark times campaign histograms by wrapping this module
    attribute."""

    @pytest.mark.parametrize("jitter", [0.0, 0.2e-6])
    def test_histogram_stages_resolve_through_module_globals(self, monkeypatch, jitter):
        calls = {"synthesize_histogram": 0}
        synthesize = experiments.synthesize_histogram

        def counting_synthesize(*args, **kwargs):
            calls["synthesize_histogram"] += 1
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(experiments, "synthesize_histogram", counting_synthesize)
        # Histograms are drawn without arrival times: the per-photon stages
        # are test oracles, not part of the package.
        for name in ("sample_arrivals", "apply_time_jitter", "tac_fold"):
            assert not hasattr(photons, name)
        config = config_from_dict(
            {"pipeline": {"gate_time_s": 1.0, "timing_jitter_us": jitter * 1e6}}
        )
        experiments._recover_amplitudes(config, [(22e-6, 1), (22e-6, 2)])
        assert calls["synthesize_histogram"] == 2

    def test_sampler_keeps_the_parameters_the_benchmark_reads(self):
        parameters = inspect.signature(sample_arrivals).parameters
        assert {"gate_time", "rate_max"} <= set(parameters)


class TestCampaignSpans:
    """The benchmark times each campaign by wrapping its function on the
    ``experiments`` module, so ``run_campaign`` must look each one up there
    when it runs, and its results must survive a JSON round trip."""

    SMALL = config_from_dict(
        {
            "pipeline": {"gate_time_s": 1.0},
            "experiment": {
                "amplitude_voltages_mv": [5.0, 10.0, 15.0],
                "amplitude_trials": 1,
                "squeeze_trials": 2,
                "squeeze_periods": 500,
                "lower_bound_trials": 20,
                "repetitions": 3,
            },
        }
    )
    # The benchmark's smoke settings: 2 s gates, 20 trials, shipped grid.
    SMOKE = config_from_dict(
        {"pipeline": {"gate_time_s": 2.0}, "experiment": {"lower_bound_trials": 20}}
    )
    CAMPAIGNS = {
        "sweep-amplitude": ("amplitude_sweep", 1),
        "sweep-squeeze": ("squeeze_sweep", 1),
        "lower-bound": ("lower_bound_search", 2),
        "sensitivity": ("sensitivity_campaign", 1),
    }

    @pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
    def test_campaign_resolves_through_module_global(self, monkeypatch, tmp_path, kind):
        # The calls are logged to a file, as the lower-bound searches run in
        # forked worker processes.
        name, expected = self.CAMPAIGNS[kind]
        log = tmp_path / "calls.log"
        campaign = getattr(experiments, name)

        def counting_campaign(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(name + "\n")
            return campaign(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counting_campaign)
        experiments.run_campaign(kind, self.SMALL)
        assert log.read_text(encoding="utf-8").split() == [name] * expected

    def test_forked_search_takes_a_wrapper_that_cannot_pickle(self, monkeypatch):
        unwrapped = experiments.run_campaign("lower-bound", self.SMOKE, seed=37)
        search = experiments.lower_bound_search

        def local_search(*args, **kwargs):
            return search(*args, **kwargs)

        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(local_search)
        monkeypatch.setattr(experiments, "lower_bound_search", local_search)
        assert experiments.run_campaign("lower-bound", self.SMOKE, seed=37) == unwrapped

    @pytest.mark.parametrize("kind", ["calibrate", *sorted(CAMPAIGNS)])
    def test_results_survive_a_json_round_trip(self, kind):
        results = experiments.run_campaign(kind, self.SMALL)
        assert json.loads(json.dumps(results)) == results


class TestDrawnCountsPinned:
    """The counts drawn at the shipped defaults, pinned bit for bit: a change
    of the rate's arithmetic may move the law at rounding level, and must
    not move a drawn count."""

    DIGESTS = {
        0.0: "5f49b02bc7236ad15dbe09310d3286c04c5e19b81514dad9b3dd1c1342c59e37",
        0.2: "a75a5efa24f0067134cb92135b87460f9fc09028842249c2c862bf8dd2c52df1",
    }

    @pytest.mark.parametrize("jitter_us", sorted(DIGESTS))
    def test_counts_sha256(self, jitter_us):
        config = config_from_dict({"pipeline": {"timing_jitter_us": jitter_us}})
        omega_i, phase = config.drive.injection_frequency, config.experiment.reference_phase
        digest = hashlib.sha256()
        for amplitude in (15e-6, 21.677e-6, 28e-6):
            for seed in range(1, 6):
                hist = synthesize_histogram(
                    config.beams, amplitude, phase, omega_i, config.pipeline, seed=seed
                )
                digest.update(hist.counts.astype("<i8").tobytes())
        assert digest.hexdigest() == self.DIGESTS[jitter_us]


class TestLawCache:
    """The law of the last gate is kept read-only, so the gates a campaign
    draws in a row at one amplitude build it once."""

    def test_law_is_kept_read_only_and_takes_a_list_of_beams(self):
        pipe = PipelineConfig(gate_time=1.0, timing_jitter=0.2e-6)
        photons._folded_law.cache_clear()
        total, means, gate_share = folded_law(list(BEAMS), 22e-6, 0.3, OMEGA, pipe)
        again = folded_law(tuple(BEAMS), 22e-6, 0.3, OMEGA, pipe)
        assert again[0] == total and again[1] is means and again[2] is gate_share
        for array in (means, gate_share):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert photons._folded_law.cache_info().misses == 1
        # A histogram drawn from the kept law equals one from a fresh law.
        kept = synthesize_histogram(BEAMS, 22e-6, 0.3, OMEGA, pipe, seed=9)
        photons._folded_law.cache_clear()
        fresh = synthesize_histogram(BEAMS, 22e-6, 0.3, OMEGA, pipe, seed=9)
        assert np.array_equal(kept.counts, fresh.counts)

    def test_default_sweep_builds_one_law_per_locked_voltage(self):
        config = config_from_dict({})
        photons._folded_law.cache_clear()
        rows = experiments.amplitude_sweep(config)["rows"]
        locked = sum(row["locked"] for row in rows)
        assert locked == len(config.experiment.amplitude_voltages)
        info = photons._folded_law.cache_info()
        assert info.misses == locked
        assert info.hits == locked * (config.experiment.amplitude_trials - 1)
