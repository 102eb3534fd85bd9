import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from phonon_sensor import fitting
from phonon_sensor.config import ExperimentConfig
from phonon_sensor.constants import DEFAULT_AXIAL_FREQUENCY, TWO_PI
from phonon_sensor.fitting import (
    DEFAULT_FROZEN,
    PARAM_NAMES,
    FitModelParams,
    NoModulationError,
    chain_init_params,
    derive_alpha_beta,
    fisher_information,
    fit_histogram,
    initial_guess,
    load_fit_report,
    model_curve,
    save_fit_report,
    wrap_phase,
)
from phonon_sensor.photons import (
    PipelineConfig,
    TacHistogram,
    bin_grid,
    folded_law,
    synthesize_histogram,
)
from phonon_sensor.physics import LaserBeam, default_beams, total_scattering_rate

from oracles import (
    direct_scattering_rate,
    least_squares_fit,
    wrapped_gaussian_bin_means,
)

BEAMS = default_beams()
OMEGA = DEFAULT_AXIAL_FREQUENCY
PERIOD = TWO_PI / OMEGA
PIPE = PipelineConfig()

REF_CASE_A = (21.677e-6, 0.028)
REF_CASE_B = (24.462e-6, 0.042)
# The campaigns' start phase; the fits must move it to the histogram's.
REFERENCE_PHASE = ExperimentConfig().reference_phase


def synth(amplitude, phase, seed, pipe=PIPE):
    return synthesize_histogram(BEAMS, amplitude, phase, OMEGA, pipe, seed=seed)


def harmonics(amplitude, width=0.0, slope=False):
    """The rate's cosine series at one amplitude: row 0 of a stack of one."""
    _, *series = fitting._rate_harmonics(
        BEAMS, np.array([amplitude]), OMEGA, np.array([width]), slope
    )
    return [term[0] for term in series]


def guessed_start(hist, pipe=PIPE, phase=REFERENCE_PHASE):
    """The campaigns' fit start: the guessed amplitude at ``phase``, and
    the detection chain's scale, offset and jitter."""
    sigma_t = pipe.timing_jitter
    amplitude = initial_guess(hist, BEAMS, phase, sigma_t=sigma_t)
    return chain_init_params(hist, pipe.efficiency, pipe.snr, amplitude, phase, sigma_t)


def fit_with_chain_init(hist, pipe=PIPE, phase=REFERENCE_PHASE, **kwargs):
    return fit_histogram(hist, BEAMS, init=guessed_start(hist, pipe, phase), **kwargs)


class TestModelCurve:
    def test_delta_kernel_is_pure_binned_rate(self):
        # Independent oracle: Gauss-Legendre integration of the rate over a
        # few bins, without any series machinery.
        params = FitModelParams(22e-6, 0.1, 1.0, 0.0, 0.0)
        curve = model_curve(params, BEAMS, PERIOD, 10e-9)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        for idx in (0, 100, 267, 400, 537):
            lo = idx * 10e-9
            hi = min((idx + 1) * 10e-9, PERIOD)
            t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            integral = 0.5 * (hi - lo) * np.sum(
                weights * total_scattering_rate(BEAMS, 22e-6, 0.1, OMEGA, t)
            )
            assert curve[idx] == pytest.approx(integral / 10e-9, rel=1e-12)

    def test_zero_amplitude_flat(self):
        params = FitModelParams(0.0, 0.3, 1.0, 5.0, 0.0)
        curve = model_curve(params, BEAMS, PERIOD, 10e-9)
        full = curve[:-1]  # trailing partial bin scales with width
        assert np.ptp(full) / np.mean(full) < 1e-12
        stationary = total_scattering_rate(BEAMS, 0.0, 0.0, OMEGA, 0.0)
        assert full[0] == pytest.approx(stationary + 5.0, rel=1e-12)

    def test_smear_conserves_counts(self):
        sharp = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.0)
        smeared = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.8e-6)
        a = model_curve(sharp, BEAMS, PERIOD, 10e-9)
        b = model_curve(smeared, BEAMS, PERIOD, 10e-9)
        assert b.sum() == pytest.approx(a.sum(), rel=1e-12)

    def test_tiny_sigma_matches_delta_kernel(self):
        sharp = FitModelParams(*REF_CASE_A, 1.0, 2.0, 0.0)
        tiny = FitModelParams(*REF_CASE_A, 1.0, 2.0, 1e-13)
        a = model_curve(sharp, BEAMS, PERIOD, 10e-9)
        b = model_curve(tiny, BEAMS, PERIOD, 10e-9)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_kernel_wider_than_half_period_rejected(self):
        bad = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.6 * PERIOD)
        with pytest.raises(ValueError):
            model_curve(bad, BEAMS, PERIOD, 10e-9)

    def test_phase_translation_identity_exact(self):
        # On a period of whole bins, advancing the phase by k bins rotates
        # the curve by k bins.
        bin_width = PERIOD / 538
        base = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.8e-6)
        curve = model_curve(base, BEAMS, PERIOD, bin_width)
        for k in (1, 17, 215, 269):
            shifted = replace(base, phase=base.phase + k * bin_width * OMEGA)
            rolled = model_curve(shifted, BEAMS, PERIOD, bin_width)
            np.testing.assert_allclose(rolled, np.roll(curve, -k), rtol=1e-12)

    # At sigma_t = period / 2 the wrapped normal wraps round the whole period.
    @pytest.mark.parametrize("sigma_t", [0.05e-6, 0.8e-6, PERIOD / 2])
    @pytest.mark.parametrize("amplitude", [12e-6, 21.677e-6, 32e-6])
    def test_jitter_matches_a_direct_wrapped_gaussian_convolution(self, amplitude, sigma_t):
        # The law of the per-photon path, which jitters each arrival and
        # then folds it: the rate convolved with the wrapped normal.
        params = FitModelParams(amplitude, 0.028, 1.0, 0.0, sigma_t)
        curve = model_curve(params, BEAMS, PERIOD, 10e-9)
        edges = bin_grid(PERIOD, 10e-9)[0]
        bins = np.arange(0, 538, 23)
        expected = wrapped_gaussian_bin_means(
            BEAMS, amplitude, 0.028, OMEGA, sigma_t, edges[bins], edges[bins + 1]
        )
        np.testing.assert_allclose(curve[bins], expected, rtol=1e-12)

    @pytest.mark.parametrize("sigma_t", [0.0, 0.8e-6])
    @settings(max_examples=20, deadline=None)
    @given(
        n_bins=st.integers(16, 600),
        amplitude=st.floats(1e-6, 40e-6),
        phase=st.floats(-math.pi, math.pi),
        beta=st.floats(0.0, 100.0),
        draw=st.data(),
    )
    def test_phase_shift_rolls_whole_bin_curve(
        self, sigma_t, n_bins, amplitude, phase, beta, draw
    ):
        # With the period a whole number of bins, advancing the phase by
        # m bin widths rotates the binned curve by m bins.
        bin_width = PERIOD / n_bins
        m = draw.draw(st.integers(0, n_bins - 1))
        base = FitModelParams(amplitude, phase, 1.0, beta, sigma_t)
        shifted = replace(base, phase=phase + OMEGA * m * bin_width)
        curve = model_curve(base, BEAMS, PERIOD, bin_width)
        assert len(curve) == n_bins
        np.testing.assert_allclose(
            model_curve(shifted, BEAMS, PERIOD, bin_width),
            np.roll(curve, -m),
            rtol=1e-9,
        )

    @pytest.mark.parametrize("sigma_t", [0.0, 0.8e-6])
    @settings(max_examples=20, deadline=None)
    @given(
        n_bins=st.integers(16, 600),
        phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
    )
    def test_zero_amplitude_curve_ignores_phase(self, sigma_t, n_bins, phases):
        bin_width = PERIOD / n_bins
        a, b = (
            model_curve(FitModelParams(0.0, p, 1.0, 5.0, sigma_t), BEAMS, PERIOD, bin_width)
            for p in phases
        )
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_reference_shape_regime(self):
        # At the reference parameters the sharp curve carries the two
        # resonance crossings plus the counter-propagating feature; the
        # published 0.8 us dispersion merges them into one broad maximum
        # whose height tracks the amplitude.
        bin_width = PERIOD / 4304

        def count_maxima(sigma_t):
            params = FitModelParams(*REF_CASE_A, 1.0, 0.0, sigma_t)
            y = model_curve(params, BEAMS, PERIOD, bin_width)
            left, right = np.roll(y, 1), np.roll(y, -1)
            return int(np.count_nonzero((y > left) & (y >= right)))

        assert count_maxima(0.0) == 3
        assert count_maxima(0.8e-6) == 1

    def test_amplitude_diagnostic_monotone(self):
        # The second peak of the folded curve sits where the ion
        # counter-propagates fastest (omega t + phase = pi), as the
        # far-detuned beam nears its Doppler resonance; its height grows
        # with the amplitude, sharp or smeared.
        n_bins, phase = 4096, 0.028
        idx = int((math.pi - phase) / OMEGA % PERIOD / (PERIOD / n_bins)) % n_bins
        for sigma in (0.0, 0.8e-6):
            heights = [
                model_curve(
                    FitModelParams(a * 1e-6, phase, 1.0, 0.0, sigma),
                    BEAMS,
                    PERIOD,
                    PERIOD / n_bins,
                )[idx]
                for a in (18, 20, 22, 24, 26)
            ]
            assert all(np.diff(heights) > 0)


class TestRateHarmonics:
    """The rate's closed-form cosine series, against its discrete Fourier
    transform and the direct bin integrals."""

    # At 0 the series is the constant and the first harmonic's slope alone.
    @pytest.mark.parametrize("amplitude", [0.0, 1e-6, 21.677e-6, 32e-6, 40e-6])
    def test_coefficients_match_an_fft_of_the_rate(self, amplitude):
        # On 2^14 points over the period, the FFT of the rate and of its
        # amplitude derivative (phase 0) give c_n and dc_n/dA to rounding.
        n_points = 2**14
        t = np.arange(n_points) * (PERIOD / n_points)
        rate, slope = direct_scattering_rate(BEAMS, amplitude, 0.0, OMEGA, t)
        c0, c, dc0, dc = harmonics(amplitude, slope=True)
        assert len(c) < n_points // 2
        for got0, got, row in ((c0, c, rate), (dc0, dc, slope)):
            spectrum = np.fft.rfft(row) / n_points
            scale = np.abs(spectrum).max()
            assert got0 == pytest.approx(spectrum[0].real, rel=1e-12, abs=1e-14 * scale)
            expected = 2 * spectrum[1 : len(got) + 1]
            np.testing.assert_allclose(got, expected.real, rtol=1e-12, atol=1e-14 * scale)
            # The series has no sine terms, and the FFT nothing past the cut.
            assert np.abs(spectrum.imag).max() < 1e-14 * scale
            assert np.abs(spectrum[len(got) + 1 :]).max() < 1e-14 * scale

    @pytest.mark.parametrize("amplitude", [1e-6, 21.677e-6, 32e-6])
    def test_series_matches_the_direct_rate(self, amplitude):
        # The cut series summed at random times and phases, off any grid,
        # against the rate and its amplitude slope formed point by point.
        t = np.random.default_rng(8).uniform(0.0, PERIOD, 997)
        c0, c, dc0, dc = harmonics(amplitude, slope=True)
        n = np.arange(1, len(c) + 1)
        for phase in (-2 * math.pi, -1.234, 0.03, 5.4321):
            cosines = np.cos(np.multiply.outer(OMEGA * t + phase, n))
            rate, slope = direct_scattering_rate(BEAMS, amplitude, phase, OMEGA, t)
            np.testing.assert_allclose(c0 + cosines @ c, rate, rtol=1e-13, atol=0)
            scale = np.abs(slope).max()
            np.testing.assert_allclose(dc0 + cosines @ dc, slope, rtol=0, atol=1e-13 * scale)

    # Up to the cap, where the edge tables' angles reach 4096 turns.
    @pytest.mark.parametrize("k", [1, 10, 100, 1000, fitting.HARMONIC_CAP])
    @pytest.mark.parametrize("bin_width", [10e-9, 13e-9])
    def test_single_harmonics_match_their_closed_form(self, bin_width, k):
        # cos k w t integrates over a bin to the difference of
        # sin(k w t)/(k w) at its edges: the edge sums of one harmonic.
        alpha = np.zeros((1, 1, k), complex)
        alpha[0, 0, -1] = 1 / (k * OMEGA)
        edges, widths = bin_grid(PERIOD, bin_width)
        got = np.diff(fitting._edge_sums(alpha, PERIOD, bin_width, math.inf)[0, 0])
        exact = PERIOD / (TWO_PI * k) * np.diff(np.sin(TWO_PI * k * edges / PERIOD))
        assert np.max(np.abs(got - exact) / widths) < 1e-12

    @pytest.mark.parametrize(
        "amplitude, width, expected",
        [(0.0, 0.0, 1), (21.677e-6, 0.0, 172), (32e-6, 0.0, 270), (21.677e-6, 0.2e-6, 33)],
    )
    def test_harmonic_count(self, amplitude, width, expected):
        c = harmonics(amplitude, OMEGA * width)[1]
        assert len(c) == expected

    # A cut at 0.4 of the period leaves a 1 ns sliver of a 10 ns bin; one
    # at 3.7 us falls on an edge of the 0.37 us bins; one at 1e-3 of the
    # period cuts the first bin.
    @pytest.mark.parametrize("stop", [0.4 * PERIOD, 10 * 0.37e-6, 1e-3 * PERIOD])
    @pytest.mark.parametrize("bin_width", [10e-9, 0.37e-6, PERIOD])
    def test_clipped_integrals_match_gauss_legendre(self, bin_width, stop):
        # The sampler's partial period: the bins' edges clipped at a cut,
        # exact to 1e-12 of a full bin; the bins past the cut are empty.
        got = fitting.rate_integrals(BEAMS, *REF_CASE_A, 0.0, PERIOD, bin_width, stop=stop)
        edges = np.minimum(bin_grid(PERIOD, bin_width)[0], stop)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        expected = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            rate = total_scattering_rate(BEAMS, *REF_CASE_A, OMEGA, t)
            expected.append(0.5 * (hi - lo) * np.sum(weights * rate))
        expected = np.array(expected)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * expected.max())
        assert np.all(got[edges[:-1] >= stop] == 0)

    @pytest.mark.parametrize(
        "beams, args, message",
        [
            ((), (21.677e-6, 0.0, PERIOD), "need at least one beam"),
            (BEAMS, (-1e-6, 0.0, PERIOD), "amplitude must be >= 0"),
            (BEAMS, (math.nan, 0.0, PERIOD), "amplitude must be finite"),
            (BEAMS, (21.677e-6, math.inf, PERIOD), "phase must be finite"),
            (BEAMS, (21.677e-6, 0.0, 0.0), "period must be > 0"),
            (BEAMS, (21.677e-6, 0.0, math.nan), "period must be > 0"),
            (BEAMS, (21.677e-6, 0.0, math.inf), "period must be > 0"),
            (BEAMS, (21.677e-6, 0.0, 5e-324), "period must be > 0"),
        ],
    )
    def test_rejects_bad_inputs(self, beams, args, message):
        amplitude, phase, period = args
        with pytest.raises(ValueError, match=message):
            fitting.rate_integrals(beams, amplitude, phase, 0.0, period, 10e-9)

    def test_an_absurd_amplitude_stays_finite_within_the_cap(self):
        # At 1 m the series would need about 1e7 harmonics; it is cut at
        # the cap, and the curve and the sampler's law stay finite.
        c = harmonics(1.0)[1]
        assert len(c) == fitting.HARMONIC_CAP
        params = FitModelParams(1.0, 0.3, 1.0, 0.0, 0.0)
        curve, columns = model_curve(params, BEAMS, PERIOD, 10e-9, free=PARAM_NAMES)
        assert np.all(np.isfinite(curve)) and np.all(np.isfinite(columns))
        total, means, _ = folded_law(BEAMS, 1.0, 0.3, OMEGA, PIPE)
        assert math.isfinite(total) and np.all(np.isfinite(means))


class TestHarmonicCap:
    """The fit never evaluates a rate series that HARMONIC_CAP would cut."""

    def test_fit_never_forms_a_cut_series(self, monkeypatch):
        # At 0.12 us jitter the series of a 21.677 um histogram needs 52
        # harmonics and one at 18 um 49.  With the cap at 50 a start at the
        # truth is refused, and a fit from 18 um rejects every trial past
        # the cap, as it rejects a rise of the deviance.  It stops held at
        # the cap, short of the truth, so it is flagged unconverged.
        monkeypatch.setattr(fitting, "HARMONIC_CAP", 50)
        pipe = PipelineConfig(timing_jitter=0.12e-6)
        hist = synth(*REF_CASE_A, seed=4300, pipe=pipe)
        init = chain_init_params(hist, pipe.efficiency, pipe.snr, *REF_CASE_A, 0.12e-6)
        with pytest.raises(ValueError, match="needs more than 50 harmonics"):
            fit_histogram(hist, BEAMS, init)
        formed, checked = [], []
        harmonics, length = fitting._rate_harmonics, fitting._series_length

        def recording_harmonics(beams, amplitude, omega, width, slope):
            formed.extend(np.ravel(length(beams, amplitude, omega, width)))
            return harmonics(beams, amplitude, omega, width, slope)

        def recording_length(*args):
            lengths = length(*args)
            checked.extend(lengths)
            return lengths

        monkeypatch.setattr(fitting, "_rate_harmonics", recording_harmonics)
        monkeypatch.setattr(fitting, "_series_length", recording_length)
        clear_caches()
        result = fit_histogram(hist, BEAMS, replace(init, amplitude=18e-6))
        assert max(checked) > 50
        assert formed and max(formed) <= 50
        assert 18e-6 < result.amplitude < 20e-6
        assert not result.converged


class TestDeriveAlphaBeta:
    def test_reference_values(self):
        alpha, beta = derive_alpha_beta(0.0028, 10.0, 538, 5.353e4, 2.0)
        assert alpha == pytest.approx(5.20e-5, rel=1e-2)
        assert beta == pytest.approx(33.2, rel=1e-2)

    def test_zero_counts(self):
        _, beta = derive_alpha_beta(0.0028, 10.0, 538, 0.0, 2.0)
        assert beta == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            derive_alpha_beta(0.0028, 10.0, 0, 100.0, 2.0)
        with pytest.raises(ValueError):
            derive_alpha_beta(0.0028, 10.0, 538, 100.0, -1.0)


def asimov(amplitude, phase, sigma_t=0.0, bin_width=10e-9):
    """The rounded expected counts of a 10 s gate's histogram."""
    truth = FitModelParams(amplitude, phase, 5.2e-5, 33.2, sigma_t)
    curve = model_curve(truth, BEAMS, PERIOD, bin_width)
    return TacHistogram(bin_width, PERIOD, np.round(curve * 50).astype(int), 10.0)


class TestInitialGuess:
    def test_guess_quality(self):
        for seed, (amp, phase) in enumerate([REF_CASE_A, REF_CASE_B]):
            hist = synth(amp, phase, seed=40 + seed)
            assert abs(initial_guess(hist, BEAMS, REFERENCE_PHASE) - amp) < 0.3e-6

    def test_flat_histogram_rejected(self):
        rng = np.random.default_rng(3)
        flat = TacHistogram(
            bin_width=10e-9,
            period=PERIOD,
            counts=rng.poisson(100.0, 538),
            gate_time=10.0,
        )
        with pytest.raises(NoModulationError):
            initial_guess(flat, BEAMS, REFERENCE_PHASE)

    def test_jitter_width_is_keyword_only(self):
        # The binning fixes the frequency; a frequency passed where it once
        # went would otherwise be read as a jitter width of 1.2e6 s.
        hist = synth(*REF_CASE_A, seed=40)
        with pytest.raises(TypeError):
            initial_guess(hist, BEAMS, REFERENCE_PHASE, OMEGA)

    @pytest.mark.parametrize("bin_width", [10e-9, 13e-9])
    @pytest.mark.parametrize("sigma_t", [0.0, 0.2e-6])
    @pytest.mark.parametrize("phase", [0.03, 1.1, -2.0])
    def test_asimov_histogram_recovers_its_grid_point(self, phase, sigma_t, bin_width):
        # Every grid amplitude over 12-32 um, from its expected counts.
        grid = np.linspace(*fitting.GUESS_GRID)
        inside = grid[(grid > 11.95e-6) & (grid < 32.05e-6)]
        assert len(inside) == 201
        guesses = [
            initial_guess(asimov(a, phase, sigma_t, bin_width), BEAMS, phase, sigma_t=sigma_t)
            for a in inside
        ]
        assert guesses == list(inside)

    @pytest.mark.parametrize("bin_width", [10e-9, 13e-9])
    def test_projector_is_the_least_squares_fit(self, bin_width):
        # Against numpy's lstsq on the closed-form bin integrals: z_m is
        # (a_m - i b_m)/w for counts ~ k width + sum a_m C_m + b_m S_m.
        edges, widths = bin_grid(PERIOD, bin_width)
        m = np.arange(1, 9)[:, None]
        angles = m * OMEGA * edges
        cos_integrals = np.diff(np.sin(angles)) / (m * OMEGA)
        sin_integrals = -np.diff(np.cos(angles)) / (m * OMEGA)
        design = np.vstack([widths, cos_integrals, sin_integrals]).T
        counts = np.random.default_rng(6).poisson(100.0, len(widths))
        coefficients = np.linalg.lstsq(design, counts, rcond=None)[0]
        expected = (coefficients[1:9] - 1j * coefficients[9:]) / OMEGA
        got = fitting._harmonic_projector(PERIOD, bin_width, 8) @ counts
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_needs_five_full_bins(self):
        # One harmonic's unit shape is +-1 at every amplitude, so the guess
        # needs two, and with the width column 5 bins.  The 5375.8 ns
        # period holds 5 full bins of 1075 ns and 4 of 1076 ns.
        guess = initial_guess(asimov(21e-6, 0.5, bin_width=1075e-9), BEAMS, 0.5)
        assert guess in np.linspace(*fitting.GUESS_GRID)
        message = "full TAC bins in the period: 4, fewer than the 5"
        with pytest.raises(NoModulationError, match=message):
            initial_guess(asimov(21e-6, 0.5, bin_width=1076e-9), BEAMS, 0.5)


def clear_caches():
    fitting._harmonic_projector.cache_clear()
    fitting._guess_shapes.cache_clear()
    fitting._edge_phases.cache_clear()


# 5375.8 ns / 13 ns leaves a partial last bin.
CACHE_CASES = [
    pytest.param(10e-9, 0.0, id="sharp"),
    pytest.param(10e-9, 0.2e-6, id="jittered"),
    pytest.param(13e-9, 0.2e-6, id="partial-last-bin"),
    pytest.param(13e-9, 0.0, id="partial-last-bin-sharp"),
]


class TestCaches:
    def test_interleaved_keys_match_cold_results(self):
        red, _ = BEAMS
        other_beams = (red, LaserBeam(TWO_PI * 40e6, 0.4))
        cases = []
        for bin_width in (10e-9, 13e-9):
            hist = synth(*REF_CASE_A, seed=72, pipe=PipelineConfig(gate_time=1.0, bin_width=bin_width))
            for beams in (BEAMS, other_beams):
                for sigma_t in (0.0, 0.2e-6, 0.3e-6):
                    for phase in (REF_CASE_A[1], 1.0):
                        cases.append((hist, beams, phase, sigma_t))
        clear_caches()
        warm = [initial_guess(h, b, p, sigma_t=s) for _ in range(2) for h, b, p, s in cases]
        for k, (hist, beams, phase, sigma_t) in enumerate(cases):
            clear_caches()
            cold = initial_guess(hist, beams, phase, sigma_t=sigma_t)
            assert warm[k] == cold
            assert warm[k + len(cases)] == cold

    @pytest.mark.parametrize("bin_width, sigma_t", CACHE_CASES)
    def test_guess_tables_are_read_only(self, bin_width, sigma_t):
        n_bins = math.ceil(PERIOD / bin_width)
        projector = fitting._harmonic_projector(PERIOD, bin_width, 8)
        amplitudes, shapes = fitting._guess_shapes(BEAMS, OMEGA, sigma_t, 8)
        assert np.array_equal(amplitudes, np.linspace(8e-6, 40e-6, 321))
        assert projector.shape == (8, n_bins) and shapes.shape == (321, 8)
        np.testing.assert_allclose(np.linalg.norm(shapes, axis=1), 1.0, rtol=1e-15)
        tables = (projector, amplitudes, shapes, *fitting._edge_phases(PERIOD, bin_width).tables(8))
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0

    @pytest.mark.parametrize("bin_width", [10e-9, 13e-9])
    def test_grids_are_built_once_per_binning_read_only(self, bin_width):
        edges, widths = bin_grid(PERIOD, bin_width)
        assert bin_grid(PERIOD, bin_width)[0] is edges
        n_bins = math.ceil(PERIOD / bin_width)
        expected = np.minimum(np.arange(n_bins + 1) * bin_width, PERIOD)
        assert np.array_equal(edges, expected)
        assert np.array_equal(widths, np.diff(expected))
        for array in (edges, widths):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("bin_width", [10e-9, 13e-9])
    def test_edge_phases_are_built_once_per_binning_and_grown(self, bin_width):
        # Passes at rising amplitudes grow the one table of the binning;
        # a pass that reads part of a grown table gives the cold result.
        clear_caches()
        params = [FitModelParams(a, 0.3, 1.0, 0.0, 0.0) for a in (5e-6, 21.677e-6, 32e-6)]
        warm = [model_curve(p, BEAMS, PERIOD, bin_width, free=("phase",)) for p in params]
        info = fitting._edge_phases.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        phases = fitting._edge_phases(PERIOD, bin_width)
        assert phases.size >= 270
        for p, kept in zip(params, warm):
            clear_caches()
            cold = model_curve(p, BEAMS, PERIOD, bin_width, free=("phase",))
            assert all(map(np.array_equal, kept, cold))

    @pytest.mark.parametrize("bin_width", [10e-9, 13e-9, PERIOD])
    def test_edge_sums_match_a_direct_sum(self, bin_width):
        # The split of each edge's phase into a coarse and a fine factor
        # against e^(i n w t) formed at each edge, clipped or not.
        rng = np.random.default_rng(4)
        alpha = rng.normal(size=(2, 40)) + 1j * rng.normal(size=(2, 40))
        edges = bin_grid(PERIOD, bin_width)[0]
        n = np.arange(1, 41)
        for stop in (math.inf, 0.3 * PERIOD):
            got = fitting._edge_sums(alpha[None], PERIOD, bin_width, stop)[0]
            at = np.minimum(edges, stop)
            expected = (alpha @ np.exp(1j * OMEGA * np.multiply.outer(n, at))).imag
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(alpha).sum())

    def test_results_are_fresh(self):
        params = FitModelParams(21.677e-6, 0.03, 1e-4, 3.0, 0.2e-6)
        free = ("amplitude", "phase")
        curve, columns = model_curve(params, BEAMS, PERIOD, 10e-9, free=free)
        expected = curve.copy(), columns.copy()
        curve[:] = 0.0
        columns[:] = 0.0
        again = model_curve(params, BEAMS, PERIOD, 10e-9, free=free)
        assert all(map(np.array_equal, again, expected))

    @pytest.mark.parametrize(
        "field",
        [
            "amplitude",
            "phase",
            "sigma_t",
            "beams",
            "period",
            "bin_width",
            "free",
        ],
    )
    def test_each_key_field_keeps_its_own_entry(self, field):
        # A model pass that differs from an earlier one in a single field
        # gives what cold caches give, not the earlier result.
        base = {
            "params": FitModelParams(21.677e-6, 0.03, 1e-4, 3.0, 0.2e-6),
            "beams": BEAMS,
            "period": PERIOD,
            "bin_width": 10e-9,
            "free": ("amplitude", "phase"),
        }
        red, _ = BEAMS
        changes = {
            "amplitude": {"params": replace(base["params"], amplitude=24.462e-6)},
            "phase": {"params": replace(base["params"], phase=0.3)},
            "sigma_t": {"params": replace(base["params"], sigma_t=0.4e-6)},
            "beams": {"beams": (red, LaserBeam(TWO_PI * 40e6, 0.4))},
            "period": {"period": 1.01 * PERIOD},
            "bin_width": {"bin_width": 13e-9},
            "free": {"free": ("amplitude", "phase", "sigma_t")},
        }
        variant = {**base, **changes[field]}
        clear_caches()
        kept = model_curve(**base)
        warm = model_curve(**variant)
        clear_caches()
        cold = model_curve(**variant)
        assert all(map(np.array_equal, warm, cold))
        assert not all(map(np.array_equal, kept, cold))


class TestFit:
    def test_noiseless_curve_exact_recovery(self):
        truth = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.0)
        curve = model_curve(truth, BEAMS, PERIOD, 10e-9)
        hist = TacHistogram(
            bin_width=10e-9,
            period=PERIOD,
            counts=np.round(curve * 2000).astype(np.int64),
            gate_time=10.0,
        )
        init = FitModelParams(20e-6, 0.2, 5.2e-5 * 2000, 33.2 * 2000, 0.0)
        result = fit_histogram(hist, BEAMS, init=init)
        assert result.converged
        assert result.amplitude == pytest.approx(REF_CASE_A[0], abs=2e-10)
        assert result.phase == pytest.approx(REF_CASE_A[1], abs=1e-5)

    @pytest.mark.parametrize("amp,phase", [REF_CASE_A, REF_CASE_B])
    def test_round_trip_reference_statistics(self, amp, phase):
        errors_a, errors_p = [], []
        for seed in range(15):
            hist = synth(amp, phase, seed=1000 + seed)
            result = fit_with_chain_init(hist)
            assert result.converged
            errors_a.append(result.amplitude - amp)
            errors_p.append(wrap_phase(result.phase - phase))
        assert np.max(np.abs(errors_a)) < 0.15e-6
        assert np.max(np.abs(errors_p)) < 0.01

    def test_phase_equivariance_of_fit(self):
        # Rotating a histogram by k bins shifts the fitted phase by
        # k * bin * omega and leaves the amplitude unchanged.  An exact
        # integer-bin period makes the rotation exact.
        omega = TWO_PI / (538 * 10e-9)
        hist = synthesize_histogram(BEAMS, 22e-6, 0.1, omega, PIPE, seed=77)
        base = fit_with_chain_init(hist)
        k = 45
        rotated = TacHistogram(
            bin_width=hist.bin_width,
            period=hist.period,
            counts=np.roll(hist.counts, k),
            gate_time=hist.gate_time,
        )
        turn = k * hist.bin_width * omega
        shifted = fit_with_chain_init(rotated, phase=REFERENCE_PHASE - turn)
        expected = wrap_phase(base.phase - turn)
        assert wrap_phase(shifted.phase - expected) == pytest.approx(0.0, abs=0.005)
        assert shifted.amplitude == pytest.approx(base.amplitude, abs=3e-8)

    def test_identifiability_directions_not_collinear(self):
        params = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.0)

        def curve(p):
            return model_curve(p, BEAMS, PERIOD, 10e-9)

        da = 1e-9
        dp = 1e-4
        grad_a = (
            curve(FitModelParams(params.amplitude + da, params.phase, 5.2e-5, 33.2, 0.0))
            - curve(FitModelParams(params.amplitude - da, params.phase, 5.2e-5, 33.2, 0.0))
        ) / (2 * da)
        grad_p = (
            curve(FitModelParams(params.amplitude, params.phase + dp, 5.2e-5, 33.2, 0.0))
            - curve(FitModelParams(params.amplitude, params.phase - dp, 5.2e-5, 33.2, 0.0))
        ) / (2 * dp)
        cosine = abs(grad_a @ grad_p) / (
            np.linalg.norm(grad_a) * np.linalg.norm(grad_p)
        )
        assert cosine < 0.9

    def test_error_bars_calibrated(self):
        # Scatter of the estimate over repetitions agrees with the reported
        # per-fit standard error within a factor 1.5.
        fits = []
        for seed in range(40):
            hist = synth(*REF_CASE_A, seed=2000 + seed)
            fits.append(fit_with_chain_init(hist))
        amp_scatter = np.std([f.amplitude for f in fits], ddof=1)
        amp_reported = np.mean([f.errors["amplitude"] for f in fits])
        assert 1 / 1.5 < amp_scatter / amp_reported < 1.5
        phase_scatter = np.std([f.phase for f in fits], ddof=1)
        phase_reported = np.mean([f.errors["phase"] for f in fits])
        assert 1 / 1.5 < phase_scatter / phase_reported < 1.5

    def test_smeared_round_trip_with_matched_model(self):
        # The published-dispersion variant: jittered synthesis fitted with
        # the matching frozen kernel width.  The heavy smear flattens the
        # template correlation, so the fit starts from a generic nearby
        # init; precision is correspondingly looser than the sharp case.
        pipe = PipelineConfig(timing_jitter=0.8e-6)
        errors = []
        for seed in range(8):
            hist = synth(*REF_CASE_B, seed=3000 + seed, pipe=pipe)
            init = chain_init_params(
                hist, pipe.efficiency, pipe.snr, 23e-6, 0.0, sigma_t=0.8e-6
            )
            result = fit_histogram(hist, BEAMS, init=init)
            assert result.converged
            errors.append(result.amplitude - REF_CASE_B[0])
        assert abs(np.mean(errors)) < 0.15e-6
        assert np.max(np.abs(errors)) < 0.4e-6

    def test_five_parameter_fit_available(self):
        hist = synth(*REF_CASE_A, seed=4000)
        result = fit_with_chain_init(hist, frozen=())
        assert result.converged
        assert result.amplitude == pytest.approx(REF_CASE_A[0], abs=0.3e-6)
        assert result.errors["alpha"] > 0

    def test_single_parameter_fit(self):
        hist = synth(*REF_CASE_A, seed=4100)
        amplitude = initial_guess(hist, BEAMS, REF_CASE_A[1])
        init = chain_init_params(hist, PIPE.efficiency, PIPE.snr, amplitude, REF_CASE_A[1])
        result = fit_histogram(
            hist, BEAMS, init=init, frozen=("phase", "alpha", "beta", "sigma_t")
        )
        assert result.converged
        assert result.amplitude == pytest.approx(REF_CASE_A[0], abs=0.2e-6)

    def test_flat_histogram_errors(self):
        rng = np.random.default_rng(9)
        flat = TacHistogram(
            bin_width=10e-9,
            period=PERIOD,
            counts=rng.poisson(80.0, 538),
            gate_time=10.0,
        )
        init = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.0)
        with pytest.raises(NoModulationError):
            fit_histogram(flat, BEAMS, init)

    def test_non_convergence_flagged_not_raised(self):
        hist = synth(*REF_CASE_A, seed=4200)
        result = fit_histogram(hist, BEAMS, init=guessed_start(hist), max_evaluations=2)
        assert not result.converged

    def test_free_alpha_from_zero_converges(self):
        # An alpha start of 0 gives alpha no scale of its own and zeroes the
        # amplitude and phase columns; the fit takes alpha's scale and start
        # from the histogram.  Each zero start must find the fit of the same
        # model from the chain start's alpha.
        pipe = PipelineConfig(gate_time=1.0)
        hist = synth(*REF_CASE_A, seed=5, pipe=pipe)
        init = guessed_start(hist, pipe)
        held = ("beta", "sigma_t")
        cases = [
            # beta held at 0.
            (replace(init, alpha=0.0, beta=0.0), replace(init, beta=0.0), held),
            # beta held at its chain value, where the zero start once
            # stopped at a false minimum near 4 um.
            (replace(init, alpha=0.0), init, held),
            # beta free as well: the chain start's fit.
            (replace(init, alpha=0.0, beta=0.0), init, ("sigma_t",)),
        ]
        for start, reference_start, frozen in cases:
            zero = fit_histogram(hist, BEAMS, init=start, frozen=frozen)
            reference = fit_histogram(hist, BEAMS, init=reference_start, frozen=frozen)
            assert zero.converged and zero.iterations < 500
            assert zero.params.amplitude == pytest.approx(
                reference.params.amplitude, abs=reference.errors["amplitude"]
            )

    def test_wrap_phase_convention(self):
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_phase(0.1) == pytest.approx(0.1)


class TestStacks:
    """Every fit of a stack equals, with ==, the fit of its histogram
    alone: the stack changes no fit's arithmetic or decisions."""

    @pytest.mark.parametrize("size", [1, 16, 17])
    @pytest.mark.parametrize("sigma_t", [0.0, 0.2e-6])
    def test_each_fit_is_its_fit_alone(self, size, sigma_t):
        # Amplitudes over 12-32 um give series of different lengths.
        pipe = PipelineConfig(gate_time=2.0, timing_jitter=sigma_t)
        amplitudes = np.linspace(12e-6, 32e-6, size)
        hists = [synth(a, 0.3, seed=9000 + k, pipe=pipe) for k, a in enumerate(amplitudes)]
        inits = [guessed_start(h, pipe, phase=0.3) for h in hists]
        stacked = fitting.fit_histograms(hists, BEAMS, inits)
        assert stacked == [fit_histogram(h, BEAMS, init) for h, init in zip(hists, inits)]
        assert all(result.converged for result in stacked)
        if size > 1:
            lengths = fitting._series_length(BEAMS, amplitudes, OMEGA, OMEGA * sigma_t)
            assert len(set(lengths)) > 1

    def test_a_fit_that_runs_out_of_evaluations(self):
        # A start far from its histogram's amplitude takes more evaluations
        # than the others; it runs out alone, and no other fit notices.
        hists = [synth(*REF_CASE_A, seed=9100 + k) for k in range(4)]
        inits = [guessed_start(h) for h in hists]
        inits[2] = replace(inits[2], amplitude=30e-6, phase=-0.5)
        stacked = fitting.fit_histograms(hists, BEAMS, inits, max_evaluations=6)
        alone = [fit_histogram(h, BEAMS, i, max_evaluations=6) for h, i in zip(hists, inits)]
        assert stacked == alone
        assert [result.converged for result in stacked] == [True, True, False, True]
        assert stacked[2].iterations == 6

    def test_a_stack_shares_one_binning_and_free_set(self):
        hist = synth(*REF_CASE_A, seed=9200)
        other = synth(*REF_CASE_A, seed=9201, pipe=PipelineConfig(bin_width=13e-9))
        init = chain_init_params(hist, PIPE.efficiency, PIPE.snr, *REF_CASE_A, 0.2e-6)
        with pytest.raises(ValueError, match="one binning"):
            fitting.fit_histograms([hist, other], BEAMS, [init, init])
        with pytest.raises(ValueError, match="same parameters"):
            fitting.fit_histograms(
                [hist, hist], BEAMS, [init, replace(init, sigma_t=0.0)], frozen=()
            )
        with pytest.raises(ValueError, match="one start per histogram"):
            fitting.fit_histograms([hist, hist], BEAMS, [init])

    def test_fits_through_a_fit_stack_run_its_loop_once(self, monkeypatch):
        hists = [synth(*REF_CASE_A, seed=9300 + k) for k in range(3)]
        inits = [guessed_start(h) for h in hists]
        alone = [fit_histogram(h, BEAMS, i) for h, i in zip(hists, inits)]
        loops = []
        fit_histograms = fitting.fit_histograms

        def recording(stack_hists, *args, **kwargs):
            loops.append(len(stack_hists))
            return fit_histograms(stack_hists, *args, **kwargs)

        monkeypatch.setattr(fitting, "fit_histograms", recording)
        stack = fitting.FitStack(hists, BEAMS, inits)
        assert [fit_histogram(h, BEAMS, i, stack=stack) for h, i in zip(hists, inits)] == alone
        assert loops == [3]
        with pytest.raises(ValueError, match="not a member"):
            fit_histogram(hists[0], BEAMS, inits[1], stack=stack)
        with pytest.raises(ValueError, match="not a member"):
            fit_histogram(synth(*REF_CASE_A, seed=9303), BEAMS, inits[0], stack=stack)
        with pytest.raises(ValueError, match="settings it was made with"):
            fit_histogram(hists[0], BEAMS, inits[0], max_evaluations=6, stack=stack)
        assert loops == [3]


class TestAgainstTrustRegion:
    """The package's Levenberg-Marquardt loop against scipy's trust-region
    solver on the same deviance, columns, bounds and thresholds."""

    @pytest.mark.parametrize(
        "pipe, frozen",
        [
            (PIPE, DEFAULT_FROZEN),
            (PipelineConfig(gate_time=1.0, timing_jitter=0.2e-6), DEFAULT_FROZEN),
            (PIPE, ()),
        ],
        ids=["10s-gates", "1s-gates-jittered", "five-parameters"],
    )
    def test_same_fit_as_least_squares(self, pipe, frozen):
        for seed in range(6):
            hist = synth(*REF_CASE_A, seed=7100 + seed, pipe=pipe)
            init = guessed_start(hist, pipe)
            result = fit_histogram(hist, BEAMS, init, frozen=frozen)
            reference = least_squares_fit(hist, BEAMS, init, frozen=frozen)
            assert result.converged == reference.converged
            assert abs(result.amplitude - reference.amplitude) <= (
                1e-3 * reference.errors["amplitude"]
            )
            assert abs(wrap_phase(result.phase - reference.phase)) <= (
                1e-3 * reference.errors["phase"]
            )


class TestDeviance:
    def test_squared_residuals_sum_to_the_deviance(self):
        # A 0.3 s gate leaves many bins empty; they enter as n ln(n/m) = 0.
        pipe = PipelineConfig(gate_time=0.3)
        hist = synth(*REF_CASE_A, seed=6000, pipe=pipe)
        counts = hist.counts.astype(float)
        assert np.count_nonzero(counts == 0) > 20
        result = fit_with_chain_init(hist, pipe=pipe)
        assert result.converged
        assert np.isfinite(result.residual)
        m = model_curve(result.params, BEAMS, PERIOD, hist.bin_width)
        deviance = 2 * np.sum(m - counts + special.xlogy(counts, counts / m))
        assert result.residual == pytest.approx(deviance, rel=1e-9)

    def test_empty_histogram_bins_against_an_empty_model_stay_finite(self):
        # alpha = beta = 0 makes every model bin empty; the residuals stay
        # finite, so the fit runs instead of raising on the first step.
        hist = synth(*REF_CASE_A, seed=6001, pipe=PipelineConfig(gate_time=1.0))
        init = FitModelParams(*REF_CASE_A, 0.0, 0.0, 0.0)
        result = fit_histogram(hist, BEAMS, init=init, frozen=("alpha", "beta", "sigma_t"))
        assert np.isfinite(result.residual)


def nudged(params, name, sign):
    """``params`` with one parameter stepped by 1e-5 of its value (of a
    radian for the phase), and that step."""
    step = 1e-5 if name == "phase" else 1e-5 * getattr(params, name)
    return replace(params, **{name: getattr(params, name) + sign * step}), step


def central_difference(params, name, bin_width=10e-9):
    (up, step), (down, _) = (nudged(params, name, sign) for sign in (1, -1))
    curve = lambda p: model_curve(p, BEAMS, PERIOD, bin_width)
    return (curve(up) - curve(down)) / (2 * step)


class TestExactJacobian:
    @pytest.mark.parametrize("sigma_t", [0.0, 0.2e-6])
    def test_columns_match_central_differences(self, sigma_t):
        # 5375.8 ns over 10 ns bins: 538 bins, the last one partial.
        widths = np.diff(bin_grid(PERIOD, 10e-9)[0])
        assert len(widths) == 538 and widths[-1] < 10e-9
        params = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, sigma_t)
        curve, columns = model_curve(params, BEAMS, PERIOD, 10e-9, free=PARAM_NAMES)
        np.testing.assert_array_equal(curve, model_curve(params, BEAMS, PERIOD, 10e-9))
        assert columns.shape == (538, 5)
        for j, name in enumerate(PARAM_NAMES):
            if name == "sigma_t" and sigma_t == 0.0:
                continue  # a central difference would step below 0
            expected = central_difference(params, name)
            np.testing.assert_allclose(
                columns[:, j], expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max()
            )

    def test_sigma_column_is_zero_at_zero(self):
        # The jitter factor exp(-(n w sigma_t)^2/2) is even in sigma_t, so
        # the curve is flat in sigma_t at 0 and its column there is 0.
        sharp = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.0)
        curve, columns = model_curve(sharp, BEAMS, PERIOD, 10e-9, free=("sigma_t",))
        np.testing.assert_array_equal(curve, model_curve(sharp, BEAMS, PERIOD, 10e-9))
        assert not np.any(columns)
        tiny = replace(sharp, sigma_t=1e-12)
        _, columns = model_curve(tiny, BEAMS, PERIOD, 10e-9, free=("sigma_t",))
        slope = central_difference(replace(sharp, sigma_t=0.2e-6), "sigma_t")
        assert 0 < np.abs(columns).max() < 1e-4 * np.abs(slope).max()

    def test_free_sigma_from_zero_stays_at_zero(self):
        hist = synth(*REF_CASE_A, seed=4000)
        held = fit_with_chain_init(hist, frozen=("sigma_t",))
        free = fit_with_chain_init(hist, frozen=())
        assert free.converged and free.params.sigma_t == 0.0
        assert free.errors["sigma_t"] == 0.0
        assert free.params == held.params

    def test_residual_chain_rule_on_empty_bins(self):
        # A 0.3 s gate leaves many bins empty; their residual is -sqrt(2 m).
        hist = synth(*REF_CASE_A, seed=6000, pipe=PipelineConfig(gate_time=0.3))
        counts = hist.counts.astype(float)
        assert np.count_nonzero(counts == 0) > 20
        n_log_n = special.xlogy(counts, counts)
        alpha, beta = derive_alpha_beta(PIPE.efficiency, 0.3, 538, hist.total_counts, PIPE.snr)
        params = FitModelParams(REF_CASE_A[0] + 0.3e-6, REF_CASE_A[1] - 0.02, alpha, beta, 0.2e-6)
        curve, columns = model_curve(params, BEAMS, PERIOD, 10e-9, free=PARAM_NAMES)
        _, slope = fitting._deviance_residuals(curve, counts, n_log_n)
        jacobian = slope[:, None] * columns

        def residuals(p):
            curve = model_curve(p, BEAMS, PERIOD, 10e-9)
            return fitting._deviance_residuals(curve, counts, n_log_n)[0]

        for j, name in enumerate(PARAM_NAMES):
            (up, step), (down, _) = (nudged(params, name, sign) for sign in (1, -1))
            expected = (residuals(up) - residuals(down)) / (2 * step)
            np.testing.assert_allclose(
                jacobian[:, j], expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max()
            )

    def test_residual_slope_where_the_model_meets_the_counts(self):
        counts = np.array([0.0, 1.0, 7.0, 40.0, 40.0, 40.0, 1000.0])
        curve = np.array([0.3, 1.0, 7.0, 40.0, 40.0 + 1e-7, 52.0, 1000.0 * (1 - 1e-9)])
        n_log_n = special.xlogy(counts, counts)
        residuals, slope = fitting._deviance_residuals(curve, counts, n_log_n)
        assert residuals[1:4].tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(slope[1:4], -1 / np.sqrt(counts[1:4]), rtol=1e-15)
        step = 1e-4 * curve
        up, down = (
            fitting._deviance_residuals(curve + sign * step, counts, n_log_n)[0] for sign in (1, -1)
        )
        np.testing.assert_allclose(slope, (up - down) / (2 * step), rtol=1e-6)

    def test_empty_model_slope_stays_finite(self):
        counts = np.array([0.0, 3.0, 500.0])
        _, slope = fitting._deviance_residuals(np.zeros(3), counts, special.xlogy(counts, counts))
        assert np.all(np.isfinite(slope))

    def test_a_stack_makes_one_model_pass_per_iteration(self, monkeypatch):
        # Each fit evaluates at its start and in every iteration until it
        # stops, so a stack makes one pass per evaluation of its longest
        # fit, with one row per evaluation.
        hists = [synth(*REF_CASE_A, seed=1000 + k) for k in range(3)]
        inits = [guessed_start(h) for h in hists]
        calls = []
        rate = fitting.rate_integrals

        def counting_rate(beams, amplitude, *rest):
            calls.append((len(amplitude), rest[4]))
            return rate(beams, amplitude, *rest)

        clear_caches()
        monkeypatch.setattr(fitting, "rate_integrals", counting_rate)
        results = fitting.fit_histograms(hists, BEAMS, inits)
        assert all(result.converged for result in results)
        assert {free for _, free in calls} == {("amplitude", "phase")}
        rows = [size for size, _ in calls]
        assert len(rows) == max(result.iterations for result in results)
        assert sum(rows) == sum(result.iterations for result in results)


class TestFisherInformation:
    def test_is_the_column_gram_matrix_over_the_model(self):
        params = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.2e-6)
        free = ("amplitude", "phase", "beta")
        info = fisher_information(params, BEAMS, PERIOD, 10e-9, free)
        curve = model_curve(params, BEAMS, PERIOD, 10e-9)
        grads = np.stack([central_difference(params, name) for name in free])
        expected = grads @ (grads / curve).T
        # Compared as correlations: amplitude and phase are nearly orthogonal.
        norm = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        np.testing.assert_allclose(info / norm, expected / norm, rtol=0, atol=1e-7)
        np.testing.assert_allclose(np.diag(info), np.diag(expected), rtol=1e-6)

    def test_bounds_the_amplitude_scatter_of_the_fit(self):
        # 200 fits at 10 s gates: the deviance fit is efficient, so the
        # scatter of its amplitude meets the Cramer-Rao bound within 4
        # standard errors of a standard deviation from 200 samples.
        n = 200
        amplitudes = []
        for seed in range(n):
            result = fit_with_chain_init(synth(*REF_CASE_A, seed=50000 + seed))
            assert result.converged
            amplitudes.append(result.amplitude)
        mean_signal, _, _ = folded_law(BEAMS, *REF_CASE_A, OMEGA, PIPE)
        alpha, beta = derive_alpha_beta(
            PIPE.efficiency, PIPE.gate_time, 538, mean_signal * (1 + 1 / PIPE.snr), PIPE.snr
        )
        truth = FitModelParams(*REF_CASE_A, alpha, beta, 0.0)
        info = fisher_information(truth, BEAMS, PERIOD, 10e-9, ("amplitude", "phase"))
        bound = math.sqrt(np.linalg.inv(info)[0, 0])
        assert bound == pytest.approx(45.2e-9, rel=0.01)
        ratio = np.std(amplitudes, ddof=1) / bound
        assert abs(ratio - 1) < 4 / math.sqrt(2 * (n - 1))


class TestFitReport:
    def test_round_trip(self, tmp_path):
        hist = synth(*REF_CASE_A, seed=5000)
        result = fit_with_chain_init(hist)
        path = tmp_path / "fit.txt"
        save_fit_report(result, path, config_hash="deadbeef")
        loaded = load_fit_report(path)
        assert "residual_statistic = poisson-deviance" in path.read_text().splitlines()
        assert loaded.residual == result.residual
        assert loaded.params == result.params
        assert loaded.errors == result.errors
        assert loaded.converged == result.converged
        assert loaded.frozen == tuple(DEFAULT_FROZEN)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("garbage\n")
        with pytest.raises(ValueError):
            load_fit_report(path)
