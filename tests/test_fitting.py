import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_sensor.constants import DEFAULT_AXIAL_FREQUENCY, TWO_PI
from phonon_sensor.fitting import (
    DEFAULT_FROZEN,
    FitModelParams,
    NoModulationError,
    amplitude_diagnostic_height,
    chain_init_params,
    derive_alpha_beta,
    fit_histogram,
    initial_guess,
    load_fit_report,
    model_curve,
    model_profile,
    save_fit_report,
    wrap_phase,
)
from phonon_sensor.photons import PipelineConfig, TacHistogram, synthesize_histogram
from phonon_sensor.physics import default_beams, total_scattering_rate

BEAMS = default_beams()
OMEGA = DEFAULT_AXIAL_FREQUENCY
PERIOD = TWO_PI / OMEGA
PIPE = PipelineConfig()

REF_CASE_A = (21.677e-6, 0.028)
REF_CASE_B = (24.462e-6, 0.042)


def synth(amplitude, phase, seed, pipe=PIPE):
    return synthesize_histogram(BEAMS, amplitude, phase, OMEGA, pipe, seed=seed)


def fit_with_chain_init(hist, pipe=PIPE, **kwargs):
    guess = initial_guess(hist, BEAMS)
    init = chain_init_params(
        hist,
        pipe.efficiency,
        pipe.snr,
        amplitude=guess.amplitude,
        phase=guess.phase,
        sigma_t=pipe.timing_jitter,
    )
    return fit_histogram(hist, BEAMS, init=init, **kwargs)


class TestModelCurve:
    def test_delta_kernel_is_pure_binned_rate(self):
        # Independent oracle: Gauss-Legendre integration of the rate over a
        # few bins, without any convolution machinery.  The default fine
        # grid is good to ~1e-5; a denser grid converges to the oracle.
        params = FitModelParams(22e-6, 0.1, 1.0, 0.0, 0.0)
        curve = model_curve(params, BEAMS, OMEGA, PERIOD, 10e-9)
        dense = model_curve(params, BEAMS, OMEGA, PERIOD, 10e-9, fine_factor=64)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        for idx in (0, 100, 267, 400, 537):
            lo = idx * 10e-9
            hi = min((idx + 1) * 10e-9, PERIOD)
            t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            integral = 0.5 * (hi - lo) * np.sum(
                weights * total_scattering_rate(BEAMS, 22e-6, 0.1, OMEGA, t)
            )
            assert curve[idx] == pytest.approx(integral / 10e-9, rel=2e-5)
            assert dense[idx] == pytest.approx(integral / 10e-9, rel=5e-7)

    def test_zero_amplitude_flat(self):
        params = FitModelParams(0.0, 0.3, 1.0, 5.0, 0.0)
        curve = model_curve(params, BEAMS, OMEGA, PERIOD, 10e-9)
        full = curve[:-1]  # trailing partial bin scales with width
        assert np.ptp(full) / np.mean(full) < 1e-12
        stationary = total_scattering_rate(BEAMS, 0.0, 0.0, OMEGA, 0.0)
        assert full[0] == pytest.approx(stationary + 5.0, rel=1e-12)

    def test_smear_conserves_counts(self):
        sharp = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.0)
        smeared = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.8e-6)
        a = model_curve(sharp, BEAMS, OMEGA, PERIOD, 10e-9)
        b = model_curve(smeared, BEAMS, OMEGA, PERIOD, 10e-9)
        assert b.sum() == pytest.approx(a.sum(), rel=1e-12)

    def test_tiny_sigma_matches_delta_kernel(self):
        sharp = FitModelParams(*REF_CASE_A, 1.0, 2.0, 0.0)
        tiny = FitModelParams(*REF_CASE_A, 1.0, 2.0, 1e-13)
        a = model_curve(sharp, BEAMS, OMEGA, PERIOD, 10e-9)
        b = model_curve(tiny, BEAMS, OMEGA, PERIOD, 10e-9)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_kernel_wider_than_half_period_rejected(self):
        bad = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.6 * PERIOD)
        with pytest.raises(ValueError):
            model_curve(bad, BEAMS, OMEGA, PERIOD, 10e-9)

    def test_phase_translation_identity_exact(self):
        # Advancing the phase by k fine cells rotates the profile by k.
        n_fine = 4304
        h = PERIOD / n_fine
        base = FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.8e-6)
        profile = model_profile(base, BEAMS, OMEGA, PERIOD, n_fine)
        for k in (1, 17, 215, 2152):
            shifted = FitModelParams(
                REF_CASE_A[0], REF_CASE_A[1] + k * h * OMEGA, 1.0, 0.0, 0.8e-6
            )
            rolled = model_profile(shifted, BEAMS, OMEGA, PERIOD, n_fine)
            np.testing.assert_allclose(rolled, np.roll(profile, -k), rtol=1e-12)

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
        curve = model_curve(base, BEAMS, OMEGA, PERIOD, bin_width)
        assert len(curve) == n_bins
        np.testing.assert_allclose(
            model_curve(shifted, BEAMS, OMEGA, PERIOD, bin_width),
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
            model_curve(FitModelParams(0.0, p, 1.0, 5.0, sigma_t), BEAMS, OMEGA, PERIOD, bin_width)
            for p in phases
        )
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_reference_shape_regime(self):
        # At the reference parameters the sharp profile carries the two
        # resonance crossings plus the counter-propagating feature; the
        # published 0.8 us dispersion merges them into one broad maximum
        # whose height tracks the amplitude.
        sharp = model_profile(
            FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.0), BEAMS, OMEGA, PERIOD, 4304
        )
        smeared = model_profile(
            FitModelParams(*REF_CASE_A, 1.0, 0.0, 0.8e-6), BEAMS, OMEGA, PERIOD, 4304
        )

        def count_maxima(y):
            left, right = np.roll(y, 1), np.roll(y, -1)
            return int(np.count_nonzero((y > left) & (y >= right)))

        assert count_maxima(sharp) == 3
        assert count_maxima(smeared) == 1

    def test_amplitude_diagnostic_monotone(self):
        for sigma in (0.0, 0.8e-6):
            heights = [
                amplitude_diagnostic_height(
                    FitModelParams(a * 1e-6, 0.028, 1.0, 0.0, sigma),
                    BEAMS,
                    OMEGA,
                    PERIOD,
                )
                for a in (18, 20, 22, 24, 26)
            ]
            assert all(np.diff(heights) > 0)


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


class TestInitialGuess:
    def test_guess_quality(self):
        for seed, (amp, phase) in enumerate([REF_CASE_A, REF_CASE_B]):
            hist = synth(amp, phase, seed=40 + seed)
            guess = initial_guess(hist, BEAMS)
            assert abs(guess.amplitude - amp) / amp < 0.20
            assert abs(wrap_phase(guess.phase - phase)) < 0.3

    def test_flat_histogram_rejected(self):
        rng = np.random.default_rng(3)
        flat = TacHistogram(
            bin_width=10e-9,
            period=PERIOD,
            counts=rng.poisson(100.0, 538),
            gate_time=10.0,
        )
        with pytest.raises(NoModulationError):
            initial_guess(flat, BEAMS)

    def test_template_at_truth_recovers_grid_point(self):
        truth = FitModelParams(24e-6, 0.0, 5.2e-5, 33.2, 0.0)
        curve = model_curve(truth, BEAMS, OMEGA, PERIOD, 10e-9)
        hist = TacHistogram(
            bin_width=10e-9,
            period=PERIOD,
            counts=np.round(curve * 50).astype(int),
            gate_time=10.0,
        )
        guess = initial_guess(hist, BEAMS, amplitude_range=(12e-6, 32e-6), n_amplitudes=21)
        # 21 points over [12, 32] um puts 24 um exactly on the grid.
        assert guess.amplitude == pytest.approx(24e-6, abs=1e-9)
        assert abs(wrap_phase(guess.phase)) < 0.05


class TestFit:
    def test_noiseless_curve_exact_recovery(self):
        truth = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.0)
        curve = model_curve(truth, BEAMS, OMEGA, PERIOD, 10e-9)
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
        base = fit_with_chain_init(hist, omega_i=omega)
        k = 45
        rotated = TacHistogram(
            bin_width=hist.bin_width,
            period=hist.period,
            counts=np.roll(hist.counts, k),
            gate_time=hist.gate_time,
        )
        shifted = fit_with_chain_init(rotated, omega_i=omega)
        expected = wrap_phase(base.phase - k * hist.bin_width * omega)
        assert wrap_phase(shifted.phase - expected) == pytest.approx(0.0, abs=0.005)
        assert shifted.amplitude == pytest.approx(base.amplitude, abs=3e-8)

    def test_identifiability_directions_not_collinear(self):
        params = FitModelParams(*REF_CASE_A, 5.2e-5, 33.2, 0.0)

        def curve(p):
            return model_curve(p, BEAMS, OMEGA, PERIOD, 10e-9)

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
        guess = initial_guess(hist, BEAMS)
        init = chain_init_params(
            hist, PIPE.efficiency, PIPE.snr, guess.amplitude, REF_CASE_A[1]
        )
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
        with pytest.raises(NoModulationError):
            fit_histogram(flat, BEAMS)

    def test_non_convergence_flagged_not_raised(self):
        hist = synth(*REF_CASE_A, seed=4200)
        guess = initial_guess(hist, BEAMS)
        init = chain_init_params(
            hist, PIPE.efficiency, PIPE.snr, guess.amplitude, guess.phase
        )
        result = fit_histogram(hist, BEAMS, init=init, max_evaluations=2)
        assert not result.converged

    def test_unweighted_mode_available(self):
        hist = synth(*REF_CASE_A, seed=4300)
        result = fit_with_chain_init(hist, weighted=False)
        assert result.converged
        assert result.amplitude == pytest.approx(REF_CASE_A[0], abs=0.2e-6)

    def test_wrap_phase_convention(self):
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_phase(0.1) == pytest.approx(0.1)


class TestFitReport:
    def test_round_trip(self, tmp_path):
        hist = synth(*REF_CASE_A, seed=5000)
        result = fit_with_chain_init(hist)
        path = tmp_path / "fit.txt"
        save_fit_report(result, path, config_hash="deadbeef")
        loaded = load_fit_report(path)
        assert loaded.params == result.params
        assert loaded.errors == result.errors
        assert loaded.converged == result.converged
        assert loaded.frozen == tuple(DEFAULT_FROZEN)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("garbage\n")
        with pytest.raises(ValueError):
            load_fit_report(path)
