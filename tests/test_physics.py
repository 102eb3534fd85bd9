import math

import numpy as np
import pytest
from scipy import constants as scipy_constants

from phonon_sensor import constants
from phonon_sensor.constants import DEFAULT_AXIAL_FREQUENCY, HBAR, TWO_PI
from phonon_sensor.physics import (
    DriveConfig,
    EfficiencyChain,
    InstabilityError,
    LaserBeam,
    TrapConfig,
    collection_efficiency,
    damping_coefficient,
    default_beams,
    default_efficiency_chain,
    radiation_pressure_force,
    scattering_rate,
    scattering_rate_max,
    solid_angle_fraction,
    squeeze_variance_ratio,
    static_force,
    total_damping_coefficient,
    total_scattering_rate,
    total_scattering_rate_max,
)

RED, BLUE = default_beams()
TRAP = TrapConfig()
OMEGA = DEFAULT_AXIAL_FREQUENCY
PERIOD = TWO_PI / OMEGA

# Frozen 40-digit direct evaluations of the rate formula (mpmath oracle) at
# A = 22 um, phi = 0, t = j * PERIOD / 8.
GOLDEN_RED = {
    0: 44825.85951314434,
    1: 59813.865751364441,
    2: 152026.42654268433,
    3: 846422.10114526584,
    4: 2978041.2482893027,
    5: 846422.10114526584,
    6: 152026.42654268433,
    7: 59813.865751364441,
}
GOLDEN_PAIR = {
    0: 370199.77624470321,
    1: 1166879.9039679341,
    2: 573299.71598055819,
    3: 921424.20798788239,
    4: 3026463.6572513712,
    5: 921424.20798788239,
    6: 573299.71598055819,
    7: 1166879.9039679341,
}
# Same oracle for the friction rates at the default beam pair.
GOLDEN_ZETA_RED = 1949.0375717277336
GOLDEN_ZETA_BLUE = -23945.828448325327


class TestConstants:
    def test_literals_equal_scipy_constants(self):
        # Written out so the package imports no scipy; equal, not close, so
        # that every derived float stays bit-identical.
        assert constants.ATOMIC_MASS_UNIT == scipy_constants.atomic_mass
        assert constants.SPEED_OF_LIGHT == scipy_constants.c
        assert constants.ELEMENTARY_CHARGE == scipy_constants.elementary_charge
        assert constants.HBAR == scipy_constants.hbar
        assert constants.BOLTZMANN == scipy_constants.k


class TestTypes:
    def test_beam_validation(self):
        with pytest.raises(ValueError):
            LaserBeam(detuning=0.0, saturation=-0.1)
        with pytest.raises(ValueError):
            LaserBeam(detuning=0.0, saturation=1.0, wave_number=0.0)
        with pytest.raises(ValueError):
            LaserBeam(detuning=0.0, saturation=1.0, linewidth=-1.0)

    def test_trap_defaults_match_measured_frequencies(self):
        assert TRAP.secular_z / TWO_PI == pytest.approx(186.02e3)
        assert TRAP.secular_x / TWO_PI == pytest.approx(680.4e3)
        assert TRAP.secular_y / TWO_PI == pytest.approx(1020.3e3)

    def test_trap_validation(self):
        with pytest.raises(ValueError):
            TrapConfig(mass=0.0)
        with pytest.raises(ValueError):
            TrapConfig(secular_z=-1.0)

    def test_drive_force(self):
        drive = DriveConfig(injection_voltage=1e-3)
        assert drive.force == pytest.approx(362.8e-24, rel=1e-12)

    def test_drive_validation(self):
        with pytest.raises(ValueError):
            DriveConfig(injection_voltage=-1.0)
        with pytest.raises(ValueError):
            DriveConfig(squeeze_gain=1.5)

    def test_effective_gain_respects_enable_flag(self):
        drive = DriveConfig(squeeze_gain=0.9, squeeze_enabled=False)
        assert drive.effective_gain == 0.0
        drive = DriveConfig(squeeze_gain=0.9, squeeze_enabled=True)
        assert drive.effective_gain == 0.9


class TestScatteringRate:
    def test_zero_saturation_emits_nothing(self):
        beam = LaserBeam(detuning=TWO_PI * -10e6, saturation=0.0)
        assert scattering_rate(beam, 10e-6, 0.3, OMEGA, 1e-6) == 0.0

    def test_resonant_stationary_ion(self):
        beam = LaserBeam(detuning=0.0, saturation=0.8)
        expected = beam.linewidth * 0.8 / (4 * math.pi * 1.8)
        t = np.linspace(0.0, 3 * PERIOD, 17)
        assert scattering_rate(beam, 0.0, 0.0, OMEGA, t) == pytest.approx(expected)

    def test_golden_curve_red_beam(self):
        for j, expected in GOLDEN_RED.items():
            got = scattering_rate(RED, 22e-6, 0.0, OMEGA, j * PERIOD / 8)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_golden_curve_beam_pair(self):
        t = np.array(sorted(GOLDEN_PAIR)) * PERIOD / 8
        got = total_scattering_rate([RED, BLUE], 22e-6, 0.0, OMEGA, t)
        expected = np.array([GOLDEN_PAIR[j] for j in sorted(GOLDEN_PAIR)])
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_pair_sweeps_blue_resonance_twice_per_period(self):
        # The blue-beam resonance is crossed twice per cycle at this
        # amplitude: local maxima must appear at both predicted crossings.
        t = np.linspace(0.0, PERIOD, 20000, endpoint=False)
        y = total_scattering_rate([RED, BLUE], 22e-6, 0.0, OMEGA, t)
        left, right = np.roll(y, 1), np.roll(y, -1)
        peak_times = t[(y > left) & (y >= right)]
        swing = BLUE.wave_number * OMEGA * 22e-6
        theta = math.acos(BLUE.detuning / swing)
        crossings = [theta / OMEGA, (TWO_PI - theta) / OMEGA]
        for expected in crossings:
            assert np.min(np.abs(peak_times - expected)) < 0.01 * PERIOD

    def test_rejects_bad_inputs(self):
        t = np.zeros(2)
        cases = [
            ((RED, -1e-6, 0.0, OMEGA, 0.0), "amplitude must be >= 0"),
            ((RED, np.nan, 0.0, OMEGA, 0.0), "amplitude must be finite"),
            ((RED, 1e-6, np.inf, OMEGA, t), "phase must be finite"),
            ((RED, 1e-6, np.float64(np.nan), OMEGA, t), "phase must be finite"),
            ((RED, 1e-6, np.array(np.nan), OMEGA, t), "phase must be finite"),
            ((RED, 1e-6, 0.0, OMEGA, np.inf), "t must be finite"),
            ((RED, 1e-6, 0.0, OMEGA, np.array([0.0, np.nan])), "t must be finite"),
            ((RED, 1e-6, 0.0, 0.0, t), "omega_i must be > 0"),
            ((RED, 1e-6, 0.0, -OMEGA, t), "omega_i must be > 0"),
        ]
        for (beam, *args), message in cases:
            with pytest.raises(ValueError, match=message):
                scattering_rate(beam, *args)
            with pytest.raises(ValueError, match=message):
                total_scattering_rate((beam, BLUE), *args)

    def test_singleton_and_doubled_sum(self):
        t = np.linspace(0, PERIOD, 64)
        one = scattering_rate(RED, 22e-6, 0.1, OMEGA, t)
        np.testing.assert_allclose(
            total_scattering_rate([RED], 22e-6, 0.1, OMEGA, t), one, rtol=0
        )
        np.testing.assert_allclose(
            total_scattering_rate([RED, RED], 22e-6, 0.1, OMEGA, t), 2 * one, rtol=0
        )

    @staticmethod
    def per_beam_sum(beams, amplitude, phase, omega_i, t):
        # The rate formula evaluated beam by beam, summed left to right.
        total = None
        for beam in beams:
            s, gamma = beam.saturation, beam.linewidth
            swing = beam.wave_number * omega_i * amplitude
            doppler = swing * np.cos(omega_i * np.asarray(t) + phase)
            ratio = (beam.detuning - doppler) / gamma
            rate = (gamma * s / (4.0 * math.pi)) / (1.0 + s + 4.0 * ratio**2)
            total = rate if total is None else total + rate
        return total

    @pytest.mark.parametrize("n_beams", [1, 2, 3])
    def test_total_rate_equals_per_beam_sum_bitwise(self, n_beams):
        beams = (RED, BLUE, LaserBeam(detuning=TWO_PI * 5e6, saturation=1.3))[:n_beams]
        t = np.random.default_rng(n_beams).uniform(0.0, 10.0, 4096)
        for times in (t, t.reshape(64, 64)):
            before = times.copy()
            got = total_scattering_rate(beams, 22e-6, 0.37, OMEGA, times)
            assert got.shape == times.shape
            np.testing.assert_array_equal(got, self.per_beam_sum(beams, 22e-6, 0.37, OMEGA, times))
            np.testing.assert_array_equal(times, before)
        scalar = total_scattering_rate(beams, 22e-6, 0.37, OMEGA, 1.3e-6)
        assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
        assert scalar == self.per_beam_sum(beams, 22e-6, 0.37, OMEGA, 1.3e-6)

    @pytest.mark.parametrize("omega_i", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_rejected(self, omega_i):
        # NaN fails "omega_i <= 0" as well as "omega_i > 0"; it must raise,
        # not return NaN rates.
        with pytest.raises(ValueError, match="omega_i must be > 0"):
            total_scattering_rate((RED, BLUE), 2e-5, 0.0, omega_i, np.zeros(2))
        with pytest.raises(ValueError, match="omega_i must be > 0"):
            scattering_rate(RED, 2e-5, 0.0, omega_i, 0.0)
        with pytest.raises(ValueError, match="omega_i must be > 0"):
            total_scattering_rate_max((RED, BLUE), 2e-5, omega_i)

    def test_empty_beam_list_rejected(self):
        with pytest.raises(ValueError):
            total_scattering_rate([], 22e-6, 0.0, OMEGA, 0.0)

    def test_phase_time_equivalence_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            amp = rng.uniform(0, 30e-6)
            phase = rng.uniform(-4, 4)
            delta = rng.uniform(-4, 4)
            t = rng.uniform(0, 5 * PERIOD)
            a = scattering_rate(RED, amp, phase + delta, OMEGA, t)
            b = scattering_rate(RED, amp, phase, OMEGA, t + delta / OMEGA)
            assert a == pytest.approx(b, rel=1e-12)

    def test_periodicity(self):
        t = np.linspace(0, PERIOD, 33)
        a = scattering_rate(BLUE, 17e-6, 0.4, OMEGA, t)
        b = scattering_rate(BLUE, 17e-6, 0.4, OMEGA, t + PERIOD)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_rate_bounds(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, PERIOD, 512)
        for _ in range(20):
            beam = LaserBeam(
                detuning=rng.uniform(-TWO_PI * 100e6, TWO_PI * 100e6),
                saturation=rng.uniform(0, 2),
            )
            amp = rng.uniform(0, 40e-6)
            y = scattering_rate(beam, amp, rng.uniform(-3, 3), OMEGA, t)
            s = beam.saturation
            upper = beam.linewidth * s / (4 * math.pi * (1 + s))
            assert np.all(y >= 0)
            assert np.all(y <= upper * (1 + 1e-12))
            assert np.max(y) <= scattering_rate_max(beam, amp, OMEGA) * (1 + 1e-12)


class TestDamping:
    def test_zero_detuning_zero_damping(self):
        beam = LaserBeam(detuning=0.0, saturation=0.5)
        assert damping_coefficient(beam, TRAP.mass) == 0.0

    def test_sign_law(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            detuning = rng.uniform(-TWO_PI * 120e6, TWO_PI * 120e6)
            if detuning == 0.0:
                continue
            beam = LaserBeam(detuning=detuning, saturation=rng.uniform(0.01, 2))
            zeta = damping_coefficient(beam, TRAP.mass)
            assert np.sign(zeta) == -np.sign(detuning)

    def test_golden_values_default_pair(self):
        zeta_red = damping_coefficient(RED, TRAP.mass)
        zeta_blue = damping_coefficient(BLUE, TRAP.mass)
        assert zeta_red == pytest.approx(GOLDEN_ZETA_RED, rel=1e-12)
        assert zeta_blue == pytest.approx(GOLDEN_ZETA_BLUE, rel=1e-12)
        assert zeta_red > 0 and zeta_blue < 0
        total = total_damping_coefficient([RED, BLUE], TRAP.mass)
        assert total == pytest.approx(zeta_red + zeta_blue, rel=1e-12)

    def test_standard_theory_variant_scales_by_saturation(self):
        plain = damping_coefficient(RED, TRAP.mass)
        std = damping_coefficient(RED, TRAP.mass, standard_theory=True)
        assert std == pytest.approx(plain * RED.saturation, rel=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            damping_coefficient(RED, 0.0)


class TestRadiationPressure:
    def test_zero_saturation(self):
        beam = LaserBeam(detuning=TWO_PI * 10e6, saturation=0.0)
        assert radiation_pressure_force(beam, 3.0) == 0.0

    def test_maximal_at_doppler_resonant_velocity(self):
        v_res = RED.detuning / RED.wave_number
        f_res = radiation_pressure_force(RED, v_res)
        expected = HBAR * RED.wave_number * (RED.linewidth / 2) * 0.8 / 1.8
        assert f_res == pytest.approx(expected, rel=1e-12)
        assert f_res > radiation_pressure_force(RED, v_res + 1.0)
        assert f_res > radiation_pressure_force(RED, v_res - 1.0)

    def test_finite_difference_slope_matches_analytic_linearization(self):
        # Central differences against the closed-form slope at v = 0; the
        # slope equals -m * standard-theory damping coefficient.
        h = 1e-4
        for beam in (RED, BLUE):
            fd = (
                radiation_pressure_force(beam, h)
                - radiation_pressure_force(beam, -h)
            ) / (2 * h)
            analytic = -TRAP.mass * damping_coefficient(
                beam, TRAP.mass, standard_theory=True
            )
            assert fd == pytest.approx(analytic, rel=1e-6)


class TestStaticForce:
    def test_zero_displacement(self):
        assert static_force(TRAP, 0.0) == 0.0

    def test_reference_point_12um(self):
        force = static_force(TRAP, 12e-6)
        assert force == pytest.approx(1088.5e-21, rel=5e-3)

    def test_odd_symmetry(self):
        assert static_force(TRAP, -12e-6) == -static_force(TRAP, 12e-6)

    def test_linear_in_z_and_quadratic_in_frequency(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.uniform(-50e-6, 50e-6)
            assert static_force(TRAP, 2 * z) == pytest.approx(
                2 * static_force(TRAP, z), rel=1e-12
            )
        doubled = TrapConfig(secular_z=2 * TRAP.secular_z)
        assert static_force(doubled, 1e-6) == pytest.approx(
            4 * static_force(TRAP, 1e-6), rel=1e-12
        )


class TestCollectionEfficiency:
    def test_all_unity(self):
        chain = EfficiencyChain(solid_angle=1.0)
        assert collection_efficiency(chain) == 1.0

    def test_reference_chain_quarter_percent(self):
        eta = collection_efficiency(default_efficiency_chain())
        assert eta == pytest.approx(0.0025, abs=1e-4)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            EfficiencyChain(solid_angle=0.0)
        with pytest.raises(ValueError):
            EfficiencyChain(solid_angle=0.5, detector=1.2)

    def test_solid_angle_formula(self):
        assert solid_angle_fraction(1.0) == pytest.approx(0.5)
        assert solid_angle_fraction(0.36) == pytest.approx(
            (1 - math.sqrt(1 - 0.36**2)) / 2, rel=1e-12
        )


class TestSqueezeVarianceRatio:
    def test_no_squeezing(self):
        for phi in np.linspace(-3, 3, 7):
            assert squeeze_variance_ratio(0.0, phi) == 1.0

    def test_three_decibel_point(self):
        assert squeeze_variance_ratio(1.0, math.pi / 2) == pytest.approx(0.5, rel=1e-12)

    def test_direct_evaluation(self):
        assert squeeze_variance_ratio(0.9, math.pi / 2) == pytest.approx(1 / 1.9, rel=1e-12)

    def test_instability_raises(self):
        with pytest.raises(InstabilityError):
            squeeze_variance_ratio(1.0, 0.0)

    def test_pi_periodic_and_minimized_at_half_pi(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.uniform(0.05, 0.99)
            phi = rng.uniform(-3, 3)
            assert squeeze_variance_ratio(g, phi) == pytest.approx(
                squeeze_variance_ratio(g, phi + math.pi), rel=1e-12
            )
        for g in (0.2, 0.6, 0.95):
            best = squeeze_variance_ratio(g, math.pi / 2)
            for phi in np.linspace(-math.pi, math.pi, 41):
                assert best <= squeeze_variance_ratio(g, phi) + 1e-15


def test_kernels_are_pure():
    t = np.linspace(0, PERIOD, 16)
    first = scattering_rate(RED, 20e-6, 0.1, OMEGA, t)
    second = scattering_rate(RED, 20e-6, 0.1, OMEGA, t)
    np.testing.assert_array_equal(first, second)
