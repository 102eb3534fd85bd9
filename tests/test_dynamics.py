import math

import numpy as np
import pytest

from phonon_sensor.constants import BOLTZMANN, TWO_PI
from phonon_sensor.dynamics import (
    DEFAULT_LOCK_THRESHOLD,
    ElectricNoise,
    NoiseModel,
    QuadraturePath,
    Trajectory,
    _langevin_ensemble,
    _locked_phase_ensemble,
    circular_std,
    demodulate,
    detect_lock,
    drift_profile,
    integrate_langevin,
    integrate_locked_phase,
    integrate_quadratures,
    limit_cycle_amplitude,
    stationary_mean_displacement,
    thermal_quadrature_variance,
)
from phonon_sensor.physics import (
    DriveConfig,
    InstabilityError,
    TrapConfig,
    default_beams,
)

TRAP = TrapConfig()
BEAMS = default_beams()
PERIOD = TWO_PI / TRAP.secular_z
COLD = NoiseModel(temperature=0.0, damping=0.0)
DAMPED = NoiseModel(temperature=0.0)
THERMAL = NoiseModel()
IDLE = DriveConfig()


class TestLangevin:
    def test_undamped_oscillator_conserves_energy(self):
        # T = 0, no drive, zero friction: plain harmonic motion.
        traj = integrate_langevin(
            TRAP, BEAMS, IDLE, COLD, 100 * PERIOD, seed=1, initial_position=1e-6
        )
        energy = 0.5 * TRAP.mass * (
            traj.velocities**2 + TRAP.secular_z**2 * traj.positions**2
        )
        assert np.ptp(energy) / energy[0] < 1e-3

    def test_damped_amplitude_decay(self):
        # Amplitude follows exp(-zeta t / 2) within 1% over 10 decay times.
        zeta = DAMPED.damping
        traj = integrate_langevin(
            TRAP, BEAMS, IDLE, DAMPED, 20 / zeta, seed=1, initial_position=1e-6
        )
        quad = demodulate(traj, TRAP.secular_z, 10 * PERIOD)
        expected = 1e-6 * np.exp(-zeta * quad.times / 2)
        assert np.max(np.abs(quad.amplitude - expected) / expected) < 0.01

    def test_nonlinear_mode_reaches_limit_cycle(self):
        # The saturable light force amplifies a small seed into a stable
        # limit cycle.  Its amplitude is of the same scale as the observed
        # 17.8 um free-running value; the exact number depends on the
        # force-curvature details, so it is reported rather than pinned.
        traj = integrate_langevin(
            TRAP,
            BEAMS,
            IDLE,
            DAMPED,
            350 * PERIOD,
            dt=PERIOD / 100,
            seed=2,
            nonlinear=True,
            initial_position=5e-7,
        )
        amplitude = limit_cycle_amplitude(traj, TRAP.secular_z)
        print(f"limit-cycle amplitude {amplitude * 1e6:.2f} um (observed scale 17.8)")
        assert 10e-6 < amplitude < 30e-6
        # Stationarity: trailing-quarter amplitude drift is small.
        quad = demodulate(traj, TRAP.secular_z, 10 * PERIOD)
        tail = quad.amplitude[-len(quad) // 4 :]
        assert np.ptp(tail) / np.mean(tail) < 0.05

    def test_coarse_step_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            integrate_langevin(TRAP, BEAMS, IDLE, DAMPED, 10 * PERIOD, dt=PERIOD / 10)

    def test_linear_mode_instability_reported(self):
        drive = DriveConfig(squeeze_gain=1.0, squeeze_phase=0.0, squeeze_enabled=True)
        with pytest.raises(InstabilityError):
            integrate_langevin(TRAP, BEAMS, drive, DAMPED, 10 * PERIOD)

    def test_deterministic_given_seed(self):
        a = integrate_langevin(TRAP, BEAMS, IDLE, THERMAL, 20 * PERIOD, seed=7)
        b = integrate_langevin(TRAP, BEAMS, IDLE, THERMAL, 20 * PERIOD, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_driven_mean_matches_quadrature_prediction(self):
        # The resonant response lags the drive by 90 degrees, which the
        # orthogonal projection reports as -Y; the envelope model displaces
        # +Y by convention.  Magnitudes must agree.
        drive = DriveConfig(injection_voltage=18.25e-3)
        traj = integrate_langevin(
            TRAP, BEAMS, drive, NoiseModel(temperature=0.0), 400 * PERIOD, seed=3
        )
        quad = demodulate(traj, TRAP.secular_z, 20 * PERIOD)
        tail = slice(-len(quad) // 4, None)
        expected = stationary_mean_displacement(TRAP, drive, DAMPED)
        assert np.mean(quad.y[tail]) == pytest.approx(-expected, rel=0.01)
        assert abs(np.mean(quad.x[tail])) < 0.01 * expected


class TestLangevinQuadratureAgreement:
    def test_thermal_moments_agree(self):
        # Demodulated statistics of the full equation against the envelope
        # model: variances k_B T/(2 m w^2) within 5%, mean displacement
        # within 2%.
        drive = DriveConfig(injection_voltage=5e-3)
        times, zs, vs = _langevin_ensemble(
            TRAP,
            BEAMS,
            drive,
            THERMAL,
            800 * PERIOD,
            None,
            11,
            False,
            n_trajectories=256,
        )
        target_var = thermal_quadrature_variance(drive, THERMAL)
        target_mean = stationary_mean_displacement(TRAP, drive, THERMAL)
        burn = len(times) // 4
        xs, ys = [], []
        for j in range(zs.shape[1]):
            traj = Trajectory(times=times, positions=zs[:, j], velocities=vs[:, j])
            quad = demodulate(traj, TRAP.secular_z, 20 * PERIOD)
            sel = quad.times > times[burn]
            xs.append(quad.x[sel])
            ys.append(quad.y[sel])
        xs = np.concatenate(xs)
        ys = np.concatenate(ys)
        # Envelope-model magnitude; the demodulated response sits at -Y.
        assert np.mean(ys) == pytest.approx(-target_mean, rel=0.02)
        assert np.var(xs) == pytest.approx(target_var, rel=0.05)
        assert np.var(ys) == pytest.approx(target_var, rel=0.05)


class TestQuadratures:
    def test_decay_without_forcing(self):
        noise = NoiseModel(temperature=0.0)
        path = integrate_quadratures(
            TRAP, IDLE, noise, 2000 * PERIOD, seed=1, initial_x=1e-6, initial_y=-2e-6
        )
        assert abs(path.x[-1]) < 1e-9
        assert abs(path.y[-1]) < 1e-9

    def test_thermal_variance_matches_formula(self):
        # Stationary var(X), var(Y) -> k_B T / (2 m w^2) within 5%.
        target = thermal_quadrature_variance(IDLE, THERMAL)
        xs, ys = [], []
        for seed in range(20):
            path = integrate_quadratures(
                TRAP, IDLE, THERMAL, 10000 * PERIOD, seed=seed, stationary_start=True
            )
            xs.append(path.x)
            ys.append(path.y)
        var_x = np.var(np.concatenate(xs))
        var_y = np.var(np.concatenate(ys))
        assert var_x == pytest.approx(target, rel=0.05)
        assert var_y == pytest.approx(target, rel=0.05)

    def test_squeezed_variance_ratio(self):
        # g = 0.9, phi = pi/2: var(Y)/var0 = 1/1.9 within 0.05.
        drive = DriveConfig(
            squeeze_gain=0.9, squeeze_phase=math.pi / 2, squeeze_enabled=True
        )
        target = thermal_quadrature_variance(drive, THERMAL)
        ys = [
            integrate_quadratures(
                TRAP, drive, THERMAL, 10000 * PERIOD, seed=seed, stationary_start=True
            ).y
            for seed in range(12)
        ]
        ratio = np.var(np.concatenate(ys)) / target
        assert ratio == pytest.approx(1 / 1.9, abs=0.05)

    def test_displaced_mean_linear_in_force(self):
        voltages = [4e-3, 9e-3, 16e-3]
        means = []
        for i, voltage in enumerate(voltages):
            drive = DriveConfig(injection_voltage=voltage)
            path = integrate_quadratures(
                TRAP, drive, THERMAL, 8000 * PERIOD, seed=30 + i, stationary_start=True
            )
            means.append(np.mean(path.y))
        forces = np.array(voltages) * IDLE.force_per_volt
        coeffs = np.polyfit(forces, means, 1)
        predicted = np.polyval(coeffs, forces)
        ss_res = np.sum((np.array(means) - predicted) ** 2)
        ss_tot = np.sum((means - np.mean(means)) ** 2)
        assert 1 - ss_res / ss_tot > 0.999
        assert coeffs[0] == pytest.approx(
            1 / (THERMAL.mass * THERMAL.damping * TRAP.secular_z), rel=0.02
        )

    def test_instability_raises_both_sides(self):
        unstable_y = DriveConfig(squeeze_gain=1.0, squeeze_phase=0.0, squeeze_enabled=True)
        with pytest.raises(InstabilityError):
            integrate_quadratures(TRAP, unstable_y, THERMAL, 100 * PERIOD)
        # g cos 2phi = -1 leaves the displaced quadrature stable; the
        # marginal in-phase quadrature random-walks but the run completes.
        marginal = DriveConfig(
            squeeze_gain=1.0, squeeze_phase=math.pi / 2, squeeze_enabled=True
        )
        path = integrate_quadratures(TRAP, marginal, THERMAL, 1000 * PERIOD, seed=2)
        assert np.all(np.isfinite(path.x))
        with pytest.raises(InstabilityError):
            integrate_quadratures(
                TRAP, marginal, THERMAL, 100 * PERIOD, stationary_start=True
            )

    def test_deterministic(self):
        a = integrate_quadratures(TRAP, IDLE, THERMAL, 500 * PERIOD, seed=5)
        b = integrate_quadratures(TRAP, IDLE, THERMAL, 500 * PERIOD, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestDemodulate:
    def test_pure_sine_recovered_exactly(self):
        times = np.arange(0, 40 * PERIOD, PERIOD / 256)
        z = 1e-6 * np.sin(TRAP.secular_z * times)
        traj = Trajectory(times=times, positions=z, velocities=np.zeros_like(z))
        quad = demodulate(traj, TRAP.secular_z, 10 * PERIOD)
        assert np.max(np.abs(quad.x - 1e-6)) < 1e-9
        assert np.max(np.abs(quad.y)) < 1e-9

    def test_phase_offset_recovered(self):
        times = np.arange(0, 40 * PERIOD, PERIOD / 256)
        z = 21.677e-6 * np.sin(TRAP.secular_z * times + 0.028)
        traj = Trajectory(times=times, positions=z, velocities=np.zeros_like(z))
        quad = demodulate(traj, TRAP.secular_z, 10 * PERIOD)
        assert np.mean(quad.phase) == pytest.approx(0.028, abs=0.001)

    def test_white_noise_gives_balanced_zero_mean_quadratures(self):
        rng = np.random.default_rng(17)
        times = np.arange(0, 30 * PERIOD, PERIOD / 64)
        x_means, y_means, x_vars, y_vars = [], [], [], []
        for _ in range(100):
            z = rng.normal(0.0, 1e-6, len(times))
            traj = Trajectory(times=times, positions=z, velocities=np.zeros_like(z))
            quad = demodulate(traj, TRAP.secular_z, 10 * PERIOD)
            x_means.append(np.mean(quad.x))
            y_means.append(np.mean(quad.y))
            x_vars.append(np.var(quad.x))
            y_vars.append(np.var(quad.y))
        n = len(x_means)
        assert abs(np.mean(x_means)) < 3 * np.std(x_means) / math.sqrt(n)
        assert abs(np.mean(y_means)) < 3 * np.std(y_means) / math.sqrt(n)
        assert np.mean(x_vars) == pytest.approx(np.mean(y_vars), rel=0.1)

    def test_window_shorter_than_period_rejected(self):
        times = np.arange(0, 10 * PERIOD, PERIOD / 64)
        traj = Trajectory(
            times=times, positions=np.zeros_like(times), velocities=np.zeros_like(times)
        )
        with pytest.raises(ValueError):
            demodulate(traj, TRAP.secular_z, 0.5 * PERIOD)


class TestDetectLock:
    def test_noiseless_driven_state_locked(self):
        drive = DriveConfig(injection_voltage=18.25e-3)
        path = integrate_quadratures(
            TRAP, drive, NoiseModel(temperature=0.0), 4000 * PERIOD, seed=1
        )
        verdict = detect_lock(path)
        assert verdict.locked
        assert verdict.phase_std < 1e-6
        assert verdict.criterion_threshold == DEFAULT_LOCK_THRESHOLD

    def test_undriven_thermal_phase_diffuses(self):
        path = integrate_quadratures(
            TRAP, IDLE, THERMAL, 8000 * PERIOD, seed=2, stationary_start=True
        )
        verdict = detect_lock(path)
        assert not verdict.locked
        assert verdict.phase_std > 1.0

    def test_operating_voltage_locks_nearly_always(self):
        # 100 phase-model trials with the full noise budget.
        drive = DriveConfig(injection_voltage=18.25e-3)
        times, psi = _locked_phase_ensemble(
            TRAP,
            drive,
            THERMAL,
            2.0,
            None,
            21,
            ElectricNoise(),
            17.839e-6,
            False,
            0.0,
            100,
        )
        half = len(times) // 2
        locked = sum(
            circular_std(psi[half:, j]) < DEFAULT_LOCK_THRESHOLD for j in range(100)
        )
        assert locked >= 99

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            detect_lock(
                QuadraturePath(times=np.array([]), x=np.array([]), y=np.array([]))
            )

    def test_window_longer_than_path_rejected(self):
        path = integrate_quadratures(TRAP, IDLE, THERMAL, 100 * PERIOD, seed=3)
        with pytest.raises(ValueError):
            detect_lock(path, window=2 * path.duration)


class TestLockedPhaseModel:
    def test_squeeze_halves_locked_phase_variance(self):
        drive_off = DriveConfig(injection_voltage=2e-3)
        drive_on = DriveConfig(
            injection_voltage=2e-3,
            squeeze_gain=1.0,
            squeeze_phase=math.pi / 2,
            squeeze_enabled=True,
        )
        spreads = {}
        for name, drive in (("off", drive_off), ("on", drive_on)):
            _, psi = _locked_phase_ensemble(
                TRAP, drive, THERMAL, 2.0, 1e-4, 31, None, 17.839e-6, False, 0.0, 64
            )
            spreads[name] = np.var(psi[len(psi) // 2 :], axis=0).mean()
        assert spreads["on"] / spreads["off"] == pytest.approx(0.5, abs=0.08)

    def test_undriven_phase_diffuses_uniformly(self):
        path = integrate_locked_phase(
            TRAP, IDLE, THERMAL, 10.0, seed=4, electric_noise=ElectricNoise()
        )
        assert not detect_lock(path).locked

    def test_deterministic(self):
        drive = DriveConfig(injection_voltage=1e-3)
        a = integrate_locked_phase(TRAP, drive, THERMAL, 1.0, seed=9)
        b = integrate_locked_phase(TRAP, drive, THERMAL, 1.0, seed=9)
        np.testing.assert_array_equal(a.y, b.y)


class TestDrift:
    def test_linear_drift_values(self):
        at_0, at_250, at_500 = drift_profile(TRAP, np.array([0.0, 250.0, 500.0]), "linear")
        assert at_0 == TRAP.secular_z
        assert (at_500 - TRAP.secular_z) / TWO_PI == pytest.approx(10.0, rel=1e-9)
        assert (at_250 - TRAP.secular_z) / TWO_PI == pytest.approx(5.0, rel=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            drift_profile(TRAP, np.array([-1.0]), "linear")

    def test_random_walk_rms_matches_linear_at_reference(self):
        times = np.linspace(0.0, 500.0, 501)
        finals = [
            drift_profile(TRAP, times, model="random_walk", seed=seed)[-1]
            - TRAP.secular_z
            for seed in range(400)
        ]
        rms = math.sqrt(np.mean(np.square(finals)))
        assert rms == pytest.approx(TWO_PI * 10.0, rel=0.15)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            drift_profile(TRAP, np.array([0.0, 1.0]), model="cubic")


class TestSqueezeCrossRoute:
    def test_parametric_term_damps_quadratures_at_half_envelope_gain(self):
        # The second-order equation's parametric coefficient produces
        # quadrature damping rates (zeta/2)(1 +/- (g/2) cos 2 phi): half
        # the envelope-model gain.  Measured from deterministic decay of
        # each quadrature; this pins the factor-two relation between the
        # two formulations.
        g, phi = 0.9, math.pi / 2
        drive = DriveConfig(squeeze_gain=g, squeeze_phase=phi, squeeze_enabled=True)
        noise0 = NoiseModel(temperature=0.0)
        zeta = noise0.damping
        for component, z0, v0, sign in (
            ("x", 0.0, 1e-6 * TRAP.secular_z, +1),
            ("y", 1e-6, 0.0, -1),
        ):
            traj = integrate_langevin(
                TRAP,
                BEAMS,
                drive,
                noise0,
                300 * PERIOD,
                seed=1,
                initial_position=z0,
                initial_velocity=v0,
            )
            quad = demodulate(traj, TRAP.secular_z, 10 * PERIOD)
            sel = slice(len(quad) // 6, len(quad) // 2)
            slope = np.polyfit(quad.times[sel], np.log(quad.amplitude[sel]), 1)[0]
            expected = 0.5 * zeta * (1 + sign * (g / 2) * math.cos(2 * phi))
            assert -slope == pytest.approx(expected, rel=0.02), component


class TestExports:
    def test_trajectory_round_trip(self, tmp_path):
        from phonon_sensor.dynamics import load_trajectory, save_trajectory

        traj = integrate_langevin(TRAP, BEAMS, IDLE, THERMAL, 10 * PERIOD, seed=1)
        path = tmp_path / "traj.txt"
        save_trajectory(traj, path, seed=1, config_hash="cafe")
        loaded = load_trajectory(path)
        np.testing.assert_array_equal(loaded.times, traj.times)
        np.testing.assert_array_equal(loaded.positions, traj.positions)
        np.testing.assert_array_equal(loaded.velocities, traj.velocities)

    def test_quadrature_round_trip(self, tmp_path):
        from phonon_sensor.dynamics import load_quadrature_path, save_quadrature_path

        quad = integrate_quadratures(TRAP, IDLE, THERMAL, 100 * PERIOD, seed=2)
        path = tmp_path / "quad.txt"
        save_quadrature_path(quad, path, seed=2)
        loaded = load_quadrature_path(path)
        np.testing.assert_array_equal(loaded.x, quad.x)
        np.testing.assert_array_equal(loaded.y, quad.y)

    def test_wrong_file_type_rejected(self, tmp_path):
        from phonon_sensor.dynamics import load_trajectory

        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_trajectory(path)


class TestTypes:
    def test_quadrature_path_validation(self):
        with pytest.raises(ValueError):
            QuadraturePath(
                times=np.array([0.0, 1.0]), x=np.array([1.0]), y=np.array([1.0, 2.0])
            )
        with pytest.raises(ValueError):
            QuadraturePath(
                times=np.array([0.0, 0.0]),
                x=np.array([1.0, 1.0]),
                y=np.array([1.0, 1.0]),
            )

    def test_phase_deviation_convention(self):
        path = QuadraturePath(
            times=np.array([0.0, 1.0]),
            x=np.array([17.8e-6, 17.8e-6]),
            y=np.array([0.5e-6, -0.5e-6]),
        )
        np.testing.assert_allclose(
            path.phase_deviation(17.8e-6), [0.5 / 17.8, -0.5 / 17.8]
        )
        with pytest.raises(ValueError):
            path.phase_deviation(0.0)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(temperature=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(damping=-1.0)
        with pytest.raises(ValueError):  # envelope model needs damping
            integrate_quadratures(
                TRAP, IDLE, NoiseModel(temperature=0.0, damping=0.0), 100 * PERIOD
            )
        spectral = THERMAL.force_spectral_density()
        assert spectral == pytest.approx(
            2 * THERMAL.mass * THERMAL.damping * BOLTZMANN * THERMAL.temperature
        )

    def test_circular_std_extremes(self):
        assert circular_std(np.zeros(100)) == 0.0
        rng = np.random.default_rng(0)
        assert circular_std(rng.uniform(-math.pi, math.pi, 20000)) > 2.0
