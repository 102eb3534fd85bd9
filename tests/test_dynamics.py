import math

import numpy as np
import pytest

from phonon_sensor.constants import BOLTZMANN, DEFAULT_FREE_RUNNING_AMPLITUDE, TWO_PI
from phonon_sensor.dynamics import (
    DEFAULT_LOCK_THRESHOLD,
    ElectricNoise,
    NoiseModel,
    PHASE_CHUNK,
    QuadraturePath,
    _locked_phase_spreads,
    circular_std,
    demodulate,
    detect_lock,
    drift_profile,
    integrate_langevin,
    integrate_quadratures,
    stationary_mean_displacement,
    thermal_quadrature_variance,
)
from phonon_sensor.physics import (
    DriveConfig,
    InstabilityError,
    TrapConfig,
    default_beams,
    squeeze_variance_ratio,
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
        _, z, v = integrate_langevin(
            TRAP, BEAMS, IDLE, COLD, 100 * PERIOD, seed=1, initial_position=1e-6
        )
        energy = 0.5 * TRAP.mass * (v[:, 0] ** 2 + TRAP.secular_z**2 * z[:, 0] ** 2)
        assert np.ptp(energy) / energy[0] < 1e-3

    def test_damped_amplitude_decay(self):
        # Amplitude follows exp(-zeta t / 2) within 1% over 10 decay times.
        zeta = DAMPED.damping
        times, z, _ = integrate_langevin(
            TRAP, BEAMS, IDLE, DAMPED, 20 / zeta, seed=1, initial_position=1e-6
        )
        quad = demodulate(times, z[:, 0], TRAP.secular_z, 10 * PERIOD)
        expected = 1e-6 * np.exp(-zeta * quad.times / 2)
        assert np.max(np.abs(quad.amplitude - expected) / expected) < 0.01

    def test_nonlinear_mode_reaches_limit_cycle(self):
        # The saturable light force amplifies a small seed into a stable
        # limit cycle.  Its amplitude is of the same scale as the observed
        # 17.8 um free-running value; the exact number depends on the
        # force-curvature details, so it is reported rather than pinned.
        times, z, _ = integrate_langevin(
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
        quad = demodulate(times, z[:, 0], TRAP.secular_z, 10 * PERIOD)
        tail = quad.amplitude[-len(quad) // 4 :]
        amplitude = np.mean(tail)
        print(f"limit-cycle amplitude {amplitude * 1e6:.2f} um (observed scale 17.8)")
        assert 10e-6 < amplitude < 30e-6
        # Stationarity: trailing-quarter amplitude drift is small.
        assert np.ptp(tail) / amplitude < 0.05

    def test_coarse_step_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            integrate_langevin(TRAP, BEAMS, IDLE, DAMPED, 10 * PERIOD, dt=PERIOD / 10)

    def test_linear_mode_instability_reported(self):
        drive = DriveConfig(squeeze_gain=1.0, squeeze_phase=0.0, squeeze_enabled=True)
        with pytest.raises(InstabilityError):
            integrate_langevin(TRAP, BEAMS, drive, DAMPED, 10 * PERIOD)

    def test_deterministic_given_seed(self):
        _, za, va = integrate_langevin(TRAP, BEAMS, IDLE, THERMAL, 20 * PERIOD, seed=7)
        _, zb, vb = integrate_langevin(TRAP, BEAMS, IDLE, THERMAL, 20 * PERIOD, seed=7)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(va, vb)

    def test_driven_mean_matches_quadrature_prediction(self):
        # The resonant response lags the drive by 90 degrees, which the
        # orthogonal projection reports as -Y; the envelope model displaces
        # +Y by convention.  Magnitudes must agree.
        drive = DriveConfig(injection_voltage=18.25e-3)
        times, z, _ = integrate_langevin(
            TRAP, BEAMS, drive, NoiseModel(temperature=0.0), 400 * PERIOD, seed=3
        )
        quad = demodulate(times, z[:, 0], TRAP.secular_z, 20 * PERIOD)
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
        times, zs, vs = integrate_langevin(
            TRAP, BEAMS, drive, THERMAL, 800 * PERIOD, seed=11, n_trajectories=256
        )
        del vs
        target_var = thermal_quadrature_variance(drive, THERMAL)
        target_mean = stationary_mean_displacement(TRAP, drive, THERMAL)
        burn = len(times) // 4
        quad = demodulate(times, zs, TRAP.secular_z, 20 * PERIOD)
        del zs
        sel = quad.times > times[burn]
        xs = quad.x[sel]
        ys = quad.y[sel]
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
        quad = demodulate(times, z, TRAP.secular_z, 10 * PERIOD)
        assert np.max(np.abs(quad.x - 1e-6)) < 1e-9
        assert np.max(np.abs(quad.y)) < 1e-9

    def test_phase_offset_recovered(self):
        times = np.arange(0, 40 * PERIOD, PERIOD / 256)
        z = 21.677e-6 * np.sin(TRAP.secular_z * times + 0.028)
        quad = demodulate(times, z, TRAP.secular_z, 10 * PERIOD)
        assert np.mean(quad.phase) == pytest.approx(0.028, abs=0.001)
        # Several trajectories z[step, k] demodulate column by column,
        # bit for bit as one trajectory at a time.
        stack = np.column_stack([z, 0.5 * z, np.cos(TRAP.secular_z * times)])
        both = demodulate(times, stack, TRAP.secular_z, 10 * PERIOD)
        singles = [demodulate(times, col, TRAP.secular_z, 10 * PERIOD) for col in stack.T]
        np.testing.assert_array_equal(both.times, quad.times)
        np.testing.assert_array_equal(both.x, np.column_stack([q.x for q in singles]))
        np.testing.assert_array_equal(both.y, np.column_stack([q.y for q in singles]))

    def test_white_noise_gives_balanced_zero_mean_quadratures(self):
        rng = np.random.default_rng(17)
        times = np.arange(0, 30 * PERIOD, PERIOD / 64)
        x_means, y_means, x_vars, y_vars = [], [], [], []
        for _ in range(100):
            z = rng.normal(0.0, 1e-6, len(times))
            quad = demodulate(times, z, TRAP.secular_z, 10 * PERIOD)
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
        with pytest.raises(ValueError):
            demodulate(times, np.zeros_like(times), TRAP.secular_z, 0.5 * PERIOD)


class TestDetectLock:
    def test_noiseless_driven_state_locked(self):
        drive = DriveConfig(injection_voltage=18.25e-3)
        path = integrate_quadratures(
            TRAP, drive, NoiseModel(temperature=0.0), 4000 * PERIOD, seed=1
        )
        assert detect_lock(path.times, path.phase[:, None]).tolist() == [True]
        assert circular_std(path.phase[len(path) // 2 :]) < 1e-6

    def test_undriven_thermal_phase_diffuses(self):
        path = integrate_quadratures(
            TRAP, IDLE, THERMAL, 8000 * PERIOD, seed=2, stationary_start=True
        )
        assert detect_lock(path.times, path.phase[:, None]).tolist() == [False]
        assert circular_std(path.phase[len(path) // 2 :]) > 1.0

    def test_operating_voltage_locks_nearly_always(self):
        # 100 phase-model trials with the full noise budget.
        drive = DriveConfig(injection_voltage=18.25e-3)
        (spreads,) = _locked_phase_spreads(
            TRAP,
            [drive],
            THERMAL,
            2.0,
            None,
            [21],
            ElectricNoise(),
            17.839e-6,
            100,
        )
        assert spreads.shape == (100,)
        assert np.count_nonzero(spreads < DEFAULT_LOCK_THRESHOLD) >= 99

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            detect_lock(np.array([]), np.empty((0, 1)))

    def test_window_longer_than_path_rejected(self):
        path = integrate_quadratures(TRAP, IDLE, THERMAL, 100 * PERIOD, seed=3)
        with pytest.raises(ValueError):
            detect_lock(path.times, path.phase[:, None], window=2 * path.times[-1])


OPERATING_AMPLITUDE = 17.839e-6


def oracle_phase(drive, seed, n_steps, dt, electric_noise, n_trials):
    """The locked-phase model one step and one trial at a time.

    Same generator and draw order as the engine: the initial electrode
    force of every trial, then per step the diffusion kicks of all trials
    followed by their electrode kicks.  Returns ``(times, psi[step, trial])``.
    """
    rng = np.random.default_rng(seed)
    torque_scale = 2.0 * THERMAL.mass * TRAP.secular_z * OPERATING_AMPLITUDE
    lock_rate = drive.force / torque_scale
    ratio = squeeze_variance_ratio(drive.effective_gain, drive.squeeze_phase)
    diffusion = ratio * THERMAL.force_spectral_density() / (2.0 * torque_scale**2)
    kick_scale = math.sqrt(2.0 * diffusion * dt)
    if electric_noise is not None:
        force_rms = electric_noise.rms_voltage * drive.force_per_volt
        sigma_perp = force_rms / math.sqrt(2.0) * math.sqrt(ratio)
        decay = math.exp(-dt / electric_noise.correlation_time)
        ou_kick = sigma_perp * math.sqrt(1.0 - decay * decay)
        force = list(rng.normal(0.0, sigma_perp, n_trials))
    else:
        force = [0.0] * n_trials
    psi = np.zeros((n_steps + 1, n_trials))
    for i in range(n_steps):
        diffusion_kicks = rng.normal(0.0, 1.0, n_trials)
        if electric_noise is not None:
            electrode_kicks = rng.normal(0.0, 1.0, n_trials)
        for j in range(n_trials):
            drift = -lock_rate * math.sin(psi[i, j]) + force[j] / torque_scale
            psi[i + 1, j] = psi[i, j] + drift * dt + kick_scale * diffusion_kicks[j]
            if electric_noise is not None:
                force[j] = decay * force[j] + ou_kick * electrode_kicks[j]
    return np.arange(n_steps + 1) * dt, psi


SQUEEZED = dict(squeeze_gain=1.0, squeeze_phase=math.pi / 2, squeeze_enabled=True)
ORACLE_DRIVES = (
    DriveConfig(injection_voltage=0.3e-3),
    DriveConfig(injection_voltage=0.6e-3),
    DriveConfig(injection_voltage=0.4e-3, **SQUEEZED),
)
ORACLE_SEEDS = (5, 6, 7)


class TestLockedPhaseEngine:
    @pytest.mark.parametrize(
        "n_steps, electric_noise",
        [
            # Not a whole number of chunks; the window starts at step 617,
            # inside the second chunk.
            (1234, ElectricNoise()),
            # Shorter than one chunk.
            (321, ElectricNoise()),
            # The window starts exactly at a chunk edge.
            (2 * PHASE_CHUNK, ElectricNoise()),
            # No electrode noise: one draw per step.
            (1234, None),
        ],
    )
    def test_matches_per_step_oracle(self, n_steps, electric_noise):
        dt = 2e-4
        spreads = _locked_phase_spreads(
            TRAP,
            ORACLE_DRIVES,
            THERMAL,
            n_steps * dt,
            dt,
            ORACLE_SEEDS,
            electric_noise,
            OPERATING_AMPLITUDE,
            3,
        )
        assert spreads.shape == (3, 3)
        for k, (drive, seed) in enumerate(zip(ORACLE_DRIVES, ORACLE_SEEDS)):
            times, psi = oracle_phase(drive, seed, n_steps, dt, electric_noise, 3)
            assert len(times) == n_steps + 1
            window = psi[times >= times[-1] / 2]
            expected = np.array([circular_std(window[:, j]) for j in range(3)])
            np.testing.assert_allclose(spreads[k], expected, rtol=1e-12)
            verdict = spreads[k] < DEFAULT_LOCK_THRESHOLD
            assert verdict.tolist() == (expected < DEFAULT_LOCK_THRESHOLD).tolist()
            assert verdict.tolist() == detect_lock(times, psi).tolist()

    def test_spreads_independent_of_stacking(self):
        args = (THERMAL, 0.25, 2e-4)
        tail = (ElectricNoise(), OPERATING_AMPLITUDE, 4)
        together = _locked_phase_spreads(TRAP, ORACLE_DRIVES, *args, ORACLE_SEEDS, *tail)
        for k, (drive, seed) in enumerate(zip(ORACLE_DRIVES, ORACLE_SEEDS)):
            (alone,) = _locked_phase_spreads(TRAP, [drive], *args, [seed], *tail)
            np.testing.assert_array_equal(together[k], alone)

    def test_one_seed_per_drive_required(self):
        with pytest.raises(ValueError):
            _locked_phase_spreads(
                TRAP, ORACLE_DRIVES, THERMAL, 0.1, 2e-4, [1], None, OPERATING_AMPLITUDE, 2
            )


class TestLockedPhaseModel:
    def test_squeeze_halves_locked_phase_variance(self):
        drive_off = DriveConfig(injection_voltage=2e-3)
        drive_on = DriveConfig(injection_voltage=2e-3, **SQUEEZED)
        spreads = _locked_phase_spreads(
            TRAP, [drive_off, drive_on], THERMAL, 2.0, 1e-4, [31, 31], None, 17.839e-6, 64
        )
        off, on = np.mean(spreads**2, axis=1)
        assert on / off == pytest.approx(0.5, abs=0.08)

    def test_undriven_phase_diffuses_uniformly(self):
        (spreads,) = _locked_phase_spreads(
            TRAP, [IDLE], THERMAL, 10.0, None, [4], ElectricNoise(), DEFAULT_FREE_RUNNING_AMPLITUDE, 1
        )
        assert (spreads < DEFAULT_LOCK_THRESHOLD).tolist() == [False]

    def test_deterministic(self):
        drive = DriveConfig(injection_voltage=1e-3)
        args = (TRAP, [drive], THERMAL, 1.0, None, [9], None, DEFAULT_FREE_RUNNING_AMPLITUDE, 1)
        np.testing.assert_array_equal(_locked_phase_spreads(*args), _locked_phase_spreads(*args))


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
            times, z, _ = integrate_langevin(
                TRAP,
                BEAMS,
                drive,
                noise0,
                300 * PERIOD,
                seed=1,
                initial_position=z0,
                initial_velocity=v0,
            )
            quad = demodulate(times, z[:, 0], TRAP.secular_z, 10 * PERIOD)
            sel = slice(len(quad) // 6, len(quad) // 2)
            slope = np.polyfit(quad.times[sel], np.log(quad.amplitude[sel]), 1)[0]
            expected = 0.5 * zeta * (1 + sign * (g / 2) * math.cos(2 * phi))
            assert -slope == pytest.approx(expected, rel=0.02), component


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
