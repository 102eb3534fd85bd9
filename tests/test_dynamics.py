import math

import numpy as np
import pytest

from phonon_sensor import dynamics
from phonon_sensor.config import ExperimentConfig
from phonon_sensor.constants import BOLTZMANN, DEFAULT_FREE_RUNNING_AMPLITUDE, TWO_PI
from phonon_sensor.dynamics import (
    ElectricNoise,
    NoiseModel,
    PHASE_CHUNK,
    _ar1_scan,
    _ar1_tables,
    _locked_phase_spreads,
    envelope_paths,
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

from oracles import circular_std, demodulate, integrate_langevin

TRAP = TrapConfig()
BEAMS = default_beams()
PERIOD = TWO_PI / TRAP.secular_z
COLD = NoiseModel(temperature=0.0, damping=0.0)
DAMPED = NoiseModel(temperature=0.0)
THERMAL = NoiseModel()
IDLE = DriveConfig()
NO_ELECTRODE = ElectricNoise(rms_voltage=0.0)
LOCK_THRESHOLD = ExperimentConfig().lock_threshold


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
        centers, quad = demodulate(times, z[:, 0], TRAP.secular_z, 10 * PERIOD)
        expected = 1e-6 * np.exp(-zeta * centers / 2)
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
        _, quad = demodulate(times, z[:, 0], TRAP.secular_z, 10 * PERIOD)
        tail = quad.amplitude[-len(quad.x) // 4 :]
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
        _, quad = demodulate(times, z[:, 0], TRAP.secular_z, 20 * PERIOD)
        tail = slice(-len(quad.x) // 4, None)
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
        target_var = thermal_quadrature_variance(TRAP, drive, THERMAL)
        target_mean = stationary_mean_displacement(TRAP, drive, THERMAL)
        burn = len(times) // 4
        # Demodulate 32 trajectories at a time, which keeps only the
        # selected rows of X and Y; columns demodulate independently, so
        # the reassembled arrays equal those of one call on all of zs.
        xs, ys = [], []
        for k in range(0, zs.shape[1], 32):
            centers, quad = demodulate(times, zs[:, k : k + 32], TRAP.secular_z, 20 * PERIOD)
            sel = centers > times[burn]
            xs.append(quad.x[sel])
            ys.append(quad.y[sel])
        del zs, quad
        xs = np.concatenate(xs, axis=1)
        ys = np.concatenate(ys, axis=1)
        # Envelope-model magnitude; the demodulated response sits at -Y.
        assert np.mean(ys) == pytest.approx(-target_mean, rel=0.02)
        assert np.var(xs) == pytest.approx(target_var, rel=0.05)
        assert np.var(ys) == pytest.approx(target_var, rel=0.05)


def oracle_quadratures(drive, noise, n_periods, seed, start=None):
    """The envelope equations one injection period at a time.

    Same generator and draw order as the integrator: x0 and y0 when the
    start is stationary (``start=None``), then every x-kick, then every
    y-kick.  Returns ``(x, y)`` of length ``n_periods + 1``.
    """
    rng = np.random.default_rng(seed)
    dt = TWO_PI / drive.injection_frequency
    denom = 2.0 * TRAP.mass * TRAP.secular_z
    diffusion = noise.force_spectral_density(TRAP.mass) / denom**2
    modulation = drive.effective_gain * math.cos(2.0 * drive.squeeze_phase)
    lam_x = 0.5 * noise.damping * (1.0 + modulation)
    lam_y = 0.5 * noise.damping * (1.0 - modulation)
    mean_y = drive.force / (denom * lam_y)
    if start is None:
        x0 = rng.normal(0.0, math.sqrt(diffusion / (2.0 * lam_x)))
        y0 = rng.normal(mean_y, math.sqrt(diffusion / (2.0 * lam_y)))
    else:
        x0, y0 = start

    def walk(u0, lam):
        if lam > 0:
            decay = math.exp(-lam * dt)
            sd = math.sqrt(diffusion * (1.0 - decay * decay) / (2.0 * lam))
        else:
            decay, sd = 1.0, math.sqrt(diffusion * dt)
        u = [u0]
        for _ in range(n_periods):
            u.append(decay * u[-1] + sd * rng.normal())
        return np.array(u)

    x = walk(x0, lam_x)
    # The displaced quadrature relaxes toward its mean.
    y = mean_y + walk(y0 - mean_y, lam_y)
    return x, y


class TestQuadratures:
    def test_decay_without_forcing(self):
        noise = NoiseModel(temperature=0.0)
        path = envelope_paths(
            TRAP, IDLE, noise, 2000 * PERIOD, [1], initial_x=1e-6, initial_y=-2e-6
        )
        assert abs(path.x[0, -1]) < 1e-9
        assert abs(path.y[0, -1]) < 1e-9

    def test_thermal_variance_matches_formula(self):
        # Stationary var(X), var(Y) -> k_B T / (2 m w^2) within 5%.
        target = thermal_quadrature_variance(TRAP, IDLE, THERMAL)
        xs, ys = [], []
        for seed in range(20):
            path = envelope_paths(
                TRAP, IDLE, THERMAL, 10000 * PERIOD, [seed], stationary_start=True
            )
            xs.append(path.x[0])
            ys.append(path.y[0])
        var_x = np.var(np.concatenate(xs))
        var_y = np.var(np.concatenate(ys))
        assert var_x == pytest.approx(target, rel=0.05)
        assert var_y == pytest.approx(target, rel=0.05)

    def test_squeezed_variance_ratio(self):
        # g = 0.9, phi = pi/2: var(Y)/var0 = 1/1.9 within 0.05.
        drive = DriveConfig(
            squeeze_gain=0.9, squeeze_phase=math.pi / 2, squeeze_enabled=True
        )
        target = thermal_quadrature_variance(TRAP, drive, THERMAL)
        ys = [
            envelope_paths(
                TRAP, drive, THERMAL, 10000 * PERIOD, [seed], stationary_start=True
            ).y[0]
            for seed in range(12)
        ]
        ratio = np.var(np.concatenate(ys)) / target
        assert ratio == pytest.approx(1 / 1.9, abs=0.05)

    def test_displaced_mean_linear_in_force(self):
        voltages = [4e-3, 9e-3, 16e-3]
        means = []
        for i, voltage in enumerate(voltages):
            drive = DriveConfig(injection_voltage=voltage)
            path = envelope_paths(
                TRAP, drive, THERMAL, 8000 * PERIOD, [30 + i], stationary_start=True
            )
            means.append(np.mean(path.y[0]))
        forces = np.array(voltages) * IDLE.force_per_volt
        coeffs = np.polyfit(forces, means, 1)
        predicted = np.polyval(coeffs, forces)
        ss_res = np.sum((np.array(means) - predicted) ** 2)
        ss_tot = np.sum((means - np.mean(means)) ** 2)
        assert 1 - ss_res / ss_tot > 0.999
        assert coeffs[0] == pytest.approx(
            1 / (TRAP.mass * THERMAL.damping * TRAP.secular_z), rel=0.02
        )

    def test_instability_raises_both_sides(self):
        unstable_y = DriveConfig(squeeze_gain=1.0, squeeze_phase=0.0, squeeze_enabled=True)
        with pytest.raises(InstabilityError):
            envelope_paths(TRAP, unstable_y, THERMAL, 100 * PERIOD, [0])
        # g cos 2phi = -1 leaves the displaced quadrature stable; the
        # marginal in-phase quadrature random-walks but the run completes.
        marginal = DriveConfig(
            squeeze_gain=1.0, squeeze_phase=math.pi / 2, squeeze_enabled=True
        )
        path = envelope_paths(TRAP, marginal, THERMAL, 1000 * PERIOD, [2])
        assert np.all(np.isfinite(path.x))
        with pytest.raises(InstabilityError):
            envelope_paths(TRAP, marginal, THERMAL, 100 * PERIOD, [0], stationary_start=True)

    @pytest.mark.parametrize(
        "drive, start",
        [
            (DriveConfig(injection_voltage=5e-3), None),
            (
                DriveConfig(
                    injection_voltage=1e-3,
                    squeeze_gain=0.5,
                    squeeze_phase=0.3,
                    squeeze_enabled=True,
                ),
                (2e-8, -1e-8),
            ),
            # g cos 2phi = -1: the in-phase quadrature is a random walk.
            (
                DriveConfig(
                    squeeze_gain=1.0, squeeze_phase=math.pi / 2, squeeze_enabled=True
                ),
                (3e-9, 0.0),
            ),
        ],
        ids=["stationary", "given-start", "marginal"],
    )
    def test_matches_per_period_oracle(self, drive, start):
        n_periods = 1500
        if start is None:
            kwargs = {"stationary_start": True}
        else:
            kwargs = {"initial_x": start[0], "initial_y": start[1]}
        path = envelope_paths(TRAP, drive, THERMAL, n_periods * PERIOD, [8], **kwargs)
        x, y = oracle_quadratures(drive, THERMAL, n_periods, 8, start)
        # The integrator sums the kicks in another order than the oracle's
        # recursion, so elements near a zero crossing differ in relative
        # terms; the paths agree to rounding on the scale of the path.
        for got, want in ((path.x[0], x), (path.y[0], y)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_deterministic(self):
        a = envelope_paths(TRAP, IDLE, THERMAL, 500 * PERIOD, [5])
        b = envelope_paths(TRAP, IDLE, THERMAL, 500 * PERIOD, [5])
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


    @pytest.mark.parametrize("kwargs", [{"stationary_start": True}, {"initial_x": 1e-9}])
    def test_batched_rows_equal_single_paths(self, kwargs):
        squeezed = DriveConfig(squeeze_gain=0.6, squeeze_phase=0.3, squeeze_enabled=True)
        batch = envelope_paths(TRAP, squeezed, THERMAL, 300 * PERIOD, [5, 6, 7], **kwargs)
        assert batch.x.shape == batch.y.shape == (3, 301)
        for row, seed in enumerate((5, 6, 7)):
            path = envelope_paths(TRAP, squeezed, THERMAL, 300 * PERIOD, [seed], **kwargs)
            assert path.x.shape == path.y.shape == (1, 301)
            np.testing.assert_array_equal(batch.x[row], path.x[0])
            np.testing.assert_array_equal(batch.y[row], path.y[0])


class TestAr1Scan:
    """The envelope's AR(1) scan against scipy's IIR filter on the same
    input, a start value and scaled kicks, over a row of 10 001 elements:
    one block up to rate_dt = 0.03, and above it blocks that leave a
    shorter last block, but at 1000, where a block is one element."""

    N = 10001
    SCALE = 1e-9

    @staticmethod
    def kicks(n):
        kicks = np.random.default_rng(3).standard_normal(n)
        kicks[0] = 4e-8
        return kicks

    def filtered(self, kicks, rate_dt):
        from scipy.signal import lfilter

        scaled = np.concatenate([kicks[:1], self.SCALE * kicks[1:]])
        return lfilter([1.0], [1.0, -math.exp(-rate_dt)], scaled)

    @pytest.mark.parametrize("rate_dt", [0.0, 1e-3, 0.035, 0.07, 0.5, 50.0, 1000.0])
    def test_matches_lfilter(self, rate_dt):
        kicks = self.kicks(self.N)
        want = self.filtered(kicks, rate_dt)
        got = np.empty(self.N)
        _ar1_scan(kicks, got, _ar1_tables(rate_dt, self.N, self.SCALE))
        if rate_dt == 0.0:
            # A random walk is one plain cumsum, the filter's own order.
            np.testing.assert_array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_short_blocks_cost_about_a_filter_call(self):
        # At rate_dt = 50 a block is 6 elements: 1666 blocks and a tail of 5.
        import timeit

        kicks, out = self.kicks(self.N), np.empty(self.N)
        tables = _ar1_tables(50.0, self.N, self.SCALE)
        assert tables[2] == 6
        scan = min(
            timeit.repeat(lambda: _ar1_scan(kicks.copy(), out, tables), number=50, repeat=7)
        )
        iir = min(timeit.repeat(lambda: self.filtered(kicks, 50.0), number=50, repeat=7))
        assert scan <= 2.0 * iir


class TestDemodulate:
    def test_pure_sine_recovered_exactly(self):
        times = np.arange(0, 40 * PERIOD, PERIOD / 256)
        z = 1e-6 * np.sin(TRAP.secular_z * times)
        _, quad = demodulate(times, z, TRAP.secular_z, 10 * PERIOD)
        assert np.max(np.abs(quad.x - 1e-6)) < 1e-9
        assert np.max(np.abs(quad.y)) < 1e-9

    def test_phase_offset_recovered(self):
        times = np.arange(0, 40 * PERIOD, PERIOD / 256)
        z = 21.677e-6 * np.sin(TRAP.secular_z * times + 0.028)
        centers, quad = demodulate(times, z, TRAP.secular_z, 10 * PERIOD)
        assert np.mean(quad.phase) == pytest.approx(0.028, abs=0.001)
        # Several trajectories z[step, k] demodulate column by column,
        # bit for bit as one trajectory at a time.
        stack = np.column_stack([z, 0.5 * z, np.cos(TRAP.secular_z * times)])
        both_centers, both = demodulate(times, stack, TRAP.secular_z, 10 * PERIOD)
        singles = [demodulate(times, col, TRAP.secular_z, 10 * PERIOD)[1] for col in stack.T]
        np.testing.assert_array_equal(both_centers, centers)
        np.testing.assert_array_equal(both.x, np.column_stack([q.x for q in singles]))
        np.testing.assert_array_equal(both.y, np.column_stack([q.y for q in singles]))

    def test_white_noise_gives_balanced_zero_mean_quadratures(self):
        rng = np.random.default_rng(17)
        times = np.arange(0, 30 * PERIOD, PERIOD / 64)
        x_means, y_means, x_vars, y_vars = [], [], [], []
        for _ in range(100):
            z = rng.normal(0.0, 1e-6, len(times))
            _, quad = demodulate(times, z, TRAP.secular_z, 10 * PERIOD)
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
        path = envelope_paths(TRAP, drive, NoiseModel(temperature=0.0), 4000 * PERIOD, [1])
        phase = path.phase[0]
        assert circular_std(phase[len(phase) // 2 :]) < 1e-6

    def test_undriven_thermal_phase_diffuses(self):
        path = envelope_paths(TRAP, IDLE, THERMAL, 8000 * PERIOD, [2], stationary_start=True)
        phase = path.phase[0]
        assert circular_std(phase[len(phase) // 2 :]) > 1.0

    def test_operating_voltage_locks_nearly_always(self):
        # 100 phase-model trials with the full noise budget.
        drive = DriveConfig(injection_voltage=18.25e-3)
        (spreads,) = _locked_phase_spreads(
            TRAP,
            [drive],
            THERMAL,
            2.0,
            2.09165e-5,  # 0.05 / w_L at 18.25 mV
            [21],
            ElectricNoise(),
            17.839e-6,
            100,
        )
        assert spreads.shape == (100,)
        assert np.count_nonzero(spreads < LOCK_THRESHOLD) >= 99


OPERATING_AMPLITUDE = 17.839e-6


def oracle_phase(drive, seed, n_steps, dt, electric_noise, n_trials):
    """The locked-phase model one step and one trial at a time.

    Same generator and draw order as the engine: the initial electrode
    force of every trial, then per step the diffusion kicks of all trials
    followed by their electrode kicks; no electrode draws at zero noise.
    Returns ``(times, psi[step, trial])``.
    """
    rng = np.random.default_rng(seed)
    electrode = electric_noise.rms_voltage > 0
    torque_scale = 2.0 * TRAP.mass * TRAP.secular_z * OPERATING_AMPLITUDE
    lock_rate = drive.force / torque_scale
    ratio = squeeze_variance_ratio(drive.effective_gain, drive.squeeze_phase)
    diffusion = ratio * THERMAL.force_spectral_density(TRAP.mass) / (2.0 * torque_scale**2)
    kick_scale = math.sqrt(2.0 * diffusion * dt)
    if electrode:
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
        if electrode:
            electrode_kicks = rng.normal(0.0, 1.0, n_trials)
        for j in range(n_trials):
            drift = -lock_rate * math.sin(psi[i, j]) + force[j] / torque_scale
            psi[i + 1, j] = psi[i, j] + drift * dt + kick_scale * diffusion_kicks[j]
            if electrode:
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
            pytest.param(1234, NO_ELECTRODE, id="1234-None"),
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
            verdict = spreads[k] < LOCK_THRESHOLD
            assert verdict.tolist() == (expected < LOCK_THRESHOLD).tolist()

    def test_spreads_independent_of_stacking(self):
        args = (THERMAL, 0.25, 2e-4)
        tail = (ElectricNoise(), OPERATING_AMPLITUDE, 4)
        together = _locked_phase_spreads(TRAP, ORACLE_DRIVES, *args, ORACLE_SEEDS, *tail)
        for k, (drive, seed) in enumerate(zip(ORACLE_DRIVES, ORACLE_SEEDS)):
            (alone,) = _locked_phase_spreads(TRAP, [drive], *args, [seed], *tail)
            np.testing.assert_array_equal(together[k], alone)

    @pytest.mark.parametrize("electric_noise", [ElectricNoise(), NO_ELECTRODE], ids=["electrode", "thermal"])
    def test_spreads_independent_of_chunk_size(self, monkeypatch, electric_noise):
        # sin(psi), psi and the electrode force carry across chunk edges.
        args = (TRAP, ORACLE_DRIVES, THERMAL, 1234 * 2e-4, 2e-4, ORACLE_SEEDS)
        tail = (electric_noise, OPERATING_AMPLITUDE, 3)
        default = _locked_phase_spreads(*args, *tail)
        for chunk in (1, 7, 333):
            monkeypatch.setattr(dynamics, "PHASE_CHUNK", chunk)
            spreads = _locked_phase_spreads(*args, *tail)
            np.testing.assert_allclose(spreads, default, rtol=1e-12)
            verdict = spreads < LOCK_THRESHOLD
            assert verdict.tolist() == (default < LOCK_THRESHOLD).tolist()

    def test_one_seed_per_drive_required(self):
        with pytest.raises(ValueError):
            _locked_phase_spreads(
                TRAP, ORACLE_DRIVES, THERMAL, 0.1, 2e-4, [1], NO_ELECTRODE, OPERATING_AMPLITUDE, 2
            )


class TestLockedPhaseModel:
    def test_squeeze_halves_locked_phase_variance(self):
        drive_off = DriveConfig(injection_voltage=2e-3)
        drive_on = DriveConfig(injection_voltage=2e-3, **SQUEEZED)
        spreads = _locked_phase_spreads(
            TRAP, [drive_off, drive_on], THERMAL, 2.0, 1e-4, [31, 31], NO_ELECTRODE, 17.839e-6, 64
        )
        off, on = np.mean(spreads**2, axis=1)
        assert on / off == pytest.approx(0.5, abs=0.08)

    def test_undriven_phase_diffuses_uniformly(self):
        (spreads,) = _locked_phase_spreads(
            TRAP, [IDLE], THERMAL, 10.0, 1e-4, [4], ElectricNoise(), DEFAULT_FREE_RUNNING_AMPLITUDE, 1
        )
        assert (spreads < LOCK_THRESHOLD).tolist() == [False]

    def test_deterministic(self):
        drive = DriveConfig(injection_voltage=1e-3)
        args = (TRAP, [drive], THERMAL, 1.0, 1e-4, [9], NO_ELECTRODE, DEFAULT_FREE_RUNNING_AMPLITUDE, 1)
        np.testing.assert_array_equal(_locked_phase_spreads(*args), _locked_phase_spreads(*args))


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
            centers, quad = demodulate(times, z[:, 0], TRAP.secular_z, 10 * PERIOD)
            sel = slice(len(centers) // 6, len(centers) // 2)
            slope = np.polyfit(centers[sel], np.log(quad.amplitude[sel]), 1)[0]
            expected = 0.5 * zeta * (1 + sign * (g / 2) * math.cos(2 * phi))
            assert -slope == pytest.approx(expected, rel=0.02), component


class TestTypes:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(temperature=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(damping=-1.0)
        with pytest.raises(ValueError):  # envelope model needs damping
            envelope_paths(TRAP, IDLE, NoiseModel(temperature=0.0, damping=0.0), 100 * PERIOD, [0])
        spectral = THERMAL.force_spectral_density(TRAP.mass)
        assert spectral == pytest.approx(
            2 * TRAP.mass * THERMAL.damping * BOLTZMANN * THERMAL.temperature
        )

    def test_circular_std_extremes(self):
        assert circular_std(np.zeros(100)) == 0.0
        rng = np.random.default_rng(0)
        assert circular_std(rng.uniform(-math.pi, math.pi, 20000)) > 2.0
