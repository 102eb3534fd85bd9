"""Independent references the twin is checked against; no campaign runs them.

The full Langevin equation (:func:`integrate_langevin`), demodulated into
quadratures, checks the envelope model, and :func:`circular_std` the
locked-phase spreads.  The per-photon path (thinning, timing jitter,
folding) checks the binned photon law, and scipy's trust-region solver
(:func:`least_squares_fit`) the package's own fit loop.  The template
correlation on ``scipy.fft`` (:func:`scipy_circular_correlation`) checks
the fit's numpy FFTs.  The rate and its amplitude derivative on a time
grid (:func:`direct_scattering_rate`) check the rate's cosine series, and
the rate convolved with the wrapped normal by quadrature
(:func:`wrapped_gaussian_bin_means`) the series' jitter factors.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from phonon_sensor.constants import TWO_PI
from phonon_sensor.dynamics import NoiseModel, QuadraturePath, _spread, _squeeze_modulation
from phonon_sensor.fitting import (
    DEFAULT_FROZEN,
    PARAM_NAMES,
    FitModelParams,
    FitResult,
    NoModulationError,
    _deviance_residuals,
    _fit_bounds,
    _is_flat,
    check_start,
    model_curve,
    wrap_phase,
)
from phonon_sensor.photons import TacHistogram, expected_bin_count
from phonon_sensor.physics import (
    DriveConfig,
    InstabilityError,
    TrapConfig,
    total_radiation_pressure_force,
)

MIN_STEPS_PER_PERIOD = 50
DEFAULT_STEPS_PER_PERIOD = 200


def integrate_langevin(
    trap: TrapConfig,
    beams,
    drive: DriveConfig,
    noise: NoiseModel,
    duration: float,
    dt: float | None = None,
    seed: int = 0,
    nonlinear: bool = False,
    initial_position: float = 0.0,
    initial_velocity: float = 0.0,
    n_trajectories: int = 1,
):
    """Integrate the driven, damped, parametrically modulated oscillator.

    Linear mode uses the constant friction rate of ``noise``; the nonlinear
    mode replaces it with the saturable radiation-pressure force of the beam
    pair, which self-amplifies small motion into a stable limit cycle.
    Steps ``n_trajectories`` independent runs together and returns
    ``(times, z[step, traj], v[step, traj])``.  Deterministic for a given
    seed.
    """
    omega_i = drive.injection_frequency
    period = TWO_PI / trap.secular_z
    if dt is None:
        dt = period / DEFAULT_STEPS_PER_PERIOD
    if dt > period / MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"dt = {dt:.3e} s too coarse; need <= {period / MIN_STEPS_PER_PERIOD:.3e} s"
        )
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if not nonlinear and _squeeze_modulation(drive) >= 1.0:
        raise InstabilityError(
            "g cos(2 phi) >= 1: parametric drive exceeds the linear damping"
        )

    rng = np.random.default_rng(seed)
    n_steps = int(round(duration / dt))
    mass = trap.mass
    zeta = noise.damping
    wz2 = trap.secular_z**2
    par_coeff = drive.effective_gain * zeta * trap.secular_z
    two_phi = 2.0 * drive.squeeze_phase
    force_amp = drive.force

    # Slow thermal quadrature forces, refreshed once per oscillation period.
    refresh = max(1, int(round(period / dt)))
    sigma_f = math.sqrt(noise.force_spectral_density(mass) / (refresh * dt))

    beams = tuple(beams)

    def accel(z, v, t, fx, fy):
        a = -(wz2 + par_coeff * math.sin(2.0 * omega_i * t + two_phi)) * z
        if nonlinear:
            a = a + total_radiation_pressure_force(beams, v) / mass
        else:
            a = a - zeta * v
        thermal = fx * math.cos(omega_i * t) + fy * math.sin(omega_i * t)
        return a + (force_amp * math.sin(omega_i * t) + thermal) / mass

    shape = (n_trajectories,)
    z = np.full(shape, initial_position, dtype=float)
    v = np.full(shape, initial_velocity, dtype=float)
    fx = np.zeros(shape)
    fy = np.zeros(shape)

    times = np.arange(n_steps + 1) * dt
    zs = np.empty((n_steps + 1, n_trajectories))
    vs = np.empty((n_steps + 1, n_trajectories))
    zs[0], vs[0] = z, v

    for i in range(n_steps):
        t = i * dt
        if i % refresh == 0 and sigma_f > 0:
            fx = rng.normal(0.0, sigma_f, shape)
            fy = rng.normal(0.0, sigma_f, shape)
        a1 = accel(z, v, t, fx, fy)
        z_new = z + v * dt + 0.5 * a1 * dt * dt
        v_pred = v + a1 * dt
        a2 = accel(z_new, v_pred, t + dt, fx, fy)
        v = v + 0.5 * (a1 + a2) * dt
        z = z_new
        zs[i + 1], vs[i + 1] = z, v

    return times, zs, vs


def demodulate(
    times: np.ndarray, positions: np.ndarray, omega_i: float, window: float
) -> tuple[np.ndarray, QuadraturePath]:
    """Sliding in-phase/quadrature projection of positions along axis 0.

    X(t) = (2/w) integral of z sin(w_i s) ds over the window centered on t,
    and likewise with cos for Y.  The window is rounded to an integer number
    of oscillation periods, which makes the projection exact for a pure
    sinusoid.  ``positions`` may be one trajectory ``z[step]`` or several
    ``z[step, traj]``; X and Y then have the same trailing axes.  Returns
    ``(centers, path)``, the window center times and the projections.
    """
    period = TWO_PI / omega_i
    if window < period:
        raise ValueError("window must cover at least one oscillation period")
    if len(times) < 2:
        raise ValueError("trajectory too short")
    dt = float(times[1] - times[0])
    n_window = int(round(round(window / period) * period / dt))
    if n_window >= len(times):
        raise ValueError("window longer than trajectory")

    z = np.asarray(positions)
    angle = np.reshape(omega_i * times, (-1,) + (1,) * (z.ndim - 1))
    width = n_window * dt

    def project(reference):
        # Trapezoid cumulative integral, then window sums by difference.
        f = z * reference
        cum = np.cumsum(0.5 * (f[1:] + f[:-1]) * dt, axis=0)
        del f  # one array fewer alive while the window sums are formed
        out = cum[n_window - 1 :].copy()
        out[1:] -= cum[:-n_window]
        out *= 2.0 / width
        return out

    x = project(np.sin(angle))
    y = project(np.cos(angle))
    centers = 0.5 * (times[n_window:] + times[:-n_window])
    return centers, QuadraturePath(x, y)


def circular_std(phases: np.ndarray) -> float:
    """Circular standard deviation sqrt(-2 ln R) of a phase sample."""
    if len(phases) == 0:
        raise ValueError("empty phase sample")
    return float(_spread(np.exp(1j * np.asarray(phases)).sum(), len(phases)))


def sample_arrivals(
    rate_fn, gate_time: float, rate_max: float, seed: int | None = None
) -> np.ndarray:
    """Sorted arrival times of an inhomogeneous Poisson process, by thinning.

    ``rate_fn`` maps time (array) to a rate in photons/s and must be bounded
    by ``rate_max``.  Candidates are proposed uniformly at the bound rate
    and accepted with probability rate/bound.
    """
    if gate_time <= 0:
        raise ValueError("gate_time must be > 0")
    if not np.isfinite(rate_max) or rate_max < 0:
        raise ValueError(f"rate bound must be finite and >= 0, got {rate_max}")
    if rate_max == 0.0:
        return np.empty(0)

    rng = np.random.default_rng(seed)
    n_candidates = rng.poisson(rate_max * gate_time)
    t_cand = rng.uniform(0.0, gate_time, n_candidates)
    rates = np.asarray(rate_fn(t_cand))
    if np.any(rates < 0):
        raise ValueError("rate_fn returned a negative rate")
    if np.any(rates > rate_max * (1 + 1e-9)):
        raise ValueError("rate_fn exceeds the supplied bound; thinning is biased")
    return np.sort(t_cand[rng.uniform(0.0, rate_max, n_candidates) < rates])


def apply_time_jitter(times: np.ndarray, sigma: float, seed: int | None = None) -> np.ndarray:
    """Gaussian timing jitter of the stop reference.

    Models the time dispersion of the arrival-time electronics.  The times
    are not wrapped or re-sorted: folding modulo the period makes the
    jittered histogram the circular Gaussian convolution of the unjittered
    one.
    """
    rng = np.random.default_rng(seed)
    return times + rng.normal(0.0, sigma, len(times))


def tac_fold(
    times: np.ndarray, period: float, bin_width: float, gate_time: float
) -> TacHistogram:
    """Fold arrivals modulo the period into TAC bins of the given width."""
    if period <= 0:
        raise ValueError("period must be > 0")
    if not 0 < bin_width <= period:
        raise ValueError("need 0 < bin_width <= period")
    n_bins = expected_bin_count(period, bin_width)
    idx = np.minimum((np.mod(times, period) / bin_width).astype(np.int64), n_bins - 1)
    return TacHistogram(bin_width, period, np.bincount(idx, minlength=n_bins), gate_time)


def least_squares_fit(
    hist: TacHistogram,
    beams,
    init: FitModelParams,
    frozen: tuple[str, ...] = DEFAULT_FROZEN,
    omega_i: float | None = None,
    max_evaluations: int = 500,
) -> FitResult:
    """The deviance fit of :func:`phonon_sensor.fitting.fit_histogram`,
    solved by scipy's trust-region reflective ``least_squares``.

    Same residuals, exact columns, bounds and thresholds (relative
    residual 1e-8, step norm 1e-10), with per-parameter ``x_scale``; a
    cross-check of the package's own Levenberg-Marquardt loop.
    """
    from scipy.optimize import least_squares

    if hist.total_counts == 0:
        raise NoModulationError("empty histogram")
    counts = hist.counts.astype(float)
    if _is_flat(counts):
        raise NoModulationError("histogram is flat; nothing to fit")
    if omega_i is None:
        omega_i = TWO_PI / hist.period
    check_start(init, hist.period, beams, omega_i)

    free = tuple(name for name in PARAM_NAMES if name not in frozen)
    if init.sigma_t == 0:
        free = tuple(name for name in free if name != "sigma_t")
    bounds = _fit_bounds(hist.period)
    n_log_n = counts * np.log(np.where(counts > 0, counts, 1.0))

    scales = {
        "amplitude": 1e-6,
        "phase": 0.1,
        "beta": max(init.beta, 1.0),
        "sigma_t": max(init.sigma_t, hist.bin_width),
    }
    if "alpha" in free:
        unit = replace(init, alpha=1.0, beta=0.0)
        rate = model_curve(unit, beams, omega_i, hist.period, hist.bin_width)
        scales["alpha"] = counts.sum() / rate.sum()
        if init.alpha == 0:
            init = replace(init, alpha=scales["alpha"])

    def build(vector) -> FitModelParams:
        values = dict(zip(PARAM_NAMES, (float(v) for v in init.as_array())))
        values.update(zip(free, (float(v) for v in vector)))
        values["amplitude"] = max(values["amplitude"], 0.0)
        return FitModelParams(**values)

    last = {}

    def evaluate(vector) -> dict:
        key = vector.tobytes()
        if last.get("key") != key:
            curve, columns = model_curve(
                build(vector), beams, omega_i, hist.period, hist.bin_width, free=free
            )
            residuals, slope = _deviance_residuals(curve, counts, n_log_n)
            last.update(key=key, residuals=residuals, jac=slope[:, None] * columns)
        return last

    result = least_squares(
        lambda vector: evaluate(vector)["residuals"],
        [getattr(init, name) for name in free],
        jac=lambda vector: evaluate(vector)["jac"],
        bounds=([bounds[n][0] for n in free], [bounds[n][1] for n in free]),
        x_scale=[scales[n] for n in free],
        ftol=1e-8,
        xtol=1e-10,
        gtol=1e-12,
        max_nfev=max_evaluations,
        method="trf",
    )

    params = build(result.x)
    dof = max(len(counts) - len(free), 1)
    jtj_inv = np.linalg.pinv(result.jac.T @ result.jac)
    sigma = np.sqrt(np.maximum(np.diag(jtj_inv) * 2.0 * result.cost / dof, 0.0))
    errors = {name: 0.0 for name in PARAM_NAMES}
    errors.update(zip(free, (float(err) for err in sigma)))
    return FitResult(
        params=replace(params, phase=wrap_phase(params.phase)),
        errors=errors,
        residual=float(2.0 * result.cost),
        converged=bool(result.status > 0),
        iterations=int(result.nfev),
        frozen=tuple(frozen),
    )


def scipy_circular_correlation(signal: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Circular cross-correlation of ``signal`` with each row of
    ``templates`` over all shifts, on ``scipy.fft``: the linear one on a
    5-smooth length of at least twice the signal, negative lags folded back."""
    import scipy.fft

    n = len(signal)
    n_fft = scipy.fft.next_fast_len(2 * n, real=True)
    conj = np.conj(scipy.fft.rfft(templates, n_fft))
    linear = scipy.fft.irfft(scipy.fft.rfft(signal, n_fft) * conj, n_fft)
    return linear[:, :n] + linear[:, n_fft - n :]


def wrapped_gaussian_bin_means(
    beams, amplitude, phase, omega_i, sigma, lo, hi, n_points=4096, n_nodes=16
):
    """Mean over each interval [lo, hi] of the summed rate convolved with the
    normal of width ``sigma`` wrapped onto the period 2 pi / omega_i: the law
    of arrivals jittered by that normal and folded.

    The convolution is the trapezoid rule on ``n_points`` over the period,
    which converges geometrically for a smooth periodic integrand, with the
    wrapped density summed over 61 images; each interval takes ``n_nodes``
    Gauss-Legendre nodes.
    """
    period = TWO_PI / omega_i
    lag = np.arange(n_points) * (period / n_points)
    images = np.arange(-30, 31)[:, None] * period
    density = np.exp(-0.5 * ((lag + images) / sigma) ** 2).sum(axis=0)
    weights_lag = density * (period / n_points) / (sigma * math.sqrt(TWO_PI))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    means = []
    for start, end in zip(lo, hi):
        t = 0.5 * (end - start) * nodes + 0.5 * (end + start)
        rate, _ = direct_scattering_rate(beams, amplitude, phase, omega_i, t[:, None] - lag)
        means.append(0.5 * weights @ (rate @ weights_lag))
    return np.array(means)


def direct_scattering_rate(beams, amplitude, phase, omega_i, t):
    """Summed scattering rate and its derivative in the amplitude,
    ``(rate, d/dA)``, with cos theta = cos(w t + phi) taken by ``np.cos``
    of theta itself, beam by beam: rate = (Gamma s/4pi) / D with
    D = 1 + s + 4 x^2 and x = (Delta - k w A cos theta)/Gamma, so
    d rate/dA = 8 (Gamma s/4pi) x k w cos theta / (Gamma D^2)."""
    cosine = np.cos(omega_i * np.asarray(t) + phase)
    rate = np.zeros(cosine.shape)
    slope = np.zeros(cosine.shape)  # d rate / d (A cos theta)
    for beam in beams:
        s, gamma, k = beam.saturation, beam.linewidth, beam.wave_number
        peak = gamma * s / (4.0 * math.pi)
        x = (beam.detuning - k * omega_i * amplitude * cosine) / gamma
        denominator = 1.0 + s + 4.0 * x**2
        rate += peak / denominator
        slope += 8.0 * peak * x * k * omega_i / (gamma * denominator**2)
    return rate, slope * cosine
