"""Declarative run configuration: YAML schema, validation and hashing.

The file mirrors the simulation types section by section.  Keys carry unit
suffixes (hz, mv, um, ...) and are converted to SI/angular units at load
time; unknown keys are rejected.  The table :data:`FIELDS` (with
:data:`BEAM_FIELDS` for each beam) is the whole schema: loading, dumping,
key checking and unit conversion all read it.  Every run stamps its outputs
with the sha256 hash of the canonical configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import yaml

from .constants import ATOMIC_MASS_UNIT, DEFAULT_FREE_RUNNING_AMPLITUDE, ELEMENTARY_CHARGE, TWO_PI
from .dynamics import ElectricNoise, NoiseModel
from .photons import PipelineConfig
from .physics import DriveConfig, LaserBeam, TrapConfig, default_beams


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign grids, trial counts and seeds."""

    seed: int = 20260809
    reference_phase: float = 0.03  # rad, stop-reference offset of the TAC
    amplitude_voltages: tuple[float, ...] = (5e-3, 7.5e-3, 10e-3, 12.5e-3, 15e-3, 18.25e-3)
    amplitude_trials: int = 4
    squeeze_gains: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9)
    squeeze_phases: tuple[float, ...] = (0.0, math.pi / 4, math.pi / 2)
    squeeze_trials: int = 50
    squeeze_periods: int = 10000
    lower_bound_voltages: tuple[float, ...] = tuple(
        0.04e-3 * (1.2e-3 / 0.04e-3) ** (i / 11) for i in range(12)
    )
    lower_bound_trials: int = 32
    lock_threshold: float = 0.3  # rad
    repetitions: int = 50  # measurement repetitions of the sensitivity run

    def __post_init__(self):
        if self.amplitude_trials < 1 or self.squeeze_trials < 1:
            raise ConfigError("trial counts must be >= 1")
        if self.lower_bound_trials < 20:
            raise ConfigError("lower-bound protocol needs >= 20 trials per point")
        if list(self.lower_bound_voltages) != sorted(self.lower_bound_voltages):
            raise ConfigError("lower_bound_voltages_mv must be ascending")
        if self.lock_threshold <= 0:
            raise ConfigError("lock_threshold must be > 0")
        if self.repetitions < 2:
            raise ConfigError("repetitions must be >= 2")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs"
    emit_svg: bool = True

    def resolve_directory(self) -> str:
        return os.environ.get("PHONON_SENSOR_OUTDIR", self.directory)


@dataclass(frozen=True)
class RunConfig:
    beams: tuple[LaserBeam, ...]
    trap: TrapConfig
    drive: DriveConfig
    noise: NoiseModel
    electric_noise: ElectricNoise
    pipeline: PipelineConfig
    experiment: ExperimentConfig
    output: OutputConfig
    free_running_amplitude: float = DEFAULT_FREE_RUNNING_AMPLITUDE

    def __post_init__(self):
        if not 0.0 < self.free_running_amplitude < math.inf:
            raise ConfigError("free_running_amplitude must be finite and > 0")
        period = TWO_PI / self.drive.injection_frequency
        if self.pipeline.bin_width > period:
            raise ConfigError(
                f"bin width {self.pipeline.bin_width:.6g} s exceeds the folding "
                f"period 2 pi / injection frequency = {period:.6g} s"
            )

    @property
    def amplitude_per_force(self) -> float:
        """Locked-oscillator amplitude response, 1/(m zeta w_z), in m/N."""
        return 1.0 / (self.noise.mass * self.noise.damping * self.trap.secular_z)


def default_config() -> RunConfig:
    return RunConfig(
        beams=default_beams(),
        trap=TrapConfig(),
        drive=DriveConfig(injection_voltage=18.25e-3),
        noise=NoiseModel(),
        electric_noise=ElectricNoise(),
        pipeline=PipelineConfig(),
        experiment=ExperimentConfig(),
        output=OutputConfig(),
    )


# ---------------------------------------------------------------------------
# The schema: one row per YAML key, in the order the YAML is written

# (YAML key, LaserBeam field, SI value of one YAML unit) of each beam entry.
# The wavelength is the one non-linear row: wave_number = 2 pi / wavelength.
BEAM_FIELDS = (
    ("detuning_hz", "detuning", TWO_PI),
    ("saturation", "saturation", 1.0),
    ("wavelength_nm", "wave_number", 1e-9),
    ("linewidth_hz", "linewidth", TWO_PI),
)

# (YAML section, YAML key, RunConfig attribute, dataclass field, SI value of
# one YAML unit).  An attribute of None marks a field of RunConfig itself.
# The YAML value takes the type of the default (float, int, bool, str, or a
# tuple of floats); only floats are scaled.
FIELDS = (
    ("physics.trap", "mass_amu", "trap", "mass", ATOMIC_MASS_UNIT),
    ("physics.trap", "charge_e", "trap", "charge", ELEMENTARY_CHARGE),
    ("physics.trap", "axial_hz", "trap", "secular_z", TWO_PI),
    ("physics.trap", "radial_x_hz", "trap", "secular_x", TWO_PI),
    ("physics.trap", "radial_y_hz", "trap", "secular_y", TWO_PI),
    ("physics.trap", "drift_hz_per_s", "trap", "drift_rate", 1.0),
    ("physics.drive", "injection_voltage_mv", "drive", "injection_voltage", 1e-3),
    ("physics.drive", "injection_frequency_hz", "drive", "injection_frequency", TWO_PI),
    ("physics.drive", "force_per_volt_yn_per_mv", "drive", "force_per_volt", 1e-21),
    ("physics.drive", "squeeze_gain", "drive", "squeeze_gain", 1.0),
    ("physics.drive", "squeeze_phase_rad", "drive", "squeeze_phase", 1.0),
    ("physics.drive", "squeeze_enabled", "drive", "squeeze_enabled", 1.0),
    ("physics.noise", "temperature_mk", "noise", "temperature", 1e-3),
    ("physics.noise", "damping_rate_per_s", "noise", "damping", 1.0),
    ("physics.noise", "electric_rms_mv", "electric_noise", "rms_voltage", 1e-3),
    ("physics.noise", "electric_correlation_us", "electric_noise", "correlation_time", 1e-6),
    ("physics", "free_running_amplitude_um", None, "free_running_amplitude", 1e-6),
    ("pipeline", "efficiency", "pipeline", "efficiency", 1.0),
    ("pipeline", "snr", "pipeline", "snr", 1.0),
    ("pipeline", "bin_width_ns", "pipeline", "bin_width", 1e-9),
    ("pipeline", "gate_time_s", "pipeline", "gate_time", 1.0),
    ("pipeline", "timing_jitter_us", "pipeline", "timing_jitter", 1e-6),
    ("experiment", "seed", "experiment", "seed", 1.0),
    ("experiment", "reference_phase_rad", "experiment", "reference_phase", 1.0),
    ("experiment", "amplitude_voltages_mv", "experiment", "amplitude_voltages", 1e-3),
    ("experiment", "amplitude_trials", "experiment", "amplitude_trials", 1.0),
    ("experiment", "squeeze_gains", "experiment", "squeeze_gains", 1.0),
    ("experiment", "squeeze_phases_rad", "experiment", "squeeze_phases", 1.0),
    ("experiment", "squeeze_trials", "experiment", "squeeze_trials", 1.0),
    ("experiment", "squeeze_periods", "experiment", "squeeze_periods", 1.0),
    ("experiment", "lower_bound_voltages_mv", "experiment", "lower_bound_voltages", 1e-3),
    ("experiment", "lower_bound_trials", "experiment", "lower_bound_trials", 1.0),
    ("experiment", "lock_threshold_rad", "experiment", "lock_threshold", 1.0),
    ("experiment", "repetitions", "experiment", "repetitions", 1.0),
    ("output", "directory", "output", "directory", 1.0),
    ("output", "emit_svg", "output", "emit_svg", 1.0),
)


def _schema() -> dict:
    """Nested YAML layout; leaves are FIELDS rows and the beams list."""
    tree = {"physics": {"beams": "beams"}}
    for row in FIELDS:
        node = tree
        for part in row[0].split("."):
            node = node.setdefault(part, {})
        node[row[1]] = row
    return tree


_SCHEMA = _schema()
_BEAM_SCHEMA = {row[0]: row for row in BEAM_FIELDS}


def _round12(value):
    """Stabilize unit-converted floats so dict round trips are exact."""
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _to_yaml(value, field, scale):
    """SI value -> YAML value in the row's unit."""
    if isinstance(value, tuple):
        return [_to_yaml(v, field, scale) for v in value]
    if field == "wave_number":
        value = TWO_PI / value
    return _round12(value if scale == 1 else value / scale)


def _to_si(value, default, field, scale):
    """YAML value -> SI value of the type of the field's default; rejects a
    NaN, a non-boolean flag and a boolean or fractional count."""
    if isinstance(default, tuple):
        return tuple(_to_si(v, 0.0, field, scale) for v in value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{field} must be true or false, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{field} must be a whole number, got {value!r}")
        return int(value)
    if isinstance(default, float):
        number = float(value)
        if math.isnan(number):
            raise ConfigError(f"{field} must be a number, got NaN")
        return TWO_PI / (number * scale) if field == "wave_number" else number * scale
    return type(default)(value)


def _collect(node, schema: dict, where: str) -> dict:
    """Check one YAML mapping against the schema; return {row: value}."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where or 'top level'} must be a mapping")
    unknown = set(node) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'top level'}: {sorted(unknown, key=str)}")
    values = {}
    for key, value in node.items():
        entry = schema[key]
        if isinstance(entry, dict):
            values.update(_collect(value, entry, f"{where}.{key}" if where else key))
        else:
            values[entry] = value
    return values


def _update(owner, values: dict):
    """``owner`` with the fields of {row: YAML value}, typed like its own."""
    return replace(
        owner,
        **{r[-2]: _to_si(v, getattr(owner, r[-2]), r[-2], r[-1]) for r, v in values.items()},
    )


def config_to_dict(config: RunConfig) -> dict:
    beams = [
        {key: _to_yaml(getattr(beam, field), field, scale) for key, field, scale in BEAM_FIELDS}
        for beam in config.beams
    ]
    out = {"physics": {"beams": beams}}
    for section, key, attr, field, scale in FIELDS:
        node = out
        for part in section.split("."):
            node = node.setdefault(part, {})
        owner = config if attr is None else getattr(config, attr)
        node[key] = _to_yaml(getattr(owner, field), field, scale)
    return out


def config_from_dict(data: dict) -> RunConfig:
    values = _collect(data, _SCHEMA, "")
    beams = values.pop("beams", None)
    groups = {}
    for row, value in values.items():
        groups.setdefault(row[2], {})[row] = value
    try:
        config = _update(default_config(), groups.pop(None, {}))
        changes = {attr: _update(getattr(config, attr), rows) for attr, rows in groups.items()}
        if beams is not None:
            if not isinstance(beams, (list, tuple)) or not beams:
                raise ConfigError("physics.beams must be a non-empty list")
            # Detuning and saturation, which LaserBeam leaves required, default to 0.
            template = LaserBeam(detuning=0.0, saturation=0.0)
            changes["beams"] = tuple(
                _update(template, _collect(entry, _BEAM_SCHEMA, f"physics.beams[{i}]"))
                for i, entry in enumerate(beams)
            )
        # The thermal bath moves the ion's mass, which has one key: mass_amu.
        mass = changes.get("trap", config.trap).mass
        changes["noise"] = replace(changes.get("noise", config.noise), mass=mass)
        return replace(config, **changes)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data or {})


def save_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


def canonicalize(config: RunConfig) -> RunConfig:
    """One dict round trip, pinning parameters to their serialized values.

    Campaigns canonicalize on entry so a run and its record-driven re-run
    start from bit-identical parameters.
    """
    return config_from_dict(config_to_dict(config))


def config_hash(config: RunConfig) -> str:
    payload = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
