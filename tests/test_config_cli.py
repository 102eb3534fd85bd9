import contextlib
import copy
import dataclasses
import io
import math
import os
import stat
import string
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phonon_sensor import experiments
from phonon_sensor.cli import main
from phonon_sensor.config import (
    _YAML_LOADER,
    BEAM_FIELDS,
    FIELDS,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from phonon_sensor.constants import TWO_PI
from phonon_sensor.dynamics import NoiseModel, thermal_quadrature_variance
from phonon_sensor.fitting import PARAM_NAMES, load_fit_report
from phonon_sensor.photons import TacHistogram, load_histogram, save_histogram
from phonon_sensor.svgfig import LinePlot

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIG = os.path.join(REPO_ROOT, "configs", "default.yaml")


class TestDefaults:
    def test_shipped_defaults_match_published_values(self):
        cfg = default_config()
        red, blue = cfg.beams
        assert red.detuning / TWO_PI == pytest.approx(-75e6)
        assert blue.detuning / TWO_PI == pytest.approx(30e6)
        assert red.saturation == 0.8 and blue.saturation == 0.4
        assert red.linewidth / TWO_PI == pytest.approx(20.68e6)
        assert cfg.trap.secular_z / TWO_PI == pytest.approx(186.02e3)
        assert cfg.trap.secular_x / TWO_PI == pytest.approx(680.4e3)
        assert cfg.trap.secular_y / TWO_PI == pytest.approx(1020.3e3)
        # Folding period about 5.38 us, TAC resolution 10 ns.
        period = TWO_PI / cfg.drive.injection_frequency
        assert period == pytest.approx(5.38e-6, rel=1e-3)
        assert cfg.pipeline.bin_width == 10e-9
        assert cfg.pipeline.gate_time == 10.0
        assert cfg.pipeline.efficiency == pytest.approx(0.0028)
        assert cfg.pipeline.snr == 2.0
        assert cfg.drive.force_per_volt == pytest.approx(362.8e-21)
        assert cfg.amplitude_per_force == pytest.approx(0.9979e15, rel=1e-6)
        assert cfg.free_running_amplitude == pytest.approx(17.839e-6)
        assert cfg.electric_noise.rms_voltage == pytest.approx(2e-3)
        assert cfg.experiment.repetitions == 50

    def test_shipped_yaml_equals_programmatic_defaults(self, tmp_path):
        cfg = load_config(SHIPPED_CONFIG)
        assert config_hash(cfg) == config_hash(default_config())
        written = tmp_path / "written.yaml"
        assert main(["write-config", "--out", str(written)]) == 0
        with open(SHIPPED_CONFIG, "rb") as fh:
            assert written.read_bytes() == fh.read()


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        save_config(default_config(), path)
        loaded = load_config(path)
        assert isinstance(loaded, RunConfig)
        assert config_hash(loaded) == config_hash(default_config())

    def test_libyaml_reads_the_shipped_config_as_pure_python_does(self):
        assert _YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        with open(SHIPPED_CONFIG, encoding="utf-8") as fh:
            text = fh.read()
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_dict_round_trip_idempotent(self):
        first = config_to_dict(default_config())
        second = config_to_dict(config_from_dict(first))
        assert first == second

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"physics": {}, "bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="physics.trap"):
            config_from_dict({"physics": {"trap": {"axial_hz": 1e5, "wobble": 2}}})

    def test_invalid_value_reported_as_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"physics": {"trap": {"axial_hz": -5.0}}})

    def test_partial_override_keeps_other_defaults(self):
        cfg = config_from_dict({"pipeline": {"snr": 3.5}})
        assert cfg.pipeline.snr == 3.5
        assert cfg.pipeline.efficiency == default_config().pipeline.efficiency

    def test_mass_reaches_the_thermal_bath(self):
        # The bath has no mass of its own: it moves the trap's ion.
        base = default_config()
        heavy = config_from_dict({"physics": {"trap": {"mass_amu": 43.0}}})
        assert heavy.amplitude_per_force == pytest.approx(
            base.amplitude_per_force * 40 / 43, rel=1e-12
        )
        variance = thermal_quadrature_variance(heavy.trap, heavy.drive, heavy.noise)
        default = thermal_quadrature_variance(base.trap, base.drive, base.noise)
        assert variance == pytest.approx(default * 40 / 43, rel=1e-12)
        assert "mass" not in {field.name for field in dataclasses.fields(NoiseModel)}

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("physics: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            "pipeline:\n  gate_time_s: .nan\n",
            'output:\n  emit_svg: "false"\n',
            "experiment:\n  amplitude_trials: 4.7\n",
        ],
    )
    def test_loose_types_are_usage_errors(self, tmp_path, text):
        path = tmp_path / "loose.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "h.txt")]) == 1

    def test_infinity_and_whole_float_count_still_load(self):
        assert config_from_dict({"pipeline": {"snr": math.inf}}).pipeline.snr == math.inf
        assert config_from_dict({"experiment": {"amplitude_trials": 4.0}}).experiment.amplitude_trials == 4

    def test_hash_changes_with_values(self):
        base = config_hash(default_config())
        other = config_hash(config_from_dict({"pipeline": {"snr": 3.0}}))
        assert base != other


DEFAULT_DICT = config_to_dict(default_config())
# Every mapping of the schema, as a key path into DEFAULT_DICT.
SECTIONS = [
    (),
    ("physics",),
    ("physics", "trap"),
    ("physics", "drive"),
    ("physics", "noise"),
    ("physics", "beams", 0),
    ("pipeline",),
    ("experiment",),
    ("output",),
]
FREQUENCY_KEYS = [
    ("physics", "trap", "axial_hz"),
    ("physics", "trap", "radial_x_hz"),
    ("physics", "trap", "radial_y_hz"),
    ("physics", "drive", "injection_frequency_hz"),
    ("physics", "beams", 0, "linewidth_hz"),
]
NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False)
# Keep the draws few: every example runs the CLI once.
FEW = settings(max_examples=10, deadline=None)


def _node(data, path):
    for key in path:
        data = data[key]
    return data


def _set(data, path, value):
    _node(data, path[:-1])[path[-1]] = value


def _rounded(value):
    return float(f"{value:.12g}")


@st.composite
def perturbed_defaults(draw):
    """The default dict with every number, flag and list redrawn near its
    default, in values that keep the configuration valid."""
    data = copy.deepcopy(DEFAULT_DICT)
    factors = st.floats(min_value=0.5, max_value=1.0)

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in list(items):
            if isinstance(value, dict) or key == "beams":
                walk(value)
            elif isinstance(value, bool):
                node[key] = draw(st.booleans())
            elif isinstance(value, int):
                node[key] = value + draw(st.integers(0, 5))
            elif isinstance(value, float):
                node[key] = _rounded(value * draw(factors))
            elif isinstance(value, list):
                factor = draw(factors)
                node[key] = [_rounded(v * factor) for v in value]

    walk(data)
    return data


def _leaves(node, path=()):
    """(key path, value) of every leaf of a config dict."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, dict) or key == "beams":
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


LEAVES = list(_leaves(DEFAULT_DICT))
FLOAT_KEYS = [p for p, v in LEAVES if isinstance(v, (float, list))]
BOOL_KEYS = [p for p, v in LEAVES if isinstance(v, bool)]
INT_KEYS = [p for p, v in LEAVES if isinstance(v, int) and not isinstance(v, bool)]


def invalid_dict(kind, draw):
    data = copy.deepcopy(DEFAULT_DICT)
    if kind == "frequency":
        _set(data, draw(st.sampled_from(FREQUENCY_KEYS)), draw(NON_POSITIVE))
    elif kind == "gate-time":
        data["pipeline"]["gate_time_s"] = draw(NON_POSITIVE)
    elif kind == "bin-width":
        data["pipeline"]["bin_width_ns"] = draw(NON_POSITIVE)
    elif kind == "damping":
        data["physics"]["noise"]["damping_rate_per_s"] = draw(NON_POSITIVE)
    elif kind == "bin-width-over-period":
        # The folding period at the default 186.02 kHz is 5375.8 ns.
        data["pipeline"]["bin_width_ns"] = draw(st.floats(5376.0, 1e12))
    elif kind == "jitter-over-half-period":
        data["pipeline"]["timing_jitter_us"] = draw(st.floats(2.688, 1e6))
    elif kind == "free-running-amplitude":
        value = draw(st.one_of(NON_POSITIVE, st.just(math.inf)))
        data["physics"]["free_running_amplitude_um"] = value
    elif kind == "unsorted-voltages":
        voltages = draw(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8, unique=True))
        assume(voltages != sorted(voltages))
        data["experiment"]["lower_bound_voltages_mv"] = voltages
    elif kind == "short-voltage-grid":
        voltages = draw(st.lists(st.floats(0.01, 10.0), max_size=1))
        data["experiment"]["lower_bound_voltages_mv"] = voltages
    elif kind == "non-positive-voltage":
        # Ascending, so only the sign is at fault.
        bad = draw(st.lists(NON_POSITIVE, min_size=1, max_size=3))
        good = draw(st.lists(st.floats(0.01, 10.0), max_size=4))
        data["experiment"]["lower_bound_voltages_mv"] = sorted(bad + good + [1.0])
    elif kind == "amplitude-voltage-grid":
        # Three distinct voltages, one negative; or fewer than three distinct.
        negative = [draw(st.floats(max_value=-0.001, allow_nan=False)), 5.0, 10.0]
        short = draw(st.lists(st.sampled_from([5.0, 7.5]), max_size=6))
        data["experiment"]["amplitude_voltages_mv"] = draw(st.sampled_from([negative, short]))
    elif kind == "empty-squeeze-grid":
        data["experiment"][draw(st.sampled_from(["squeeze_gains", "squeeze_phases_rad"]))] = []
    elif kind == "squeeze-gain-outside-unit-interval":
        gain = draw(
            st.one_of(
                st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
                st.floats(min_value=1.0, exclude_min=True, allow_nan=False),
            )
        )
        gains = data["experiment"]["squeeze_gains"]
        gains.insert(draw(st.integers(0, len(gains))), gain)
    elif kind == "squeeze-periods":
        data["experiment"]["squeeze_periods"] = draw(st.integers(max_value=0))
    elif kind == "reference-phase-outside-fit-range":
        # The fit searches phases in [-2 pi, 2 pi]; 2 pi = 6.28319.
        sign = draw(st.sampled_from([-1.0, 1.0]))
        data["experiment"]["reference_phase_rad"] = sign * draw(st.floats(6.2832, 1e30))
    elif kind == "negative-seed":
        data["experiment"]["seed"] = draw(st.integers(max_value=-1))
    elif kind == "unknown-key":
        node = _node(data, draw(st.sampled_from(SECTIONS)))
        key = draw(st.text(string.ascii_lowercase + "_", min_size=1).filter(lambda k: k not in node))
        node[key] = 1.0
    elif kind == "non-mapping":
        value = draw(st.one_of(st.integers(), st.text(string.ascii_letters), st.lists(st.integers())))
        _set(data, draw(st.sampled_from(SECTIONS[1:])), value)
    elif kind == "empty-beams":
        data["physics"]["beams"] = []
    elif kind in ("nan", "infinite"):
        # snr is the one float row where an infinity means something.
        keys = FLOAT_KEYS if kind == "nan" else [p for p in FLOAT_KEYS if p != ("pipeline", "snr")]
        bad = math.nan if kind == "nan" else draw(st.sampled_from([math.inf, -math.inf]))
        path = draw(st.sampled_from(keys))
        value = _node(data, path)
        if isinstance(value, list):
            value[draw(st.integers(0, len(value) - 1))] = bad
        else:
            _set(data, path, bad)
    elif kind == "non-boolean":
        text = st.sampled_from(["false", "true", "no", "yes", "0", "1"])
        _set(data, draw(st.sampled_from(BOOL_KEYS)), draw(st.one_of(text, st.integers(0, 1))))
    elif kind == "non-integer":
        fractional = st.floats(1.0, 1e6).filter(lambda x: not x.is_integer())
        _set(data, draw(st.sampled_from(INT_KEYS)), draw(st.one_of(st.booleans(), fractional)))
    return data


INVALID_KINDS = (
    "frequency",
    "gate-time",
    "bin-width",
    "damping",
    "bin-width-over-period",
    "jitter-over-half-period",
    "free-running-amplitude",
    "unsorted-voltages",
    "short-voltage-grid",
    "non-positive-voltage",
    "amplitude-voltage-grid",
    "empty-squeeze-grid",
    "squeeze-gain-outside-unit-interval",
    "squeeze-periods",
    "reference-phase-outside-fit-range",
    "negative-seed",
    "unknown-key",
    "non-mapping",
    "empty-beams",
    "nan",
    "infinite",
    "non-boolean",
    "non-integer",
)


class TestConfigProperties:
    @FEW
    @given(perturbed_defaults())
    def test_dict_round_trip_is_identity(self, data):
        assert config_to_dict(config_from_dict(copy.deepcopy(data))) == data

    @FEW
    @given(perturbed_defaults())
    def test_libyaml_and_pure_python_loaders_agree(self, data):
        text = yaml.safe_dump(data, sort_keys=False)
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader) == data

    @pytest.mark.parametrize("kind", INVALID_KINDS)
    @FEW
    @given(draw=st.data())
    def test_invalid_config_fails_at_load_with_exit_1(self, kind, draw):
        data = invalid_dict(kind, draw.draw)
        with pytest.raises(ConfigError):
            config_from_dict(copy.deepcopy(data))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(data, fh)
            out = os.path.join(tmp, "h.txt")
            assert main(["simulate", "--config", path, "--out", out]) == 1
            assert not os.path.exists(out)


# The key path of every schema row: each FIELDS row, and each BEAM_FIELDS
# row of the first beam.
ROW_PATHS = [(*row[0].split("."), row[1]) for row in FIELDS] + [
    ("physics", "beams", 0, row[0]) for row in BEAM_FIELDS
]
BOUNDARY_VALUES = [0.0, -1.0, 1e-30, 1e30, math.inf, -math.inf, math.nan]


def _finite_leaves(node) -> bool:
    """Whether every number in a nest of dicts and lists is finite."""
    if isinstance(node, dict):
        return all(_finite_leaves(value) for value in node.values())
    if isinstance(node, list):
        return all(map(_finite_leaves, node))
    return not isinstance(node, float) or math.isfinite(node)


class TestExitCodeContract:
    """One schema row at one boundary value, through the loader and the
    cheap CLI paths: every exit is a documented code, none prints a
    traceback, and a successful run reports only finite numbers."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(path=st.sampled_from(ROW_PATHS), value=st.sampled_from(BOUNDARY_VALUES))
    def test_boundary_value_exits_with_a_documented_code(self, path, value):
        data = copy.deepcopy(DEFAULT_DICT)
        data["pipeline"]["gate_time_s"] = 1.0
        if isinstance(_node(data, path), list):
            _node(data, path)[0] = value
        else:
            _set(data, path, value)
        try:
            config_from_dict(copy.deepcopy(data))
        except ConfigError:
            pass  # the loader's one documented failure; any other fails the test
        with tempfile.TemporaryDirectory() as tmp, io.StringIO() as err:
            cfg, hist, report = (os.path.join(tmp, name) for name in ("c.yaml", "h.txt", "f.txt"))
            with open(cfg, "w") as fh:
                yaml.safe_dump(data, fh)
            with contextlib.redirect_stderr(err):
                codes = [
                    main(["write-config", "--out", os.path.join(tmp, "default.yaml")]),
                    main(["campaign", "calibrate", "--config", cfg, "--out", tmp]),
                    main(["simulate", "--config", cfg, "--out", hist]),
                ]
                if codes[-1] == 0:
                    codes.append(main(["fit", hist, "--config", cfg, "--out", report]))
            assert set(codes) <= {0, 1, 2, 3}, err.getvalue()
            assert "Traceback" not in err.getvalue()
            if codes[1] == 0:
                results = experiments.load_run(os.path.join(tmp, "calibrate.json"))["results"]
                assert _finite_leaves(results), results
            if codes[2:] == [0, 0]:
                fit = load_fit_report(report)
                numbers = [*fit.params.as_array(), *fit.errors.values(), fit.residual]
                assert all(map(math.isfinite, numbers)), fit


def run_cli(args):
    return main(list(args))


class TestCli:
    def test_simulate_writes_expected_count_scale(self, tmp_path):
        out = tmp_path / "hist.txt"
        code = run_cli(["simulate", "--out", str(out), "--seed", "42"])
        assert code == 0
        hist = load_histogram(out)
        # Default operating point: count scale of the reference data set.
        assert 4e4 < hist.total_counts < 8e4
        assert hist.n_bins == 538

    def test_simulate_seed_repeat_bit_identical(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run_cli(["simulate", "--out", str(a), "--seed", "7"]) == 0
        assert run_cli(["simulate", "--out", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_gate_time_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("pipeline:\n  gate_time_s: 0.0\n")
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "h.txt")])
        assert code == 1

    def test_fit_round_trip(self, tmp_path):
        hist_path = tmp_path / "hist.txt"
        report_path = tmp_path / "fit.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "11"]) == 0
        code = run_cli(["fit", str(hist_path), "--out", str(report_path)])
        assert code == 0
        report = load_fit_report(report_path)
        assert report.converged
        # Default drive 18.25 mV: amplitude near 24.45 um.
        assert report.amplitude == pytest.approx(24.45e-6, abs=0.3e-6)

    def test_fit_with_config_matches_campaign_recovery(self, tmp_path, monkeypatch):
        # fit --config starts where the sweep and sensitivity campaigns do:
        # the config's detection chain, reference phase and timing jitter.
        cfg = tmp_path / "jitter.yaml"
        cfg.write_text("pipeline:\n  timing_jitter_us: 0.2\n")
        hist_path = tmp_path / "hist.txt"
        report_path = tmp_path / "fit.txt"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(hist_path), "--seed", "2"]) == 0
        assert run_cli(["fit", str(hist_path), "--config", str(cfg), "--out", str(report_path)]) == 0
        hist = load_histogram(hist_path)
        # The campaign path on the same histogram; the amplitude and seed
        # passed below only reach the replaced sampler.
        monkeypatch.setattr(experiments, "synthesize_histogram", lambda *a, **k: hist)
        (campaign,) = experiments._recover_amplitudes(load_config(cfg), [(24.4e-6, 2)])
        assert load_fit_report(report_path).amplitude == campaign

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("period_s", "inf", "period = inf must be finite"),
            ("period_s", "nan", "period = nan must be finite"),
            # Finite, but not its period over 10 ns bins.
            ("period_s", "1e308", "period / bin_width must be finite"),
            ("bin_width_s", "inf", "bin_width = inf must be finite"),
            ("bin_width_s", "nan", "bin_width = nan must be finite"),
            ("bin_width_s", "1e308", "bin_width must not exceed the period"),
            ("gate_time_s", "inf", "gate_time = inf must be finite"),
            ("gate_time_s", "nan", "gate_time = nan must be finite"),
            # Finite, but its detection-chain scale overflows the model.
            ("gate_time_s", "1e308", "the deviance at the start is not finite"),
        ],
    )
    def test_fit_non_finite_header_is_runtime_error(self, tmp_path, capsys, key, value, message):
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "3"]) == 0
        lines = hist_path.read_text().splitlines()
        edited = [f"{key} = {value}" if x.startswith(f"{key} =") else x for x in lines]
        assert edited != lines
        hist_path.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        code = run_cli(["fit", str(hist_path), "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_fit_missing_header_key_is_runtime_error(self, tmp_path, capsys):
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "3"]) == 0
        lines = hist_path.read_text().splitlines()
        hist_path.write_text("\n".join(x for x in lines if not x.startswith("bin_width_s")) + "\n")
        capsys.readouterr()
        code = run_cli(["fit", str(hist_path), "--out", str(tmp_path / "r.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bin_width_s" in err

    def test_fit_histogram_of_another_frequency_is_usage_error(self, tmp_path):
        cfg = tmp_path / "other.yaml"
        cfg.write_text("physics:\n  drive:\n    injection_frequency_hz: 190000.0\n")
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(hist_path), "--seed", "4"]) == 0
        assert run_cli(["fit", str(hist_path), "--out", str(tmp_path / "r.txt")]) == 1
        assert run_cli(["fit", str(hist_path), "--config", str(cfg), "--out", str(tmp_path / "r.txt")]) == 0

    def test_fit_takes_the_frequency_from_the_histogram(self, tmp_path):
        # A config 2e-8 Hz off the shipped one passes the 1e-9 period check
        # and shares its config_hash; the fit takes its frequency from the
        # histogram's period, so the two write the same report.
        with open(SHIPPED_CONFIG) as fh:
            data = yaml.safe_load(fh)
        data["physics"]["drive"]["injection_frequency_hz"] = 186020.00000002
        nudged = tmp_path / "nudged.yaml"
        nudged.write_text(yaml.safe_dump(data))
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--config", SHIPPED_CONFIG, "--out", str(hist_path)]) == 0
        reports = []
        for k, cfg in enumerate((SHIPPED_CONFIG, str(nudged))):
            report = tmp_path / f"fit-{k}.txt"
            assert run_cli(["fit", str(hist_path), "--config", cfg, "--out", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_fit_corrupt_file_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a histogram\n")
        code = run_cli(["fit", str(bad), "--out", str(tmp_path / "r.txt")])
        assert code == 2

    def test_fit_freeze_all_but_amplitude(self, tmp_path):
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "13"]) == 0
        report_path = tmp_path / "fit.txt"
        code = run_cli(
            [
                "fit",
                str(hist_path),
                "--freeze",
                "phase,alpha,beta,sigma_t",
                "--init",
                "24.0,0.03,5.2e-5,33.2,0.0",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = load_fit_report(report_path)
        assert report.frozen == ("phase", "alpha", "beta", "sigma_t")

    def test_fit_bad_init_is_usage_error(self, tmp_path):
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "13"]) == 0
        out = tmp_path / "fit.txt"
        bad = (
            "24.0,0.03,5.2e-5,33.2",
            "abc,0,1,1,0",
            "-5,0,1,1,0",
            "24.0,nan,5.2e-5,33.2,0.0",
            "22,0,-1,1,0",  # negative alpha
            "22,0,1,1,10",  # sigma_t wider than half the 5.38 us period
            "22,7,1,1,0",  # phase outside the fit's [-2 pi, 2 pi]
            "1e6,0,1,1,0",  # 1 m, whose series the harmonic cap would cut
        )
        for init in bad:
            for freeze in ([], ["--freeze="]):
                argv = ["fit", str(hist_path), f"--init={init}", "--out", str(out), *freeze]
                assert run_cli(argv) == 1, (init, freeze)
        assert not out.exists()

    def test_fit_flat_histogram_is_runtime_error(self, tmp_path):
        period = TWO_PI / default_config().drive.injection_frequency
        flat = TacHistogram(bin_width=10e-9, period=period, counts=[100] * 538, gate_time=10.0)
        save_histogram(flat, tmp_path / "flat.txt")
        code = run_cli(["fit", str(tmp_path / "flat.txt"), "--out", str(tmp_path / "r.txt")])
        assert code == 2

    # The 5375.8 ns period holds 2 full bins of 1800 ns and 1 of 2700 ns,
    # too few for the initial guess's 5.
    @pytest.mark.parametrize("bin_width_ns, full", [(1800, 2), (2700, 1)])
    def test_too_few_full_bins_name_their_count(
        self, tmp_path, capsys, caplog, bin_width_ns, full
    ):
        cfg = tmp_path / "wide.yaml"
        cfg.write_text(f"pipeline:\n  bin_width_ns: {bin_width_ns}\nexperiment:\n  repetitions: 3\n")
        message = f"full TAC bins in the period: {full}, fewer than the 5"
        hist, out = tmp_path / "hist.txt", tmp_path / "runs"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(hist), "--seed", "5"]) == 0
        capsys.readouterr()
        assert run_cli(["fit", str(hist), "--config", str(cfg), "--out", str(out / "f.txt")]) == 2
        assert message in capsys.readouterr().err
        # The campaign drops every trial as too flat to fit, and then has no
        # scatter to report.
        with caplog.at_level("WARNING"):
            code = run_cli(["campaign", "sensitivity", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert caplog.text.count(message) == 3
        assert "not enough converged fits" in capsys.readouterr().err
        assert not (out / "sensitivity.json").exists()

    def test_sweep_drops_flat_histograms(self, tmp_path):
        # 1 s gates with 0.3 us jitter smear the 5 and 7.5 mV histograms
        # below the flatness test: at the default seed 3 of their 8 trials.
        cfg = tmp_path / "flat.yaml"
        cfg.write_text("pipeline:\n  gate_time_s: 1.0\n  timing_jitter_us: 0.3\n")
        out = tmp_path / "runs"
        code = run_cli(["campaign", "sweep-amplitude", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = experiments.load_run(out / "sweep-amplitude.json")["results"]["rows"]
        dropped = {row["voltage_mv"]: row["dropped"] for row in rows}
        assert dropped == {5.0: 2, 7.5: 1, 10.0: 0, 12.5: 0, 15.0: 0, 18.25: 0}
        assert all(row["trials"] + row["dropped"] == 4 for row in rows)

    def test_unbracketed_lower_bound_is_runtime_error(self, tmp_path, capsys):
        # Without thermal or electrode noise every voltage locks, so each
        # search raises in its worker process and the CLI still reports the
        # worker's message.
        cfg = tmp_path / "quiet.yaml"
        cfg.write_text(
            "physics:\n  noise:\n    temperature_mk: 0.0\n    electric_rms_mv: 0.0\n"
            "pipeline:\n  gate_time_s: 0.2\n"
            "experiment:\n  lower_bound_trials: 20\n"
        )
        out = tmp_path / "runs"
        code = run_cli(["campaign", "lower-bound", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "not bracketed" in capsys.readouterr().err
        assert not (out / "lower-bound.json").exists()

    def test_squeeze_sweep_without_thermal_noise_is_runtime_error(self, tmp_path, capsys):
        # At zero temperature the unsqueezed envelope does not fluctuate, so
        # every squeeze ratio would divide by a zero baseline variance.
        cfg = tmp_path / "cold.yaml"
        cfg.write_text(
            "physics:\n  noise:\n    temperature_mk: 0.0\n"
            "experiment:\n  squeeze_trials: 4\n  squeeze_periods: 200\n"
        )
        out = tmp_path / "runs"
        code = run_cli(["campaign", "sweep-squeeze", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "baseline variance is 0" in capsys.readouterr().err
        assert not (out / "sweep-squeeze.json").exists()

    @pytest.mark.parametrize("kind", ["sweep-amplitude", "sensitivity", "sweep-squeeze"])
    def test_zero_damping_exits_1(self, kind, tmp_path, capsys):
        # The campaigns divide by the damping rate; the loader rejects 0.
        cfg = tmp_path / "undamped.yaml"
        cfg.write_text("physics:\n  noise:\n    damping_rate_per_s: 0.0\n")
        out = tmp_path / "runs"
        assert run_cli(["campaign", kind, "--config", str(cfg), "--out", str(out)]) == 1
        assert "physics.noise.damping_rate_per_s must be > 0" in capsys.readouterr().err
        assert not (out / f"{kind}.json").exists()

    @pytest.mark.parametrize("phase", ["7.0", "-7.0", "1.0e+30"])
    def test_reference_phase_outside_the_fit_range_exits_1_at_load(self, phase, tmp_path, capsys):
        # The fit starts at the reference phase and searches [-2 pi, 2 pi], so
        # every command rejects the config before the sampler runs.
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "3"]) == 0
        cfg = tmp_path / "phase.yaml"
        cfg.write_text(f"experiment:\n  reference_phase_rad: {phase}\n")
        out = tmp_path / "out"
        for argv in (["simulate"], ["fit", str(hist_path)], ["campaign", "sensitivity"]):
            assert run_cli([*argv, "--config", str(cfg), "--out", str(out)]) == 1, argv
            assert "reference_phase_rad must lie in [-2 pi, 2 pi]" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--seed", "-1"],
            ["campaign", "calibrate", "--seed", "-1"],
            ["simulate", "--amplitude=-5"],
            ["simulate", "--amplitude=nan"],
            ["simulate", "--amplitude=inf"],
        ],
    )
    def test_bad_argument_exits_1_and_writes_nothing(self, argv, tmp_path):
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", str(out)]) == 1
        assert not out.exists()

    def test_fit_freezing_every_parameter_exits_1(self, tmp_path, capsys):
        hist_path = tmp_path / "hist.txt"
        assert run_cli(["simulate", "--out", str(hist_path), "--seed", "13"]) == 0
        out = tmp_path / "fit.txt"
        argv = ["fit", str(hist_path), "--freeze", ",".join(PARAM_NAMES), "--out", str(out)]
        assert run_cli(argv) == 1
        assert "at least one parameter free" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_campaign_usage_error(self):
        assert run_cli(["campaign", "no-such-campaign", "--out", "/tmp/x"]) == 1

    def test_campaign_calibrate_outputs(self, tmp_path):
        code = run_cli(["campaign", "calibrate", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "calibrate.json").exists()
        assert (tmp_path / "calibrate-summary.txt").exists()
        summary = (tmp_path / "calibrate-summary.txt").read_text()
        assert "force_per_volt" in summary

    def test_campaign_rerun_bit_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for out in (dir_a, dir_b):
            assert run_cli(["campaign", "calibrate", "--out", str(out)]) == 0
        assert (dir_a / "calibrate.json").read_bytes() == (
            dir_b / "calibrate.json"
        ).read_bytes()

    def test_failed_svg_write_keeps_the_old_figure(self, tmp_path):
        # A lone surrogate cannot be encoded as UTF-8, so the write fails
        # after the figure is formatted.
        path = tmp_path / "plot.svg"
        path.write_text("old figure\n", encoding="utf-8")
        plot = LinePlot("\ud800", "x", "y")
        plot.add("series", [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(UnicodeEncodeError):
            plot.write(path)
        assert path.read_text(encoding="utf-8") == "old figure\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_outputs_get_the_mode_of_a_plain_write(self, tmp_path, monkeypatch, umask, mode):
        monkeypatch.setenv("PHONON_SENSOR_OUTDIR", str(tmp_path))
        plot = LinePlot("title", "x", "y")
        plot.add("series", [0.0, 1.0], [0.0, 1.0])
        previous = os.umask(umask)
        try:
            assert run_cli(["campaign", "calibrate"]) == 0
            plot.write(tmp_path / "plot.svg")
        finally:
            os.umask(previous)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
        names = ("calibrate.json", "calibrate.csv", "calibrate-summary.txt", "plot.svg")
        assert modes == dict.fromkeys(names, mode)

    def test_output_directory_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHONON_SENSOR_OUTDIR", str(tmp_path / "env_dir"))
        assert run_cli(["campaign", "calibrate"]) == 0
        assert (tmp_path / "env_dir" / "calibrate.json").exists()

    def test_write_config(self, tmp_path):
        out = tmp_path / "default.yaml"
        assert run_cli(["write-config", "--out", str(out)]) == 0
        with open(out) as fh:
            data = yaml.safe_load(fh)
        assert config_hash(config_from_dict(data)) == config_hash(default_config())

    def test_cheap_paths_import_no_scipy(self, tmp_path):
        # No command loads scipy: the squeeze sweep integrates its envelopes
        # with numpy too.  The lower-bound run uses 2 s gates and 20 trials,
        # which still bracket the transition; the sweep is a short one.
        short = tmp_path / "short.yaml"
        short.write_text(
            "pipeline:\n  gate_time_s: 2.0\nexperiment:\n  lower_bound_trials: 20\n"
            "  squeeze_trials: 4\n  squeeze_periods: 200\n"
        )
        script = f"""
import sys
from phonon_sensor.cli import main
from phonon_sensor.config import load_config

load_config({SHIPPED_CONFIG!r})
out = {str(tmp_path)!r}
assert main(["write-config", "--out", out + "/default.yaml"]) == 0
assert main(["campaign", "calibrate", "--out", out]) == 0
assert main(["campaign", "lower-bound", "--config", {str(short)!r}, "--out", out]) == 0
assert main(["campaign", "sweep-squeeze", "--config", {str(short)!r}, "--out", out]) == 0
assert main(["campaign", "no-such-campaign", "--out", out]) == 1
assert main(["fit", out + "/calibrate.json", "--out", out + "/r.txt"]) == 2
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_fit_paths_import_no_scipy_optimize(self, tmp_path):
        # The fit solves its own least squares and its guess is a linear
        # regression; neither the recovery campaigns' fits and jitter
        # smears, with and without jitter, nor simulate and the CLI fit may
        # load any scipy module or numpy's FFT.
        plain = "pipeline:\n  gate_time_s: 1.0\n"
        experiment = (
            "experiment:\n  amplitude_voltages_mv: [5.0, 10.0, 15.0]\n"
            "  amplitude_trials: 2\n  repetitions: 3\n"
        )
        jittered = plain + "  timing_jitter_us: 0.2\n"
        configs = []
        for name, pipeline in (("plain", plain), ("jittered", jittered)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(pipeline + experiment)
            configs.append(str(path))
        script = f"""
import sys
from phonon_sensor.cli import main

out = {str(tmp_path)!r}
for config in {configs!r}:
    for kind in ("sweep-amplitude", "sensitivity"):
        assert main(["campaign", kind, "--config", config, "--out", out]) == 0
assert main(["simulate", "--out", out + "/hist.txt", "--seed", "3"]) == 0
assert main(["fit", out + "/hist.txt", "--out", out + "/fit.txt"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.fft")))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "phonon_sensor.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "simulate" in result.stdout
