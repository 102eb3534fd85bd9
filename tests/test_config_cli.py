import copy
import math
import os
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
from phonon_sensor.fitting import load_fit_report
from phonon_sensor.photons import TacHistogram, load_histogram, save_histogram

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
    elif kind == "bin-width-over-period":
        # The folding period at the default 186.02 kHz is 5375.8 ns.
        data["pipeline"]["bin_width_ns"] = draw(st.floats(5376.0, 1e12))
    elif kind == "free-running-amplitude":
        value = draw(st.one_of(NON_POSITIVE, st.just(math.inf)))
        data["physics"]["free_running_amplitude_um"] = value
    elif kind == "unsorted-voltages":
        voltages = draw(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8, unique=True))
        assume(voltages != sorted(voltages))
        data["experiment"]["lower_bound_voltages_mv"] = voltages
    elif kind == "unknown-key":
        node = _node(data, draw(st.sampled_from(SECTIONS)))
        key = draw(st.text(string.ascii_lowercase + "_", min_size=1).filter(lambda k: k not in node))
        node[key] = 1.0
    elif kind == "non-mapping":
        value = draw(st.one_of(st.integers(), st.text(string.ascii_letters), st.lists(st.integers())))
        _set(data, draw(st.sampled_from(SECTIONS[1:])), value)
    elif kind == "empty-beams":
        data["physics"]["beams"] = []
    elif kind == "nan":
        path = draw(st.sampled_from(FLOAT_KEYS))
        value = _node(data, path)
        if isinstance(value, list):
            value[draw(st.integers(0, len(value) - 1))] = math.nan
        else:
            _set(data, path, math.nan)
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
    "bin-width-over-period",
    "free-running-amplitude",
    "unsorted-voltages",
    "unknown-key",
    "non-mapping",
    "empty-beams",
    "nan",
    "non-boolean",
    "non-integer",
)


class TestConfigProperties:
    @FEW
    @given(perturbed_defaults())
    def test_dict_round_trip_is_identity(self, data):
        assert config_to_dict(config_from_dict(copy.deepcopy(data))) == data

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
        (campaign,) = experiments._recover_amplitudes(load_config(cfg), 24.4e-6, [2])
        assert load_fit_report(report_path).amplitude == campaign

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

    def test_fit_flat_histogram_is_runtime_error(self, tmp_path):
        period = TWO_PI / default_config().drive.injection_frequency
        flat = TacHistogram(bin_width=10e-9, period=period, counts=[100] * 538, gate_time=10.0)
        save_histogram(flat, tmp_path / "flat.txt")
        code = run_cli(["fit", str(tmp_path / "flat.txt"), "--out", str(tmp_path / "r.txt")])
        assert code == 2

    def test_sweep_drops_flat_histograms(self, tmp_path):
        # 1 s gates with 0.3 us jitter smear the 5 and 7.5 mV histograms
        # below the flatness test: at the default seed 3 of their 4 trials.
        cfg = tmp_path / "flat.yaml"
        cfg.write_text("pipeline:\n  gate_time_s: 1.0\n  timing_jitter_us: 0.3\n")
        out = tmp_path / "runs"
        code = run_cli(["campaign", "sweep-amplitude", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        trials = {
            row["voltage_mv"]: row["trials"]
            for row in experiments.load_run(out / "sweep-amplitude.json")["results"]["rows"]
        }
        assert trials == {5.0: 1, 7.5: 1, 10.0: 4, 12.5: 4, 15.0: 4, 18.25: 4}

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

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "phonon_sensor.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "simulate" in result.stdout
