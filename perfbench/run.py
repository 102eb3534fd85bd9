"""Campaign benchmark of phonon-sensor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's rounds of ``phonon_sensor.cli.main(["campaign", ...])``
calls from the root of a source checkout, checks every run record against
quantities computed apart from the program, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer ones.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

import yaml  # noqa: E402

from perfbench import tracing, truth, workloads  # noqa: E402

SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh interpreters timed per run for setup_s, after one untimed start
# that fills the bytecode and file caches; the median is reported.
SETUP_STARTS = 3
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import sys, phonon_sensor.cli; from phonon_sensor.config import load_config; "
    "load_config(sys.argv[1])"
)

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Round:
    tracer: tracing.Tracer | None  # None for an untraced round
    wall_s: float = 0.0
    cpu_s: float = 0.0
    bytes_written: int = 0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # unexpected failures
    known: list[str] = field(default_factory=list)  # documented faults seen


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            commit = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def _import_program() -> dict:
    """Import the checkout's package and return its modules by name."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import phonon_sensor
    from phonon_sensor import cli, experiments, fitting, photons, physics

    if SOURCE not in Path(phonon_sensor.__file__).resolve().parents:
        raise RuntimeError(f"imported {phonon_sensor.__file__}, not the package under {SOURCE}")
    return {
        "cli": cli,
        "experiments": experiments,
        "fitting": fitting,
        "photons": photons,
        "physics": physics,
    }


def measure_setup(config_path: Path, starts: int) -> float:
    """Median wall time for a fresh interpreter to import the package and
    load a configuration."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    times = []
    for i in range(starts + 1):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config_path)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        if i:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def check_photon_budget(modules, workload, paths) -> list[str]:
    """Total counts of a few histograms drawn outside the timed pass."""
    load_config = modules["cli"].load_config
    synthesize = modules["photons"].synthesize_histogram
    raw_configs = {op.label: op.config for op in workload.ops}
    problems = []
    for label, seed in workload.budget_draws:
        raw = raw_configs[label]
        config = load_config(str(paths[label]))
        amplitude = truth.true_amplitude_um(raw, raw["physics"]["drive"]["injection_voltage_mv"])
        hist = synthesize(
            config.beams,
            amplitude * 1e-6,
            config.experiment.reference_phase,
            config.drive.injection_frequency,
            config.pipeline,
            seed=seed,
        )
        mean, sd = truth.expected_counts(raw, amplitude)
        if abs(hist.total_counts - mean) > truth.COUNT_TOLERANCE * sd:
            problems.append(
                f"{label}: {hist.total_counts} counts, expected {mean:.0f} +/- {sd:.0f}"
            )
    return problems


def _check_op(modules, op, out_dir: Path, rc: int, first_records: dict) -> list[tuple[str, str]]:
    """(check, message) for every check the operation fails."""
    if rc != 0:
        return [("exit-code", f"campaign exited with {rc}")]
    path = out_dir / f"{op.kind}.json"
    try:
        record = modules["experiments"].load_run(path)
    except (ValueError, OSError) as exc:
        return [("record", str(exc))]
    failures = []
    data = path.read_bytes()
    if first_records.setdefault(op.label, data) != data:
        failures.append(("reproducible", "run record differs from the first pass"))
    if record.get("kind") != op.kind or record.get("seed") != op.config["experiment"]["seed"]:
        failures.append(("record", f"record holds {record.get('kind')} seed {record.get('seed')}"))
    for name in op.checks:
        failures += [(name, message) for message in truth.CHECKS[name](op.config, record["results"])]
    return failures


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    setup_starts: int = SETUP_STARTS,
) -> dict:
    """Run one workload and return the result object (plus diagnostics)."""
    workload = workloads.build(name, seed, scale)
    work = WORK / f"{name}-{scale}"
    shutil.rmtree(work, ignore_errors=True)
    paths, outs = {}, {}
    for op in workload.ops:
        paths[op.label] = work / "configs" / f"{op.label}.yaml"
        outs[op.label] = work / "out" / op.label
        paths[op.label].parent.mkdir(parents=True, exist_ok=True)
        outs[op.label].mkdir(parents=True, exist_ok=True)
        paths[op.label].write_text(yaml.safe_dump(op.config, sort_keys=False), encoding="utf-8")

    setup_s = None if trace else measure_setup(paths[workload.ops[0].label], setup_starts)
    modules = _import_program()
    outcome = Outcome()
    outcome.problems += check_photon_budget(modules, workload, paths)

    first_records: dict[str, bytes] = {}
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        current = Round(tracing.Tracer() if traced else None)
        for op in workload.ops:
            argv = ["campaign", op.kind, "--config", str(paths[op.label]), "--out", str(outs[op.label])]
            with tracing.installed(current.tracer, modules) if traced else nullcontext():
                cpu0, t0 = _cpu_s(), perf_counter()
                rc = modules["cli"].main(argv)
                current.wall_s += perf_counter() - t0
                current.cpu_s += _cpu_s() - cpu0
            current.bytes_written += _dir_bytes(outs[op.label])
            failures = _check_op(modules, op, outs[op.label], rc, first_records)
            outcome.attempted += 1
            if failures:
                outcome.failed += 1
                for check, message in failures:
                    entry = f"{op.label} [{check}] {message}"
                    (outcome.known if check == op.known_fault else outcome.problems).append(entry)
        rounds.append(current)
        # Whole rounds until --seconds have passed; a traced run ends on a
        # traced round, so it holds as many traced as untraced rounds.
        if perf_counter() - start >= seconds and (not trace or len(rounds) % 2 == 0):
            break

    plain = [r for r in rounds if r.tracer is None]
    campaign_s = statistics.median(r.wall_s for r in plain)
    if trace:
        traced_rounds = [r for r in rounds if r.tracer is not None]
        per_round = [tracing.layer_metrics(r.tracer) for r in traced_rounds]
        values = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        values["cli.bytes_written"] = traced_rounds[0].bytes_written
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced_rounds) - campaign_s
        traced_rounds[-1].tracer.dump(work / "trace.json")
        metrics = {
            key: {"value": values[key], "unit": unit}
            for key, (unit, _) in tracing.LAYER_METRICS.items()
        }
    else:
        values = {
            "setup_s": setup_s,
            "campaign_s": campaign_s,
            "items_per_s": workload.items_per_round / campaign_s,
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "problems": outcome.problems,
        "known_faults": sorted(set(outcome.known)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "phonon_sensor" / "__init__.py").is_file():
        print(f"error: no phonon_sensor package under {SOURCE}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("problems") + result.pop("known_faults"):
        print(f"check: {line}", file=sys.stderr)
    rounds = result.pop("rounds")
    print(json.dumps({"environment": _environment(), "workload": args.workload, "seed": args.seed, "rounds": rounds}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
