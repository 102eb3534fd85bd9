"""Command-line interface: simulate, fit, and campaign runners.

Data goes to files, progress to stderr.  Exit codes: 0 success, 1 usage or
configuration error, 2 runtime failure, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import replace

from . import experiments
from .config import (
    ConfigError,
    canonicalize,
    config_hash,
    default_config,
    load_config,
    save_config,
)
from .constants import TWO_PI
from .fileio import atomic_write_text as _atomic_write_text
from .fitting import (
    DEFAULT_FROZEN,
    PARAM_NAMES,
    FitModelParams,
    check_starts,
    fit_histogram,
    save_fit_report,
)
from .photons import load_histogram, save_histogram, synthesize_histogram

CAMPAIGNS = ("calibrate", "sweep-amplitude", "sweep-squeeze", "lower-bound", "sensitivity")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_NOT_CONVERGED = 3


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config_arg(path: str | None):
    """The config a command runs: canonical, so that its hash names it."""
    return canonicalize(default_config() if path is None else load_config(path))


def _cmd_simulate(args) -> int:
    config = _load_config_arg(args.config)
    if args.seed is not None:
        config = _override_seed(config, args.seed)
    if args.amplitude is None:
        amplitude = experiments._true_amplitude(config, config.drive.injection_voltage)
    elif math.isfinite(args.amplitude) and args.amplitude >= 0:
        amplitude = args.amplitude * 1e-6
    else:
        raise ConfigError(f"--amplitude must be finite and >= 0, got {args.amplitude}")
    _progress(
        f"simulate: A = {amplitude * 1e6:.3f} um, seed = {config.experiment.seed}"
    )
    hist = synthesize_histogram(
        config.beams,
        amplitude,
        config.experiment.reference_phase,
        config.drive.injection_frequency,
        config.pipeline,
        seed=config.experiment.seed,
        config_hash=config_hash(config),
    )
    save_histogram(hist, args.out)
    _progress(f"simulate: N = {hist.total_counts} photons -> {args.out}")
    return EXIT_OK


def _override_seed(config, seed: int):
    return replace(config, experiment=replace(config.experiment, seed=seed))


def _cmd_fit(args) -> int:
    config = _load_config_arg(args.config)
    hist = load_histogram(args.histogram)
    # The fit takes its frequency from the period; the config must agree.
    if not math.isclose(hist.period, TWO_PI / config.drive.injection_frequency, rel_tol=1e-9):
        raise ConfigError("histogram period differs from 2 pi / configured injection frequency")
    frozen = DEFAULT_FROZEN if args.freeze is None else tuple(
        name for name in args.freeze.split(",") if name
    )
    unknown = set(frozen) - set(PARAM_NAMES)
    if unknown:
        raise ConfigError(f"unknown parameters in --freeze: {sorted(unknown)}")
    if set(frozen) == set(PARAM_NAMES):
        raise ConfigError("--freeze must leave at least one parameter free")
    if args.init is None:
        init = experiments.fit_init(config, hist)
    else:
        try:
            amplitude_um, phase, alpha, beta, sigma_t_us = (
                float(x) for x in args.init.split(",")
            )
            init = FitModelParams(
                amplitude=amplitude_um * 1e-6,
                phase=phase,
                alpha=alpha,
                beta=beta,
                sigma_t=sigma_t_us * 1e-6,
            )
            check_starts([init], hist.period, config.beams)
        except ValueError as exc:
            raise ConfigError(
                f"--init wants amplitude_um,phase,alpha,beta,sigma_t_us: {exc}"
            ) from exc
    result = fit_histogram(hist, config.beams, init=init, frozen=frozen)
    save_fit_report(result, args.out, config_hash=config_hash(config))
    _progress(
        f"fit: A = {result.amplitude * 1e6:.4f} um, phase = {result.phase:.4f} rad, "
        f"converged = {result.converged} -> {args.out}"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _summary_text(summary: dict) -> str:
    lines = ["# phonon-sensor campaign summary v1"]
    for key, value in summary.items():
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _campaign_rows(kind: str, results: dict) -> list[dict]:
    if kind in ("sweep-amplitude", "sweep-squeeze"):
        return results.get("rows", [])
    if kind == "lower-bound":
        rows = []
        for key in ("unsqueezed", "squeezed"):
            section = results[key]
            for v, p in zip(section["voltages_mv"], section["lock_probability"]):
                rows.append(
                    {
                        "configuration": key,
                        "voltage_mv": v,
                        "lock_probability": p,
                        "trials": section["trials"],
                    }
                )
        return rows
    return [results]


def _campaign_summary(kind: str, results: dict) -> dict:
    summary = {k: v for k, v in results.items() if not isinstance(v, (list, dict))}
    if kind == "lower-bound":
        for key in ("unsqueezed", "squeezed"):
            section = results[key]
            summary[f"{key}_critical_voltage_mv"] = section["critical_voltage_mv"]
            summary[f"{key}_critical_force_yn"] = section["critical_force_yn"]
    return summary


def _campaign_svg(kind: str, results: dict, path: str) -> None:
    from .svgfig import LinePlot

    if kind == "sweep-amplitude":
        rows = [r for r in results["rows"] if r["locked"]]
        plot = LinePlot(
            "Oscillation amplitude vs injection voltage",
            "injection voltage (mV)",
            "amplitude (um)",
        )
        plot.add(
            "fitted amplitude",
            [r["voltage_mv"] for r in rows],
            [r["amplitude_um"] for r in rows],
            yerr=[r["amplitude_err_um"] for r in rows],
        )
    elif kind == "sweep-squeeze":
        rows = [r for r in results["rows"] if r["stable"]]
        plot = LinePlot(
            "Relative variance of the displaced quadrature",
            "g cos(2 phi)",
            "var(Y) / var(Y; g=0)",
        )
        xs = [r["gain"] * math.cos(2 * r["phase_rad"]) for r in rows]
        order = sorted(range(len(xs)), key=lambda i: xs[i])
        plot.add(
            "simulation",
            [xs[i] for i in order],
            [rows[i]["sim_ratio_y"] for i in order],
            yerr=[rows[i]["sim_ratio_y_err"] for i in order],
        )
        plot.add(
            "theory",
            [xs[i] for i in order],
            [rows[i]["theory_ratio_y"] for i in order],
            marker=False,
            dashed=True,
        )
    elif kind == "lower-bound":
        plot = LinePlot(
            "Lock probability vs injection voltage",
            "injection voltage (mV)",
            "lock probability",
            logx=True,
        )
        for key in ("unsqueezed", "squeezed"):
            section = results[key]
            plot.add(key, section["voltages_mv"], section["lock_probability"])
    else:
        return
    plot.write(path)



def _cmd_campaign(args) -> int:
    config = _load_config_arg(args.config)
    if args.seed is not None:
        config = _override_seed(config, args.seed)
    out_dir = args.out or config.output.resolve_directory()
    os.makedirs(out_dir, exist_ok=True)
    kind = args.name
    _progress(f"campaign {kind}: seed = {config.experiment.seed}")

    results = experiments.run_campaign(kind, config)
    record = experiments.make_run_record(kind, config, results)

    base = os.path.join(out_dir, kind)
    experiments.persist_run(record, base + ".json")
    rows = _campaign_rows(kind, results)
    if rows:
        _atomic_write_text(base + ".csv", _rows_to_csv(rows))
    _atomic_write_text(base + "-summary.txt", _summary_text(_campaign_summary(kind, results)))
    if config.output.emit_svg:
        _campaign_svg(kind, results, base + ".svg")
    _progress(f"campaign {kind}: outputs in {out_dir}")
    return EXIT_OK


def _cmd_config(args) -> int:
    save_config(default_config(), args.out)
    _progress(f"wrote default configuration to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonon-sensor",
        description="Simulate and analyze the injection-locked ion force sensor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run dynamics + photon pipeline")
    p_sim.add_argument("--config", help="YAML run configuration")
    p_sim.add_argument("--seed", type=int, help="override the experiment seed")
    p_sim.add_argument("--amplitude", type=float, help="oscillation amplitude in um")
    p_sim.add_argument("--out", required=True, help="histogram output path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a stored histogram")
    p_fit.add_argument("histogram", help="histogram file from simulate")
    p_fit.add_argument("--config", help="YAML run configuration")
    p_fit.add_argument(
        "--freeze",
        help="comma list of parameters to hold fixed "
        "(default alpha,beta,sigma_t; empty string frees all)",
    )
    p_fit.add_argument(
        "--init", help="initial amplitude_um,phase,alpha,beta,sigma_t_us"
    )
    p_fit.add_argument("--out", required=True, help="fit report output path")
    p_fit.set_defaults(func=_cmd_fit)

    p_camp = sub.add_parser("campaign", help="run a measurement campaign")
    p_camp.add_argument("name", choices=CAMPAIGNS)
    p_camp.add_argument("--config", help="YAML run configuration")
    p_camp.add_argument("--seed", type=int, help="override the experiment seed")
    p_camp.add_argument("--out", help="output directory")
    p_camp.set_defaults(func=_cmd_campaign)

    p_cfg = sub.add_parser("write-config", help="write the default configuration")
    p_cfg.add_argument("--out", required=True)
    p_cfg.set_defaults(func=_cmd_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        _progress(f"error: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
