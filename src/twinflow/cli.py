"""Command-line entry points: spinup, run, sweep, thresholds, spectrum.

Every compute subcommand takes ``--config`` or ``--preset`` plus
repeatable ``--set section.key=value`` overrides, and writes a manifest
next to its outputs. Exit code 2 signals configuration/usage problems;
nothing is ever partially written silently.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    PRESETS,
    ConfigError,
    apply_overrides,
    parse_config,
    preset_config,
    provenance_info,
    write_config,
)
from .experiment import (
    SWEEP_AXES,
    report_value_text,
    run_experiment,
    sweep,
    sweep_label,
    threshold_report,
)
from .spectral import energy_spectrum
from .stepping import (
    BlowUpError,
    CheckpointError,
    PairState,
    load_checkpoint,
    save_checkpoint,
    spin_up,
)


def _add_config_args(sub: argparse.ArgumentParser):
    sub.add_argument("--config", type=Path, help="config file (INI)")
    sub.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named parameter preset (base for --set; excludes --config)",
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (repeatable)",
    )


def _load_config(args):
    if args.config is None and args.preset is None:
        raise ConfigError("provide --config or --preset")
    if args.config is not None and args.preset is not None:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.config is not None:
        cfg = parse_config(args.config)
    else:
        cfg = preset_config(args.preset)
    return apply_overrides(cfg, args.overrides)


def _cmd_spinup(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out / "manifest.ini", provenance_info())
    psi = spin_up(cfg, cfg.spinup_time, checkpoint_dir=out)
    path = out / "base.ckpt"
    nsteps = cfg.steps(cfg.spinup_time)
    # the clock of the state stepped, not the requested duration
    t = nsteps * cfg.dt
    save_checkpoint(PairState(psi, psi, t, nsteps), cfg.dt, path)
    print(f"spun up {t:g} time units -> {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    series, _ = run_experiment(cfg, output_dir=Path(args.out))
    print(f"recorded {len(series)} samples -> {Path(args.out) / 'series.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None
    if not values:
        raise ConfigError("--values: no values given")
    rows = sweep(cfg, args.axis, values, Path(args.out))
    for row in rows:
        status = row.error if row.error else f"rate={row.rate:.4g}"
        label = sweep_label(row.axis_value)
        print(f"{args.axis}={label}: final_err_h={row.final_err_h:.4g} {status}")
    failed = sum(1 for r in rows if r.error)
    if failed:
        print(f"{failed} of {len(rows)} runs failed", file=sys.stderr)
        return 1
    return 0


def _cmd_thresholds(args) -> int:
    cfg = _load_config(args)
    report = threshold_report(cfg)
    width = max(len(k) for k in report)
    for key, value in report.items():
        print(f"{key:<{width}}  {report_value_text(value, 12)}")
    return 0


def _cmd_spectrum(args) -> int:
    state, _ = load_checkpoint(args.checkpoint)
    shells = energy_spectrum(state.psi1)
    out = Path(args.out) if args.out else None
    lines = ["shell,energy"]
    lines += [f"{m},{e:.17g}" for m, e in enumerate(shells)]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
        print(f"wrote {len(shells)} shells -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinflow",
        description="Pseudo-spectral coupled-pair simulator for 2D incompressible flow",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("spinup", help="produce an initial checkpoint from zero data")
    _add_config_args(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_spinup)

    sub = subs.add_parser("run", help="run a single experiment")
    _add_config_args(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_run)

    sub = subs.add_parser("sweep", help="run a parameter sweep")
    _add_config_args(sub)
    sub.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sub.add_argument("--values", required=True, help="comma-separated axis values")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("thresholds", help="print cutoff/relaxation bounds for a config")
    _add_config_args(sub)
    sub.set_defaults(func=_cmd_thresholds)

    sub = subs.add_parser("spectrum", help="emit the shell energy spectrum of a checkpoint")
    sub.add_argument("--checkpoint", required=True, help="checkpoint file")
    sub.add_argument("--out", help="output CSV (default: stdout)")
    sub.set_defaults(func=_cmd_spectrum)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
