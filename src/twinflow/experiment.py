"""Batch experiment harness: initialization protocols, error series, sweeps.

A run prepares an initial pair (projection-matched, decorrelated, or from
checkpoints), advances the coupled system to ``t_end``, and records the
velocity-level error split into observed (|k| <= N) and unobserved modes.
Outputs are plain files: an error-series CSV, a final checkpoint, and a
manifest sufficient to reproduce the CSVs bit-exactly on the same
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, provenance_info, write_config
from .coupling import (
    threshold_degenerate_sync,
    threshold_mutual_nudge,
    threshold_mutual_sync,
    threshold_symmetric_nudge,
)
from .forcing import grashof, make_band_forcing
from .spectral import (
    PARSEVAL_FACTOR,
    SpectralGrid,
    low_block,
    project_low,
    weighted_power,
)
from .stepping import (
    PairState,
    advance,
    decorrelate,
    load_checkpoint,
    save_checkpoint,
    spin_up,
)

__all__ = [
    "SWEEP_AXES",
    "ErrorRecord",
    "RateFit",
    "SweepRow",
    "prepare_initial_pair",
    "run_experiment",
    "error_record",
    "fit_decay_rate",
    "sweep",
    "sweep_label",
    "write_series_csv",
    "read_series_csv",
    "threshold_report",
]

# err_h over |u| = sqrt(energy1) of a pair equal to double precision: 2e-17
# to 3e-17 on the desk preset, so the floor is over three decades above it.
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class ErrorRecord:
    """One time sample of the pair discrepancy, velocity-level norms."""

    t: float
    err_h: float
    err_v: float
    err_low: float
    err_high: float
    energy1: float
    energy2: float


# series.csv's header: the record's fields, in order
CSV_COLUMNS = tuple(f.name for f in fields(ErrorRecord))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against time over a window."""

    rate: float
    window: tuple[float, float]
    r_squared: float
    stderr: float


def error_record(state: PairState, cutoff: float) -> ErrorRecord:
    """Velocity-space error norms of a pair state.

    Streamfunction differences map to velocity norms with one extra
    power of |k|; err_low^2 + err_high^2 = err_h^2 by construction. The
    sums run over the state's blocks with the grid's ``block_weights``: a
    state is zero outside its blocks (also where the cutoff ball reaches
    past them), so they are exact and no lattice is rebuilt.
    """
    p1, p2, grid = state.psi1.block, state.psi2.block, state.grid
    weights, ksq = grid.block_weights, grid.block_ksq
    in_low, in_high = _split_masks(grid, cutoff)
    # |k|^2 |psi_k|^2 = velocity energy density, mirror modes included
    parts = (p1 - p2).view(np.float64)
    parts *= parts
    wdiff = parts[:, ::2] + parts[:, 1::2]
    wdiff *= weights
    # summed apart: high = total - low would be roundoff once low dominates
    low, high = float(wdiff[in_low].sum()), float(wdiff[in_high].sum())
    return ErrorRecord(
        t=state.t,
        err_h=PARSEVAL_FACTOR * math.sqrt(low + high),
        err_v=PARSEVAL_FACTOR * math.sqrt(float(np.vdot(ksq, wdiff))),
        err_low=PARSEVAL_FACTOR * math.sqrt(low),
        err_high=PARSEVAL_FACTOR * math.sqrt(high),
        energy1=PARSEVAL_FACTOR**2 * weighted_power(weights, p1),
        energy2=PARSEVAL_FACTOR**2 * weighted_power(weights, p2),
    )


@lru_cache(maxsize=16)
def _split_masks(grid: SpectralGrid, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """The block's modes inside the ball ``|k| <= cutoff`` (``low_block``)
    and outside it (read-only, built once per grid and cutoff)."""
    inside = low_block(grid, cutoff)
    outside = ~inside
    outside.setflags(write=False)
    return inside, outside


def prepare_initial_pair(cfg: ExperimentConfig) -> PairState:
    """Build the initial pair per the configured protocol (a reference
    state spun up or read from ``base_checkpoint``, or two checkpoints)."""
    if cfg.init_kind == "checkpoints":
        if not cfg.checkpoint1 or not cfg.checkpoint2:
            raise FileNotFoundError(
                "init mode 'checkpoints' requires checkpoint1 and checkpoint2 paths"
            )
        s1, _ = load_checkpoint(cfg.checkpoint1, cfg.grid)
        s2, _ = load_checkpoint(cfg.checkpoint2, cfg.grid)
        return PairState(s1.psi1, s2.psi1)
    if cfg.base_checkpoint:
        psi1 = load_checkpoint(cfg.base_checkpoint, cfg.grid)[0].psi1
    else:
        psi1 = spin_up(cfg, cfg.spinup_time)
    if cfg.init_kind == "projected_low":
        psi2 = project_low(psi1, cfg.coupling.cutoff)
    else:  # decorrelated
        psi2 = decorrelate(psi1, cfg, cfg.decorrelate_time)
    return PairState(psi1, psi2)


def run_experiment(
    cfg: ExperimentConfig,
    initial: Optional[PairState] = None,
    output_dir: Optional[Path] = None,
) -> tuple[list[ErrorRecord], PairState]:
    """Advance the pair to t_end, recording at step 0 and every
    ``record_every`` steps.

    With an output directory, writes ``series.csv``, ``final.ckpt`` and
    ``manifest.ini``. On blow-up the partial series is written before the
    error propagates, and no ``final.ckpt`` is. A cutoff beyond the
    resolved band raises ``ConfigError`` before anything is made.
    """
    cfg.check_cutoff()
    state = prepare_initial_pair(cfg) if initial is None else initial
    nsteps = cfg.steps(cfg.t_end)
    cutoff = cfg.coupling.cutoff

    out = Path(output_dir) if output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_config(cfg, out / "manifest.ini", provenance_info())
    series = [error_record(state, cutoff)]
    try:
        state = advance(
            state, cfg, nsteps,
            lambda s: series.append(error_record(s, cutoff)), cfg.record_every,
        )
    finally:
        if out is not None:
            write_series_csv(series, out / "series.csv")
    if out is not None:
        save_checkpoint(state, cfg.dt, out / "final.ckpt")
    return series, state


def write_series_csv(series: Iterable[ErrorRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in series:
            fh.write(
                ",".join(f"{getattr(rec, col):.17g}" for col in CSV_COLUMNS) + "\n"
            )


def read_series_csv(path) -> list[ErrorRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected series CSV header in {path}: {header}")
        for line in fh:
            values = [float(v) for v in line.strip().split(",")]
            records.append(ErrorRecord(*values))
    return records


def fit_decay_rate(
    series: Sequence[ErrorRecord],
    window: Optional[tuple[float, float]] = None,
    field: str = "err_h",
) -> RateFit:
    """Slope of ln(error) vs t by least squares; negative = synchronizing.

    The default window is the last half (skipping the transient) of the
    decaying segment: the records up to the last one whose error exceeds
    ``ROUNDOFF_FLOOR * sqrt(energy1)``. Past it the error sits at
    roundoff, whose slope is not a rate. A series that never falls to the
    floor fits its last half. All samples in the window must be strictly
    positive.
    """
    if window is None:
        above = [r.t for r in series
                 if getattr(r, field) > ROUNDOFF_FLOOR * math.sqrt(r.energy1)]
        t0, t1 = series[0].t, above[-1] if above else series[-1].t
        window = (0.5 * (t0 + t1), t1)
    lo, hi = window
    samples = [(r.t, getattr(r, field)) for r in series if lo <= r.t <= hi]
    if len(samples) < 10:
        raise ValueError(
            f"need at least 10 samples in window [{lo:g}, {hi:g}], got {len(samples)}"
        )
    if any(v <= 0.0 for _, v in samples):
        raise ValueError(
            "nonpositive error samples in fit window; shrink the window to "
            "the decaying segment"
        )
    t = np.array([s[0] for s in samples])
    y = np.log([s[1] for s in samples])
    tbar, ybar = t.mean(), y.mean()
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - ybar)) / stt)
    resid = y - (ybar + slope * (t - tbar))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = len(samples) - 2
    stderr = math.sqrt(ss_res / dof / stt) if dof > 0 else float("inf")
    return RateFit(slope, window, r2, stderr)


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    final_err_h: float
    rate: float
    r_squared: float
    verdicts: str
    error: str = ""


SWEEP_AXES = ("theta1", "mu2", "cutoff")


def _with_axis_value(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    return replace(cfg, coupling=replace(cfg.coupling, **{axis: value}))


def threshold_report(cfg: ExperimentConfig) -> dict[str, float | str | bool]:
    """Evaluate every cutoff/relaxation bound applicable to the config.

    Values are advisory scale estimates: the interpolation constants
    default to 1.0.
    """
    cfg.check_cutoff()
    f1 = make_band_forcing(cfg.forcing, cfg.grid, cfg.nu)
    f2 = f1 if cfg.forcing2 is None else make_band_forcing(cfg.forcing2, cfg.grid, cfg.nu)
    g1, g2 = grashof(f1, cfg.nu), grashof(f2, cfg.nu)
    g = math.hypot(g1, g2)  # pair magnitude
    spec = cfg.coupling
    report: dict[str, float | str | bool] = {
        "variant": spec.variant,
        "cutoff": spec.cutoff,
        "grashof_1": g1,
        "grashof_2": g2,
    }
    if spec.variant == "mutual_sync":
        glam = grashof((1.0 - spec.theta1) * f1 + spec.theta1 * f2, cfg.nu)
        n_star = threshold_mutual_sync(glam, spec.theta1, cfg.c_lad, cfg.c_agmon)
        report.update(
            {"grashof_lambda": glam, "n_star": n_star, "cutoff_ok": spec.cutoff >= n_star}
        )
    elif spec.variant == "degenerate_sync":
        n_star = threshold_degenerate_sync(max(g1, g2), cfg.c_lad, cfg.c_sob)
        report.update({"n_star": n_star, "cutoff_ok": spec.cutoff >= n_star})
    elif spec.variant == "mutual_nudge":
        if min(spec.mu1, spec.mu2) > 0:
            n_assisted, n_unassisted = threshold_mutual_nudge(
                spec.mu1, spec.mu2, g, c_lad=cfg.c_lad
            )
            # the mu1 + mu2 window
            lo = (4.0 / 3.0) * (n_unassisted * n_unassisted) * cfg.nu
            hi = (4.0 / 3.0) * (spec.cutoff * spec.cutoff) * cfg.nu
            report.update(
                {
                    "n_assisted": n_assisted,
                    "n_unassisted": n_unassisted,
                    "mu_band_low": lo,
                    "mu_band_high": hi,
                    "mu_sum": spec.mu1 + spec.mu2,
                    "mu_sum_ok": lo <= spec.mu1 + spec.mu2 <= hi,
                    "cutoff_ok": spec.cutoff >= n_unassisted,
                }
            )
        else:
            report["note"] = "degenerate ratio (a zero strength); ratio bounds undefined"
    elif spec.variant == "symmetric_nudge":
        n_a, n_b = threshold_symmetric_nudge(spec.mu1, spec.mu2, g, cfg.nu, cfg.c_lad)
        # closed windows
        total, hi = spec.mu1 + spec.mu2, 0.25 * (spec.cutoff * spec.cutoff) * cfg.nu
        report["n_a"] = n_a
        report["mu_constraint_a"] = 0.25 * (n_a * n_a) * cfg.nu <= total <= hi
        report["cutoff_ok"] = spec.cutoff >= n_a
        if n_b is not None:
            report["n_b"] = n_b
            report["mu_constraint_b"] = 0.25 * (n_b * n_b) * cfg.nu <= total <= hi
    return report


def report_value_text(value, digits: int) -> str:
    """A threshold-report value as text: a bool as yes or no, a float to
    ``digits`` significant digits, anything else as it prints."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _verdict_string(cfg: ExperimentConfig) -> str:
    return "; ".join(f"{key}={report_value_text(value, 6)}"
                     for key, value in threshold_report(cfg).items()
                     if key not in ("variant", "cutoff"))


def sweep_label(value: float) -> str:
    """Shortest round-trip text of a sweep value, without a trailing ``.0``:
    distinct values get distinct run directories."""
    return repr(float(value)).removesuffix(".0")


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: Sequence[float],
    output_dir: Optional[Path] = None,
) -> list[SweepRow]:
    """Run one experiment per axis value; failures do not stop the sweep.

    The initial pair is prepared once from the base config and shared; a
    cutoff sweep with projection-matched init gives each run the low modes
    of the shared reference at its own cutoff. Each value
    names its run directory (``sweep_label``), so a repeated value raises
    ``ConfigError`` before anything is made, as does a base cutoff beyond
    the resolved band (an axis value beyond it fails its row).
    """
    cfg.check_cutoff()
    labels = [sweep_label(value) for value in values]
    if len(set(labels)) < len(labels):
        raise ConfigError("sweep values: a value is repeated")
    rows: list[SweepRow] = []
    out = Path(output_dir) if output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    base_pair = prepare_initial_pair(cfg) if values else None
    for value, label in zip(values, labels):
        run_out = out / f"{axis}_{label}" if out is not None else None
        try:
            run_cfg = _with_axis_value(cfg, axis, float(value))
            initial = base_pair
            if axis == "cutoff" and cfg.init_kind == "projected_low":
                psi1 = base_pair.psi1
                initial = PairState(psi1, project_low(psi1, float(value)))
            series, _ = run_experiment(run_cfg, initial, run_out)
            fit = fit_decay_rate(series)
            rows.append(
                SweepRow(
                    float(value),
                    series[-1].err_h,
                    fit.rate,
                    fit.r_squared,
                    _verdict_string(run_cfg),
                )
            )
        except Exception as exc:  # per-run isolation is the point of a sweep
            rows.append(
                SweepRow(float(value), math.nan, math.nan, math.nan, "", str(exc))
            )
    if out is not None:
        write_summary_csv(rows, axis, out / "summary.csv")
    return rows


def write_summary_csv(rows: Sequence[SweepRow], axis: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{axis},final_err_h,rate,r_squared,verdicts,error\n")
        for row in rows:
            verdicts = row.verdicts.replace(",", ";")
            error = row.error.replace(",", ";").replace("\n", " ")
            fh.write(
                f"{row.axis_value:.17g},{row.final_err_h:.17g},{row.rate:.17g},"
                f"{row.r_squared:.17g},{verdicts},{error}\n"
            )
