"""The four benchmark workloads: seeded inputs, the timed operation, the checks.

Inputs are made with numpy alone, before anything is timed: base and
partner states as version-1 checkpoint files and INI configs in the
program's schema. The program only ever sees those files. Each workload
process (see ``worker.py``) parses the config through ``twinflow.config``,
runs a fixed amount of work, and afterwards checks its outputs.

Why each workload exists:

* ``desk128_sweep`` - the paper's central experiment (a ``theta1`` sweep of
  mutual synchronization) at desk scale. The step is dominated by FFT
  arithmetic, and the whole harness output path runs. The pair
  synchronizes, and the observed-mode error must stay at roundoff, which
  makes the check sharp. It records every 10 steps, as the desk preset
  does, to t = 1: the sweep's decay fit needs 10 records in its window,
  the last half of the run.
* ``paper512_pair`` - paper-text parameters at 512^2: the largest
  transforms, little per-call overhead, and 16 MiB of checkpoints read at
  set-up. Allocation and memory traffic matter here. It records every 5
  steps, where the paper-text preset records every 100.
* ``small32_nudge`` - 32^2 mutual nudging with a record every step: the
  per-call-overhead regime. It takes the state-relaxation coupling branch,
  and ``error_record`` runs every step.
* ``spinup128_ckpt`` - the single-system spin-up path from zero, writing a
  rolling checkpoint every 20 steps, so checkpoint writes show in wall time.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

# Forcing band |k|^2 in [10, 12]: every lattice mode in it has |k|^2 = 10.
BAND_LOW, BAND_HIGH = 10, 12

# Version-1 checkpoint: magic, version, resolution, dt, t, step, then both
# coefficient arrays as little-endian complex128, then CRC32 of the rest.
_CKPT_HEADER = struct.Struct("<8sIIddQ")


def absorbing_radius(nu: float, grashof: float, n: int) -> float:
    """rho_0 = nu * sigma_{-1} * G for the unit-magnitude band force.

    sigma_{-1} = |A^{-1/2} f| / |f| reduces to sqrt(mean 1/|k|^2) over the
    band modes because every band mode has the same magnitude. Computed
    here independently of the program, as the oracle for energy checks.
    """
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    ksq = kx * kx + ky * ky
    band = (ksq >= BAND_LOW) & (ksq <= BAND_HIGH)
    band &= (np.abs(kx) <= n / 3.0) & (np.abs(ky) <= n / 3.0)
    return nu * grashof * math.sqrt(float(np.mean(1.0 / ksq[band])))


def initial_velocity_norm(nu: float, dt: float, grashof: float, n: int) -> float:
    """|u_0| for a generated state: inside the absorbing ball and step-stable.

    Linearised, the integrating-factor Euler step damps a mode by
    exp(-nu |k|^2 dt) and amplifies it by sqrt(1 + (dt |u| |k|)^2), which
    bounds |u| by about sqrt(2 nu / dt) at every |k|. Take a factor sqrt(2)
    below that, and never more than 0.1 rho_0. At 512^2 paper-text
    parameters a 0.1 rho_0 state blows up within 40 steps.
    """
    return min(0.1 * absorbing_radius(nu, grashof, n), math.sqrt(nu / dt))


def random_state(n: int, u_norm: float, rng: np.random.Generator) -> np.ndarray:
    """Dealiased, mean-free, Hermitian streamfunction coefficients.

    Gaussian coefficients shaped to |psi_k| ~ |k|^-2.5 (velocity shell
    spectrum ~ k^-2), scaled so that |u| = u_norm.
    """
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    ksq = kx * kx + ky * ky
    keep = (np.abs(kx) <= n / 3.0) & (np.abs(ky) <= n / 3.0) & (ksq > 0)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = np.where(keep, noise * np.where(ksq > 0, ksq, 1.0) ** -1.25, 0.0)
    idx = (-np.arange(n)) % n
    c = 0.5 * (c + np.conj(c[np.ix_(idx, idx)]))
    c[0, 0] = 0.0
    norm = 2.0 * np.pi * math.sqrt(float(np.sum(ksq * np.abs(c) ** 2)))
    return c * (u_norm / norm)


def write_checkpoint(path: Path, psi1: np.ndarray, psi2: np.ndarray, dt: float):
    """Write a version-1 checkpoint at t = 0, step 0, in the documented layout."""
    n = psi1.shape[0]
    blob = bytearray(_CKPT_HEADER.pack(b"INTWNSE1", 1, n, dt, 0.0, 0))
    for arr in (psi1, psi2):
        blob += np.ascontiguousarray(arr, dtype="<c16").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


def config_text(p: dict) -> str:
    """INI config in the program's schema from a flat parameter dict."""
    lines = [
        "[sim]",
        f"resolution = {p['n']}",
        f"nu = {p['nu']!r}",
        f"dt = {p['dt']!r}",
        f"t_end = {p.get('t_end', 0.0)!r}",
        "[forcing]",
        f"band_low = {BAND_LOW}",
        f"band_high = {BAND_HIGH}",
        f"grashof = {p['grashof']!r}",
        f"seed = {p['seed']}",
        "[intertwinement]",
    ]
    for key in ("variant", "cutoff", "theta1", "mu1", "mu2"):
        if key in p:
            lines.append(f"{key} = {p[key]}")
    lines.append("[experiment]")
    for key in ("init", "record_every", "base_checkpoint", "checkpoint1",
                "checkpoint2", "spinup_time", "checkpoint_every"):
        if key in p:
            lines.append(f"{key} = {p[key]}")
    return "\n".join(lines) + "\n"


# --- output checks (run inside the workload process, after timing) -------------


def synchronized_low_error(tw, cfg, t: np.ndarray) -> np.ndarray:
    """err_low(t) that mutual synchronization must produce.

    With theta1 + theta2 = 1 the coupling cancels the observed part of the
    nonlinear difference, so each low mode of psi1 - psi2 only decays by
    exp(-nu |k|^2 t). A projection-matched pair starts with no low-mode
    difference, so its err_low stays zero.
    """
    if cfg.init_kind != "checkpoints":
        return np.zeros_like(t)
    first = [np.asarray(tw.stepping.load_checkpoint(path)[0].psi1.coeffs)
             for path in (cfg.checkpoint1, cfg.checkpoint2)]
    d = first[0] - first[1]
    n = d.shape[0]
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    ksq = kx * kx + ky * ky
    low = np.sqrt(ksq) <= cfg.coupling.cutoff
    w, kl = ksq[low] * np.abs(d[low]) ** 2, ksq[low]
    return np.array([2.0 * np.pi * math.sqrt(float(np.sum(w * np.exp(-2.0 * cfg.nu * kl * ti))))
                     for ti in t])


def read_series(tw, path: Path) -> dict[str, np.ndarray]:
    """series.csv as one array per column, read by the program's own reader."""
    rows = tw.experiment.read_series_csv(path)
    return {name: np.array([getattr(r, name) for r in rows], dtype=float)
            for name in tw.experiment.CSV_COLUMNS}


def read_summary_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def log_slope(t: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ln(values) against t over the last half."""
    late = t >= 0.5 * (t[0] + t[-1])
    return float(np.polyfit(t[late], np.log(values[late]), 1)[0])


def check_run_dir(tw, out: Path, cfg, rho0: float) -> tuple[dict, list[str]]:
    """Checks shared by every coupled run; returns the series and failures."""
    problems = []
    series = read_series(tw, out / "series.csv")
    nsteps = int(round(cfg.t_end / cfg.dt))
    rows = nsteps // cfg.record_every + 1
    if len(series["t"]) != rows:
        problems.append(f"series has {len(series['t'])} rows, expected {rows}")
    if not all(np.isfinite(col).all() for col in series.values()):
        problems.append("non-finite series value")
    if abs(series["t"][-1] - cfg.t_end) > 1e-6 * max(cfg.t_end, 1.0):
        problems.append(f"series ends at t={series['t'][-1]!r}, not {cfg.t_end!r}")
    # The energy inequality keeps |u|^2 inside rho_0^2 once inside.
    top = max(series["energy1"].max(), series["energy2"].max())
    if not top <= rho0**2 * (1.0 + 1e-9):
        problems.append(f"energy {top:.6g} outside absorbing ball {rho0**2:.6g}")
    if cfg.coupling.variant == "mutual_sync":
        expected = synchronized_low_error(tw, cfg, series["t"])
        scale = expected + math.sqrt(series["energy1"][0])
        worst = float(np.max(np.abs(series["err_low"] - expected) / scale))
        if not worst <= 1e-9:
            problems.append(f"err_low departs from viscous decay by {worst:.3g} of |u|")
    state, dt = tw.stepping.load_checkpoint(out / "final.ckpt")
    if state.step_index != nsteps or dt != cfg.dt:
        problems.append(f"final.ckpt at step {state.step_index}, dt {dt!r}")
    energy = tw.spectral.norm_hn(state.psi1, 1) ** 2
    if not math.isclose(energy, series["energy1"][-1], rel_tol=1e-9):
        problems.append("final.ckpt energy differs from the last series row")
    if tw.config.parse_config(out / "manifest.ini") != cfg:
        problems.append("manifest.ini does not re-parse to the run's config")
    return series, problems


def _params(base: dict, seed: int, **extra) -> dict:
    p = dict(base, seed=seed)
    p.update(extra)
    return p


class Workload:
    name = ""
    ops_per_process = 1
    params: dict = {}

    @property
    def rho0(self) -> float:
        p = self.params
        return absorbing_radius(p["nu"], p["grashof"], p["n"])

    @property
    def u0(self) -> float:
        p = self.params
        return initial_velocity_norm(p["nu"], p["dt"], p["grashof"], p["n"])

    def nsteps(self) -> int:
        """Steps per workload process, all operations together."""
        p = self.params
        horizon = p.get("t_end", p.get("spinup_time"))
        return self.ops_per_process * int(round(horizon / p["dt"]))

    def write_pair_inputs(self, seed: int, inputs: Path):
        p = self.params
        rng = np.random.default_rng([seed, 1])
        a = random_state(p["n"], self.u0, rng)
        b = random_state(p["n"], self.u0, rng)
        for name, psi in (("ckpt1.ckpt", a), ("ckpt2.ckpt", b)):
            write_checkpoint(inputs / name, psi, psi, p["dt"])
        text = config_text(_params(p, seed, init="checkpoints",
                                   checkpoint1=inputs.resolve() / "ckpt1.ckpt",
                                   checkpoint2=inputs.resolve() / "ckpt2.ckpt"))
        (inputs / "config.ini").write_text(text)


class DeskSweep(Workload):
    name = "desk128_sweep"
    thetas = (0.25, 0.5, 0.75)
    ops_per_process = len(thetas)
    params = dict(n=128, nu=0.005, dt=0.005, grashof=1.0e4, t_end=1.0,
                  variant="mutual_sync", cutoff=20.0, theta1=0.5,
                  init="projected_low", record_every=10)

    def write_inputs(self, seed: int, inputs: Path):
        p = self.params
        psi = random_state(p["n"], self.u0, np.random.default_rng([seed, 0]))
        write_checkpoint(inputs / "base.ckpt", psi, psi, p["dt"])
        text = config_text(_params(p, seed, base_checkpoint=inputs.resolve() / "base.ckpt"))
        (inputs / "config.ini").write_text(text)

    def run(self, tw, cfg, out: Path, clock):
        clock.hook_records(tw)
        return tw.experiment.sweep(cfg, "theta1", list(self.thetas), out)

    def check(self, tw, cfg, out: Path, rows) -> list[tuple[str, str]]:
        results = []
        summary = read_summary_rows(out / "summary.csv")
        for theta, row in zip(self.thetas, rows):
            op = f"theta1={theta:g}"
            problems = []
            if row.error:
                problems.append(f"sweep row error: {row.error}")
            else:
                run_cfg = replace(cfg, coupling=replace(cfg.coupling, theta1=theta))
                series, problems = check_run_dir(tw, out / f"theta1_{theta:g}", run_cfg,
                                                 self.rho0)
                # The unobserved error decays at about -2.8 per time unit here,
                # mostly by viscosity; check_run_dir's err_low test is what
                # fails when the coupling is wrong.
                if not problems:
                    rate = log_slope(series["t"], series["err_high"])
                    if not rate < -1.0:
                        problems.append(f"err_high decay rate {rate:.4g} not below -1")
                if not row.rate < -1.0:
                    problems.append(f"sweep err_h rate {row.rate:.4g} not below -1")
            if summary != len(self.thetas):
                problems.append(f"summary.csv has {summary} rows, expected {len(self.thetas)}")
            results.append((op, "; ".join(problems)))
        return results


class Paper512Pair(Workload):
    name = "paper512_pair"
    # A record every 5 steps gives a 60-step process 11 step-time samples.
    # error_record costs about 8 ms at 512^2: 6.5% of a step if it ran every
    # step, about 1.3% here (the paper-text preset records every 100 steps).
    params = dict(n=512, nu=0.0005, dt=0.01, grashof=1.0e5, t_end=0.6,
                  variant="mutual_sync", cutoff=50.0, theta1=0.5, record_every=5)

    def write_inputs(self, seed: int, inputs: Path):
        self.write_pair_inputs(seed, inputs)

    def run(self, tw, cfg, out: Path, clock):
        clock.hook_records(tw)
        return tw.experiment.run_experiment(cfg, output_dir=out)

    def check(self, tw, cfg, out: Path, result) -> list[tuple[str, str]]:
        _, problems = check_run_dir(tw, out, cfg, self.rho0)
        return [("run", "; ".join(problems))]


class Small32Nudge(Workload):
    name = "small32_nudge"
    params = dict(n=32, nu=0.005, dt=0.005, grashof=1.0e4, t_end=10.0,
                  variant="mutual_nudge", cutoff=8.0, mu1=4.0, mu2=6.0, record_every=1)

    def write_inputs(self, seed: int, inputs: Path):
        self.write_pair_inputs(seed, inputs)

    def run(self, tw, cfg, out: Path, clock):
        clock.hook_records(tw)
        return tw.experiment.run_experiment(cfg, output_dir=out)

    def check(self, tw, cfg, out: Path, result) -> list[tuple[str, str]]:
        series, problems = check_run_dir(tw, out, cfg, self.rho0)
        # Nudging with mu1 + mu2 = 10 on |k| <= 8 synchronizes the pair
        # (about -0.5 per time unit here); no coupling gives no decay.
        if not problems:
            err = series["err_h"]
            rate = log_slope(series["t"], err)
            if not rate < -0.2:
                problems.append(f"err_h decay rate {rate:.4g} not below -0.2")
            if not err[-1] < 0.05 * err[0]:
                problems.append(f"err_h fell only from {err[0]:.4g} to {err[-1]:.4g}")
        return [("run", "; ".join(problems))]


class Spinup128Ckpt(Workload):
    name = "spinup128_ckpt"
    params = dict(n=128, nu=0.005, dt=0.005, grashof=1.0e4, spinup_time=2.0,
                  checkpoint_every=0.1, variant="trivial", cutoff=20.0)

    def write_inputs(self, seed: int, inputs: Path):
        (inputs / "config.ini").write_text(config_text(_params(self.params, seed)))

    def run(self, tw, cfg, out: Path, clock):
        tw.config.write_config(cfg, out / "manifest.ini", tw.config.provenance_info())
        psi = tw.stepping.spin_up(cfg.sim, cfg.spinup_time, checkpoint_dir=out,
                                  checkpoint_every=cfg.checkpoint_every,
                                  progress=clock.progress(cfg.dt))
        nsteps = int(round(cfg.spinup_time / cfg.dt))
        state = tw.stepping.PairState(psi, psi, cfg.spinup_time, nsteps)
        tw.stepping.save_checkpoint(state, cfg.dt, out / "base.ckpt")
        return psi

    def check(self, tw, cfg, out: Path, psi) -> list[tuple[str, str]]:
        problems = []
        nsteps = int(round(cfg.spinup_time / cfg.dt))
        every = int(round(cfg.checkpoint_every / cfg.dt))
        paths = sorted(out.glob("spinup_*.ckpt"))
        if len(paths) != nsteps // every:
            problems.append(f"{len(paths)} rolling checkpoints, expected {nsteps // every}")
        bound = self.rho0**2 * (1.0 + 1e-9)
        for j, path in enumerate(paths + [out / "base.ckpt"]):
            state, dt = tw.stepping.load_checkpoint(path)
            step = nsteps if path.name == "base.ckpt" else (j + 1) * every
            c1 = np.asarray(state.psi1.coeffs)
            if state.step_index != step or abs(state.t - step * cfg.dt) > 1e-9 * step:
                problems.append(f"{path.name}: step {state.step_index}, t {state.t!r}")
            if not (np.isfinite(c1).all() and np.array_equal(c1, state.psi2.coeffs)):
                problems.append(f"{path.name}: non-finite or unequal components")
            energy = tw.spectral.norm_hn(state.psi1, 1) ** 2
            if not energy <= bound:
                problems.append(f"{path.name}: energy {energy:.6g} outside absorbing ball")
        if paths and not np.array_equal(
            tw.stepping.load_checkpoint(paths[-1])[0].psi1.coeffs, psi.coeffs
        ):
            problems.append("last rolling checkpoint differs from the returned state")
        return [("spin_up", "; ".join(problems))]


WORKLOADS = {w.name: w for w in (DeskSweep(), Paper512Pair(), Small32Nudge(), Spinup128Ckpt())}
