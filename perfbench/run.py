"""twinflow benchmark: four workloads, end-to-end metrics, a traced per-layer split.

Run from the root of a source checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload desk128_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

For one workload and seed, the benchmark's own process writes the seeded inputs
(checkpoints and INI configs) under ``.perfbench_out/``, imports twinflow
once in a throwaway process so that byte-code is cached, and then starts
workload processes one after another, each single-threaded, until
``--seconds`` is used (at least three; with ``--trace 1`` at least two
untraced and two traced). Each process does the same fixed work and checks
its own outputs afterwards.

``--trace 0`` reports the end-to-end metrics over the processes of the
run:

* ``setup_s`` - process start to first step (import, config, grid, band
  forcing, loading the initial pair or checkpoints); median. A coupled run
  ends set-up at its step-0 record. The spin-up records no step 0, so its
  set-up ends at its first record less that interval's steps at the median
  step time; this includes spin_up's own set-up (zero field, band force).
* ``wall_s`` - process start to the last output written; mean.
* ``steps_per_s`` - steps per second of the stepping phase, all processes
  together. The stepping phase is made of the intervals between
  consecutive records (coupled runs record through ``error_record``, the
  spin-up through its progress callback), less each run's first interval,
  which holds the program's lazy first-step set-up.
* ``step_ms_p90`` - wall ms per step, one sample per interval of the
  stepping phase: the 90th percentile of all samples of the run. The
  median, ``step_ms_p50``, and the sample counts are printed too, but are
  not metrics of the result line.
* ``peak_rss_mib`` - peak resident memory of a workload process; median.

Failed operations (a sweep point, a run or a spin-up that raises or fails
its check) are the ``failed`` count of the result line; ``failed_frac`` is
printed with the table.

``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics from the traced ones (see ``tracing.py``), plus
``trace.overhead_frac`` = 1 - traced / untraced ``steps_per_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full result file
with the environment record is written next to the run's outputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
# Every run of one workload must end within this many seconds.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]:
        units[name["name"]] = name["unit"]
    return units


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cache_sizes() -> dict[str, str]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = {}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    import numpy

    grids = sorted({w.params["n"] for w in workloads.WORKLOADS.values()})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "cache": cache_sizes(),
        "state_array_kib": {str(n): n * n * 16 / 1024 for n in grids},
        "note": ("A complex128 state array is 16 KiB at 32^2, 256 KiB at 128^2 and "
                 "4 MiB at 512^2; the 512^2 step's working set fits in L3, so no "
                 "memory-bandwidth figure is claimed. fft.mib_per_step is computed "
                 "from array sizes, not measured."),
    }


def run_process(root: Path, rundir: Path, name: str, k: int, traced: bool,
                deadline: float) -> dict:
    wdir = rundir / f"p{k}"
    wdir.mkdir()
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--inputs", str(rundir / "inputs"), "--out", str(wdir),
           "--t-spawn", repr(t_spawn), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t_spawn))
        log, code = proc.stdout + proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        log, code = f"timed out after {exc.timeout:.0f} s", -1
    (wdir / "process.log").write_text(log)
    report = None
    if code == 0 and (wdir / "worker.json").is_file():
        report = json.loads((wdir / "worker.json").read_text())
    if report is None:
        sys.stderr.write(f"{name} process {k} failed (exit {code}):\n{log[-2000:]}\n")
    trace = None
    if traced and report is not None:
        trace = tracing.process_totals(json.loads((wdir / "spans.json").read_text()))
    shutil.rmtree(wdir / "out", ignore_errors=True)
    return {"traced": traced, "report": report, "trace": trace}


def throughput(procs: list[dict]) -> float:
    """Steps per second of stepping phase, over all the given processes."""
    phase_s = sum(p["report"]["records"]["phase_s"] for p in procs)
    return sum(p["report"]["records"]["phase_steps"] for p in procs) / phase_s


def end_to_end(procs: list[dict]) -> tuple[dict, dict]:
    rep = [p["report"] for p in procs]
    per_process = [r["records"]["step_ms"] for r in rep]
    samples = [s for ms in per_process for s in ms]
    metrics = {
        "setup_s": statistics.median(r["records"]["first_step"] - r["t_spawn"] for r in rep),
        "wall_s": statistics.mean(r["t_done"] - r["t_spawn"] for r in rep),
        "steps_per_s": throughput(procs),
        "step_ms_p90": statistics.quantiles(samples, n=10)[8],
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] / 1024.0 for r in rep),
    }
    # step_ms_p50 is printed, not a result metric: when the machine alternates
    # between two speeds, the median sample jumps from one to the other.
    notes = {"step_ms_p50": statistics.median(samples), "step_ms_samples": len(samples),
             "step_ms_samples_per_process": min(map(len, per_process)),
             "processes": len(procs)}
    return metrics, notes


def process_summary(p: dict) -> dict:
    r = p["report"]
    if r is None or r["records"] is None:
        return {"traced": p["traced"], "records": None}
    rec = r["records"]
    return {"traced": p["traced"], "setup_s": rec["first_step"] - r["t_spawn"],
            "wall_s": r["t_done"] - r["t_spawn"], "phase_s": rec["phase_s"],
            "phase_steps": rec["phase_steps"], "peak_rss_mib": r["peak_rss_kib"] / 1024.0}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    wl = workloads.WORKLOADS[name]
    rundir = root / OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "inputs").mkdir(parents=True)
    env_record = environment()
    wl.write_inputs(seed, rundir / "inputs")
    warm = subprocess.run([sys.executable, "-c", "import twinflow"], cwd=root,
                          env=worker_env(root), capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr[-2000:])

    procs: list[dict] = []
    t0 = time.monotonic()
    minimum = 4 if trace else 3
    while True:
        procs.append(run_process(root, rundir, name, len(procs),
                                 trace and len(procs) % 2 == 1, deadline))
        now = time.monotonic()
        mean = (now - t0) / len(procs)
        if now + mean > deadline or (len(procs) >= minimum and now + mean - t0 > seconds):
            break
    shutil.rmtree(rundir / "inputs", ignore_errors=True)

    attempted = wl.ops_per_process * len(procs)
    ok = sum(op["ok"] for p in procs if p["report"] for op in p["report"]["ops"])
    failed = attempted - ok
    good = [p for p in procs if p["report"] and all(op["ok"] for op in p["report"]["ops"])]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    notes: dict = {}
    if trace:
        if plain and traced:
            overhead = 1.0 - throughput(traced) / throughput(plain)
            # experiment.sweep.ok_ratio: operations ok / attempted in this run
            # (sweep points for desk128_sweep, runs or spin-ups elsewhere).
            metrics, notes = tracing.per_layer_metrics(
                [p["trace"] for p in traced], [p["report"]["steps"] for p in traced],
                ok / attempted, overhead)
        else:
            metrics = {}
        units = per_layer_units()
        metrics = {k: metrics.get(k, 0.0) for k in units}
        if not notes.get("counts_identical_across_processes"):
            sys.stderr.write(f"{name}: traced counts differ between processes: {notes}\n")
            failed = max(failed, 1)
    else:
        units = END_TO_END_UNITS
        metrics, notes = end_to_end(plain) if plain else ({k: 0.0 for k in units}, {})

    reports = [p["report"] for p in procs if p["report"]]
    env_record["kernel_path"] = next((r["kernel_path"] for r in reports if r["kernel_path"]), "")
    env_record["twinflow"] = next((r["twinflow_version"] for r in reports), "")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), failed_frac=failed / attempted, notes=notes,
                  environment=env_record, elapsed_s=time.monotonic() - t_start,
                  problems=[op for r in reports for op in r["ops"] if not op["ok"]],
                  processes=[process_summary(p) for p in procs])
    (rundir / "result.json").write_text(json.dumps(detail, indent=2))
    print_table(detail)
    return result


def print_table(detail: dict) -> None:
    print(f"# {detail['workload']}  seed={detail['seed']}  trace={detail['trace']}  "
          f"kernel_path={detail['environment']['kernel_path']}  "
          f"elapsed={detail['elapsed_s']:.1f} s")
    for key, m in detail["metrics"].items():
        print(f"{key:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {detail['failed_frac']:14.6g} 1  "
          f"({detail['failed']} of {detail['attempted']} operations)")
    for key, value in detail["notes"].items():
        print(f"{key:48s} {value:14.6g}" if isinstance(value, float) else f"{key:48s} {value}")
    for op in detail["problems"]:
        print(f"FAILED {op['op']}: {op['problem'].strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twinflow" / "__init__.py").is_file():
        print("error: run from the root of a twinflow checkout (src/twinflow not found)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
