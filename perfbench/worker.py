"""One workload process: import twinflow, run the workload, check its outputs.

Started by ``run.py`` once per measured process; not meant to be run by hand.
Writes ``worker.json`` (timestamps, step samples, peak RSS, per-operation
check results) and, when traced, ``spans.json`` into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import twinflow
    import twinflow.config
    import twinflow.experiment
    import twinflow.spectral
    import twinflow.stepping

    src = (Path.cwd() / "src").resolve()
    if src not in Path(twinflow.__file__).resolve().parents:
        print(f"error: twinflow imported from {twinflow.__file__}, not {src}", file=sys.stderr)
        return 2
    tw = SimpleNamespace(config=twinflow.config, experiment=twinflow.experiment,
                         spectral=twinflow.spectral, stepping=twinflow.stepping)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    wl = workloads.WORKLOADS[args.workload]
    clock = tracing.RecordClock()
    out = args.out / "out"
    out.mkdir(parents=True, exist_ok=True)
    error = ""
    try:
        cfg = tw.config.parse_config(args.inputs / "config.ini")
        result = wl.run(tw, cfg, out, clock)
    except Exception:  # the run counts as failed; its traceback is kept
        error = traceback.format_exc()
    t_done = time.monotonic()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = tracer.snapshot() if tracer is not None else None

    if error:
        ops = [("process", error)]
    else:
        try:
            ops = wl.check(tw, cfg, out, result)
        except Exception:
            ops = [("check", traceback.format_exc())]
    report = {
        "t_spawn": args.t_spawn,
        "t_done": t_done,
        "peak_rss_kib": peak_rss_kib,
        "steps": wl.nsteps(),
        "ops": [{"op": op, "ok": not problem, "problem": problem} for op, problem in ops],
        "kernel_path": _provenance(out, "kernel_path"),
        "twinflow_version": getattr(twinflow, "__version__", ""),
        "records": clock.summary() if clock.records else None,
    }
    (args.out / "worker.json").write_text(json.dumps(report))
    if trace is not None:
        (args.out / "spans.json").write_text(json.dumps(trace))
    return 0


def _provenance(out: Path, key: str) -> str:
    """A value from the [provenance] section of the first manifest written."""
    for path in sorted(out.rglob("manifest.ini")):
        for line in path.read_text().splitlines():
            name, _, value = line.partition("=")
            if name.strip() == key:
                return value.strip()
    return ""


if __name__ == "__main__":
    sys.exit(main())
