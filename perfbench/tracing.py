"""Record timestamps and traced spans around calls into twinflow's layers.

Nothing here edits the program. Each function is wrapped where it is
looked up: every ``twinflow.*`` module namespace that holds the function
object gets the wrapper in its place, so ``from .x import f`` copies and
``module.f`` attribute lookups are both covered. The ``numpy.fft``
transforms are wrapped in the ``numpy.fft`` namespace (which is where
``np.fft.ifft2`` is looked up) and in any twinflow namespace that imported
them by name. A function that no longer exists is reported as absent.

Spans are kept in memory as ``[name, start, end, parent, in_step_phase,
extra]`` and written out when the workload process ends. A span is in the
stepping phase when it is a ``stepping.advance`` or ``stepping.spin_up``
span or runs inside one. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

STEP_PHASE = ("stepping.advance", "stepping.spin_up")

# (layer name, module, attribute). The layer name is the metric prefix.
FUNCTIONS = (
    ("fieldops.nse_nonlinear_term", "twinflow.fieldops", "nse_nonlinear_term"),
    ("kernels.advection_dot", "twinflow.kernels", "advection_dot"),
    ("kernels.euler_if_update", "twinflow.kernels", "euler_if_update"),
    ("kernels.euler_if_update_single", "twinflow.kernels", "euler_if_update_single"),
    ("coupling.coupling_terms", "twinflow.coupling", "coupling_terms"),
    ("stepping.check_finite", "twinflow.stepping", "_check_finite"),
    ("stepping.advance", "twinflow.stepping", "advance"),
    ("stepping.spin_up", "twinflow.stepping", "spin_up"),
    ("stepping.save_checkpoint", "twinflow.stepping", "save_checkpoint"),
    ("stepping.load_checkpoint", "twinflow.stepping", "load_checkpoint"),
    ("experiment.error_record", "twinflow.experiment", "error_record"),
    ("experiment.write_series_csv", "twinflow.experiment", "write_series_csv"),
    ("experiment.threshold_report", "twinflow.experiment", "threshold_report"),
    ("experiment.fit_decay_rate", "twinflow.experiment", "fit_decay_rate"),
    ("config.write_config", "twinflow.config", "write_config"),
    ("forcing.make_band_forcing", "twinflow.forcing", "make_band_forcing"),
)

# Classes whose constructions are counted (no span: too many, too short).
CLASSES = (
    ("spectral.SpectralField", "twinflow.spectral", "SpectralField"),
    ("spectral.SpectralGrid", "twinflow.spectral", "SpectralGrid"),
)

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
# Transforms whose input is the real physical-space array.
FFT_FORWARD = {"fft", "fft2", "fftn", "rfft", "rfft2", "rfftn", "ihfft"}

# Layers whose self times are reported. trace.other_self_ms_per_step is the
# self time of every other span in the stepping phase, so all of them add up
# to trace.step_ms by construction: self times of nested spans telescope to
# the duration of the top-level stepping span.
SELF_TIME_LAYERS = (
    "fft",
    "fieldops.nse_nonlinear_term",
    "kernels.advection_dot",
    "kernels.euler_if_update",
    "kernels.euler_if_update_single",
    "coupling.coupling_terms",
    "stepping.check_finite",
    "stepping.advance",
    "stepping.spin_up",
    "experiment.error_record",
    "stepping.save_checkpoint",
)


def _twinflow_namespaces() -> list[dict]:
    return [vars(m) for name, m in list(sys.modules.items())
            if m is not None and (name == "twinflow" or name.startswith("twinflow."))]


def patch(old, new, namespaces) -> None:
    """Put ``new`` wherever ``old`` is bound in the given namespaces."""
    for ns in namespaces:
        for key, value in list(ns.items()):
            if value is old:
                ns[key] = new


def lookup(module: str, attr: str):
    mod = sys.modules.get(module)
    return getattr(mod, attr, None) if mod is not None else None


class RecordClock:
    """Timestamps of each recorded sample, with the step it was taken at.

    For a coupled run a record is one ``experiment.error_record`` call (the
    observer calls it at step 0 and every ``record_every`` steps). For a
    spin-up it is one progress callback, every ``checkpoint_every``. Both
    traced and untraced processes use it, so step throughput is measured
    the same way in both.
    """

    def __init__(self):
        self.records: list[tuple[float, int]] = []

    def hook_records(self, tw) -> None:
        original = tw.experiment.error_record
        records = self.records

        @functools.wraps(original)
        def error_record(state, *args, **kwargs):
            records.append((time.monotonic(), state.step_index))
            return original(state, *args, **kwargs)

        patch(original, error_record, _twinflow_namespaces())

    def progress(self, dt: float):
        """A ``spin_up`` progress callback that records the step reached."""
        records = self.records

        def progress(t: float) -> None:
            records.append((time.monotonic(), int(round(t / dt))))

        return progress

    def summary(self) -> dict:
        """Set-up end, stepping-phase time and steps, per-interval ms per step.

        An interval that starts at step 0 is left out: it holds the
        program's lazy first-step set-up (cached exponential factors, the
        blow-up radius with its grid and band force). So is the gap between
        one run of a sweep and the next. Set-up ends at the first record
        less its steps at the median step time: exactly the step-0 record
        of a coupled run; for a spin-up, which records no step 0, the
        estimated start of its first step, after spin_up's own set-up.
        """
        samples, phase_s, steps = [], 0.0, 0
        for (t0, s0), (t1, s1) in zip(self.records, self.records[1:]):
            if s0 == 0 or s1 <= s0:
                continue
            samples.append(1e3 * (t1 - t0) / (s1 - s0))
            phase_s += t1 - t0
            steps += s1 - s0
        t_first, s_first = self.records[0]
        first = t_first - s_first * 1e-3 * statistics.median(samples) if s_first else t_first
        return {"first_step": first, "phase_s": phase_s, "phase_steps": steps,
                "step_ms": samples}


def _fft_extra(name: str):
    forward = name in FFT_FORWARD

    def extra(args, kwargs, out):
        a = args[0] if args else kwargs["a"]
        physical = a.size if forward else out.size
        computed = out.size * (2 if out.dtype.kind == "c" else 1)
        return (a.nbytes + out.nbytes, physical, computed)

    return extra


def _path_size(args, kwargs, out):
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            return os.path.getsize(value)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}  # name -> [all, in stepping phase]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._phase = 0

    def _span(self, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_phase = name in STEP_PHASE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   is_phase or tracer._phase > 0, None]
            stack.append(len(spans))
            spans.append(rec)
            tracer._phase += is_phase
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                tracer._phase -= is_phase
            if extra is not None:
                rec[5] = extra(args, kwargs, out)
            return out

        return traced

    def _counted(self, name: str, init):
        count = self.counts.setdefault(name, [0, 0])
        tracer = self

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            count[0] += 1
            count[1] += tracer._phase > 0
            init(obj, *args, **kwargs)

        return __init__

    def install(self) -> None:
        """Wrap every layer function and count class constructions."""
        import numpy.fft

        spaces = _twinflow_namespaces()
        for fname in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, fname, None)
            if fn is not None:
                patch(fn, self._span("fft", fn, _fft_extra(fname)),
                      spaces + [vars(numpy.fft)])
        extras = {"stepping.save_checkpoint": _path_size,
                  "stepping.load_checkpoint": _path_size}
        for name, module, attr in FUNCTIONS:
            fn = lookup(module, attr)
            if fn is None:
                self.absent.append(name)
                continue
            patch(fn, self._span(name, fn, extras.get(name)), spaces)
        for name, module, attr in CLASSES:
            cls = lookup(module, attr)
            if cls is None:
                self.absent.append(name)
                continue
            cls.__init__ = self._counted(name, cls.__init__)

    def snapshot(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": {k: list(v) for k, v in self.counts.items()},
                "absent": list(self.absent)}


# --- aggregation (in the parent process of run.py) ---------------------------


def _new_layer() -> dict:
    return {"calls": 0, "s": 0.0, "phase_calls": 0, "phase_s": 0.0, "phase_self_s": 0.0,
            "bytes": 0, "phase_bytes": 0, "physical": 0, "computed": 0}


def process_totals(trace: dict) -> dict:
    """Per-layer totals of one traced workload process."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layers: dict[str, dict] = {}
    step_s = 0.0
    for i, (name, start, end, parent, in_phase, extra) in enumerate(spans):
        d = layers.setdefault(name, _new_layer())
        dur = end - start
        d["calls"] += 1
        d["s"] += dur
        if extra is not None:
            d["bytes"] += extra if isinstance(extra, int) else extra[0]
        if in_phase:
            d["phase_calls"] += 1
            d["phase_s"] += dur
            d["phase_self_s"] += dur - child[i]
            if isinstance(extra, (list, tuple)):
                d["phase_bytes"] += extra[0]
                d["physical"] += extra[1]
                d["computed"] += extra[2]
            if name in STEP_PHASE and not (parent >= 0 and spans[parent][4]):
                step_s += dur
    return {"layers": layers, "step_s": step_s, "counts": trace["counts"],
            "absent": trace["absent"]}


def per_layer_metrics(totals: list[dict], steps: list[int], ok_ratio: float,
                      overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics pooled over traced processes.

    Per-step values divide stepping-phase totals by steps. Per-process values
    (``.calls``, ``.ms``, ``.mib_*``, ``.constructed``) are means over the
    traced processes, which all do the same work. Returns the metrics and a
    notes dict (absent layers, count agreement across processes).
    """
    nproc, nsteps = len(totals), sum(steps)
    empty = _new_layer()

    def pooled(name: str, key: str) -> float:
        return sum(t["layers"].get(name, empty)[key] for t in totals)

    def per_step(name, key="phase_s"):
        return 1e3 * pooled(name, key) / nsteps

    def per_process(name, key="calls"):
        return pooled(name, key) / nproc

    def per_call(name):
        calls = pooled(name, "calls")
        return 1e3 * pooled(name, "s") / calls if calls else 0.0

    def constructed(name, which):
        return sum(t["counts"].get(name, [0, 0])[which] for t in totals)

    mib = 2.0**20
    m = {
        "fft.calls_per_step": pooled("fft", "phase_calls") / nsteps,
        "fft.ms_per_step": per_step("fft"),
        "fft.mib_per_step": pooled("fft", "phase_bytes") / mib / nsteps,
        "fft.real_output_fraction": (pooled("fft", "physical") / pooled("fft", "computed")
                                     if pooled("fft", "computed") else 0.0),
        "fieldops.nse_nonlinear_term.ms_per_step": per_step("fieldops.nse_nonlinear_term"),
        "kernels.advection_dot.ms_per_step": per_step("kernels.advection_dot"),
        "kernels.euler_if_update.ms_per_step": per_step("kernels.euler_if_update"),
        "kernels.euler_if_update_single.ms_per_step":
            per_step("kernels.euler_if_update_single"),
        "coupling.coupling_terms.ms_per_step": per_step("coupling.coupling_terms"),
        "stepping.check_finite.ms_per_step": per_step("stepping.check_finite"),
        "spectral.SpectralField.constructed_per_step":
            constructed("spectral.SpectralField", 1) / nsteps,
        "experiment.error_record.calls": per_process("experiment.error_record"),
        "experiment.error_record.ms_per_call": per_call("experiment.error_record"),
        "stepping.save_checkpoint.calls": per_process("stepping.save_checkpoint"),
        "stepping.save_checkpoint.ms_per_call": per_call("stepping.save_checkpoint"),
        "stepping.save_checkpoint.mib_written":
            per_process("stepping.save_checkpoint", "bytes") / mib,
        "stepping.load_checkpoint.calls": per_process("stepping.load_checkpoint"),
        "stepping.load_checkpoint.ms_per_call": per_call("stepping.load_checkpoint"),
        "stepping.load_checkpoint.mib_read":
            per_process("stepping.load_checkpoint", "bytes") / mib,
        "experiment.write_series_csv.ms": 1e3 * per_process("experiment.write_series_csv", "s"),
        "config.write_config.ms": 1e3 * per_process("config.write_config", "s"),
        "experiment.threshold_report.ms": 1e3 * per_process("experiment.threshold_report", "s"),
        "experiment.fit_decay_rate.ms": 1e3 * per_process("experiment.fit_decay_rate", "s"),
        "experiment.sweep.ok_ratio": ok_ratio,
        "forcing.make_band_forcing.calls": per_process("forcing.make_band_forcing"),
        "forcing.make_band_forcing.ms": 1e3 * per_process("forcing.make_band_forcing", "s"),
        "spectral.SpectralGrid.constructed": constructed("spectral.SpectralGrid", 0) / nproc,
    }
    step_ms = 1e3 * sum(t["step_s"] for t in totals) / nsteps
    self_sum = 0.0
    for name in SELF_TIME_LAYERS:
        value = per_step(name, "phase_self_s")
        m[f"{name}.self_ms_per_step"] = value
        self_sum += value
    all_self = 1e3 * sum(d["phase_self_s"] for t in totals for d in t["layers"].values()) / nsteps
    m["trace.other_self_ms_per_step"] = all_self - self_sum
    m["trace.step_ms"] = step_ms
    m["trace.overhead_frac"] = overhead_frac

    absent = sorted({a for t in totals for a in t["absent"]})
    count_keys = ("calls", "phase_calls", "bytes", "phase_bytes")
    signature = [
        ({n: tuple(d[k] for k in count_keys) for n, d in t["layers"].items()},
         t["counts"], s)
        for t, s in zip(totals, steps)
    ]
    notes = {
        "absent": [k for k in m if any(k.startswith(a + ".") for a in absent)],
        "counts_identical_across_processes": all(s == signature[0] for s in signature),
    }
    return m, notes
