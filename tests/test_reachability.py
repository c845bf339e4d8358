"""Every function in ``src/twinflow`` is reached by one CLI session.

One in-process session of the command-line interface at 16^2 runs
``spinup``; ``run`` with every coupling variant, every init mode, the
sup-norm force normalization, and a blow-up; a theta sweep whose decay
fits succeed; ``thresholds`` for every variant with bounds, the
paper-text preset included; ``spectrum``; and a re-run from a manifest.
``sys.setprofile`` records the code objects the session calls. Every
function and method defined in the package must be among them, or be
listed in ``UNREACHED`` with the reason it stays: code that only tests
reach belongs in ``tests/``.
"""

import importlib
import inspect
import pkgutil
import sys

import twinflow
from twinflow.cli import cli_main
from twinflow.coupling import VARIANTS

UNREACHED = {
    "cli.main": "console-script entry point: calls cli_main, then exits the process",
    "config.ExperimentConfig.sim": "alias of the config itself for perfbench/workloads.py's "
                                   "spin_up(cfg.sim, ...); ROADMAP item 1 deletes it",
    "experiment.read_series_csv": "library reader of series.csv; the CLI only writes it",
}

VARIANT_SETTINGS = {
    "trivial": [],
    "mutual_sync": ["intertwinement.theta1=0.25"],
    "degenerate_sync": [],
    "mutual_nudge": ["intertwinement.mu1=4", "intertwinement.mu2=6"],
    "symmetric_nudge": ["intertwinement.mu1=6", "intertwinement.mu2=4"],
    "general_nudge": ["intertwinement.matrix=1,3,0.5,2"],
    "general_sync": ["intertwinement.matrix=0.7,0.3,0.6,0.4"],
}


def package_modules():
    return [twinflow] + [importlib.import_module(f"twinflow.{info.name}")
                         for info in pkgutil.iter_modules(twinflow.__path__)]


def package_functions():
    """Code object -> ``module.qualname`` of every function and method
    written in the package's source (not generated, not imported; an alias
    keeps the first name)."""
    found = {}
    for module in package_modules():
        prefix = module.__name__.removeprefix("twinflow.")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{key}", value) for key, value in vars(obj).items()]
            for qualname, value in members:
                if isinstance(value, property):
                    value = value.fget
                value = inspect.unwrap(value) if callable(value) else value
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found.setdefault(code, f"{prefix}.{qualname}")
    return found


def clear_caches():
    # a cached result from an earlier test would hide the call
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def cli(*argv, expect=0):
    assert cli_main([str(a) for a in argv]) == expect, argv


def with_settings(settings):
    return [arg for item in settings for arg in ("--set", item)]


def cli_session(tmp):
    desk = ["--preset", "desk", *with_settings([
        "sim.resolution=16", "sim.t_end=0.1", "intertwinement.cutoff=3",
        "experiment.spinup_time=1", "experiment.checkpoint_every=0.5",
        "experiment.decorrelate_time=0.05",
    ])]
    cli("spinup", *desk, "--out", tmp / "spin")
    base = [*desk, "--set", f"experiment.base_checkpoint={tmp / 'spin' / 'base.ckpt'}"]
    for variant, settings in VARIANT_SETTINGS.items():
        cli("run", *base, *with_settings([f"intertwinement.variant={variant}",
                                          *settings]), "--out", tmp / variant)
    cli("run", *base, "--set", "experiment.init=decorrelated",
        "--set", "forcing.norm=linf", "--out", tmp / "decorrelated")
    cli("run", *desk, *with_settings([
        "experiment.init=checkpoints",
        f"experiment.checkpoint1={tmp / 'spin' / 'base.ckpt'}",
        f"experiment.checkpoint2={tmp / 'spin' / 'spinup_000000100.ckpt'}",
    ]), "--out", tmp / "checkpoints")
    # relaxation at mu * dt = 5 is unstable for explicit Euler
    cli("run", *base, *with_settings([
        "sim.t_end=1", "experiment.init=decorrelated",
        "intertwinement.variant=mutual_nudge", "intertwinement.mu1=1000",
        "intertwinement.mu2=1000",
    ]), "--out", tmp / "blowup", expect=3)
    cli("sweep", *base, "--set", "experiment.record_every=1", "--axis", "theta1",
        "--values", "0.25,0.75", "--out", tmp / "sweep")
    cli("thresholds", "--preset", "paper-text")
    cli("thresholds", "--preset", "paper-figure")
    for variant in ("degenerate_sync", "mutual_nudge", "symmetric_nudge"):
        cli("thresholds", *desk, *with_settings([f"intertwinement.variant={variant}",
                                                 *VARIANT_SETTINGS[variant]]))
    cli("spectrum", "--checkpoint", tmp / "spin" / "base.ckpt", "--out", tmp / "spec.csv")
    cli("run", "--config", tmp / "mutual_sync" / "manifest.ini", "--out", tmp / "rerun")
    rerun, first = tmp / "rerun" / "series.csv", tmp / "mutual_sync" / "series.csv"
    assert rerun.read_bytes() == first.read_bytes()


def test_every_function_is_reached_or_listed(tmp_path, capsys):
    functions = package_functions()
    assert set(UNREACHED) <= set(functions.values()), "UNREACHED names a gone function"
    clear_caches()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        cli_session(tmp_path)
    finally:
        sys.setprofile(None)
    unreached = sorted(name for code, name in functions.items() if code not in called)
    assert unreached == sorted(UNREACHED)
    assert set(VARIANT_SETTINGS) == set(VARIANTS)
