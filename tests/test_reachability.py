"""Every function in ``src/twinflow`` is reached by one CLI session.

The 48^2 session of ``tests/data/session_digest.py`` runs ``spinup``;
``run`` with every coupling variant, every init mode, the sup-norm force
normalization, a second force, and a blow-up; a cutoff sweep and a theta
sweep whose decay fits succeed; ``thresholds`` for every variant with
bounds, the paper-text and paper-figure presets included; ``spectrum``;
and a re-run from a manifest. The ``session_trace`` fixture
(``conftest.py``) records the code objects it calls under
``sys.setprofile``. Every function and method defined in the package must
be among them, or be listed in ``UNREACHED`` with the reason it stays:
code that only tests reach belongs in ``tests/``.
"""

import inspect

from twinflow.coupling import VARIANTS

from conftest import package_modules
from session_digest import VARIANT_SETTINGS

UNREACHED = {
    "cli.main": "console-script entry point: calls cli_main, then exits the process",
    "config.ExperimentConfig.sim": "alias of the config itself for perfbench/workloads.py's "
                                   "spin_up(cfg.sim, ...); ROADMAP item 1 deletes it",
    "experiment.read_series_csv": "library reader of series.csv; the CLI only writes it",
    "spectral.SpectralField.coeffs": "perfbench/workloads.py reads `.coeffs`; ROADMAP item 12 "
                                     "deletes both after item 1",
    "spectral.from_block": "perfbench/workloads.py reads `.coeffs`; ROADMAP item 12 deletes "
                           "both after item 1",
}


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


def test_every_function_is_reached_or_listed(session_trace):
    functions = package_functions()
    assert set(UNREACHED) <= set(functions.values()), "UNREACHED names a gone function"
    unreached = sorted(name for code, name in functions.items()
                       if code not in session_trace.called)
    assert unreached == sorted(UNREACHED)
    assert set(VARIANT_SETTINGS) == set(VARIANTS)
