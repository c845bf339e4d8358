import importlib
import pkgutil

import twinflow


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from twinflow.x import *``
    modules = [twinflow] + [
        importlib.import_module(f"twinflow.{info.name}")
        for info in pkgutil.iter_modules(twinflow.__path__)
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            checked += 1
    assert checked > 0


def test_public_surface_is_pinned():
    # the package's public names, listed out: adding or removing one shows
    # up as a diff to this list
    assert sorted(twinflow.__all__) == [
        "ErrorRecord",
        "ForcingSpec",
        "IntertwinementSpec",
        "PairState",
        "RateFit",
        "SpectralField",
        "SpectralGrid",
        "__version__",
        "absorbing_radii",
        "decorrelate",
        "energy_spectrum",
        "fit_decay_rate",
        "grashof",
        "load_checkpoint",
        "make_band_forcing",
        "norm_hn",
        "project_low",
        "run_experiment",
        "save_checkpoint",
        "shape_factor",
        "spin_up",
        "sweep",
        "threshold_degenerate_sync",
        "threshold_mutual_nudge",
        "threshold_mutual_sync",
        "threshold_symmetric_nudge",
        "to_physical",
    ]
