import importlib
import pkgutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import twinflow as tf
from twinflow import config
from twinflow.config import ExperimentConfig
from twinflow.fieldops import nonlinear_block, nonlinear_workspace
from twinflow.spectral import SpectralField, SpectralGrid, from_block, to_block

from oracles import dealias_mask, field_from_physical, lattice_field, lattice_kmag

sys.path.insert(0, str(Path(__file__).parent / "data"))

from session_digest import session  # noqa: E402

# the functions that build or read an N x N lattice (see test_lattice_boundary.py)
LATTICE_FUNCTIONS = (from_block, SpectralField.coeffs.fget, to_block)


def random_psi(grid, rng, decay=3.0, scale=1.0):
    """Random dealiased mean-free streamfunction with a decaying spectrum."""
    phys = rng.standard_normal(grid.shape)
    fld = field_from_physical(grid, phys)
    shaped = scale * fld.coeffs * (1.0 + lattice_kmag(grid)) ** (-decay)
    return lattice_field(grid, shaped * dealias_mask(grid))


def hermitian_part(c):
    """``(c_k + conj(c_{-k})) / 2``: exactly Hermitian, since the sum
    commutes, so entry ``-k`` is the conjugate of entry ``k`` bitwise."""
    mirror = (-np.arange(c.shape[0])) % c.shape[0]
    return 0.5 * (c + np.conj(c[np.ix_(mirror, mirror)]))


def tiny_config(**overrides):
    """A 32^2 mutual-sync config that runs in well under a second; every
    field can be overridden."""
    base = dict(
        resolution=32,
        nu=0.01,
        dt=0.01,
        t_end=0.5,
        forcing=tf.ForcingSpec(10, 12, 500.0, 3),
        coupling=tf.IntertwinementSpec("mutual_sync", 5.0, theta1=0.5),
        init_kind="projected_low",
        spinup_time=0.5,
        decorrelate_time=0.2,
        record_every=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def sub(a, b):
    """The field ``a - b`` (the package only adds and scales fields)."""
    return tf.SpectralField(a.grid, a.block - b.block)


def parse_config_text(text):
    """A config from INI text, parsed as ``config.parse_config`` parses a file."""
    parser = config._new_parser()
    parser.read_string(text)
    return config._build(parser)


def nonlinear_full(psi):
    """The stepper's advection term (``nonlinear_block`` on a stack of one,
    fresh workspace) of a dealiased, Hermitian field, rebuilt on the full
    lattice."""
    grid = psi.grid
    stack = psi.block[np.newaxis]
    out = nonlinear_block(stack, nonlinear_workspace(grid, 1), np.empty_like(stack))
    return from_block(out[0], grid.resolution)


def velocity_norm(vel, n=0):
    """Componentwise Sobolev norm of a velocity field."""
    return float(np.hypot(tf.norm_hn(vel.ux, n), tf.norm_hn(vel.uy, n)))


@pytest.fixture
def grid64():
    return tf.SpectralGrid(64)


@pytest.fixture
def grid32():
    return tf.SpectralGrid(32)


@pytest.fixture
def no_large_grid(monkeypatch):
    """``config`` refuses to build a grid past its resolution bound: a
    config that misses the bound fails the test and allocates nothing."""
    build = config.shared_grid

    def guarded(n):
        assert n <= config.MAX_RESOLUTION, f"built a {n}^2 grid"
        return build(n)

    monkeypatch.setattr(config, "shared_grid", guarded)


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


def package_modules():
    return [tf] + [importlib.import_module(f"twinflow.{info.name}")
                   for info in pkgutil.iter_modules(tf.__path__)]


def clear_caches():
    # a cached result from an earlier test would hide the call
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@dataclass
class SessionTrace:
    """What one CLI session did: the code objects it called, the callers
    of each of ``LATTICE_FUNCTIONS`` (code object -> set of caller code
    objects, None for a call with no caller), and every grid it built."""

    called: set
    callers: dict
    grids: list


def _caller(frame):
    """The code a call came from; generator expressions and comprehensions
    count as their enclosing function, which resumes them."""
    frame = frame.f_back
    while frame is not None and frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return None if frame is None else frame.f_code


@pytest.fixture(scope="session")
def session_trace(tmp_path_factory):
    """The 48^2 CLI session of ``tests/data/session_digest.py``, run once
    under ``sys.setprofile`` with every package cache cleared first."""
    clear_caches()
    trace = SessionTrace(set(), {f.__code__: set() for f in LATTICE_FUNCTIONS}, [])
    grid_init = SpectralGrid.__post_init__.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        trace.called.add(code)
        if code in trace.callers:
            trace.callers[code].add(_caller(frame))
        elif code is grid_init:
            trace.grids.append(frame.f_locals["self"])

    sys.setprofile(profile)
    try:
        session(tmp_path_factory.mktemp("session"))
    finally:
        sys.setprofile(None)
    return trace
