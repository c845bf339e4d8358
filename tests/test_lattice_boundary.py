"""Fields hold the dealiased block; the ``N x N`` lattice is only a view.

``SpectralField.coeffs`` rebuilds the lattice (``from_block``) for the two
readers that need it, ``to_physical`` (``irfft2``) and ``save_checkpoint``
(the v1 file format), and ``load_checkpoint`` alone takes a stored lattice
back onto the block (``to_block``). The CLI session of
``test_reachability.py`` runs under ``sys.setprofile``, which records who
calls each of the three; no other code in the package may. The grid keeps
no table larger than the block.
"""

import sys

import numpy as np

from twinflow import spectral, stepping
from twinflow.spectral import SpectralField, SpectralGrid

from test_reachability import clear_caches, cli_session, package_functions

WATCHED = {
    spectral.from_block.__code__: "spectral.from_block",
    SpectralField.coeffs.fget.__code__: "spectral.SpectralField.coeffs",
    spectral.to_block.__code__: "spectral.to_block",
}

ALLOWED_CALLERS = {
    "spectral.from_block": {"spectral.SpectralField.coeffs"},
    "spectral.SpectralField.coeffs": {"spectral.to_physical", "stepping.save_checkpoint"},
    "spectral.to_block": {"stepping.load_checkpoint"},
}


def _caller(frame, names):
    """The package function (or other named function) a call came from;
    generator expressions and comprehensions count as their enclosing
    function, which resumes them."""
    frame = frame.f_back
    while frame is not None and frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    if frame is None:
        return "<top>"
    return names.get(frame.f_code, frame.f_code.co_name)


def test_lattice_is_built_and_read_only_at_the_boundary(tmp_path, capsys):
    names = package_functions()
    clear_caches()
    callers = {name: set() for name in WATCHED.values()}
    grids = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in WATCHED:
            callers[WATCHED[code]].add(_caller(frame, names))
        elif code is SpectralGrid.__post_init__.__code__:
            grids.append(frame.f_locals["self"])

    sys.setprofile(profile)
    try:
        cli_session(tmp_path)
    finally:
        sys.setprofile(None)
    assert callers == ALLOWED_CALLERS
    assert grids
    for grid in grids:
        rows, cols = grid.block_shape
        for name, value in vars(grid).items():
            if isinstance(value, np.ndarray):
                assert value.size <= rows * cols, (grid.resolution, name)


def test_second_layout_is_gone():
    for name in ("half_plane", "half_plane_weights", "ksq_of", "block_of"):
        assert not hasattr(spectral, name), name
    assert not hasattr(stepping, "_enter")
    grid = SpectralGrid(32)
    assert not hasattr(grid, "kx") and not hasattr(grid, "ky")
