"""Fields hold the dealiased block; the ``N x N`` lattice is only a view.

``SpectralField.coeffs`` rebuilds the lattice (``from_block``) for the two
readers that need it, ``to_physical`` (``irfft2``) and ``save_checkpoint``
(the v1 file format), and ``load_checkpoint`` alone takes a stored lattice
back onto the block (``to_block``). The ``session_trace`` fixture
(``conftest.py``) records, under ``sys.setprofile``, who calls each of the
three in the CLI session of ``tests/data/session_digest.py``; no other
code in the package may. The grid keeps no table larger than the block.
"""

import numpy as np

from twinflow import spectral, stepping
from twinflow.spectral import SpectralGrid

from test_reachability import package_functions

ALLOWED_CALLERS = {
    "spectral.from_block": {"spectral.SpectralField.coeffs"},
    "spectral.SpectralField.coeffs": {"spectral.to_physical", "stepping.save_checkpoint"},
    "spectral.to_block": {"stepping.load_checkpoint"},
}


def test_lattice_is_built_and_read_only_at_the_boundary(session_trace):
    names = package_functions()

    def name(code):
        # a package function by its qualified name, any other by its own
        return "<top>" if code is None else names.get(code, code.co_name)

    callers = {names[code]: {name(c) for c in codes}
               for code, codes in session_trace.callers.items()}
    assert callers == ALLOWED_CALLERS
    assert session_trace.grids
    for grid in session_trace.grids:
        rows, cols = grid.block_shape
        for key, value in vars(grid).items():
            if isinstance(value, np.ndarray):
                assert value.size <= rows * cols, (grid.resolution, key)


def test_second_layout_is_gone():
    for name in ("half_plane", "half_plane_weights", "ksq_of", "block_of"):
        assert not hasattr(spectral, name), name
    assert not hasattr(stepping, "_enter")
    grid = SpectralGrid(32)
    assert not hasattr(grid, "kx") and not hasattr(grid, "ky")
