"""Fields hold the dealiased block; only the version-1 checkpoint reader
meets the ``N x N`` lattice.

``to_physical`` pads the block into the half-plane that ``irfft2`` reads
and ``save_checkpoint`` writes the blocks (format version 2), so no code
in the package builds a lattice: ``load_checkpoint`` alone takes a stored
version-1 lattice back onto the block (``to_block``). The ``session_trace``
fixture (``conftest.py``) records, under ``sys.setprofile``, who calls
``to_block``, ``from_block`` and ``SpectralField.coeffs`` in the CLI
session of ``tests/data/session_digest.py``, which reads a version-1
file; and no function of the package names ``from_block`` or ``coeffs``
but their own definitions, which stay for readers outside the package.
The grid keeps no table larger than the block.
"""

import types

import numpy as np

from twinflow import spectral, stepping
from twinflow.spectral import SpectralGrid

from test_reachability import package_functions

ALLOWED_CALLERS = {
    "spectral.to_block": {"stepping.load_checkpoint"},
}


def names_in(code):
    """Every global and attribute name a code object reads, nested code
    (comprehensions, lambdas, inner functions) included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= names_in(const)
    return names


def test_lattice_is_built_and_read_only_at_the_boundary(session_trace):
    names = package_functions()

    def name(code):
        # a package function by its qualified name, any other by its own
        return "<top>" if code is None else names.get(code, code.co_name)

    callers = {names[code]: {name(c) for c in codes}
               for code, codes in session_trace.callers.items() if codes}
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


def test_no_package_code_builds_the_lattice():
    lattice_code = {spectral.from_block.__code__, spectral.SpectralField.coeffs.fget.__code__}
    for code, name in package_functions().items():
        if code not in lattice_code:
            assert not names_in(code) & {"from_block", "coeffs"}, name
