"""Short 32^2 runs of every coupling variant against a stored golden file.

``data/golden_runs.npz`` was written by ``data/make_golden_runs.py`` with
the full-lattice complex-FFT stepper. The stepper on the dealiased block
reproduces it to roundoff, not bitwise, so the comparison is relative, per series column
and per final coefficient array.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))

from make_golden_runs import VARIANTS, golden_run  # noqa: E402

RTOL = 1e-10


@pytest.fixture(scope="module")
def golden():
    return dict(np.load(DATA / "golden_runs.npz"))


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_run_matches_golden(golden, variant, tmp_path):
    current = golden_run(variant, tmp_path)
    assert current.keys() == {k for k in golden if k.startswith(variant + "/")}
    for key, value in current.items():
        stored = golden[key]
        assert value.shape == stored.shape, key
        assert np.max(np.abs(value - stored)) <= RTOL * np.max(np.abs(stored)), key
