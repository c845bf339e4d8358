"""Write ``golden_runs.npz``: short 32^2 runs that pin the stepper's output.

For each of the seven coupling variants, one ``run_experiment`` (spin-up
from zero, a decorrelated partner, then the coupled run) is recorded: the
``series.csv`` columns and the final coefficients of both systems on the
dealiased half-plane block (``|kx| <= 10``, ``0 <= ky <= 10``; every other
mode is zero or its Hermitian mirror). ``tests/test_golden.py`` compares
the current code against the file.

The file in the repository was written by the full-lattice complex-FFT
stepper, before the stepper moved to the ``rfft2`` half-plane; the two
agree to roundoff, not bitwise. Regenerate only on purpose:

    PYTHONPATH=src python tests/data/make_golden_runs.py tests/data/golden_runs.npz
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from twinflow.config import ExperimentConfig
from twinflow.coupling import IntertwinementSpec
from twinflow.experiment import CSV_COLUMNS, read_series_csv, run_experiment
from twinflow.forcing import ForcingSpec

RESOLUTION = 32
KMAX = 10  # floor(32 / 3), the dealiased band
VARIANTS = {
    "trivial": {},
    "mutual_sync": dict(theta1=0.25),
    "degenerate_sync": {},
    "mutual_nudge": dict(mu1=5.0, mu2=2.0),
    "symmetric_nudge": dict(mu1=5.0, mu2=2.0),
    "general_nudge": dict(matrix=(1.0, 3.0, 0.5, 2.0)),
    "general_sync": dict(matrix=(0.7, 0.3, 0.6, 0.4)),
}


def golden_config(variant: str) -> ExperimentConfig:
    nu = 0.01
    return ExperimentConfig(
        resolution=RESOLUTION,
        nu=nu,
        dt=0.01,
        t_end=0.5,
        forcing=ForcingSpec(4, 10, 10000.0, nu, 3),
        coupling=IntertwinementSpec(variant, 5.0, **VARIANTS[variant]),
        init_kind="decorrelated",
        spinup_time=1.0,
        decorrelate_time=0.5,
        record_every=5,
    )


def block(coeffs: np.ndarray) -> np.ndarray:
    rows = np.arange(-KMAX, KMAX + 1) % coeffs.shape[0]
    return coeffs[np.ix_(rows, np.arange(KMAX + 1))]


def golden_run(variant: str, workdir: Path) -> dict:
    """Series columns and final coefficient blocks of one variant's run."""
    out = workdir / variant
    _, state = run_experiment(golden_config(variant), output_dir=out)
    series = read_series_csv(out / "series.csv")
    arrays = {f"{variant}/{col}": np.array([getattr(r, col) for r in series])
              for col in CSV_COLUMNS}
    arrays[f"{variant}/psi1"] = block(state.psi1.coeffs)
    arrays[f"{variant}/psi2"] = block(state.psi2.coeffs)
    return arrays


def main(path: str) -> None:
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in VARIANTS:
            arrays.update(golden_run(variant, Path(tmp)))
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    main(sys.argv[1])
