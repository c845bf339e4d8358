"""Only the ``rfft2`` half-plane of a field is read.

A real field's coefficients satisfy ``c_{-k} = conj(c_k)``, so the
columns ``ky < 0`` repeat what the half-plane holds. Every reduction and
every stepping call must read the half-plane alone: filling those
columns with NaN changes none of their results.
"""

from dataclasses import astuple

import numpy as np
import pytest

import twinflow as tf
from twinflow.experiment import error_record
from twinflow.stepping import advance

from conftest import random_psi, tiny_config


def _readings(psi1, psi2, cfg):
    nu = cfg.nu
    state = tf.PairState(psi1, psi2)
    stepped = advance(state, cfg, 3)
    return {
        **{f"norm_hn({n})": tf.norm_hn(psi1, n) for n in (-1, 0, 1, 2)},
        "energy_spectrum": tf.energy_spectrum(psi1),
        "to_physical": tf.to_physical(psi1),
        "grashof": tf.grashof(psi1, nu),
        "shape_factor": [tf.shape_factor(psi1, n) for n in (-1, 1, 2)],
        "absorbing_radii": tf.absorbing_radii(psi1, nu),
        "error_record": astuple(error_record(state, cfg.coupling.cutoff)),
        "advance": [stepped.psi1.coeffs, stepped.psi2.coeffs, stepped.t],
        "decorrelate": tf.decorrelate(psi2, cfg, 3 * cfg.dt).coeffs,
    }


def _bits(value):
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("n", [32, 48])
def test_columns_ky_below_zero_are_never_read(n):
    grid = tf.SpectralGrid(n)
    rng = np.random.default_rng(n)
    clean = [random_psi(grid, rng) for _ in range(2)]
    dirty = []
    for psi in clean:
        c = psi.coeffs.copy()
        c[:, n // 2 + 1:] = np.nan
        dirty.append(tf.SpectralField(grid, c))
    cfg = tiny_config(resolution=n, forcing=tf.ForcingSpec(4, 10, 500.0, 3),
                      coupling=tf.IntertwinementSpec("mutual_nudge", 5.0, mu1=2.0, mu2=3.0))
    expected = _readings(*clean, cfg)
    got = _readings(*dirty, cfg)
    for name, value in expected.items():
        assert _bits(got[name]) == _bits(value), f"{name} reads the columns ky < 0"
