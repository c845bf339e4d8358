"""Semi-implicit integrating-factor Euler evolution of single or paired flows.

Per mode k != 0, one step applies

    psi_k <- exp(-nu*|k|^2*dt) * (psi_k + dt*(coupling_k - nonlinear_k + force_k))

so diffusion is exact and everything else is explicit Euler. The
exponential factor is premultiplied by the dealias mask, which keeps the
state dealiased without a separate pass.

Every stepping entry point (``advance``, ``spin_up``, ``decorrelate``,
``step_pair``, ``step_single``) converts its input once to raw ``rfft2``
half-plane arrays (``N x (N/2+1)``) and runs all per-step work on them:
the nonlinear term, the coupling, the update and the blow-up check. Full-
lattice ``SpectralField`` states are rebuilt by exact Hermitian
reflection only where a caller sees them: the observer on its cadence,
rolling checkpoints, and the returned state. So every state handed out is
exactly Hermitian, and stepping k times one call at a time equals one
k-step call bitwise. Inputs must be Hermitian (see ``spectral.to_half``).
Checkpoints serialize a full pair state losslessly (see
``save_checkpoint`` for the byte layout).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .coupling import IntertwinementSpec, coupling_arrays, observation_mask
from .fieldops import nonlinear_half, stream_force_term
from .forcing import ForcingSpec, absorbing_radii, make_band_forcing
from .spectral import (
    SpectralField,
    SpectralGrid,
    StreamFunction,
    from_half,
    half_plane,
    shared_grid,
    to_half,
    zero_field,
)

__all__ = [
    "SimConfig",
    "PairState",
    "BlowUpError",
    "CheckpointError",
    "step_single",
    "step_pair",
    "advance",
    "spin_up",
    "decorrelate",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

# Abort threshold: |u| exceeding this multiple of the absorbing-ball
# radius means the explicit nonlinear step has destabilized.
BLOWUP_FACTOR = 1.0e6


class BlowUpError(RuntimeError):
    """Non-finite or runaway coefficients during time stepping."""

    def __init__(self, t: float, detail: str, last_checkpoint: Optional[str] = None):
        self.t = t
        self.last_checkpoint = last_checkpoint
        msg = f"blow-up at t={t:g}: {detail}"
        if last_checkpoint:
            msg += f" (last good checkpoint: {last_checkpoint})"
        super().__init__(msg)


@dataclass(frozen=True)
class SimConfig:
    """Viscosity, timestep, grid, force, and horizon for one run."""

    nu: float
    dt: float
    grid: SpectralGrid
    forcing: Optional[ForcingSpec] = None
    t_end: float = 0.0

    def __post_init__(self):
        if self.nu <= 0 or self.dt <= 0:
            raise ValueError("nu and dt must be positive")

    @property
    def stability_number(self) -> float:
        """Informational dt*nu*kmax^2; diffusion itself is exact."""
        kmax = self.grid.resolution / 2.0
        return self.dt * self.nu * kmax**2


@dataclass(frozen=True)
class PairState:
    """Two streamfunctions plus the simulation clock."""

    psi1: StreamFunction
    psi2: StreamFunction
    t: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        if self.psi1.grid.resolution != self.psi2.grid.resolution:
            raise ValueError("pair components live on different grids")

    @property
    def grid(self) -> SpectralGrid:
        return self.psi1.grid


@lru_cache(maxsize=16)
def _step_constants(grid: SpectralGrid, nu: float, dt: float):
    """Half-plane integrating factor (dealias mask folded in) and the
    weights of the blow-up energy sum |k|^2 |psi_k|^2.

    Columns ``ky = 0`` and ``ky = N/2`` hold each mode once; every other
    half-plane column stands for itself and its mirror, so counts twice.
    """
    ksq = half_plane(grid.ksq)
    efac = np.exp(-nu * ksq * dt) * half_plane(grid.dealias_mask)
    weights = 2.0 * ksq
    weights[:, 0] = ksq[:, 0]
    weights[:, -1] = ksq[:, -1]
    for arr in (efac, weights):
        arr.setflags(write=False)
    return efac, weights


@lru_cache(maxsize=16)
def _blowup_radius(spec: ForcingSpec, resolution: int) -> float:
    f = make_band_forcing(spec, shared_grid(resolution))
    rho0, _ = absorbing_radii(f, spec.viscosity)
    return BLOWUP_FACTOR * rho0


def _check_finite(psi: np.ndarray, weights: np.ndarray, cfg: SimConfig, t: float,
                  last_checkpoint: Optional[str]):
    # |u|^2 in one reduction over the half-plane: NaN/Inf propagate.
    energy = float(np.sum(weights * (psi.real * psi.real + psi.imag * psi.imag)))
    if not np.isfinite(energy):
        raise BlowUpError(t, "non-finite coefficient detected", last_checkpoint)
    if cfg.forcing is not None:
        limit = _blowup_radius(cfg.forcing, cfg.grid.resolution)
        if limit > 0 and 2.0 * np.pi * np.sqrt(energy) > limit:
            raise BlowUpError(
                t, f"|u| exceeded {BLOWUP_FACTOR:g} x absorbing radius", last_checkpoint
            )


def _full(grid: SpectralGrid, psi: np.ndarray) -> StreamFunction:
    return StreamFunction(grid, from_half(psi))


def _force_half(f: SpectralField) -> np.ndarray:
    return to_half(stream_force_term(f).coeffs)


def _evolve_single(
    psi: StreamFunction,
    cfg: SimConfig,
    f: SpectralField,
    nsteps: int,
    checkpoint_dir: Optional[Path] = None,
    every: int = 1,
    progress: Optional[Callable[[float], None]] = None,
) -> StreamFunction:
    """``nsteps`` single-flow steps on the half-plane, clock from zero.

    Every ``every`` steps, writes a rolling checkpoint into
    ``checkpoint_dir`` (when given) and calls ``progress`` (when given).
    """
    grid, dt = cfg.grid, cfg.dt
    efac, weights = _step_constants(grid, cfg.nu, dt)
    g = _force_half(f)
    h = to_half(psi.coeffs)
    last_ckpt = None
    for i in range(nsteps):
        t = (i + 1) * dt
        nonlin = nonlinear_half(h, grid)
        h = efac * (h + dt * (g - nonlin))
        _check_finite(h, weights, cfg, t, last_ckpt)
        if (i + 1) % every == 0:
            if checkpoint_dir is not None:
                path = Path(checkpoint_dir) / f"spinup_{i + 1:09d}.ckpt"
                out = _full(grid, h)
                save_checkpoint(PairState(out, out, t, i + 1), dt, path)
                last_ckpt = str(path)
            if progress is not None:
                progress(t)
    return psi if nsteps == 0 else _full(grid, h)


def step_single(psi: StreamFunction, cfg: SimConfig, f: SpectralField) -> StreamFunction:
    """One integrating-factor Euler step of a single flow."""
    return _evolve_single(psi, cfg, f, 1)


def step_pair(
    state: PairState,
    cfg: SimConfig,
    spec: IntertwinementSpec,
    f1: SpectralField,
    f2: SpectralField,
) -> PairState:
    """One step of the coupled pair under forces (f1, f2)."""
    return advance(state, cfg, spec, f1, f2, 1)


def advance(
    state: PairState,
    cfg: SimConfig,
    spec: IntertwinementSpec,
    f1: SpectralField,
    f2: SpectralField,
    nsteps: int,
    observer: Optional[Callable[[PairState], None]] = None,
    observe_every: int = 1,
    last_checkpoint: Optional[str] = None,
) -> PairState:
    """Run ``nsteps`` pair steps, invoking ``observer`` on the cadence.

    The observer also sees the initial state. Forces, the pair and the
    projection mask move to the half-plane once, outside the loop.
    """
    if observer is not None:
        observer(state)
    grid, dt = cfg.grid, cfg.dt
    efac, weights = _step_constants(grid, cfg.nu, dt)
    mask = observation_mask(spec, grid, half=True)
    g1, g2 = _force_half(f1), _force_half(f2)
    p1, p2 = to_half(state.psi1.coeffs), to_half(state.psi2.coeffs)
    t, step = state.t, state.step_index
    out = state
    for i in range(nsteps):
        n1, n2 = nonlinear_half(p1, grid), nonlinear_half(p2, grid)
        coupling = coupling_arrays(spec, p1, p2, n1, n2, mask)
        if coupling is None:
            p1 = efac * (p1 + dt * (g1 - n1))
            p2 = efac * (p2 + dt * (g2 - n2))
        else:
            # (coupling - nonlin) first: lets coupled low modes cancel exactly
            # when the coupling reproduces the nonlinear term coefficientwise.
            c1, c2 = coupling
            p1 = efac * (p1 + dt * ((c1 - n1) + g1))
            p2 = efac * (p2 + dt * ((c2 - n2) + g2))
        t, step = t + dt, step + 1
        _check_finite(p1, weights, cfg, t, last_checkpoint)
        _check_finite(p2, weights, cfg, t, last_checkpoint)
        out = None
        if observer is not None and (i + 1) % observe_every == 0:
            out = PairState(_full(grid, p1), _full(grid, p2), t, step)
            observer(out)
    if out is None:
        out = PairState(_full(grid, p1), _full(grid, p2), t, step)
    return out


def spin_up(
    cfg: SimConfig,
    duration: float,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: float = 100.0,
    progress: Optional[Callable[[float], None]] = None,
) -> StreamFunction:
    """Evolve from zero initial data under the configured force.

    Writes rolling checkpoints (pair format with both components equal)
    into ``checkpoint_dir`` every ``checkpoint_every`` time units when a
    directory is given.
    """
    if duration < 0:
        raise ValueError("spin-up duration must be nonnegative")
    if cfg.forcing is None:
        raise ValueError("spin-up requires a forcing spec")
    psi = zero_field(cfg.grid)
    force = make_band_forcing(cfg.forcing, cfg.grid)
    nsteps = int(round(duration / cfg.dt))
    every = max(1, int(round(checkpoint_every / cfg.dt)))
    return _evolve_single(psi, cfg, force, nsteps, checkpoint_dir, every, progress)


def decorrelate(
    psi: StreamFunction, cfg: SimConfig, duration: float = 100.0
) -> StreamFunction:
    """Evolve a snapshot further in time to produce a decorrelated partner."""
    if duration < 0:
        raise ValueError("decorrelation duration must be nonnegative")
    if cfg.forcing is None:
        raise ValueError("decorrelation requires a forcing spec")
    force = make_band_forcing(cfg.forcing, cfg.grid)
    return _evolve_single(psi, cfg, force, int(round(duration / cfg.dt)))


# --- checkpoint serialization -------------------------------------------------

CHECKPOINT_MAGIC = b"INTWNSE1"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<8sIIddQ")  # magic, version, resolution, dt, t, step


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(state: PairState, dt: float, path) -> None:
    """Serialize a pair state.

    Layout (little-endian): magic ``INTWNSE1``, format version u32,
    resolution u32, timestep f64, clock f64, step index u64, then both
    coefficient arrays as interleaved f64 (re, im) pairs in row-major
    wavenumber order, then CRC32 (u32) of all preceding bytes.
    """
    n = state.grid.resolution
    blob = bytearray()
    blob += _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, n, dt, state.t,
                         state.step_index)
    for field in (state.psi1, state.psi2):
        blob += np.ascontiguousarray(field.coeffs, dtype="<c16").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path, grid: Optional[SpectralGrid] = None) -> tuple[PairState, float]:
    """Read a checkpoint back; returns (state, timestep).

    Validates magic, version, length, and CRC before constructing any
    state; if ``grid`` is given its resolution must match the file's.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + 4:
        raise CheckpointError(f"truncated checkpoint file: {path}")
    magic, version, n, dt, t, step = _HEADER.unpack_from(raw, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} in {path}")
    expected = _HEADER.size + 2 * (n * n * 16) + 4
    if len(raw) != expected:
        raise CheckpointError(
            f"truncated checkpoint file: {path} ({len(raw)} bytes, expected {expected})"
        )
    stored_crc = struct.unpack_from("<I", raw, len(raw) - 4)[0]
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"checkpoint CRC mismatch in {path}")
    if grid is not None and grid.resolution != n:
        raise CheckpointError(
            f"resolution mismatch on resume: checkpoint has {n}, "
            f"configuration has {grid.resolution}"
        )
    g = grid if grid is not None else shared_grid(n)
    size = n * n * 16
    offset = _HEADER.size
    fields = []
    for _ in range(2):
        arr = np.frombuffer(raw, dtype="<c16", count=n * n, offset=offset)
        fields.append(SpectralField(g, arr.reshape(n, n).astype(np.complex128)))
        offset += size
    return PairState(fields[0], fields[1], t, step), dt
