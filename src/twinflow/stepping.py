"""Semi-implicit integrating-factor Euler evolution of single or paired flows.

Per mode k != 0, one step applies

    psi_k <- exp(-nu*|k|^2*dt) * (psi_k + dt*(coupling_k - nonlinear_k + force_k))

so diffusion is exact and everything else is explicit Euler.

Every stepping entry point (``advance``, ``spin_up``, ``decorrelate``,
``step_single``) takes the run's one config, a ``config.ExperimentConfig``,
and reads its ``grid``, ``nu``, ``dt`` and ``forcing`` (whose absorbing
radius sets the blow-up limit); ``advance`` also reads its ``coupling``,
and takes the forces explicitly.

The state is the dealiased block (``spectral.to_block``): the modes the
2/3 mask keeps. A ``PairState`` holds a pair's two blocks, the grid and
the clock. A field enters once, when a ``PairState`` is built or a single
flow starts: its ``rfft2`` half-plane is checked for non-finite
coefficients, then only its block is kept, so the state is dealiased by
construction. One loop steps the blocks of a single flow (the uncoupled
case) or of a coupled pair, as one stack over which every stage of a
step runs once; a callback on its cadence hands
``advance``'s observer a ``PairState`` over the loop's own buffers, or
writes a spin-up's rolling checkpoint. Stepped blocks are wrapped, never
entered again: ``to_block`` re-mirrors column ``ky = 0``, which keeps
every value but can flip the sign of a zero imaginary part, and so the
bytes of a checkpoint. Full-lattice fields are rebuilt by exact
Hermitian reflection only for ``psi1``/``psi2``, the single flows
returned and checkpoint files, so every state handed out is exactly
Hermitian, and stepping k times one call at a time equals one k-step
call bitwise. Inputs must be Hermitian.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .coupling import coupling_arrays, observation_mask
from .fieldops import nonlinear_block, nonlinear_workspace, stream_force_term
from .forcing import ForcingSpec, absorbing_radii, make_band_forcing
from .spectral import (
    PARSEVAL_FACTOR,
    SpectralField,
    SpectralGrid,
    block_of,
    from_block,
    half_plane,
    half_plane_weights,
    shared_grid,
    to_block,
    weighted_power,
    zero_field,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "PairState",
    "BlowUpError",
    "CheckpointError",
    "step_single",
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


@dataclass(frozen=True, eq=False, init=False)
class PairState:
    """Two streamfunctions as their dealiased blocks, the grid and the clock.

    The constructor checks each field's half-plane for a non-finite
    coefficient (``BlowUpError``), then keeps its block, read-only.
    ``of_blocks`` wraps blocks without copying; ``psi1`` and ``psi2``
    rebuild the fields by exact Hermitian reflection.
    """

    block1: np.ndarray
    block2: np.ndarray
    grid: SpectralGrid
    t: float
    step_index: int

    def __init__(self, psi1: SpectralField, psi2: SpectralField, t: float = 0.0,
                 step_index: int = 0):
        if psi1.grid.resolution != psi2.grid.resolution:
            raise ValueError("pair components live on different grids")
        self.__dict__.update(block1=_enter(psi1, t), block2=_enter(psi2, t),
                             grid=psi1.grid, t=t, step_index=step_index)

    @classmethod
    def of_blocks(cls, block1: np.ndarray, block2: np.ndarray, grid: SpectralGrid,
                  t: float, step_index: int) -> PairState:
        state = cls.__new__(cls)
        state.__dict__.update(block1=block1, block2=block2, grid=grid, t=t,
                              step_index=step_index)
        return state

    @property
    def psi1(self) -> SpectralField:
        return SpectralField(self.grid, from_block(self.block1, self.grid.resolution))

    @property
    def psi2(self) -> SpectralField:
        return SpectralField(self.grid, from_block(self.block2, self.grid.resolution))


def _enter(psi: SpectralField, t: float) -> np.ndarray:
    """The read-only block of a field entering the stepper. The modes
    outside it are dropped here, so the whole half-plane is checked first."""
    grid = psi.grid
    _check_finite(half_plane(psi.coeffs), half_plane_weights(grid, 1), np.inf, t)
    block = to_block(psi.coeffs, grid.dealias_kmax)
    block.setflags(write=False)
    return block


@lru_cache(maxsize=16)
def _step_constants(grid: SpectralGrid, nu: float, dt: float, forcing: ForcingSpec):
    """Integrating factor on the block, the block's weights of the
    blow-up energy sum |k|^2 |psi_k|^2, and the blow-up limit on |u|."""
    kmax = grid.dealias_kmax
    efac = np.exp(-nu * block_of(grid.ksq, kmax) * dt)
    weights = block_of(half_plane_weights(grid, 1), kmax)
    for arr in (efac, weights):
        arr.setflags(write=False)
    rho0, _ = absorbing_radii(make_band_forcing(forcing, grid, nu), nu)
    return efac, weights, BLOWUP_FACTOR * rho0


def _check_finite(psi: np.ndarray, weights: np.ndarray, limit: float, t: float,
                  last_checkpoint: Optional[str] = None):
    # |u|^2 in one reduction over a block or half-plane: NaN/Inf propagate.
    energy = weighted_power(weights, psi)
    if not np.isfinite(energy):
        raise BlowUpError(t, "non-finite coefficient detected", last_checkpoint)
    if PARSEVAL_FACTOR * np.sqrt(energy) > limit:
        raise BlowUpError(
            t, f"|u| exceeded {BLOWUP_FACTOR:g} x absorbing radius", last_checkpoint
        )


def _evolve(cfg: ExperimentConfig, blocks: list, forces: list, nsteps: int,
            t: float = 0.0, step: int = 0, cadence: Optional[Callable] = None,
            every: int = 1) -> tuple[np.ndarray, float, int]:
    """``nsteps`` steps of the dealiased ``blocks`` (left as they are) under
    ``forces``: one flow, or two coupled through ``cfg.coupling``.

    The state is one stack of shape ``(s, 2K+1, K+1)``, ``s`` the number
    of blocks, and every step runs once over it: the nonlinear term (one
    ``nonlinear_block`` call), the gather and scatter of the observed
    modes, and the integrating-factor update. Returns the stepped stack,
    the clock and the step index. Every ``every`` steps calls
    ``cadence(ps, t, step)`` with the stack; a checkpoint path it returns
    is the one a later ``BlowUpError`` names.
    """
    grid, dt = cfg.grid, cfg.dt
    kmax = grid.dealias_kmax
    efac, weights, limit = _step_constants(grid, cfg.nu, dt, cfg.forcing)
    for b in blocks:
        _check_finite(b, weights, limit, t)
    ps = np.stack(blocks)
    rs = np.empty_like(ps)
    gs = np.stack([to_block(stream_force_term(f).coeffs, kmax) for f in forces])
    work = nonlinear_workspace(grid, len(ps))
    checkpoint = None
    spec = cfg.coupling if len(ps) == 2 else None  # a single flow is uncoupled
    if spec is not None:
        # P_N on the block: when 3 | N, the ball |k| <= N/3 also holds
        # modes outside the block, which are never stepped
        low = np.flatnonzero(block_of(observation_mask(spec, grid), kmax))
        g_low = _flat(gs).take(low, axis=1)
        acts_on_nonlinear, _ = spec.form
    for i in range(nsteps):
        nonlinear_block(ps, grid, work, rs)
        if spec is not None:
            n_low = _flat(rs).take(low, axis=1)
        np.subtract(gs, rs, out=rs)
        if spec is not None:
            # On the observed modes the right-hand side is (c - n) + g:
            # subtracting first lets coupled low modes cancel exactly when
            # the coupling reproduces the nonlinear term coefficientwise.
            x1, x2 = n_low if acts_on_nonlinear else _flat(ps).take(low, axis=1)
            cs = coupling_arrays(spec, x1, x2)
            _flat(rs)[:, low] = np.subtract(cs, n_low) + g_low
        # efac * (p + dt * r), bitwise, without temporaries
        rs *= dt
        rs += ps
        rs *= efac
        ps, rs = rs, ps
        t, step = t + dt, step + 1
        for p in ps:
            _check_finite(p, weights, limit, t, checkpoint)
        if cadence is not None and (i + 1) % every == 0:
            checkpoint = cadence(ps, t, step) or checkpoint
    return ps, t, step


def _flat(stack: np.ndarray) -> np.ndarray:
    """View of a stack of blocks with each block as one row."""
    return stack.reshape(len(stack), -1)


def _evolve_single(psi: SpectralField, cfg: ExperimentConfig, f: SpectralField, nsteps: int,
                   cadence: Optional[Callable] = None, every: int = 1) -> SpectralField:
    """``nsteps`` single-flow steps, clock from zero."""
    if nsteps == 0:
        return psi
    (p,), _, _ = _evolve(cfg, [_enter(psi, 0.0)], [f], nsteps, cadence=cadence, every=every)
    return SpectralField(cfg.grid, from_block(p, cfg.grid.resolution))


def step_single(psi: SpectralField, cfg: ExperimentConfig, f: SpectralField) -> SpectralField:
    """One integrating-factor Euler step of a single flow."""
    return _evolve_single(psi, cfg, f, 1)


def advance(
    state: PairState,
    cfg: ExperimentConfig,
    f1: SpectralField,
    f2: SpectralField,
    nsteps: int,
    observer: Optional[Callable[[PairState], None]] = None,
    observe_every: int = 1,
) -> PairState:
    """Run ``nsteps`` steps of the pair coupled through ``cfg.coupling``
    under forces (f1, f2), and return the stepped state (the input itself
    when ``nsteps`` is 0).

    ``observer`` sees the stepped pair after every ``observe_every``
    steps, never the input, as a ``PairState`` over the loop's own
    buffers, valid only during the call: an observer that keeps them
    copies them. The returned state wraps the stepped blocks, read-only.
    """
    if nsteps == 0:
        return state
    grid = cfg.grid

    def observe(ps, t, step):
        observer(PairState.of_blocks(ps[0], ps[1], grid, t, step))

    ps, t, step = _evolve(
        cfg, [state.block1, state.block2], [f1, f2], nsteps, state.t, state.step_index,
        observe if observer is not None else None, observe_every,
    )
    ps.setflags(write=False)
    return PairState.of_blocks(*ps, grid, t, step)


def spin_up(
    cfg: ExperimentConfig,
    duration: float,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: Optional[float] = None,
    progress: Optional[Callable[[float], None]] = None,
) -> SpectralField:
    """Evolve from zero initial data under the configured force.

    Writes rolling checkpoints (pair format with both components equal)
    of the stepped block into ``checkpoint_dir`` every ``checkpoint_every``
    time units (default ``cfg.checkpoint_every``) when a directory is
    given. From zero data the state never leaves the dealiased block.
    """
    if duration < 0:
        raise ValueError("spin-up duration must be nonnegative")
    if checkpoint_every is None:
        checkpoint_every = cfg.checkpoint_every
    psi = zero_field(cfg.grid)
    force = make_band_forcing(cfg.forcing, cfg.grid, cfg.nu)
    nsteps = int(round(duration / cfg.dt))
    every = max(1, int(round(checkpoint_every / cfg.dt)))

    def cadence(ps, t, step):
        # checkpoint first: progress may rely on it being on disk
        path = None
        if checkpoint_dir is not None:
            path = str(Path(checkpoint_dir) / f"spinup_{step:09d}.ckpt")
            save_checkpoint(PairState.of_blocks(ps[0], ps[0], cfg.grid, t, step), cfg.dt,
                            path)
        if progress is not None:
            progress(t)
        return path

    return _evolve_single(psi, cfg, force, nsteps, cadence, every)


def decorrelate(psi: SpectralField, cfg: ExperimentConfig, duration: float) -> SpectralField:
    """Evolve a snapshot further in time to produce a decorrelated partner."""
    if duration < 0:
        raise ValueError("decorrelation duration must be nonnegative")
    force = make_band_forcing(cfg.forcing, cfg.grid, cfg.nu)
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

    The bytes stream from the arrays into a sibling temporary file, which
    then replaces ``path`` in one rename: a write that fails or is killed
    midway leaves any previous file at ``path`` as it was.
    """
    path = Path(path)
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, state.grid.resolution,
                          dt, state.t, state.step_index)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in (header, *(memoryview(np.ascontiguousarray(f.coeffs, "<c16"))
                                    for f in (state.psi1, state.psi2))):
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, grid: Optional[SpectralGrid] = None) -> tuple[PairState, float]:
    """Read a checkpoint back; returns (state, timestep).

    Validates magic, version, length, CRC, and that every stored
    coefficient is finite before constructing any state
    (``CheckpointError``, naming the file); if ``grid`` is given its
    resolution must match the file's. The stored fields enter a
    ``PairState``: see there.
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
    if zlib.crc32(memoryview(raw)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"checkpoint CRC mismatch in {path}")
    if grid is not None and grid.resolution != n:
        raise CheckpointError(
            f"resolution mismatch on resume: checkpoint has {n}, "
            f"configuration has {grid.resolution}"
        )
    if grid is None:
        try:
            grid = shared_grid(n)
        except ValueError as exc:
            raise CheckpointError(f"bad checkpoint header in {path}: {exc}") from None
    stored = np.frombuffer(raw, dtype="<c16", count=2 * n * n,
                           offset=_HEADER.size).reshape(2, n, n)
    if not np.isfinite(stored).all():
        raise CheckpointError(f"non-finite coefficient stored in checkpoint {path}")
    return PairState(*(SpectralField(grid, c) for c in stored), t, step), dt
