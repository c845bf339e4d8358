"""Semi-implicit integrating-factor Euler evolution of single or paired flows.

Per mode k != 0, one step applies

    psi_k <- exp(-nu*|k|^2*dt) * (psi_k + dt*(coupling_k - nonlinear_k + force_k))

so diffusion is exact and everything else is explicit Euler.

Every stepping entry point (``advance``, ``spin_up``, ``decorrelate``)
takes the run's one config, a ``config.ExperimentConfig``, and reads its
``grid``, ``nu``, ``dt`` and ``forcing``, whose absorbing radius sets the
blow-up limit of both systems. A single flow is driven by ``forcing``;
``advance`` drives system 1 by ``forcing`` and system 2 by ``forcing2``
(``forcing`` when unset), and couples them through ``coupling``: its
cutoff ball ``spectral.low_block`` is the projection P_N. Each entry is
one call of the one loop, ``_evolve``, with the states as fields and the
forces as force fields (``make_band_forcing``); the loop builds each
force's streamfunction source on the block once per call, and refuses a
state on another grid than the config's or a negative step count.

The state is the dealiased block that every ``SpectralField`` holds
(see ``spectral``): the modes the 2/3 mask keeps. A ``PairState`` is two
fields and a clock. Fields enter and leave the stepper as their blocks,
never through a lattice: ``_evolve`` stacks its input blocks, and one
function (``_check_finite``) checks the stack for non-finite
coefficients and runaway magnitude before the first step and after
every step. One loop steps the blocks of a single flow (the uncoupled
case) or of a coupled pair, as one stack over which every stage of a
step runs once; a callback on its cadence gets the stepped fields, from
which ``advance``'s observer sees a ``PairState`` and a spin-up writes
its rolling checkpoint. Each step writes a new block-sized stack, so
nothing handed out is written again: a state kept from an observer
stays as it was, and no step allocates a lattice-sized array. Stepped
blocks are wrapped as they are, so every state handed out is exactly
Hermitian, and stepping k times one call at a time equals one k-step
call bitwise. A checkpoint file holds the blocks too: ``save_checkpoint``
writes version 2, streamed from the fields' own blocks, and
``load_checkpoint`` copies them back. Only a version-1 file holds a
lattice, which ``load_checkpoint`` takes onto the block
(``spectral.to_block``), dropping every mode outside it. Inputs must be
Hermitian.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .coupling import coupling_arrays
from .fieldops import nonlinear_block, nonlinear_workspace, stream_force_term
from .forcing import ForcingSpec, absorbing_radii, make_band_forcing
from .spectral import (
    PARSEVAL_FACTOR,
    SpectralField,
    SpectralGrid,
    low_block,
    make_hermitian,
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


@dataclass(frozen=True, eq=False)
class PairState:
    """Two streamfunctions on one grid and the clock."""

    psi1: SpectralField
    psi2: SpectralField
    t: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        if self.psi1.grid.resolution != self.psi2.grid.resolution:
            raise ValueError("pair components live on different grids")

    @property
    def grid(self) -> SpectralGrid:
        return self.psi1.grid


@lru_cache(maxsize=16)
def _step_constants(grid: SpectralGrid, nu: float, dt: float, forcing: ForcingSpec):
    """Integrating factor on the block, the blow-up limit on |u|, and the
    bound under which a stack's plain coefficient power passes the
    blow-up check (see ``_check_finite``)."""
    efac = np.exp(-nu * grid.block_ksq * dt)
    efac.setflags(write=False)
    rho0, _ = absorbing_radii(make_band_forcing(forcing, grid, nu), nu)
    limit = BLOWUP_FACTOR * rho0
    # every block's sum(weights |c|^2) is at most max(weights) times the
    # stack's sum |c|^2; half the limit on |u|^2 leaves room for roundoff
    safe_power = 0.5 * (limit / PARSEVAL_FACTOR) ** 2 / grid.block_weights.max()
    return efac, limit, safe_power


def _check_finite(ps: np.ndarray, weights: np.ndarray, limit: float, safe_power: float,
                  t: float, last_checkpoint: Optional[str] = None):
    """The blow-up check of the stack ``ps`` at clock ``t``: a
    ``BlowUpError`` (naming ``last_checkpoint``) when a block holds a
    non-finite coefficient or its ``|u|`` exceeds ``limit``.

    One reduction over the stack comes first: its plain coefficient power
    times the largest weight bounds every block's ``|u|^2``. Only when
    that bound is above ``safe_power`` (see ``_step_constants``), or not
    finite, is each block's ``|u|^2`` summed exactly and checked.
    """
    power = ps.view(np.float64)
    if np.vdot(power, power) <= safe_power:  # NaN fails too
        return
    for p in ps:
        # |u|^2 in one reduction over a block: NaN/Inf propagate.
        energy = weighted_power(weights, p)
        if not np.isfinite(energy):
            raise BlowUpError(t, "non-finite coefficient detected", last_checkpoint)
        if PARSEVAL_FACTOR * np.sqrt(energy) > limit:
            raise BlowUpError(
                t, f"|u| exceeded {BLOWUP_FACTOR:g} x absorbing radius", last_checkpoint
            )


def _evolve(cfg: ExperimentConfig, fields: list, forces: list, nsteps: int,
            t: float = 0.0, step: int = 0, cadence: Optional[Callable] = None,
            every: int = 1) -> tuple[list, float, int]:
    """``nsteps`` steps of the states ``fields`` (``SpectralField``s on
    ``cfg.grid``) under the force fields ``forces``, one per state: one
    flow, or two coupled through ``cfg.coupling``, whose cutoff must be
    resolved (``ConfigError``). Returns the stepped fields, the clock and
    the step index; for 0 steps, the input fields themselves. A state on
    another grid than ``cfg.grid``, or a negative ``nsteps``, is a
    ``ValueError``.

    A force field is what ``make_band_forcing`` returns (any field will
    do); it enters as its streamfunction source on the block
    (``stream_force_term``), built once per call. When every state shares
    one force object, the stack reads that source through a broadcast
    view, not a copy.

    The state is one stack of shape ``(s, 2K+1, K+1)``, ``s`` the number
    of states, and every step runs once over it: the nonlinear term (one
    ``nonlinear_block`` call), the gather and scatter of the observed
    modes, the integrating-factor update and the blow-up check
    (``_check_finite``, which also checks the input stack). Each step
    writes a new stack and never writes the last one again. Every
    ``every`` steps calls ``cadence(fields, t, step)`` with the stepped
    fields; a checkpoint path it returns is the one a later
    ``BlowUpError`` names.
    """
    grid, dt = cfg.grid, cfg.dt
    for f in fields:
        if f.grid != grid:
            raise ValueError(f"state on a {f.grid.resolution}^2 grid, but the "
                             f"configuration's grid is {grid.resolution}^2")
    if nsteps < 0:
        raise ValueError(f"nsteps must be non-negative, got {nsteps}")
    if nsteps == 0:
        return fields, t, step
    efac, limit, safe_power = _step_constants(grid, cfg.nu, dt, cfg.forcing)
    weights = grid.block_weights
    ps = np.stack([f.block for f in fields])
    _check_finite(ps, weights, limit, safe_power, t)
    # one force for every state is read through a broadcast view, not copied
    if all(f is forces[0] for f in forces):
        gs = np.broadcast_to(stream_force_term(forces[0]).block, ps.shape)
    else:
        gs = np.stack([stream_force_term(f).block for f in forces])
    work = nonlinear_workspace(grid, len(ps))
    checkpoint = None
    spec = cfg.coupling if len(ps) == 2 else None  # a single flow is uncoupled
    if spec is not None:
        cfg.check_cutoff()
        mask = low_block(grid, spec.cutoff)
        g_low = gs[:, mask]
        # flat indices of the observed modes in the stack, block by block
        low = np.flatnonzero(np.broadcast_to(mask, ps.shape))
        acts_on_nonlinear, _ = spec.form
        # observed modes of the nonlinear terms and of the coupled arrays,
        # block by block, and the coupling's right-hand-side additions
        n_low = np.empty(g_low.shape, dtype=np.complex128)
        x = n_low if acts_on_nonlinear else np.empty_like(n_low)
        c = np.empty_like(n_low)
        n_flat, x_flat = n_low.reshape(-1), x.reshape(-1)
    for i in range(nsteps):
        rs = np.empty_like(ps)
        nonlinear_block(ps, work, rs)
        if spec is not None:
            np.take(rs, low, out=n_flat, mode="clip")
        np.subtract(gs, rs, out=rs)
        if spec is not None:
            # On the observed modes the right-hand side is (c - n) + g:
            # subtracting first lets coupled low modes cancel exactly when
            # the coupling reproduces the nonlinear term coefficientwise.
            if not acts_on_nonlinear:
                np.take(ps, low, out=x_flat, mode="clip")
            coupling_arrays(spec, x, c)
            c -= n_low
            c += g_low
            np.put(rs, low, c)
        # efac * (p + dt * r), bitwise, without temporaries
        rs *= dt
        rs += ps
        rs *= efac
        ps = rs
        t, step = t + dt, step + 1
        _check_finite(ps, weights, limit, safe_power, t, checkpoint)
        if cadence is not None and (i + 1) % every == 0:
            checkpoint = cadence([SpectralField(grid, p) for p in ps], t, step) or checkpoint
    return [SpectralField(grid, p) for p in ps], t, step


def advance(
    state: PairState,
    cfg: ExperimentConfig,
    nsteps: int,
    observer: Optional[Callable[[PairState], None]] = None,
    observe_every: int = 1,
) -> PairState:
    """Run ``nsteps`` steps of the pair coupled through ``cfg.coupling``
    under the forces ``cfg.forcing`` and ``cfg.forcing2`` (``cfg.forcing``
    when unset), and return the stepped state (the input itself when
    ``nsteps`` is 0).

    ``observer`` sees the stepped pair after every ``observe_every``
    steps, never the input, as a ``PairState`` that no later step
    changes. The returned state wraps the stepped blocks.
    """
    forcing2 = cfg.forcing if cfg.forcing2 is None else cfg.forcing2
    forces = [make_band_forcing(f, cfg.grid, cfg.nu) for f in (cfg.forcing, forcing2)]
    cadence = (None if observer is None
               else lambda fields, t, step: observer(PairState(*fields, t, step)))
    (psi1, psi2), t, step = _evolve(cfg, [state.psi1, state.psi2], forces, nsteps,
                                    state.t, state.step_index, cadence, observe_every)
    return state if nsteps == 0 else PairState(psi1, psi2, t, step)


def spin_up(
    cfg: ExperimentConfig,
    duration: float,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: Optional[float] = None,
    progress: Optional[Callable[[float], None]] = None,
) -> SpectralField:
    """Evolve from zero initial data under the configured force.

    Writes rolling checkpoints (pair format with both components equal)
    of the stepped field into ``checkpoint_dir`` every ``checkpoint_every``
    time units (default ``cfg.checkpoint_every``) when a directory is
    given. From zero data the state never leaves the dealiased block.
    """
    nsteps = cfg.steps(duration)
    if checkpoint_every is None:
        checkpoint_every = cfg.checkpoint_every
    every = max(1, cfg.steps(checkpoint_every))

    def cadence(fields, t, step):
        # checkpoint first: progress may rely on it being on disk
        path = None
        if checkpoint_dir is not None:
            path = str(Path(checkpoint_dir) / f"spinup_{step:09d}.ckpt")
            (psi,) = fields
            save_checkpoint(PairState(psi, psi, t, step), cfg.dt, path)
        if progress is not None:
            progress(t)
        return path

    force = make_band_forcing(cfg.forcing, cfg.grid, cfg.nu)
    (psi,), _, _ = _evolve(cfg, [zero_field(cfg.grid)], [force], nsteps,
                           cadence=cadence, every=every)
    return psi


def decorrelate(psi: SpectralField, cfg: ExperimentConfig, duration: float) -> SpectralField:
    """Evolve a snapshot further in time to produce a decorrelated partner."""
    force = make_band_forcing(cfg.forcing, cfg.grid, cfg.nu)
    (psi,), _, _ = _evolve(cfg, [psi], [force], cfg.steps(duration))
    return psi


# --- checkpoint serialization -------------------------------------------------

CHECKPOINT_MAGIC = b"INTWNSE1"
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("<8sIIddQ")  # magic, version, resolution, dt, t, step


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(state: PairState, dt: float, path) -> None:
    """Serialize a pair state (format version 2).

    Layout (little-endian): magic ``INTWNSE1``, format version u32,
    resolution u32, timestep f64, clock f64, step index u64, then both
    dealiased blocks (``(2K+1) x (K+1)``, rows ``kx = 0 .. K`` then
    ``-K .. -1``, ``K = grid.dealias_kmax``) as interleaved f64 (re, im)
    pairs in row-major order, then CRC32 (u32) of all preceding bytes.

    The bytes stream from the blocks' own memory into a sibling temporary
    file, which then replaces ``path`` in one rename: a write that fails or
    is killed midway leaves any previous file at ``path`` as it was.
    """
    path = Path(path)
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, state.grid.resolution,
                          dt, state.t, state.step_index)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in (header, *(memoryview(np.ascontiguousarray(f.block, "<c16"))
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

    Reads format version 2 (``save_checkpoint``) and version 1, whose
    layout differs only in the arrays: two ``N x N`` lattices in the
    ``fft2`` order. Validates magic, version, length, CRC, and that every
    stored coefficient is finite before constructing any state
    (``CheckpointError``, naming the file); if ``grid`` is given its
    resolution must match the file's. Version-2 blocks are copied;
    version-1 lattices are taken onto the block (``to_block``), dropping
    the modes outside it. Either way column ``ky = 0`` is made exactly
    Hermitian (``make_hermitian``). The file, which must be a regular
    file, is read through a read-only memory map, released with the last
    view of it.
    """
    # a read-only map of the file: its bytes are never copied onto the heap
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CheckpointError(f"checkpoint is not a regular file: {path}")
        if info.st_size < _HEADER.size + 4:
            raise CheckpointError(f"truncated checkpoint file: {path}")
        raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    magic, version, n, dt, t, step = _HEADER.unpack_from(raw, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version} in {path}")
    # the stored arrays' shape; kmax is SpectralGrid.dealias_kmax, known
    # before a grid is built from a header that may be corrupt
    kmax = (n - 1) // 3
    shape = (n, n) if version == 1 else (2 * kmax + 1, kmax + 1)
    count = 2 * shape[0] * shape[1]
    expected = _HEADER.size + count * 16 + 4
    if len(raw) != expected:
        raise CheckpointError(
            f"truncated checkpoint file: {path} ({len(raw)} bytes, expected {expected})"
        )
    stored_crc = struct.unpack_from("<I", raw, len(raw) - 4)[0]
    if zlib.crc32(memoryview(raw)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"checkpoint CRC mismatch in {path}")
    if grid is not None and grid.resolution != n:
        raise CheckpointError(
            f"resolution mismatch on resume: checkpoint {path} has {n}, "
            f"configuration has {grid.resolution}"
        )
    if grid is None:
        try:
            grid = shared_grid(n)
        except ValueError as exc:
            raise CheckpointError(f"bad checkpoint header in {path}: {exc}") from None
    stored = np.frombuffer(raw, dtype="<c16", count=count,
                           offset=_HEADER.size).reshape(2, *shape)
    if not np.isfinite(stored).all():
        raise CheckpointError(f"non-finite coefficient stored in checkpoint {path}")
    if version == 1:
        blocks = [to_block(c, kmax) for c in stored]
    else:
        blocks = [make_hermitian(np.array(b, dtype=np.complex128)) for b in stored]
    return PairState(*(SpectralField(grid, b) for b in blocks), t, step), dt
