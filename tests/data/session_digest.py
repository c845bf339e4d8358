"""Print the SHA-256 of every file a 48^2 command-line session writes.

The session runs in-process through ``cli_main``, in a temporary
directory, on the desk preset at 48^2, a grid on which round-off seeds
the modes with ``kx + ky`` odd that power-of-two grids keep at exactly
zero (see the README): ``spinup`` to t = 20 with a rolling checkpoint
every 5 time units; ``run`` of every coupling variant from
the spun-up ``base.ckpt``; a decorrelated run under the sup-norm force;
a run from two checkpoints with its own ``[forcing2]``; a cutoff sweep
and a theta sweep; ``spectrum`` of ``base.ckpt``; ``thresholds`` for
two nudging variants and for the paper-text preset; a mutual-nudging
run at mu1 = mu2 = 1000 that blows up (exit code 3); ``thresholds`` for
the paper-figure preset and for ``degenerate_sync``; and a re-run from
the ``mutual_sync`` run's manifest, whose ``series.csv`` must equal the
first run's; and the ``mutual_sync`` run again from ``base_v1.ckpt``, a
version-1 copy of ``base.ckpt`` written by ``version_1_copy``, whose
``series.csv`` must equal the first run's too. Every command must exit
with its expected code. Each
command's standard output is kept as ``stdout/<nn>-<command>.txt``, and
its standard error, when it writes any, as ``stderr/<nn>-<command>.txt``,
with the temporary directory written as ``<tmp>``.

The tests run this same session once under ``sys.setprofile`` (see
``tests/conftest.py``): what it reaches and where it builds lattices
is pinned by ``tests/test_reachability.py`` and
``tests/test_lattice_boundary.py``.

Output is one ``sha256  relative/path`` line per file, sorted by path,
``manifest.ini`` files excluded (they hold the command line). Two trees
give the same bytes exactly when this listing is the same, so a
refactor that must not change any output compares the listing on its
parent and on itself:

    PYTHONPATH=src python tests/data/session_digest.py > digest.txt
"""

import contextlib
import hashlib
import io
import struct
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from twinflow.cli import cli_main

VARIANT_SETTINGS = {
    "trivial": [],
    "mutual_sync": ["intertwinement.theta1=0.25"],
    "degenerate_sync": [],
    "mutual_nudge": ["intertwinement.mu1=4", "intertwinement.mu2=6"],
    "symmetric_nudge": ["intertwinement.mu1=6", "intertwinement.mu2=4"],
    "general_nudge": ["intertwinement.matrix=1,3,0.5,2"],
    "general_sync": ["intertwinement.matrix=0.7,0.3,0.6,0.4"],
}
DESK_48 = [
    "sim.resolution=48", "sim.t_end=2", "intertwinement.cutoff=10",
    "experiment.spinup_time=20", "experiment.checkpoint_every=5",
    "experiment.decorrelate_time=1",
]
FORCING2 = ["forcing2.band_low=8", "forcing2.band_high=14", "forcing2.grashof=3e4",
            "forcing2.seed=5"]


def with_settings(settings):
    return [arg for item in settings for arg in ("--set", item)]


def version_1_copy(data: bytes) -> bytes:
    """The version-1 file of the state in the version-2 checkpoint ``data``:
    the same header but for the version, each ``(2K+1) x (K+1)`` block
    spread onto its ``N x N`` lattice by Hermitian reflection,
    ``c[-kx, -ky] = conj(c[kx, ky])`` for ``ky = 1 .. K`` and every row,
    and a new CRC32."""
    (n,) = struct.unpack_from("<I", data, 12)
    kmax = (n - 1) // 3
    rows = np.r_[0:kmax + 1, n - kmax:n]
    blocks = np.frombuffer(data, "<c16", 2 * rows.size * (kmax + 1), 40)
    lattices = np.zeros((2, n, n), "<c16")
    lattices[:, rows, : kmax + 1] = blocks.reshape(2, rows.size, kmax + 1)
    lattices[:, :, n - kmax:] = np.conj(lattices[:, -np.arange(n) % n, kmax:0:-1])
    blob = data[:8] + struct.pack("<I", 1) + data[12:40] + lattices.tobytes()
    return blob + struct.pack("<I", zlib.crc32(blob))


def session(tmp: Path) -> None:
    calls = 0

    def cli(*argv, expect=0):
        nonlocal calls
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        if code != expect:
            raise RuntimeError(f"exit {code}, expected {expect}: twinflow {' '.join(argv)}"
                               f"\n{err.getvalue()}")
        calls += 1
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
            if stream == "stdout" or text:
                log = tmp / stream / f"{calls:02d}-{argv[0]}.txt"
                log.parent.mkdir(exist_ok=True)
                log.write_text(text.replace(str(tmp), "<tmp>"))

    desk = ["--preset", "desk", *with_settings(DESK_48)]
    spin = tmp / "spin"
    cli("spinup", *desk, "--out", spin)
    base = [*desk, "--set", f"experiment.base_checkpoint={spin / 'base.ckpt'}"]
    for variant, settings in VARIANT_SETTINGS.items():
        cli("run", *base, *with_settings([f"intertwinement.variant={variant}",
                                          *settings]), "--out", tmp / variant)
    cli("run", *base, *with_settings(["experiment.init=decorrelated", "forcing.norm=linf"]),
        "--out", tmp / "decorrelated")
    cli("run", *desk, *with_settings([
        "experiment.init=checkpoints",
        f"experiment.checkpoint1={spin / 'base.ckpt'}",
        f"experiment.checkpoint2={spin / 'spinup_000002000.ckpt'}", *FORCING2,
    ]), "--out", tmp / "checkpoints")
    cli("sweep", *base, "--axis", "cutoff", "--values", "4,8,12",
        "--out", tmp / "sweep_cutoff")
    cli("sweep", *base, "--set", "experiment.record_every=1", "--axis", "theta1",
        "--values", "0,0.5,1", "--out", tmp / "sweep_theta1")
    cli("spectrum", "--checkpoint", spin / "base.ckpt", "--out", tmp / "spectrum.csv")
    for variant in ("mutual_nudge", "symmetric_nudge"):
        cli("thresholds", *desk, *with_settings([f"intertwinement.variant={variant}",
                                                 *VARIANT_SETTINGS[variant]]))
    cli("thresholds", "--preset", "paper-text")
    # relaxation at mu * dt = 5 is unstable for explicit Euler
    cli("run", *base, *with_settings([
        "experiment.init=decorrelated", "intertwinement.variant=mutual_nudge",
        "intertwinement.mu1=1000", "intertwinement.mu2=1000",
    ]), "--out", tmp / "blowup", expect=3)
    cli("thresholds", "--preset", "paper-figure")
    cli("thresholds", *desk, "--set", "intertwinement.variant=degenerate_sync")
    cli("run", "--config", tmp / "mutual_sync" / "manifest.ini", "--out", tmp / "rerun")
    rerun, first = tmp / "rerun" / "series.csv", tmp / "mutual_sync" / "series.csv"
    if rerun.read_bytes() != first.read_bytes():
        raise RuntimeError("the re-run from mutual_sync's manifest wrote another series.csv")
    # the last command: the numbered logs of the ones before keep their names
    v1 = tmp / "base_v1.ckpt"
    v1.write_bytes(version_1_copy((spin / "base.ckpt").read_bytes()))
    cli("run", *desk, *with_settings([f"experiment.base_checkpoint={v1}",
                                      "intertwinement.variant=mutual_sync",
                                      *VARIANT_SETTINGS["mutual_sync"]]),
        "--out", tmp / "from_v1")
    if (tmp / "from_v1" / "series.csv").read_bytes() != first.read_bytes():
        raise RuntimeError("the run from a version-1 copy of base.ckpt wrote another "
                           "series.csv")


def digest(tmp: Path) -> list[str]:
    files = sorted(p for p in tmp.rglob("*") if p.is_file() and p.name != "manifest.ini")
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(tmp).as_posix()}"
            for p in files]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        session(Path(tmp))
        sys.stdout.write("".join(line + "\n" for line in digest(Path(tmp))))


if __name__ == "__main__":
    main()
