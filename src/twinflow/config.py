"""Experiment configuration: INI schema, presets, overrides, manifests.

A config file has five sections::

    [sim]            resolution, nu, dt, t_end
    [forcing]        band_low, band_high, grashof, seed, norm
    [forcing2]       optional second force (same keys); omitted = shared
    [intertwinement] variant, cutoff, theta1, mu1, mu2, matrix
    [experiment]     init, spinup_time, decorrelate_time, record_every,
                     checkpoint1/2, base_checkpoint, checkpoint_every,
                     c_lad, c_agmon, c_sob

``ExperimentConfig`` is the one config object of a run, and the one the
stepper takes. It raises ``ConfigError`` on values no run can use, such
as a ``nu`` whose square underflows, a force band outside the grid, or a
force whose L2 norm underflows to zero.

Any other section or key is an error. Manifests written next to run
outputs are config files with an extra ``[provenance]`` section (package
and Python versions, command line); the parser ignores that section, so a
manifest re-runs as-is.
"""

from __future__ import annotations

import configparser
import math
import platform
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import __version__
from .coupling import IntertwinementSpec
from .forcing import ForcingSpec, band_mask, make_band_forcing
from .spectral import SpectralGrid, norm_hn, shared_grid

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "PRESETS",
    "preset_config",
    "parse_config",
    "write_config",
    "apply_overrides",
    "provenance_info",
]

INIT_KINDS = ("projected_low", "decorrelated", "checkpoints")

# A pair's stepping workspace alone is 64 N^2 + 64 N bytes (two complex
# N x N and four complex N x (N/2+1) arrays): 16 MiB at 512^2, 1 GiB at
# 4096^2, an eighth of an 8 GiB machine.
# The largest preset is 512^2.
MAX_RESOLUTION = 4096


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    resolution: int
    nu: float
    dt: float
    forcing: ForcingSpec
    coupling: IntertwinementSpec
    t_end: float = 0.0
    forcing2: Optional[ForcingSpec] = None
    init_kind: str = "projected_low"
    spinup_time: float = 200.0
    decorrelate_time: float = 100.0
    checkpoint1: Optional[str] = None
    checkpoint2: Optional[str] = None
    base_checkpoint: Optional[str] = None
    checkpoint_every: float = 100.0
    record_every: int = 10
    c_lad: float = 1.0
    c_agmon: float = 1.0
    c_sob: float = 1.0

    def __post_init__(self):
        if self.init_kind not in INIT_KINDS:
            raise ConfigError(f"unknown init mode {self.init_kind!r}")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if not (0 < self.nu < math.inf and 0 < self.dt < math.inf):
            raise ConfigError(
                f"nu and dt must be positive and finite, got nu={self.nu}, dt={self.dt}"
            )
        if not 0 < self.nu * self.nu < math.inf:  # the Grashof scale |f| / nu^2
            raise ConfigError(f"nu={self.nu} is out of range: nu^2 underflows or overflows")
        for name in ("t_end", "spinup_time", "decorrelate_time"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be nonnegative and finite, got {value}")
        for name in ("checkpoint_every", "c_lad", "c_agmon", "c_sob"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name in ("t_end", "spinup_time", "decorrelate_time", "checkpoint_every"):
            value = getattr(self, name)
            if not math.isfinite(value / self.dt):  # no step count
                raise ConfigError(f"{name} / dt overflows: {name}={value}, dt={self.dt}")
        if self.resolution > MAX_RESOLUTION:
            raise ConfigError(f"resolution {self.resolution} exceeds {MAX_RESOLUTION}")
        grid = shared_grid(self.resolution)  # raises on a resolution no grid has
        for name, spec in (("forcing", self.forcing), ("forcing2", self.forcing2)):
            if spec is not None and not band_mask(spec, grid).any():
                raise ConfigError(f"[{name}] band holds no mode of the dealiased block")
            # |f| = grashof * nu^2 can be too small for its squares
            if spec is not None and norm_hn(make_band_forcing(spec, grid, self.nu), 0) == 0:
                raise ConfigError(f"[{name}] force underflows to zero: grashof * nu^2 "
                                  f"= {spec.grashof_target * self.nu**2:g}")

    def check_cutoff(self) -> None:
        """Raise ``ConfigError`` when the observation cutoff lies beyond the
        resolved band. Not checked at construction: a spin-up never reads
        ``[intertwinement]``."""
        cutoff, band = self.coupling.cutoff, self.grid.dealias_cutoff
        if cutoff > band:
            raise ConfigError(f"observation cutoff exceeds resolved band: N={cutoff} > {band}")

    def steps(self, duration: float) -> int:
        """The number of steps of ``dt`` nearest to ``duration``; ``ValueError``
        when ``duration / dt`` is negative or not finite."""
        count = duration / self.dt
        if not 0 <= count < math.inf:
            raise ValueError(f"duration must be nonnegative and a finite number of "
                             f"steps of dt={self.dt}, got {duration}")
        return int(round(count))

    @property
    def grid(self) -> SpectralGrid:
        return shared_grid(self.resolution)

    @property
    def sim(self) -> ExperimentConfig:
        # Only perfbench/workloads.py calls this alias, as spin_up(cfg.sim, ...);
        # ROADMAP item 1 deletes it.
        return self


def _path(value: str) -> Optional[str]:
    return value or None


def _matrix(value: str) -> tuple[float, float, float, float]:
    entries = tuple(float(v) for v in value.replace(",", " ").split())
    if len(entries) != 4:
        raise ConfigError("matrix must have 4 entries (row-major 2x2)")
    return entries


_FORCING = {"band_low": ("band_low", int), "band_high": ("band_high", int),
            "grashof": ("grashof_target", float), "seed": ("phase_seed", int),
            "norm": ("norm_kind", str)}

# The INI schema, read by the parser, the manifest writer and the overrides:
# section -> INI key -> (dataclass field, parser). Only the keys present are
# passed on, so every default lives in its dataclass, and a field without one
# is a required key.
_SCHEMA = {
    "sim": {"resolution": ("resolution", int), "nu": ("nu", float), "dt": ("dt", float),
            "t_end": ("t_end", float)},
    "forcing": _FORCING,
    "forcing2": _FORCING,
    "intertwinement": {"variant": ("variant", str), "cutoff": ("cutoff", float),
                       "theta1": ("theta1", float), "mu1": ("mu1", float),
                       "mu2": ("mu2", float), "matrix": ("matrix", _matrix)},
    "experiment": {
        "init": ("init_kind", str),
        "spinup_time": ("spinup_time", float),
        "decorrelate_time": ("decorrelate_time", float),
        "checkpoint1": ("checkpoint1", _path),
        "checkpoint2": ("checkpoint2", _path),
        "base_checkpoint": ("base_checkpoint", _path),
        "checkpoint_every": ("checkpoint_every", float),
        "record_every": ("record_every", int),
        "c_lad": ("c_lad", float),
        "c_agmon": ("c_agmon", float),
        "c_sob": ("c_sob", float),
    },
}
_REQUIRED = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    keys = _SCHEMA[name]
    items = parser[name]
    for key in items:
        if key not in keys:
            raise ConfigError(f"unknown config key {name}.{key}")
    return {field: parse(items[key]) for key, (field, parse) in keys.items() if key in items}


def _build(parser: configparser.ConfigParser) -> ExperimentConfig:
    for name in parser.sections():
        if name not in _SCHEMA and name != "provenance":
            raise ConfigError(f"unknown config section [{name}]")
    try:
        given = _section(parser, "sim")
        given["forcing"] = ForcingSpec(**_section(parser, "forcing"))
        given["coupling"] = IntertwinementSpec(**_section(parser, "intertwinement"))
        if parser.has_section("forcing2"):
            given["forcing2"] = ForcingSpec(**_section(parser, "forcing2"))
        if parser.has_section("experiment"):
            given.update(_section(parser, "experiment"))
        for name in _REQUIRED:
            if name not in given:
                raise KeyError(name)
        return ExperimentConfig(**given)
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _new_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"))


def parse_config(path) -> ExperimentConfig:
    parser = _new_parser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return _build(parser)


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return str(value)


def _as_parser(cfg: ExperimentConfig) -> configparser.ConfigParser:
    parser = _new_parser()
    owners = {"sim": cfg, "forcing": cfg.forcing, "forcing2": cfg.forcing2,
              "intertwinement": cfg.coupling, "experiment": cfg}
    for name, keys in _SCHEMA.items():
        owner = owners[name]
        if owner is None:
            continue
        values = {key: getattr(owner, field) for key, (field, _) in keys.items()}
        parser[name] = {key: _format(v) for key, v in values.items() if v is not None}
    return parser


def write_config(cfg: ExperimentConfig, path, provenance: Optional[dict] = None):
    parser = _as_parser(cfg)
    if provenance:
        parser["provenance"] = {k: str(v) for k, v in provenance.items()}
    with open(path, "w") as fh:
        parser.write(fh)


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply repeatable ``section.key=value`` strings on top of a config."""
    parser = _as_parser(cfg)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key.strip()] = value.strip()
    return _build(parser)


def provenance_info() -> dict:
    return {
        "twinflow_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "command": " ".join(sys.argv),
    }


def _desk() -> ExperimentConfig:
    return ExperimentConfig(
        resolution=128,
        nu=0.005,
        dt=0.005,
        t_end=40.0,
        forcing=ForcingSpec(10, 12, 1.0e4, 0),
        coupling=IntertwinementSpec("mutual_sync", 20.0, theta1=0.5),
        init_kind="projected_low",
        spinup_time=200.0,
        decorrelate_time=50.0,
        record_every=10,
    )


def _paper_text() -> ExperimentConfig:
    return ExperimentConfig(
        resolution=512,
        nu=0.0005,
        dt=0.01,
        t_end=100.0,
        forcing=ForcingSpec(10, 12, 1.0e5, 0),
        coupling=IntertwinementSpec("mutual_sync", 50.0, theta1=0.5),
        init_kind="decorrelated",
        spinup_time=10000.0,
        decorrelate_time=100.0,
        record_every=100,
    )


def _paper_figure() -> ExperimentConfig:
    return replace(_paper_text(), nu=0.005, dt=0.001)


# desk is a scaled-down replicate that runs on a laptop; the paper-* presets
# carry the full-scale parameters (both stated variants) and are not
# desk-runnable end to end.
PRESETS = {
    "desk": _desk,
    "paper-text": _paper_text,
    "paper-figure": _paper_figure,
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
