"""Experiment configuration: INI schema, presets, overrides, manifests.

A config file has four sections::

    [sim]            resolution, nu, dt, t_end
    [forcing]        band_low, band_high, grashof, seed, norm
    [forcing2]       optional second force (same keys); omitted = shared
    [intertwinement] variant, cutoff, theta1, mu1, mu2, matrix
    [experiment]     init, spinup_time, decorrelate_time, record_every,
                     checkpoint1/2, base_checkpoint, checkpoint_every,
                     c_lad, c_agmon, c_sob

Manifests written next to run outputs are config files with an extra
``[provenance]`` section (versions, seed, command line);
the parser ignores that section, so a manifest re-runs as-is.
"""

from __future__ import annotations

import configparser
import platform
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .coupling import IntertwinementSpec
from .forcing import ForcingSpec
from .spectral import SpectralGrid, shared_grid
from .stepping import SimConfig

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "PRESETS",
    "preset_config",
    "parse_config",
    "parse_config_text",
    "write_config",
    "apply_overrides",
    "provenance_info",
]

INIT_KINDS = ("projected_low", "decorrelated", "checkpoints")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    resolution: int
    nu: float
    dt: float
    t_end: float
    forcing: ForcingSpec
    coupling: IntertwinementSpec
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
        grid = shared_grid(self.resolution)
        if self.coupling.cutoff > grid.dealias_cutoff:
            raise ConfigError(
                f"observation cutoff exceeds resolved band: N={self.coupling.cutoff} > "
                f"{grid.dealias_cutoff}"
            )
        if self.forcing.viscosity != self.nu:
            raise ConfigError("forcing viscosity must equal sim nu")

    @property
    def grid(self) -> SpectralGrid:
        return shared_grid(self.resolution)

    @property
    def sim(self) -> SimConfig:
        return SimConfig(self.nu, self.dt, self.grid, self.forcing, self.t_end)


def _forcing_from_items(items: dict, nu: float) -> ForcingSpec:
    return ForcingSpec(
        band_low=int(items.get("band_low", 10)),
        band_high=int(items.get("band_high", 12)),
        grashof_target=float(items.get("grashof", 1.0e5)),
        viscosity=nu,
        phase_seed=int(items.get("seed", 0)),
        norm_kind=items.get("norm", "h"),
    )


def _coupling_from_items(items: dict) -> IntertwinementSpec:
    variant = items.get("variant", "trivial")
    matrix = None
    if "matrix" in items:
        parts = [float(v) for v in items["matrix"].replace(",", " ").split()]
        if len(parts) != 4:
            raise ConfigError("matrix must have 4 entries (row-major 2x2)")
        matrix = tuple(parts)
    return IntertwinementSpec(
        variant=variant,
        cutoff=float(items.get("cutoff", 20.0)),
        theta1=float(items.get("theta1", 0.0)),
        mu1=float(items.get("mu1", 0.0)),
        mu2=float(items.get("mu2", 0.0)),
        matrix=matrix,
    )


def _build(parser: configparser.ConfigParser) -> ExperimentConfig:
    try:
        sim = dict(parser["sim"])
        nu = float(sim["nu"])
        exp = dict(parser["experiment"]) if parser.has_section("experiment") else {}
        forcing2 = None
        if parser.has_section("forcing2"):
            forcing2 = _forcing_from_items(dict(parser["forcing2"]), nu)
        return ExperimentConfig(
            resolution=int(sim["resolution"]),
            nu=nu,
            dt=float(sim["dt"]),
            t_end=float(sim.get("t_end", 0.0)),
            forcing=_forcing_from_items(dict(parser["forcing"]), nu),
            forcing2=forcing2,
            coupling=_coupling_from_items(dict(parser["intertwinement"])),
            init_kind=exp.get("init", "projected_low"),
            spinup_time=float(exp.get("spinup_time", 200.0)),
            decorrelate_time=float(exp.get("decorrelate_time", 100.0)),
            checkpoint1=exp.get("checkpoint1") or None,
            checkpoint2=exp.get("checkpoint2") or None,
            base_checkpoint=exp.get("base_checkpoint") or None,
            checkpoint_every=float(exp.get("checkpoint_every", 100.0)),
            record_every=int(exp.get("record_every", 10)),
            c_lad=float(exp.get("c_lad", 1.0)),
            c_agmon=float(exp.get("c_agmon", 1.0)),
            c_sob=float(exp.get("c_sob", 1.0)),
        )
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


def parse_config_text(text: str) -> ExperimentConfig:
    parser = _new_parser()
    parser.read_string(text)
    return _build(parser)


def _as_parser(cfg: ExperimentConfig) -> configparser.ConfigParser:
    parser = _new_parser()
    parser["sim"] = {
        "resolution": str(cfg.resolution),
        "nu": repr(cfg.nu),
        "dt": repr(cfg.dt),
        "t_end": repr(cfg.t_end),
    }

    def forcing_items(fs: ForcingSpec) -> dict:
        return {
            "band_low": str(fs.band_low),
            "band_high": str(fs.band_high),
            "grashof": repr(fs.grashof_target),
            "seed": str(fs.phase_seed),
            "norm": fs.norm_kind,
        }

    parser["forcing"] = forcing_items(cfg.forcing)
    if cfg.forcing2 is not None:
        parser["forcing2"] = forcing_items(cfg.forcing2)
    coupling = {
        "variant": cfg.coupling.variant,
        "cutoff": repr(cfg.coupling.cutoff),
        "theta1": repr(cfg.coupling.theta1),
        "mu1": repr(cfg.coupling.mu1),
        "mu2": repr(cfg.coupling.mu2),
    }
    if cfg.coupling.matrix is not None:
        coupling["matrix"] = ", ".join(repr(v) for v in cfg.coupling.matrix)
    parser["intertwinement"] = coupling
    exp = {
        "init": cfg.init_kind,
        "spinup_time": repr(cfg.spinup_time),
        "decorrelate_time": repr(cfg.decorrelate_time),
        "checkpoint_every": repr(cfg.checkpoint_every),
        "record_every": str(cfg.record_every),
        "c_lad": repr(cfg.c_lad),
        "c_agmon": repr(cfg.c_agmon),
        "c_sob": repr(cfg.c_sob),
    }
    for key in ("checkpoint1", "checkpoint2", "base_checkpoint"):
        value = getattr(cfg, key)
        if value:
            exp[key] = str(value)
    parser["experiment"] = exp
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
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key.strip()] = value.strip()
    return _build(parser)


def provenance_info(extra: Optional[dict] = None) -> dict:
    info = {
        "twinflow_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "command": " ".join(sys.argv),
    }
    if extra:
        info.update(extra)
    return info


def _desk() -> ExperimentConfig:
    nu = 0.005
    return ExperimentConfig(
        resolution=128,
        nu=nu,
        dt=0.005,
        t_end=40.0,
        forcing=ForcingSpec(10, 12, 1.0e4, nu, 0),
        coupling=IntertwinementSpec("mutual_sync", 20.0, theta1=0.5),
        init_kind="projected_low",
        spinup_time=200.0,
        decorrelate_time=50.0,
        record_every=10,
    )


def _paper_text() -> ExperimentConfig:
    nu = 0.0005
    return ExperimentConfig(
        resolution=512,
        nu=nu,
        dt=0.01,
        t_end=100.0,
        forcing=ForcingSpec(10, 12, 1.0e5, nu, 0),
        coupling=IntertwinementSpec("mutual_sync", 50.0, theta1=0.5),
        init_kind="decorrelated",
        spinup_time=10000.0,
        decorrelate_time=100.0,
        record_every=100,
    )


def _paper_figure() -> ExperimentConfig:
    nu = 0.005
    return ExperimentConfig(
        resolution=512,
        nu=nu,
        dt=0.001,
        t_end=100.0,
        forcing=ForcingSpec(10, 12, 1.0e5, nu, 0),
        coupling=IntertwinementSpec("mutual_sync", 50.0, theta1=0.5),
        init_kind="decorrelated",
        spinup_time=10000.0,
        decorrelate_time=100.0,
        record_every=100,
    )


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
