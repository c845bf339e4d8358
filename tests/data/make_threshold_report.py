"""Write ``threshold_report.json``: ``threshold_report`` of 22 desk configs.

Eleven couplings on the desk preset, each once with the shared force and
once with a distinct second force. ``tests/test_experiment.py`` compares
the current ``threshold_report`` of every config against the file: the
same keys in the same order, strings and booleans equal, floats at a
relative 1e-12. JSON keeps each float's shortest round-trip repr, so the
file holds the values exactly. Regenerate only on purpose:

    PYTHONPATH=src python tests/data/make_threshold_report.py tests/data/threshold_report.json
"""

import json
import sys
from dataclasses import replace

from twinflow.config import ExperimentConfig, preset_config
from twinflow.coupling import IntertwinementSpec
from twinflow.experiment import threshold_report
from twinflow.forcing import ForcingSpec

COUPLINGS = {
    "mutual_sync_0": ("mutual_sync", dict(theta1=0.0)),
    "mutual_sync_0.3": ("mutual_sync", dict(theta1=0.3)),
    "mutual_sync_0.5": ("mutual_sync", dict(theta1=0.5)),
    "mutual_sync_1": ("mutual_sync", dict(theta1=1.0)),
    "degenerate_sync": ("degenerate_sync", {}),
    "mutual_nudge_4_6": ("mutual_nudge", dict(mu1=4.0, mu2=6.0)),
    "mutual_nudge_0_6": ("mutual_nudge", dict(mu1=0.0, mu2=6.0)),
    "symmetric_nudge_6_4": ("symmetric_nudge", dict(mu1=6.0, mu2=4.0)),
    "symmetric_nudge_5_5": ("symmetric_nudge", dict(mu1=5.0, mu2=5.0)),
    "trivial": ("trivial", {}),
    "general_nudge": ("general_nudge", dict(matrix=(1.0, 3.0, 0.5, 2.0))),
}
FORCING2 = {"shared": None, "distinct": ForcingSpec(8, 14, 3.0e4, 5)}


def report_configs() -> dict[str, ExperimentConfig]:
    """``"<coupling>/<shared|distinct>"`` -> desk config."""
    desk = preset_config("desk")
    configs = {}
    for name, (variant, params) in COUPLINGS.items():
        coupling = IntertwinementSpec(variant, desk.coupling.cutoff, **params)
        for force_name, forcing2 in FORCING2.items():
            configs[f"{name}/{force_name}"] = replace(
                desk, coupling=coupling, forcing2=forcing2
            )
    return configs


def main(path: str) -> None:
    reports = {name: threshold_report(cfg) for name, cfg in report_configs().items()}
    with open(path, "w") as fh:
        json.dump(reports, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
