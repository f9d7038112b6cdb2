"""Experiment registry: every reproduced table, figure and ablation.

Each id maps to its driver class as ``"module:Class"``; the driver's
module is imported when the id is first asked for, so running one
experiment loads one driver.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import Experiment

_DRIVERS: Dict[str, str] = {
    "table1": "repro.experiments.table01:Table1",
    "table2": "repro.experiments.table02:Table2",
    "table3": "repro.experiments.table03:Table3",
    "table4": "repro.experiments.table04:Table4",
    "table5": "repro.experiments.table05:Table5",
    "table6": "repro.experiments.table06:Table6",
    "table7": "repro.experiments.table07:Table7",
    "table8": "repro.experiments.table08:Table8",
    "table9": "repro.experiments.table09:Table9",
    "table10": "repro.experiments.table10:Table10",
    "table11": "repro.experiments.table11:Table11",
    "fig1": "repro.experiments.fig01:Fig1HiddenExposed",
    "fig8": "repro.experiments.fig08:Fig8Leakage",
    "ablation-mild-factor": "repro.experiments.ablations:MildFactorAblation",
    "ablation-rts-defer": "repro.experiments.ablations:RtsDeferAblation",
    "ablation-copying": "repro.experiments.ablations:CopyingAblation",
    "ablation-multicast": "repro.experiments.ablations:MulticastAblation",
    "ablation-failure-detection": "repro.experiments.ablations:FailureDetectionAblation",
    "ablation-ack-variants": "repro.experiments.ablations:AckVariantsAblation",
    "ablation-carrier-sense": "repro.experiments.ablations:CarrierSenseAblation",
    "ablation-polling": "repro.experiments.ablations:PollingAblation",
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, paper order first."""
    return list(_DRIVERS)


def get_experiment(exp_id: str) -> Experiment:
    """Instantiate the experiment with the given id."""
    target = _DRIVERS.get(exp_id)
    if target is None:
        known = ", ".join(_DRIVERS)
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}")
    module, _, name = target.partition(":")
    return getattr(import_module(module), name)()


def all_experiments() -> List[Experiment]:
    """Instantiate every registered experiment, paper order."""
    return [get_experiment(exp_id) for exp_id in _DRIVERS]
