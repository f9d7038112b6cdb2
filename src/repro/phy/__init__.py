"""Physical layer: signal propagation, the shared radio medium, and noise.

The paper's radio (§2.1) is PARC's 5 MHz near-field technology: a single
256 kbps channel, ~3–4 m range, very sharp signal decay, 10 dB capture
ratio.  Its simulator (§3) divides space into 1 ft³ cubes and computes the
field at cube centers.  This package reproduces both that cube model
(:class:`~repro.phy.grid_medium.GridMedium`) and the paper's simplified
in-range/out-of-range model from §2.1
(:class:`~repro.phy.graph_medium.GraphMedium`).
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names resolve lazily below
    from repro.phy.signal import (
        db_to_ratio,
        ratio_to_db,
        dbm_to_mw,
        mw_to_dbm,
        sum_powers_mw,
    )
    from repro.phy.pathloss import NearFieldPathLoss, FarFieldPathLoss, PathLoss
    from repro.phy.medium import Medium, Transmission, ReceiverPort
    from repro.phy.graph_medium import GraphMedium
    from repro.phy.grid_medium import GridMedium, snap_to_cube_center
    from repro.phy.noise import (
        LinkErrorModel,
        NoiseSource,
        PacketErrorModel,
        TimeWindowErrorModel,
    )

__all__ = [
    "db_to_ratio",
    "ratio_to_db",
    "dbm_to_mw",
    "mw_to_dbm",
    "sum_powers_mw",
    "PathLoss",
    "NearFieldPathLoss",
    "FarFieldPathLoss",
    "Medium",
    "Transmission",
    "ReceiverPort",
    "GraphMedium",
    "GridMedium",
    "snap_to_cube_center",
    "PacketErrorModel",
    "NoiseSource",
    "LinkErrorModel",
    "TimeWindowErrorModel",
]

#: Public name -> its defining module, imported on first access (PEP 562).
_EXPORTS = {
    "db_to_ratio": "repro.phy.signal",
    "ratio_to_db": "repro.phy.signal",
    "dbm_to_mw": "repro.phy.signal",
    "mw_to_dbm": "repro.phy.signal",
    "sum_powers_mw": "repro.phy.signal",
    "NearFieldPathLoss": "repro.phy.pathloss",
    "FarFieldPathLoss": "repro.phy.pathloss",
    "PathLoss": "repro.phy.pathloss",
    "Medium": "repro.phy.medium",
    "Transmission": "repro.phy.medium",
    "ReceiverPort": "repro.phy.medium",
    "GraphMedium": "repro.phy.graph_medium",
    "GridMedium": "repro.phy.grid_medium",
    "snap_to_cube_center": "repro.phy.grid_medium",
    "LinkErrorModel": "repro.phy.noise",
    "NoiseSource": "repro.phy.noise",
    "PacketErrorModel": "repro.phy.noise",
    "TimeWindowErrorModel": "repro.phy.noise",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
