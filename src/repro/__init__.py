"""MACAW reproduction: packet-level wireless MAC simulation.

A from-scratch reproduction of *MACAW: A Media Access Protocol for Wireless
LAN's* (Bharghavan, Demers, Shenker, Zhang — SIGCOMM 1994): the
discrete-event simulator, the PARC nano-cellular radio model, the CSMA and
MACA baselines, the MACAW protocol with all of the paper's amendments, the
UDP/TCP substrates, and experiment drivers that regenerate every table.

Quick start::

    from repro import ScenarioBuilder

    builder = ScenarioBuilder(seed=1, protocol="macaw")
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", rate_pps=64)
    builder.udp("P2", "B", rate_pps=64)
    scenario = builder.build().run(200)
    print(scenario.throughputs(warmup=50))
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names resolve lazily below
    from repro.sim import Simulator
    from repro.phy import GraphMedium, GridMedium, PacketErrorModel, NoiseSource
    from repro.mac import CsmaMac, CsmaConfig, FrameType, MacTiming
    from repro.mac.maca import MacaMac
    from repro.core import MacawMac, ProtocolConfig
    from repro.core.config import (
        MACA_CONFIG,
        MACAW_CONFIG,
        RunProfile,
        active_profile,
        maca_config,
        macaw_config,
    )
    from repro.fault import FaultSchedule
    from repro.net import UdpStream, TcpStream, TcpConfig, FlowRecorder
    from repro.topo import Scenario, ScenarioBuilder, Station

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "GraphMedium",
    "GridMedium",
    "PacketErrorModel",
    "NoiseSource",
    "CsmaMac",
    "CsmaConfig",
    "FrameType",
    "MacTiming",
    "MacaMac",
    "MacawMac",
    "ProtocolConfig",
    "MACA_CONFIG",
    "MACAW_CONFIG",
    "maca_config",
    "macaw_config",
    "RunProfile",
    "active_profile",
    "FaultSchedule",
    "UdpStream",
    "TcpStream",
    "TcpConfig",
    "FlowRecorder",
    "Scenario",
    "ScenarioBuilder",
    "Station",
    "__version__",
]

#: Public name -> its defining module, imported on first access (PEP 562),
#: so ``import repro`` loads no subsystem a run does not use.
_EXPORTS = {
    "Simulator": "repro.sim.kernel",
    "GraphMedium": "repro.phy.graph_medium",
    "GridMedium": "repro.phy.grid_medium",
    "PacketErrorModel": "repro.phy.noise",
    "NoiseSource": "repro.phy.noise",
    "CsmaMac": "repro.mac.csma",
    "CsmaConfig": "repro.mac.csma",
    "FrameType": "repro.mac.frames",
    "MacTiming": "repro.mac.timing",
    "MacaMac": "repro.mac.maca",
    "MacawMac": "repro.core.macaw",
    "ProtocolConfig": "repro.core.config",
    "MACA_CONFIG": "repro.core.config",
    "MACAW_CONFIG": "repro.core.config",
    "maca_config": "repro.core.config",
    "macaw_config": "repro.core.config",
    "RunProfile": "repro.core.config",
    "active_profile": "repro.core.config",
    "FaultSchedule": "repro.fault.schedule",
    "UdpStream": "repro.net.udp",
    "TcpStream": "repro.net.tcp",
    "TcpConfig": "repro.net.tcp",
    "FlowRecorder": "repro.net.sink",
    "Scenario": "repro.topo.builder",
    "ScenarioBuilder": "repro.topo.builder",
    "Station": "repro.topo.station",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
