"""Network substrate: packets, traffic generation, UDP and TCP transports.

The paper's workloads are constant-rate streams over UDP (§3.1–§3.3) and
TCP (§3.3.1's ACK experiment and the office scenario of §3.5).  This
package provides:

* :mod:`repro.net.packets` — the network-layer packet carried in DATA
  frames;
* :mod:`repro.net.traffic` — CBR, Poisson and on/off sources;
* :mod:`repro.net.sink` — per-station delivery dispatch and the global
  flow recorder experiments read throughput from;
* :mod:`repro.net.udp` — fire-and-forget streams;
* :mod:`repro.net.tcp` — a compact Tahoe-style TCP whose loss recovery is
  bounded below by the 0.5 s minimum RTO the paper leans on.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names resolve lazily below
    from repro.net.packets import NetPacket, DATA_PACKET_BYTES, TCP_ACK_BYTES
    from repro.net.traffic import CbrSource, PoissonSource, OnOffSource
    from repro.net.sink import Dispatcher, FlowRecorder
    from repro.net.udp import UdpStream
    from repro.net.tcp import TcpStream, TcpConfig

__all__ = [
    "NetPacket",
    "DATA_PACKET_BYTES",
    "TCP_ACK_BYTES",
    "CbrSource",
    "PoissonSource",
    "OnOffSource",
    "Dispatcher",
    "FlowRecorder",
    "UdpStream",
    "TcpStream",
    "TcpConfig",
]

#: Public name -> its defining module, imported on first access (PEP 562).
_EXPORTS = {
    "NetPacket": "repro.net.packets",
    "DATA_PACKET_BYTES": "repro.net.packets",
    "TCP_ACK_BYTES": "repro.net.packets",
    "CbrSource": "repro.net.traffic",
    "PoissonSource": "repro.net.traffic",
    "OnOffSource": "repro.net.traffic",
    "Dispatcher": "repro.net.sink",
    "FlowRecorder": "repro.net.sink",
    "UdpStream": "repro.net.udp",
    "TcpStream": "repro.net.tcp",
    "TcpConfig": "repro.net.tcp",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
