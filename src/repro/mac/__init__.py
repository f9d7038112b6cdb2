"""MAC layer: frame formats, timing, shared machinery, and baselines.

The package hosts everything common to the media-access protocols plus the
CSMA baseline:

* :mod:`repro.mac.frames` — RTS/CTS/DS/DATA/ACK/RRTS frames with the
  backoff-copying header fields of Appendix B.2.
* :mod:`repro.mac.timing` — slot and timeout arithmetic (30-byte control
  packets at 256 kbps define the 937.5 µs slot).
* :mod:`repro.mac.base` — deferral, contention and queue bookkeeping shared
  by the state machines.
* :mod:`repro.mac.csma` — carrier-sense baseline (§2.2).
* :mod:`repro.mac.maca` — Karn's MACA as specified in Appendix A.

MACA is configured on top of the machine in :mod:`repro.core.macaw`, so
``repro.mac.maca`` is intentionally *not* imported here (it would make the
``mac`` package depend on ``core`` at import time); import it directly or
use the re-export at the ``repro`` top level.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names resolve lazily below
    from repro.mac.frames import Frame, FrameType, MULTICAST, I_DONT_KNOW
    from repro.mac.timing import MacTiming
    from repro.mac.base import BaseMac, MacState, MacStats
    from repro.mac.csma import CsmaMac, CsmaConfig
    from repro.mac.polling import PollingBaseMac, PollingConfig, PollingPadMac

__all__ = [
    "Frame",
    "FrameType",
    "MULTICAST",
    "I_DONT_KNOW",
    "MacTiming",
    "BaseMac",
    "MacState",
    "MacStats",
    "CsmaMac",
    "CsmaConfig",
    "PollingBaseMac",
    "PollingPadMac",
    "PollingConfig",
]

#: Public name -> its defining module, imported on first access (PEP 562).
_EXPORTS = {
    "Frame": "repro.mac.frames",
    "FrameType": "repro.mac.frames",
    "MULTICAST": "repro.mac.frames",
    "I_DONT_KNOW": "repro.mac.frames",
    "MacTiming": "repro.mac.timing",
    "BaseMac": "repro.mac.base",
    "MacState": "repro.mac.base",
    "MacStats": "repro.mac.base",
    "CsmaMac": "repro.mac.csma",
    "CsmaConfig": "repro.mac.csma",
    "PollingBaseMac": "repro.mac.polling",
    "PollingConfig": "repro.mac.polling",
    "PollingPadMac": "repro.mac.polling",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
