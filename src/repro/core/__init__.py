"""The paper's contribution: MACAW and its backoff machinery.

* :mod:`repro.core.backoff` — BEB and MILD adjustment (§3.1), the copying
  scheme (§3.1), and the per-destination estimates with the Appendix B.2
  bookkeeping (§3.4).
* :mod:`repro.core.streams` — the multiple stream model (§3.2).
* :mod:`repro.core.macaw` — the ten-state RTS-CTS-DS-DATA-ACK state machine
  with RRTS and multicast (§3.3, Appendix B).  The same machine, with
  features disabled, realizes Appendix A's MACA — so every comparison in
  the paper differs only by configuration flags.
"""

from repro.core.backoff import (
    BackoffAlgorithm,
    BinaryExponentialBackoff,
    MildBackoff,
    BackoffBook,
    make_backoff,
)
from repro.core.streams import StreamQueue, QueuedPacket
from repro.core.macaw import MacawMac
from repro.core.config import (
    ProtocolConfig,
    RunProfile,
    active_profile,
    ambient_profile,
    macaw_config,
)

__all__ = [
    "BackoffAlgorithm",
    "BinaryExponentialBackoff",
    "MildBackoff",
    "BackoffBook",
    "make_backoff",
    "StreamQueue",
    "QueuedPacket",
    "MacawMac",
    "macaw_config",
    "ProtocolConfig",
    "RunProfile",
    "active_profile",
    "ambient_profile",
]
