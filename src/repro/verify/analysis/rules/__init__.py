"""Rule plugins.

Importing this package registers every built-in rule with
:mod:`repro.verify.analysis.registry`.  Each module owns one family:

==========================  ==============================================
Module                      Rules
==========================  ==============================================
:mod:`.determinism`         REPRO101 unseeded-randomness, REPRO102
                            wall-clock, REPRO108 fault-randomness,
                            REPRO116 fuzz-randomness
:mod:`.hygiene`             REPRO103 mutable-default, REPRO105
                            unused-import (re-export aware)
:mod:`.kernel`              REPRO104 clock-mutation, REPRO113
                            callback-discipline
:mod:`.telemetry`           REPRO106 private-audibility, REPRO107
                            ad-hoc-telemetry
:mod:`.layering`            REPRO110 layer DAG + cross-layer privates
:mod:`.frozen`              REPRO111 frozen-dataclass mutation
:mod:`.ordering`            REPRO112 order-sensitive set iteration
:mod:`.persistence`         REPRO114 pickle without an allow pragma
==========================  ==============================================
"""

from repro.verify.analysis.rules import (  # noqa: F401  (registration side effect)
    determinism,
    frozen,
    hygiene,
    kernel,
    layering,
    ordering,
    persistence,
    telemetry,
)
