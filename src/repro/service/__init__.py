"""Cell grids over worker processes, and durable sweep jobs on top.

:class:`CellScheduler` is the one worker model: every cell that runs
outside the calling process — a :func:`run_cells` grid, a sweep job, a
CLI ``--jobs N`` run — runs in its own worker, with retry-with-backoff
on worker death.  The rest of the layer turns grids into durable
*jobs*:

* :class:`JobSpec` — the normalized, digest-keyed identity of a sweep
  (experiments × :class:`~repro.service.policy.SeedPolicy` ×
  :class:`~repro.core.config.RunProfile` × bounds);
* :class:`Journal` — the append-only, digest-chained JSONL record of
  completed cells that makes ``macaw-sim sweep --resume`` replay
  instantly and continue byte-identically;
* :func:`run_job` / :func:`resume_job` — the orchestrator tying them
  together, with graceful SIGINT drain.

Most callers want the :mod:`repro.api` facade (``sweep()``,
``run_cells()``); this package is the engine underneath.
"""

from repro.service.job import (
    DEFAULT_JOB_DIR,
    Job,
    JobSpec,
    find_job,
    profile_from_dict,
    profile_to_dict,
)
from repro.service.journal import (
    Journal,
    JournalError,
    chain_hash,
    digest_set_hash,
)
from repro.service.orchestrator import resume_job, run_job
from repro.service.policy import (
    AdaptiveSeeds,
    FixedSeeds,
    SeedPolicy,
    cell_metric,
    ci_half_width,
    policy_from_dict,
    t_critical,
)
from repro.service.scheduler import (
    ATTEMPT_ENV,
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    CellFailure,
    CellScheduler,
    WorkerDeath,
    run_cells,
)

__all__ = [
    "ATTEMPT_ENV",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_RETRIES",
    "AdaptiveSeeds",
    "CellFailure",
    "CellScheduler",
    "DEFAULT_JOB_DIR",
    "FixedSeeds",
    "Job",
    "JobSpec",
    "Journal",
    "JournalError",
    "SeedPolicy",
    "WorkerDeath",
    "cell_metric",
    "chain_hash",
    "ci_half_width",
    "digest_set_hash",
    "find_job",
    "policy_from_dict",
    "profile_from_dict",
    "profile_to_dict",
    "resume_job",
    "run_cells",
    "run_job",
    "t_critical",
]
