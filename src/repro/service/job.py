"""Durable sweep jobs: normalized spec, digest identity, on-disk layout.

A :class:`JobSpec` is the *identity* of a sweep: which experiments, under
which :class:`~repro.core.config.RunProfile`, with which
:class:`~repro.service.policy.SeedPolicy` and run bounds.  The spec is
normalized on construction and JSON round-trips losslessly, so its
canonical serialization can be hashed into a stable ``job_id`` — the key
``macaw-sim sweep --resume`` looks jobs up by.  Execution knobs (worker
count, cache directory) are deliberately *not* part of the spec: a job
resumed with a different ``--jobs`` is still the same job and must
produce the same digest set.

A :class:`Job` is the materialized handle: spec + directory + the
results accumulated so far.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.config import RunProfile
from repro.experiments.registry import get_experiment
from repro.runner.cells import CellResult
from repro.service.journal import Journal, digest_set_hash
from repro.service.policy import SeedPolicy, policy_from_dict

__all__ = [
    "DEFAULT_JOB_DIR",
    "Job",
    "JobSpec",
    "find_job",
]

PathLike = Union[str, Path]

#: Default directory sweep jobs live under (sibling of .macaw_cache).
DEFAULT_JOB_DIR = ".macaw_jobs"


# -------------------------------------------------------------------- spec
@dataclass(frozen=True)
class JobSpec:
    """One sweep job's identity: experiments × policy × profile × bounds."""

    experiments: Tuple[str, ...]
    policy: SeedPolicy
    profile: RunProfile = field(default_factory=RunProfile)
    duration: Optional[float] = None
    warmup: Optional[float] = None
    #: Capture per-cell trace digests (the resume-equality contract);
    #: folded into the cell cache key exactly as ``run_cells`` does.
    collect_digests: bool = True

    def __post_init__(self) -> None:
        experiments = tuple(str(e) for e in self.experiments)
        if not experiments:
            raise ValueError("a job needs at least one experiment")
        if len(set(experiments)) != len(experiments):
            raise ValueError(f"duplicate experiments in {experiments!r}")
        for exp_id in experiments:
            # KeyError on an unknown id; ValueError when the bounds leave
            # this experiment no measurement window (a job that could
            # never run must not get a journal).
            get_experiment(exp_id).horizon(self.duration, self.warmup)
        object.__setattr__(self, "experiments", experiments)
        if not isinstance(self.policy, SeedPolicy):
            raise TypeError(f"policy expects a SeedPolicy, got {self.policy!r}")
        if not isinstance(self.profile, RunProfile):
            raise TypeError(f"profile expects a RunProfile, got {self.profile!r}")

    def but(self, **changes: Any) -> "JobSpec":
        return replace(self, **changes)

    # ------------------------------------------------------------ identity
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "experiments": list(self.experiments),
            "policy": self.policy.to_dict(),
            "profile": self.profile.to_dict(),
            "duration": self.duration,
            "warmup": self.warmup,
            "collect_digests": self.collect_digests,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        return cls(
            experiments=tuple(payload["experiments"]),
            policy=policy_from_dict(payload["policy"]),
            profile=RunProfile.from_dict(payload["profile"]),
            duration=payload.get("duration"),
            warmup=payload.get("warmup"),
            collect_digests=bool(payload.get("collect_digests", True)),
        )

    def digest(self) -> str:
        """Stable content hash over the canonical spec serialization."""
        blob = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def job_id(self) -> str:
        """The short digest prefix jobs are filed (and resumed) under."""
        return self.digest()[:12]


# --------------------------------------------------------------------- job
@dataclass
class Job:
    """A materialized sweep job: spec, directory, accumulated outcomes."""

    spec: JobSpec
    directory: Path
    #: "complete", "interrupted", or "running".
    status: str = "running"
    #: Per-cell outcomes in deterministic report order (spec experiment
    #: order outermost, allocation order within each experiment).
    outcomes: List[CellResult] = field(default_factory=list)
    #: Cells executed fresh this invocation (not journal/cache replays).
    executed: int = 0
    #: Cells served from the journal + cache/journal replay.
    replayed: int = 0
    #: Worker-death retries performed this invocation.
    retries: int = 0
    #: Per-experiment stop decisions: exp_id -> {"n", "half_width", "reason"}.
    stops: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def interrupted(self) -> bool:
        return self.status == "interrupted"

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.jsonl"

    @property
    def spec_path(self) -> Path:
        return self.directory / "spec.json"

    def journal(self) -> Journal:
        return Journal(self.journal_path)

    def digest_set(self) -> str:
        """Order-independent fingerprint over the outcomes' trace digests."""
        return digest_set_hash([o.digest for o in self.outcomes])

    def write_spec(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(self.spec.to_dict(), sort_keys=True, indent=2)
        self.spec_path.write_text(blob + "\n", encoding="utf-8")

    @classmethod
    def load(cls, directory: PathLike) -> "Job":
        """Rehydrate a job handle from ``<dir>/spec.json`` (no results)."""
        directory = Path(directory)
        try:
            payload = json.loads(
                (directory / "spec.json").read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no job spec at {directory / 'spec.json'}"
            ) from None
        return cls(spec=JobSpec.from_dict(payload), directory=directory)


def find_job(job_ref: str, job_dir: PathLike = DEFAULT_JOB_DIR) -> Job:
    """Resolve ``--resume JOB``: an id (or unambiguous prefix) under
    ``job_dir``, or a direct path to a job directory."""
    as_path = Path(job_ref)
    if as_path.is_dir() and (as_path / "spec.json").exists():
        return Job.load(as_path)
    root = Path(job_dir)
    matches = sorted(
        entry for entry in (root.iterdir() if root.is_dir() else [])
        if entry.is_dir() and entry.name.startswith(job_ref)
        and (entry / "spec.json").exists()
    )
    if not matches:
        raise FileNotFoundError(f"no job matching {job_ref!r} under {root}/")
    if len(matches) > 1:
        names = ", ".join(entry.name for entry in matches)
        raise ValueError(f"ambiguous job {job_ref!r}: matches {names}")
    return Job.load(matches[0])
