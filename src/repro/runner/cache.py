"""On-disk memo of experiment cell results.

Regenerating the paper's tables is embarrassingly repetitive: the same
(experiment, seed, duration, warmup) cells run again and again while only
one table is being worked on.  The cache stores each finished
:class:`~repro.runner.cells.CellResult` as a pickle keyed by

    sha256(exp_id, seed, duration, warmup, config-hash, code-version)

where *config-hash* (:func:`profile_hash`) folds in the run's
:class:`~repro.core.config.RunProfile` digest and digest collection
(which force-enables tracing) and *code-version* is a content hash over
every ``repro/*.py`` source file.  Any edit to the simulator therefore
invalidates every entry — stale physics can never leak into a table —
while re-running an untouched tree is pure cache hits.

The cache is advisory: unreadable or unpicklable entries count as misses,
and writes go through an atomic rename so a crashed run never leaves a
truncated entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle  # repro-lint: allow=REPRO114 (CellResult blobs, not live simulator state)
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.runner.cells import Cell, CellResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RunProfile

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "MACAW_CACHE_DIR"

#: Default cache location (under the working directory, like .pytest_cache).
DEFAULT_CACHE_DIR = ".macaw_cache"

#: Age (seconds) past which an orphaned ``*.tmp`` write is considered
#: abandoned and swept at cache startup.  Applies only to legacy tmp
#: names that carry no writer pid; pid-tagged tmps are swept as soon as
#: their writer is gone, and never while it is alive.
TMP_SWEEP_AGE_S = 3600.0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned elsewhere
        return True
    except OSError:  # pragma: no cover - e.g. platforms without kill
        return True
    return True


def _tmp_writer_pid(name: str) -> Optional[int]:
    """The writer pid encoded in a ``*.<pid>.tmp`` name, or None (legacy)."""
    parts = name.split(".")
    if len(parts) >= 3 and parts[-1] == "tmp":
        try:
            return int(parts[-2])
        except ValueError:
            return None
    return None

_code_version_memo: Optional[str] = None


def code_version() -> str:
    """Content hash of every ``repro`` source file, memoized per process."""
    global _code_version_memo
    if _code_version_memo is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _code_version_memo = hasher.hexdigest()
    return _code_version_memo


def profile_hash(profile: "RunProfile", collect_digests: bool) -> str:
    """Config hash of a full :class:`~repro.core.config.RunProfile`.

    The profile's own :meth:`~repro.core.config.RunProfile.digest` covers
    every result-affecting knob (sanitize, metrics, faults, timing, …);
    only digest collection lives outside it.
    """
    blob = json.dumps(
        {"profile": profile.digest(), "collect_digests": collect_digests},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-entry cell cache rooted at ``directory``."""

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove orphaned ``*.tmp`` files left by killed pool workers.

        :meth:`put` writes through a temp file + atomic rename; a worker
        dying between the two strands the temp file forever (its name is
        random, so no later write ever replaces it).  Swept entries are
        never *served* regardless — :meth:`get` only opens ``*.pkl`` —
        this is purely a disk-hygiene pass.

        Tmp names embed the writer's pid (``…<pid>.tmp``), so a file is
        swept exactly when its writer is gone — an age cutoff alone
        would yank a still-running worker's slow write out from under it
        the moment it crossed the threshold.  Legacy pid-less names fall
        back to the :data:`TMP_SWEEP_AGE_S` cutoff.
        """
        try:
            stale = list(self.directory.glob("*.tmp"))
        except OSError:  # pragma: no cover - unreadable cache dir
            return
        cutoff = time.time() - TMP_SWEEP_AGE_S  # repro-lint: allow=REPRO102 (file mtime age, not sim time)
        for tmp in stale:
            pid = _tmp_writer_pid(tmp.name)
            try:
                if pid is not None:
                    if not _pid_alive(pid):
                        tmp.unlink()
                elif tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
            except OSError:  # pragma: no cover - raced or perms; harmless
                continue

    # ----------------------------------------------------------------- keys
    def key(self, cell: Cell, config: str, version: Optional[str] = None) -> str:
        """Cache key for a cell; requires pinned duration/warmup."""
        cell = cell.resolved()
        blob = json.dumps(
            {
                "exp_id": cell.exp_id,
                "seed": cell.seed,
                "duration": cell.duration,
                "warmup": cell.warmup,
                "config": config,
                "code": version if version is not None else code_version(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -------------------------------------------------------------- get/put
    def get(self, cell: Cell, config: str, version: Optional[str] = None) -> Optional[CellResult]:
        """The cached result, or None on a miss (or unreadable entry)."""
        path = self._path(self.key(cell, config, version))
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        if not isinstance(result, CellResult):
            self.misses += 1
            return None
        self.hits += 1
        result.cached = True
        result.wall_s = 0.0
        return result

    def put(self, result: CellResult, config: str, version: Optional[str] = None) -> None:
        """Store a finished cell atomically (pid-tagged tmp file + rename).

        A sweeper running under the pre-pid sweep logic (or after pid
        reuse) can still unlink the tmp between write and rename; the
        result is good, so the write is simply retried once rather than
        failing the cell.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(self.key(result.cell, config, version))
        for attempt in (0, 1):
            fd, tmp = tempfile.mkstemp(
                dir=str(self.directory), suffix=f".{os.getpid()}.tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except FileNotFoundError:
                if attempt == 0:
                    continue
                raise
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return
