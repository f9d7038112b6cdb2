"""Experiment cells: the unit of grid work, its execution and its cache.

The layer on top of :mod:`repro.experiments`: a :class:`Cell` names one
(experiment, seed, bounds) run, :func:`execute_cell` runs it in the
calling process, and :class:`ResultCache` memoizes its
:class:`CellResult` on disk.  Fanning a grid of cells out over worker
processes is the service layer's job (:func:`repro.service.run_cells`
over :class:`~repro.service.scheduler.CellScheduler`); the determinism
contract — parallel and serial grids produce byte-identical per-cell
trace digests — is what makes ``--jobs N`` a pure speed knob.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_version,
    profile_hash,
)
from repro.runner.cells import Cell, CellResult, expand_cells, parse_seeds
from repro.runner.parallel import execute_cell

__all__ = [
    "CACHE_DIR_ENV",
    "Cell",
    "CellResult",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "code_version",
    "execute_cell",
    "expand_cells",
    "parse_seeds",
    "profile_hash",
]
