"""Parallel experiment runner: fan (experiment, seed) cells over workers.

The sweep layer on top of :mod:`repro.experiments`: a grid of
:class:`Cell` requests runs through :func:`run_cells`, optionally over a
``multiprocessing`` pool and/or an on-disk :class:`ResultCache`.  The
determinism contract — parallel and serial sweeps produce byte-identical
per-cell trace digests — is what makes ``--jobs N`` a pure speed knob.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_version,
    profile_hash,
)
from repro.runner.cells import Cell, CellResult, expand_cells
from repro.runner.parallel import execute_cell, run_cells

__all__ = [
    "CACHE_DIR_ENV",
    "Cell",
    "CellResult",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "code_version",
    "execute_cell",
    "expand_cells",
    "profile_hash",
    "run_cells",
]
