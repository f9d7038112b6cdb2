"""What a run imports: optional subsystems load only when a run uses them.

The surface checks run in a fresh interpreter: by the time they run,
this test process has imported most of the tree.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(__file__))

LAZY_MODULES = ["repro", "repro.api", "repro.obs", "repro.mac", "repro.net", "repro.phy"]

#: Prints the modules loaded when the first ``Simulator.run`` starts and
#: after a plain seed-1 run of the experiment named on the command line.
_PLAIN_RUN = """
import json, sys
from repro import api
from repro.sim.kernel import Simulator

at_first_event = []
run = Simulator.run

def first_run(self, *args, **kwargs):
    if not at_first_event:
        at_first_event.append(sorted(sys.modules))
    return run(self, *args, **kwargs)

Simulator.run = first_run
api.run(sys.argv[1], seed=1, duration=2.0, warmup=1.0)
print(json.dumps({"at_first_event": at_first_event[0], "after": sorted(sys.modules)}))
"""

#: Prints the modules a sweep worker imports after its fork, for a
#: one-cell sweep at jobs=2 under the full optional machinery.
_SWEEP_WORKER = """
import json, os, sys
at_fork = []
os.register_at_fork(after_in_child=lambda: at_fork.append(set(sys.modules)))
from repro import api
from repro.fault.presets import get_preset
import repro.service.scheduler as scheduler

execute_cell = scheduler.execute_cell

def cell(*args):
    result = execute_cell(*args)
    with open(sys.argv[2], "w") as out:
        json.dump(sorted(set(sys.modules) - at_fork[-1]), out)
    return result

scheduler.execute_cell = cell
profile = api.RunProfile(sanitize=True, metrics=1.0, faults=get_preset("churn-light"))
job = api.sweep("table2", seeds=[1], jobs=2, profile=profile, duration=2.0,
                warmup=1.0, job_dir=sys.argv[1] + "/jobs",
                cache=api.ResultCache(sys.argv[1] + "/cache"))
assert job.status == "complete", job.status
print(open(sys.argv[2]).read())
"""


def _fresh_python(script, *args):
    """Run ``script`` in a new interpreter; return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_SANITIZE", None)  # the runs below set every knob they use
    done = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _unused_by_plain_table2(module):
    """Whether a plain Table 2 run has no use for ``module``."""
    parts = module.split(".")
    if parts[0] in ("multiprocessing", "numpy"):
        return True
    if parts[0] != "repro" or len(parts) == 1:
        return False
    package = parts[1]
    if package in ("service", "runner", "fault", "verify"):
        return True
    if package == "obs":
        return module != "repro.obs.runtime" and len(parts) > 2
    if package == "experiments":
        return len(parts) > 2 and parts[2] not in ("base", "registry", "table02")
    return module in ("repro.mac.csma", "repro.mac.polling", "repro.net.tcp",
                      "repro.phy.grid_medium")


def test_plain_run_imports_only_what_it_simulates():
    seen = _fresh_python(_PLAIN_RUN, "table2")
    assert [m for m in seen["after"] if _unused_by_plain_table2(m)] == []
    # Everything the run needs is imported before its first event.
    assert seen["at_first_event"] == seen["after"]


def test_tcp_and_noise_run_loads_no_numpy():
    seen = _fresh_python(_PLAIN_RUN, "table11")
    assert [m for m in seen["after"] if m.split(".")[0] == "numpy"] == []
    assert seen["at_first_event"] == seen["after"]


def test_sweep_worker_imports_nothing_after_fork(tmp_path):
    imported = _fresh_python(_SWEEP_WORKER, str(tmp_path),
                             str(tmp_path / "worker.json"))
    assert imported == []


def _type_checking_names(module):
    """Names bound by the module's ``if TYPE_CHECKING:`` imports."""
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    names.update(a.asname or a.name for a in stmt.names)
    return names


@pytest.mark.parametrize("name", LAZY_MODULES)
def test_lazy_reexports_resolve(name):
    module = importlib.import_module(name)
    listed = dir(module)
    for export in module.__all__:
        getattr(module, export)
        assert export in listed, export
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
    # Static checkers see each lazy name through the TYPE_CHECKING imports.
    lazy = set(module.__all__) - set(vars(module))
    assert lazy <= _type_checking_names(module)
