"""Per-rule fixtures: one positive and one negative case per rule.

REPRO101-108 are exercised in depth by ``tests/verify/test_lint.py``;
here each gets a smoke pair, and the REPRO110-113 families get full
coverage.
"""

from pathlib import Path

from repro.verify.analysis import analyze_paths, analyze_source, get_rules
from repro.verify.analysis.layers import HOOK_EXCEPTIONS
from repro.verify.analysis.rules import layering


def codes(source, path="model.py", project=None):
    result = analyze_source(source, path, get_rules(), project)
    return [f.code for f in result.findings]


def tree_codes(tmp_path, files):
    """Write ``files`` under a fake repro tree and run the full engine."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    run = analyze_paths([root])
    return [(str(Path(f.path).relative_to(root)), f.code)
            for f in run.findings]


# ------------------------------------------------- REPRO101-108 smoke pairs


def test_repro101_pair():
    assert "REPRO101" in codes("import random\nrandom.seed(1)\n")
    assert "REPRO101" not in codes("import numpy\nx = numpy.zeros(3)\n")


def test_repro102_pair():
    assert "REPRO102" in codes("import time\nt = time.time()\n")
    assert "REPRO102" not in codes("import time\nt = time.sleep\n")


def test_repro103_pair():
    assert "REPRO103" in codes("def f(x=[]):\n    pass\n")
    assert "REPRO103" not in codes("def f(x=None):\n    pass\n")


def test_repro104_pair():
    assert "REPRO104" in codes("sim._now = 5.0\n")
    assert codes("self._now = 0.0\n", path="src/repro/sim/kernel.py") == []


def test_repro105_pair():
    assert "REPRO105" in codes("import os\n")
    assert "REPRO105" not in codes("import os\nx = os.sep\n")


def test_repro106_pair():
    bad = "def f(self):\n    return self.m._audible(a, b)\n"
    assert "REPRO106" in codes(bad, path="src/repro/mac/macaw.py")
    assert codes(bad, path="src/repro/phy/medium.py") == []


def test_repro107_pair():
    assert "REPRO107" in codes('print("x")\n', path="repro/mac/maca.py")
    assert codes('print("x")\n', path="repro/cli.py") == []


def test_repro108_pair():
    bad = 'rng = sim.streams.get("mac:P1")\n'
    assert "REPRO108" in codes(bad, path="repro/fault/inject.py")
    ok = 'rng = sim.streams.get("fault:burst:0")\n'
    assert "REPRO108" not in codes(ok, path="repro/fault/inject.py")


# ------------------------------------------------------ REPRO110 (layering)


def test_repro110_upward_import_flagged():
    src = "from repro.topo.builder import ScenarioBuilder\nx = ScenarioBuilder\n"
    assert "REPRO110" in codes(src, path="src/repro/mac/maca.py")


def test_repro110_downward_import_allowed():
    src = "from repro.sim.kernel import Simulator\nx = Simulator\n"
    assert "REPRO110" not in codes(src, path="src/repro/mac/maca.py")


def test_repro110_mac_core_are_one_layer():
    up = "from repro.core.macaw import MacawEngine\nx = MacawEngine\n"
    down = "from repro.mac.base import MacBase\nx = MacBase\n"
    assert "REPRO110" not in codes(up, path="src/repro/mac/maca.py")
    assert "REPRO110" not in codes(down, path="src/repro/core/macaw.py")


def test_repro110_service_layer_reach_in_flagged():
    src = "from repro.obs.registry import MetricsRegistry\nx = MetricsRegistry\n"
    assert "REPRO110" in codes(src, path="src/repro/mac/maca.py")


def test_repro110_declared_hook_points_exempt():
    src = "from repro.obs.registry import MetricsRegistry\nx = MetricsRegistry\n"
    assert "REPRO110" not in codes(src, path="src/repro/topo/builder.py")
    assert "REPRO110" not in codes(src, path="src/repro/core/config.py")


def test_repro110_every_hook_exception_is_still_needed(monkeypatch):
    # Each declared hook point names a module that exists and imports the
    # named package at runtime: without its pair, REPRO110 flags it.
    src_root = Path(__file__).resolve().parents[3] / "src" / "repro"
    for rel, package in sorted(HOOK_EXCEPTIONS):
        module = src_root / rel
        assert module.is_file(), f"{rel}: no such module under src/repro"
        monkeypatch.setattr(layering, "HOOK_EXCEPTIONS",
                            HOOK_EXCEPTIONS - {(rel, package)})
        result = analyze_source(module.read_text(encoding="utf-8"),
                                str(module), get_rules(["REPRO110"]))
        assert any(f"must not import 'repro.{package}'" in f.message
                   for f in result.findings), (rel, package)


def test_repro110_type_checking_imports_exempt():
    src = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.topo.builder import ScenarioBuilder\n"
        "def f(b: 'ScenarioBuilder') -> None:\n"
        "    pass\n"
    )
    assert "REPRO110" not in codes(src, path="src/repro/mac/maca.py")


def test_repro110_relative_imports_resolved():
    src = "from ..topo import builder\nx = builder\n"
    assert "REPRO110" in codes(src, path="src/repro/mac/maca.py")
    sibling = "from . import frames\nx = frames\n"
    assert "REPRO110" not in codes(sibling, path="src/repro/mac/maca.py")


def test_repro110_cross_layer_private_attr(tmp_path):
    found = tree_codes(tmp_path, {
        "phy/medium.py": (
            "class Medium:\n"
            "    def __init__(self):\n"
            "        self._link_cache = {}\n"
        ),
        "mac/maca.py": (
            "def peek(medium):\n"
            "    return medium._link_cache\n"
        ),
    })
    assert ("mac/maca.py", "REPRO110") in found


def test_repro110_same_layer_private_attr_ok(tmp_path):
    found = tree_codes(tmp_path, {
        "mac/base.py": (
            "class MacBase:\n"
            "    def __init__(self):\n"
            "        self._state = 0\n"
        ),
        "core/macaw.py": (  # mac/core are one layer group
            "def peek(mac):\n"
            "    return mac._state\n"
        ),
    })
    assert ("core/macaw.py", "REPRO110") not in found


def test_repro110_audible_left_to_repro106(tmp_path):
    found = tree_codes(tmp_path, {
        "phy/medium.py": (
            "class Medium:\n"
            "    def __init__(self):\n"
            "        self._audible = {}\n"
        ),
        "mac/maca.py": (
            "def peek(medium):\n"
            "    return medium._audible\n"
        ),
    })
    assert ("mac/maca.py", "REPRO106") in found
    assert ("mac/maca.py", "REPRO110") not in found


# ------------------------------------------------ REPRO111 (frozen-mutation)


def test_repro111_object_setattr_outside_init_flagged():
    src = (
        "class Thing:\n"
        "    def poke(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
    )
    assert "REPRO111" in codes(src, path="src/repro/net/transport.py")


def test_repro111_object_setattr_in_post_init_allowed():
    src = (
        "class Thing:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
    )
    assert "REPRO111" not in codes(src, path="src/repro/net/transport.py")


def test_repro111_direct_write_on_frozen_dataclass():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    x: int\n"
        "def f():\n"
        "    p = P(1)\n"
        "    p.x = 2\n"
    )
    assert "REPRO111" in codes(src, path="src/repro/net/transport.py")


def test_repro111_write_on_unfrozen_dataclass_allowed():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class P:\n"
        "    x: int\n"
        "def f():\n"
        "    p = P(1)\n"
        "    p.x = 2\n"
    )
    assert "REPRO111" not in codes(src, path="src/repro/net/transport.py")


def test_repro111_cross_module_frozen_class(tmp_path):
    found = tree_codes(tmp_path, {
        "core/config.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class RunProfile:\n"
            "    seed: int\n"
        ),
        "mac/maca.py": (
            "from repro.core.config import RunProfile\n"
            "def f():\n"
            "    p = RunProfile(1)\n"
            "    p.seed = 2\n"
        ),
    })
    assert ("mac/maca.py", "REPRO111") in found


# ------------------------------------------ REPRO112 (order-sensitive sets)


def test_repro112_sum_over_set_flagged():
    assert "REPRO112" in codes("def f():\n    return sum({1.0, 2.0})\n")


def test_repro112_accumulation_over_set_flagged():
    src = (
        "def f(xs):\n"
        "    total = 0.0\n"
        "    for x in set(xs):\n"
        "        total += x\n"
    )
    assert "REPRO112" in codes(src)


def test_repro112_scheduling_over_set_flagged():
    src = (
        "def f(sim, stations):\n"
        "    for s in set(stations):\n"
        "        sim.schedule(0.0, s.wake)\n"
    )
    assert "REPRO112" in codes(src)


def test_repro112_sorted_set_is_the_sanctioned_fix():
    src = (
        "def f(xs):\n"
        "    total = 0.0\n"
        "    for x in sorted(set(xs)):\n"
        "        total += x\n"
        "    return total, sum(sorted({1.0, 2.0}))\n"
    )
    assert "REPRO112" not in codes(src)


def test_repro112_list_iteration_allowed():
    src = (
        "def f(xs):\n"
        "    total = 0.0\n"
        "    for x in xs:\n"
        "        total += x\n"
    )
    assert "REPRO112" not in codes(src)


def test_repro112_tracks_set_variables():
    src = (
        "def f(xs, sim):\n"
        "    pending = set(xs)\n"
        "    for x in pending:\n"
        "        sim.call_soon(x.fire)\n"
    )
    assert "REPRO112" in codes(src)


# -------------------------------------- REPRO113 (callback discipline)


def test_repro113_callback_calling_run_flagged():
    src = (
        "def cb(sim):\n"
        "    sim.run()\n"
        "def go(sim):\n"
        "    sim.schedule(1.0, cb)\n"
    )
    assert "REPRO113" in codes(src)


def test_repro113_constant_absolute_schedule_flagged():
    src = (
        "def cb(sim):\n"
        "    sim.at(5.0, cb)\n"
        "def go(sim):\n"
        "    sim.call_soon(cb)\n"
    )
    assert "REPRO113" in codes(src)


def test_repro113_now_derived_schedule_allowed():
    src = (
        "def cb(sim):\n"
        "    sim.at(sim.now + 1.0, cb)\n"
        "    sim.schedule(2.0, cb)\n"
        "def go(sim):\n"
        "    sim.schedule(1.0, cb)\n"
    )
    assert "REPRO113" not in codes(src)


def test_repro113_non_callback_run_allowed():
    src = (
        "def drive(sim):\n"
        "    sim.run()\n"
    )
    assert "REPRO113" not in codes(src)


def test_repro113_callback_rebinding_clock_flagged():
    src = (
        "def cb(sim):\n"
        "    sim._now = 0.0\n"
        "def go(sim):\n"
        "    sim.schedule(1.0, cb)\n"
    )
    found = codes(src)
    assert "REPRO113" in found
    assert "REPRO104" in found  # the flat rule still fires too


def test_repro113_kernel_module_exempt():
    src = (
        "def cb(self):\n"
        "    self._now = 1.0\n"
    )
    assert "REPRO113" not in codes(src, path="src/repro/sim/kernel.py")


# -------------------------------- REPRO114 (pickle confined to snapshot)


def test_repro114_pickle_import_flagged():
    src = "import pickle\nx = pickle.dumps\n"
    assert "REPRO114" in codes(src, path="src/repro/runner/cache.py")


def test_repro114_copyreg_flagged():
    src = "import copyreg\nx = copyreg.pickle\n"
    assert "REPRO114" in codes(src, path="src/repro/mac/macaw.py")


def test_repro114_from_import_flagged():
    src = "from pickle import dumps\nx = dumps\n"
    assert "REPRO114" in codes(src, path="src/repro/net/flows.py")


def test_repro114_snapshot_package_exempt():
    src = "import pickle\nx = pickle.dumps\n"
    assert "REPRO114" not in codes(src, path="src/repro/snapshot/codec.py")
    assert "REPRO114" not in codes(src, path="snapshot/codec.py")


def test_repro114_type_checking_exempt():
    src = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import pickle\n"
        "def f(x: 'pickle.Pickler') -> None:\n"
        "    pass\n"
    )
    assert "REPRO114" not in codes(src, path="src/repro/runner/cache.py")


def test_repro114_allow_pragma():
    src = "import pickle  # repro-lint: allow=REPRO114 (plain records)\nx = pickle.dumps\n"
    assert "REPRO114" not in codes(src, path="src/repro/runner/cache.py")


def test_repro114_unrelated_modules_clean():
    src = "import json\nx = json.dumps\n"
    assert "REPRO114" not in codes(src, path="src/repro/runner/cache.py")


# ------------------------------------------------------------------ REPRO116


def test_repro116_fuzz_streams_flagged_outside_diff():
    bad = "def draw(streams):\n    return streams.get('fuzz:topology')\n"
    assert "REPRO116" in codes(bad, path="repro/mac/macaw.py")
    assert "REPRO116" in codes(bad, path="repro/fault/inject.py")
    fstring = ("def draw(streams, i):\n"
               "    return streams.get(f'fuzz:{i}:traffic')\n")
    assert "REPRO116" in codes(fstring, path="repro/topo/builder.py")


def test_repro116_diff_subtree_and_other_namespaces_clean():
    fuzzy = "def draw(streams):\n    return streams.get('fuzz:topology')\n"
    assert "REPRO116" not in codes(fuzzy, path="repro/verify/diff/fuzz.py")
    other = "def draw(streams):\n    return streams.get('mac:P1')\n"
    assert "REPRO116" not in codes(other, path="repro/mac/macaw.py")
    dynamic = "def draw(streams, name):\n    return streams.get(name)\n"
    assert "REPRO116" not in codes(dynamic, path="repro/mac/macaw.py")


def test_repro110_diff_subtree_may_import_the_whole_tree():
    src = ("from repro.service.scheduler import run_cells\n"
           "from repro.service.job import JobSpec\n"
           "from repro.snapshot import Snapshot\n"
           "x = (run_cells, JobSpec, Snapshot)\n")
    assert "REPRO110" not in codes(src, path="repro/verify/diff/oracle.py")
    # The rest of verify keeps its narrow surface.
    outside = ("from repro.service.scheduler import run_cells\n"
               "x = run_cells\n")
    assert "REPRO110" in codes(outside, path="repro/verify/conformance.py")
