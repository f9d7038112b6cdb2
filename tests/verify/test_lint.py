"""Rules REPRO101-108 in depth, the pragma, and the clean tree."""

from pathlib import Path

from repro.verify.analysis import analyze_paths, analyze_source

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def codes(source, path="model.py"):
    return [f.code for f in analyze_source(source, path).findings]


# ------------------------------------------------------------------ REPRO101


def test_random_import_flagged():
    assert "REPRO101" in codes("import random\nrandom.seed(1)\n")


def test_random_from_import_flagged():
    assert "REPRO101" in codes("from random import choice\n")


def test_random_attribute_use_flagged():
    found = codes("import random\nx = random.random()\n")
    assert found.count("REPRO101") == 2  # the import and the call site


def test_numpy_random_outside_rng_module_flagged():
    src = "import numpy as np\nrng = np.random.default_rng(0)\n"
    assert "REPRO101" in codes(src)
    # The stream registry itself is the one legitimate call site.
    assert "REPRO101" not in codes(src, path="src/repro/sim/rng.py")


# ------------------------------------------------------------------ REPRO102


def test_wall_clock_calls_flagged():
    assert "REPRO102" in codes("import time\nt = time.time()\n")
    assert "REPRO102" in codes("import time\nt = time.perf_counter()\n")
    assert "REPRO102" in codes(
        "import datetime\nt = datetime.datetime.now()\n"
    )
    assert "REPRO102" in codes(
        "from datetime import datetime\nt = datetime.now()\n"
    )
    assert "REPRO102" in codes(
        "from time import perf_counter\nt = perf_counter()\n"
    )


def test_non_clock_time_use_not_flagged():
    assert codes("import time\nt = time.sleep\n") == []


def test_pragma_waives_named_rule():
    src = "import time\nt = time.time()  # repro-lint: allow=REPRO102\n"
    assert codes(src) == []
    wrong = "import time\nt = time.time()  # repro-lint: allow=REPRO101\n"
    assert "REPRO102" in codes(wrong)


# ------------------------------------------------------------------ REPRO103


def test_mutable_default_literal_flagged():
    assert "REPRO103" in codes("def f(x=[]):\n    pass\n")
    assert "REPRO103" in codes("def f(x={}):\n    pass\n")
    assert "REPRO103" in codes("def f(*, x=set()):\n    pass\n")
    assert "REPRO103" in codes("f = lambda x=[]: x\n")


def test_immutable_defaults_not_flagged():
    assert codes("def f(x=(), y=None, z=0):\n    pass\n") == []
    # Frozen-config constructor defaults are fine: only the known mutable
    # builtins are banned.
    assert codes("def f(x=Config()):\n    pass\n") == []


# ------------------------------------------------------------------ REPRO104


def test_clock_mutation_flagged_outside_kernel():
    assert "REPRO104" in codes("sim._now = 5.0\n")
    assert "REPRO104" in codes("self.sim._now += 1.0\n")
    assert codes("self._now = 0.0\n", path="src/repro/sim/kernel.py") == []


# ------------------------------------------------------------------ REPRO105


def test_unused_import_flagged():
    assert "REPRO105" in codes("import os\n")
    assert "REPRO105" in codes("from typing import List\n")


def test_used_and_reexported_imports_not_flagged():
    assert codes("import os\nx = os.sep\n") == []  # REPRO107 bans print()
    assert codes('from repro.mac.maca import MacaMac\n__all__ = ["MacaMac"]\n') == []
    assert codes('from typing import List\nx: "List[int]" = []\n') == []


def test_init_modules_exempt_from_unused_import():
    assert codes("from os import sep\n", path="pkg/__init__.py") == []


# ------------------------------------------------------------------ REPRO106


def test_private_audible_access_flagged_outside_phy():
    src = "def defer(self):\n    return self.medium._audible(a, b)\n"
    assert "REPRO106" in codes(src, path="src/repro/mac/macaw.py")


def test_private_audible_allowed_inside_phy():
    src = "def transmit(self):\n    return self._audible(a, b)\n"
    assert codes(src, path="src/repro/phy/grid_medium.py") == []


def test_public_audible_accessor_not_flagged():
    src = "def defer(self):\n    return self.medium.audible(a, b)\n"
    assert codes(src, path="src/repro/mac/macaw.py") == []


def test_private_audible_pragma_waivable():
    src = (
        "def probe(self):\n"
        "    return m._audible(a, b)  # repro-lint: allow=REPRO106\n"
    )
    assert codes(src, path="src/repro/mac/macaw.py") == []


# ---------------------------------------------------------------- whole tree


def test_repro_tree_is_lint_clean():
    findings = analyze_paths([SRC]).findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    findings = analyze_paths([bad]).findings
    assert [f.code for f in findings] == ["REPRO100"]


# ---------------------------------------------------------------- REPRO107


def test_print_in_model_code_flagged():
    assert "REPRO107" in codes('print("debug")\n', path="repro/mac/maca.py")


def test_print_exempt_in_obs_and_cli_modules():
    assert codes('print("ok")\n', path="repro/obs/aggregate.py") == []
    assert codes('print("ok")\n', path="repro/cli.py") == []


def test_manual_counter_dict_flagged():
    src = "counts = {}\ncounts[key] = counts.get(key, 0) + 1\n"
    assert "REPRO107" in codes(src, path="repro/mac/maca.py")


def test_counter_dict_with_amount_on_either_side_flagged():
    left = "d[k] = d.get(k, 0) + n\n"
    right = "d[k] = n + d.get(k, 0)\n"
    assert "REPRO107" in codes(left, path="repro/core/x.py")
    assert "REPRO107" in codes(right, path="repro/core/x.py")


def test_unrelated_dict_assignment_not_flagged():
    # Not the counter idiom: different dict, non-zero default, plain set.
    assert codes("d[k] = other.get(k, 0) + 1\n", path="repro/core/x.py") == []
    assert codes("d[k] = d.get(k, 5) + 1\n", path="repro/core/x.py") == []
    assert codes("d[k] = 1\n", path="repro/core/x.py") == []


def test_repro107_pragma_waives():
    src = 'print("report")  # repro-lint: allow=REPRO107\n'
    assert codes(src, path="repro/mac/maca.py") == []


# ------------------------------------------------------------------ REPRO108


def test_fault_module_random_import_flagged():
    found = codes("import random\n", path="repro/fault/generators.py")
    assert "REPRO108" in found and "REPRO101" in found


def test_fault_module_numpy_random_flagged():
    src = "import numpy\nx = numpy.random.default_rng()\n"
    assert "REPRO108" in codes(src, path="repro/fault/inject.py")


def test_fault_module_private_randomstreams_flagged():
    src = "from repro.sim.rng import RandomStreams\ns = RandomStreams(7)\n"
    assert "REPRO108" in codes(src, path="repro/fault/inject.py")


def test_fault_module_foreign_stream_name_flagged():
    src = 'rng = sim.streams.get("mac:P1")\n'
    assert "REPRO108" in codes(src, path="repro/fault/inject.py")


def test_fault_module_foreign_fstring_stream_flagged():
    src = 'rng = sim.streams.get(f"mac:{name}")\n'
    assert "REPRO108" in codes(src, path="repro/fault/inject.py")


def test_fault_module_fault_streams_allowed():
    ok = (
        'a = sim.streams.get("fault:burst_noise:0")\n'
        'b = sim.streams.get(f"fault:link_flap:{name}")\n'
    )
    assert codes(ok, path="repro/fault/inject.py") == []


def test_fault_module_dynamic_stream_name_not_judged():
    src = "rng = sim.streams.get(proc.stream_name)\n"
    assert codes(src, path="repro/fault/inject.py") == []


def test_non_fault_module_exempt_from_repro108():
    src = 'rng = sim.streams.get("mac:P1")\n'
    assert "REPRO108" not in codes(src, path="repro/phy/noise.py")


def test_repro108_pragma_waives():
    src = 'rng = sim.streams.get("mac:P1")  # repro-lint: allow=REPRO108\n'
    assert "REPRO108" not in codes(src, path="repro/fault/inject.py")
