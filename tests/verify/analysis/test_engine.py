"""Engine behaviour: the clean tree, REPRO105 re-exports, pragma plumbing."""

from pathlib import Path

from repro.verify.analysis import analyze_paths, analyze_source, get_rules

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


def test_repro_tree_clean_under_full_rule_set():
    run = analyze_paths([SRC])
    assert run.findings == [], "\n".join(f.render() for f in run.findings)


# ------------------------------------------- REPRO105 re-export awareness


def test_init_all_reexport_not_flagged(tmp_path):
    root = tmp_path / "repro"
    pkg = root / "mac"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.mac.maca import MacaMac\n__all__ = ['MacaMac']\n"
    )
    (pkg / "maca.py").write_text(
        "from repro.mac.frames import Frame\n"
        "class MacaMac:\n"
        "    kind = Frame\n"
    )
    # `helper` is imported by maca.py's sibling but NOT re-exported.
    (pkg / "frames.py").write_text(
        "from repro.mac.helper import pack\n"
        "class Frame:\n"
        "    pass\n"
    )
    (pkg / "helper.py").write_text("def pack():\n    return b''\n")
    run = analyze_paths([root], rules=get_rules(["REPRO105"]))
    flagged = {(Path(f.path).name, f.code) for f in run.findings}
    assert ("frames.py", "REPRO105") in flagged  # unused, not re-exported
    assert ("maca.py", "REPRO105") not in flagged  # __all__ re-export


def test_redundant_alias_reexport_idiom_not_flagged():
    src = "from repro.mac.maca import MacaMac as MacaMac\n"
    result = analyze_source(src, "mod.py", get_rules(["REPRO105"]))
    assert result.findings == []
    plain = "from repro.mac.maca import MacaMac\n"
    result = analyze_source(plain, "mod.py", get_rules(["REPRO105"]))
    assert [f.code for f in result.findings] == ["REPRO105"]


# ------------------------------------------------------------ plumbing


def test_suppressed_findings_and_pragma_lines_tracked():
    src = (
        "import time\n"
        "t = time.time()  # repro-lint: allow=REPRO102\n"
        "x = 1  # repro-lint: allow=REPRO101\n"
    )
    result = analyze_source(src, "mod.py", get_rules())
    assert [f.code for f in result.suppressed] == ["REPRO102"]
    assert result.pragma_lines == [2, 3]
