"""Tests for the determinism & checkpoint-coverage linter (repro.lint).

Fixture files under ``tests/fixtures/detlint/`` carry ``# expect: RULE``
markers: the golden tests assert that the set of findings equals, line by
line, the set of markers -- so both false negatives (a marked line not
flagged) and false positives (an unmarked line flagged) fail.

Fixture sources are linted under a synthetic ``src/repro/...`` path:
the real fixture path lives under ``tests/``, which is on the DET002
clock allowlist and would silence that rule.
"""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    diff_against_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    main,
    parse_waivers,
    save_baseline,
    RULES,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "detlint"

EXPECT = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")


def lint_fixture(name: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, f"src/repro/{name}")


def expected_markers(name: str) -> Counter:
    """``(line, rule)`` multiset from the fixture's `# expect:` comments."""
    expected: Counter = Counter()
    source_lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(source_lines, 1):
        for rule in EXPECT.findall(line):
            expected[(line_no, rule)] += 1
    return expected


def found_markers(report) -> Counter:
    return Counter((f.line, f.rule) for f in report.findings)


# ----------------------------------------------------------------------
# Golden fixture tests: one positive + one negative file per rule.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture",
    [
        "det001_positive.py",
        "det002_positive.py",
        "det003_positive.py",
        "det004_positive.py",
        "ckpt001_positive.py",
        "ckpt002_positive.py",
    ],
)
def test_positive_fixture_findings_match_markers(fixture):
    report = lint_fixture(fixture)
    assert found_markers(report) == expected_markers(fixture)
    assert report.findings, f"{fixture} must plant at least one violation"


@pytest.mark.parametrize(
    "fixture",
    [
        "det001_negative.py",
        "det002_negative.py",
        "det003_negative.py",
        "det004_negative.py",
        "ckpt001_negative.py",
        "ckpt002_negative.py",
    ],
)
def test_negative_fixture_is_clean(fixture):
    report = lint_fixture(fixture)
    assert report.findings == []
    assert report.waived == []


def test_positive_fixtures_cover_their_rule():
    """Each positive fixture plants violations of the rule it is named for."""
    for rule in ("DET001", "DET002", "DET003", "DET004", "CKPT001", "CKPT002"):
        report = lint_fixture(f"{rule.lower()}_positive.py")
        assert any(f.rule == rule for f in report.findings)


def test_det002_allowlist_silences_benchmarks_and_scripts():
    source = "import time\nnow = time.time()\n"
    assert lint_source(source, "src/repro/sim/clock.py").findings
    for exempt in ("benchmarks/bench_x.py", "scripts/run.py", "tests/test_x.py"):
        assert lint_source(source, exempt).findings == []


def test_unparseable_file_is_a_finding_not_a_crash():
    report = lint_source("def broken(:\n", "src/repro/broken.py")
    assert len(report.findings) == 1
    assert "does not parse" in report.findings[0].message


# ----------------------------------------------------------------------
# Waivers
# ----------------------------------------------------------------------
def test_waiver_fixture_suppression_and_meta_rules():
    report = lint_fixture("waivers_fixture.py")
    # The three ok-waived DET001s plus the reasonless one are all suppressed.
    assert Counter(f.rule for f in report.findings) == Counter(
        {"WVR001": 1, "WVR002": 1, "DET001": 1}
    )
    # Suppressed findings are recorded with the waiver's reason.
    assert len(report.waived) == 4
    reasons = {w["reason"] for w in report.waived if w["reason"]}
    assert any("seeded upstream" in reason for reason in reasons)
    # The unknown-rule waiver suppressed nothing: its DET001 survives.
    surviving_det = [f for f in report.findings if f.rule == "DET001"]
    assert "value_unknown" in surviving_det[0].snippet


def test_waiver_in_docstring_is_inert():
    source = '"""Docs mention # detlint: ignore[DET001] here."""\n'
    waivers, problems = parse_waivers(source.splitlines(), "x.py")
    assert waivers == {} and problems == []


def test_waiver_line_above_and_trailing_forms():
    above = (
        "import random\n"
        "# detlint: ignore[DET001] fixture reason\n"
        "x = random.random()\n"
    )
    assert lint_source(above, "src/repro/x.py").findings == []
    trailing = (
        "import random\n"
        "x = random.random()  # detlint: ignore[DET001] fixture reason\n"
    )
    assert lint_source(trailing, "src/repro/x.py").findings == []
    too_far = (
        "import random\n"
        "# detlint: ignore[DET001] fixture reason\n"
        "\n"
        "x = random.random()\n"
    )
    assert len(lint_source(too_far, "src/repro/x.py").findings) == 1


def test_waiver_does_not_suppress_other_rules():
    source = (
        "import random\n"
        "x = random.random()  # detlint: ignore[DET002] wrong rule named\n"
    )
    report = lint_source(source, "src/repro/x.py")
    assert [f.rule for f in report.findings] == ["DET001"]


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def _findings(source: str, path: str = "src/repro/x.py"):
    return lint_source(source, path).findings


def test_baseline_roundtrip_and_grandfathering(tmp_path):
    source = "import random\nx = random.random()\n"
    findings = _findings(source)
    baseline_path = tmp_path / "baseline.json"
    save_baseline(str(baseline_path), findings)
    baseline = load_baseline(str(baseline_path))
    assert baseline.size == 1
    new, old = diff_against_baseline(findings, baseline)
    assert new == [] and len(old) == 1


def test_baseline_survives_line_shifts_but_not_duplicates():
    source = "import random\nx = random.random()\n"
    baseline = Baseline()
    for finding in _findings(source):
        baseline.entries[(finding.rule, finding.path, finding.key)] += 1
    # Unrelated edits shift the finding's line: still grandfathered.
    shifted = "import random\n\n\n\nx = random.random()\n"
    new, old = diff_against_baseline(_findings(shifted), baseline)
    assert new == [] and len(old) == 1
    # A second identical violation exceeds the multiset budget.
    doubled = "import random\nx = random.random()\ny = 0\nx = random.random()\n"
    new, old = diff_against_baseline(_findings(doubled), baseline)
    assert len(new) == 1 and len(old) == 1


def test_baseline_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError):
        load_baseline(str(bad))


# ----------------------------------------------------------------------
# CLI: exit codes, formats, planted violations of every rule.
# ----------------------------------------------------------------------
PLANTED = {
    "DET001": "import random\nx = random.random()\n",
    "DET002": "import time\nx = time.time()\n",
    "DET003": "x = sum({1.0, 2.0})\n",
    "DET004": "import itertools\n_ids = itertools.count()\n",
    "CKPT001": (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
        "        self.b = 0\n"
        "    def snapshot_state(self):\n"
        "        return {'a': self.a}\n"
        "    def restore_state(self, state):\n"
        "        self.a = state['a']\n"
    ),
    "CKPT002": (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
        "    def snapshot_state(self):\n"
        "        return {'a': self.a, 'a2': self.a}\n"
        "    def restore_state(self, state):\n"
        "        self.a = state['a']\n"
    ),
}


@pytest.mark.parametrize("rule", sorted(PLANTED))
def test_cli_exits_nonzero_on_each_planted_rule(rule, tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "planted.py"
    target.parent.mkdir(parents=True)
    target.write_text(PLANTED[rule])
    exit_code = main([str(target), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert rule in {f["rule"] for f in payload["findings"]}


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main([str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_write_baseline_then_pass(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "planted.py"
    target.parent.mkdir(parents=True)
    target.write_text(PLANTED["DET001"])
    baseline = tmp_path / "baseline.json"
    assert main([str(target), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main([str(target), "--baseline", str(baseline)]) == 0
    # A second violation is not absorbed by the one-entry baseline.
    target.write_text(PLANTED["DET001"] + "y = random.random()\n")
    assert main([str(target), "--baseline", str(baseline)]) == 1
    capsys.readouterr()


def test_cli_out_file_and_select(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "planted.py"
    target.parent.mkdir(parents=True)
    target.write_text(PLANTED["DET001"] + "import time\nz = time.time()\n")
    out = tmp_path / "report.json"
    exit_code = main(
        [str(target), "--format", "json", "--select", "DET002", "--out", str(out)]
    )
    assert exit_code == 1
    payload = json.loads(out.read_text())
    assert {f["rule"] for f in payload["findings"]} == {"DET002"}
    assert payload == json.loads(capsys.readouterr().out)


def test_cli_rules_catalog_lists_every_rule(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--rules"],
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "DET001" in result.stdout


# ----------------------------------------------------------------------
# Repo-wide guarantees (tier-1): the shipped tree lints clean, and
# checkpoint-coverage drift in Controller is caught.
# ----------------------------------------------------------------------
def test_shipped_tree_lints_clean():
    report = lint_paths([str(REPO_ROOT / "src" / "repro")], LintConfig())
    assert [f.format() for f in report.findings] == []
    assert report.files_checked > 50


def test_controller_attribute_drift_is_caught():
    """The PR-9 resume guarantee: a new Controller attribute that is not
    snapshotted (or excluded with a reason) must fail the lint."""
    controller_py = REPO_ROOT / "src" / "repro" / "cloud" / "controller.py"
    source = controller_py.read_text(encoding="utf-8")
    anchor = "self.jobs: Dict[str, Job] = {}"
    assert anchor in source
    injected = source.replace(anchor, anchor + "\n        self.scratch = {}")
    report = lint_source(injected, "src/repro/cloud/controller.py")
    assert any(
        f.rule == "CKPT001" and "scratch" in f.message for f in report.findings
    )


def test_job_checkpoint_pair_drift_is_caught():
    """Job serializes itself: a key its ``checkpoint_state`` writes but its
    ``from_state`` never reads fails CKPT002, and a new field missing from
    the pair fails CKPT001."""
    job_py = REPO_ROOT / "src" / "repro" / "cloud" / "job.py"
    source = job_py.read_text(encoding="utf-8")
    assert lint_source(source, "src/repro/cloud/job.py").findings == []

    read_back = (
        '            last_migrated_time=optional_float(state["last_migrated_time"]),\n'
    )
    assert read_back in source
    report = lint_source(source.replace(read_back, ""), "src/repro/cloud/job.py")
    assert [(f.rule, "last_migrated_time" in f.message) for f in report.findings] == [
        ("CKPT002", True)
    ]

    last_field = "    last_migrated_time: Optional[float] = None\n"
    assert last_field in source
    injected = source.replace(last_field, last_field + "    scratch: int = 0\n")
    report = lint_source(injected, "src/repro/cloud/job.py")
    assert any(
        f.rule == "CKPT001" and "scratch" in f.message for f in report.findings
    )
