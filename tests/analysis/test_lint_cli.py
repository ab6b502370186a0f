"""``repro lint`` CLI contract: exit codes, formats, no side files.

Exit-code contract (matching the pinned ``repro solve`` style):
0 = clean tree, 1 = findings remain, 2 = usage error.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

CLEAN_SNIPPET = "VALUE = 1\n"

# Fires REP001 (wall clock in a determinism-scoped package).
DIRTY_SNIPPET = "import time\n\nSTAMP = time.time()\n"


@pytest.fixture
def tree(tmp_path):
    """A tiny lintable tree with one clean and one dirty repro module."""
    pkg = tmp_path / "repro" / "sparse"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(CLEAN_SNIPPET)
    (pkg / "dirty.py").write_text(DIRTY_SNIPPET)
    return tmp_path


def run(args):
    return main(["lint", *args])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert run([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert run([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "dirty.py" in out

    def test_unknown_rule_exits_two(self, tree, capsys):
        assert run([str(tree), "--rules", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert run([str(tmp_path / "ghost")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_rule_selection_can_pass_dirty_tree(self, tree):
        # Only the layering rule runs; the wall-clock call is invisible.
        assert run([str(tree), "--rules", "REP002"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--no-cache"], ["--workers", "2"], ["--cache", "lint.json"],
    ], ids=["no-cache", "workers", "cache"])
    def test_cache_and_pool_flags_exit_two(self, tree, flags):
        with pytest.raises(SystemExit) as excinfo:
            run([str(tree), *flags])
        assert excinfo.value.code == 2


class TestFormats:
    def test_json_format_parses(self, tree, capsys):
        assert run([str(tree), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 2
        assert doc["findings"][0]["rule"] == "REP001"

    def test_github_format_emits_annotations(self, tree, capsys):
        assert run([str(tree), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=REP001" in out

    def test_bad_format_rejected_by_argparse(self, tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([str(tree), "--format", "xml"])
        assert excinfo.value.code == 2

    def test_sarif_format_parses(self, tree, capsys):
        assert run([str(tree), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "REP001"

    def test_out_writes_report_file(self, tree, tmp_path, capsys):
        target = tmp_path / "lint.sarif"
        assert run([
            str(tree), "--format", "sarif", "--out", str(target)
        ]) == 1
        captured = capsys.readouterr()
        assert "wrote lint report to" in captured.err
        # The file carries exactly what stdout showed.
        assert target.read_text() == captured.out


class TestWorkingDirectory:
    def test_lint_writes_nothing_but_out(
        self, tree, tmp_path_factory, monkeypatch
    ):
        cwd = tmp_path_factory.mktemp("lint-cwd")
        monkeypatch.chdir(cwd)
        assert run([str(tree), "--out", "report.txt"]) == 1
        assert [p.name for p in cwd.iterdir()] == ["report.txt"]


class TestRealTree:
    def test_repo_is_clean_under_committed_baseline(self, capsys):
        """The headline guarantee: ``repro lint`` passes on the repo."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert run([str(src)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
