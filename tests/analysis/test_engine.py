"""Engine mechanics: file discovery, module naming and rendering."""

import ast
import json

import pytest

from repro.analysis import (
    Finding,
    LintReport,
    format_findings,
    run_project_lint,
)
from repro.analysis.engine import (
    SourceFile,
    iter_python_files,
    load_source,
    module_name_for,
)
from repro.errors import ConfigurationError


def make_finding(rule="REP001", path="src/repro/x.py", line=3, msg="m"):
    return Finding(rule=rule, path=path, line=line, message=msg)


class TestModuleNaming:
    def test_src_layout(self, tmp_path):
        path = tmp_path / "src" / "repro" / "serve" / "service.py"
        assert module_name_for(path) == "repro.serve.service"

    def test_init_maps_to_package(self, tmp_path):
        path = tmp_path / "src" / "repro" / "serve" / "__init__.py"
        assert module_name_for(path) == "repro.serve"
        root = tmp_path / "src" / "repro" / "__init__.py"
        assert module_name_for(root) == "repro"

    def test_outside_repro_is_none(self, tmp_path):
        assert module_name_for(tmp_path / "tests" / "test_x.py") is None


class TestDiscovery:
    def test_walk_dedup_and_pycache_exclusion(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        cache = sub / "__pycache__"
        cache.mkdir()
        (cache / "b.cpython-311.py").write_text("nope\n")
        files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        names = [f.name for f in files]
        assert names == ["a.py", "b.py"]

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            list(iter_python_files([tmp_path / "nope"]))

    def test_syntax_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(ConfigurationError, match="cannot lint"):
            load_source(bad)

    def test_findings_sorted_by_path_line_rule(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "sparse").mkdir()
        f = tmp_path / "repro" / "sparse" / "m.py"
        f.write_text(
            "import time\nimport os\n"
            "b = os.urandom(4)\na = time.time()\n"
        )
        report = run_project_lint([f], rules=["REP001"], root=tmp_path)
        assert [x.line for x in report.findings] == [3, 4]
        assert report.files_checked == 1


class TestRendering:
    def make_report(self):
        return LintReport(
            findings=[make_finding(msg="bad % and\nnewline")],
            files_checked=7,
        )

    def test_text(self):
        text = format_findings(self.make_report(), "text")
        assert "src/repro/x.py:3: REP001" in text
        assert "1 finding(s) in 7 file(s)" in text

    def test_json_schema(self):
        doc = json.loads(format_findings(self.make_report(), "json"))
        assert doc["schema_version"] == 2
        assert set(doc) == {"schema_version", "files_checked", "findings"}
        assert doc["files_checked"] == 7
        assert doc["findings"][0]["rule"] == "REP001"

    def test_github_annotations_escape_workflow_data(self):
        out = format_findings(self.make_report(), "github")
        line = out.splitlines()[0]
        assert line.startswith(
            "::error file=src/repro/x.py,line=3,title=REP001::"
        )
        assert "%25" in line and "%0A" in line and "\n" not in line

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown lint format"):
            format_findings(self.make_report(), "xml")


class TestSourceFileHelpers:
    def test_finding_accepts_node_or_line(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("x = 1\n")
        source = load_source(f, root=tmp_path)
        assert isinstance(source, SourceFile)
        node = source.tree.body[0]
        assert isinstance(node, ast.Assign)
        assert source.finding("REP001", node, "m").line == 1
        assert source.finding("REP001", 42, "m").line == 42
        assert source.display_path == "m.py"
