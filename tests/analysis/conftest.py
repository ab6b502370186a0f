"""Shared fixtures for the invariant-linter tests.

``lint_snippet`` materializes a code snippet at a chosen *virtual*
module path (``repro/serve/mod.py``) inside a tmp dir, so the
package-scoped checkers see the module name they key on, and lints it
with the given checkers' rules selected.
"""

from pathlib import Path

import pytest

from repro.analysis import run_project_lint


@pytest.fixture
def lint_snippet(tmp_path):
    def _lint(relpath: str, code: str, *checkers):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(code)
        report = run_project_lint(
            [target], rules=[c.rule_id for c in checkers], root=tmp_path
        )
        return report.findings

    return _lint


@pytest.fixture
def project_report(tmp_path):
    """Write a virtual repo tree, run the whole-program lint over it.

    Returns the full :class:`LintReport`; tests usually pass a rule
    subset so only the project checker under test fires.
    """

    def _run(files: dict[str, str], rules=None):
        for relpath, code in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(code)
        return run_project_lint([tmp_path], rules=rules, root=tmp_path)

    return _run


@pytest.fixture
def repo_src() -> Path:
    """The real src/repro tree (repo layout assumed by CI and tests)."""
    return Path(__file__).resolve().parents[2] / "src" / "repro"
