"""REP008 — worker-boundary purity for ``run_sharded`` work functions.

:func:`repro.parallel.run_sharded` ships its ``work_fn`` (and every
work item) to a ``ProcessPoolExecutor`` worker by **pickling**.  Python
pickles functions *by qualified name*: only a module-level callable
importable under the same dotted path on the worker side survives the
trip.  A lambda, a closure, a bound method, or the result of a call
expression fails at submit time — and because the pool interprets such
failures as lost workers, the failure mode is a confusing restart storm
rather than a clean error.

The facts layer (:mod:`repro.analysis.project`) records every
``run_sharded`` call with the shape of its ``work_fn`` argument,
resolving local variables through enclosing-function assignments
(``work_fn = a if flag else b`` yields both arms).  This checker then
proves each candidate against the whole-program index:

- a name must resolve — through module-level assignments and import
  re-export chains (``from repro.serve.profile import profile_items``,
  the ``repro.parallel`` facade) — to a **top-level def** such as
  ``solve_items`` / ``evaluate_items``,
- nested defs, module-level lambda assignments, and missing symbols are
  violations; chains that leave the linted tree are trusted,
- any lambda or ``open()`` handle flowing through the remaining
  boundary-crossing arguments is a violation (``executor_factory`` is
  parent-side and exempt).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.analysis.engine import Finding

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.analysis.project import ProjectIndex

RULE_ID = "REP008"


class WorkerBoundaryChecker:
    """Prove every ``run_sharded`` work function is picklable."""

    rule_id = RULE_ID
    title = "run_sharded work functions are module-level callables"

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        for module, facts in sorted(index.modules.items()):
            path = str(facts["path"])
            for call in facts.get("boundary_calls", []):
                yield from self._check_call(index, module, path, call)

    def _check_call(
        self,
        index: "ProjectIndex",
        module: str,
        path: str,
        call: dict[str, Any],
    ) -> Iterator[Finding]:
        line = int(call["line"])
        for bad_line, reason in call.get("bad", []):
            yield Finding(
                rule=self.rule_id, path=path, line=int(bad_line),
                message=f"run_sharded work function: {reason}",
            )
        for name in call.get("local", []):
            verdict, detail = index.resolve_def(module, str(name))
            if verdict is False:
                yield Finding(
                    rule=self.rule_id, path=path, line=line,
                    message=(
                        f"run_sharded work function {name!r} is not a "
                        f"picklable module-level callable: {detail}"
                    ),
                )
        for qualified in call.get("qualified", []):
            split = index.split_qualified(str(qualified))
            if split is None:
                continue  # outside the linted tree: trust it
            target_module, attr = split
            verdict, detail = index.resolve_def(target_module, attr)
            if verdict is False:
                yield Finding(
                    rule=self.rule_id, path=path, line=line,
                    message=(
                        f"run_sharded work function {qualified!r} is not "
                        f"a picklable module-level callable: {detail}"
                    ),
                )
        for bad_line, reason in call.get("args_bad", []):
            yield Finding(
                rule=self.rule_id, path=path, line=int(bad_line),
                message=f"run_sharded argument: {reason}",
            )
