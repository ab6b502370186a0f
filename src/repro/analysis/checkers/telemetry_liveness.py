"""REP007 — telemetry liveness: every registered name must be emitted.

REP005 guards one direction of the telemetry contract: every *emission*
must use a registered name.  This rule guards the other: every
*registered* name must have at least one emission somewhere in the
linted tree.  A dead registry entry is not harmless — dashboards and
golden telemetry reports are generated from the registry, so an
orphaned name renders as a permanently-zero series that masks real
regressions ("the counter exists, it just never fired").

Checked cross-module, over the whole-program index:

- every name in ``KNOWN_SPANS`` / ``KNOWN_COUNTERS`` must be emitted
  by some module (literal or conditional-of-literals call sites, as
  REP005 recognizes them),
- every prefix family in ``KNOWN_COUNTER_PREFIXES`` must have at least
  one live emission: a literal counter under the prefix or an f-string
  whose literal head starts with it.  (Emissions under *unregistered*
  prefixes are already REP005 findings at the call site.)

The registry is parsed from the **linted tree's** ``repro.telemetry``
module — not from the installed package — so fixture trees are judged
against their own registry and findings anchor at the registry lines.
When the linted paths do not include ``repro.telemetry``, the rule is
silent (a partial lint cannot prove an emission is missing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.analysis.engine import Finding

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.analysis.project import ProjectIndex

RULE_ID = "REP007"

REGISTRY_MODULE = "repro.telemetry"

_KIND_LABEL = {
    "spans": "KNOWN_SPANS",
    "counters": "KNOWN_COUNTERS",
}


class TelemetryLivenessChecker:
    """Flag registered telemetry names that no module ever emits."""

    rule_id = RULE_ID
    title = "every registered telemetry name is emitted somewhere"

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        registry_facts = index.modules.get(REGISTRY_MODULE)
        if registry_facts is None or registry_facts.get("registry") is None:
            return
        registry: dict[str, dict[str, int]] = registry_facts["registry"]
        registry_path = str(registry_facts["path"])

        emitted: dict[str, set[str]] = {"spans": set(), "counters": set()}
        heads: set[str] = set()
        for module, facts in sorted(index.modules.items()):
            if module == REGISTRY_MODULE:
                continue
            emits: dict[str, Any] = facts.get("emits", {})
            for kind in emitted:
                emitted[kind].update(emits.get(kind, {}))
            heads.update(emits.get("counter_heads", {}))

        prefixes = registry.get("prefixes", {})
        for kind, label in _KIND_LABEL.items():
            for name in sorted(registry.get(kind, {})):
                if name in emitted[kind]:
                    continue
                if kind == "counters" and any(
                    name.startswith(prefix) for prefix in prefixes
                ):
                    # Family members are kept live by their family.
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=registry_path,
                    line=registry[kind][name],
                    message=(
                        f"telemetry name {name!r} is registered in {label} "
                        "but no module ever emits it; wire up the emission "
                        "or delete the registry entry (dead names render "
                        "as permanently-zero dashboard series)"
                    ),
                )
        for prefix in sorted(prefixes):
            live = any(
                name.startswith(prefix) for name in emitted["counters"]
            ) or any(head.startswith(prefix) for head in heads)
            if not live:
                yield Finding(
                    rule=self.rule_id,
                    path=registry_path,
                    line=prefixes[prefix],
                    message=(
                        f"counter prefix family {prefix!r} is registered in "
                        "KNOWN_COUNTER_PREFIXES but no module emits any "
                        "counter under it; wire up an emission or delete "
                        "the family"
                    ),
                )
