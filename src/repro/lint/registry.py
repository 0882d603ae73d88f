"""The rule catalog: one :class:`Rule` per check detlint can report.

The registry is the single source of truth for rule codes: the engine
validates waivers against it, the CLI prints it for ``--rules``, and
``scripts/check_doc_links.py`` verifies that every code has a matching
heading in the ``docs/architecture.md`` rule catalog, so the docs can never
silently drift from the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Rule:
    """One lint check: a stable code, a short title, and what it guards."""

    code: str
    title: str
    rationale: str


RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            code="DET001",
            title="unseeded or process-global RNG",
            rationale=(
                "Module-level random/np.random calls and unseeded "
                "Random()/RandomState()/default_rng() draw from process-global "
                "or entropy-seeded state, so two runs of the same seed diverge."
            ),
        ),
        Rule(
            code="DET002",
            title="wall-clock or entropy nondeterminism source",
            rationale=(
                "time.time/perf_counter, datetime.now, os.urandom, uuid.uuid4 "
                "and friends inject host state into simulation results; "
                "simulation code must derive every value from seeded inputs."
            ),
        ),
        Rule(
            code="DET003",
            title="order-sensitive accumulation over an unordered collection",
            rationale=(
                "Iterating a set (hash order, PYTHONHASHSEED-dependent for "
                "strings) or a dict view into sum()/float += makes the result "
                "depend on iteration order; float addition is not associative, "
                "so reordering silently changes bits."
            ),
        ),
        Rule(
            code="DET004",
            title="module-level mutable state",
            rationale=(
                "`global` rebinding and module-level itertools.count() are shared "
                "by every run in a process: a seeded run depends on earlier ones."
            ),
        ),
        Rule(
            code="CKPT001",
            title="checkpoint-coverage drift",
            rationale=(
                "Every self.<attr> of a snapshot-bearing class must appear as "
                "a snapshot key or in its _CHECKPOINT_EXCLUDE allowlist; a new "
                "attribute that is neither produces a silent resume divergence."
            ),
        ),
        Rule(
            code="CKPT002",
            title="snapshot/restore key asymmetry",
            rationale=(
                "Keys written by snapshot_state/checkpoint_state must be "
                "consumed by restore_state/from_state and vice versa; an "
                "asymmetric key is state that is saved but never restored (or "
                "read but never saved)."
            ),
        ),
        Rule(
            code="WVR001",
            title="waiver without a written reason",
            rationale=(
                "`# detlint: ignore[RULE]` must carry a reason after the "
                "bracket; an unexplained waiver is indistinguishable from a "
                "silenced bug."
            ),
        ),
        Rule(
            code="WVR002",
            title="waiver naming an unknown rule",
            rationale=(
                "A waiver for a rule code that does not exist waives nothing "
                "and usually means a typo is hiding a real finding."
            ),
        ),
    )
}
