"""``detlint``: an AST-based determinism & checkpoint-coverage linter.

Every reproducibility guarantee this repo ships -- golden A/B bit-identity
across schedulers, SLO-under-chaos reproducibility, resume-at-any-snapshot
equality -- rests on hand-maintained invariants: seeded RNG streams with
pinned call sequences, no wall-clock reads in simulation code, order-stable
iteration and float accumulation, and snapshot/restore methods covering
*every* piece of mutable run state.  This package makes those invariants
statically checkable on every PR: a custom :mod:`ast` pass over the repo's
own source, with a rule engine, inline waivers, and a committed baseline.

Rule catalog (see ``docs/architecture.md``, "Determinism lint"):

========  ============================================================
DET001    unseeded or process-global RNG use
DET002    wall-clock / entropy nondeterminism sources
DET003    order-sensitive accumulation over unordered collections
DET004    module-level mutable state (``global`` rebinding, counters)
CKPT001   checkpoint-coverage drift (``self.`` attribute not captured)
CKPT002   snapshot/restore key asymmetry
WVR001    waiver without a written reason
WVR002    waiver naming an unknown rule
========  ============================================================

Usage::

    python -m repro.lint src/repro                # text report, exit != 0 on findings
    python -m repro.lint src/repro --format json  # machine-readable report
    python scripts/detlint.py                     # repo-root wrapper (sets sys.path)

Inline waivers take the form ``# detlint: ignore[RULE] reason`` on the
flagged line or the line directly above it; the reason is mandatory.
Grandfathered findings can be committed to a baseline file
(``--write-baseline``) and stop failing the build without a waiver.
"""

from .findings import Finding, LintReport
from .registry import RULES, Rule
from .waivers import Waiver, parse_waivers
from .baseline import Baseline, diff_against_baseline, load_baseline, save_baseline
from .engine import LintConfig, lint_paths, lint_source
from .cli import main

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "Waiver",
    "diff_against_baseline",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "main",
    "parse_waivers",
    "save_baseline",
]
