"""DET001-DET004: the determinism rules.

All four rules work on resolved *dotted names*: imports are tracked per
file (``import numpy as np`` makes ``np.random.seed`` resolve to
``numpy.random.seed``; ``from time import perf_counter`` makes a bare
``perf_counter()`` resolve to ``time.perf_counter``), so aliasing cannot
hide a banned call.  Only call sites are flagged -- passing ``time.time``
around as a value is visible at the call that finally invokes it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from .findings import Finding

# ----------------------------------------------------------------------
# DET001: unseeded / process-global RNG
# ----------------------------------------------------------------------
#: stdlib ``random`` module-level functions sharing the hidden global Random.
_PY_GLOBAL_RANDOM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` module-level functions sharing the legacy global state.
_NP_GLOBAL_RANDOM = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "poisson", "power", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "rayleigh",
        "sample", "seed", "set_state", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }
)

#: Constructors that are fine seeded but entropy-seeded without arguments.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.RandomState", "numpy.random.default_rng"}
)

# ----------------------------------------------------------------------
# DET002: wall clock / entropy
# ----------------------------------------------------------------------
_NONDETERMINISM_SOURCES = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getrandom", "random.SystemRandom",
        "uuid.uuid1", "uuid.uuid4",
        "secrets.choice", "secrets.randbelow", "secrets.randbits",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    }
)

# ----------------------------------------------------------------------
# DET003: order-sensitive accumulation
# ----------------------------------------------------------------------
#: Builtins whose result (or result *order*) reflects iteration order.
_SET_SINKS = frozenset({"sum", "min", "max", "list", "tuple", "sorted"})
#: Over dict views only accumulation is flagged: the views iterate in
#: insertion order (deterministic in-process) but a float sum silently
#: changes bits whenever a refactor reorders insertions, which is exactly
#: the hazard class the CSR Louvain rewrite and the PR-7 ulp fix guarded
#: against.  Order-insensitive sinks (min/max) and order-preserving ones
#: (list/tuple/sorted) are safe over an insertion-ordered view.
_DICT_VIEW_SINKS = frozenset({"sum"})
_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})

# ----------------------------------------------------------------------
# DET004: module-level mutable state
# ----------------------------------------------------------------------
#: Counters that, created outside any function, every run advances together.
_GLOBAL_COUNTERS = frozenset({"itertools.count"})
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_DET004_HINT = (
    " is state every run in the process shares, so a seeded run depends on "
    "what ran before it; keep it on the object that owns the run"
)


def _build_alias_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted module paths."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative import: repo-internal, nothing to ban
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.default_rng`` to ``numpy.random.default_rng``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    parts.reverse()
    return ".".join(parts)


def _is_unseeded(call: ast.Call) -> bool:
    """True when a seedable constructor call carries no usable seed."""
    seedlike = list(call.args)
    seedlike += [kw.value for kw in call.keywords if kw.arg in ("seed", "x", None)]
    if not seedlike:
        return True
    return all(
        isinstance(arg, ast.Constant) and arg.value is None for arg in seedlike
    )


def _snippet(source_lines: List[str], lineno: int) -> str:
    if 1 <= lineno <= len(source_lines):
        return source_lines[lineno - 1].strip()
    return ""


def _unordered_desc(node: ast.expr) -> Optional[str]:
    """Describe why ``node`` iterates in hash (set) order, or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"a {func.id}()"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _unordered_desc(node.left) or _unordered_desc(node.right)
    return None


def _dict_view_desc(node: ast.expr) -> Optional[str]:
    """Describe a ``.keys()/.values()/.items()`` view call, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
        and not node.args
        and not node.keywords
    ):
        return f"a .{node.func.attr}() view"
    return None


def _iterable_of(call_arg: ast.expr) -> ast.expr:
    """The expression actually iterated: unwrap a comprehension argument.

    Generator and list comprehensions preserve the order of their source
    iterable, so the source is what matters; a set comprehension is itself
    a set and must NOT be unwrapped.
    """
    if isinstance(call_arg, (ast.GeneratorExp, ast.ListComp)):
        return call_arg.generators[0].iter
    return call_arg


def check_det(
    tree: ast.Module, source_lines: List[str], path: str
) -> List[Finding]:
    """Run DET001-DET004 over one parsed module."""
    aliases = _build_alias_map(tree)
    findings: List[Finding] = []

    def add(rule: str, node: ast.AST, message: str) -> None:
        findings.append(
            Finding(
                rule=rule,
                path=path,
                line=node.lineno,
                col=node.col_offset + 1,
                message=message,
                snippet=_snippet(source_lines, node.lineno),
            )
        )

    functions = [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]
    in_functions = {id(inner) for node in functions for inner in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            _check_call(node, aliases, add, id(node) not in in_functions)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            _check_loop_accumulation(node, add)
        elif isinstance(node, ast.Global):
            add("DET004", node, f"global {', '.join(node.names)}" + _DET004_HINT)
    return findings


def _check_call(call: ast.Call, aliases: Dict[str, str], add, module_level) -> None:
    name = _dotted_name(call.func, aliases)
    if name is not None:
        # DET004 -- a counter created once per process.
        if name in _GLOBAL_COUNTERS and module_level:
            add("DET004", call, f"module-level {name}()" + _DET004_HINT)
            return
        # DET001 -- global/unseeded RNG.
        if name in _SEEDABLE_CONSTRUCTORS:
            if _is_unseeded(call):
                add(
                    "DET001",
                    call,
                    f"{name}() without a seed draws from OS entropy; pass an "
                    "explicit seed (or a seeded Generator) so runs are "
                    "reproducible",
                )
            return
        module, _, attr = name.rpartition(".")
        if module == "random" and attr in _PY_GLOBAL_RANDOM:
            add(
                "DET001",
                call,
                f"random.{attr}() uses the process-global RNG; use a seeded "
                "random.Random/np.random.default_rng instance instead",
            )
            return
        if module == "numpy.random" and attr in _NP_GLOBAL_RANDOM:
            add(
                "DET001",
                call,
                f"np.random.{attr}() uses numpy's legacy global state; use a "
                "seeded np.random.default_rng(seed) generator instead",
            )
            return
        # DET002 -- wall clock / entropy.
        if name in _NONDETERMINISM_SOURCES:
            add(
                "DET002",
                call,
                f"{name}() reads host state (wall clock / entropy); "
                "simulation code must derive times and randomness from "
                "seeded inputs (allowed only in benchmarks/ and scripts/)",
            )
            return

    # DET003 -- accumulation sinks.
    func = call.func
    if isinstance(func, ast.Name) and func.id in _SET_SINKS and call.args:
        if func.id == "sorted" and any(kw.arg == "key" for kw in call.keywords):
            return
        iterable = _iterable_of(call.args[0])
        desc = _unordered_desc(iterable)
        if desc is not None:
            add(
                "DET003",
                call,
                f"{func.id}() over {desc} iterates in hash order; iterate a "
                "canonically ordered collection (e.g. sorted(...)) instead",
            )
            return
        if func.id in _DICT_VIEW_SINKS:
            desc = _dict_view_desc(iterable)
            if desc is not None:
                add(
                    "DET003",
                    call,
                    f"{func.id}() over {desc} depends on dict insertion "
                    "order; float accumulation silently changes bits when a "
                    "refactor reorders insertions -- iterate sorted keys, or "
                    "waive with a reason if the accumulation is "
                    "order-insensitive (e.g. ints)",
                )


def _check_loop_accumulation(loop: ast.For, add) -> None:
    """Flag ``x += ...`` accumulation inside a loop over an unordered iterable."""
    iterable = loop.iter
    desc = _unordered_desc(iterable) or _dict_view_desc(iterable)
    if desc is None:
        return
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            add(
                "DET003",
                node,
                f"+= accumulation inside a loop over {desc} is "
                "iteration-order sensitive; float addition is not "
                "associative, so the result depends on hash/insertion order",
            )
