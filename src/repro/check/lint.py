"""Repo-invariant AST linter: the disciplines this codebase cannot lose.

Generic style is pyflakes' job; these rules encode invariants specific
to a deterministic TSN scheduler that generic tools cannot know:

``wall-clock``
    Deterministic layers (``repro/sim``, ``repro/smt``, ``repro/core``)
    must never read the wall clock (``time.time``, ``time.monotonic``,
    ``time.perf_counter``, ``datetime.now``, ...).  Simulated time is
    integer nanoseconds advanced by the engine; a single stray
    wall-clock read silently corrupts reproducibility.

``float-arith``
    Schedule/GCL arithmetic modules carry offsets, durations and cycle
    times as integer nanoseconds.  Float literals and true division
    (``/``) are banned there — drift of half a nanosecond is a gate
    misfire on real hardware.  Use ``//`` and integer constants.

``lock-discipline``
    In any class that owns a lock — ``self._lock`` by name, or any
    attribute assigned from ``threading.Lock``/``threading.RLock``/
    ``repro.check.locks.OrderedLock`` (``self._write_lock``, ...) —
    private state (``self._x``) may only be mutated while one of the
    class's locks is held: inside ``with self.<lock>:`` or between a
    statement-level ``self.<lock>.acquire()`` and the matching
    ``release()`` (``__init__`` excepted).  Covers the
    metrics/instrument tables and every other shared-state holder.

``bare-except``
    ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``; name the
    exceptions (or ``Exception`` with a reason).

``tuple-annotation``
    A return annotation written ``-> (A, B)`` is a runtime-evaluated
    tuple expression, not a type; use ``Tuple[A, B]``.

Suppress a finding by appending ``# repro: lint-ok[rule]`` (or a bare
``# repro: lint-ok`` for any rule) to the flagged line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

RULE_WALL_CLOCK = "wall-clock"
RULE_FLOAT = "float-arith"
RULE_LOCK = "lock-discipline"
RULE_BARE_EXCEPT = "bare-except"
RULE_TUPLE_ANNOTATION = "tuple-annotation"
RULE_PARSE = "parse-error"

ALL_RULES: Tuple[str, ...] = (
    RULE_WALL_CLOCK,
    RULE_FLOAT,
    RULE_LOCK,
    RULE_BARE_EXCEPT,
    RULE_TUPLE_ANNOTATION,
)

#: Directories (path fragments) where wall-clock reads are banned.
WALL_CLOCK_SCOPE: Tuple[str, ...] = (
    "repro/sim/",
    "repro/smt/",
    "repro/core/",
)

#: Dotted call chains that read the wall clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
})

#: ``from time import <these>`` defeats the dotted-name detection, so
#: the import itself is flagged inside the wall-clock scope.
WALL_CLOCK_IMPORTS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: Modules (path suffixes) under the integer-nanosecond discipline.
INTEGER_NS_MODULES: Tuple[str, ...] = (
    "repro/core/gcl.py",
    "repro/core/gcl_audit.py",
    "repro/core/schedule.py",
    "repro/core/constraints.py",
    "repro/core/incremental.py",
    "repro/core/reservation.py",
    "repro/core/smt_scheduler.py",
    "repro/smt/terms.py",
    "repro/smt/theory.py",
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "remove", "clear", "update", "setdefault", "add", "discard", "sort",
    "reverse",
})

@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[str]] = None,
) -> List[LintFinding]:
    """Lint one module's source; ``path`` scopes the path-gated rules."""
    if rules is not None:
        unknown = sorted(set(rules) - set(ALL_RULES))
        if unknown:
            raise ValueError(
                f"unknown lint rule(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(ALL_RULES)}"
            )
    active = tuple(rules) if rules is not None else ALL_RULES
    norm = Path(path).as_posix()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [LintFinding(
            path=path, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            rule=RULE_PARSE, message=f"cannot parse: {exc.msg}",
        )]
    findings: List[LintFinding] = []
    if RULE_WALL_CLOCK in active and _in_scope(norm, WALL_CLOCK_SCOPE):
        findings.extend(_check_wall_clock(tree, path))
    if RULE_FLOAT in active and _in_scope(norm, INTEGER_NS_MODULES):
        findings.extend(_check_float_arith(tree, path))
    if RULE_LOCK in active:
        findings.extend(_check_lock_discipline(tree, path))
    if RULE_BARE_EXCEPT in active:
        findings.extend(_check_bare_except(tree, path))
    if RULE_TUPLE_ANNOTATION in active:
        findings.extend(_check_tuple_annotation(tree, path))
    lines = source.splitlines()
    findings = [
        f for f in findings
        if not (f.line <= len(lines)
                and suppressed(lines[f.line - 1], "lint-ok", f.rule))
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[str]] = None,
) -> List[LintFinding]:
    """Lint files and directory trees (``*.py``, recursively)."""
    findings: List[LintFinding] = []
    for target in python_files(paths):
        findings.extend(
            lint_source(target.read_text(), str(target), rules=rules)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def python_files(paths: Iterable[str]) -> List[Path]:
    """Files and directory trees (``*.py``, recursively), sorted per tree."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ValueError(f"not a python file or directory: {raw}")
    return files


def _in_scope(norm_path: str, fragments: Sequence[str]) -> bool:
    return any(fragment in norm_path for fragment in fragments)


def suppressed(line: str, tag: str, rule: str) -> bool:
    """Whether ``line`` carries ``# repro: <tag>`` (any rule) or
    ``# repro: <tag>[rule, ...]`` naming ``rule``."""
    match = re.search(rf"repro:\s*{tag}(?:\[([a-z\-, ]+)\])?", line)
    if match is None:
        return False
    listed = match.group(1)
    return listed is None or rule in {
        name.strip() for name in listed.split(",")
    }


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------- rules
def _check_wall_clock(tree: ast.Module, path: str) -> List[LintFinding]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted(node)
            if name is not None and name in WALL_CLOCK_CALLS:
                findings.append(LintFinding(
                    path, node.lineno, node.col_offset, RULE_WALL_CLOCK,
                    f"wall-clock read {name} in deterministic code; "
                    f"use the simulated/injected clock",
                ))
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_IMPORTS:
                    findings.append(LintFinding(
                        path, node.lineno, node.col_offset, RULE_WALL_CLOCK,
                        f"importing time.{alias.name} into deterministic "
                        f"code; use the simulated/injected clock",
                    ))
    return findings


def _check_float_arith(tree: ast.Module, path: str) -> List[LintFinding]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            findings.append(LintFinding(
                path, node.lineno, node.col_offset, RULE_FLOAT,
                f"float literal {node.value!r} in an integer-nanosecond "
                f"module; keep schedule arithmetic integral",
            ))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            findings.append(LintFinding(
                path, node.lineno, node.col_offset, RULE_FLOAT,
                "true division in an integer-nanosecond module; use //",
            ))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            findings.append(LintFinding(
                path, node.lineno, node.col_offset, RULE_FLOAT,
                "true division in an integer-nanosecond module; use //=",
            ))
    return findings


def _check_bare_except(tree: ast.Module, path: str) -> List[LintFinding]:
    return [
        LintFinding(
            path, node.lineno, node.col_offset, RULE_BARE_EXCEPT,
            "bare except swallows KeyboardInterrupt/SystemExit; "
            "name the exceptions",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


def _check_tuple_annotation(tree: ast.Module, path: str) -> List[LintFinding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node.returns, ast.Tuple):
            findings.append(LintFinding(
                path, node.returns.lineno, node.returns.col_offset,
                RULE_TUPLE_ANNOTATION,
                f"return annotation of {node.name}() is a tuple "
                f"expression; write Tuple[...] instead",
            ))
        for arg in _all_args(node.args):
            if isinstance(arg.annotation, ast.Tuple):
                findings.append(LintFinding(
                    path, arg.annotation.lineno, arg.annotation.col_offset,
                    RULE_TUPLE_ANNOTATION,
                    f"annotation of parameter {arg.arg!r} is a tuple "
                    f"expression; write Tuple[...] instead",
                ))
    return findings


def _all_args(args: ast.arguments) -> List[ast.arg]:
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        every.append(args.vararg)
    if args.kwarg is not None:
        every.append(args.kwarg)
    return every


# ------------------------------------------------------- lock discipline
#: Callables whose result is a lock: assigning one to ``self.<attr>``
#: makes that attribute a recognized guard (``threading.RLock`` and the
#: ranked ``OrderedLock`` included, so renamed locks still count).
_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "Lock", "RLock",
    "OrderedLock", "locks.OrderedLock", "repro.check.locks.OrderedLock",
})


def _check_lock_discipline(tree: ast.Module, path: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        lock_attrs = _owned_locks(node)
        if not lock_attrs:
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            _walk_locked_body(item.body, False, lock_attrs, path, findings)
    return findings


def _owned_locks(cls: ast.ClassDef) -> frozenset:
    """Lock-guard attribute names of ``cls``.

    ``self._lock = <anything>`` counts by name (the historical
    contract); any other ``self.<attr>`` counts when assigned from a
    known lock factory (``threading.Lock()``, ``threading.RLock()``,
    ``OrderedLock(...)``), with or without an annotation.
    """
    attrs = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets: List[ast.AST] = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = getattr(node, "value", None)
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if target.attr == "_lock" or _is_lock_value(value):
                attrs.add(target.attr)
    return frozenset(attrs)


def _is_lock_value(value: Optional[ast.AST]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = dotted(value.func)
    return name is not None and name in _LOCK_FACTORIES


def _guard_names(lock_attrs: frozenset) -> frozenset:
    return frozenset(f"self.{attr}" for attr in lock_attrs)


def _lock_call(stmt: ast.stmt, lock_attrs: frozenset) -> Optional[str]:
    """``"acquire"``/``"release"`` for ``self.<lock>.acquire()`` statements."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return None
    func = stmt.value.func
    if not (
        isinstance(func, ast.Attribute) and func.attr in ("acquire", "release")
    ):
        return None
    if dotted(func.value) in _guard_names(lock_attrs):
        return func.attr
    return None


def _walk_locked_body(
    stmts: Sequence[ast.stmt],
    locked: bool,
    lock_attrs: frozenset,
    path: str,
    findings: List[LintFinding],
) -> None:
    """Walk one statement list, tracking acquire()/release() regions."""
    held = locked
    for stmt in stmts:
        call = _lock_call(stmt, lock_attrs)
        if call is not None:
            held = call == "acquire" or locked
            continue
        _walk_locked(stmt, held, lock_attrs, path, findings)


def _walk_locked(
    node: ast.AST,
    locked: bool,
    lock_attrs: frozenset,
    path: str,
    findings: List[LintFinding],
) -> None:
    if isinstance(node, (ast.With, ast.AsyncWith)):
        guards = _guard_names(lock_attrs)
        grabs = locked or any(
            dotted(item.context_expr) in guards for item in node.items
        )
        for item in node.items:
            _flag_mutation(item.context_expr, locked, path, findings)
        _walk_locked_body(node.body, grabs, lock_attrs, path, findings)
        return
    if isinstance(node, (ast.If, ast.While)):
        _flag_mutation(node, locked, path, findings)
        _walk_locked_body(node.body, locked, lock_attrs, path, findings)
        _walk_locked_body(node.orelse, locked, lock_attrs, path, findings)
        return
    if isinstance(node, (ast.For, ast.AsyncFor)):
        _flag_mutation(node, locked, path, findings)
        _walk_locked_body(node.body, locked, lock_attrs, path, findings)
        _walk_locked_body(node.orelse, locked, lock_attrs, path, findings)
        return
    if isinstance(node, ast.Try):
        _walk_locked_body(node.body, locked, lock_attrs, path, findings)
        for handler in node.handlers:
            _walk_locked_body(handler.body, locked, lock_attrs, path, findings)
        _walk_locked_body(node.orelse, locked, lock_attrs, path, findings)
        _walk_locked_body(node.finalbody, locked, lock_attrs, path, findings)
        return
    _flag_mutation(node, locked, path, findings)
    for child in ast.iter_child_nodes(node):
        _walk_locked(child, locked, lock_attrs, path, findings)


def _private_self_target(node: ast.AST) -> Optional[str]:
    """The attribute name if ``node`` is ``self._x`` or ``self._x[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
        and node.attr != "_lock"
    ):
        return node.attr
    return None


def _flag_mutation(
    node: ast.AST, locked: bool, path: str, findings: List[LintFinding]
) -> None:
    if locked:
        return
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in _MUTATORS
    ):
        targets = [node.value.func.value]
    flat: List[ast.AST] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    for target in flat:
        attr = _private_self_target(target)
        if attr is not None:
            findings.append(LintFinding(
                path, node.lineno, node.col_offset, RULE_LOCK,
                f"mutation of self.{attr} outside 'with self._lock' in a "
                f"lock-owning class",
            ))
            return
