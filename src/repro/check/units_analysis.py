"""Time-unit dimensional analysis over identifier suffixes.

The repo's convention (enforced informally since PR 1, formally here)
is that every duration-carrying identifier names its unit as the last
underscore-separated token: ``deadline_ns``, ``horizon_us``,
``objective_ms``, ``timeout_s``, ``drift_ppb``, ``rate_hz``,
``bandwidth_bps``.  This pass treats those suffixes as dimension
annotations and propagates them through assignments, arithmetic, and
call boundaries:

``unit-mismatch``
    Two different known units meet in ``+``/``-``/``%``, a comparison,
    ``min``/``max``, or an assignment whose target names a different
    unit than its value (``deadline_ns = horizon_us + 5``).

``unit-call``
    A value with a known unit flows into a parameter (keyword name,
    resolved positional parameter, or a ``repro.model.units``
    converter) that names a *different* unit —
    ``microseconds(budget_ns)`` or ``submit(period_ns=gap_us)``.

``unit-return``
    A function whose name carries a unit suffix returns an expression
    with a different known unit.

``unit-literal`` (pedantic, off by default)
    A bare numeric literal passed to a unit-suffixed parameter.
    Literals are otherwise polymorphic — ``period_ns + 100`` is fine —
    so this rule exists for audits, not for CI.

Calls resolve by name, per run, over the analysed files only: each
file is parsed once, and its import and top-level ``def``/``class``
table resolves plain calls (``gate_open_ns(...)``, ``Class(...)`` to
its own ``__init__``) and module-dotted calls (``units.microseconds``,
``mod.Class.method``) — which is how the ``repro.model.units``
converters are found, analysed or not.  Any other ``x.m(...)`` binds
its positional arguments to the parameters of every method named
``m`` in the analysed files, after a leading ``self``/``cls``; when
two such methods disagree on those parameters' units the name is
ambiguous and only keyword arguments are checked.  Every ``def`` is
analysed, nested ones included.

The conversion constants ``NS_PER_US``/``NS_PER_MS``/``NS_PER_S`` are
understood structurally: multiplying a ``us`` value by ``NS_PER_US``
yields ``ns``, floor-dividing an ``ns`` value by ``NS_PER_MS`` yields
``ms``, and in additive/comparison position the constant itself is an
``ns`` quantity (``if value_ns >= NS_PER_S``).  A *scale* of 1e3, 1e6
or 1e9 — a literal (``1_000``, ``1e6``) or a module-level name bound to
one (``MS = 1_000_000``) — converts too: multiplying by it moves a
value one, two or three steps along ``s``/``ms``/``us``/``ns`` towards
``ns`` (``period_ms * 1_000_000`` is ``ns``, ``period_ms * 1_000`` is
``us``), dividing moves it as far towards ``s`` (``elapsed_ns / 1e9``
is ``s``); any other factor keeps the unit (``gap_us * 2`` is ``us``).
Unknown units are compatible with everything — the analysis only
speaks when both sides are known, so it can run ``--strict`` without
guessing.

Suppress a finding by appending ``# repro: units-ok[rule]`` (or a bare
``# repro: units-ok`` for any rule) to the flagged line.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.lint import dotted, python_files, suppressed

RULE_UNIT_MISMATCH = "unit-mismatch"
RULE_UNIT_CALL = "unit-call"
RULE_UNIT_RETURN = "unit-return"
RULE_UNIT_LITERAL = "unit-literal"

UNITS_RULES: Tuple[str, ...] = (
    RULE_UNIT_MISMATCH, RULE_UNIT_CALL, RULE_UNIT_RETURN, RULE_UNIT_LITERAL,
)
#: ``unit-literal`` is pedantic (benign config literals are idiomatic),
#: so the default — and the CI gate — runs without it.
DEFAULT_RULES: Tuple[str, ...] = (
    RULE_UNIT_MISMATCH, RULE_UNIT_CALL, RULE_UNIT_RETURN,
)

#: Recognized unit suffixes.  A name carries a unit only when the
#: suffix is a distinct trailing token (``deadline_ns`` yes, ``ns`` or
#: ``attempts`` no).
UNIT_SUFFIXES = frozenset({"ns", "us", "ms", "s", "ppb", "hz", "bps"})

#: literal sentinel — polymorphic, adopts any unit it meets.
LITERAL = "<literal>"

#: ``NS_PER_X`` conversion constants: name -> the unit X they scale.
_NS_FACTORS = {
    "NS_PER_US": "us",
    "NS_PER_MS": "ms",
    "NS_PER_S": "s",
}

#: The units a scale of 1e3 steps between, finest first.
_LADDER = ("ns", "us", "ms", "s")
#: Scale factor -> steps along ``_LADDER`` (1e3 per step).
_SCALES = {10 ** 3: 1, 10 ** 6: 2, 10 ** 9: 3}

#: Link-speed constants from ``repro.model.units``.
_BPS_CONSTANTS = frozenset({"MBPS_10", "MBPS_100", "GBPS_1"})

#: ``repro.model.units`` converters: qualname suffix ->
#: (argument unit, return unit).
_CONVERTERS = {
    "repro.model.units.nanoseconds": ("ns", "ns"),
    "repro.model.units.microseconds": ("us", "ns"),
    "repro.model.units.milliseconds": ("ms", "ns"),
    "repro.model.units.seconds": ("s", "ns"),
    "repro.model.units.ns_to_us": ("ns", "us"),
    "repro.model.units.ns_to_ms": ("ns", "ms"),
    "repro.model.units.format_ns": ("ns", None),
}

#: Builtins that pass their argument's unit through unchanged.
_PASSTHROUGH_BUILTINS = frozenset({"int", "float", "round", "abs"})
#: Builtins whose arguments must agree (and whose result adopts them).
_AGREEING_BUILTINS = frozenset({"min", "max", "sum"})


class _Factor(str):
    """An ``NS_PER_X`` constant: ``ns`` additively, a scaler in ``*``/``/``."""

    __slots__ = ()


class _Product(str):
    """A unit times a factor of unknown unit (``interval_ns * drift``):
    that unit additively, but no unit once scaled by 1e3/1e6/1e9 — the
    scale may belong to the unknown factor (ppb, ppm) as much as to the
    unit."""

    __slots__ = ()


def unit_of_name(name: str) -> Optional[str]:
    if "_" not in name:
        return None
    suffix = name.rsplit("_", 1)[1]
    return suffix if suffix in UNIT_SUFFIXES else None


@dataclass(frozen=True)
class UnitFinding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class UnitsReport:
    findings: List[UnitFinding] = field(default_factory=list)
    functions_analyzed: int = 0
    rules: Tuple[str, ...] = DEFAULT_RULES

    def to_dict(self) -> Dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "functions_analyzed": self.functions_analyzed,
            "rules": list(self.rules),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def analyze_units(
    paths: Iterable[str], rules: Sequence[str] = DEFAULT_RULES
) -> UnitsReport:
    """Run the unit analysis over every function in ``paths``."""
    unknown = set(rules) - set(UNITS_RULES)
    if unknown:
        raise ValueError(f"unknown units rules: {sorted(unknown)}")
    index = _Index(paths)
    report = UnitsReport(rules=tuple(rules))
    for module in index.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checker = _FunctionChecker(index, module, node, set(rules))
                checker.run()
                report.findings.extend(checker.findings)
                report.functions_analyzed += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report


def _module_name(path: Path) -> str:
    """Dotted module name for ``path``; rooted at ``repro`` when the
    file lives in the installed tree, bare stem otherwise (fixtures)."""
    parts = list(path.with_suffix("").parts)
    parts = parts[parts.index("repro"):] if "repro" in parts else parts[-1:]
    if parts[-1] == "__init__" and len(parts) > 1:
        parts = parts[:-1]
    return ".".join(parts)


def _positional(node: ast.FunctionDef) -> List[str]:
    """The parameters a call's positional arguments bind to: every
    positional parameter after a leading ``self``/``cls``."""
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    return params[1:] if params[:1] in (["self"], ["cls"]) else params


@dataclass
class _Module:
    path: str
    tree: ast.Module
    lines: List[str]
    #: local name -> dotted target: imports, then top-level defs/classes.
    names: Dict[str, str] = field(default_factory=dict)
    #: module-level name -> the ``_LADDER`` steps of the scale bound to it.
    scales: Dict[str, int] = field(default_factory=dict)


class _Index:
    """The analysed files, each parsed once and keyed by path, and the
    tables calls resolve against."""

    def __init__(self, paths: Iterable[str]) -> None:
        self.modules: Dict[str, _Module] = {}
        #: dotted qualname -> def/class; ``None`` when two files claim it.
        self.defs: Dict[str, Optional[ast.AST]] = {}
        #: method name -> its positional parameters; ``None`` when two
        #: methods of that name disagree on their units.
        self.methods: Dict[str, Optional[List[str]]] = {}
        for path in python_files(paths):
            source = path.read_text()
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue  # the linter owns parse errors
            module = _Module(str(path), tree, source.splitlines())
            self.modules[module.path] = module
            self._scan(module, _module_name(path))

    def _scan(self, module: _Module, name: str) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    if alias.asname:
                        module.names[alias.asname] = alias.name
                    else:
                        module.names[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    module.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._method(item)
        for node in module.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                steps = _scale_steps(node.value)
                if steps and len(targets) == 1 and isinstance(
                    targets[0], ast.Name
                ):
                    module.scales[targets[0].id] = steps
                continue
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            qualname = f"{name}.{node.name}"
            module.names[node.name] = qualname
            self._define(qualname, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._define(f"{qualname}.{item.name}", item)

    def _define(self, qualname: str, node: ast.AST) -> None:
        self.defs[qualname] = None if qualname in self.defs else node

    def _method(self, node: ast.FunctionDef) -> None:
        params = _positional(node)
        if node.name not in self.methods:
            self.methods[node.name] = params
            return
        known = self.methods[node.name]
        if known is not None and (
            [unit_of_name(p) for p in known]
            != [unit_of_name(p) for p in params]
        ):
            self.methods[node.name] = None

    def resolve(
        self, module: _Module, func: ast.expr
    ) -> Tuple[Optional[str], Optional[List[str]]]:
        """A call's dotted target and the parameters its positional
        arguments bind to (``None`` when not known)."""
        name = dotted(func) or ""
        head, _, rest = name.partition(".")
        if head in module.names:
            target = module.names[head] + (f".{rest}" if rest else "")
            node = self.defs.get(target)
            if isinstance(node, ast.ClassDef):
                node = next((
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                ), None)
            return target, _positional(node) if node is not None else None
        if isinstance(func, ast.Attribute):
            return func.attr, self.methods.get(func.attr)
        return None, None


def _scale_steps(node: Optional[ast.expr]) -> int:
    """The ``_LADDER`` steps of a literal scale of 1e3, 1e6 or 1e9; 0
    for any other expression."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _SCALES.get(node.value, 0)
    return 0


def _rescaled(unit: Optional[str], steps: int) -> Optional[str]:
    """``unit`` moved ``steps`` along ``_LADDER`` (negative: towards
    ``ns``); ``None`` off its ends or for a unit not on it."""
    if unit not in _LADDER:
        return None
    index = _LADDER.index(unit) + steps
    return _LADDER[index] if 0 <= index < len(_LADDER) else None


def _unscaled(unit: str, steps: int) -> Optional[str]:
    """A unit on ``_LADDER`` under a scale of ``steps``: moved along it,
    or no unit for a :class:`_Product`."""
    return None if isinstance(unit, _Product) else _rescaled(unit, steps)


def _compatible(a: Optional[str], b: Optional[str]) -> bool:
    if a is None or b is None or a == LITERAL or b == LITERAL:
        return True
    return str(a) == str(b)


def _merge(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Unit of a combination of compatible operands."""
    for candidate in (a, b):
        if candidate is not None and candidate != LITERAL:
            return str(candidate)
    if a == LITERAL or b == LITERAL:
        return LITERAL
    return None


def _as_quantity(unit: Optional[str]) -> Optional[str]:
    """In additive/compare position an ``NS_PER_X`` constant *is* ns."""
    return "ns" if isinstance(unit, _Factor) else unit


def _describe(unit: Optional[str]) -> str:
    return "a literal" if unit == LITERAL else str(unit)


class _FunctionChecker:
    """Infers and checks units through one function body."""

    def __init__(
        self,
        index: _Index,
        module: _Module,
        node: ast.FunctionDef,
        rules: set,
    ) -> None:
        self.index = index
        self.module = module
        self.node = node
        self.rules = rules
        self.findings: List[UnitFinding] = []
        self.env: Dict[str, Optional[str]] = {}
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        ):
            unit = unit_of_name(arg.arg)
            if unit:
                self.env[arg.arg] = unit
        self.return_unit = unit_of_name(node.name)

    # -- plumbing -------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", self.node.lineno)
        if rule not in self.rules or suppressed(
            self.module.lines[line - 1], "units-ok", rule
        ):
            return
        self.findings.append(UnitFinding(
            rule=rule, path=self.module.path, line=line, message=message,
        ))

    # -- statements -----------------------------------------------------
    def run(self) -> None:
        self._walk(self.node.body)

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            unit = self.infer(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, unit, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            unit = self.infer(stmt.value) if stmt.value is not None else None
            self._bind_target(stmt.target, unit, stmt)
        elif isinstance(stmt, ast.AugAssign):
            value_unit = self.infer(stmt.value)
            target_unit = self.infer(stmt.target)
            if isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mod)):
                self._check_additive(stmt, target_unit, value_unit)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit = self.infer(stmt.value)
                if self.return_unit and not _compatible(
                    unit, self.return_unit
                ):
                    self._report(
                        RULE_UNIT_RETURN, stmt,
                        f"{self.node.name}() is named as returning "
                        f"{self.return_unit} but returns "
                        f"{_describe(unit)}",
                    )
        elif isinstance(stmt, (ast.If, ast.While)):
            self.infer(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.infer(stmt.iter)
            self._bind_target(stmt.target, None, stmt, check=False)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.infer(item.context_expr)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.infer(child)
        # nested defs are analysed on their own; skip them here

    def _bind_target(
        self,
        target: ast.expr,
        unit: Optional[str],
        stmt: ast.stmt,
        check: bool = True,
    ) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id)
            if declared:
                if check and not _compatible(unit, declared):
                    self._report(
                        RULE_UNIT_MISMATCH, stmt,
                        f"{target.id} ({declared}) assigned "
                        f"{_describe(unit)}",
                    )
                self.env[target.id] = declared
            else:
                self.env[target.id] = (
                    unit if unit != LITERAL else None
                )
        elif isinstance(target, ast.Attribute):
            declared = unit_of_name(target.attr)
            if declared and check and not _compatible(unit, declared):
                self._report(
                    RULE_UNIT_MISMATCH, stmt,
                    f"{ast.unparse(target)} ({declared}) assigned "
                    f"{_describe(unit)}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, stmt, check=False)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None, stmt, check=False)

    # -- expressions ----------------------------------------------------
    def infer(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return None
            if isinstance(node.value, (int, float)):
                return LITERAL
            return None
        if isinstance(node, ast.Name):
            if node.id in _NS_FACTORS:
                return _Factor(_NS_FACTORS[node.id])
            if node.id in _BPS_CONSTANTS:
                return "bps"
            if node.id in self.env:
                return self.env[node.id]
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            self.infer(node.value)
            if node.attr in _NS_FACTORS:
                return _Factor(_NS_FACTORS[node.attr])
            if node.attr in _BPS_CONSTANTS:
                return "bps"
            return unit_of_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.Compare):
            left_unit = self.infer(node.left)
            for comparator in node.comparators:
                right_unit = self.infer(comparator)
                self._check_additive(node, left_unit, right_unit,
                                     context="compared with")
                left_unit = right_unit
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            then_unit = self.infer(node.body)
            else_unit = self.infer(node.orelse)
            return _merge(then_unit, else_unit) if _compatible(
                then_unit, else_unit
            ) else None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for element in node.elts:
                self.infer(element)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                self.infer(key)
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.infer(value.value)
            return None
        if isinstance(node, ast.Subscript):
            self.infer(node.value)
            if isinstance(node.slice, ast.expr):
                self.infer(node.slice)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for generator in node.generators:
                self.infer(generator.iter)
            # comprehension targets shadow; element unit not tracked
            return None
        if isinstance(node, ast.DictComp):
            for generator in node.generators:
                self.infer(generator.iter)
            return None
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        if isinstance(node, ast.Await):
            return self.infer(node.value)
        if isinstance(node, ast.Lambda):
            return None
        return None

    def _check_additive(
        self,
        node: ast.AST,
        left: Optional[str],
        right: Optional[str],
        context: str = "combined with",
    ) -> None:
        left, right = _as_quantity(left), _as_quantity(right)
        if not _compatible(left, right):
            self._report(
                RULE_UNIT_MISMATCH, node,
                f"{_describe(left)} {context} {_describe(right)}",
            )

    def _scale(self, node: ast.expr) -> int:
        """The ``_LADDER`` steps of ``node`` as a scale: a literal of
        1e3, 1e6 or 1e9, or a module-level name bound to one that this
        function does not rebind; 0 otherwise."""
        if isinstance(node, ast.Name) and node.id not in self.env:
            return self.module.scales.get(node.id, 0)
        return _scale_steps(node)

    def _infer_binop(self, node: ast.BinOp) -> Optional[str]:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mod)):
            self._check_additive(node, left, right)
            return _merge(_as_quantity(left), _as_quantity(right))
        if isinstance(node.op, ast.Mult):
            for scale, other in ((node.right, left), (node.left, right)):
                steps = self._scale(scale)
                if steps and other in _LADDER:
                    return _unscaled(other, -steps)
            for factor, other, operand in (
                (left, right, node.right), (right, left, node.left),
            ):
                if isinstance(factor, _Factor):
                    scaled = str(factor)
                    if other is not None and other != LITERAL and (
                        not isinstance(other, _Factor)
                    ) and other != scaled:
                        self._report(
                            RULE_UNIT_MISMATCH, node,
                            f"NS_PER_{scaled.upper()} scales a {scaled} "
                            f"value but got {_describe(other)}",
                        )
                    return "ns"
            if left == LITERAL:
                return right
            if right == LITERAL:
                return left
            if left is None or right is None:
                unit = right if left is None else left
                return None if unit is None else _Product(unit)
            return None  # unit * unit: dimension not tracked
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if isinstance(right, _Factor):
                scaled = str(right)
                if left is not None and left != LITERAL and (
                    not isinstance(left, _Factor)
                ) and left != "ns":
                    self._report(
                        RULE_UNIT_MISMATCH, node,
                        f"dividing {_describe(left)} by NS_PER_"
                        f"{scaled.upper()} expects ns",
                    )
                return scaled
            steps = self._scale(node.right)
            if steps and left in _LADDER:
                return _unscaled(left, steps)
            if left is not None and left != LITERAL and left == right:
                return None  # ratio of like units is dimensionless
            if right == LITERAL or right is None:
                return left if left != LITERAL else LITERAL
            return None
        return None

    def _infer_call(self, node: ast.Call) -> Optional[str]:
        arg_units = [self.infer(arg) for arg in node.args]
        kw_units = {
            kw.arg: self.infer(kw.value)
            for kw in node.keywords if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.infer(kw.value)

        # keyword names are signatures in miniature: check them even
        # when the callee cannot be resolved (dataclass constructors).
        for kw in node.keywords:
            if kw.arg is None:
                continue
            declared = unit_of_name(kw.arg)
            if not declared:
                continue
            unit = kw_units[kw.arg]
            if not _compatible(unit, declared):
                self._report(
                    RULE_UNIT_CALL, kw.value,
                    f"argument {kw.arg}= expects {declared} but got "
                    f"{_describe(unit)}",
                )
            elif unit == LITERAL:
                self._report(
                    RULE_UNIT_LITERAL, kw.value,
                    f"bare literal passed to {declared}-carrying "
                    f"argument {kw.arg}=",
                )

        func = node.func
        if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_BUILTINS:
            return arg_units[0] if arg_units else None
        if isinstance(func, ast.Name) and func.id in _AGREEING_BUILTINS:
            result: Optional[str] = None
            for unit in arg_units:
                self._check_additive(node, result, unit)
                result = _merge(result, unit)
            return result

        target, params = self.index.resolve(self.module, func)
        converter = _CONVERTERS.get(target)
        if converter is not None:
            expected, returned = converter
            if arg_units and not _compatible(arg_units[0], expected):
                self._report(
                    RULE_UNIT_CALL, node.args[0],
                    f"{target.rsplit('.', 1)[1]}() expects {expected} "
                    f"but got {_describe(arg_units[0])}",
                )
            return returned
        if isinstance(func, ast.Attribute):
            self.infer(func.value)
        elif not isinstance(func, ast.Name):
            self.infer(func)
            return None
        name = (target or func.id).rsplit(".", 1)[-1]
        for index, (unit, param) in enumerate(zip(arg_units, params or ())):
            if isinstance(node.args[index], ast.Starred):
                break  # later arguments' parameters are unknown
            declared = unit_of_name(param)
            if not declared:
                continue
            if not _compatible(unit, declared):
                self._report(
                    RULE_UNIT_CALL, node.args[index],
                    f"parameter {param} of {name}() expects "
                    f"{declared} but got {_describe(unit)}",
                )
            elif unit == LITERAL:
                self._report(
                    RULE_UNIT_LITERAL, node.args[index],
                    f"bare literal passed to {declared}-carrying "
                    f"parameter {param} of {name}()",
                )
        # the callee's own name is a unit signature too
        # (time.monotonic_ns(), store.version_ns(), ...)
        return unit_of_name(name)
