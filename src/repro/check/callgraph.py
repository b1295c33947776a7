"""Whole-program scan: modules, classes, calls, locks — the substrate
the interprocedural analyses (:mod:`repro.check.flow`,
:mod:`repro.check.units_analysis`) are built on.

:func:`build_program` parses a file set into a :class:`Program`:

* per-module import tables, so ``ScheduleStore`` in ``coordinator.py``
  resolves to ``repro.service.store.ScheduleStore``;
* per-class attribute types, gathered from dataclass field annotations
  and ``self.x = ClassName(...)`` constructor assignments (including
  through ``a if cond else b`` defaulting expressions), plus the set of
  **lock attributes** — anything assigned ``threading.Lock()`` /
  ``RLock()`` / :func:`repro.check.sanitizer.make_lock` or annotated as
  such;
* a light flow-insensitive type inference over function bodies
  (parameter annotations, constructor calls, annotated return types,
  container element types through ``List[X]`` / ``Dict[K, V]`` /
  ``sorted()`` / iteration), enough to resolve ``runtime.service
  .submit_many(...)`` to ``AdmissionService.submit_many``;
* per-function :class:`FunctionSummary` objects: every **lock
  acquisition** (``with self._lock:`` blocks, bare ``.acquire()`` /
  ``.release()`` pairs) with the locks already held at that point, and
  every **resolved call** with the lock stack held when it runs.

The inference is deliberately conservative: a call or lock whose target
cannot be resolved contributes nothing, so the downstream analyses err
toward silence, never toward invented deadlocks.  Locks are identified
by their *owning class attribute* (``ScheduleStore._lock``), i.e. one
identity per lock field, not per instance — the same granularity the
runtime sanitizer groups by.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Qualified names treated as lock types when they appear in
#: annotations (dataclass fields, parameters).
LOCK_TYPE_NAMES = frozenset({
    "threading.Lock",
    "threading.RLock",
    "repro.check.sanitizer.OrderedLock",
})

#: Call targets whose result is a lock (constructor assignments).
LOCK_FACTORY_NAMES = frozenset({
    "threading.Lock",
    "threading.RLock",
    "repro.check.sanitizer.OrderedLock",
    "repro.check.sanitizer.make_lock",
})

#: Builtins that return their argument's container unchanged — element
#: types flow through them.
_PASSTHROUGH_CALLS = frozenset({"sorted", "list", "tuple", "reversed"})


@dataclass
class Type:
    """A resolved type: a class id, optionally with an element type."""

    cls: Optional[str] = None
    elem: Optional["Type"] = None


@dataclass
class ClassInfo:
    """One class definition and what the scan learned about it."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    attr_types: Dict[str, Type] = field(default_factory=dict)
    #: attribute names holding locks (``_lock`` and friends).
    lock_attrs: Set[str] = field(default_factory=set)
    #: attribute names assigned from ``sorted(...)`` in any method —
    #: iterating one of these is a deterministically ordered walk.
    sorted_attrs: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed module: its tree, imports, and top-level scope."""

    name: str
    path: str
    tree: ast.Module
    source_lines: List[str]
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass(frozen=True)
class Acquisition:
    """One lock acquisition site inside a function."""

    lock: str
    line: int
    #: lock ids already held (innermost last) when this fires.
    held: Tuple[str, ...]
    #: True when the acquisition sits in a loop over a deterministically
    #: sorted iterable — multiple instances taken in a global order.
    ordered: bool = False
    #: True for a bare ``.acquire()`` inside a loop with no matching
    #: release in the same loop body: successive iterations pile up
    #: instances of the same lock class (the sorted shard-lock pattern).
    accumulates: bool = False


@dataclass(frozen=True)
class CallEvent:
    """One resolved call site and the locks held while it runs."""

    callee: str
    line: int
    held: Tuple[str, ...]


@dataclass
class FunctionSummary:
    """What one function does with locks and calls."""

    qualname: str
    path: str
    line: int
    acquisitions: List[Acquisition] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)


@dataclass
class Program:
    """The whole analyzed tree, cross-indexed."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: qualname -> (module, class-or-None, FunctionDef)
    functions: Dict[
        str, Tuple[ModuleInfo, Optional[ClassInfo], ast.FunctionDef]
    ] = field(default_factory=dict)
    summaries: Dict[str, FunctionSummary] = field(default_factory=dict)

    def source_line(self, path: str, line: int) -> str:
        for module in self.modules.values():
            if module.path == path:
                if 1 <= line <= len(module.source_lines):
                    return module.source_lines[line - 1]
        return ""


# ---------------------------------------------------------------- scan
def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``; rooted at ``repro`` when the
    file lives in the installed tree, bare stem otherwise (fixtures)."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or parts
    return ".".join(parts)


def expand_paths(paths: Iterable[str]) -> List[Path]:
    """Files and directory trees (``*.py``, recursively), sorted."""
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


def build_program(paths: Iterable[str]) -> Program:
    """Parse and cross-index every module under ``paths``."""
    program = Program()
    for file_path in expand_paths(paths):
        source = file_path.read_text()
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # the linter owns parse errors; analyses skip
        module = ModuleInfo(
            name=module_name_for(file_path),
            path=str(file_path),
            tree=tree,
            source_lines=source.splitlines(),
        )
        _scan_imports(module)
        _scan_toplevel(module)
        program.modules[module.name] = module
        for info in module.classes.values():
            program.classes[info.qualname] = info
    for module in program.modules.values():
        _harvest_class_attrs(module, program)
    _index_functions(program)
    for qualname in program.functions:
        program.summaries[qualname] = _summarize(qualname, program)
    return program


def _scan_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                module.imports[local] = f"{node.module}.{alias.name}"


def _scan_toplevel(module: ModuleInfo) -> None:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            info = ClassInfo(
                qualname=f"{module.name}.{node.name}",
                module=module.name,
                name=node.name,
                node=node,
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[item.name] = item
            module.classes[node.name] = info
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = node


def _harvest_class_attrs(module: ModuleInfo, program: Program) -> None:
    """Fill each class's attr_types / lock_attrs / sorted_attrs."""
    for info in module.classes.values():
        info.bases = [
            base for base in (
                _resolve_dotted(_dotted(b) or "", module, program)
                for b in info.node.bases
            ) if base
        ]
        # dataclass-style annotated fields in the class body
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                annotated = _annotation_type(
                    item.annotation, module, program
                )
                if annotated.cls is not None or annotated.elem is not None:
                    info.attr_types[item.target.id] = annotated
                if annotated.cls in LOCK_TYPE_NAMES:
                    info.lock_attrs.add(item.target.id)
        # self.x = ... assignments anywhere in the class's methods
        for method in info.methods.values():
            for node in ast.walk(method):
                if isinstance(node, ast.AnnAssign) and (
                    isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                ):
                    annotated = _annotation_type(
                        node.annotation, module, program
                    )
                    if annotated.cls is not None or annotated.elem is not None:
                        info.attr_types.setdefault(
                            node.target.attr, annotated
                        )
                    if annotated.cls in LOCK_TYPE_NAMES:
                        info.lock_attrs.add(node.target.attr)
                    continue
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if _is_lock_factory(node.value, module, program):
                        info.lock_attrs.add(attr)
                        info.attr_types[attr] = Type(cls="threading.Lock")
                        continue
                    if (
                        isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id == "sorted"
                    ):
                        info.sorted_attrs.add(attr)
                    inferred = _infer_attr_assignment(
                        node.value, method, info, module, program
                    )
                    if inferred is not None and attr not in info.attr_types:
                        info.attr_types[attr] = inferred


def _infer_attr_assignment(
    value: ast.AST,
    method: ast.FunctionDef,
    info: ClassInfo,
    module: ModuleInfo,
    program: Program,
) -> Optional[Type]:
    """Best-effort type for ``self.x = <value>`` in ``method``."""
    env = _param_env(method, info, module, program)
    inferred = _eval_type(value, env, info, module, program)
    if inferred.cls is None and inferred.elem is None:
        return None
    return inferred


def _index_functions(program: Program) -> None:
    for module in program.modules.values():
        for name, node in module.functions.items():
            program.functions[f"{module.name}.{name}"] = (module, None, node)
        for info in module.classes.values():
            for name, node in info.methods.items():
                program.functions[f"{info.qualname}.{name}"] = (
                    module, info, node
                )


# ------------------------------------------------------- name resolution
def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_dotted(
    dotted: str, module: ModuleInfo, program: Program
) -> Optional[str]:
    """A dotted textual name to a program-wide qualified name.

    Returns class qualnames for known classes, function qualnames for
    known functions, and the import-resolved dotted string otherwise
    (e.g. ``threading.Lock``) so external names stay recognizable.
    """
    if not dotted:
        return None
    head, _, rest = dotted.partition(".")
    if head in module.classes:
        resolved = module.classes[head].qualname
    elif head in module.functions:
        resolved = f"{module.name}.{head}"
    elif head in module.imports:
        resolved = module.imports[head]
    else:
        return None
    return f"{resolved}.{rest}" if rest else resolved


def _is_lock_factory(
    node: ast.AST, module: ModuleInfo, program: Program
) -> bool:
    """Is this expression a lock construction (possibly via defaulting
    ``a if cond else b`` around one)?"""
    if isinstance(node, ast.IfExp):
        return (
            _is_lock_factory(node.body, module, program)
            or _is_lock_factory(node.orelse, module, program)
        )
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    resolved = _resolve_dotted(dotted, module, program) or dotted
    if resolved in LOCK_FACTORY_NAMES:
        return True
    # `from threading import Lock` / `from repro.check.sanitizer import
    # make_lock` style: the tail name is what the import table mapped.
    return resolved.rsplit(".", 1)[-1] in {"Lock", "RLock", "make_lock",
                                           "OrderedLock"} and (
        resolved.startswith("threading.")
        or resolved.startswith("repro.check.sanitizer.")
    )


def _annotation_type(
    node: Optional[ast.AST], module: ModuleInfo, program: Program
) -> Type:
    """Resolve an annotation expression to a :class:`Type`."""
    if node is None:
        return Type()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return Type()
    if isinstance(node, ast.Subscript):
        container = _dotted(node.value) or ""
        tail = container.rsplit(".", 1)[-1]
        inner = node.slice
        if tail == "Optional":
            return _annotation_type(inner, module, program)
        if tail in {"List", "Sequence", "Iterable", "Tuple", "Set",
                    "FrozenSet", "Deque", "list", "tuple", "set"}:
            first = inner.elts[0] if isinstance(inner, ast.Tuple) else inner
            return Type(elem=_annotation_type(first, module, program))
        if tail in {"Dict", "dict", "Mapping", "MutableMapping"}:
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                return Type(
                    cls="dict",
                    elem=_annotation_type(inner.elts[1], module, program),
                )
        return Type()
    dotted = _dotted(node)
    if dotted is None:
        return Type()
    resolved = _resolve_dotted(dotted, module, program) or dotted
    if resolved in program.classes or resolved in LOCK_TYPE_NAMES:
        return Type(cls=resolved)
    # unresolved externals stay as dotted names so `threading.Lock`
    # annotations written against a bare `import threading` still match
    return Type(cls=resolved if "." in resolved else None)


# ------------------------------------------------------- type inference
def _param_env(
    node: ast.FunctionDef,
    info: Optional[ClassInfo],
    module: ModuleInfo,
    program: Program,
) -> Dict[str, Type]:
    env: Dict[str, Type] = {}
    args = node.args
    every = (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )
    for arg in every:
        if arg.annotation is not None:
            env[arg.arg] = _annotation_type(arg.annotation, module, program)
    if info is not None and every and every[0].arg == "self":
        env["self"] = Type(cls=info.qualname)
    return env


def _eval_type(
    node: ast.AST,
    env: Dict[str, Type],
    info: Optional[ClassInfo],
    module: ModuleInfo,
    program: Program,
) -> Type:
    """Best-effort type of an expression under ``env``."""
    if isinstance(node, ast.Name):
        return env.get(node.id, Type())
    if isinstance(node, ast.Attribute):
        base = _eval_type(node.value, env, info, module, program)
        if base.cls is not None:
            owner = program.classes.get(base.cls)
            while owner is not None:
                if node.attr in owner.attr_types:
                    return owner.attr_types[node.attr]
                owner = next(
                    (program.classes[b] for b in owner.bases
                     if b in program.classes), None,
                )
        return Type()
    if isinstance(node, ast.IfExp):
        body = _eval_type(node.body, env, info, module, program)
        if body.cls is not None or body.elem is not None:
            return body
        return _eval_type(node.orelse, env, info, module, program)
    if isinstance(node, ast.Subscript):
        base = _eval_type(node.value, env, info, module, program)
        if base.elem is not None:
            return base.elem
        return Type()
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and (
            node.func.id in _PASSTHROUGH_CALLS
        ):
            if node.args:
                inner = _eval_type(node.args[0], env, info, module, program)
                if inner.elem is not None:
                    return inner
            return Type()
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "values",
        ):
            base = _eval_type(node.func.value, env, info, module, program)
            if base.cls == "dict" and base.elem is not None:
                return Type(elem=base.elem)
            return Type()
        callee = resolve_call(node, env, info, module, program)
        if callee is None:
            return Type()
        if callee in program.classes:
            return Type(cls=callee)
        target = program.functions.get(callee)
        if target is not None:
            callee_module, callee_class, callee_node = target
            if callee_node.returns is not None:
                return _annotation_type(
                    callee_node.returns, callee_module, program
                )
        if callee in LOCK_FACTORY_NAMES:
            return Type(cls="threading.Lock")
        return Type()
    return Type()


def resolve_call(
    node: ast.Call,
    env: Dict[str, Type],
    info: Optional[ClassInfo],
    module: ModuleInfo,
    program: Program,
) -> Optional[str]:
    """The program qualname a call lands on, or ``None``.

    Handles plain names (local/imported functions and classes — a class
    call resolves to the class qualname itself, standing in for its
    constructor), ``self.method``, and ``typed_expr.method`` where the
    receiver's class is inferable.
    """
    func = node.func
    if isinstance(func, ast.Name):
        resolved = _resolve_dotted(func.id, module, program)
        if resolved is None:
            return None
        if resolved in program.classes or resolved in program.functions:
            return resolved
        if resolved in LOCK_FACTORY_NAMES:
            return resolved
        return resolved if "." in resolved else None
    if isinstance(func, ast.Attribute):
        # module-alias or fully dotted calls: threading.Lock(), mod.f()
        dotted = _dotted(func)
        if dotted is not None:
            resolved = _resolve_dotted(dotted, module, program)
            if resolved is not None and (
                resolved in program.classes
                or resolved in program.functions
                or resolved in LOCK_FACTORY_NAMES
            ):
                return resolved
        base = _eval_type(func.value, env, info, module, program)
        if base.cls is not None:
            owner = program.classes.get(base.cls)
            while owner is not None:
                if func.attr in owner.methods:
                    return f"{owner.qualname}.{func.attr}"
                owner = next(
                    (program.classes[b] for b in owner.bases
                     if b in program.classes), None,
                )
            if base.cls in LOCK_TYPE_NAMES:
                return f"{base.cls}.{func.attr}"
        return None
    return None


# ------------------------------------------------- function summaries
def lock_identity(
    node: ast.AST,
    env: Dict[str, Type],
    info: Optional[ClassInfo],
    module: ModuleInfo,
    program: Program,
) -> Optional[str]:
    """The class-attribute identity of a lock expression, or ``None``.

    ``self._lock`` → ``Owner._lock`` (when ``_lock`` is a known lock
    attribute of the enclosing class), ``store._lock`` →
    ``ScheduleStore._lock`` via the receiver's inferred type.  Identity is
    per *field*, not per instance: every ``ScheduleStore`` shares the
    id ``ScheduleStore._lock``, matching the sanitizer's grouping.
    """
    if not isinstance(node, ast.Attribute):
        return None
    base = _eval_type(node.value, env, info, module, program)
    if base.cls is None:
        return None
    owner = program.classes.get(base.cls)
    while owner is not None:
        if node.attr in owner.lock_attrs:
            return f"{owner.qualname}.{node.attr}"
        owner = next(
            (program.classes[b] for b in owner.bases
             if b in program.classes), None,
        )
    return None


class _SummaryWalker:
    """Extracts one function's acquisitions and resolved calls.

    The walk is linear in source order with a mutable held-lock stack:
    ``with`` items scope their locks over the block, bare ``acquire()``
    holds until the matching textual ``release()`` (or function end).
    Nested function/class definitions are skipped — their bodies do not
    run at definition time (they are summarized separately).
    """

    def __init__(
        self,
        qualname: str,
        node: ast.FunctionDef,
        info: Optional[ClassInfo],
        module: ModuleInfo,
        program: Program,
    ) -> None:
        self.summary = FunctionSummary(
            qualname=qualname, path=module.path, line=node.lineno
        )
        self._env = _param_env(node, info, module, program)
        self._info = info
        self._module = module
        self._program = program
        self._held: List[str] = []
        #: nesting stack of loop contexts: (ordered, {lock id ->
        #: acquisition indices not yet released inside this loop})
        self._loops: List[Tuple[bool, Dict[str, List[int]]]] = []
        self._root = node

    def run(self) -> FunctionSummary:
        for stmt in self._root.body:
            self._walk(stmt)
        return self.summary

    # -- helpers -------------------------------------------------------
    def _lock_of(self, node: ast.AST) -> Optional[str]:
        return lock_identity(
            node, self._env, self._info, self._module, self._program
        )

    def _record_acquire(
        self, lock: str, line: int, accumulates: bool = False
    ) -> None:
        ordered = bool(self._loops) and self._loops[-1][0]
        self.summary.acquisitions.append(Acquisition(
            lock=lock, line=line, held=tuple(self._held),
            ordered=ordered, accumulates=accumulates,
        ))

    def _record_calls(self, node: ast.AST) -> None:
        """Record every resolved call in an expression subtree."""
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            callee = resolve_call(
                child, self._env, self._info, self._module, self._program
            )
            if callee is None:
                continue
            self.summary.calls.append(CallEvent(
                callee=callee, line=child.lineno, held=tuple(self._held),
            ))

    def _iter_ordered(self, iterable: ast.AST) -> bool:
        """Is iterating this expression a deterministically sorted walk?"""
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id == "sorted":
                return True
            if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_CALLS:
                return bool(iterable.args) and self._iter_ordered(
                    iterable.args[0]
                )
        if isinstance(iterable, ast.Attribute) and isinstance(
            iterable.value, ast.Name
        ) and iterable.value.id == "self" and self._info is not None:
            return iterable.attr in self._info.sorted_attrs
        return False

    # -- statement dispatch --------------------------------------------
    def _walk(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record_calls(stmt.iter)
            self._bind_loop_target(stmt)
            ordered = self._iter_ordered(stmt.iter)
            self._walk_loop_body(stmt, ordered)
            for child in stmt.orelse:
                self._walk(child)
            return
        if isinstance(stmt, ast.While):
            self._record_calls(stmt.test)
            self._walk_loop_body(stmt, False)
            for child in stmt.orelse:
                self._walk(child)
            return
        if isinstance(stmt, ast.Expr) and self._acquire_release(stmt.value):
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._record_calls(stmt)
            self._bind_assignment(stmt)
            return
        if isinstance(stmt, ast.Try):
            self._record_calls_shallow(stmt)
            for child in (
                stmt.body
                + [h for handler in stmt.handlers for h in handler.body]
                + stmt.orelse + stmt.finalbody
            ):
                self._walk(child)
            return
        if isinstance(stmt, ast.If):
            self._record_calls(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._walk(child)
            return
        # leaf statements (Return, Expr, Raise, assertions, ...)
        self._record_calls(stmt)

    def _record_calls_shallow(self, stmt: ast.Try) -> None:
        for handler in stmt.handlers:
            if handler.type is not None:
                self._record_calls(handler.type)

    def _walk_loop_body(self, stmt, ordered: bool) -> None:
        """Walk a loop body; bare acquisitions still unreleased when the
        loop ends accumulate one instance per iteration (the sorted
        shard-lock pattern), which downstream reads as a same-identity
        self-edge — allowed only when the iteration is ordered."""
        self._loops.append((ordered, {}))
        try:
            for child in stmt.body:
                self._walk(child)
        finally:
            _, unreleased = self._loops.pop()
            for indices in unreleased.values():
                for index in indices:
                    acq = self.summary.acquisitions[index]
                    self.summary.acquisitions[index] = Acquisition(
                        lock=acq.lock, line=acq.line, held=acq.held,
                        ordered=acq.ordered, accumulates=True,
                    )

    def _walk_with(self, stmt: ast.With) -> None:
        entered: List[str] = []
        for item in stmt.items:
            lock = self._lock_of(item.context_expr)
            if lock is not None:
                self._record_acquire(lock, item.context_expr.lineno)
                self._held.append(lock)
                entered.append(lock)
            else:
                self._record_calls(item.context_expr)
        try:
            for child in stmt.body:
                self._walk(child)
        finally:
            for _ in entered:
                self._held.pop()

    def _acquire_release(self, value: ast.AST) -> bool:
        """Handle ``X.acquire()`` / ``X.release()`` statements; returns
        True when the statement was consumed as lock traffic."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in {"acquire", "release"}
        ):
            return False
        lock = self._lock_of(value.func.value)
        if lock is None:
            return False
        if value.func.attr == "acquire":
            self._record_acquire(lock, value.lineno)
            if self._loops:
                self._loops[-1][1].setdefault(lock, []).append(
                    len(self.summary.acquisitions) - 1
                )
            self._held.append(lock)
        else:
            if lock in self._held:
                # release the innermost holding of this identity
                self._held.reverse()
                self._held.remove(lock)
                self._held.reverse()
            if self._loops and lock in self._loops[-1][1]:
                indices = self._loops[-1][1][lock]
                indices.pop()
                if not indices:
                    del self._loops[-1][1][lock]
        return True

    # -- env updates ---------------------------------------------------
    def _bind_loop_target(self, stmt: ast.For) -> None:
        value = self._dict_items_value(stmt.iter)
        if value is not None:
            # for k, v in d.items(): the value slot gets the dict's
            # element type; the key stays untyped (usually a str)
            if isinstance(stmt.target, ast.Tuple) and len(
                stmt.target.elts
            ) == 2 and isinstance(stmt.target.elts[1], ast.Name):
                self._env[stmt.target.elts[1].id] = value
            return
        elem = _eval_type(
            stmt.iter, self._env, self._info, self._module, self._program
        ).elem
        if elem is not None and isinstance(stmt.target, ast.Name):
            self._env[stmt.target.id] = elem

    def _dict_items_value(self, iterable: ast.AST) -> Optional[Type]:
        """The value type when ``iterable`` is ``d.items()`` (possibly
        wrapped in ``sorted()``/``list()``) over a typed dict."""
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and (
                func.id in _PASSTHROUGH_CALLS and iterable.args
            ):
                return self._dict_items_value(iterable.args[0])
            if isinstance(func, ast.Attribute) and func.attr == "items":
                base = _eval_type(
                    func.value, self._env, self._info, self._module,
                    self._program,
                )
                if base.cls == "dict":
                    return base.elem
        return None

    def _bind_assignment(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                if isinstance(stmt.target, ast.Name):
                    self._env[stmt.target.id] = _annotation_type(
                        stmt.annotation, self._module, self._program
                    )
                return
            targets, value = [stmt.target], stmt.value
        else:
            return
        inferred = _eval_type(
            value, self._env, self._info, self._module, self._program
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if isinstance(stmt, ast.AnnAssign):
                    annotated = _annotation_type(
                        stmt.annotation, self._module, self._program
                    )
                    if annotated.cls is not None or annotated.elem is not None:
                        inferred = annotated
                self._env[target.id] = inferred


def _summarize(qualname: str, program: Program) -> FunctionSummary:
    module, info, node = program.functions[qualname]
    return _SummaryWalker(qualname, node, info, module, program).run()


def signature_of(node: ast.FunctionDef) -> List[str]:
    """Positional parameter names in order (``self`` included)."""
    args = node.args
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]
