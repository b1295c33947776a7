"""Whole-program scan: modules, classes, calls — the substrate the
time-unit analysis (:mod:`repro.check.units_analysis`) is built on.

:func:`build_program` parses a file set into a :class:`Program`:

* per-module import tables, so ``ScheduleStore`` in ``coordinator.py``
  resolves to ``repro.service.store.ScheduleStore``;
* per-class attribute types, gathered from dataclass field annotations
  and ``self.x = ClassName(...)`` constructor assignments (including
  through ``a if cond else b`` defaulting expressions);
* a light flow-insensitive type inference over function bodies
  (parameter annotations, constructor calls, annotated return types,
  container element types through ``List[X]`` / ``Dict[K, V]`` /
  ``sorted()`` / iteration), enough to resolve ``runtime.service
  .submit_many(...)`` to ``AdmissionService.submit_many``.

The inference is deliberately conservative: a call whose target cannot
be resolved contributes nothing, so the analysis errs toward silence,
never toward invented findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

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


@dataclass
class Program:
    """The whole analyzed tree, cross-indexed."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: qualname -> (module, class-or-None, FunctionDef)
    functions: Dict[
        str, Tuple[ModuleInfo, Optional[ClassInfo], ast.FunctionDef]
    ] = field(default_factory=dict)

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
    """Fill each class's bases and attr_types."""
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
    if resolved in program.classes:
        return Type(cls=resolved)
    # unresolved externals keep their dotted name (`threading.Event`)
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
        return resolved if "." in resolved else None
    if isinstance(func, ast.Attribute):
        # module-alias or fully dotted calls: mod.f(), pkg.Class()
        dotted = _dotted(func)
        if dotted is not None:
            resolved = _resolve_dotted(dotted, module, program)
            if resolved is not None and (
                resolved in program.classes
                or resolved in program.functions
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
        return None
    return None


def signature_of(node: ast.FunctionDef) -> List[str]:
    """Positional parameter names in order (``self`` included)."""
    args = node.args
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]
