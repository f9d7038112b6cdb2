"""Pass 1: per-file fact extraction.

One AST traversal per module collects *facts* — plain-data event records
— that every rule plugin then consumes in pass 2.  Splitting extraction
from judgment is what makes the engine pluggable: a rule never walks the
tree itself, so adding a rule costs one function over these tables, and
the whole-file traversal happens exactly once no matter how many rules
are registered.

The traversal preserves the legacy lint's single-pass semantics: alias
sets (``import random as r`` …) grow in document order, and each event
snapshots the judgment flags *as they stood at that point in the file*,
so the ported REPRO101–108 plugins reproduce the old pass byte-for-byte.

:class:`ModuleFacts` additionally yields a plain-data
:meth:`~ModuleFacts.summary` — the per-file contribution to the
whole-tree :class:`~repro.verify.analysis.project.ProjectIndex` (imports,
exports, private-attribute ownership, frozen classes).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.verify.analysis.layers import classify_module, module_package

__all__ = [
    "AttrEvent",
    "CallEvent",
    "DefaultEvent",
    "ImportBinding",
    "IterationEvent",
    "FrozenWriteEvent",
    "ModuleFacts",
    "extract_facts",
]

#: Wall-clock callables, as (module alias base, attribute) pairs.
WALLCLOCK_TIME_ATTRS = {
    "time", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "time_ns", "localtime", "gmtime",
}
WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Mutable constructor names whose call (or literal) must not be a default.
MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque", "defaultdict"}

#: Functions in which ``object.__setattr__`` is the sanctioned frozen-
#: dataclass construction idiom.
INIT_FAMILY = {"__init__", "__post_init__", "__setattr__", "__new__"}

_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference", "copy"}
_SCHEDULE_ATTRS = {"schedule", "at", "call_soon"}

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by an import statement."""

    name: str            #: the name bound in this module
    orig_name: str       #: alias.name — the imported member / dotted module
    module: str          #: full module path ("" for plain ``import x``-roots)
    root: str            #: top-level module root ("random", "repro", ...)
    line: int
    col: int
    is_from: bool
    redundant_alias: bool   #: ``import x as x`` / ``from m import y as y``
    type_checking: bool     #: bound inside an ``if TYPE_CHECKING:`` block
    level: int = 0          #: relative-import level (ImportFrom only)


@dataclass(frozen=True)
class AttrEvent:
    """One attribute access, with legacy judgment flags snapshotted."""

    line: int
    col: int
    attr: str
    is_store: bool
    base_is_self: bool
    base_name: Optional[str]
    #: legacy flags, resolved against alias sets at visit time
    random_alias_base: bool = False
    numpy_random: bool = False
    time_wallclock: bool = False
    datetime_wallclock: bool = False
    datetime_chain: Optional[Tuple[str, str]] = None  #: (base root, mid attr)


@dataclass(frozen=True)
class CallEvent:
    """One call site, with everything the rules need precomputed."""

    line: int
    col: int
    func_name: Optional[str]
    func_attr: Optional[str]
    enclosing_function: Optional[str]
    wallclock_name: bool = False
    is_print: bool = False
    fault_private_universe: bool = False
    fault_stream_violation: bool = False
    #: ``streams.get("fuzz:...")``-style call — the fuzzer's reserved
    #: substream namespace (REPRO116 confines it to repro/verify/diff/).
    fuzz_stream_call: bool = False
    object_setattr: bool = False
    sim_run_call: bool = False
    at_constant_time: bool = False


@dataclass(frozen=True)
class DefaultEvent:
    """One mutable default argument."""

    line: int
    col: int
    literal_kind: Optional[str]   #: "list"/"dict"/"set" for literals
    call_name: Optional[str]      #: constructor name for calls


@dataclass(frozen=True)
class IterationEvent:
    """Iteration over an unordered set feeding order-sensitive work."""

    line: int
    col: int
    reason: str       #: "accumulation" | "scheduling" | "float-sum"
    detail: str


@dataclass(frozen=True)
class FrozenWriteEvent:
    """Direct attribute store on a value of a known (possibly frozen) class."""

    line: int
    col: int
    var: str
    class_name: str
    attr: str
    enclosing_function: Optional[str]


@dataclass
class ModuleFacts:
    """Everything pass 1 learned about one module."""

    path: str
    normalized: str
    rel: Optional[str]          #: repro-relative path, None outside the tree
    package: Optional[str]      #: repro package ("", "cli", "mac", ...)
    # Module-kind flags (path-derived).
    is_rng_module: bool = False
    is_kernel_module: bool = False
    is_phy_module: bool = False
    is_telemetry_module: bool = False
    is_fault_module: bool = False
    #: Under ``verify/diff/`` — the differential oracle/fuzzer subtree.
    is_diff_module: bool = False
    is_init_module: bool = False

    imports: List[ImportBinding] = field(default_factory=list)
    attr_events: List[AttrEvent] = field(default_factory=list)
    call_events: List[CallEvent] = field(default_factory=list)
    default_events: List[DefaultEvent] = field(default_factory=list)
    now_assigns: List[Tuple[int, int, Optional[str]]] = field(default_factory=list)
    counter_dicts: List[Tuple[int, int]] = field(default_factory=list)
    iteration_events: List[IterationEvent] = field(default_factory=list)
    frozen_writes: List[FrozenWriteEvent] = field(default_factory=list)

    used_names: Set[str] = field(default_factory=set)
    string_constants: List[str] = field(default_factory=list)
    all_names: List[str] = field(default_factory=list)      #: __all__ members
    callback_names: Set[str] = field(default_factory=set)
    frozen_classes: Set[str] = field(default_factory=set)
    private_attr_defs: Set[str] = field(default_factory=set)

    def summary(self) -> Dict[str, Any]:
        """The serializable whole-tree contribution of this module."""
        return {
            "rel": self.rel,
            "package": self.package,
            "is_init": self.is_init_module,
            "imports": [
                {
                    "name": b.name,
                    "orig": b.orig_name,
                    "module": b.module,
                    "root": b.root,
                    "is_from": b.is_from,
                    "type_checking": b.type_checking,
                    "level": b.level,
                }
                for b in self.imports
            ],
            "all": list(self.all_names),
            "private_attr_defs": sorted(self.private_attr_defs),
            "frozen_classes": sorted(self.frozen_classes),
        }


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _is_frozen_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass(frozen=True)`` (bare or attribute-qualified)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "dataclass":
        return False
    for keyword in node.keywords:
        if keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


class _FactsVisitor(ast.NodeVisitor):
    """The single traversal filling a :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self.random_aliases: Set[str] = set()
        self.numpy_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        self.wallclock_names: Set[str] = set()
        self._type_checking_depth = 0
        self._function_stack: List[str] = []
        #: per-scope Name -> constructor class for frozen-write tracking;
        #: scope 0 is the module, one frame per function.
        self._binding_stack: List[Dict[str, str]] = [{}]
        #: per-scope names known to hold sets.
        self._set_vars_stack: List[Set[str]] = [set()]

    # ------------------------------------------------------------ helpers
    @property
    def _enclosing(self) -> Optional[str]:
        return self._function_stack[-1] if self._function_stack else None

    def _set_like(self, node: ast.expr) -> bool:
        """Whether ``node`` statically looks like an unordered set value."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_vars_stack[-1] or (
                node.id in self._set_vars_stack[0]
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)
        ):
            return self._set_like(node.left) or self._set_like(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self._set_like(func.value)
        return False

    @staticmethod
    def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
        if annotation is None:
            return False
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id in _SET_ANNOTATIONS
        if isinstance(target, ast.Attribute):
            return target.attr in _SET_ANNOTATIONS
        return False

    @staticmethod
    def _constructor_name(value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            return value.func.attr
        return None

    @staticmethod
    def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
        if isinstance(annotation, ast.Name):
            return annotation.id
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            match = IDENT_RE.match(annotation.value.strip())
            return match.group(0) if match else None
        return None

    # ------------------------------------------------------------ imports
    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self.visit(node.test)
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            root = alias.name.split(".")[0]
            if root == "random":
                self.random_aliases.add(bound)
            elif root == "numpy":
                self.numpy_aliases.add(bound)
            elif root == "time":
                self.time_aliases.add(bound)
            elif root == "datetime":
                self.datetime_aliases.add(bound)
            self.facts.imports.append(ImportBinding(
                name=bound,
                orig_name=alias.name,
                module=alias.name,
                root=root,
                line=node.lineno,
                col=node.col_offset,
                is_from=False,
                redundant_alias=alias.asname is not None and alias.asname == alias.name,
                type_checking=self._type_checking_depth > 0,
            ))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if module == "__future__":
                continue
            if root == "time" and alias.name in WALLCLOCK_TIME_ATTRS:
                self.wallclock_names.add(bound)
            elif root == "datetime" and alias.name in ("datetime", "date"):
                self.datetime_aliases.add(bound)
            self.facts.imports.append(ImportBinding(
                name=bound,
                orig_name=alias.name,
                module=module,
                root=root,
                line=node.lineno,
                col=node.col_offset,
                is_from=True,
                redundant_alias=alias.asname is not None and alias.asname == alias.name,
                type_checking=self._type_checking_depth > 0,
                level=node.level or 0,
            ))
        self.generic_visit(node)

    # ---------------------------------------------------------- name uses
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts.used_names.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else None
        base_is_self = base_name in ("self", "cls")
        datetime_chain: Optional[Tuple[str, str]] = None
        random_alias_base = False
        numpy_random = False
        time_wallclock = False
        datetime_wallclock = False
        if base_name is not None:
            random_alias_base = base_name in self.random_aliases
            numpy_random = base_name in self.numpy_aliases and node.attr == "random"
            time_wallclock = (
                base_name in self.time_aliases
                and node.attr in WALLCLOCK_TIME_ATTRS
            )
            datetime_wallclock = (
                base_name in self.datetime_aliases
                and node.attr in WALLCLOCK_DATETIME_ATTRS
            )
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in self.datetime_aliases
            and node.attr in WALLCLOCK_DATETIME_ATTRS
        ):
            datetime_chain = (base.value.id, base.attr)
        interesting = (
            node.attr.startswith("_")
            or random_alias_base or numpy_random or time_wallclock
            or datetime_wallclock or datetime_chain is not None
        )
        if interesting:
            self.facts.attr_events.append(AttrEvent(
                line=node.lineno,
                col=node.col_offset,
                attr=node.attr,
                is_store=isinstance(node.ctx, ast.Store),
                base_is_self=base_is_self,
                base_name=base_name,
                random_alias_base=random_alias_base,
                numpy_random=numpy_random,
                time_wallclock=time_wallclock,
                datetime_wallclock=datetime_wallclock,
                datetime_chain=datetime_chain,
            ))
        if (
            node.attr.startswith("_")
            and not node.attr.startswith("__")
            and base_is_self
            and isinstance(node.ctx, ast.Store)
        ):
            self.facts.private_attr_defs.add(node.attr)
        self.generic_visit(node)

    # ---------------------------------------------------------------- calls
    @staticmethod
    def _stream_name_head(arg: ast.expr) -> Optional[str]:
        """The literal head of a stream-name argument, if statically known.

        Plain string constants yield themselves; f-strings yield their
        leading literal chunk (enough to judge a ``fault:``/``fuzz:``
        namespace prefix); anything dynamic yields None.
        """
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                return head.value
        return None

    def _stream_call_literal(self, node: ast.Call) -> Optional[str]:
        """The literal stream-name head of a ``streams.get``-style call."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "uniform_slots")
        ):
            return None
        owner = func.value
        owner_is_streams = (
            (isinstance(owner, ast.Attribute) and owner.attr == "streams")
            or (isinstance(owner, ast.Name) and owner.id == "streams")
        )
        if not owner_is_streams or not node.args:
            return None
        return self._stream_name_head(node.args[0])

    def _note_callback_registration(self, node: ast.Call) -> None:
        """Record callbacks handed to the kernel (or a Timer/builder)."""
        func = node.func
        callback_arg: Optional[ast.expr] = None
        if isinstance(func, ast.Attribute):
            if func.attr in ("schedule", "at") and len(node.args) >= 2:
                callback_arg = node.args[1]
            elif func.attr == "call_soon" and node.args:
                callback_arg = node.args[0]
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "Timer" and len(node.args) >= 2:
            callback_arg = node.args[1]
        if isinstance(callback_arg, ast.Attribute):
            self.facts.callback_names.add(callback_arg.attr)
        elif isinstance(callback_arg, ast.Name):
            self.facts.callback_names.add(callback_arg.id)

    @staticmethod
    def _receiver_is_simulator(func: ast.Attribute) -> bool:
        owner = func.value
        if isinstance(owner, ast.Name):
            return owner.id in ("sim", "simulator", "kernel")
        if isinstance(owner, ast.Attribute):
            return owner.attr in ("sim", "simulator", "kernel")
        return False

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        func_name = func.id if isinstance(func, ast.Name) else None
        func_attr = func.attr if isinstance(func, ast.Attribute) else None
        object_setattr = (
            func_attr == "__setattr__"
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        )
        sim_run_call = (
            func_attr == "run"
            and isinstance(func, ast.Attribute)
            and self._receiver_is_simulator(func)
        )
        at_constant_time = (
            func_attr == "at"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, (int, float))
            and not isinstance(node.args[0].value, bool)
        )
        stream_literal = self._stream_call_literal(node)
        self.facts.call_events.append(CallEvent(
            line=node.lineno,
            col=node.col_offset,
            func_name=func_name,
            func_attr=func_attr,
            enclosing_function=self._enclosing,
            wallclock_name=func_name in self.wallclock_names
            if func_name is not None else False,
            is_print=func_name == "print",
            fault_private_universe=func_name == "RandomStreams",
            fault_stream_violation=(
                stream_literal is not None
                and not stream_literal.startswith("fault:")
            ),
            fuzz_stream_call=(
                stream_literal is not None
                and stream_literal.startswith("fuzz:")
            ),
            object_setattr=object_setattr,
            sim_run_call=sim_run_call,
            at_constant_time=at_constant_time,
        ))
        self._note_callback_registration(node)
        # sum()/math.fsum() directly over an unordered set.
        is_sum = func_name == "sum" or func_attr == "fsum"
        if is_sum and node.args:
            arg = node.args[0]
            unordered = self._set_like(arg)
            if not unordered and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                unordered = any(
                    self._set_like(gen.iter) for gen in arg.generators
                )
            if unordered:
                self.facts.iteration_events.append(IterationEvent(
                    line=node.lineno, col=node.col_offset,
                    reason="float-sum",
                    detail="sum over an unordered set",
                ))
        self.generic_visit(node)

    # ------------------------------------------------- mutable defaults
    def _check_defaults(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.facts.default_events.append(DefaultEvent(
                    line=default.lineno, col=default.col_offset,
                    literal_kind=type(default).__name__.lower(), call_name=None,
                ))
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_CALLS
            ):
                self.facts.default_events.append(DefaultEvent(
                    line=default.lineno, col=default.col_offset,
                    literal_kind=None, call_name=default.func.id,
                ))

    def _visit_function(self, node: Any) -> None:
        self._check_defaults(node.args)
        self._function_stack.append(node.name)
        bindings: Dict[str, str] = {}
        set_vars: Set[str] = set()
        all_args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in all_args:
            cls = self._annotation_class(arg.annotation)
            if cls is not None:
                bindings[arg.arg] = cls
            if self._annotation_is_set(arg.annotation):
                set_vars.add(arg.arg)
        self._binding_stack.append(bindings)
        self._set_vars_stack.append(set_vars)
        self.generic_visit(node)
        self._set_vars_stack.pop()
        self._binding_stack.pop()
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(_is_frozen_dataclass_decorator(dec) for dec in node.decorator_list):
            self.facts.frozen_classes.add(node.name)
        self.generic_visit(node)

    # ------------------------------------------------------- assignments
    def _track_binding(self, target: ast.expr, value: Optional[ast.expr],
                       annotation: Optional[ast.expr] = None) -> None:
        if not isinstance(target, ast.Name):
            return
        scope_bindings = self._binding_stack[-1]
        scope_sets = self._set_vars_stack[-1]
        if annotation is not None:
            cls = self._annotation_class(annotation)
            if cls is not None:
                scope_bindings[target.id] = cls
            if self._annotation_is_set(annotation):
                scope_sets.add(target.id)
                return
        if value is None:
            return
        if self._set_like(value):
            scope_sets.add(target.id)
            scope_bindings.pop(target.id, None)
            return
        ctor = self._constructor_name(value)
        if ctor is not None:
            scope_bindings[target.id] = ctor
            scope_sets.discard(target.id)
        else:
            scope_bindings.pop(target.id, None)
            scope_sets.discard(target.id)

    def _lookup_binding(self, name: str) -> Optional[str]:
        for frame in reversed(self._binding_stack):
            if name in frame:
                return frame[name]
        return None

    def _check_frozen_write(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        if not isinstance(base, ast.Name) or base.id in ("self", "cls"):
            return
        cls = self._lookup_binding(base.id)
        if cls is None:
            return
        self.facts.frozen_writes.append(FrozenWriteEvent(
            line=target.lineno, col=target.col_offset,
            var=base.id, class_name=cls, attr=target.attr,
            enclosing_function=self._enclosing,
        ))

    def _check_now_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and target.attr == "_now":
            self.facts.now_assigns.append(
                (target.lineno, target.col_offset, self._enclosing)
            )

    def _check_counter_dict(self, node: ast.Assign) -> None:
        """``d[k] = d.get(k, 0) + n`` — a hand-rolled counter."""
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        value = node.value
        if not isinstance(target, ast.Subscript) or not isinstance(value, ast.BinOp):
            return
        if not isinstance(value.op, ast.Add):
            return
        for side in (value.left, value.right):
            if (
                isinstance(side, ast.Call)
                and isinstance(side.func, ast.Attribute)
                and side.func.attr == "get"
                and len(side.args) == 2
                and isinstance(side.args[1], ast.Constant)
                and side.args[1].value == 0
                and ast.dump(side.func.value) == ast.dump(target.value)
            ):
                self.facts.counter_dicts.append((node.lineno, node.col_offset))
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_now_target(target)
            self._check_frozen_write(target)
            if len(node.targets) == 1:
                self._track_binding(target, node.value)
        self._check_counter_dict(node)
        self._collect_all(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_now_target(node.target)
        self._check_frozen_write(node.target)
        self._track_binding(node.target, node.value, node.annotation)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_now_target(node.target)
        self._check_frozen_write(node.target)
        self.generic_visit(node)

    def _collect_all(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "__all__"):
            return
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    self.facts.all_names.append(element.value)

    # ---------------------------------------------------------- iteration
    def _body_order_sensitivity(self, body: List[ast.stmt]) -> Optional[str]:
        """Why iterating this body in arbitrary order would diverge."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub)
                ):
                    return "accumulation"
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ) and node.func.attr in _SCHEDULE_ATTRS:
                    return "scheduling"
        return None

    def visit_For(self, node: ast.For) -> None:
        if self._set_like(node.iter):
            reason = self._body_order_sensitivity(node.body)
            if reason is not None:
                self.facts.iteration_events.append(IterationEvent(
                    line=node.lineno, col=node.col_offset,
                    reason=reason,
                    detail=f"loop body performs {reason}",
                ))
        self.generic_visit(node)

    # ------------------------------------------------------------ strings
    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.facts.string_constants.append(node.value)
        self.generic_visit(node)


def extract_facts(source: str, path: str = "<string>") -> ModuleFacts:
    """Parse ``source`` and run the fact-collection traversal.

    Raises :class:`SyntaxError` on unparseable source — the engine maps
    that to a REPRO100 finding, exactly like the legacy pass.
    """
    normalized = path.replace("\\", "/")
    tree = ast.parse(source, filename=path)
    facts = ModuleFacts(
        path=path,
        normalized=normalized,
        rel=classify_module(normalized),
        package=module_package(normalized),
        is_rng_module=normalized.endswith("sim/rng.py"),
        is_kernel_module=normalized.endswith("sim/kernel.py"),
        is_phy_module="/phy/" in normalized or normalized.startswith("phy/"),
        is_telemetry_module=(
            "/obs/" in normalized
            or normalized.startswith("obs/")
            or normalized.endswith("cli.py")
        ),
        is_fault_module="/fault/" in normalized or normalized.startswith("fault/"),
        is_diff_module=(
            "/verify/diff/" in normalized
            or normalized.startswith("verify/diff/")
        ),
        is_init_module=normalized.endswith("__init__.py"),
    )
    _FactsVisitor(facts).visit(tree)
    return facts
