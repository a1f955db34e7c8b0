"""Conservative attribute access analysis over method bodies.

The analysis answers, for one method: which attributes of ``self`` may
be read, and which may be written, on *any* control path?  Per the
paper's footnote 4, run-time values can alter control flow, so exact
prediction is impossible; the analysis therefore unions over all paths
(a branch only taken rarely still contributes its accesses).

Rules:

* ``self.x`` in load context        -> read of ``x``
* ``self.x = ...`` / ``del self.x`` -> write of ``x``
* ``self.x += ...``                 -> read and write of ``x``
* ``self.x[i]`` load / store        -> read / write of ``x`` (whole
  attribute: element indices are run-time values)

On top of the read/write sets the analysis classifies *blind
increments*: attributes accessed **only** through ``+=`` / ``-=`` on
``self.x`` itself (never loaded, stored, deleted, or subscripted
anywhere on any path, including transitively called helpers).  Such
updates commute with each other — the basis for the semantic lock
modes of :mod:`repro.analysis.commutativity`.  Any other access to the
attribute demotes it back to an ordinary read/write.
* ``self.m(...)`` where ``m`` is another method of the same class
  -> union of ``m``'s access sets (transitively, cycles handled)
* ``getattr(self, ...)`` / ``setattr(self, ...)`` / ``vars(self)`` or
  any other escape of bare ``self`` -> conservatively *all* attributes
  (read and, for setattr/escape, written)

If the source of a method cannot be obtained (e.g. a lambda built at
run time or a C callable), the analysis degrades to ALL_ATTRIBUTES on
both sets, which is always safe.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Set, Union


class _AllAttributes:
    """Sentinel meaning "every attribute of the class" (top element)."""

    _instance: Optional["_AllAttributes"] = None

    def __new__(cls) -> "_AllAttributes":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL_ATTRIBUTES"


ALL_ATTRIBUTES = _AllAttributes()

AttrSet = Union[FrozenSet[str], _AllAttributes]


def _union(a: AttrSet, b: AttrSet) -> AttrSet:
    if a is ALL_ATTRIBUTES or b is ALL_ATTRIBUTES:
        return ALL_ATTRIBUTES
    return frozenset(a) | frozenset(b)


@dataclass(frozen=True)
class AccessSets:
    """Result of analyzing one method: may-read and may-write sets.

    ``increments`` is the subset of ``writes`` accessed *only* as blind
    ``+=``/``-=`` increments (always concrete — never the ALL
    sentinel).  ``exact`` records whether the analysis ran to
    completion; unlike the structural :attr:`is_exact` it is sticky
    through :meth:`resolve` (which erases the ALL sentinel), so the
    commutativity trust tiers can still see that a method degraded.
    """

    reads: AttrSet
    writes: AttrSet
    increments: FrozenSet[str] = frozenset()
    exact: bool = True

    @property
    def accessed(self) -> AttrSet:
        """Everything the method may touch (reads union writes)."""
        return _union(self.reads, self.writes)

    @property
    def is_exact(self) -> bool:
        """False while a set still carries the ALL sentinel."""
        return (self.reads is not ALL_ATTRIBUTES
                and self.writes is not ALL_ATTRIBUTES)

    def resolve(self, all_names) -> "AccessSets":
        """Replace the ALL sentinel with the concrete attribute set."""
        names = frozenset(all_names)
        reads = names if self.reads is ALL_ATTRIBUTES else frozenset(self.reads) & names
        writes = names if self.writes is ALL_ATTRIBUTES else frozenset(self.writes) & names
        return AccessSets(reads=reads, writes=writes,
                          increments=frozenset(self.increments) & names,
                          exact=self.exact and self.is_exact)


_ESCAPE_READ_BUILTINS = {"getattr", "vars", "hasattr"}
_ESCAPE_WRITE_BUILTINS = {"setattr", "delattr"}


class _SelfAccessVisitor(ast.NodeVisitor):
    """Collects attribute accesses on the first parameter (``self``)."""

    def __init__(self, self_name: str):
        self.self_name = self_name
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.called_methods: Set[str] = set()
        self.reads_all = False
        self.writes_all = False
        # Blind-increment classification: attrs updated via +=/-= on
        # ``self.attr`` itself, and attrs *observed* any other way.
        # increments = candidates - observed (composed transitively in
        # analyze_method, so a helper's plain read demotes a caller's
        # increment too).
        self.increment_candidates: Set[str] = set()
        self.observed: Set[str] = set()

    # -- attribute access ----------------------------------------------------

    def _is_self(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == self.self_name

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._is_self(node.value):
            if isinstance(node.ctx, ast.Load):
                self.reads.add(node.attr)
                self.observed.add(node.attr)
            elif isinstance(node.ctx, (ast.Store, ast.Del)):
                self.writes.add(node.attr)
                self.observed.add(node.attr)
        else:
            self.visit(node.value)
        # Never descend into node.value when it is bare self (handled).

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # self.x += v reads and writes x; the Store ctx on the target
        # would otherwise hide the read.
        target = node.target
        if isinstance(target, ast.Attribute) and self._is_self(target.value):
            self.reads.add(target.attr)
            self.writes.add(target.attr)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                # The read feeds only the delta: a blind increment,
                # unless some other access observes the attribute.
                self.increment_candidates.add(target.attr)
            else:
                self.observed.add(target.attr)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and self._is_self(target.value.value)
        ):
            self.reads.add(target.value.attr)
            self.writes.add(target.value.attr)
            # Element-level increments are not tracked (indices are
            # run-time values): the whole attribute counts as observed.
            self.observed.add(target.value.attr)
            self.visit(target.slice)
        else:
            self.visit(target)
        self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # self.x[i] — attribute-level conservatism: the whole of x.
        if isinstance(node.value, ast.Attribute) and self._is_self(node.value.value):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                # Element store also reads the container reference.
                self.reads.add(node.value.attr)
                self.writes.add(node.value.attr)
            else:
                self.reads.add(node.value.attr)
            self.observed.add(node.value.attr)
            self.visit(node.slice)
        else:
            self.generic_visit(node)

    # -- calls ------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _ESCAPE_READ_BUILTINS and any(
                self._is_self(arg) for arg in node.args
            ):
                self.reads_all = True
            if func.id in _ESCAPE_WRITE_BUILTINS and any(
                self._is_self(arg) for arg in node.args
            ):
                self.reads_all = True
                self.writes_all = True
        if isinstance(func, ast.Attribute) and self._is_self(func.value):
            # self.m(...) — resolved against the class's methods later;
            # if m turns out to be a data attribute, the name is also in
            # reads which is the right conservative answer.
            self.called_methods.add(func.attr)
            self.reads.add(func.attr)
            self.observed.add(func.attr)
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # Bare `self` escaping into an expression (passed to a function,
        # stored, returned): anything could happen to it.
        if node.id == self.self_name and isinstance(node.ctx, ast.Load):
            self.reads_all = True
            self.writes_all = True


@dataclass
class _RawAnalysis:
    reads: AttrSet
    writes: AttrSet
    called_methods: FrozenSet[str] = field(default_factory=frozenset)
    # Blind-increment classification, composed across helper calls:
    # increments = increment_candidates - observed.  ``observed`` is
    # ALL_ATTRIBUTES whenever the analysis gave up, which correctly
    # empties the increment set.
    increment_candidates: FrozenSet[str] = frozenset()
    observed: AttrSet = frozenset()


@lru_cache(maxsize=256)
def function_def(func: Callable) -> Optional[ast.FunctionDef]:
    """The first function definition in ``func``'s source, parsed once
    and shared, read-only, by every analysis; None when the source
    cannot be obtained or defines no function."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    except (OSError, TypeError, SyntaxError):
        return None
    return next((
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ), None)


def _analyze_single(func: Callable) -> _RawAnalysis:
    """Analyze one function body, without resolving method calls."""
    func_def = function_def(func)
    if func_def is None:
        return _RawAnalysis(reads=ALL_ATTRIBUTES, writes=ALL_ATTRIBUTES,
                            observed=ALL_ATTRIBUTES)
    params = func_def.args.args
    if not params:
        return _RawAnalysis(reads=frozenset(), writes=frozenset())
    visitor = _SelfAccessVisitor(self_name=params[0].arg)
    for statement in func_def.body:
        visitor.visit(statement)
    reads: AttrSet = ALL_ATTRIBUTES if visitor.reads_all else frozenset(visitor.reads)
    writes: AttrSet = ALL_ATTRIBUTES if visitor.writes_all else frozenset(visitor.writes)
    observed: AttrSet = (
        ALL_ATTRIBUTES if (visitor.reads_all or visitor.writes_all)
        else frozenset(visitor.observed)
    )
    return _RawAnalysis(
        reads=reads, writes=writes,
        called_methods=frozenset(visitor.called_methods),
        increment_candidates=frozenset(visitor.increment_candidates),
        observed=observed,
    )


def analyze_method(func: Callable,
                   class_methods: Optional[Dict[str, Callable]] = None) -> AccessSets:
    """Analyze a method, transitively including same-class helper calls.

    ``class_methods`` maps method names to callables of the same class;
    ``self.m(...)`` unions ``m``'s sets.  Call cycles are handled with a
    standard visited-set fixpoint (each method analyzed once).
    """
    class_methods = class_methods or {}
    memo: Dict[int, _RawAnalysis] = {}

    def raw(f: Callable) -> _RawAnalysis:
        key = id(f)
        if key not in memo:
            memo[key] = _analyze_single(f)
        return memo[key]

    reads: AttrSet = frozenset()
    writes: AttrSet = frozenset()
    candidates: FrozenSet[str] = frozenset()
    observed: AttrSet = frozenset()
    pending = [func]
    visited = set()
    while pending:
        current = pending.pop()
        if id(current) in visited:
            continue
        visited.add(id(current))
        result = raw(current)
        reads = _union(reads, result.reads)
        writes = _union(writes, result.writes)
        candidates = candidates | result.increment_candidates
        observed = _union(observed, result.observed)
        for name in result.called_methods:
            callee = class_methods.get(name)
            if callee is not None:
                pending.append(callee)
            # Unknown self.<name>(...) targets already contributed
            # `name` to the read set; a data attribute called as a
            # function is a user bug, not an analysis hole.
    if observed is ALL_ATTRIBUTES:
        increments: FrozenSet[str] = frozenset()
    else:
        increments = candidates - frozenset(observed)
    exact = reads is not ALL_ATTRIBUTES and writes is not ALL_ATTRIBUTES
    return AccessSets(reads=reads, writes=writes, increments=increments,
                      exact=exact)
