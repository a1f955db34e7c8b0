"""Static analysis of sub-transaction invocations.

Section 5.1: "Just as we can conservatively predict which parts of an
object a method may access, we can also predict which other objects a
given method may invoke methods on.  This information can then be used
to permit optimistic pre-acquisition of locks in the GDO as well as
pre-fetching of needed objects."

The *which objects* half is a run-time question (targets are handles
flowing through arguments); the *whether and what* half is static:
this module finds every ``ctx.invoke(target, "name", ...)`` in a
method body and reports the set of literal method names invoked — or
:data:`UNKNOWN_INVOCATIONS` when a name is computed at run time.  A
method proven to invoke nothing lets the prefetcher skip its (pure
overhead) pre-acquisition round trips entirely.
"""

from __future__ import annotations

import ast
import inspect
from typing import Callable, FrozenSet, Union

from repro.analysis.ast_analysis import function_def


class _UnknownInvocations:
    """Sentinel: the method may invoke, but names are not static."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN_INVOCATIONS"


UNKNOWN_INVOCATIONS = _UnknownInvocations()

InvocationSet = Union[FrozenSet[str], _UnknownInvocations]


class _InvokeVisitor(ast.NodeVisitor):
    def __init__(self, ctx_name: str):
        self.ctx_name = ctx_name
        self.names = set()
        self.unknown = False

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "invoke"
            and isinstance(func.value, ast.Name)
            and func.value.id == self.ctx_name
        ):
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                self.names.add(node.args[1].value)
            else:
                self.unknown = True
        self.generic_visit(node)


def analyze_invocations(func: Callable) -> InvocationSet:
    """Method names this function may invoke as sub-transactions.

    Returns a frozenset of literal names, or UNKNOWN_INVOCATIONS when
    the source is unavailable or an invocation's method name is
    computed.  Non-generator functions cannot suspend and therefore
    cannot invoke: they always return the empty set.
    """
    if not inspect.isgeneratorfunction(func):
        return frozenset()
    func_def = function_def(func)
    if func_def is None:
        return UNKNOWN_INVOCATIONS
    params = func_def.args.args
    if len(params) < 2:
        return frozenset()
    visitor = _InvokeVisitor(ctx_name=params[1].arg)
    for statement in func_def.body:
        visitor.visit(statement)
    if visitor.unknown:
        return UNKNOWN_INVOCATIONS
    return frozenset(visitor.names)


def may_invoke(invocations: InvocationSet) -> bool:
    """True unless the analysis proved the method invokes nothing."""
    if invocations is UNKNOWN_INVOCATIONS:
        return True
    return bool(invocations)


def invocation_names(invocations: InvocationSet) -> tuple:
    """Stable, serializable rendering of an invocation set.

    Used by the commutativity-table artifact: a sorted name tuple, or
    ``("?",)`` when the set is :data:`UNKNOWN_INVOCATIONS` or was never
    analyzed (the table must still record that the method *may*
    invoke)."""
    if invocations is None or invocations is UNKNOWN_INVOCATIONS:
        return ("?",)
    return tuple(sorted(invocations))
