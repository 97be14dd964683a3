"""Intra-kernel access analysis.

:func:`analyse_kernel` classifies how a parsed kernel
(:class:`~repro.translator.ir.KernelIR`) touches each of its parameters --
read, written, or both -- which the slab emitter cross-checks against the
loop's declared access modes before compiling, and the block-form lowering
uses to tell stores from reads.  Which loops may overlap is not decided
here: the runtime's tracker derives it from every loop's declared accesses
as the loop is issued (:mod:`repro.core.interleaving`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.errors import TranslatorError, TranslatorLoweringError
from repro.translator.ir import KernelIR

__all__ = ["KernelAccessAnalysis", "analyse_kernel"]


@dataclass(frozen=True)
class KernelAccessAnalysis:
    """How one parsed kernel touches each of its parameters."""

    kernel: str
    params: tuple[str, ...]
    reads: frozenset[str]
    writes: frozenset[str]

    def access_of(self, param: str) -> str:
        """Classification of one parameter: ``read``/``write``/``rw``/``unused``."""
        if param not in self.params:
            raise TranslatorError(f"{param!r} is not a parameter of kernel {self.kernel!r}")
        reads = param in self.reads
        writes = param in self.writes
        if reads and writes:
            return "rw"
        if writes:
            return "write"
        if reads:
            return "read"
        return "unused"


class _AccessVisitor(ast.NodeVisitor):
    """Collect per-parameter read/write sets from a kernel's canonical AST.

    Writes flow through subscript stores (``out[0] = ...``, ``acc[i] += ...``);
    a bare rebind of a parameter name would silently sever the aliasing the
    slab convention depends on, so it is rejected outright.
    """

    def __init__(
        self,
        kernel_name: str,
        params: tuple[str, ...],
        helpers: dict[str, tuple[tuple[str, ...], "KernelAccessAnalysis"]],
    ) -> None:
        self.kernel_name = kernel_name
        self.params = set(params)
        self.helpers = helpers
        self.reads: set[str] = set()
        self.writes: set[str] = set()

    def _root_name(self, node: ast.expr) -> Optional[str]:
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _reject_rebind(self, name: str) -> None:
        if name in self.params:
            raise TranslatorLoweringError(
                f"kernel {self.kernel_name!r} rebinds parameter {name!r}; "
                "kernels must write through subscripts so argument aliasing survives"
            )

    def _handle_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store(element)
        elif isinstance(target, ast.Name):
            self._reject_rebind(target.id)
        elif isinstance(target, ast.Subscript):
            root = self._root_name(target)
            if root in self.params:
                self.writes.add(root)
                # index expressions are still reads; skip the root name itself
                node: ast.expr = target
                while isinstance(node, ast.Subscript):
                    self.visit(node.slice)
                    node = node.value
            else:
                self.visit(target)
        else:
            self.visit(target)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if node.id in self.params:
                self.reads.add(node.id)
        else:
            self._reject_rebind(node.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_store(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript):
            root = self._root_name(target)
            if root in self.params:
                self.reads.add(root)
                self.writes.add(root)
                walk: ast.expr = target
                while isinstance(walk, ast.Subscript):
                    self.visit(walk.slice)
                    walk = walk.value
            else:
                self.visit(target)
        elif isinstance(target, ast.Name):
            self._reject_rebind(target.id)
        else:
            self.visit(target)
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        self._handle_store(node.target)
        self.visit(node.iter)
        for statement in node.body + node.orelse:
            self.visit(statement)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.helpers:
            helper_params, helper_analysis = self.helpers[func.id]
            for helper_param, argument in zip(helper_params, node.args):
                root = self._root_name(argument)
                if root in self.params and isinstance(argument, ast.Name):
                    # propagate the helper's classification instead of
                    # conservatively marking the bare name as read
                    if helper_param in helper_analysis.reads:
                        self.reads.add(root)
                    if helper_param in helper_analysis.writes:
                        self.writes.add(root)
                else:
                    self.visit(argument)
        else:
            self.visit(func)
            for argument in node.args:
                self.visit(argument)


def _function_def(ir: KernelIR) -> ast.FunctionDef:
    tree = ast.parse(ir.source)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    raise TranslatorError(f"kernel IR {ir.name!r} holds no function definition")


def analyse_kernel(ir: KernelIR) -> KernelAccessAnalysis:
    """Classify how a parsed kernel reads/writes each of its parameters.

    Helper calls propagate their own analysis: a parameter forwarded by name
    to a helper inherits exactly the helper's classification for that slot.
    The slab emitter cross-checks the result against the loop's declared
    access modes -- a kernel that writes a parameter declared ``READ`` is a
    lowering error, not a silent miscompile.
    """
    helpers: dict[str, tuple[tuple[str, ...], KernelAccessAnalysis]] = {}
    for helper in ir.helpers:
        helpers[helper.func_name] = (helper.params, analyse_kernel(helper))
    func = _function_def(ir)
    visitor = _AccessVisitor(ir.name, ir.params, helpers)
    for statement in func.body:
        visitor.visit(statement)
    return KernelAccessAnalysis(
        kernel=ir.name,
        params=ir.params,
        reads=frozenset(visitor.reads),
        writes=frozenset(visitor.writes),
    )
