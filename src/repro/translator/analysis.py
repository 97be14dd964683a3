"""Inter-loop and intra-kernel dependence/access analysis.

OP2 loops declare how they access every dat; from the sequence of loop sites
the translator can therefore build the read-after-write / write-after-read /
write-after-write dependence graph between loops.  This is the static half of
the paper's design: the dependence graph decides which loops *may* be
interleaved by the HPX backend (independent loops run concurrently; dependent
loops overlap at chunk granularity).

:func:`analyse_kernel` is the same idea one layer down: it classifies how a
parsed kernel (:class:`~repro.translator.ir.KernelIR`) touches each of its
parameters -- read, written, or both -- which the slab emitter cross-checks
against the loop's declared access modes before compiling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TranslatorError, TranslatorLoweringError
from repro.translator.ir import KernelIR, ProgramIR

__all__ = [
    "Dependence",
    "LoopDependenceGraph",
    "analyse_dependences",
    "KernelAccessAnalysis",
    "analyse_kernel",
]


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between two loop sites (indices into program order)."""

    producer: int
    consumer: int
    dat: str
    kind: str  # "raw", "war" or "waw"

    def __post_init__(self) -> None:
        if self.kind not in {"raw", "war", "waw"}:
            raise TranslatorError(f"unknown dependence kind {self.kind!r}")
        if self.producer >= self.consumer:
            raise TranslatorError("dependences must point forward in program order")


@dataclass
class LoopDependenceGraph:
    """Dependence edges between the loops of one program."""

    program: ProgramIR
    edges: list[Dependence] = field(default_factory=list)

    def dependences_of(self, consumer: int) -> list[Dependence]:
        """All edges whose consumer is the given loop index."""
        return [edge for edge in self.edges if edge.consumer == consumer]

    def producers_of(self, consumer: int) -> set[int]:
        """Indices of loops the given loop directly depends on."""
        return {edge.producer for edge in self.dependences_of(consumer)}

    def independent_pairs(self) -> list[tuple[int, int]]:
        """Pairs of loops with no direct dependence in either direction.

        These are the loops the paper says "can be executed without waiting
        for the previous loops to complete their tasks".
        """
        dependent = {(e.producer, e.consumer) for e in self.edges}
        pairs = []
        count = len(self.program.loops)
        for a in range(count):
            for b in range(a + 1, count):
                if (a, b) not in dependent:
                    pairs.append((a, b))
        return pairs

    def critical_chain(self) -> list[int]:
        """The longest chain of directly dependent loops (by loop count)."""
        count = len(self.program.loops)
        best: list[list[int]] = [[i] for i in range(count)]
        for consumer in range(count):
            for producer in self.producers_of(consumer):
                candidate = best[producer] + [consumer]
                if len(candidate) > len(best[consumer]):
                    best[consumer] = candidate
        return max(best, key=len) if best else []


# ---------------------------------------------------------------------------
# Intra-kernel access analysis
# ---------------------------------------------------------------------------
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


def _last_writer(history: dict[str, int], dat: str) -> Optional[int]:
    return history.get(dat)


def analyse_dependences(program: ProgramIR) -> LoopDependenceGraph:
    """Build the loop dependence graph of a parsed program.

    The analysis walks the loops in program order keeping, per dat, the index
    of the last loop that wrote it and the indices of loops that have read it
    since; RAW, WAR and WAW edges are emitted accordingly.  Increment-on-
    increment (two consecutive loops both using ``OP_INC`` on the same dat)
    does **not** create an edge, matching the interleaving rules of the
    runtime (increments commute).
    """
    graph = LoopDependenceGraph(program=program)
    last_writer: dict[str, int] = {}
    last_writer_was_inc: dict[str, bool] = {}
    readers_since_write: dict[str, list[int]] = {}

    def add_edge(producer: int, consumer: int, dat: str, kind: str) -> None:
        if producer == consumer:
            return
        edge = Dependence(producer=producer, consumer=consumer, dat=dat, kind=kind)
        if edge not in graph.edges:
            graph.edges.append(edge)

    for index, loop in enumerate(program.loops):
        for arg in loop.args:
            if arg.is_global:
                continue
            dat = arg.dat
            writer = _last_writer(last_writer, dat)
            if arg.reads and not arg.access == "OP_INC":
                if writer is not None:
                    add_edge(writer, index, dat, "raw")
            if arg.access == "OP_INC":
                # increments only wait for non-increment producers
                if writer is not None and not last_writer_was_inc.get(dat, False):
                    add_edge(writer, index, dat, "raw")
            if arg.writes:
                for reader in readers_since_write.get(dat, []):
                    add_edge(reader, index, dat, "war")
                if writer is not None and arg.access != "OP_INC":
                    add_edge(writer, index, dat, "waw")
        # second pass: update state after edges are computed
        for arg in loop.args:
            if arg.is_global:
                continue
            dat = arg.dat
            if arg.writes:
                if arg.access == "OP_INC" and last_writer_was_inc.get(dat, False):
                    # extend the accumulation; keep the earliest writer index
                    pass
                else:
                    last_writer[dat] = index
                    last_writer_was_inc[dat] = arg.access == "OP_INC"
                    readers_since_write[dat] = []
            elif arg.reads:
                readers_since_write.setdefault(dat, []).append(index)
    return graph
