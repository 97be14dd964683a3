"""Block forms generated from a kernel's elemental source.

:func:`block_form` lowers the :class:`~repro.translator.ir.KernelIR` of an
elemental kernel to a NumPy function with the block-form convention of
:meth:`repro.op2.par_loop.ParLoop._prepare_vectorized` -- ``f(_idx,
*views)`` -- that writes every temporary into the calling thread's scratch
(:func:`repro.op2.datapath.kernel_scratch`) as ``np.<ufunc>(..., out=slot)``,
so a sub-block allocates nothing.  The lowering, statement by statement:

* a dat argument's ``x[k]`` becomes the column view ``x[:, k]``; the kind of
  an argument comes from its view's rank -- ``(rows, dim)`` for a dat,
  ``(dim,)`` for a global -- so no loop signature is needed: the code for
  each combination of ranks is generated on its first call;
* a local becomes a scratch vector, whose slot is reused after the local's
  last use; a local that depends on no row stays a Python value;
* ``for k in range(constant)`` is unrolled;
* a row-dependent ``if`` or early ``return`` becomes a mask: every
  operation under it, stores included, carries ``where=mask``, and a local
  assigned under it is merged into its previous value;
* ``g[k] += e`` and ``g[k] = max(g[k], e)`` / ``min(...)`` on a global
  become block reductions; any other store to a global is refused;
* helper calls are inlined.

Every operation keeps the elemental expression tree -- operands, operators,
association -- so a dat comes out bit-identical to elemental execution; an
INC global is summed per block (equal to rounding), MIN/MAX exactly.  A
construct outside this subset raises
:class:`~repro.errors.TranslatorLoweringError` when the block form is built
(the build lowers the kernel once with every argument a dat); a store to a
global other than the two reductions raises on the first call that passes a
global there.

:func:`host_stub` gives a loop the *host stub* OP2's translator emits per
``op_par_loop`` (Figs 8-9): per argument signature (``OpArg.code`` letters)
one straight-line ``stub(stage, start, stop, *args)`` -- views of rows
``[start, stop)`` (INC staging column-major, as on the generic path), the
specialised block form, then commits and folds
through :mod:`repro.op2.datapath` in the generic path's order, so no dat
changes by a bit; with a ``stage`` it hands the effects over instead.
:func:`render_stub` is its source, which the program translator prints.
"""

from __future__ import annotations

import ast
import builtins
import heapq
import importlib
import operator
from functools import partial
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.errors import TranslatorLoweringError
from repro.op2.access import AccessMode
from repro.op2.datapath import (
    fold_reduction,
    gather_rows,
    kernel_scratch,
    neutral,
    stage_scatter_add,
)
from repro.translator.analysis import _function_def, analyse_kernel
from repro.translator.ir import KernelIR
from repro.translator.parser import parse_kernel

__all__ = ["BlockForm", "block_form", "host_stub", "render_stub"]


class _Uni:
    """A value no row changes: Python source text, and the value itself when
    it is known at generation time (``const``)."""

    __slots__ = ("text", "const")

    def __init__(self, text: str, const: Any = None, known: bool = False) -> None:
        self.text = text
        self.const = const if known else _UNKNOWN


_UNKNOWN = object()


class _Col:
    """Column ``index`` of a dat argument: the view ``param[:, index]``."""

    __slots__ = ("param", "index")

    def __init__(self, param: str, index: int) -> None:
        self.param = param
        self.index = index


class _Arg:
    """A whole argument: rank 2 for a dat, rank 1 for a global."""

    __slots__ = ("param", "rank")

    def __init__(self, param: str, rank: int) -> None:
        self.param = param
        self.rank = rank


class _Vec:
    """A per-row work vector; mapped to a scratch slot after lowering."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind  # "f": float64, "b": bool


_Value = Union[_Uni, _Col, _Arg, _Vec]

#: what a block where every row has returned continues with
_DEAD = object()


class _Instr:
    """One generated line: text pieces and the vectors among them."""

    __slots__ = ("parts", "vecs", "mask")

    def __init__(self, parts: list[Any], mask: Optional[_Vec] = None) -> None:
        self.parts = parts
        self.vecs = list(dict.fromkeys(p for p in parts if isinstance(p, _Vec)))
        #: the ``where=`` mask: the output never takes its slot (the other
        #: operands' slots are fair game -- ufuncs are elementwise)
        self.mask = mask


_SYMBOLS: dict[type, str] = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitOr: "|",
    ast.BitXor: "^", ast.BitAnd: "&", ast.MatMult: "@",
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.USub: "-", ast.UAdd: "+", ast.Not: "not ", ast.Invert: "~",
    ast.And: "and", ast.Or: "or",
}
_BINARY_UFUNCS: dict[type, str] = {
    ast.Add: "add", ast.Sub: "subtract", ast.Mult: "multiply", ast.Div: "divide",
    ast.Pow: "power",
}
_COMPARE_UFUNCS: dict[type, str] = {
    ast.Eq: "equal", ast.NotEq: "not_equal", ast.Lt: "less", ast.LtE: "less_equal",
    ast.Gt: "greater", ast.GtE: "greater_equal",
}
#: (module, function) -> ufunc, for calls on row values
_MODULE_UFUNCS: dict[tuple[str, str], str] = {
    ("math", "sqrt"): "sqrt", ("numpy", "sqrt"): "sqrt",
    ("math", "fabs"): "fabs", ("numpy", "fabs"): "fabs",
    ("numpy", "abs"): "absolute", ("numpy", "absolute"): "absolute",
}


def _all_helpers(ir: KernelIR) -> dict[str, KernelIR]:
    helpers: dict[str, KernelIR] = {}
    for helper in ir.helpers:
        helpers.update(_all_helpers(helper))
        helpers[helper.func_name] = helper
    return helpers


class _Lowering:
    """One kernel lowered for one combination of argument ranks."""

    def __init__(self, ir: KernelIR, ranks: tuple[int, ...]) -> None:
        self.ir = ir
        if len(ranks) != len(ir.params):
            raise TranslatorLoweringError(
                f"kernel {ir.name!r} takes {len(ir.params)} arguments, got {len(ranks)} views"
            )
        if any(rank not in (1, 2) for rank in ranks):
            raise TranslatorLoweringError(
                f"kernel {ir.name!r}: a view is (rows, dim) for a dat or (dim,) for a "
                f"global, got ranks {ranks}"
            )
        self.constants = ir.all_constants()
        self.modules = ir.all_modules()
        self.helpers = _all_helpers(ir)
        self.namespace: dict[str, Any] = {
            **self.constants,
            **{alias: importlib.import_module(name) for alias, name in self.modules.items()},
        }
        writes = analyse_kernel(ir).writes
        #: globals the kernel writes: reduction targets, never read otherwise
        self.reduced = {p for p, r in zip(ir.params, ranks) if r == 1 and p in writes}
        self.taken = {*ir.params, *self.constants, *self.modules, *self.helpers}
        self.np = self.fresh("_np")
        self.scratch = self.fresh("_scratch")
        self.idx = self.fresh("_idx")
        self.name = self.fresh(f"{ir.func_name}_block")
        self.instrs: list[_Instr] = []
        self.columns: dict[tuple[str, int], str] = {}
        env: dict[str, _Value] = {p: _Arg(p, r) for p, r in zip(ir.params, ranks)}
        self.envs = [env]
        self.block(_function_def(ir).body, env, None)

    # -- helpers ---------------------------------------------------------------------
    def fail(self, node: Optional[ast.AST], what: str) -> None:
        where = f": `{ast.unparse(node)}`" if node is not None else ""
        raise TranslatorLoweringError(
            f"kernel {self.ir.name!r}: {what} cannot be lowered to a block form{where}"
        )

    def fresh(self, base: str) -> str:
        name = base
        while name in self.taken:
            name += "_"
        self.taken.add(name)
        return name

    def uniform(self, text: str, parts: list[_Uni]) -> _Uni:
        """A uniform value; evaluated now when every part is known now."""
        if all(part.const is not _UNKNOWN for part in parts):
            try:
                value = eval(text, dict(self.namespace, __builtins__=builtins))  # noqa: S307
            except Exception:  # the kernel raises at run time, as the elemental would
                return _Uni(text)
            return _Uni(text, value, known=True)
        return _Uni(text)

    def tok(self, value: _Value) -> Any:
        if isinstance(value, _Vec):
            return value
        if isinstance(value, _Uni):
            return value.text
        if isinstance(value, _Col):
            key = (value.param, value.index)
            if key not in self.columns:
                self.columns[key] = self.fresh(f"{value.param}_{value.index}".replace("-", "m"))
            return self.columns[key]
        return value.param

    def emit(self, parts: list[Any], mask: Optional[_Vec] = None) -> None:
        self.instrs.append(_Instr(parts, mask))

    def where(self, active: Optional[_Vec], suffix: str = "") -> list[Any]:
        return [] if active is None else [", where=", active, suffix]

    def ufunc(
        self, name: str, operands: list[_Value], active: Optional[_Vec], kind: str,
        out: Optional[Union[_Vec, _Col]] = None,
    ) -> Union[_Vec, _Col]:
        if any(isinstance(op, _Arg) for op in operands):
            self.fail(None, f"a whole argument as an operand of {name}")
        if out is None:
            out = _Vec(kind)
        parts: list[Any] = [f"{self.np}.{name}("]
        for position, operand in enumerate(operands):
            parts.extend([", "] if position else [])
            parts.append(self.tok(operand))
        self.emit([*parts, ", out=", self.tok(out), *self.where(active), ")"], active)
        return out

    def copy(self, dst: Union[_Vec, _Col], src: _Value, active: Optional[_Vec]) -> None:
        self.emit(
            [f"{self.np}.copyto(", self.tok(dst), ", ", self.tok(src), *self.where(active), ")"],
            active,
        )

    def rows(self, value: _Value, node: ast.AST) -> Union[_Vec, _Col]:
        """``value`` as a per-row vector (a uniform one broadcast)."""
        if isinstance(value, _Uni):
            vec = _Vec("f")
            self.copy(vec, value, None)
            return vec
        if isinstance(value, _Arg):
            self.fail(node, "a whole argument as a value")
        return value  # type: ignore[return-value]

    def is_bound(self, vec: _Vec) -> bool:
        return any(value is vec for env in self.envs for value in env.values())

    def invalidate(self, param: str, index: Optional[int]) -> None:
        """Before a store to ``param[:, index]`` (every column for ``None``),
        copy out the locals that alias it."""
        for env in self.envs:
            for name, value in list(env.items()):
                if isinstance(value, _Col) and value.param == param and index in (
                    None,
                    value.index,
                ):
                    snapshot = _Vec("f")
                    self.copy(snapshot, value, None)
                    env[name] = snapshot

    def const_index(self, node: ast.AST, env: dict, active: Optional[_Vec]) -> int:
        value = self.expr(node, env, active)
        if isinstance(value, (_Vec, _Col)):
            self.fail(node, "a row-dependent subscript")
        if not (
            isinstance(value, _Uni)
            and isinstance(value.const, (int, np.integer))
            and not isinstance(value.const, bool)
        ):
            self.fail(node, "a subscript that is not a compile-time integer")
        return int(value.const)  # type: ignore[union-attr]

    # -- statements ------------------------------------------------------------------
    def block(self, body: list[ast.stmt], env: dict, active: Any) -> Any:
        for statement in body:
            if active is _DEAD:
                break
            active = self.statement(statement, env, active)
        return active

    def statement(self, node: ast.stmt, env: dict, active: Optional[_Vec]) -> Any:
        if isinstance(node, ast.Pass):
            return active
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):  # a docstring
                return active
            if isinstance(node.value, ast.Call):
                self.expr(node.value, env, active)
                return active
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.assign(target.id, node.value, env, active)
                return active
            if isinstance(target, ast.Subscript):
                self.store(target, node.value, None, env, active)
                return active
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                value = ast.BinOp(ast.Name(node.target.id, ast.Load()), node.op, node.value)
                self.assign(node.target.id, value, env, active)
                return active
            if isinstance(node.target, ast.Subscript):
                self.store(node.target, node.value, node.op, env, active)
                return active
        elif isinstance(node, ast.If):
            return self.branch(node, env, active)
        elif isinstance(node, ast.For):
            return self.unroll(node, env, active)
        elif isinstance(node, ast.Return) and env is self.envs[0]:
            if node.value is None or (
                isinstance(node.value, ast.Constant) and node.value.value is None
            ):
                return _DEAD
        self.fail(node, f"a {type(node).__name__.lower()} statement")

    def assign(self, name: str, node: ast.expr, env: dict, active: Optional[_Vec]) -> None:
        bound = env.get(name)
        if active is not None and bound is not None:
            self.merge(name, bound, node, env, active)
            return
        value = self.expr(node, env, active)
        if isinstance(value, _Vec) and self.is_bound(value):
            alias, value = value, _Vec("f")
            self.copy(value, alias, None)
        elif isinstance(value, _Uni) and not (
            value.text.isidentifier() or value.text == repr(value.const)
        ):
            local = self.fresh(f"_{name}")
            self.emit([f"{local} = {value.text}"])
            value = _Uni(local, value.const, known=value.const is not _UNKNOWN)
        elif isinstance(value, _Arg) and value.rank == 1:
            self.fail(node, "an alias of a global argument")
        elif value is None:
            self.fail(node, "the value of a helper that returns nothing")
        env[name] = value

    def merge(self, name: str, bound: _Value, node: ast.expr, env: dict, active: _Vec) -> None:
        """``name = node`` for the rows under ``active``; the others keep ``bound``."""
        boolean = isinstance(node, ast.Compare) or (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
        )
        if isinstance(bound, _Vec) and (bound.kind == "f" or boolean):
            target = bound
        else:
            if isinstance(bound, _Arg) or (
                isinstance(bound, _Uni) and isinstance(bound.const, np.ndarray)
            ):
                self.fail(node, "rebinding an array under a row-dependent branch")
            target = _Vec("f")
            self.copy(target, bound, None)
            env[name] = target
        result = self.expr(node, env, active, out=target)
        if result is not target:
            self.copy(target, result, active)

    def store(
        self, target: ast.Subscript, node: ast.expr, op: Optional[ast.operator],
        env: dict, active: Optional[_Vec],
    ) -> None:
        base = self.expr(target.value, env, active)
        if not isinstance(base, _Arg):
            self.fail(target, "a store into anything but an argument")
        if base.rank == 1:
            self.reduce(base, target, node, op, env, active)
            return
        if isinstance(target.slice, ast.Slice):
            whole = target.slice
            if whole.lower or whole.upper or whole.step or op is not None:
                self.fail(target, "a store to a slice other than x[:] = ...")
            self.invalidate(base.param, None)
            value = self.expr(node, env, active)
            source = [self.tok(value)]
            if isinstance(value, (_Vec, _Col)):
                source.append("[:, None]")  # one value per row, for every column
            where = self.where(active, "[:, None]")
            self.emit([f"{self.np}.copyto({base.param}, ", *source, *where, ")"])
            return
        column = _Col(base.param, self.const_index(target.slice, env, active))
        self.invalidate(column.param, column.index)
        if op is None:
            result = self.expr(node, env, active, out=column)
            if result is not column:
                self.copy(column, result, active)
            return
        ufunc = _BINARY_UFUNCS.get(type(op))
        if ufunc is None:
            self.fail(target, f"the {_SYMBOLS.get(type(op), '?')}= operator")
        value = self.expr(node, env, active)
        self.ufunc(ufunc, [column, value], active, "f", out=column)  # type: ignore[arg-type]

    def reduce(
        self, base: _Arg, target: ast.Subscript, node: ast.expr, op: Optional[ast.operator],
        env: dict, active: Optional[_Vec],
    ) -> None:
        """``g[k] += e`` / ``g[k] = max|min(g[k], e)`` as a reduction over the block."""
        if base.param not in self.reduced:
            self.fail(target, "a store to a global through an alias")
        k = self.const_index(target.slice, env, active)
        slot = f"{base.param}[{k}]"
        if isinstance(op, ast.Add):
            values = self.rows(self.expr(node, env, active), node)
            reduction = f"{slot} += {self.np}.add.reduce("
            self.emit([reduction, self.tok(values), *self.where(active), ")"])
            return
        extreme = None
        if (
            op is None
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min")
            and node.func.id not in env
            and len(node.args) == 2
        ):
            for position, argument in enumerate(node.args):
                if not isinstance(argument, ast.Subscript):
                    continue
                ref = self.expr(argument.value, env, active)
                if (
                    isinstance(ref, _Arg)
                    and ref.param == base.param
                    and self.const_index(argument.slice, env, active) == k
                ):
                    extreme = node.args[1 - position]
        if extreme is None:
            self.fail(target, "a global WRITE other than g[k] += e or g[k] = max/min(g[k], e)")
        ufunc = "maximum" if node.func.id == "max" else "minimum"  # type: ignore[union-attr]
        values = self.rows(self.expr(extreme, env, active), extreme)  # type: ignore[arg-type]
        self.emit(
            [f"{slot} = {self.np}.{ufunc}.reduce(", self.tok(values), f", initial={slot}",
             *self.where(active), ")"]
        )

    def branch(self, node: ast.If, env: dict, active: Optional[_Vec]) -> Any:
        test = self.condition(node.test, env, active)
        if isinstance(test, _Uni):
            if test.const is not _UNKNOWN:
                return self.block(node.body if test.const else node.orelse, env, active)
            mask = _Vec("b")
            self.emit([f"{self.np}.copyto(", mask, f", bool({test.text}))"])
            test = mask
        then_mask = test if active is None else self.ufunc("logical_and", [active, test], None, "b")
        after_then = self.block(node.body, env, then_mask)
        if not node.orelse and after_then is then_mask:
            return active
        otherwise = self.ufunc("logical_not", [test], None, "b")
        if active is not None:
            otherwise = self.ufunc("logical_and", [active, otherwise], None, "b")
        after_else = self.block(node.orelse, env, otherwise)
        if after_then is then_mask and after_else is otherwise:
            return active
        if after_then is _DEAD:
            return after_else
        if after_else is _DEAD:
            return after_then
        return self.ufunc("logical_or", [after_then, after_else], None, "b")

    def unroll(self, node: ast.For, env: dict, active: Any) -> Any:
        loop = node.iter
        if (
            node.orelse
            or not isinstance(node.target, ast.Name)
            or not isinstance(loop, ast.Call)
            or not isinstance(loop.func, ast.Name)
            or loop.func.id != "range"
            or "range" in env
            or "range" in self.constants
        ):
            self.fail(node.iter, "a loop other than for name in range(constants)")
        bounds = [self.expr(b, env, active) for b in loop.args]  # type: ignore[union-attr]
        if not all(
            isinstance(b, _Uni) and isinstance(b.const, (int, np.integer)) for b in bounds
        ):
            self.fail(node.iter, "a range() whose bounds are not compile-time integers")
        for value in range(*(int(b.const) for b in bounds)):  # type: ignore[union-attr]
            if active is _DEAD:
                break
            env[node.target.id] = _Uni(repr(value), value, known=True)  # type: ignore[union-attr]
            active = self.block(node.body, env, active)
        return active

    # -- expressions -----------------------------------------------------------------
    def condition(self, node: ast.expr, env: dict, active: Optional[_Vec]) -> Union[_Uni, _Vec]:
        """An ``if`` test: uniform, or a fresh mask no local owns."""
        if isinstance(node, ast.BoolOp):
            parts = [self.condition(value, env, active) for value in node.values]
            if all(isinstance(part, _Uni) for part in parts):
                joiner = f" {_SYMBOLS[type(node.op)]} "
                text = joiner.join(p.text for p in parts)  # type: ignore[union-attr]
                return self.uniform(f"({text})", parts)  # type: ignore[arg-type]
            combine = "logical_and" if isinstance(node.op, ast.And) else "logical_or"
            mask: Any = parts[0]
            for part in parts[1:]:
                mask = self.ufunc(combine, [mask, part], None, "b")
            return mask
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = self.condition(node.operand, env, active)
            if isinstance(inner, _Uni):
                return self.uniform(f"(not {inner.text})", [inner])
            return self.ufunc("logical_not", [inner], None, "b")  # type: ignore[return-value]
        value = self.expr(node, env, active)
        if isinstance(value, _Uni):
            return value
        if isinstance(value, _Vec) and value.kind == "b" and not self.is_bound(value):
            return value
        if isinstance(value, _Vec) and value.kind == "b":
            mask = _Vec("b")
            self.copy(mask, value, None)
            return mask
        return self.ufunc("not_equal", [value, _Uni("0")], None, "b")  # type: ignore[return-value]

    def expr(
        self, node: ast.expr, env: dict, active: Optional[_Vec],
        out: Optional[Union[_Vec, _Col]] = None,
    ) -> Any:
        """Lower ``node``; an operation at its top writes into ``out`` if given."""
        if isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, (bool, int, float))
        ):
            return _Uni(repr(node.value), node.value, known=True)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.constants:
                return _Uni(node.id, self.constants[node.id], known=True)
            self.fail(node, "this name as a value")
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.modules
            and node.value.id not in env
        ):
            return self.uniform(ast.unparse(node), [])
        if isinstance(node, ast.Subscript):
            return self.subscript(node, env, active)
        if isinstance(node, ast.BinOp):
            left = self.expr(node.left, env, active)
            right = self.expr(node.right, env, active)
            if isinstance(left, _Uni) and isinstance(right, _Uni):
                symbol = _SYMBOLS[type(node.op)]
                return self.uniform(f"({left.text} {symbol} {right.text})", [left, right])
            ufunc = _BINARY_UFUNCS.get(type(node.op))
            if ufunc is None:
                self.fail(node, f"the {_SYMBOLS[type(node.op)]} operator on row values")
            return self.ufunc(ufunc, [left, right], active, "f", out)  # type: ignore[arg-type]
        if isinstance(node, ast.UnaryOp):
            operand = self.expr(node.operand, env, active)
            if isinstance(operand, _Uni):
                return self.uniform(f"({_SYMBOLS[type(node.op)]}{operand.text})", [operand])
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.USub):
                return self.ufunc("negative", [operand], active, "f", out)
            if isinstance(node.op, ast.Not):
                return self.ufunc("logical_not", [operand], active, "b", out)
        elif isinstance(node, ast.Compare):
            operands = [self.expr(v, env, active) for v in (node.left, *node.comparators)]
            if all(isinstance(v, _Uni) for v in operands):
                text = operands[0].text
                for op, right in zip(node.ops, operands[1:]):
                    text += f" {_SYMBOLS[type(op)]} {right.text}"
                return self.uniform(f"({text})", operands)
            if len(node.ops) == 1 and type(node.ops[0]) in _COMPARE_UFUNCS:
                return self.ufunc(_COMPARE_UFUNCS[type(node.ops[0])], operands, active, "b", out)
        elif isinstance(node, ast.Call):
            return self.call(node, env, active, out)
        self.fail(node, f"this {type(node).__name__} expression")

    def subscript(self, node: ast.Subscript, env: dict, active: Optional[_Vec]) -> _Value:
        base = self.expr(node.value, env, active)
        if isinstance(base, _Arg):
            k = self.const_index(node.slice, env, active)
            if base.rank == 2:
                return _Col(base.param, k)
            if base.param in self.reduced:
                self.fail(node, "reading a global the kernel reduces into")
            return _Uni(f"{base.param}[{k}]")
        if isinstance(base, _Uni):
            index = self.expr(node.slice, env, active)
            if not isinstance(index, _Uni):
                self.fail(node, "a row-dependent subscript")
            return self.uniform(f"{base.text}[{index.text}]", [base, index])
        self.fail(node, "subscripting a row value")

    def call(
        self, node: ast.Call, env: dict, active: Optional[_Vec],
        out: Optional[Union[_Vec, _Col]],
    ) -> Any:
        func = node.func
        if isinstance(func, ast.Name) and func.id not in env and func.id in self.helpers:
            return self.inline(self.helpers[func.id], node, env, active)
        module = builtin = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.modules
            and func.value.id not in env
        ):
            module = self.modules[func.value.id]
        elif (
            isinstance(func, ast.Name)
            and func.id not in env
            and func.id not in self.constants
            and hasattr(builtins, func.id)
        ):
            builtin = func.id
        else:
            self.fail(node, "this call")
        args = [self.expr(argument, env, active) for argument in node.args]
        if all(isinstance(a, _Uni) for a in args):
            return self.uniform(f"{ast.unparse(func)}({', '.join(a.text for a in args)})", args)
        if module is not None:
            ufunc = _MODULE_UFUNCS.get((module, func.attr))  # type: ignore[union-attr]
            if ufunc is not None and len(args) == 1:
                return self.ufunc(ufunc, args, active, "f", out)
        elif builtin == "abs" and len(args) == 1:
            return self.ufunc("absolute", args, active, "f", out)
        elif builtin == "float" and len(args) == 1:
            return args[0]
        elif builtin in ("min", "max") and len(args) >= 2:
            ufunc = "minimum" if builtin == "min" else "maximum"
            result = args[0]
            for position, argument in enumerate(args[1:], start=2):
                last = position == len(args)
                result = self.ufunc(ufunc, [result, argument], active, "f", out if last else None)
            return result
        self.fail(node, "this call on row values")

    def inline(self, helper: KernelIR, node: ast.Call, env: dict, active: Optional[_Vec]) -> Any:
        if len(node.args) != len(helper.params):
            self.fail(node, "a helper call with the wrong number of arguments")
        scope = dict(zip(helper.params, (self.expr(a, env, active) for a in node.args)))
        body = list(_function_def(helper).body)
        result = body.pop().value if body and isinstance(body[-1], ast.Return) else None
        if any(isinstance(n, ast.Return) for statement in body for n in ast.walk(statement)):
            self.fail(node, "a helper that returns before its last statement")
        self.envs.append(scope)
        try:
            self.block(body, scope, active)
            return None if result is None else self.expr(result, scope, active)
        finally:
            self.envs.pop()

    # -- code ------------------------------------------------------------------------
    def render(self) -> str:
        """The generated function, scratch slots assigned by linear scan."""
        last = {vec: i for i, instr in enumerate(self.instrs) for vec in instr.vecs}
        slots: dict[_Vec, int] = {}
        free: dict[str, list[int]] = {"f": [], "b": []}
        count = {"f": 0, "b": 0}

        def release(vecs: list[_Vec]) -> None:
            for vec in vecs:
                heapq.heappush(free[vec.kind], slots[vec])

        for i, instr in enumerate(self.instrs):
            # an output may overwrite an operand dying here, never the mask
            operands = [v for v in instr.vecs if last[v] == i and v in slots]
            operands = [v for v in operands if v is not instr.mask]
            release(operands)
            for vec in instr.vecs:
                if vec not in slots:
                    pool = free[vec.kind]
                    slots[vec] = heapq.heappop(pool) if pool else count[vec.kind]
                    count[vec.kind] = max(count[vec.kind], slots[vec] + 1)
            release([v for v in instr.vecs if last[v] == i and v not in operands])

        names = {kind: [self.fresh(f"_{kind}{j}") for j in range(count[kind])] for kind in count}
        lines = [f"def {self.name}({', '.join([self.idx, *self.ir.params])}):"]
        if count["f"] or count["b"]:
            floats, flags = self.fresh("_floats"), self.fresh("_flags")
            lines.append(
                f"    {floats}, {flags} = {self.scratch}({self.idx}.shape[0], "
                f"{count['f']}, {count['b']})"
            )
            for kind, array in (("f", floats), ("b", flags)):
                if names[kind]:
                    lines.append(f"    {', '.join(names[kind])}, = {array}")
        for (param, index), name in self.columns.items():
            lines.append(f"    {name} = {param}[:, {index}]")
        for instr in self.instrs:
            text = "".join(
                names[p.kind][slots[p]] if isinstance(p, _Vec) else p for p in instr.parts
            )
            lines.append(f"    {text}")
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n"


_STUB_NAMESPACE = {  # what a stub's code refers to
    "_np": np, "_partial": partial, "_setitem": operator.setitem,
    "_gather_rows": gather_rows, "_stage_scatter_add": stage_scatter_add,
    "_neutral": neutral, "_fold_reduction": fold_reduction,
    "_INC": AccessMode.INC, "_MIN": AccessMode.MIN, "_MAX": AccessMode.MAX,
}
_FOLDS = {"s": "_INC", "n": "_MIN", "x": "_MAX"}


def _stub_ranks(key: str) -> tuple[int, ...]:
    """The block form's view ranks under stub key ``key``."""
    if not key or key.strip("drigsnxw"):
        raise TranslatorLoweringError(f"not a loop stub key: {key!r}")
    return tuple([1 if code in "gsnx" else 2 for code in key])


def render_stub(key: str) -> str:
    """Source of ``stub_<key>(_form, _stage, _start, _stop, *args)``."""
    params = [f"a{i}" for i in range(len(_stub_ranks(key)))]
    lines = [
        f"def stub_{key}({', '.join(['_form', '_stage', '_start', '_stop', *params])}):",
        "    _idx = _np.arange(_start, _stop)",
    ]
    staged, folds = [], []
    for i, (code, a) in enumerate(zip(key, params)):
        rows = f"{a}.map.values[_start:_stop, {a}.map_index]"
        if code == "d":
            lines.append(f"    v{i} = {a}.dat.data[_start:_stop]")
        elif code == "r":
            lines.append(f"    v{i} = _gather_rows({a}.dat.data, {rows})")
        elif code == "i":
            lines.append(
                f"    v{i} = _np.zeros((_stop - _start, {a}.dim), {a}.dat.dtype, order='F')"
            )
            staged.append((i, f"_stage_scatter_add({a}.dat.data, {rows}, v{i})"))
        elif code == "w":
            lines += [f"    t{i} = {rows}", f"    v{i} = _gather_rows({a}.dat.data, t{i})"]
            staged.append((i, f"_partial(_setitem, {a}.dat.data, t{i}, v{i})"))
        elif code == "g":
            lines.append(f"    v{i} = {a}.gbl_data")
        else:
            lines.append(f"    v{i} = _neutral({_FOLDS[code]}, {a}.gbl_data)")
            folds.append(f"({_FOLDS[code]}, {a}.gbl_data, v{i})")
    commits = [f"c{i}" for i, _commit in staged]
    lines += [
        f"    _form(_idx, {', '.join(f'v{i}' for i in range(len(key)))})",
        *(f"    c{i} = {commit}" for i, commit in staged),
        "    if _stage is not None:",
        f"        _stage.adopt([{', '.join(commits)}], [{', '.join(folds)}])",
        "        return",
        *(f"    {commit}()" for commit in commits),
        *(f"    _fold_reduction{fold}" for fold in folds),
    ]
    return "\n".join(lines) + "\n"


class BlockForm:
    """A kernel's generated NumPy block form, callable as ``f(_idx, *views)``.

    The code for each combination of argument ranks is generated, compiled
    and cached on its first call; :meth:`source` shows it (:meth:`stub` and
    :meth:`stub_source`: the same for host stubs).
    """

    #: host stubs by stub key, shared by every block form (their 1st argument)
    shared_stubs: dict[str, Callable[..., None]] = {}

    def __init__(self, ir: KernelIR) -> None:
        self.ir = ir
        self._forms: dict[tuple[int, ...], Callable[..., None]] = {}
        #: host stubs by stub key, bound to the form specialised for its ranks
        self.stubs: dict[str, Callable[..., None]] = {}
        # every construct outside the subset fails here, at kernel definition
        _Lowering(ir, (2,) * len(ir.params))

    def source(self, ranks: Optional[tuple[int, ...]] = None) -> str:
        """The generated function for ``ranks`` (default: every argument a dat)."""
        ranks = (2,) * len(self.ir.params) if ranks is None else tuple(ranks)
        return _Lowering(self.ir, ranks).render()

    def stub_source(self, key: str) -> str:
        """The host stub for stub key ``key``, the twin of :meth:`source`."""
        self._form(_stub_ranks(key))  # the kernel takes the key's arguments
        return render_stub(key)

    def stub(self, key: str) -> Callable[..., None]:
        """The host stub for stub key ``key``, bound to the specialised form."""
        stub = self.stubs.get(key)
        if stub is None:
            stub = self.stubs[key] = partial(_shared_stub(key), self._form(_stub_ranks(key)))
        return stub

    def _form(self, ranks: tuple[int, ...]) -> Callable[..., None]:
        form = self._forms.get(ranks)
        if form is None:
            form = self._forms[ranks] = self._specialise(ranks)
        return form

    def _specialise(self, ranks: tuple[int, ...]) -> Callable[..., None]:
        lowering = _Lowering(self.ir, ranks)
        namespace = dict(lowering.namespace)
        namespace[lowering.np] = np
        namespace[lowering.scratch] = kernel_scratch
        exec(compile(lowering.render(), f"<block:{self.ir.name}>", "exec"), namespace)
        return namespace[lowering.name]

    def __call__(self, _idx: np.ndarray, *views: np.ndarray) -> None:
        self._form(tuple([view.ndim for view in views]))(_idx, *views)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockForm({self.ir.name!r})"


def _shared_stub(key: str) -> Callable[..., None]:
    stub = BlockForm.shared_stubs.get(key)
    if stub is None:
        namespace = dict(_STUB_NAMESPACE)
        exec(compile(render_stub(key), f"<stub:{key}>", "exec"), namespace)
        stub = BlockForm.shared_stubs[key] = namespace[f"stub_{key}"]
    return stub


def host_stub(form: Callable[..., None], key: str) -> Callable[..., None]:
    """The host stub of stub key ``key`` running the block form ``form``:
    ``stub(stage, start, stop, *args)`` (see the module docstring)."""
    if isinstance(form, BlockForm):
        return form.stub(key)
    return partial(_shared_stub(key), form)


def block_form(elemental: Callable[..., Any]) -> BlockForm:
    """The generated block form of an elemental kernel function.

    >>> def scale(x, y):
    ...     y[0] = 2.0 * x[0]
    >>> print(block_form(scale).source(), end="")  # doctest: +SKIP
    def scale_block(_idx, x, y):
        x_0 = x[:, 0]
        y_0 = y[:, 0]
        _np.multiply(2.0, x_0, out=y_0)
    """
    return BlockForm(parse_kernel(elemental))
