"""Generated block forms (:mod:`repro.translator.blockform`).

* **The nine app kernels** (Airfoil 5, Jacobi 2, Aero 2): the generated
  block form, the elemental form applied row by row, and the hand-written
  block form the apps carried before (``block_oracles``) agree -- dats
  bit for bit, INC globals to 1e-12 relative, MIN/MAX exactly -- at one
  row, short tails and a full 16384-row sub-block, and ``bres_calc`` on
  mixed, all-wall and all-far-field blocks.
* **Constructs beyond the nine**: masks merging locals, early returns in
  nested branches, a uniform branch on a global, masked reductions and
  helpers agree with the elemental form too.
* **Refusals**: a construct outside the subset raises
  ``TranslatorLoweringError`` when the block form is built, a global WRITE
  on the first call that passes a global.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import block_oracles as oracles
from repro.apps import aero, jacobi
from repro.apps.airfoil import GAS_CONSTANTS
from repro.apps.airfoil import kernels as airfoil
from repro.errors import TranslatorLoweringError
from repro.translator.blockform import BlockForm, block_form

#: per kernel: its argument views (a dat is ``(dim, fill)``, a global
#: ``("inc" | "max", 1)``) and the hand-written block form it replaced
_KERNELS = {
    "save_soln": (airfoil.SAVE_SOLN, [(4, "q"), (4, "zero")], oracles.save_soln),
    "adt_calc": (
        airfoil.ADT_CALC,
        [(2, "x"), (2, "x"), (2, "x"), (2, "x"), (4, "q"), (1, "zero")],
        oracles.adt_calc,
    ),
    "res_calc": (
        airfoil.RES_CALC,
        [(2, "x"), (2, "x"), (4, "q"), (4, "q"), (1, "pos"), (1, "pos"), (4, "zero"), (4, "zero")],
        oracles.res_calc,
    ),
    "bres_calc": (
        airfoil.BRES_CALC,
        [(2, "x"), (2, "x"), (4, "q"), (1, "pos"), (4, "zero"), (1, "bound")],
        oracles.bres_calc,
    ),
    "update": (
        airfoil.UPDATE,
        [(4, "q"), (4, "q"), (4, "normal"), (1, "pos"), ("inc", 1)],
        oracles.update,
    ),
    "jacobi_res": (
        jacobi.RES_KERNEL, [(1, "pos"), (1, "normal"), (1, "zero")], oracles.jacobi_res
    ),
    "jacobi_update": (
        jacobi.UPDATE_KERNEL,
        [(1, "normal"), (1, "normal"), (1, "normal"), ("inc", 1), ("max", 1)],
        oracles.jacobi_update,
    ),
    "aero_cell": (
        aero.CELL_KERNEL,
        [(1, "normal")] * 4 + [(1, "pos")] + [(1, "zero")] * 4,
        oracles.aero_cell,
    ),
    "aero_node": (
        aero.NODE_KERNEL, [(1, "normal"), (1, "normal"), ("inc", 1)], oracles.aero_node
    ),
}


def _views(spec, rows, seed, walls):
    rng = np.random.default_rng(seed)
    views = []
    for kind, fill in spec:
        if kind == "inc":
            views.append(np.zeros(fill))
        elif kind == "max":
            views.append(np.full(fill, -np.inf))
        elif fill == "x":
            views.append(rng.uniform(-2.0, 2.0, (rows, kind)))
        elif fill == "q":
            views.append(GAS_CONSTANTS.qinf * rng.uniform(0.9, 1.1, (rows, 1)))
        elif fill == "pos":
            views.append(rng.uniform(0.1, 1.0, (rows, kind)))
        elif fill == "normal":
            views.append(rng.standard_normal((rows, kind)))
        elif fill == "bound":
            choices = {"mixed": [1, 2], "wall": [1], "far": [2]}[walls]
            views.append(rng.choice(choices, size=(rows, kind)).astype(np.int32))
        else:
            views.append(np.zeros((rows, kind)))
    return views


def _run_elemental(kernel, views):
    rows = views[0].shape[0]
    for row in range(rows):
        kernel.elemental(*[view[row] if view.ndim == 2 else view for view in views])


def _assert_agree(spec, ours, theirs, what):
    for (kind, _), mine, other in zip(spec, ours, theirs):
        if kind == "inc":
            assert np.allclose(mine, other, rtol=1e-12, atol=0.0), what
        else:  # dats and MAX globals: exactly
            assert np.array_equal(mine, other), what


class TestTheNineKernels:
    def test_each_app_kernel_carries_a_generated_block_form(self):
        for kernel, _, _ in _KERNELS.values():
            assert isinstance(kernel.vectorized, BlockForm), kernel.name

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        walls=st.sampled_from(["mixed", "wall", "far"]),
    )
    @example(rows=1, seed=1, walls="mixed")
    @example(rows=16384, seed=2, walls="mixed")
    @example(rows=16384, seed=3, walls="wall")
    @example(rows=16384, seed=4, walls="far")
    def test_generated_equals_elemental_equals_the_hand_written_form(
        self, name, rows, seed, walls
    ):
        kernel, spec, oracle = _KERNELS[name]
        if name != "bres_calc" and walls != "mixed" and rows == 16384:
            return  # the wall draws are bres_calc's; spare the others the repeats
        generated = _views(spec, rows, seed, walls)
        elemental = [view.copy() for view in generated]
        hand_written = [view.copy() for view in generated]
        kernel.vectorized(np.arange(rows), *generated)
        _run_elemental(kernel, elemental)
        oracle(np.arange(rows), *hand_written)
        _assert_agree(spec, generated, elemental, (name, "elemental"))
        _assert_agree(spec, generated, hand_written, (name, "hand-written"))


# ---------------------------------------------------------------------------
# constructs beyond the nine
# ---------------------------------------------------------------------------
def _scaled(value, factor):
    doubled = value * factor
    return doubled + 1.0


def _branchy(x, y, flags, gmin, gsum, mode, out):
    a = x[0] * 2.0
    s = 1.0
    if x[0] > 0.5:
        a = a - y[0]
        s = 2.0
    else:
        a = abs(a) + max(y[0], x[1])
    for k in range(2):
        out[k] = a * s + k
    if flags[0] == 1 and not y[0] > 3.0:
        if y[0] < 0.0:
            out[2] = -a
            return
        gmin[0] = min(gmin[0], y[0])
    if mode[0] > 0.0:
        out[2] = _scaled(math.sqrt(x[1]), s)
    else:
        out[2] = min(a, x[1], y[0])
    gsum[0] += out[2] * s


def _while(x, y):
    while x[0] > 0:
        y[0] = 0.0


def _row_subscript(x, i, y):
    y[0] = x[i[0]]


def _global_write(x, g):
    g[0] = x[0]


def _bad_call(x, y):
    y[0] = math.exp(x[0])


class TestConstructs:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 200), seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([-1.0, 1.0]))
    @example(rows=9000, seed=0, mode=1.0)  # through per-thread scratch
    def test_masks_merges_returns_and_reductions_equal_the_elemental_form(self, rows, seed, mode):
        rng = np.random.default_rng(seed)
        views = [
            rng.uniform(0.0, 1.0, (rows, 2)),
            rng.standard_normal((rows, 1)),
            rng.integers(0, 2, (rows, 1)),
            np.full(1, np.inf),
            np.zeros(1),
            np.array([mode]),
            np.zeros((rows, 3)),
        ]
        elemental = [view.copy() for view in views]
        block_form(_branchy)(np.arange(rows), *views)
        for row in range(rows):
            _branchy(*[view[row] if view.ndim == 2 else view for view in elemental])
        assert np.array_equal(views[6], elemental[6])
        assert np.array_equal(views[3], elemental[3])
        assert np.allclose(views[4], elemental[4], rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize(
        "kernel, what",
        [(_while, "while"), (_row_subscript, "row-dependent subscript"), (_bad_call, "call")],
    )
    def test_a_construct_outside_the_subset_fails_when_built(self, kernel, what):
        with pytest.raises(TranslatorLoweringError, match=what):
            block_form(kernel)

    def test_a_global_write_fails_on_the_first_call_that_passes_a_global(self):
        form = block_form(_global_write)
        as_dats = np.zeros((3, 1))
        form(np.arange(3), np.ones((3, 1)), as_dats)  # a dat WRITE is fine
        assert np.array_equal(as_dats, np.ones((3, 1)))
        with pytest.raises(TranslatorLoweringError, match="global WRITE"):
            form(np.arange(3), np.ones((3, 1)), np.zeros(1))

    def test_the_source_reads_like_the_elemental_one(self):
        source = airfoil.RES_CALC.vectorized.source()
        assert source.startswith("def _res_calc_block(_idx, x1, x2, q1, q2, adt1, adt2, res1, res2):")
        assert "_np.add(res1_0, " in source and "out=res1_0)" in source
        assert "_np.subtract(res2_3, " in source
        # every temporary is written into a scratch slot, none allocated
        assert all(
            "out=" in line
            for line in source.splitlines()
            if line.strip().startswith("_np.") and "copyto" not in line
        )
