"""Generated loop stubs and the ``op_arg_*`` fixed cost around them.

Four groups:

* **Stub against the generic path** (Hypothesis) -- over generated kernels
  with direct/indirect READ/INC/WRITE/RW dats of dims 1-4 and READ/INC/MIN/MAX
  globals, on chunks of 1-64 rows and just below ``SCRATCH_MIN_ROWS``, a
  chunk run through the kernel's host stub leaves every dat and global
  bit-identical to the generic per-sub-block path -- through
  ``execute_all``, through ``prepare_block`` with the commits taken later
  and interleaved, and through ``run_chunk``'s partials -- and builds the
  same scatter schedules.
* **Stub cache** -- one stub function per signature, bound once per kernel
  to its specialised block form, shared by every loop and request that has
  it; :meth:`BlockForm.stub_source` is what runs.
* **Memo** -- ``op_arg_dat`` validates once per dat and input tuple and
  returns the same argument; bad inputs raise every time and are never kept;
  the memo goes with its dat.
* **Globals** -- ``op_arg_gbl`` refuses a writable array of another dtype
  and an array of more than one dimension, on ``serial`` and on a deferred
  engine.
"""

from __future__ import annotations

import gc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.jacobi import RES_KERNEL, UPDATE_KERNEL, build_ring_problem, run_jacobi
from repro.errors import OP2AccessError
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_MAX,
    OP_MIN,
    OP_READ,
    OP_RW,
    OP_WRITE,
    OpArg,
    datapath,
    op_arg_dat,
    op_arg_gbl,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    op_par_loop,
)
from repro.op2 import map as map_module
from repro.op2.backends.hpx import hpx_context
from repro.op2.backends.serial import serial_context
from repro.op2.context import active_context
from repro.op2.datapath import SCRATCH_MIN_ROWS
from repro.op2.kernel import Kernel
from repro.op2.par_loop import ParLoop
from repro.session import Session
from repro.translator.blockform import BlockForm, host_stub
from repro.translator.parser import parse_kernel


# ---------------------------------------------------------------------------
# the stub against the generic path
# ---------------------------------------------------------------------------
def _kernel_source(specs, dim, gmode):
    """An elemental kernel over ``specs`` (one ``(indirect, access)`` per dat
    argument) and a global of mode ``gmode`` (``None``: no global)."""
    params = [f"a{i}" for i in range(len(specs))] + (["g"] if gmode is not None else [])
    lines = [f"def stub_shape({', '.join(params)}):", "    v = 0.375"]
    if gmode is OP_READ:
        lines.append("    v = v + g[0] * 0.5")
    for i, (_indirect, access) in enumerate(specs):
        for k in range(dim):
            if access is OP_READ:
                lines.append(f"    v = v + a{i}[{k}] * 0.25")
            elif access is OP_INC:
                lines.append(f"    a{i}[{k}] += v * 0.5")
            elif access is OP_RW:
                lines.append(f"    a{i}[{k}] = a{i}[{k}] * 0.75 + v * 0.125")
                lines.append(f"    v = v + a{i}[{k}]")
            else:  # OP_WRITE
                lines.append(f"    a{i}[{k}] = v * 1.5")
    if gmode is OP_INC:
        lines.append("    g[0] += v")
    elif gmode is OP_MIN:
        lines.append("    g[0] = min(g[0], v)")
    elif gmode is OP_MAX:
        lines.append("    g[0] = max(g[0], v)")
    return "\n".join(lines) + "\n"


def _make_kernel(specs, dim, gmode):
    source = _kernel_source(specs, dim, gmode)
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - the elemental form of a test kernel
    form = BlockForm(parse_kernel(source, name="stub_shape"))
    return Kernel(name="stub_shape", elemental=namespace["stub_shape"], vectorized=form,
                  source=source)


def _problem(rows, dim, specs, gmode, seed, shared):
    """A fresh problem: the loop, its dats and its global; with ``shared``
    every indirect INC/WRITE/RW argument writes one dat, through alternating
    slots, so the order of the commits shows."""
    rng = np.random.default_rng(seed)
    edges = op_decl_set(rows, "stub_edges")
    nodes = op_decl_set(rows, "stub_nodes")
    columns = np.stack(
        [rng.integers(0, max(rows // 3, 1), size=rows), rng.permutation(rows)], axis=1
    )
    e2n = op_decl_map(edges, nodes, 2, columns, "stub_e2n")
    dats, args, written = [], [], None
    for position, (indirect, access) in enumerate(specs):
        dat = op_decl_dat(nodes if indirect else edges, dim, "double",
                          rng.standard_normal((rows, dim)), f"stub_{position}")
        if indirect and shared and access is not OP_READ:
            written = dat = written or dat
        dats.append(dat)
        if indirect:
            slot = 1 if access in (OP_WRITE, OP_RW) else 0  # WRITE/RW: distinct targets
            if shared and access is OP_INC:
                slot = position % 2
            args.append(op_arg_dat(dat, slot, e2n, dim, "double", access))
        else:
            args.append(op_arg_dat(dat, -1, OP_ID, dim, "double", access))
    gbl = np.array([{OP_MIN: np.inf, OP_MAX: -np.inf}.get(gmode, 0.5)])
    if gmode is not None:
        args.append(op_arg_gbl(gbl, 1, "double", gmode))
    return ParLoop(_KERNELS[(tuple(specs), dim, gmode)], "stub_shape", edges, args), dats, gbl


#: one generated kernel per drawn shape, shared by the examples that draw it
_KERNELS: dict = {}


def _run(route, rows, dim, specs, gmode, cuts, seed, shared):
    """Run the loop by ``route`` on a fresh problem; return every dat, the
    global and the chunks' reduction partials."""
    loop, dats, gbl = _problem(rows, dim, specs, gmode, seed, shared)
    bounds = [0, *sorted(cuts), rows]
    pieces = [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    partials = []
    if route == "execute_all":
        loop.execute_all()
    elif route == "prepare_block":
        # each commit is taken once its successor has computed: later, interleaved
        pending = []
        for lo, hi in pieces:
            pending.append(loop.prepare_block(lo, hi))
            if len(pending) == 2:
                pending.pop(0)()
        for commit in pending:
            commit()
    else:  # run_chunk: partials folded in chunk order
        for lo, hi in pieces:
            chunk = loop.run_chunk(lo, hi)
            partials.append([(p, buffer.copy()) for p, buffer in chunk])
            loop.fold_partials(chunk)
    return [dat.data.copy() for dat in dats], gbl.copy(), partials


_ROWS = st.one_of(st.integers(1, 64), st.integers(SCRATCH_MIN_ROWS - 8, SCRATCH_MIN_ROWS - 1))
_SPECS = st.lists(
    st.tuples(st.booleans(), st.sampled_from([OP_READ, OP_INC, OP_RW, OP_WRITE])),
    min_size=1,
    max_size=4,
)


class TestTheStubEqualsTheGenericPath:
    """The stub is the small-chunk route; forced generic (the stage made
    non-eager, as for a large chunk), nothing changes by a bit."""

    def _both(self, route, rows, dim, specs, gmode, cuts, seed, shared, monkeypatch):
        builds: list[list[int]] = []
        stub_calls: list[int] = []
        build_ranks = datapath.occurrence_ranks
        real_init = datapath.BlockStage.__init__
        real_stub = ParLoop._host_stub

        def logging_build(index):
            builds[-1].append(zlib.crc32(index.tobytes()))
            return build_ranks(index)

        def counting_stub(self):
            stub_calls[-1] += 1
            return real_stub(self)

        def run(eager):
            def init(self, start, stop, owner=None):
                real_init(self, start, stop, owner)
                self.eager = self.eager and eager

            builds.append([])
            stub_calls.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(map_module, "occurrence_ranks", logging_build)
                patch.setattr(datapath.BlockStage, "__init__", init)
                patch.setattr(ParLoop, "_host_stub", counting_stub)
                return _run(route, rows, dim, specs, gmode, cuts, seed, shared)

        ours, generic = run(eager=True), run(eager=False)
        return ours, generic, builds, stub_calls

    @settings(max_examples=40, deadline=None)
    @given(
        route=st.sampled_from(["execute_all", "prepare_block", "run_chunk"]),
        rows=_ROWS,
        dim=st.integers(1, 4),
        specs=_SPECS,
        gmode=st.sampled_from([None, OP_READ, OP_INC, OP_MIN, OP_MAX]),
        cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=2),
        seed=st.integers(0, 2**32 - 1),
        shared=st.booleans(),
    )
    # dim 4 just below the scratch rows: the INC buffer builds a schedule
    @example(route="prepare_block", rows=SCRATCH_MIN_ROWS - 1, dim=4,
             specs=[(True, OP_INC), (True, OP_RW), (False, OP_READ)], gmode=OP_INC,
             cut_fractions=[], seed=1, shared=False)
    # two increment streams into one dat: their commit order shows
    @example(route="run_chunk", rows=17, dim=2, specs=[(True, OP_INC), (True, OP_INC)],
             gmode=OP_MIN, cut_fractions=[0.3, 0.6], seed=2, shared=True)
    @example(route="execute_all", rows=40, dim=1, specs=[(True, OP_INC), (True, OP_RW)],
             gmode=None, cut_fractions=[], seed=3, shared=True)
    def test_the_stub_equals_the_generic_path(
        self, route, rows, dim, specs, gmode, cut_fractions, seed, shared
    ):
        key = (tuple(specs), dim, gmode)
        if key not in _KERNELS:
            _KERNELS[key] = _make_kernel(specs, dim, gmode)
        cuts = [int(fraction * rows) for fraction in cut_fractions]
        with pytest.MonkeyPatch.context() as monkeypatch:
            ours, generic, builds, stub_calls = self._both(
                route, rows, dim, specs, gmode, cuts, seed, shared, monkeypatch
            )
        chunks = len({0, *cuts, rows}) - 1
        assert 1 <= stub_calls[0] <= chunks and stub_calls[1] == 0, "stub runs the small chunks"
        for position, (mine, theirs) in enumerate(zip(ours[0], generic[0])):
            assert np.array_equal(mine, theirs), position
        assert np.array_equal(ours[1], generic[1])
        assert len(ours[2]) == len(generic[2])
        for mine, theirs in zip(ours[2], generic[2]):
            assert [p for p, _ in mine] == [p for p, _ in theirs]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(mine, theirs))
        assert builds[0] == builds[1], "scatter schedule builds must not change"


class TestEagerSmallStagesReachTheStub:
    """The hand-written block forms of ``TestEagerSmallStages`` run through
    the stub their signature shares."""

    def test_a_hand_written_block_form_runs_through_the_shared_stub(self, monkeypatch):
        from tests.test_inline_route import _run_loop

        calls = []
        real = ParLoop._host_stub

        def counting(self):
            calls.append(self.stub_key)
            return real(self)

        monkeypatch.setattr(ParLoop, "_host_stub", counting)
        _run_loop(40, 2, [(True, OP_INC), (False, OP_READ), (True, OP_RW)], OP_MIN, [], 3)
        assert calls == ["idwn"]
        assert "idwn" in BlockForm.shared_stubs


# ---------------------------------------------------------------------------
# the stub cache
# ---------------------------------------------------------------------------
def _light_request(seed):
    with active_context(serial_context()):
        run_jacobi(build_ring_problem(num_nodes=30, seed=seed), iterations=2)


class TestTheStubCache:
    def test_one_stub_per_signature_shared_across_loops_and_requests(self):
        _light_request(0)
        stubs = dict(RES_KERNEL.vectorized.stubs)
        update_stub = UPDATE_KERNEL.vectorized.stubs["dddsx"]
        assert "dri" in stubs
        with Session(name="stub-cache"):
            _light_request(1)
        assert RES_KERNEL.vectorized.stubs == stubs, "a second request compiles nothing"
        assert UPDATE_KERNEL.vectorized.stubs["dddsx"] is update_stub
        problem = build_ring_problem(num_nodes=30, seed=2)
        loops = [
            ParLoop(RES_KERNEL, "res", problem.edges, (
                op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(problem.p_u, 0, problem.ppedge, 1, "double", OP_READ),
                op_arg_dat(problem.p_du, 1, problem.ppedge, 1, "double", OP_INC),
            ))
            for _ in range(2)
        ]
        assert loops[0]._host_stub() is loops[1]._host_stub() is stubs["dri"]

    def test_hand_written_forms_share_one_stub_per_signature(self):
        def first(_idx, x):
            x[:, 0] = 1.0

        def second(_idx, x):
            x[:, 0] = 2.0

        a, b = host_stub(first, "d"), host_stub(second, "d")
        assert a.func is b.func is BlockForm.shared_stubs["d"]
        assert (a.args, b.args) == ((first,), (second,))

    def test_the_stub_source_is_what_runs(self):
        form = RES_KERNEL.vectorized
        source = form.stub_source("dri")
        assert source.startswith("def stub_dri(_form, _stage, _start, _stop, a0, a1, a2):")
        for call in ("_gather_rows(", "_form(_idx, v0, v1, v2)", "_stage_scatter_add("):
            assert call in source
        stub = form.stub("dri")
        assert stub.func.__code__.co_filename == "<stub:dri>"
        assert stub.args == (form._forms[(2, 2, 2)],), "the specialised form, no dispatch"

    def test_a_bad_stub_key_is_refused(self):
        from repro.errors import TranslatorLoweringError

        with pytest.raises(TranslatorLoweringError, match="stub key"):
            RES_KERNEL.vectorized.stub_source("dq")
        with pytest.raises(TranslatorLoweringError, match="3 arguments"):
            RES_KERNEL.vectorized.stub_source("dr")


# ---------------------------------------------------------------------------
# the op_arg_dat memo
# ---------------------------------------------------------------------------
def _edge_problem():
    edges, nodes = op_decl_set(6, "memo_edges"), op_decl_set(4, "memo_nodes")
    e2n = op_decl_map(edges, nodes, 2, np.arange(12) % 4, "memo_e2n")
    return edges, nodes, e2n


class TestTheArgumentMemo:
    def test_a_repeated_argument_is_the_same_object(self):
        edges, nodes, e2n = _edge_problem()
        direct = op_decl_dat(edges, 2, "double", name="memo_direct")
        node = op_decl_dat(nodes, 1, "double", name="memo_node")
        a = op_arg_dat(direct, -1, OP_ID, 2, "double", OP_READ)
        assert op_arg_dat(direct, -1, OP_ID, 2, "double", OP_READ) is a
        b = op_arg_dat(node, 1, e2n, 1, "double", OP_INC)
        assert op_arg_dat(node, 1, e2n, 1, "double", OP_INC) is b
        # any other input is another argument
        assert op_arg_dat(node, 0, e2n, 1, "double", OP_INC) is not b
        assert op_arg_dat(node, 1, e2n, 1, "double", OP_READ) is not b
        assert op_arg_dat(direct, -1, OP_ID, 2, "double", OP_RW) is not a
        assert (b.dat, b.map, b.map_index, b.access, b.code) == (node, e2n, 1, OP_INC, "i")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(dim=3),  # dim mismatch
            dict(type_name="float"),  # dtype mismatch
            dict(access="read"),  # not an access mode
            dict(access=OP_MIN),  # a global-only mode
            dict(idx=2),  # slot outside the map
        ],
        ids=["dim", "type", "access", "min", "slot"],
    )
    def test_a_bad_input_raises_every_time_and_is_never_kept(self, bad):
        _edges, nodes, e2n = _edge_problem()
        node = op_decl_dat(nodes, 1, "double", name="memo_bad")
        inputs = dict(idx=0, map_=e2n, dim=1, type_name="double", access=OP_READ) | bad
        for _ in range(3):
            with pytest.raises(OP2AccessError):
                op_arg_dat(node, **inputs)
        assert node._args == {}
        good = op_arg_dat(node, 0, e2n, 1, "double", OP_READ)
        assert list(node._args.values()) == [good]

    def test_memo_entries_die_with_their_dat_without_the_cyclic_collector(self):
        """A dat and its memo are a reference cycle; the next declaration
        drops the memo of a dat nothing else refers to, so it is freed at
        once -- a dropped mesh's arrays do not wait for the collector."""

        def alive(name):
            return [o for o in gc.get_objects() if type(o) is OpArg and o.dat.name == name]

        _edges, nodes, e2n = _edge_problem()
        kept = op_decl_dat(nodes, 1, "double", name="memo_kept")
        kept_arg = op_arg_dat(kept, 0, e2n, 1, "double", OP_READ)
        node = op_decl_dat(nodes, 1, "double", name="memo_mortal")
        arg = op_arg_dat(node, 0, e2n, 1, "double", OP_READ)
        assert op_arg_dat(node, 0, e2n, 1, "double", OP_READ) is arg
        gc.disable()
        try:
            del node, arg
            assert alive("memo_mortal"), "the cycle outlives the last reference"
            op_decl_dat(nodes, 1, "double")
            assert not alive("memo_mortal")
        finally:
            gc.enable()
        assert op_arg_dat(kept, 0, e2n, 1, "double", OP_READ) is kept_arg, "a held dat keeps it"


# ---------------------------------------------------------------------------
# globals a kernel could not honour
# ---------------------------------------------------------------------------
def _sum_kernel():
    def gsum(x, total):
        total[0] += x[0]

    from repro.translator.blockform import block_form

    return Kernel(name="stub_gsum", elemental=gsum, vectorized=block_form(gsum))


CONTEXTS = {
    "serial": serial_context,
    "threads": lambda: hpx_context(engine="threads", num_threads=2),
}


@pytest.mark.parametrize("name", sorted(CONTEXTS))
class TestGlobalsTheKernelCannotHonourAreRefused:
    def _sum(self, total, name):
        cells = op_decl_set(10, "gsum_cells")
        x = op_decl_dat(cells, 1, "double", np.arange(10) + 0.25, "gsum_x")
        with active_context(CONTEXTS[name]()):
            op_par_loop(_sum_kernel(), "gsum", cells,
                        op_arg_dat(x, -1, OP_ID, 1, "double", OP_READ),
                        op_arg_gbl(total, 1, "double", OP_INC))
        return total

    def test_a_writable_global_of_another_dtype_is_refused(self, name):
        with pytest.raises(OP2AccessError, match="dtype int64"):
            self._sum(np.zeros(1, dtype=np.int64), name)
        assert self._sum(np.zeros(1), name)[0] == 47.5

    def test_a_global_of_two_dimensions_is_refused(self, name):
        with pytest.raises(OP2AccessError, match="1-D"):
            self._sum(np.zeros((1, 1)), name)
        assert self._sum(np.zeros(1), name)[0] == 47.5

    def test_read_only_and_scalar_globals_still_convert(self, name):
        arg = op_arg_gbl(np.arange(2, dtype=np.int64), 2, "double", OP_READ)
        assert arg.gbl_data.dtype == np.int64, "a read-only array is the caller's"
        assert op_arg_gbl(0.5, 1, "double", OP_READ).gbl_data.shape == (1,)
        zero_d = np.array(1.5)
        view = op_arg_gbl(zero_d, 1, "double", OP_INC).gbl_data
        view += 1.0
        assert view.shape == (1,) and zero_d == 2.5, "a 0-d array is viewed as one value"
