#!/usr/bin/env python3
"""Quickstart: declare a tiny mesh with the OP2 API and run one loop on every backend.

This follows the walk-through of Section II-A of the paper -- a small mesh of
nodes and edges with data on both -- and then executes a single ``op_par_loop``
under the serial, OpenMP-style and HPX-style backends, printing the simulated
runtime reported by each.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    Kernel,
    op_arg_dat,
    op_decl_dat,
    op_decl_map,
    op_decl_set,
    op_par_loop,
)
from repro.op2.backends import RunConfig, hpx_context, openmp_context, serial_context
from repro.op2.context import active_context


def build_problem():
    """The 9-node / 12-edge example mesh from the paper's Section II-A."""
    nodes = op_decl_set(9, "nodes")
    edges = op_decl_set(12, "edges")

    # fmt: off
    edge_map = [0, 1, 1, 2, 2, 5, 5, 4, 4, 3, 3, 6,
                6, 7, 7, 8, 0, 3, 1, 4, 2, 5, 3, 6]
    # fmt: on
    pedge = op_decl_map(edges, nodes, 2, edge_map, "pedge")

    node_values = np.array(
        [[5.3], [1.2], [0.2], [3.4], [5.4], [6.2], [3.2], [2.5], [0.9]]
    )
    data_node = op_decl_dat(nodes, 1, "double", node_values, "data_node")
    data_edge = op_decl_dat(edges, 1, "double", np.full((12, 1), 0.1), "data_edge")
    accum = op_decl_dat(nodes, 1, "double", None, "accum")
    return nodes, edges, pedge, data_node, data_edge, accum


def edge_kernel(weight, value, target):
    """Scatter a weighted node value along each edge (per-element form)."""
    target[0] += weight[0] * value[0]


EDGE_KERNEL = Kernel(name="edge_scatter", elemental=edge_kernel, cycles_per_element=10)


def run_on(context, label):
    nodes, edges, pedge, data_node, data_edge, accum = build_problem()
    with active_context(context) as ctx:
        op_par_loop(
            EDGE_KERNEL,
            "edge_scatter",
            edges,
            op_arg_dat(data_edge, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(data_node, 0, pedge, 1, "double", OP_READ),
            op_arg_dat(accum, 1, pedge, 1, "double", OP_INC),
        )
    report = ctx.report()
    # A deferring context keeps a loop this small off its engine altogether
    # (the grain gate, details["grain"]): nothing was chunked, so there is no
    # task graph to model.
    gate = report.details.get("grain")
    if gate is not None and gate["deferred_loops"] == 0:
        runtime = "ran inline (below the grain threshold, no tasks)"
    else:
        runtime = f"simulated runtime = {report.makespan_seconds * 1e6:.2f} us"
    print(f"{label:>8s}: accum[1..3] = {accum.data[1:4, 0]}  {runtime}")
    return accum.data.copy()


def main() -> None:
    serial = run_on(serial_context(), "serial")
    openmp = run_on(openmp_context(num_threads=8), "openmp")
    hpx = run_on(hpx_context(num_threads=8, chunking="persistent_auto"), "hpx")
    # The typed RunConfig is the canonical way to pick an execution engine:
    # the same loop on the real threaded chunk-DAG engine.
    threaded = run_on(
        hpx_context(config=RunConfig(engine="threads", num_threads=4)),
        "threads",
    )
    assert (
        np.allclose(serial, openmp)
        and np.allclose(serial, hpx)
        and np.allclose(serial, threaded)
    )
    print("all backends produced identical results")


if __name__ == "__main__":
    main()
