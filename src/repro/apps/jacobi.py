"""The ``jac`` example: edge-based Jacobi relaxation.

This is the small example distributed with OP2 (and used in its tutorials):
a sparse Jacobi iteration expressed over a set of *edges* connecting *nodes*.
Each iteration runs two loops:

* ``res`` -- for every edge, accumulate ``A_e * u[node_0]`` into
  ``du[node_1]`` (an indirect ``OP_INC`` loop), and
* ``update`` -- for every node, apply the update, reset ``du`` and reduce the
  solution norm (a direct loop with a global reduction).

It serves as a second, smaller scenario for the examples and integration
tests: it has exactly the producer/consumer loop structure that the paper's
interleaving targets, with a much smaller kernel body than Airfoil.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import MeshError
from repro.op2.access import OP_ID, OP_INC, OP_MAX, OP_READ, OP_RW
from repro.op2.args import op_arg_dat, op_arg_gbl
from repro.op2.dat import OpDat, op_decl_dat
from repro.op2.kernel import Kernel
from repro.op2.map import OpMap, op_decl_map
from repro.op2.par_loop import op_par_loop
from repro.op2.set import OpSet, op_decl_set
from repro.translator.blockform import block_form

__all__ = ["JacobiProblem", "JacobiResult", "build_ring_problem", "run_jacobi", "RES_KERNEL", "UPDATE_KERNEL"]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
def _res(a, u, du) -> None:
    """Accumulate one edge's contribution into its target node."""
    du[0] += a[0] * u[0]


RES_KERNEL = Kernel(
    name="res",
    elemental=_res,
    vectorized=block_form(_res),
    cycles_per_element=12.0,
    reuse_fraction=0.3,
)


def _update(r, du, u, u_sum, u_max) -> None:
    """One Jacobi step for ``(I - A_off) u = 0.1 r`` at one node, then reduce
    norms.  ``du`` holds the off-diagonal sum; every node's row sum of ``A``
    is below 1, so the iteration contracts."""
    u[0] = du[0] + 0.1 * r[0]
    du[0] = 0.0
    u_sum[0] += u[0] * u[0]
    u_max[0] = max(u_max[0], u[0])


UPDATE_KERNEL = Kernel(
    name="jac_update",
    elemental=_update,
    vectorized=block_form(_update),
    cycles_per_element=20.0,
)


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------
@dataclass
class JacobiProblem:
    """A declared Jacobi problem: sets, the edge map and the dats."""

    nodes: OpSet
    edges: OpSet
    ppedge: OpMap
    p_A: OpDat
    p_r: OpDat
    p_u: OpDat
    p_du: OpDat


@dataclass
class JacobiResult:
    """Outcome of a Jacobi run."""

    u: np.ndarray
    u_sum_history: list[float] = field(default_factory=list)
    u_max_history: list[float] = field(default_factory=list)


def build_ring_problem(num_nodes: int = 1000, *, seed: int = 7) -> JacobiProblem:
    """Build a ring-of-nodes problem (every node feeds its two neighbours)."""
    if num_nodes < 3:
        raise MeshError("the ring problem needs at least 3 nodes")
    rng = np.random.default_rng(seed)

    nodes = op_decl_set(num_nodes, "nodes")
    num_edges = 2 * num_nodes
    edges = op_decl_set(num_edges, "edges")

    # edge 2n runs node n -> n + 1, edge 2n + 1 runs node n -> n - 1 (mod N)
    node = np.arange(num_nodes)
    edge_map = np.empty((num_edges, 2), dtype=np.int64)
    edge_map[0::2, 0] = edge_map[1::2, 0] = node
    edge_map[0::2, 1] = (node + 1) % num_nodes
    edge_map[1::2, 1] = (node - 1) % num_nodes
    ppedge = op_decl_map(edges, nodes, 2, edge_map, "ppedge")

    p_A = op_decl_dat(edges, 1, "double", rng.uniform(0.1, 0.5, (num_edges, 1)), "p_A")
    p_r = op_decl_dat(nodes, 1, "double", rng.standard_normal((num_nodes, 1)) * 0.01, "p_r")
    p_u = op_decl_dat(nodes, 1, "double", rng.standard_normal((num_nodes, 1)), "p_u")
    p_du = op_decl_dat(nodes, 1, "double", None, "p_du")
    return JacobiProblem(nodes, edges, ppedge, p_A, p_r, p_u, p_du)


def run_jacobi(problem: Optional[JacobiProblem] = None, *, iterations: int = 10,
               num_nodes: int = 1000) -> JacobiResult:
    """Run the Jacobi relaxation on the active execution context."""
    if problem is None:
        problem = build_ring_problem(num_nodes)
    result = JacobiResult(u=np.empty(0))
    for _iteration in range(iterations):
        op_par_loop(
            RES_KERNEL,
            "res",
            problem.edges,
            op_arg_dat(problem.p_A, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(problem.p_u, 0, problem.ppedge, 1, "double", OP_READ),
            op_arg_dat(problem.p_du, 1, problem.ppedge, 1, "double", OP_INC),
        )
        u_sum = np.zeros(1, dtype=np.float64)
        u_max = np.full(1, -np.inf, dtype=np.float64)
        op_par_loop(
            UPDATE_KERNEL,
            "jac_update",
            problem.nodes,
            op_arg_dat(problem.p_r, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(problem.p_du, -1, OP_ID, 1, "double", OP_RW),
            op_arg_dat(problem.p_u, -1, OP_ID, 1, "double", OP_RW),
            op_arg_gbl(u_sum, 1, "double", OP_INC),
            op_arg_gbl(u_max, 1, "double", OP_MAX),
        )
        result.u_sum_history.append(float(u_sum[0]))
        result.u_max_history.append(float(u_max[0]))
    result.u = problem.p_u.data.copy()
    return result
