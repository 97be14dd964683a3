"""A small electrostatics-style FEM example ("aero").

The third scenario: a quad-element finite-element relaxation that mixes a
*gather/scatter* loop over cells (read the four corner node potentials,
scatter increments back to the four nodes -- an indirect ``OP_INC`` loop with
a wider stencil than an edge loop) with a direct damping/update loop over
nodes that carries a global residual reduction.  Structurally this resembles
the ``aero`` application of the OP2 distribution and gives the dependency
tracker a different map arity (4) than Airfoil's edge loops (2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import MeshError
from repro.op2.access import OP_ID, OP_INC, OP_READ, OP_RW
from repro.op2.args import op_arg_dat, op_arg_gbl
from repro.op2.dat import OpDat, op_decl_dat
from repro.op2.kernel import Kernel
from repro.op2.map import OpMap, op_decl_map
from repro.op2.par_loop import op_par_loop
from repro.op2.set import OpSet, op_decl_set
from repro.translator.blockform import block_form

__all__ = ["AeroProblem", "AeroResult", "build_grid_problem", "run_aero",
           "CELL_KERNEL", "NODE_KERNEL"]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
def _cell_relax(phi0, phi1, phi2, phi3, k, d0, d1, d2, d3) -> None:
    """Distribute the cell-average mismatch of one element to its 4 nodes."""
    average = 0.25 * (phi0[0] + phi1[0] + phi2[0] + phi3[0])
    stiffness = k[0]
    d0[0] += stiffness * (average - phi0[0])
    d1[0] += stiffness * (average - phi1[0])
    d2[0] += stiffness * (average - phi2[0])
    d3[0] += stiffness * (average - phi3[0])




CELL_KERNEL = Kernel(
    name="aero_cell",
    elemental=_cell_relax,
    vectorized=block_form(_cell_relax),
    cycles_per_element=60.0,
    reuse_fraction=0.5,
    imbalance=0.08,
)


def _node_update(delta, phi, residual) -> None:
    """Apply the accumulated correction to one node with damping."""
    phi[0] += 0.7 * delta[0]
    residual[0] += delta[0] * delta[0]
    delta[0] = 0.0




NODE_KERNEL = Kernel(
    name="aero_node",
    elemental=_node_update,
    vectorized=block_form(_node_update),
    cycles_per_element=25.0,
)


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------
@dataclass
class AeroProblem:
    """A declared aero problem instance."""

    nodes: OpSet
    cells: OpSet
    pcell: OpMap
    p_phi: OpDat
    p_delta: OpDat
    p_k: OpDat


@dataclass
class AeroResult:
    """Outcome of an aero run."""

    phi: np.ndarray
    residual_history: list[float] = field(default_factory=list)


def build_grid_problem(nx: int = 32, ny: int = 32, *, seed: int = 11) -> AeroProblem:
    """Build an ``nx x ny``-cell structured quad grid with random stiffness."""
    if nx < 1 or ny < 1:
        raise MeshError("grid must have at least one cell per direction")
    rng = np.random.default_rng(seed)
    nnx, nny = nx + 1, ny + 1

    nodes = op_decl_set(nnx * nny, "aero_nodes")
    cells = op_decl_set(nx * ny, "aero_cells")

    cell_nodes = np.empty((nx * ny, 4), dtype=np.int64)
    for j in range(ny):
        for i in range(nx):
            cell = j * nx + i
            cell_nodes[cell] = (
                j * nnx + i,
                j * nnx + i + 1,
                (j + 1) * nnx + i + 1,
                (j + 1) * nnx + i,
            )
    pcell = op_decl_map(cells, nodes, 4, cell_nodes, "aero_pcell")

    # Boundary nodes pinned at 0 potential, interior random.
    phi = rng.standard_normal((nnx * nny, 1))
    boundary = np.zeros((nny, nnx), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    phi[boundary.ravel()] = 0.0

    p_phi = op_decl_dat(nodes, 1, "double", phi, "p_phi")
    p_delta = op_decl_dat(nodes, 1, "double", None, "p_delta")
    p_k = op_decl_dat(cells, 1, "double", rng.uniform(0.05, 0.25, (nx * ny, 1)), "p_k")
    return AeroProblem(nodes, cells, pcell, p_phi, p_delta, p_k)


def run_aero(problem: Optional[AeroProblem] = None, *, sweeps: int = 10,
             nx: int = 32, ny: int = 32) -> AeroResult:
    """Run the relaxation on the active execution context."""
    if problem is None:
        problem = build_grid_problem(nx, ny)
    result = AeroResult(phi=np.empty(0))
    for _sweep in range(sweeps):
        op_par_loop(
            CELL_KERNEL,
            "aero_cell",
            problem.cells,
            op_arg_dat(problem.p_phi, 0, problem.pcell, 1, "double", OP_READ),
            op_arg_dat(problem.p_phi, 1, problem.pcell, 1, "double", OP_READ),
            op_arg_dat(problem.p_phi, 2, problem.pcell, 1, "double", OP_READ),
            op_arg_dat(problem.p_phi, 3, problem.pcell, 1, "double", OP_READ),
            op_arg_dat(problem.p_k, -1, OP_ID, 1, "double", OP_READ),
            op_arg_dat(problem.p_delta, 0, problem.pcell, 1, "double", OP_INC),
            op_arg_dat(problem.p_delta, 1, problem.pcell, 1, "double", OP_INC),
            op_arg_dat(problem.p_delta, 2, problem.pcell, 1, "double", OP_INC),
            op_arg_dat(problem.p_delta, 3, problem.pcell, 1, "double", OP_INC),
        )
        residual = np.zeros(1, dtype=np.float64)
        op_par_loop(
            NODE_KERNEL,
            "aero_node",
            problem.nodes,
            op_arg_dat(problem.p_delta, -1, OP_ID, 1, "double", OP_RW),
            op_arg_dat(problem.p_phi, -1, OP_ID, 1, "double", OP_RW),
            op_arg_gbl(residual, 1, "double", OP_INC),
        )
        result.residual_history.append(float(residual[0]))
    result.phi = problem.p_phi.data.copy()
    return result
