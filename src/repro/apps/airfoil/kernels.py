"""The five Airfoil user kernels.

These follow the reference kernels of the public OP2 Airfoil example
(``save_soln.h``, ``adt_calc.h``, ``res_calc.h``, ``bres_calc.h``,
``update.h``): a finite-volume discretisation of the 2-D compressible Euler
equations with scalar numerical dissipation and local time stepping.

Each kernel has one source: the *elemental* form, a direct transcription of
the C kernel operating on one element's views.  Its NumPy block form -- what
every backend, serial included, runs, one cache-sized sub-block of a chunk at
a time, so that runs over large meshes stay fast in CPython -- is generated
from that source by :func:`repro.translator.blockform.block_form`, and the
``compiled`` engine's slab is lowered from it too.

The ``cycles_per_element`` hints were set from the arithmetic-operation
counts of each kernel (adds/multiplies/divides/sqrts), which is what the
machine model uses to size chunk durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.op2.kernel import Kernel
from repro.translator.blockform import block_form

__all__ = [
    "GasConstants",
    "GAS_CONSTANTS",
    "SAVE_SOLN",
    "ADT_CALC",
    "RES_CALC",
    "BRES_CALC",
    "UPDATE",
    "ALL_KERNELS",
]


@dataclass(frozen=True)
class GasConstants:
    """Physical and numerical constants of the Airfoil test case."""

    gam: float = 1.4
    cfl: float = 0.9
    eps: float = 0.05
    mach: float = 0.4
    alpha_degrees: float = 3.0

    @property
    def gm1(self) -> float:
        """``gamma - 1``."""
        return self.gam - 1.0

    @property
    def qinf(self) -> np.ndarray:
        """Free-stream conservative state ``(rho, rho*u, rho*v, rho*E)``."""
        alpha = math.radians(self.alpha_degrees)
        p = 1.0
        r = 1.0
        u = math.sqrt(self.gam * p / r) * self.mach
        e = p / (r * self.gm1) + 0.5 * u * u
        return np.array(
            [r, r * u * math.cos(alpha), r * u * math.sin(alpha), r * e], dtype=np.float64
        )


GAS_CONSTANTS = GasConstants()
_g = GAS_CONSTANTS


# ---------------------------------------------------------------------------
# save_soln: qold <- q (direct loop over cells)
# ---------------------------------------------------------------------------
def _save_soln(q: np.ndarray, qold: np.ndarray) -> None:
    """Copy the current state into the old-state buffer for one cell."""
    qold[:] = q




SAVE_SOLN = Kernel(
    name="save_soln",
    elemental=_save_soln,
    vectorized=block_form(_save_soln),
    cycles_per_element=8.0,
    imbalance=0.05,
)


# ---------------------------------------------------------------------------
# adt_calc: local area/timestep (indirect read of 4 nodes, direct q/adt)
# ---------------------------------------------------------------------------
def _edge_contribution(x_a, x_b, u, v, c):
    dx = x_b[0] - x_a[0]
    dy = x_b[1] - x_a[1]
    return abs(u * dy - v * dx) + c * math.sqrt(dx * dx + dy * dy)


def _adt_calc(x1, x2, x3, x4, q, adt) -> None:
    """Compute the area/timestep of one cell from its 4 corner nodes."""
    ri = 1.0 / q[0]
    u = ri * q[1]
    v = ri * q[2]
    c = math.sqrt(_g.gam * _g.gm1 * (ri * q[3] - 0.5 * (u * u + v * v)))
    total = (
        _edge_contribution(x1, x2, u, v, c)
        + _edge_contribution(x2, x3, u, v, c)
        + _edge_contribution(x3, x4, u, v, c)
        + _edge_contribution(x4, x1, u, v, c)
    )
    adt[0] = total / _g.cfl




ADT_CALC = Kernel(
    name="adt_calc",
    elemental=_adt_calc,
    vectorized=block_form(_adt_calc),
    cycles_per_element=90.0,
    reuse_fraction=0.35,
    imbalance=0.15,
)


# ---------------------------------------------------------------------------
# res_calc: flux residual over interior edges (indirect, OP_INC into res)
# ---------------------------------------------------------------------------
def _res_calc(x1, x2, q1, q2, adt1, adt2, res1, res2) -> None:
    """Accumulate the flux of one interior edge into its two cells."""
    dx = x1[0] - x2[0]
    dy = x1[1] - x2[1]

    ri = 1.0 / q1[0]
    p1 = _g.gm1 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]))
    vol1 = ri * (q1[1] * dy - q1[2] * dx)

    ri = 1.0 / q2[0]
    p2 = _g.gm1 * (q2[3] - 0.5 * ri * (q2[1] * q2[1] + q2[2] * q2[2]))
    vol2 = ri * (q2[1] * dy - q2[2] * dx)

    mu = 0.5 * (adt1[0] + adt2[0]) * _g.eps

    f = 0.5 * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0])
    res1[0] += f
    res2[0] -= f
    f = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) + mu * (q1[1] - q2[1])
    res1[1] += f
    res2[1] -= f
    f = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) + mu * (q1[2] - q2[2])
    res1[2] += f
    res2[2] -= f
    f = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) + mu * (q1[3] - q2[3])
    res1[3] += f
    res2[3] -= f




RES_CALC = Kernel(
    name="res_calc",
    elemental=_res_calc,
    vectorized=block_form(_res_calc),
    cycles_per_element=150.0,
    reuse_fraction=0.45,
    imbalance=0.30,
)


# ---------------------------------------------------------------------------
# bres_calc: boundary-edge fluxes (reflective walls and far-field)
# ---------------------------------------------------------------------------
def _bres_calc(x1, x2, q1, adt1, res1, bound) -> None:
    """Accumulate the flux of one boundary edge into its interior cell."""
    dx = x1[0] - x2[0]
    dy = x1[1] - x2[1]

    ri = 1.0 / q1[0]
    p1 = _g.gm1 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]))

    if bound[0] == 1:  # reflective wall: pressure force only
        res1[1] += +p1 * dy
        res1[2] += -p1 * dx
        return

    # far-field: flux against the free-stream state
    qinf = _g.qinf
    vol1 = ri * (q1[1] * dy - q1[2] * dx)
    ri_inf = 1.0 / qinf[0]
    p2 = _g.gm1 * (qinf[3] - 0.5 * ri_inf * (qinf[1] * qinf[1] + qinf[2] * qinf[2]))
    vol2 = ri_inf * (qinf[1] * dy - qinf[2] * dx)
    mu = adt1[0] * _g.eps

    f = 0.5 * (vol1 * q1[0] + vol2 * qinf[0]) + mu * (q1[0] - qinf[0])
    res1[0] += f
    f = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * qinf[1] + p2 * dy) + mu * (q1[1] - qinf[1])
    res1[1] += f
    f = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * qinf[2] - p2 * dx) + mu * (q1[2] - qinf[2])
    res1[2] += f
    f = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (qinf[3] + p2)) + mu * (q1[3] - qinf[3])
    res1[3] += f




BRES_CALC = Kernel(
    name="bres_calc",
    elemental=_bres_calc,
    vectorized=block_form(_bres_calc),
    cycles_per_element=110.0,
    reuse_fraction=0.30,
    imbalance=0.20,
)


# ---------------------------------------------------------------------------
# update: explicit time step + residual RMS reduction (direct loop over cells)
# ---------------------------------------------------------------------------
def _update(qold, q, res, adt, rms) -> None:
    """Advance one cell by one pseudo-time step and accumulate the RMS."""
    adti = 1.0 / adt[0]
    for n in range(4):
        delta = adti * res[n]
        q[n] = qold[n] - delta
        res[n] = 0.0
        rms[0] += delta * delta




UPDATE = Kernel(
    name="update",
    elemental=_update,
    vectorized=block_form(_update),
    cycles_per_element=40.0,
    imbalance=0.08,
)

#: all five kernels in execution order
ALL_KERNELS = (SAVE_SOLN, ADT_CALC, RES_CALC, BRES_CALC, UPDATE)
