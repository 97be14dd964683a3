"""The five Airfoil user kernels.

These follow the reference kernels of the public OP2 Airfoil example
(``save_soln.h``, ``adt_calc.h``, ``res_calc.h``, ``bres_calc.h``,
``update.h``): a finite-volume discretisation of the 2-D compressible Euler
equations with scalar numerical dissipation and local time stepping.

Every kernel is provided in two equivalent forms (see
:class:`repro.op2.kernel.Kernel`):

* the *elemental* form, a direct transcription of the C kernel operating on
  one element's views -- the source the translator lowers and the oracle of
  the correctness tests; and
* the *vectorised* form, operating on blocks of rows with NumPy -- what every
  backend, serial included, runs (one cache-sized sub-block of a chunk at a
  time) so that runs over large meshes stay fast in CPython.

The ``cycles_per_element`` hints were set from the arithmetic-operation
counts of each kernel (adds/multiplies/divides/sqrts), which is what the
machine model uses to size chunk durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.op2.kernel import Kernel

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


def _save_soln_vec(_idx: np.ndarray, q: np.ndarray, qold: np.ndarray) -> None:
    """Block form of :func:`_save_soln`."""
    qold[...] = q


SAVE_SOLN = Kernel(
    name="save_soln",
    elemental=_save_soln,
    vectorized=_save_soln_vec,
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


def _adt_calc_vec(_idx, x1, x2, x3, x4, q, adt) -> None:
    """Block form of :func:`_adt_calc`."""
    ri = 1.0 / q[:, 0]
    u = ri * q[:, 1]
    v = ri * q[:, 2]
    c = np.sqrt(_g.gam * _g.gm1 * (ri * q[:, 3] - 0.5 * (u * u + v * v)))

    def contribution(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        dx = xb[:, 0] - xa[:, 0]
        dy = xb[:, 1] - xa[:, 1]
        return np.abs(u * dy - v * dx) + c * np.sqrt(dx * dx + dy * dy)

    total = (
        contribution(x1, x2)
        + contribution(x2, x3)
        + contribution(x3, x4)
        + contribution(x4, x1)
    )
    adt[:, 0] = total / _g.cfl


ADT_CALC = Kernel(
    name="adt_calc",
    elemental=_adt_calc,
    vectorized=_adt_calc_vec,
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


def _res_calc_vec(_idx, x1, x2, q1, q2, adt1, adt2, res1, res2) -> None:
    """Block form of :func:`_res_calc` (res1/res2 are increment buffers)."""
    dx = x1[:, 0] - x2[:, 0]
    dy = x1[:, 1] - x2[:, 1]

    ri1 = 1.0 / q1[:, 0]
    p1 = _g.gm1 * (q1[:, 3] - 0.5 * ri1 * (q1[:, 1] ** 2 + q1[:, 2] ** 2))
    vol1 = ri1 * (q1[:, 1] * dy - q1[:, 2] * dx)

    ri2 = 1.0 / q2[:, 0]
    p2 = _g.gm1 * (q2[:, 3] - 0.5 * ri2 * (q2[:, 1] ** 2 + q2[:, 2] ** 2))
    vol2 = ri2 * (q2[:, 1] * dy - q2[:, 2] * dx)

    mu = 0.5 * (adt1[:, 0] + adt2[:, 0]) * _g.eps

    f0 = 0.5 * (vol1 * q1[:, 0] + vol2 * q2[:, 0]) + mu * (q1[:, 0] - q2[:, 0])
    f1 = 0.5 * (vol1 * q1[:, 1] + p1 * dy + vol2 * q2[:, 1] + p2 * dy) + mu * (
        q1[:, 1] - q2[:, 1]
    )
    f2 = 0.5 * (vol1 * q1[:, 2] - p1 * dx + vol2 * q2[:, 2] - p2 * dx) + mu * (
        q1[:, 2] - q2[:, 2]
    )
    f3 = 0.5 * (vol1 * (q1[:, 3] + p1) + vol2 * (q2[:, 3] + p2)) + mu * (
        q1[:, 3] - q2[:, 3]
    )

    flux = np.stack([f0, f1, f2, f3], axis=1)
    res1 += flux
    res2 -= flux


RES_CALC = Kernel(
    name="res_calc",
    elemental=_res_calc,
    vectorized=_res_calc_vec,
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


def _bres_calc_vec(_idx, x1, x2, q1, adt1, res1, bound) -> None:
    """Block form of :func:`_bres_calc` (res1 is an increment buffer)."""
    dx = x1[:, 0] - x2[:, 0]
    dy = x1[:, 1] - x2[:, 1]

    ri = 1.0 / q1[:, 0]
    p1 = _g.gm1 * (q1[:, 3] - 0.5 * ri * (q1[:, 1] ** 2 + q1[:, 2] ** 2))
    wall = bound[:, 0] == 1

    # Reflective wall contribution.
    res1[wall, 1] += p1[wall] * dy[wall]
    res1[wall, 2] += -p1[wall] * dx[wall]

    # Far-field contribution for the remaining edges.
    far = ~wall
    if np.any(far):
        qinf = _g.qinf
        vol1 = ri[far] * (q1[far, 1] * dy[far] - q1[far, 2] * dx[far])
        ri_inf = 1.0 / qinf[0]
        p2 = _g.gm1 * (qinf[3] - 0.5 * ri_inf * (qinf[1] ** 2 + qinf[2] ** 2))
        vol2 = ri_inf * (qinf[1] * dy[far] - qinf[2] * dx[far])
        mu = adt1[far, 0] * _g.eps

        res1[far, 0] += 0.5 * (vol1 * q1[far, 0] + vol2 * qinf[0]) + mu * (
            q1[far, 0] - qinf[0]
        )
        res1[far, 1] += (
            0.5 * (vol1 * q1[far, 1] + p1[far] * dy[far] + vol2 * qinf[1] + p2 * dy[far])
            + mu * (q1[far, 1] - qinf[1])
        )
        res1[far, 2] += (
            0.5 * (vol1 * q1[far, 2] - p1[far] * dx[far] + vol2 * qinf[2] - p2 * dx[far])
            + mu * (q1[far, 2] - qinf[2])
        )
        res1[far, 3] += 0.5 * (vol1 * (q1[far, 3] + p1[far]) + vol2 * (qinf[3] + p2)) + mu * (
            q1[far, 3] - qinf[3]
        )


BRES_CALC = Kernel(
    name="bres_calc",
    elemental=_bres_calc,
    vectorized=_bres_calc_vec,
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


def _update_vec(_idx, qold, q, res, adt, rms) -> None:
    """Block form of :func:`_update` (rms is a reduction buffer)."""
    adti = 1.0 / adt[:, 0]
    delta = adti[:, None] * res
    q[...] = qold - delta
    res[...] = 0.0
    rms[0] += float(np.sum(delta * delta))


UPDATE = Kernel(
    name="update",
    elemental=_update,
    vectorized=_update_vec,
    cycles_per_element=40.0,
    imbalance=0.08,
)

#: all five kernels in execution order
ALL_KERNELS = (SAVE_SOLN, ADT_CALC, RES_CALC, BRES_CALC, UPDATE)
