"""The hand-written NumPy block forms the apps carried before theirs were
generated from the elemental source: test oracles for
:mod:`repro.translator.blockform`, in the block-form convention
``f(_idx, *views)``.  Bodies unchanged, so a generated form that equals
them bit for bit equals the parent's dats bit for bit."""

from __future__ import annotations

import numpy as np

from repro.apps.airfoil.kernels import GAS_CONSTANTS as _g


def save_soln(_idx: np.ndarray, q: np.ndarray, qold: np.ndarray) -> None:
    """Block form of airfoil's ``save_soln``."""
    qold[...] = q


def adt_calc(_idx, x1, x2, x3, x4, q, adt) -> None:
    """Block form of airfoil's ``adt_calc``."""
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


def res_calc(_idx, x1, x2, q1, q2, adt1, adt2, res1, res2) -> None:
    """Block form of airfoil's ``res_calc`` (res1/res2 are increment buffers)."""
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


def bres_calc(_idx, x1, x2, q1, adt1, res1, bound) -> None:
    """Block form of airfoil's ``bres_calc`` (res1 is an increment buffer)."""
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


def update(_idx, qold, q, res, adt, rms) -> None:
    """Block form of airfoil's ``update`` (rms is a reduction buffer)."""
    adti = 1.0 / adt[:, 0]
    delta = adti[:, None] * res
    q[...] = qold - delta
    res[...] = 0.0
    rms[0] += float(np.sum(delta * delta))


def jacobi_res(_idx, a, u, du) -> None:
    """Block form of Jacobi's ``res``."""
    du[:, 0] += a[:, 0] * u[:, 0]


def jacobi_update(_idx, r, du, u, u_sum, u_max) -> None:
    """Block form of Jacobi's ``jac_update``."""
    u[:, 0] = du[:, 0] + 0.1 * r[:, 0]
    du[:, 0] = 0.0
    u_sum[0] += float(np.sum(u[:, 0] ** 2))
    u_max[0] = max(u_max[0], float(np.max(u[:, 0])))


def aero_cell(_idx, phi0, phi1, phi2, phi3, k, d0, d1, d2, d3) -> None:
    """Block form of aero's ``aero_cell``."""
    average = 0.25 * (phi0[:, 0] + phi1[:, 0] + phi2[:, 0] + phi3[:, 0])
    stiffness = k[:, 0]
    d0[:, 0] += stiffness * (average - phi0[:, 0])
    d1[:, 0] += stiffness * (average - phi1[:, 0])
    d2[:, 0] += stiffness * (average - phi2[:, 0])
    d3[:, 0] += stiffness * (average - phi3[:, 0])


def aero_node(_idx, delta, phi, residual) -> None:
    """Block form of aero's ``aero_node``."""
    phi[:, 0] += 0.7 * delta[:, 0]
    residual[0] += float(np.sum(delta[:, 0] ** 2))
    delta[:, 0] = 0.0
