"""``op_arg_dat`` / ``op_arg_gbl``: loop argument descriptors.

Every argument passed to :func:`repro.op2.par_loop.op_par_loop` is built by
one of these constructors.  The descriptor records *which* data is accessed,
*through which map* (``OP_ID`` for direct access), and *how* (the access
mode) -- the static information the OP2 compiler uses, and that the paper's
redesign additionally uses at runtime to build the loop dependency graph.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

from repro.errors import OP2AccessError
from repro.op2.access import OP_ID, AccessMode, IdentityMap
from repro.op2.dat import DTYPE_ALIASES, OpDat
from repro.op2.map import OpMap

__all__ = ["ArgKind", "OpArg", "op_arg_dat", "op_arg_gbl", "stub_code"]


class ArgKind(enum.Enum):
    """Whether the argument is per-element data or a global value."""

    DAT = "dat"
    GBL = "gbl"


def stub_code(is_global: bool, is_direct: bool, access: str) -> str:
    """An argument's letter of its loop's stub key, ``access`` an
    :class:`AccessMode` value: ``d`` direct dat; indirect ``r`` READ, ``i``
    INC, ``w`` WRITE/RW; global ``g`` READ/WRITE/RW, ``s`` INC, ``n`` MIN,
    ``x`` MAX."""
    if is_global:
        return {"inc": "s", "min": "n", "max": "x"}.get(access, "g")
    return "d" if is_direct else {"read": "r", "inc": "i"}.get(access, "w")


#: :func:`stub_code` for every argument shape, so building an argument
#: (once per ``op_arg_gbl`` call) costs no Python call for its letter
_CODES = {
    (is_global, is_direct, mode.value): stub_code(is_global, is_direct, mode.value)
    for is_global in (False, True) for is_direct in (False, True) for mode in AccessMode
}

#: the accesses that modify their data (``AccessMode.writes``)
_WRITES = (AccessMode.WRITE, AccessMode.RW, AccessMode.INC, AccessMode.MIN, AccessMode.MAX)


class OpArg:
    """A fully validated loop argument."""

    __slots__ = (
        "kind", "dat", "map", "map_index", "dim", "type_name", "access", "gbl_data",
        "is_global", "is_direct", "is_indirect", "code",
    )

    def __init__(
        self,
        kind: ArgKind,
        access: AccessMode,
        dim: int,
        type_name: str,
        dat: Optional[OpDat] = None,
        map_: Union[OpMap, IdentityMap, None] = None,
        map_index: int = -1,
        gbl_data: Optional[np.ndarray] = None,
    ) -> None:
        self.kind = kind
        self.access = access
        self.dim = dim
        self.type_name = type_name
        self.dat = dat
        self.map = map_
        self.map_index = map_index
        self.gbl_data = gbl_data
        # Classification, once: every loop execution asks, and nothing
        # reassigns an argument's kind or map.
        #: True for ``op_arg_gbl`` arguments
        self.is_global = kind is ArgKind.GBL
        #: True for dat arguments accessed through the identity map (a singleton)
        self.is_direct = kind is ArgKind.DAT and map_ is OP_ID
        #: True for dat arguments accessed through a real map
        self.is_indirect = (
            kind is ArgKind.DAT and not self.is_direct and isinstance(map_, OpMap)
        )
        #: its letter of the loop's stub key
        self.code = _CODES[self.is_global, self.is_direct, access._value_]

    # -- helpers -------------------------------------------------------------------
    @property
    def bytes_per_iteration(self) -> int:
        """Bytes this argument moves per loop iteration (used by the cost model)."""
        if self.is_global:
            assert self.gbl_data is not None
            return int(self.gbl_data.nbytes)
        assert self.dat is not None
        return self.dat.bytes_per_element

    def describe(self) -> str:
        """Compact, human-readable form used in plans and reports."""
        if self.is_global:
            return f"gbl(dim={self.dim}, {self.access.value})"
        assert self.dat is not None
        via = "OP_ID" if self.is_direct else f"{self.map.name}[{self.map_index}]"  # type: ignore[union-attr]
        return f"{self.dat.name} via {via} ({self.access.value})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpArg({self.describe()})"


def op_arg_dat(
    dat: OpDat,
    idx: int,
    map_: Union[OpMap, IdentityMap],
    dim: int,
    type_name: str,
    access: AccessMode,
) -> OpArg:
    """Build a per-element data argument (C API: ``op_arg_dat``).

    Parameters
    ----------
    dat:
        The data to access.
    idx:
        Map slot for indirect arguments (``0 <= idx < map.dim``); must be
        ``-1`` for direct arguments (``map_ is OP_ID``).
    map_:
        ``OP_ID`` for direct access, or the :class:`OpMap` used to reach the
        dat's set from the iteration set.
    dim / type_name:
        Declared dimension and type; checked against the dat.
    access:
        One of ``OP_READ`` / ``OP_WRITE`` / ``OP_RW`` / ``OP_INC``.

    ``dat`` may also be a future/shared future of an :class:`OpDat` -- exactly
    what the HPX backend's ``op_par_loop`` returns (Fig. 9 of the paper).  A
    :class:`~repro.runtime.future.HandleFuture` exposes the dat's identity
    eagerly, so the argument is built *without blocking* (the dependency DAG
    orders the actual data accesses); any other future is awaited here.

    A valid argument is memoised on the dat, keyed by the other inputs (the
    map by identity, the access mode by value: hashing an enum member is a
    Python call), so a repeated call returns the same :class:`OpArg`.
    """
    if dat.__class__ is OpDat and access.__class__ is AccessMode and type_name.__class__ is str:
        arg = dat._args.get((idx, id(map_), dim, type_name, access._value_))
        if arg is not None:
            return arg
    if not isinstance(dat, OpDat):
        if hasattr(dat, "get") and hasattr(dat, "is_ready"):
            handle = getattr(dat, "handle", None)
            if isinstance(handle, OpDat):
                dat = handle  # declared against the handle; the DAG orders the data
            else:
                dat = dat.get()  # a plain Future/SharedFuture of an OpDat
        if not isinstance(dat, OpDat):
            raise OP2AccessError(f"op_arg_dat needs an OpDat, got {dat!r}")
    if not isinstance(access, AccessMode):
        raise OP2AccessError(f"invalid access mode {access!r}")
    if access in (AccessMode.MIN, AccessMode.MAX):
        raise OP2AccessError("OP_MIN/OP_MAX are only valid for op_arg_gbl")
    if dim != dat.dim:
        raise OP2AccessError(
            f"declared dim {dim} does not match dat {dat.name!r} dim {dat.dim}"
        )
    declared = DTYPE_ALIASES.get(str(type_name).lower())
    if declared is not None and declared != dat.dtype:
        raise OP2AccessError(
            f"declared type {type_name!r} does not match dat {dat.name!r} dtype "
            f"{dat.dtype.name}"
        )
    if map_ is OP_ID:
        if idx != -1:
            raise OP2AccessError("direct arguments (OP_ID) must use idx == -1")
    elif isinstance(map_, OpMap):
        if not 0 <= idx < map_.dim:
            raise OP2AccessError(
                f"map index {idx} outside [0, {map_.dim}) for map {map_.name!r}"
            )
        if map_.to_set is not dat.dataset and map_.to_set != dat.dataset:
            raise OP2AccessError(
                f"map {map_.name!r} targets set {map_.to_set.name!r} but dat "
                f"{dat.name!r} lives on {dat.dataset.name!r}"
            )
    else:
        raise OP2AccessError(f"map argument must be OP_ID or an OpMap, got {map_!r}")
    arg = OpArg(ArgKind.DAT, access, dim, str(type_name), dat, map_, idx)
    if type_name.__class__ is str:
        dat._memoise((idx, id(map_), dim, type_name, access._value_), arg)  # keeps map_ alive
    return arg


def op_arg_gbl(
    data: Union[np.ndarray, list, float],
    dim: int,
    type_name: str,
    access: AccessMode,
) -> OpArg:
    """Build a global argument (C API: ``op_arg_gbl``), e.g. a reduction target:
    a 1-D copy of a scalar or sequence (read only), or the caller's own array
    (0-d as one value), which must hold the declared type if writable."""
    if access.__class__ is not AccessMode:
        raise OP2AccessError(f"invalid access mode {access!r}")
    try:
        dtype = DTYPE_ALIASES[type_name]
    except (KeyError, TypeError):
        dtype = DTYPE_ALIASES.get(str(type_name).lower())
        if dtype is None:
            raise OP2AccessError(f"unknown OP2 type string {type_name!r}") from None
    writes = access in _WRITES
    if data.__class__ is not np.ndarray and not isinstance(data, np.ndarray):
        if writes:
            raise OP2AccessError(
                "writable global arguments must be NumPy arrays so the result is "
                "visible to the caller"
            )
        data = np.asarray(data, dtype=dtype)
    storage = data.reshape(1) if data.ndim == 0 else data
    if storage.ndim != 1:
        raise OP2AccessError(f"a global argument is 1-D, got an array of shape {data.shape}")
    if writes and storage.dtype != dtype:
        raise OP2AccessError(
            f"declared type {type_name!r} does not match the writable global's "
            f"dtype {storage.dtype.name}"
        )
    if storage.size != dim:
        raise OP2AccessError(
            f"global argument has {storage.size} values but declared dim {dim}"
        )
    return OpArg(
        kind=ArgKind.GBL,
        access=access,
        dim=dim,
        type_name=str(type_name),
        gbl_data=storage,  # type: ignore[arg-type]
    )
