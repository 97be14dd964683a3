"""``op_dat``: data attached to the elements of a set.

An ``op_dat`` of dimension ``dim`` stores ``dim`` values of one dtype per set
element, backed by a ``(set.size, dim)`` NumPy array.  Dats track a *version*
counter (bumped on every write access by a parallel loop), which the HPX
backend uses to name the future associated with the latest value of the dat
when building the loop-interleaving dependency graph.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import OP2DeclarationError
from repro.op2.set import OpSet

__all__ = ["OpDat", "op_decl_dat", "DTYPE_ALIASES"]

_dat_ids = itertools.count()

#: mapping from OP2 C type strings to NumPy dtypes
DTYPE_ALIASES: dict[str, np.dtype] = {
    "double": np.dtype(np.float64),
    "float": np.dtype(np.float32),
    "real": np.dtype(np.float64),
    "int": np.dtype(np.int32),
    "long": np.dtype(np.int64),
    "bool": np.dtype(np.bool_),
}


def _resolve_dtype(type_name: Union[str, np.dtype, type]) -> np.dtype:
    if isinstance(type_name, str):
        key = type_name.strip().lower()
        if key not in DTYPE_ALIASES:
            raise OP2DeclarationError(
                f"unknown OP2 type string {type_name!r}; known: {sorted(DTYPE_ALIASES)}"
            )
        return DTYPE_ALIASES[key]
    try:
        return np.dtype(type_name)
    except TypeError as exc:  # pragma: no cover - defensive
        raise OP2DeclarationError(f"cannot interpret dtype {type_name!r}") from exc


_memoising: dict[int, "OpDat"] = {}  # the dats holding memoised op_arg_dat arguments


def _sweep_memos() -> None:
    """Drop the memo of every dat only its own memoised arguments refer to: a
    dat and its memo form a reference cycle, which would hold a dropped mesh's
    arrays until the cyclic collector ran, so each declaration sweeps first."""
    swept = list(_memoising.values())  # a dict: concurrent sweeps keep no duplicate
    _memoising.clear()
    for held in swept:  # references: swept, held, getrefcount's argument, the memo
        if sys.getrefcount(held) > 3 + len(held._args):
            _memoising[id(held)] = held
        else:
            held._args.clear()


class OpDat:
    """Data of dimension ``dim`` on every element of ``dataset``."""

    __slots__ = ("dat_id", "dataset", "dim", "dtype", "data", "name", "_version", "_args")

    def __init__(
        self,
        dataset: OpSet,
        dim: int,
        type_name: Union[str, np.dtype, type],
        data: Optional[Union[Sequence, np.ndarray]] = None,
        name: str = "",
    ) -> None:
        if not isinstance(dataset, OpSet):
            raise OP2DeclarationError("op_dat must be declared on an OpSet")
        if dim <= 0:
            raise OP2DeclarationError(f"dat dimension must be positive, got {dim}")
        _sweep_memos()
        dtype = _resolve_dtype(type_name)
        if data is None:
            array = np.zeros((dataset.size, dim), dtype=dtype)
        else:
            array = np.array(data, dtype=dtype).reshape(dataset.size, dim).copy()
        self.dat_id = next(_dat_ids)
        self.dataset = dataset
        self.dim = dim
        self.dtype = dtype
        self.data = array
        self.name = name or f"dat_{self.dat_id}"
        self._version = 0
        #: ``op_arg_dat``'s memo of the validated arguments over this dat
        self._args: dict[tuple, Any] = {}

    def _memoise(self, key: tuple, arg: Any) -> None:
        """Keep ``op_arg_dat``'s validated ``arg`` for ``key`` (:func:`_sweep_memos`)."""
        if not self._args:
            _memoising[id(self)] = self
        self._args[key] = arg

    # -- versioning (used by the dataflow backend) -------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter, bumped whenever a loop writes this dat."""
        return self._version

    def bump_version(self) -> int:
        """Record that the dat has been (or is about to be) modified."""
        self._version += 1
        return self._version

    # -- data access ----------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of set elements the dat covers."""
        return self.dataset.size

    @property
    def nbytes(self) -> int:
        """Total storage footprint in bytes."""
        return int(self.data.nbytes)

    @property
    def bytes_per_element(self) -> int:
        """Bytes per set element (``dim * itemsize``)."""
        return int(self.dim * self.dtype.itemsize)

    def copy_data(self) -> np.ndarray:
        """A defensive copy of the underlying array."""
        return self.data.copy()

    def set_data(self, values: Union[Sequence, np.ndarray]) -> None:
        """Replace the dat contents (shape-checked); bumps the version."""
        array = np.asarray(values, dtype=self.dtype)
        if array.shape != self.data.shape:
            array = array.reshape(self.data.shape)
        self.data[...] = array
        self.bump_version()

    def zero(self) -> None:
        """Set every value to zero; bumps the version."""
        self.data[...] = 0
        self.bump_version()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpDat) and other.dat_id == self.dat_id

    def __hash__(self) -> int:
        return hash(("OpDat", self.dat_id))

    def __repr__(self) -> str:
        return (
            f"OpDat(name={self.name!r}, set={self.dataset.name!r}, dim={self.dim}, "
            f"dtype={self.dtype.name}, version={self._version})"
        )


def op_decl_dat(
    dataset: OpSet,
    dim: int,
    type_name: Union[str, np.dtype, type],
    data: Optional[Union[Sequence, np.ndarray]] = None,
    name: str = "",
) -> OpDat:
    """Declare a dat (C API: ``op_decl_dat``)."""
    return OpDat(dataset, dim, type_name, data, name)
