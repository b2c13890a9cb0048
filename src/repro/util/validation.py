"""Lightweight argument validation helpers.

These helpers raise uniform, descriptive errors. They are used at public API
boundaries only; inner loops stay branch-free (see the hpc guides: validate
once at the edge, then trust array invariants inside kernels).
"""

from __future__ import annotations

from typing import Any, Collection

import numpy as np

__all__ = [
    "check_positive",
    "check_range",
    "check_in_set",
    "check_dtype_integer",
    "check_symbols",
]


def check_positive(name: str, value: float | int, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 if not strict)."""
    if strict:
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    else:
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_range(name: str, value: float | int, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_in_set(name: str, value: Any, allowed: Collection[Any]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")


def check_dtype_integer(name: str, array: np.ndarray) -> None:
    """Raise ``TypeError`` unless ``array`` has an integer dtype."""
    if not np.issubdtype(array.dtype, np.integer):
        raise TypeError(f"{name} must have an integer dtype, got {array.dtype}")


def check_symbols(symbols: np.ndarray, num_inputs: int) -> None:
    """Raise ``ValueError`` unless every symbol lies in ``[0, num_inputs)``.

    Signed integers are viewed unsigned, so a negative wraps to a huge
    value and one ``max`` catches both ends. Every entry point calls this
    before anything remaps, speculates or steps the symbols: a compiled
    kernel would read past its table.
    """
    if not symbols.size:
        return
    kind = symbols.dtype.kind
    if kind == "i":
        top = symbols.view(np.dtype(f"u{symbols.dtype.itemsize}")).max()
    elif kind in "ub":
        top = symbols.max()
    else:
        raise ValueError(
            f"inputs must hold integer symbol ids, got dtype {symbols.dtype}"
        )
    if int(top) >= num_inputs:
        raise ValueError(f"inputs contain symbols outside [0, {num_inputs})")
