"""Native-compiled hot path: specialized C kernels with a JIT cache.

The NumPy kernels (:mod:`repro.core.kernels`) pay a Python-level dispatch
per macro-step; this package closes the paper's loop by *generating*
specialized C for each plan — speculation width ``k`` unrolled into
locals, stride-``m`` stepping, collapse-aware single-lane narrowing, and
the ``compose_maps`` fold with its first-match semi-join — compiling it
at first use with the system compiler, and caching artifacts in memory
and on disk keyed by
``(table fingerprint, k, kernel, collapse, dtype, abi_version)`` so
repeated tenants and restarted servers perform zero compiles. The table
fingerprint hashes the transition table and accepting mask, not the start
state, which a kernel never reads.

No hard dependency is added: artifacts are built by the system C
compiler and loaded with stdlib ctypes; with no working compiler the
caller falls back to pure NumPy.
:func:`load_native_plan` returns ``None`` on any failure, and
``backend="auto"`` then runs NumPy.

``python -m repro.core.native`` prints the compile-cache statistics as
JSON (used by CI to archive cache behaviour).
"""

from .build import (
    ABI_VERSION,
    build_stats,
    cache_dir,
    cache_key,
    find_compiler,
    reset_build_state,
)
from .cgen import UNROLL_LIMIT, NativeSpec, generate_source
from .runtime import (
    NativeKernel,
    cache_stats,
    clear_memory_cache,
    load_artifact,
    load_native_plan,
    load_serial_kernel,
    native_available,
)

__all__ = [
    "ABI_VERSION",
    "UNROLL_LIMIT",
    "NativeSpec",
    "NativeKernel",
    "generate_source",
    "build_stats",
    "cache_stats",
    "cache_dir",
    "cache_key",
    "clear_memory_cache",
    "find_compiler",
    "load_artifact",
    "load_native_plan",
    "load_serial_kernel",
    "native_available",
    "reset_build_state",
]
