"""Compile generated C sources into cached shared objects.

Artifacts are cached at two levels:

* **in memory** — loaded handles live in :mod:`repro.core.native.runtime`;
* **on disk** — ``<cache_dir>/<key>.so`` where ``key`` hashes
  ``(table fingerprint, k, kernel, collapse, dtype, abi_version)``, so a
  second process (a restarted server, a fresh pool worker) finds warm
  code and performs **zero** compiles.

Disk writes are atomic and safe under concurrent compilers racing on the
same fingerprint: each compile targets a unique temp path in the cache
directory and is published with ``os.replace``. Two racers both
compile, both rename, last one wins — the artifact content is identical
by construction, so either is valid.

No hard dependency is added: the system compiler is discovered at first
use (``$CC``, then ``cc``/``gcc``/``clang`` on PATH) and driven via
``subprocess``. A missing or broken compiler marks the build layer
unavailable for the process (fast-fail, counted as ``native.fallback``
by callers).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import threading
import uuid
from dataclasses import dataclass

from time import perf_counter

from ...obs import add_count, observe

__all__ = [
    "ABI_VERSION",
    "cache_key",
    "cache_dir",
    "find_compiler",
    "ensure_artifact",
    "build_stats",
    "reset_build_state",
]

#: Bumped whenever the generated C ABI (function signatures, counter
#: layout) changes; part of the cache key so stale artifacts are never
#: loaded by a newer runtime.
ABI_VERSION = 6

_ENV_CACHE_DIR = "REPRO_NATIVE_CACHE"

_lock = threading.Lock()
# compiler path memoized per value of $CC (so tests flipping the env var
# between monkeypatched values re-discover instead of seeing a stale probe)
_compiler_by_env: dict[str | None, str | None] = {}
# compilers that failed to produce an artifact; never retried this process
_broken_compilers: set[str] = set()
_last_error: str | None = None

_stats = {
    "compiles": 0,
    "compile_s": 0.0,
    "hit_mem": 0,
    "hit_disk": 0,
    "misses": 0,
    "fallbacks": 0,
}


@dataclass(frozen=True)
class CompileError(Exception):
    """A compiler was found but failed to produce an artifact."""

    compiler: str
    returncode: int
    stderr: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.compiler} exited {self.returncode}: "
            f"{self.stderr.strip()[:500]}"
        )


def cache_key(
    fingerprint: str,
    *,
    k: int,
    kernel: str,
    collapse: str,
    dtype: str = "i4",
    abi: int = ABI_VERSION,
) -> str:
    """Stable hex key for one specialized artifact."""
    blob = "|".join(
        [fingerprint, str(k), kernel, collapse, dtype, f"abi{abi}"]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def cache_dir() -> str:
    """Directory holding compiled ``.so`` artifacts (created lazily)."""
    path = os.environ.get(_ENV_CACHE_DIR)
    if not path:
        path = os.path.join(
            os.path.expanduser("~"), ".cache", "repro-native"
        )
    os.makedirs(path, exist_ok=True)
    return path


def find_compiler() -> str | None:
    """Locate a usable C compiler, honouring ``$CC``.

    The probe is memoized per ``$CC`` value; a compiler that previously
    failed a build is treated as absent for the rest of the process.
    """
    env_cc = os.environ.get("CC")
    with _lock:
        if env_cc in _compiler_by_env:
            found = _compiler_by_env[env_cc]
            if found is not None and found in _broken_compilers:
                return None
            return found
    candidates = [env_cc] if env_cc else []
    candidates += ["cc", "gcc", "clang"]
    found = None
    for cand in candidates:
        resolved = shutil.which(cand)
        if resolved:
            found = resolved
            break
    with _lock:
        _compiler_by_env[env_cc] = found
        if found is not None and found in _broken_compilers:
            return None
    return found


def _compile(compiler: str, source: str, out_path: str) -> None:
    """Compile ``source`` text to a shared object at ``out_path``."""
    workdir = os.path.dirname(out_path)
    tag = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    src_path = os.path.join(workdir, f".nk-{tag}.c")
    tmp_so = os.path.join(workdir, f".nk-{tag}.so")
    try:
        with open(src_path, "w") as fh:
            fh.write(source)
        cmd = [
            compiler,
            "-O3",
            "-shared",
            "-fPIC",
            "-o",
            tmp_so,
            src_path,
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0 or not os.path.exists(tmp_so):
            raise CompileError(
                compiler, proc.returncode, proc.stderr or proc.stdout
            )
        # Atomic publish: racers compiling the same key each rename their
        # own temp file onto the shared target; content is identical.
        os.replace(tmp_so, out_path)
    finally:
        for path in (src_path, tmp_so):
            try:
                os.unlink(path)
            except OSError:
                pass


def ensure_artifact(key: str, source_fn, *, directory: str | None = None) -> str:
    """Return the path of the compiled artifact for ``key``.

    ``source_fn`` is a zero-argument callable producing the C source; it
    is only invoked on a disk-cache miss. Raises :class:`CompileError`
    when compilation fails and :class:`RuntimeError` when no compiler is
    available.
    """
    directory = directory or cache_dir()
    out_path = os.path.join(directory, f"{key}.so")
    if os.path.exists(out_path):
        with _lock:
            _stats["hit_disk"] += 1
        add_count("native.cache.hit_disk")
        return out_path

    with _lock:
        _stats["misses"] += 1
    add_count("native.cache.miss")

    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler available")

    t0 = perf_counter()
    try:
        _compile(compiler, source_fn(), out_path)
    except (CompileError, OSError, subprocess.SubprocessError) as exc:
        global _last_error
        with _lock:
            _broken_compilers.add(compiler)
            _last_error = str(exc)
        raise
    dt = perf_counter() - t0
    with _lock:
        _stats["compiles"] += 1
        _stats["compile_s"] += dt
    add_count("native.compile")
    observe("native.compile_us", dt * 1e6)
    return out_path


def note_mem_hit() -> None:
    with _lock:
        _stats["hit_mem"] += 1
    add_count("native.cache.hit_mem")


def note_fallback(reason: str) -> None:
    with _lock:
        _stats["fallbacks"] += 1
    add_count("native.fallback")
    add_count(f"native.fallback.{reason}")


def build_stats() -> dict:
    """Snapshot of process-local compile-cache stats (for CI artifacts)."""
    compiler = find_compiler()
    with _lock:
        snap = dict(_stats)
        snap["compiler"] = compiler
        snap["last_error"] = _last_error
        snap["cache_dir"] = (
            os.environ.get(_ENV_CACHE_DIR)
            or os.path.join(os.path.expanduser("~"), ".cache", "repro-native")
        )
        snap["abi_version"] = ABI_VERSION
    return snap


def reset_build_state() -> None:
    """Forget memoized compiler probes and stats (test hook)."""
    global _last_error
    with _lock:
        _compiler_by_env.clear()
        _broken_compilers.clear()
        _last_error = None
        for k in _stats:
            _stats[k] = 0.0 if k == "compile_s" else 0
