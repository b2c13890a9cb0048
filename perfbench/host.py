"""Run isolation and host facts: scratch directories, environment, memory, /dev/shm."""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

SHM_DIR = Path("/dev/shm")


class Scratch:
    """A private scratch directory inside the checkout, removed on exit.

    Each native-compile cache the benchmark points the program at is a
    fresh subdirectory, so an artifact built by another commit (the cache
    key holds no source hash) is never loaded and every set-up compiles.
    """

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        self._n = 0

    def fresh_native_cache(self) -> None:
        """Point ``REPRO_NATIVE_CACHE`` at a new empty directory."""
        self._n += 1
        d = self.path / f"native-{self._n}"
        d.mkdir()
        os.environ["REPRO_NATIVE_CACHE"] = str(d)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def isolate_env() -> None:
    """Disarm environment switches that change the program's behaviour."""
    # REPRO_CHAOS arms a kill-one-worker fault plan in every supervised pool.
    os.environ.pop("REPRO_CHAOS", None)


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    vals = [int(v) for v in fields]
    steal = vals[7] if len(vals) > 7 else 0
    # guest time is already included in user time
    return steal, sum(vals[:8])


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def host_facts() -> dict:
    """Facts that explain a number measured on this host."""
    import numpy as np

    try:
        cc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=10
        ).stdout.split("\n", 1)[0]
    except (OSError, subprocess.SubprocessError):
        cc = "absent"
    return {
        "nproc": os.cpu_count(),
        "cc": cc,
        "numpy": np.__version__,
        "native_provider": native_provider(),
    }


def native_provider() -> str:
    """Which native provider the program would load: cffi, ctypes, numba, or none."""
    try:
        from repro.core.native import find_compiler, native_available
    except ImportError:
        return "absent"
    if not native_available():
        return "none"
    if find_compiler() is None:
        return "numba"
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "ctypes"
    return "cffi"


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return 0


def _children(pid: int) -> list[int]:
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            pass
    return out


def tree_rss_kb(pid: int | None = None) -> int:
    """Resident set size of a process and all its descendants, in KiB."""
    pid = os.getpid() if pid is None else pid
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        total += _rss_kb(p)
        stack.extend(_children(p))
    return total


class PeakRss:
    """Peak resident memory of this process tree, pool workers included.

    This process's own peak comes from the kernel (``ru_maxrss``); the
    tree's is sampled every ``interval_s`` on a background thread. The
    larger of the two is reported.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak_kb = max(self.peak_kb, tree_rss_kb())

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, tree_rss_kb())

    @property
    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python's pools create."""
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant of a process (default: this one), nearest first."""
    pid = os.getpid() if pid is None else pid
    out, frontier = [], _children(pid)
    while frontier:
        out.extend(frontier)
        frontier = [c for p in frontier for c in _children(p)]
    return out


def _alive(pid: int) -> bool:
    """Whether a process still runs (a zombie has ended and counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (OSError, IndexError):
        return False


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:  # not our child, or already reaped
        pass


def stop_children(timeout_s: float = 5.0) -> list[int]:
    """Stop every process this one started and wait until each has ended.

    Closed pools join their workers, but Python's multiprocessing keeps
    helper processes for the life of the interpreter: the resource
    tracker that the first shared-memory segment starts, and a
    forkserver if one was used. They would outlive this process by a
    moment and could serve a later run, so they are shut down here and
    waited for. Anything else still running is terminated, then killed.
    Returns the pids of those other processes: a pool worker or any
    other process that the program left behind.
    """
    import multiprocessing
    import signal
    import time

    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join(timeout_s)
    for module, attr in (("resource_tracker", "_resource_tracker"), ("forkserver", "_forkserver")):
        try:
            mod = __import__(f"multiprocessing.{module}", fromlist=[attr])
            getattr(mod, attr)._stop()
        except Exception:  # not started, or the stdlib internals moved
            pass
    stray = [p for p in descendants() if _alive(p)]
    left = sorted({proc.pid for proc in left} | set(stray))
    for sig in (signal.SIGTERM, signal.SIGKILL):
        live = [p for p in stray if _alive(p)]
        if not live:
            break
        for p in live:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s
        while any(_alive(p) for p in stray) and time.monotonic() < deadline:
            for p in stray:
                _reap(p)
            time.sleep(0.01)
    for p in descendants():  # ended children are reaped, not left as zombies
        _reap(p)
    return left
