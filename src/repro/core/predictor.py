"""History-based start-state prediction: priors learned across runs.

Look-back speculation ranks candidate boundary states by a *prior* over
state occupancy (:func:`repro.core.lookback.state_prior`), normally
measured from an input-prefix sample. Ko et al.'s speculative parallel
membership test shows that historical success statistics make a better
predictor than any single sample: real deployments run the same machine
over many inputs, and the empirical distribution of *true* chunk-boundary
states converges quickly.

:class:`HistoryPredictor` is that branch-predictor analog for the chunk
scoreboard. It keys observations by a content fingerprint of the machine
(:func:`dfa_fingerprint`), accumulates the true per-chunk starting states
recovered after each run (ground truth from the merge, not a guess), and
feeds the learned occupancy back into the ranking used by
:func:`repro.core.lookback.state_ranking` / ``speculate`` on the next run.
Persistence is an optional JSON file written atomically (temp + rename),
so concurrent runs never observe a torn store; with no path the predictor
learns in memory only.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from repro.fsm.dfa import DFA
from repro.obs.trace import add_count

__all__ = ["dfa_fingerprint", "HistoryPredictor"]

_FORMAT_VERSION = 1


def dfa_fingerprint(dfa: DFA, *, start: bool = True) -> str:
    """Content hash identifying a machine across processes and runs.

    Covers the transition table, the start state, and the accepting mask —
    two machines with the same fingerprint have identical speculation
    behaviour, so their boundary-state histories are interchangeable.
    ``start=False`` leaves the start state out, for artifacts that take it
    at run time (compiled kernels).
    """
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(dfa.table, dtype=np.int32).tobytes())
    if start:
        h.update(int(dfa.start).to_bytes(4, "little"))
    h.update(np.ascontiguousarray(dfa.accepting, dtype=np.bool_).tobytes())
    return h.hexdigest()


class HistoryPredictor:
    """Per-machine priors over true chunk-boundary states, learned over runs.

    Parameters
    ----------
    path:
        JSON store location. ``None`` keeps the history in memory only
        (useful for tests and single-process sessions); with a path the
        store is loaded eagerly and re-written atomically after every
        :meth:`observe`.
    smoothing:
        Laplace term added to the learned counts so states never observed
        at a boundary remain speculable.
    """

    def __init__(self, path: str | os.PathLike | None = None, *, smoothing: float = 0.5):
        self.path = os.fspath(path) if path is not None else None
        self.smoothing = float(smoothing)
        self._store: dict[str, dict] = {}
        if self.path is not None and os.path.exists(self.path):
            self._load()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except (OSError, ValueError):
            # A torn or foreign file is treated as an empty history — the
            # predictor degrades to the sample prior, never to an error —
            # and the corruption is made visible on the ambient trace.
            add_count("predictor.load_corrupt")
            self._store = {}
            return
        if not isinstance(raw, dict) or raw.get("version") != _FORMAT_VERSION:
            add_count("predictor.load_corrupt")
            self._store = {}
            return
        machines = raw.get("machines", {})
        if not isinstance(machines, dict):
            add_count("predictor.load_corrupt")
            self._store = {}
            return
        store: dict[str, dict] = {}
        dropped = False
        for fp, entry in machines.items():
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("counts"), list)
                and all(
                    isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in entry["counts"]
                )
            ):
                dropped = True
                continue
            store[fp] = entry
        if dropped:
            # Partial corruption: keep the sound entries, count the rot.
            add_count("predictor.load_corrupt")
        self._store = store

    def save(self) -> None:
        """Write the store atomically (temp file + rename); no-op in memory mode."""
        if self.path is None:
            return
        payload = {"version": _FORMAT_VERSION, "machines": self._store}
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(payload, f)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #

    def runs_observed(self, dfa: DFA) -> int:
        """How many runs have contributed history for this machine."""
        entry = self._store.get(dfa_fingerprint(dfa))
        return int(entry["runs"]) if entry else 0

    def prior(self, dfa: DFA) -> np.ndarray | None:
        """Learned occupancy prior for ``dfa``, or None with no history.

        Normalized over ``dfa.num_states`` with Laplace smoothing; suitable
        as the ``prior=`` argument of :func:`repro.core.lookback.speculate`
        or :func:`repro.core.lookback.state_ranking`.
        """
        entry = self._store.get(dfa_fingerprint(dfa))
        if entry is None:
            return None
        counts = np.asarray(entry["counts"], dtype=np.float64)
        if counts.shape != (dfa.num_states,):
            return None  # stale entry from a differently-sized machine
        counts = counts + self.smoothing
        return counts / counts.sum()

    def ranking(self, dfa: DFA) -> np.ndarray | None:
        """Learned state priority (0 = most likely), or None with no history."""
        prior = self.prior(dfa)
        if prior is None:
            return None
        from repro.core.lookback import state_ranking

        return state_ranking(dfa, prior=prior)

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #

    def observe(self, dfa: DFA, true_starts: np.ndarray) -> None:
        """Fold one run's recovered true chunk-starting states into history.

        ``true_starts`` is the ground-truth per-chunk incoming-state vector
        the merge recovered (``SpecExecutionResult.true_starts``). Chunk 0
        is excluded — its state is the machine's start, never predicted.
        Persists immediately when a ``path`` was given.
        """
        true_starts = np.asarray(true_starts)
        if true_starts.ndim != 1:
            raise ValueError(
                f"true_starts must be 1-D, got shape {true_starts.shape}"
            )
        boundary_states = true_starts[1:]
        fp = dfa_fingerprint(dfa)
        entry = self._store.get(fp)
        counts = (
            np.asarray(entry["counts"], dtype=np.int64)
            if entry is not None
            and len(entry.get("counts", ())) == dfa.num_states
            else np.zeros(dfa.num_states, dtype=np.int64)
        )
        if boundary_states.size:
            counts += np.bincount(
                boundary_states.astype(np.int64), minlength=dfa.num_states
            )
        self._store[fp] = {
            "counts": counts.tolist(),
            "runs": (int(entry["runs"]) if entry else 0) + 1,
        }
        self.save()
