"""Content fingerprints that identify a machine across processes and runs.

Compiled kernels (:mod:`repro.core.native`), the serving registry and the
cross-host coordinator key what they build or ship for a machine on
:func:`dfa_fingerprint`, so equal machines share one artifact whatever
object holds them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.fsm.dfa import DFA

__all__ = ["dfa_fingerprint"]


def dfa_fingerprint(dfa: DFA, *, start: bool = True) -> str:
    """Content hash identifying a machine across processes and runs.

    Covers the transition table, the start state, and the accepting mask —
    two machines with the same fingerprint step, speculate and accept
    identically. ``start=False`` leaves the start state out, for artifacts
    that take it at run time (compiled kernels).
    """
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(dfa.table, dtype=np.int32).tobytes())
    if start:
        h.update(int(dfa.start).to_bytes(4, "little"))
    h.update(np.ascontiguousarray(dfa.accepting, dtype=np.bool_).tobytes())
    return h.hexdigest()
