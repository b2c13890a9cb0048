"""One replay hook for every re-execution and true-start recovery pass.

Delayed re-execution (Section 3.3) and output recovery re-walk the input
from *true* chunk-entry states. The merges
(:func:`repro.core.merge_par.merge_parallel`,
:func:`repro.core.merge_seq.merge_sequential`, seeded or not, and
:func:`repro.core.merge_seq.true_boundary_walk`) and the pool's left fold
all take the same hook for that walk::

    replay(chunk, state) -> end_state

With no hook they step the chunk with :func:`repro.fsm.run.run_segment`.
:class:`ChunkReplay` binds a segment runner — a native kernel's
``run_segment`` when the caller holds one, the kernel layer's stride
stepping otherwise — to an input and its chunk plan, and names the path
that replayed so the spans can record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.fsm.dfa import DFA
from repro.fsm.run import run_segment
from repro.workloads.chunking import ChunkPlan

__all__ = ["Replay", "ChunkReplay", "default_replay", "replay_path"]

#: ``(chunk, state) -> end_state``: re-execute one chunk from one state.
Replay = Callable[[int, int], int]


@dataclass(frozen=True)
class ChunkReplay:
    """``replay(c, s)``: run chunk ``first + c`` of ``plan`` from ``s``.

    ``run(symbols, state) -> state`` does the stepping; ``path`` is
    ``"native"`` when it is a compiled kernel, ``"vectorized"`` otherwise.
    ``first`` shifts chunk ids for folds that start past chunk 0.
    """

    run: Callable[[np.ndarray, int], int]
    inputs: np.ndarray
    plan: ChunkPlan
    path: str = "vectorized"
    first: int = 0

    def __call__(self, c: int, s: int) -> int:
        return int(self.run(self.inputs[self.plan.chunk_slice(self.first + c)], s))


def default_replay(
    dfa: DFA, inputs: np.ndarray, plan: ChunkPlan, replay: Replay | None = None
) -> Replay:
    """``replay`` itself, or the default: :func:`run_segment` per chunk."""
    if replay is not None:
        return replay
    return ChunkReplay(partial(run_segment, dfa), inputs, plan)


def replay_path(replay: Replay | None) -> str:
    """``"native"`` or ``"vectorized"``: which path a hook steps on."""
    return getattr(replay, "path", "vectorized")
