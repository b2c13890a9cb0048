"""Reference answers, computed before timing and independently of the program.

Nothing here calls the execution layers under test; every answer comes
from the machine's transition table alone, by plain sequential
stepping made cheap enough to check every timed output:

* :func:`final_state` proves the answer from a synchronizing suffix when
  one exists (every state is driven to the same state by the input's
  tail, so the start and the prefix cannot matter) and otherwise steps
  the input ``g`` symbols at a time over a table of ``g``-symbol words;
* :class:`BlockMaps` answers many requests over one corpus: each aligned
  block's state-to-state map is tabulated once, then a request walks one
  lookup per block;
* :func:`literal_matches` finds where a literal signature ends by
  comparing shifted views of the stream.
"""

from __future__ import annotations

import math

import numpy as np

SYNC_WINDOW = 256
MAX_WORD_CODES = 4096


def step_all(table: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Map every state to where ``symbols`` drives it (a state-to-state map)."""
    states = np.arange(table.shape[1], dtype=np.int64)
    for a in np.asarray(symbols).tolist():
        states = table[a, states]
    return states


def sequential(table: np.ndarray, start: int, symbols: np.ndarray) -> int:
    """The textbook loop: one table lookup per symbol."""
    rows = table.tolist()
    s = int(start)
    for a in np.asarray(symbols).tolist():
        s = rows[a][s]
    return s


def word_table(table: np.ndarray, g: int) -> np.ndarray:
    """``out[code, s]``: the state reached from ``s`` over the ``g``-symbol word ``code``.

    A word ``w_0 .. w_{g-1}`` has ``code = sum(w_j * A**j)`` for an
    alphabet of ``A`` symbols.
    """
    num_inputs, num_states = table.shape
    codes = np.arange(num_inputs**g, dtype=np.int64)
    out = np.broadcast_to(
        np.arange(num_states, dtype=np.int64), (codes.size, num_states)
    )
    for j in range(g):
        sym = (codes // num_inputs**j) % num_inputs
        out = table[sym[:, None], out]
    return np.ascontiguousarray(out)


def packed_run(table: np.ndarray, start: int, symbols: np.ndarray) -> int:
    """Sequential run taking ``g`` symbols per lookup (``A**g <= MAX_WORD_CODES``)."""
    num_inputs = table.shape[0]
    g = max(1, int(math.log(MAX_WORD_CODES) / math.log(max(2, num_inputs))))
    symbols = np.asarray(symbols, dtype=np.int64)
    if g == 1:
        return sequential(table, start, symbols)
    head = symbols.size // g * g
    codes = symbols[:head].reshape(-1, g) @ (num_inputs ** np.arange(g))
    rows = word_table(table, g).tolist()
    s = int(start)
    for c in codes.tolist():
        s = rows[c][s]
    return sequential(table, s, symbols[head:])


def final_state(table: np.ndarray, start: int, symbols: np.ndarray) -> int:
    """The state after ``symbols`` from ``start``: exact, and cheap when possible."""
    symbols = np.asarray(symbols)
    if symbols.size >= SYNC_WINDOW:
        image = step_all(table, symbols[-SYNC_WINDOW:])
        if (image == image[0]).all():
            return int(image[0])
    return packed_run(table, start, symbols)


class BlockMaps:
    """Per-block state maps of one corpus, for requests aligned to blocks.

    ``maps[b, s]`` is the state reached from ``s`` over corpus block
    ``b``. A request covering whole blocks is answered with one lookup
    per block.
    """

    def __init__(self, table: np.ndarray, corpus: np.ndarray, block: int) -> None:
        nb = corpus.size // block
        blocks = np.asarray(corpus[: nb * block], dtype=np.int64).reshape(nb, block)
        maps = np.broadcast_to(
            np.arange(table.shape[1], dtype=np.int64), (nb, table.shape[1])
        )
        for j in range(block):
            maps = table[blocks[:, j][:, None], maps]
        self.block = block
        self._rows = maps.tolist()

    def final_state(self, start: int, offset: int, length: int) -> int:
        """State after ``corpus[offset : offset + length]`` (both block-aligned)."""
        if offset % self.block or length % self.block:
            raise ValueError("request must cover whole blocks")
        s = int(start)
        first = offset // self.block
        for row in self._rows[first : first + length // self.block]:
            s = row[s]
        return s


def literal_matches(stream: np.ndarray, literal) -> np.ndarray:
    """Offsets at which an occurrence of ``literal`` ends (overlaps included)."""
    lit = np.asarray(literal)
    n, m = stream.size, lit.size
    if n < m:
        return np.zeros(0, dtype=np.int64)
    hit = np.ones(n - m + 1, dtype=bool)
    for j in range(m):
        hit &= stream[j : n - m + 1 + j] == lit[j]
    return np.flatnonzero(hit) + (m - 1)
