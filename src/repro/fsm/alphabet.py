"""Alphabet: bidirectional mapping between raw symbols and dense symbol ids.

The execution engine works on dense ``uint8``/``int32`` symbol-id arrays
(``0 .. num_inputs-1``). Applications map their raw inputs (characters, bits,
bytes) into that space once, up front — this is the analog of the paper's
assumption that inputs are preprocessed into transition-table column indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Alphabet",
    "AlphabetCompaction",
    "JointCompaction",
    "compact_alphabet",
    "compact_alphabet_joint",
    "remap_classes",
]


# Symbols remapped per np.take call: the intp index NumPy builds for one
# block stays cache-sized (512 KiB) instead of 8 bytes per input item.
REMAP_BLOCK = 1 << 16


def remap_classes(class_of: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """``class_of[symbols]`` as int32, gathered block by block.

    Equal to the fancy-indexing gather (out-of-range ids still raise
    ``IndexError``), but each :data:`REMAP_BLOCK`-item block is taken
    straight into a preallocated output, so no whole-input index array is
    built.
    """
    symbols = np.asarray(symbols)
    table = np.asarray(class_of, dtype=np.int32)
    out = np.empty(symbols.shape, dtype=np.int32)
    flat_in, flat_out = symbols.reshape(-1), out.reshape(-1)
    for i in range(0, flat_in.size, REMAP_BLOCK):
        np.take(table, flat_in[i:i + REMAP_BLOCK], out=flat_out[i:i + REMAP_BLOCK])
    return out


@dataclass(frozen=True)
class Alphabet:
    """A finite input alphabet with dense integer ids.

    Parameters
    ----------
    symbols:
        The raw symbols in id order; ``symbols[i]`` has id ``i``. Symbols must
        be hashable and unique.
    """

    symbols: tuple = ()
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {}
        for i, s in enumerate(self.symbols):
            if s in index:
                raise ValueError(f"duplicate symbol {s!r} in alphabet")
            index[s] = i
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_symbols(cls, symbols: Iterable) -> "Alphabet":
        """Build an alphabet from an iterable of unique symbols."""
        return cls(tuple(symbols))

    @classmethod
    def binary(cls) -> "Alphabet":
        """The two-symbol alphabet {0, 1} (Huffman bits, Div7)."""
        return cls((0, 1))

    @classmethod
    def ascii(cls, size: int = 128) -> "Alphabet":
        """Single-character alphabet covering code points ``0 .. size-1``."""
        if not 1 <= size <= 0x110000:
            raise ValueError(f"size must be in [1, 0x110000], got {size}")
        return cls(tuple(chr(i) for i in range(size)))

    @classmethod
    def lowercase(cls) -> "Alphabet":
        """The 26 lowercase letters (paper's regex input alphabet)."""
        return cls(tuple(chr(c) for c in range(ord("a"), ord("z") + 1)))

    @property
    def size(self) -> int:
        """Number of symbols (``num_inputs`` in the paper's terminology)."""
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def id_of(self, symbol) -> int:
        """Dense id of a raw symbol; raises ``KeyError`` if unknown."""
        return self._index[symbol]

    def symbol_of(self, sid: int) -> object:
        """Raw symbol for a dense id."""
        return self.symbols[sid]

    def encode(self, raw: Sequence) -> np.ndarray:
        """Encode a sequence of raw symbols into an ``int32`` id array."""
        try:
            return np.fromiter(
                (self._index[s] for s in raw), dtype=np.int32, count=len(raw)
            )
        except KeyError as exc:
            raise KeyError(f"symbol {exc.args[0]!r} not in alphabet") from None

    def encode_text(self, text: str) -> np.ndarray:
        """Vectorized encoding of a string for character alphabets.

        For contiguous ``chr(0) .. chr(size-1)`` alphabets this is a plain
        dtype view; otherwise falls back to a lookup table over code points.
        """
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
        if self._is_contiguous_chars():
            if codes.size and int(codes.max()) >= self.size:
                bad = chr(int(codes[codes >= self.size][0]))
                raise KeyError(f"symbol {bad!r} not in alphabet")
            return codes.astype(np.int32)
        lut = np.full(0x110000, -1, dtype=np.int32)
        for i, s in enumerate(self.symbols):
            if not (isinstance(s, str) and len(s) == 1):
                raise TypeError("encode_text requires a single-character alphabet")
            lut[ord(s)] = i
        out = lut[codes]
        if out.size and int(out.min()) < 0:
            bad = chr(int(codes[out < 0][0]))
            raise KeyError(f"symbol {bad!r} not in alphabet")
        return out

    def decode(self, ids: np.ndarray) -> list:
        """Raw symbols for an array of ids."""
        return [self.symbols[int(i)] for i in np.asarray(ids)]

    def decode_text(self, ids: np.ndarray) -> str:
        """Decode ids to a string for single-character alphabets."""
        return "".join(str(self.symbols[int(i)]) for i in np.asarray(ids))

    def _is_contiguous_chars(self) -> bool:
        return all(
            isinstance(s, str) and len(s) == 1 and ord(s) == i
            for i, s in enumerate(self.symbols)
        )


@dataclass(frozen=True)
class AlphabetCompaction:
    """Equivalence-class compaction of a transition table's symbol axis.

    Two symbols are equivalent when their transition rows are identical —
    they move every state to the same successor, so the machine cannot
    distinguish them. Real tokenizer alphabets collapse dramatically (the
    128-symbol HTML tokenizer has ~a dozen distinct rows; a byte-oriented
    regex DFA collapses 256 columns to the handful of character classes the
    pattern mentions), which shrinks the table the kernels gather from and
    makes m-symbol table powers (:mod:`repro.core.kernels`) affordable.

    Attributes
    ----------
    class_of:
        ``(num_symbols,)`` int32 — dense class id of each raw symbol id.
    table:
        ``(num_classes, num_states)`` int32 — the compacted transition
        table; ``table[class_of[a]] == original_table[a]`` for every
        symbol ``a``.
    num_symbols:
        Size of the original symbol axis.
    """

    class_of: np.ndarray
    table: np.ndarray
    num_symbols: int

    @property
    def num_classes(self) -> int:
        """Number of distinct transition rows (``C`` in the kernel layer)."""
        return int(self.table.shape[0])

    @property
    def num_states(self) -> int:
        """State count of the underlying machine."""
        return int(self.table.shape[1])

    @property
    def compression(self) -> float:
        """``num_symbols / num_classes`` — how much the alphabet collapsed."""
        return self.num_symbols / max(1, self.num_classes)

    def remap(self, symbols: np.ndarray) -> np.ndarray:
        """Map a dense symbol-id array to int32 class ids (:func:`remap_classes`)."""
        return remap_classes(self.class_of, symbols)


def compact_alphabet(table: np.ndarray) -> AlphabetCompaction:
    """Collapse identical transition rows of ``table`` into symbol classes.

    ``table`` follows the paper's orientation ``(num_symbols, num_states)``.
    The mapping is deterministic: classes are numbered in order of first
    appearance along the symbol axis, so ``class_of`` is stable across runs
    and across processes (the scale-out pool ships it through shared
    memory and workers must agree on ids).
    """
    table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D (num_symbols, num_states), got {table.shape}")
    num_symbols = table.shape[0]
    _, first_idx, inverse = np.unique(
        table, axis=0, return_index=True, return_inverse=True
    )
    # np.unique orders classes by row content; renumber by first appearance
    # so the mapping does not depend on the lexicographic order of rows.
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    class_of = rank[inverse].astype(np.int32).ravel()
    class_table = np.ascontiguousarray(table[np.sort(first_idx)])
    return AlphabetCompaction(
        class_of=class_of, table=class_table, num_symbols=int(num_symbols)
    )


@dataclass(frozen=True)
class JointCompaction:
    """Cross-pattern equivalence-class compaction of several tables at once.

    Two symbols are *jointly* equivalent when their transition rows are
    identical in **every** pattern's table — no machine in the group can
    distinguish them, so a single ``class_of`` remap of the shared stream
    feeds all patterns. Joint classes are coarser than the per-pattern
    optimum but are computed once, and the remapped stream is read once for
    the whole group (the multi-pattern engine's one-pass guarantee).

    Attributes
    ----------
    class_of:
        ``(num_symbols,)`` int32 — dense joint class id of each symbol.
    tables:
        One ``(num_classes, S_p)`` int32 class table per pattern;
        ``tables[p][class_of[a]] == original_tables[p][a]`` for every
        symbol ``a``.
    num_symbols:
        Size of the original (shared) symbol axis.
    """

    class_of: np.ndarray
    tables: tuple
    num_symbols: int

    @property
    def num_patterns(self) -> int:
        """Number of patterns compacted together (``P``)."""
        return len(self.tables)

    @property
    def num_classes(self) -> int:
        """Number of joint symbol classes (``C``)."""
        return int(self.tables[0].shape[0]) if self.tables else 0

    @property
    def state_counts(self) -> tuple:
        """Per-pattern state counts ``S_p`` (ragged groups allowed)."""
        return tuple(int(t.shape[1]) for t in self.tables)

    @property
    def compression(self) -> float:
        """``num_symbols / num_classes`` for the joint classes."""
        return self.num_symbols / max(1, self.num_classes)

    def remap(self, symbols: np.ndarray) -> np.ndarray:
        """Map a dense symbol-id array to int32 joint class ids (:func:`remap_classes`)."""
        return remap_classes(self.class_of, symbols)

    def padded_table(self) -> np.ndarray:
        """The ``(P, C, S_max)`` padded 3-D view of the group's tables.

        Ragged patterns are padded with self-loops on the unused states,
        which are unreachable from any real state; the batched kernels use
        the equivalent block-diagonal stacked-union layout instead (no
        padding), so this view exists for inspection, sizing, and the
        native P-loop documentation.
        """
        p = self.num_patterns
        c = self.num_classes
        s_max = max(self.state_counts) if self.tables else 0
        out = np.empty((p, c, s_max), dtype=np.int32)
        for i, t in enumerate(self.tables):
            out[i, :, : t.shape[1]] = t
            out[i, :, t.shape[1]:] = np.arange(t.shape[1], s_max, dtype=np.int32)
        return out


def compact_alphabet_joint(tables: Sequence[np.ndarray]) -> JointCompaction:
    """Joint equivalence-class compaction across a group of tables.

    All tables must share the symbol axis (``(num_symbols, S_p)`` each,
    ragged ``S_p`` allowed). Equivalent to :func:`compact_alphabet` on the
    tables concatenated along the state axis: symbols collapse only when
    every pattern agrees, and class ids keep the same deterministic
    first-appearance numbering (the scale-out pool ships ``class_of``
    through shared memory, so workers must agree on ids).
    """
    if not tables:
        raise ValueError("joint compaction of zero tables")
    mats = [np.ascontiguousarray(np.asarray(t, dtype=np.int32)) for t in tables]
    num_symbols = mats[0].shape[0]
    for t in mats:
        if t.ndim != 2:
            raise ValueError(
                f"tables must be 2-D (num_symbols, num_states), got {t.shape}"
            )
        if t.shape[0] != num_symbols:
            raise ValueError(
                f"tables disagree on num_symbols: {t.shape[0]} != {num_symbols}"
            )
    stacked = np.concatenate(mats, axis=1)
    comp = compact_alphabet(stacked)
    offs = np.concatenate([[0], np.cumsum([t.shape[1] for t in mats])])
    per = tuple(
        np.ascontiguousarray(comp.table[:, offs[i]: offs[i + 1]])
        for i in range(len(mats))
    )
    return JointCompaction(
        class_of=comp.class_of, tables=per, num_symbols=int(num_symbols)
    )
