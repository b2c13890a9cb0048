"""Tests for the streaming executor.

A feed is one pass from the carried state; a modeled-GPU session is
``run_speculative(dfa.with_start(state), block, grid=...)`` per block.
Beside the unit cases, a
Hypothesis differential draws a machine and a stream cut into blocks
(empty and one-item ones included) with checkpoint/restore and reset
between them, with and without match collection and with the kernel
loader forced to return None, and checks states, acceptance and matches
against ``run_reference`` over the concatenation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_mod
import repro.core.native as native_pkg
import repro.core.plan as plan_mod
import repro.core.streaming as streaming_mod
from repro.apps import get_application
from repro.core.engine import run_speculative
from repro.core.streaming import FeedCursor, StreamingExecutor
from repro.fsm.run import run_reference, run_reference_trace
from repro.gpu import Grid
from repro.gpu.device import TESLA_V100
from tests.conftest import make_random_dfa, native_builds, random_input

HAVE_NATIVE = native_builds()


class TestStreaming:
    def test_blocks_equal_one_shot(self):
        dfa = make_random_dfa(6, 3, seed=0)
        stream = random_input(3, 30_000, seed=1)
        ex = StreamingExecutor(dfa)
        for block in np.array_split(stream, 7):
            ex.feed(block)
        assert ex.state == run_reference(dfa, stream)
        assert ex.items_consumed == 30_000
        assert ex.blocks_consumed == 7

    def test_empty_block_noop(self):
        dfa = make_random_dfa(4, 2, seed=1)
        ex = StreamingExecutor(dfa)
        s = ex.feed(np.zeros(0, dtype=np.int32))
        assert s == dfa.start
        assert ex.blocks_consumed == 0

    def test_irregular_block_sizes(self):
        dfa = make_random_dfa(5, 2, seed=2)
        stream = random_input(2, 5000, seed=3)
        ex = StreamingExecutor(dfa)
        offsets = [0, 17, 17 + 2048, 17 + 2048 + 1, 5000]
        for lo, hi in zip(offsets, offsets[1:]):
            ex.feed(stream[lo:hi])
        assert ex.state == run_reference(dfa, stream)

    def test_match_positions_global_offsets(self):
        dfa = make_random_dfa(5, 2, seed=4, accepting_fraction=0.4)
        stream = random_input(2, 8000, seed=5)
        ex = StreamingExecutor(dfa, collect_matches=True)
        for block in np.array_split(stream, 5):
            ex.feed(block)
        trace = run_reference_trace(dfa, stream)
        want = np.flatnonzero(dfa.accepting[trace])
        np.testing.assert_array_equal(ex.match_positions, want)

    def test_accepted_property(self):
        from repro.apps.div import div7_dfa

        dfa = div7_dfa()
        ex = StreamingExecutor(dfa)
        ex.feed(np.array([1, 1, 1, 0], dtype=np.int32))  # 14: divisible by 7
        assert ex.accepted
        ex.feed(np.array([1], dtype=np.int32))  # 29: not divisible
        assert not ex.accepted

    def test_stats_accumulate(self):
        dfa = make_random_dfa(5, 2, seed=6)
        ex = StreamingExecutor(dfa)
        ex.feed(random_input(2, 1000, seed=7))
        first = ex.stats.local_transitions
        ex.feed(random_input(2, 1000, seed=8))
        assert ex.stats.local_transitions == 2 * first
        assert ex.stats.num_items == 2000

    def test_reset(self):
        dfa = make_random_dfa(5, 2, seed=6)
        ex = StreamingExecutor(dfa, collect_matches=True)
        ex.feed(random_input(2, 500, seed=9))
        ex.reset()
        assert ex.state == dfa.start
        assert ex.items_consumed == 0
        assert ex.match_positions.size == 0
        assert ex.stats.num_items == 0

    def test_match_positions_across_many_feeds_multiblock(self):
        # Offsets must stay global when blocks are irregular and the
        # simulated grid spans several blocks of threads.
        dfa = make_random_dfa(6, 2, seed=10, accepting_fraction=0.3)
        stream = random_input(2, 9_000, seed=11)
        ex = StreamingExecutor(dfa, collect_matches=True)
        offsets = [0, 3, 1_000, 1_001, 4_096, 9_000]
        for lo, hi in zip(offsets, offsets[1:]):
            ex.feed(stream[lo:hi])
        trace = run_reference_trace(dfa, stream)
        want = np.flatnonzero(dfa.accepting[trace])
        np.testing.assert_array_equal(ex.match_positions, want)
        # feeding more keeps extending with global offsets, not restarting
        tail = random_input(2, 500, seed=12)
        ex.feed(tail)
        full = np.concatenate([stream, tail])
        trace = run_reference_trace(dfa, full)
        np.testing.assert_array_equal(
            ex.match_positions, np.flatnonzero(dfa.accepting[trace])
        )

    def test_reset_restores_fresh_session(self):
        # After reset, a refeed must behave exactly like a new executor:
        # same states, same matches, same counters.
        dfa = make_random_dfa(6, 2, seed=13, accepting_fraction=0.3)
        stream = random_input(2, 4_000, seed=14)
        ex = StreamingExecutor(dfa, collect_matches=True)
        for block in np.array_split(stream, 3):
            ex.feed(block)
        first_matches = ex.match_positions.copy()
        first_state = ex.state
        first_transitions = ex.stats.local_transitions
        ex.reset()
        assert ex.state == dfa.start
        assert ex.items_consumed == 0
        assert ex.blocks_consumed == 0
        assert ex.match_positions.size == 0
        assert ex.stats.num_items == 0
        assert ex.stats.local_transitions == 0
        for block in np.array_split(stream, 3):
            ex.feed(block)
        np.testing.assert_array_equal(ex.match_positions, first_matches)
        assert ex.state == first_state
        assert ex.stats.local_transitions == first_transitions

    def test_utf8_streaming_session(self):
        # realistic: validate a UTF-8 stream arriving in blocks that split
        # multi-byte sequences
        from repro.apps.utf8 import encode_utf8_workload, utf8_validator_dfa

        dfa = utf8_validator_dfa()
        stream = encode_utf8_workload(20_000, rng=3)
        ex = StreamingExecutor(dfa)
        for block in np.array_split(stream, 13):
            ex.feed(block)
        assert ex.accepted
        assert ex.state == run_reference(dfa, stream)


class TestDefaultFeed:
    """The default feed: one serial pass from the carried state (the pool
    backend these cases once drove is gone)."""

    def test_blocks_equal_one_shot(self):
        dfa = make_random_dfa(6, 3, seed=0)
        stream = random_input(3, 20_000, seed=1)
        ex = StreamingExecutor(dfa)
        for block in np.array_split(stream, 5):
            ex.feed(block)
        assert ex.state == run_reference(dfa, stream)
        assert ex.blocks_consumed == 5
        assert ex.stats.num_items == ex.stats.local_transitions == 20_000
        assert (ex.stats.num_chunks, ex.stats.k) == (1, 1)

    def test_kernel_persists_across_feeds_and_reset(self):
        dfa = make_random_dfa(5, 2, seed=2)
        stream = random_input(2, 6_000, seed=3)
        ex = StreamingExecutor(dfa)
        kernel = ex._kernel
        ex.feed(stream)
        ex.reset()
        assert ex._kernel is kernel
        assert ex.stats.num_items == 0
        ex.feed(stream)
        assert ex.state == run_reference(dfa, stream)

    def test_collect_matches(self):
        """Each block's accept pass starts at its carried state; the stream
        sees the matches at global offsets."""
        dfa = make_random_dfa(5, 2, seed=4, accepting_fraction=0.4)
        stream = random_input(2, 12_000, seed=5)
        trace = run_reference_trace(dfa, stream)
        want = np.flatnonzero(dfa.accepting[trace])
        ex = StreamingExecutor(dfa, collect_matches=True)
        for block in np.array_split(stream, 5):
            ex.feed(block)
        np.testing.assert_array_equal(ex.match_positions, want)


class TestLifetimeStats:
    def test_lifetime_survives_reset(self):
        dfa = make_random_dfa(6, 2, seed=20)
        stream = random_input(2, 12_000, seed=21)
        ex = StreamingExecutor(dfa)
        for block in np.array_split(stream, 3):
            ex.feed(block)
        session_items = ex.stats.num_items
        assert session_items == 12_000
        ex.reset()
        # Session counters clear, lifetime counters do not.
        assert ex.stats.num_items == 0
        assert ex.lifetime_stats.num_items == session_items
        assert ex.lifetime_items_consumed == 12_000
        assert ex.lifetime_blocks_consumed == 3

    def test_lifetime_accumulates_across_sessions(self):
        dfa = make_random_dfa(5, 2, seed=22)
        a = random_input(2, 4_000, seed=23)
        b = random_input(2, 6_000, seed=24)
        ex = StreamingExecutor(dfa)
        ex.feed(a)
        ex.reset()
        ex.feed(b)
        # Mid-session: lifetime = folded past sessions + live session.
        assert ex.lifetime_items_consumed == 10_000
        assert ex.lifetime_stats.num_items == 10_000
        assert ex.lifetime_blocks_consumed == 2
        assert ex.stats.num_items == 6_000

    def test_last_feed_stats_per_block(self):
        dfa = make_random_dfa(6, 2, seed=25)
        ex = StreamingExecutor(dfa)
        assert ex.last_feed_stats is None
        ex.feed(random_input(2, 3_000, seed=26))
        first = ex.last_feed_stats
        assert first is not None
        assert first.num_items == 3_000
        ex.feed(random_input(2, 5_000, seed=27))
        second = ex.last_feed_stats
        assert second.num_items == 5_000
        # Session stats keep the running total; last_feed is per-block.
        assert ex.stats.num_items == 8_000


class TestFeedCursor:
    def test_checkpoint_restore_round_trip(self):
        dfa = make_random_dfa(6, 3, seed=30)
        stream = random_input(3, 12_000, seed=31)
        ex = StreamingExecutor(dfa)
        blocks = np.array_split(stream, 4)
        ex.feed(blocks[0])
        cur = ex.checkpoint()
        assert cur == FeedCursor(state=ex.state, items_consumed=blocks[0].size,
                                 blocks_consumed=1)
        ex.feed(blocks[1])
        ex.restore(cur)
        assert (ex.state, ex.items_consumed, ex.blocks_consumed) == (
            cur.state, cur.items_consumed, cur.blocks_consumed
        )
        # Resuming from the cursor replays the stream to the right answer.
        for block in blocks[1:]:
            ex.feed(block)
        assert ex.state == run_reference(dfa, stream)

    def test_failed_feed_leaves_cursor_untouched(self, monkeypatch):
        """A feed that raises consumes nothing: same state, counters, and
        matches as before — the caller just re-feeds the block."""
        dfa = make_random_dfa(6, 3, seed=32, accepting_fraction=0.4)
        stream = random_input(3, 12_000, seed=33)
        ex = StreamingExecutor(dfa, collect_matches=True)
        blocks = np.array_split(stream, 3)
        ex.feed(blocks[0])
        before = ex.checkpoint()
        before_stats = ex.stats
        matches = ex.match_positions.copy()

        def broken_pass(*args, **kwargs):
            raise RuntimeError("pass failed mid-stream")

        with monkeypatch.context() as mp:
            mp.setattr(streaming_mod, "one_lane_pass", broken_pass)
            with pytest.raises(RuntimeError):
                ex.feed(blocks[1])
        assert ex.checkpoint() == before
        assert ex.stats is before_stats
        np.testing.assert_array_equal(ex.match_positions, matches)
        for block in blocks[1:]:  # re-feed: nothing was consumed
            ex.feed(block)
        assert ex.state == run_reference(dfa, stream)
        trace = run_reference_trace(dfa, stream)
        np.testing.assert_array_equal(
            ex.match_positions, np.flatnonzero(dfa.accepting[trace])
        )

    def test_bad_block_does_not_consume(self):
        dfa = make_random_dfa(6, 3, seed=34)
        for collect in (False, True):
            ex = StreamingExecutor(dfa, collect_matches=collect)
            ex.feed(random_input(3, 4_000, seed=35))
            before = ex.checkpoint()
            with pytest.raises(ValueError):
                ex.feed(np.zeros((2, 2), dtype=np.int32))  # not 1-D
            with pytest.raises(ValueError):
                ex.feed(np.array([0, 3], dtype=np.int32))  # symbol out of range
            assert ex.checkpoint() == before


class TestFeedRegressions:
    """Regression tests for streaming correctness fixes."""

    def test_restore_truncates_rewound_matches(self):
        # Matches recorded by feeds past the cursor must vanish on restore,
        # or re-fed blocks would report them twice.
        dfa = make_random_dfa(5, 2, seed=50, accepting_fraction=0.4)
        stream = random_input(2, 8_000, seed=51)
        blocks = np.array_split(stream, 4)
        ex = StreamingExecutor(dfa, collect_matches=True)
        ex.feed(blocks[0])
        cur = ex.checkpoint()
        kept = ex.match_positions.copy()
        ex.feed(blocks[1])
        ex.feed(blocks[2])
        ex.restore(cur)
        np.testing.assert_array_equal(ex.match_positions, kept)
        # Replaying from the cursor yields exactly the straight-run matches.
        for block in blocks[1:]:
            ex.feed(block)
        trace = run_reference_trace(dfa, stream)
        want = np.flatnonzero(dfa.accepting[trace])
        np.testing.assert_array_equal(ex.match_positions, want)

    def test_feed_does_not_mutate_callers_stats(self):
        # last_feed_stats is a per-block copy: committing num_items must not
        # write through to the stats object the engine result owns.
        dfa = make_random_dfa(5, 2, seed=52)
        ex = StreamingExecutor(dfa)
        ex.feed(random_input(2, 3_000, seed=53))
        first = ex.last_feed_stats
        assert first.num_items == 3_000
        ex.feed(random_input(2, 1_000, seed=54))
        # The first feed's snapshot is frozen, not aliased to live state.
        assert first.num_items == 3_000
        assert ex.last_feed_stats.num_items == 1_000


    def test_lifetime_counts_rewound_work_across_reset(self):
        # Stats count work done, rewound feeds included; a reset must not
        # drop the rewound items from the lifetime count.
        dfa = make_random_dfa(5, 2, seed=56)
        a, b = random_input(2, 1_000, seed=57), random_input(2, 3_000, seed=58)
        ex = StreamingExecutor(dfa)
        ex.feed(a)
        cur = ex.checkpoint()
        ex.feed(b)
        ex.restore(cur)
        ex.feed(b)
        assert ex.lifetime_stats.num_items == 7_000
        ex.reset()
        assert ex.lifetime_stats.num_items == 7_000
        assert ex.lifetime_stats.local_transitions == 7_000
        assert ex.lifetime_items_consumed == 4_000


class TestCheckpointRestoreProperty:
    """Property test: any checkpoint/restore/replay interleaving is
    invisible — state and collected matches equal the straight run."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_round_trip_with_matches(self, data):
        seed = data.draw(st.integers(0, 1_000), label="seed")
        n = data.draw(st.integers(1, 4_000), label="n")
        n_blocks = data.draw(st.integers(1, 6), label="blocks")
        rewinds = data.draw(st.integers(1, 3), label="rewinds")
        dfa = make_random_dfa(
            data.draw(st.integers(2, 8), label="states"), 3, seed=seed,
            accepting_fraction=0.4,
        )
        stream = random_input(3, n, seed=seed + 1)
        blocks = np.array_split(stream, n_blocks)

        straight = StreamingExecutor(dfa, collect_matches=True)
        for b in blocks:
            straight.feed(b)

        ex = StreamingExecutor(dfa, collect_matches=True)
        i = 0
        while i < len(blocks):
            cur = ex.checkpoint()
            ahead = data.draw(
                st.integers(1, len(blocks) - i), label=f"ahead@{i}")
            for b in blocks[i:i + ahead]:
                ex.feed(b)
            if rewinds > 0 and data.draw(st.booleans(), label=f"rewind@{i}"):
                rewinds -= 1
                ex.restore(cur)  # throw the work away and redo it
                for b in blocks[i:i + ahead]:
                    ex.feed(b)
            i += ahead

        assert ex.state == straight.state
        assert ex.items_consumed == straight.items_consumed
        np.testing.assert_array_equal(ex.match_positions,
                                      straight.match_positions)


# --------------------------------------------------------------------------- #
# differential: the default feed against the reference over the concatenation
# --------------------------------------------------------------------------- #

# A small fixed pool keeps the compiles bounded: one one-lane kernel per
# machine, loaded once per executor.
MACHINES = {
    "one-state": lambda: make_random_dfa(1, 2, seed=0),
    "random-5x2": lambda: make_random_dfa(5, 2, seed=40, accepting_fraction=0.4),
    "random-12x6": lambda: make_random_dfa(12, 6, seed=41),
    "regex1": lambda: get_application("regex1").build_instance(1, seed=0)[0],
    "div7": lambda: get_application("div7").build_instance(1, seed=0)[0],
}

# Empty and one-item blocks on purpose, then anything up to a few strides.
block_sizes = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 700))
ops = st.lists(
    st.tuples(
        st.sampled_from(["feed"] * 6 + ["checkpoint", "restore", "reset"]),
        block_sizes,
    ),
    min_size=1, max_size=14,
)


def _stream(name: str, dfa, n: int, seed: int) -> np.ndarray:
    if name in ("regex1", "div7"):
        return get_application(name).build_instance(n, seed=seed)[1]
    return random_input(dfa.num_inputs, n, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(MACHINES)),
    seed=st.integers(0, 1_000),
    steps=ops,
    collect=st.booleans(),
    kernel_loads=st.booleans(),
)
def test_default_feeds_match_reference(name, seed, steps, collect, kernel_loads):
    dfa = MACHINES[name]()
    source = _stream(name, dfa, sum(n for _, n in steps) + 1, seed)
    with pytest.MonkeyPatch.context() as mp:
        if not kernel_loads:
            mp.setattr(native_pkg, "load_serial_kernel", lambda *a, **kw: None)
        ex = StreamingExecutor(dfa, collect_matches=collect)
    consumed: list[np.ndarray] = []  # the blocks the session stands on
    cursors: list[tuple[FeedCursor, int]] = []
    used = session = 0  # items taken from source; fed since the last reset
    for op, n in steps:
        if op == "feed":
            block = source[used:used + n]
            used += n
            ex.feed(block)
            session += n
            if n:
                consumed.append(block)
        elif op == "checkpoint":
            cursors.append((ex.checkpoint(), len(consumed)))
        elif op == "restore" and cursors:
            # Any open cursor, not just the latest.
            cursor, depth = cursors[seed % len(cursors)]
            ex.restore(cursor)
            del consumed[depth:]
            cursors = [c for c in cursors if c[1] <= depth]
        elif op == "reset":
            ex.reset()
            session = 0
            consumed.clear()
            cursors.clear()
        stream = np.concatenate(consumed) if consumed else source[:0]
        assert ex.state == run_reference(dfa, stream)
        assert ex.accepted == bool(dfa.accepting[ex.state])
        assert ex.items_consumed == stream.size
        # Stats count work done, feeds later rewound past included.
        assert ex.stats.num_items == ex.stats.local_transitions == session
        assert ex.blocks_consumed == len(consumed)
        if collect:
            want = np.flatnonzero(dfa.accepting[run_reference_trace(dfa, stream)])
            np.testing.assert_array_equal(ex.match_positions, want)
        else:
            assert ex.match_positions.size == 0
    assert ex.lifetime_stats.num_items == used
    if not kernel_loads:
        assert ex._kernel is None
    elif HAVE_NATIVE:
        assert ex._kernel is not None


def test_default_feed_is_one_pass_from_the_carried_state(monkeypatch):
    """Defaults never speculate: after construction no feed resolves a plan
    or calls the engine, the kernel loads once per stream, and every
    block's stats are one lane's."""
    dfa, x = get_application("regex1").build_instance(1 << 14, seed=2)
    loads = []
    real = native_pkg.load_serial_kernel

    def counting(*a, **kw):
        loads.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(native_pkg, "load_serial_kernel", counting)
    ex = StreamingExecutor(dfa, collect_matches=True)

    def forbidden(*a, **kw):
        raise AssertionError("a default feed must not reach the engine")

    monkeypatch.setattr(engine_mod, "run_speculative", forbidden)
    monkeypatch.setattr(engine_mod, "resolve_plan", forbidden)
    monkeypatch.setattr(plan_mod, "resolve_plan", forbidden)
    for block in np.array_split(x, 8):
        ex.feed(block)
        s = ex.last_feed_stats
        assert (s.num_chunks, s.k) == (1, 1)
        assert s.local_transitions == s.local_steps == block.size
        assert s.success_total == 0
    assert len(loads) == 1
    assert ex.state == run_reference(dfa, x)
    assert (ex.stats.num_chunks, ex.stats.k) == (1, 1)
    assert ex.stats.local_transitions == x.size


@pytest.mark.parametrize("geometry", [
    {"num_blocks": 1, "threads_per_block": 32},
    {"num_blocks": 2},
    {"device": TESLA_V100},
])
def test_explicit_geometry_keeps_the_modeled_gpu_feed(geometry):
    """A modeled-GPU session runs ``run_speculative`` on the grid from the
    state the executor carried into each block: its final states and
    matches are the stream's, and every block is priced."""
    dfa = make_random_dfa(7, 3, seed=60, accepting_fraction=0.3)
    stream = random_input(3, 9_000, seed=61)
    grid = Grid(**geometry)
    ex = StreamingExecutor(dfa, collect_matches=True)
    matches = []
    for block in np.array_split(stream, 3):
        r = run_speculative(
            dfa.with_start(ex.state), block, k=2,
            collect=("match_positions",), grid=grid,
        )
        matches.append(r.match_positions + ex.items_consumed)
        ex.feed(block)
        assert (r.config.plan, r.config.num_chunks) == ("gpu", grid.num_threads)
        assert r.timing is not None
        assert r.final_state == ex.state
    assert ex.state == run_reference(dfa, stream)
    np.testing.assert_array_equal(ex.match_positions, np.concatenate(matches))


@pytest.mark.parametrize("bad", [
    {"k": 0}, {"merge": "tree"}, {"kernel": "stride3"}, {"collapse": "maybe"},
    {"num_blocks": 0},
])
def test_bad_options_raise_at_construction(bad):
    """A bad kernel name, or an option the serial feed does not take, is
    refused before any feed."""
    dfa = make_random_dfa(4, 2, seed=62)
    with pytest.raises((TypeError, ValueError)):
        StreamingExecutor(dfa, **bad)
