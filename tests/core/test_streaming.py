"""Tests for the streaming executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.streaming import FeedCursor, StreamingExecutor
from repro.fsm.run import run_reference, run_reference_trace
from tests.conftest import make_random_dfa, random_input


class TestStreaming:
    def test_blocks_equal_one_shot(self):
        dfa = make_random_dfa(6, 3, seed=0)
        stream = random_input(3, 30_000, seed=1)
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=64)
        for block in np.array_split(stream, 7):
            ex.feed(block)
        assert ex.state == run_reference(dfa, stream)
        assert ex.items_consumed == 30_000
        assert ex.blocks_consumed == 7

    def test_empty_block_noop(self):
        dfa = make_random_dfa(4, 2, seed=1)
        ex = StreamingExecutor(dfa, num_blocks=1, threads_per_block=32)
        s = ex.feed(np.zeros(0, dtype=np.int32))
        assert s == dfa.start
        assert ex.blocks_consumed == 0

    def test_irregular_block_sizes(self):
        dfa = make_random_dfa(5, 2, seed=2)
        stream = random_input(2, 5000, seed=3)
        ex = StreamingExecutor(dfa, k=1, num_blocks=1, threads_per_block=32)
        offsets = [0, 17, 17 + 2048, 17 + 2048 + 1, 5000]
        for lo, hi in zip(offsets, offsets[1:]):
            ex.feed(stream[lo:hi])
        assert ex.state == run_reference(dfa, stream)

    def test_match_positions_global_offsets(self):
        dfa = make_random_dfa(5, 2, seed=4, accepting_fraction=0.4)
        stream = random_input(2, 8000, seed=5)
        ex = StreamingExecutor(
            dfa, k=2, num_blocks=1, threads_per_block=32, collect_matches=True
        )
        for block in np.array_split(stream, 5):
            ex.feed(block)
        trace = run_reference_trace(dfa, stream)
        want = np.flatnonzero(dfa.accepting[trace])
        np.testing.assert_array_equal(ex.match_positions, want)

    def test_accepted_property(self):
        from repro.apps.div import div7_dfa

        dfa = div7_dfa()
        ex = StreamingExecutor(dfa, k=None, num_blocks=1, threads_per_block=32)
        ex.feed(np.array([1, 1, 1, 0], dtype=np.int32))  # 14: divisible by 7
        assert ex.accepted
        ex.feed(np.array([1], dtype=np.int32))  # 29: not divisible
        assert not ex.accepted

    def test_stats_accumulate(self):
        dfa = make_random_dfa(5, 2, seed=6)
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=32)
        ex.feed(random_input(2, 1000, seed=7))
        first = ex.stats.local_transitions
        ex.feed(random_input(2, 1000, seed=8))
        assert ex.stats.local_transitions == 2 * first
        assert ex.stats.num_items == 2000

    def test_reset(self):
        dfa = make_random_dfa(5, 2, seed=6)
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=32,
                               collect_matches=True)
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
        ex = StreamingExecutor(
            dfa, k=2, num_blocks=4, threads_per_block=32, collect_matches=True
        )
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
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=32,
                               collect_matches=True)
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
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=64,
                               lookback=4)
        for block in np.array_split(stream, 13):
            ex.feed(block)
        assert ex.accepted
        assert ex.state == run_reference(dfa, stream)


class TestPoolBackend:
    def test_blocks_equal_one_shot(self):
        dfa = make_random_dfa(6, 3, seed=0)
        stream = random_input(3, 20_000, seed=1)
        with StreamingExecutor(dfa, k=2, backend="pool", pool_workers=2,
                               sub_chunks_per_worker=8) as ex:
            for block in np.array_split(stream, 5):
                ex.feed(block)
            assert ex.state == run_reference(dfa, stream)
            assert ex.blocks_consumed == 5
            assert ex.stats.pool_calls == 5
            assert ex.stats.num_items == 20_000
            assert ex.stats.pool_shm_bytes > 0

    def test_pool_persists_across_feeds_and_reset(self):
        dfa = make_random_dfa(5, 2, seed=2)
        stream = random_input(2, 6_000, seed=3)
        with StreamingExecutor(dfa, k=None, backend="pool", pool_workers=2,
                               sub_chunks_per_worker=8) as ex:
            pool = ex._pool
            ex.feed(stream)
            ex.reset()
            assert ex._pool is pool and not pool.closed
            assert ex.stats.num_items == 0
            ex.feed(stream)
            assert ex.state == run_reference(dfa, stream)
        assert pool.closed

    def test_pool_collect_matches(self):
        """The pool recovers match positions with a second worker round;
        the stream sees them at global offsets, same as the simulator."""
        dfa = make_random_dfa(5, 2, seed=4, accepting_fraction=0.4)
        stream = random_input(2, 12_000, seed=5)
        trace = run_reference_trace(dfa, stream)
        want = np.flatnonzero(dfa.accepting[trace])
        with StreamingExecutor(dfa, k=2, backend="pool", pool_workers=2,
                               sub_chunks_per_worker=8,
                               collect_matches=True) as ex:
            for block in np.array_split(stream, 5):
                ex.feed(block)
            np.testing.assert_array_equal(ex.match_positions, want)

    def test_bad_backend_name(self):
        dfa = make_random_dfa(4, 2, seed=0)
        with pytest.raises(ValueError):
            StreamingExecutor(dfa, backend="cuda")

    def test_bad_schedule_name(self):
        dfa = make_random_dfa(4, 2, seed=0)
        with pytest.raises(ValueError):
            StreamingExecutor(dfa, schedule="barrier-free")

    def test_pool_rejects_ooo_schedule(self, monkeypatch):
        # The pool backend has one merge: "ooo" fails at construction,
        # before any worker process or shared-memory segment exists.
        import repro.core.streaming as streaming

        def refuse(*args, **kwargs):
            raise AssertionError("pool built before the schedule was checked")

        monkeypatch.setattr(streaming, "ScaleoutPool", refuse)
        dfa = make_random_dfa(4, 2, seed=0)
        with pytest.raises(ValueError, match="barrier"):
            StreamingExecutor(dfa, backend="pool", schedule="ooo")

    @pytest.mark.parametrize("backend", ["simulate"])
    def test_ooo_schedule_equals_barrier(self, backend):
        dfa = make_random_dfa(6, 3, seed=40, accepting_fraction=0.3)
        stream = random_input(3, 15_000, seed=41)
        finals, matches = [], []
        for schedule in ("barrier", "ooo"):
            with StreamingExecutor(dfa, k=2, num_blocks=2,
                                   threads_per_block=32, backend=backend,
                                   pool_workers=2, sub_chunks_per_worker=8,
                                   collect_matches=True,
                                   schedule=schedule) as ex:
                for block in np.array_split(stream, 4):
                    ex.feed(block)
                finals.append(ex.state)
                matches.append(ex.match_positions)
        assert finals[0] == finals[1] == run_reference(dfa, stream)
        np.testing.assert_array_equal(matches[0], matches[1])


class TestLifetimeStats:
    def test_lifetime_survives_reset(self):
        dfa = make_random_dfa(6, 2, seed=20)
        stream = random_input(2, 12_000, seed=21)
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=64)
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
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=64)
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
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=64)
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
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=64)
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

    def test_failed_feed_leaves_cursor_untouched(self):
        """A feed that raises consumes nothing: same state, counters, and
        matches as before — the caller just re-feeds the block."""
        dfa = make_random_dfa(6, 3, seed=32)
        stream = random_input(3, 12_000, seed=33)
        with StreamingExecutor(dfa, k=2, backend="pool", pool_workers=2,
                               sub_chunks_per_worker=8) as ex:
            blocks = np.array_split(stream, 3)
            ex.feed(blocks[0])
            before = ex.checkpoint()
            before_items = ex.stats.num_items
            ex._pool.close()  # force the next feed to fail mid-stream
            with pytest.raises(Exception):
                ex.feed(blocks[1])
            assert ex.checkpoint() == before
            assert ex.stats.num_items == before_items
            assert ex.last_feed_degraded is False

    def test_bad_block_does_not_consume(self):
        dfa = make_random_dfa(6, 3, seed=34)
        ex = StreamingExecutor(dfa, k=2, backend="pool", pool_workers=2,
                               sub_chunks_per_worker=8)
        try:
            ex.feed(random_input(3, 4_000, seed=35))
            before = ex.checkpoint()
            with pytest.raises(ValueError):
                ex.feed(np.zeros((2, 2), dtype=np.int32))  # not 1-D
            assert ex.checkpoint() == before
        finally:
            ex.close()


class TestFeedRegressions:
    """Regression tests for streaming correctness fixes."""

    def test_restore_truncates_rewound_matches(self):
        # Matches recorded by feeds past the cursor must vanish on restore,
        # or re-fed blocks would report them twice.
        dfa = make_random_dfa(5, 2, seed=50, accepting_fraction=0.4)
        stream = random_input(2, 8_000, seed=51)
        blocks = np.array_split(stream, 4)
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=32,
                               collect_matches=True)
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
        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=32)
        ex.feed(random_input(2, 3_000, seed=53))
        first = ex.last_feed_stats
        assert first.num_items == 3_000
        ex.feed(random_input(2, 1_000, seed=54))
        # The first feed's snapshot is frozen, not aliased to live state.
        assert first.num_items == 3_000
        assert ex.last_feed_stats.num_items == 1_000

    def test_empty_block_clears_degraded_flag(self):
        dfa = make_random_dfa(4, 2, seed=55)
        ex = StreamingExecutor(dfa, num_blocks=1, threads_per_block=32)
        ex.last_feed_degraded = True  # as if the previous feed degraded
        state = ex.feed(np.zeros(0, dtype=np.int32))
        assert state == dfa.start
        assert ex.last_feed_degraded is False


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

        straight = StreamingExecutor(dfa, k=2, num_blocks=1,
                                     threads_per_block=32,
                                     collect_matches=True)
        for b in blocks:
            straight.feed(b)

        ex = StreamingExecutor(dfa, k=2, num_blocks=1, threads_per_block=32,
                               collect_matches=True)
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
