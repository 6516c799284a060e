"""Tests for the walk corpus and context extraction."""

import tracemalloc

import numpy as np
import pytest

import repro.walks.corpus as corpus_mod
from repro.walks.corpus import PAD, WALK_DTYPE, WalkCorpus, position_dtype


def corpus_of(rows, num_vertices=10):
    return WalkCorpus(np.asarray(rows, dtype=np.int64), num_vertices=num_vertices)


class TestConstruction:
    def test_basic(self):
        c = corpus_of([[0, 1, 2], [3, 4, PAD]])
        assert c.num_walks == 2
        assert c.max_length == 3
        assert c.lengths.tolist() == [3, 2]
        assert c.num_tokens == 5

    def test_rejects_non_suffix_padding(self):
        with pytest.raises(ValueError):
            corpus_of([[0, PAD, 2]])

    def test_rejects_token_out_of_universe(self):
        with pytest.raises(ValueError):
            corpus_of([[0, 11]], num_vertices=10)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            WalkCorpus(np.asarray([0, 1, 2]), num_vertices=5)

    def test_empty(self):
        c = WalkCorpus(np.empty((0, 5), dtype=np.int64), num_vertices=3)
        assert c.num_walks == 0
        assert c.num_tokens == 0

    def test_narrows_to_int32(self):
        c = corpus_of([[0, 1, 2], [3, PAD, PAD]])
        assert c.walks.dtype == WALK_DTYPE == np.int32
        assert c.walks.tolist() == [[0, 1, 2], [3, PAD, PAD]]

    def test_rejects_token_beyond_int32(self):
        # Inside the vertex universe, but not representable as an int32.
        with pytest.raises(ValueError, match="int32"):
            WalkCorpus(np.asarray([[0, 2**31]]), num_vertices=2**32)
        with pytest.raises(ValueError, match="int32"):
            WalkCorpus(np.asarray([[0, -(2**31) - 1]]), num_vertices=2)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_rejects_token_below_pad(self, dtype):
        with pytest.raises(ValueError, match="below -1"):
            WalkCorpus(np.asarray([[0, -5, 1]], dtype=dtype), num_vertices=3)

    def test_largest_int32_token_is_kept(self):
        c = WalkCorpus(np.asarray([[2**31 - 1, PAD]]), num_vertices=2**31)
        assert c.walks.tolist() == [[2**31 - 1, PAD]]


class TestSentences:
    def test_pads_stripped(self):
        c = corpus_of([[0, 1, PAD], [2, PAD, PAD]])
        sents = list(c.sentences())
        assert sents[0].tolist() == [0, 1]
        assert sents[1].tolist() == [2]


class TestTokenCounts:
    def test_counts(self):
        c = corpus_of([[0, 1, 0], [1, PAD, PAD]], num_vertices=3)
        assert c.token_counts().tolist() == [2, 2, 0]

    def test_coverage(self):
        c = corpus_of([[0, 1, 0]], num_vertices=4)
        assert c.coverage() == 0.5

    @pytest.mark.parametrize("block_tokens", [1, 20, 1 << 18])
    def test_blocks_sum_to_one_bincount(self, monkeypatch, block_tokens):
        walks = ragged_walks(np.random.default_rng(3), 50, 9, 12)
        monkeypatch.setattr(corpus_mod, "_COUNT_BLOCK_TOKENS", block_tokens)
        counts = WalkCorpus(walks, num_vertices=12).token_counts()
        expected = np.bincount(walks[walks != PAD], minlength=12)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)

    def test_peak_heap_is_a_block_not_the_corpus(self):
        # 4M int32 tokens (16 MB). One compacted int32 copy plus its
        # int64 cast would be 48 MB; a 2**18-token block is about 3 MB.
        walks = np.random.default_rng(0).integers(
            0, 1000, (100_000, 40), dtype=np.int32
        )
        c = WalkCorpus(walks, num_vertices=1000)
        tracemalloc.start()
        try:
            c.token_counts()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= walks.nbytes // 4, f"peak {peak} B"


def ragged_walks(rng, num_walks, max_len, num_vertices):
    """Random walks of lengths 0..max_len, padded with PAD."""
    walks = rng.integers(0, num_vertices, (num_walks, max_len))
    lengths = rng.integers(0, max_len + 1, num_walks)
    walks[np.arange(max_len) >= lengths[:, None]] = PAD
    return walks


def positions_by_formula(c, window):
    """The int64 positions, one walk's arange at a time."""
    width = c.max_length + 2 * window
    runs = [
        r * width + window + np.arange(n)
        for r, n in enumerate(c.lengths)
        if n >= 2
    ]
    return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)


class TestExamplePositions:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_int32_increasing_and_equal_to_formula(self, seed, window):
        rng = np.random.default_rng(seed)
        walks = ragged_walks(rng, int(rng.integers(0, 40)), 9, 7)
        c = WalkCorpus(walks, num_vertices=7)
        positions = c.example_positions(window)
        assert positions.dtype == np.int32
        assert np.all(np.diff(positions) > 0)
        np.testing.assert_array_equal(positions, positions_by_formula(c, window))

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", range(5))
    def test_any_walk_block_gives_the_same_positions(self, monkeypatch, block, seed):
        # Blocks that start or end on walks too short to train on, or
        # hold nothing but such walks, must not shift the positions.
        rng = np.random.default_rng(seed)
        walks = ragged_walks(rng, 30, 6, 5)
        walks[rng.integers(0, 30, 10), 1:] = PAD
        c = WalkCorpus(walks, num_vertices=5)
        monkeypatch.setattr(corpus_mod, "_POSITION_BLOCK_WALKS", block)
        np.testing.assert_array_equal(
            c.example_positions(2), positions_by_formula(c, 2)
        )

    def test_peak_is_the_result_plus_one_per_walk_array(self):
        # 200 000 walks of 40 tokens, broadcast from one cell, a few of
        # them too short to train on.
        num_walks = 200_000
        lengths = np.full(num_walks, 40, dtype=np.int64)
        lengths[::97] = np.arange(lengths[::97].size) % 3
        walks = np.broadcast_to(np.zeros(1, dtype=WALK_DTYPE), (num_walks, 40))
        c = WalkCorpus._trusted(walks, num_vertices=1, lengths=lengths)
        tracemalloc.start()
        try:
            positions = c.example_positions(5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert positions.dtype == np.int32
        assert peak <= positions.nbytes + lengths.nbytes, f"peak {peak} B"
        assert positions.shape[0] == c.num_examples(5)
        assert np.all(np.diff(positions) > 0)
        assert positions[-1] == (num_walks - 1) * 50 + 5 + 39

    def test_int64_from_two_to_the_31_cells(self):
        # Three rows 2**30 tokens wide, broadcast from one cell: the
        # padded matrix would have over 2**31 cells, and no such matrix
        # is allocated.
        walks = np.broadcast_to(np.zeros(1, dtype=WALK_DTYPE), (3, 1 << 30))
        c = WalkCorpus._trusted(
            walks, num_vertices=1, lengths=np.array([2, 0, 3])
        )
        positions = c.example_positions(2)
        assert positions.dtype == np.int64
        width = (1 << 30) + 4
        expected = [2, 3, 2 * width + 2, 2 * width + 3, 2 * width + 4]
        assert positions.tolist() == expected
        assert positions[-1] > np.iinfo(np.int32).max

    def test_dtype_switches_at_two_to_the_31(self):
        assert position_dtype(2**31 - 1) == np.int32
        assert position_dtype(2**31) == np.int64


@pytest.fixture(scope="module")
def walked():
    from repro.graph.generators import planted_partition
    from repro.walks.engine import RandomWalkConfig, generate_walks

    g = planted_partition(n=90, groups=3, alpha=0.6, inter_edges=12, seed=0)
    return generate_walks(
        g, RandomWalkConfig(walks_per_vertex=6, walk_length=20, seed=0)
    )


class TestNumExamples:
    def test_num_examples_exact(self, walked):
        assert walked.num_examples(5) == walked.context_arrays(5)[0].shape[0]

    def test_num_examples_excludes_singletons(self):
        walks = np.asarray([[0, 1, 2], [3, -1, -1]], dtype=np.int64)
        c = WalkCorpus(walks, num_vertices=5)
        assert c.num_examples(2) == 3  # the singleton walk contributes 0

    def test_num_examples_validation(self, walked):
        with pytest.raises(ValueError):
            walked.num_examples(0)


class TestContextArrays:
    def test_window_one_interior(self):
        c = corpus_of([[0, 1, 2]])
        centers, contexts = c.context_arrays(window=1)
        # Examples: center 0 ctx [1]; center 1 ctx [0, 2]; center 2 ctx [1].
        assert centers.tolist() == [0, 1, 2]
        by_center = {int(c_): ctx for c_, ctx in zip(centers, contexts)}
        assert sorted(x for x in by_center[1].tolist() if x != PAD) == [0, 2]
        assert sorted(x for x in by_center[0].tolist() if x != PAD) == [1]

    def test_window_two_padding(self):
        c = corpus_of([[0, 1, 2, 3]])
        centers, contexts = c.context_arrays(window=2)
        assert contexts.shape == (4, 4)
        row0 = contexts[centers.tolist().index(0)]
        assert sorted(x for x in row0.tolist() if x != PAD) == [1, 2]

    def test_pads_never_in_context(self):
        c = corpus_of([[0, 1, PAD, PAD]])
        _centers, contexts = c.context_arrays(window=3)
        real = contexts[contexts != PAD]
        assert set(real.tolist()) <= {0, 1}

    def test_single_token_walks_dropped(self):
        c = corpus_of([[5, PAD, PAD]])
        centers, contexts = c.context_arrays(window=2)
        assert centers.shape == (0,)

    def test_example_count_formula(self):
        # Walk of length L with window w: every position has >=1 context
        # when L >= 2, so num examples == L per walk.
        c = corpus_of([[0, 1, 2, 3, 4], [5, 6, 7, PAD, PAD]])
        centers, _ = c.context_arrays(window=2)
        assert centers.shape[0] == 5 + 3

    def test_invalid_window(self):
        c = corpus_of([[0, 1]])
        with pytest.raises(ValueError):
            c.context_arrays(window=0)

    def test_empty_corpus(self):
        c = WalkCorpus(np.empty((0, 3), dtype=np.int64), num_vertices=2)
        centers, contexts = c.context_arrays(window=2)
        assert centers.shape == (0,)
        assert contexts.shape == (0, 4)

    def test_contexts_stay_within_own_walk(self):
        c = corpus_of([[0, 1], [2, 3]])
        centers, contexts = c.context_arrays(window=3)
        for center, ctx in zip(centers, contexts):
            real = [x for x in ctx.tolist() if x != PAD]
            if int(center) in (0, 1):
                assert set(real) <= {0, 1}
            else:
                assert set(real) <= {2, 3}


class TestMerge:
    def test_merge_pads_to_width(self):
        a = corpus_of([[0, 1]])
        b = corpus_of([[2, 3, 4]])
        merged = a.merge(b)
        assert merged.num_walks == 2
        assert merged.max_length == 3
        assert merged.lengths.tolist() == [2, 3]

    def test_merge_keeps_int32(self):
        merged = corpus_of([[0, 1]]).merge(corpus_of([[2, 3, 4]]))
        assert merged.walks.dtype == WALK_DTYPE
        assert merged.walks.tolist() == [[0, 1, PAD], [2, 3, 4]]

    def test_merge_universe_mismatch(self):
        a = corpus_of([[0]], num_vertices=5)
        b = corpus_of([[0]], num_vertices=6)
        with pytest.raises(ValueError):
            a.merge(b)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        c = corpus_of([[0, 1, 2], [3, PAD, PAD]])
        p = tmp_path / "c.npz"
        c.save(p)
        loaded = WalkCorpus.load(p)
        np.testing.assert_array_equal(loaded.walks, c.walks)
        assert loaded.num_vertices == c.num_vertices

    def test_loads_an_int64_npz(self, tmp_path):
        # The format corpora were saved in when tokens were int64.
        walks = np.asarray([[0, 1, 2], [3, PAD, PAD]], dtype=np.int64)
        p = tmp_path / "c64.npz"
        np.savez_compressed(p, walks=walks, num_vertices=10)
        loaded = WalkCorpus.load(p)
        assert loaded.walks.dtype == WALK_DTYPE
        np.testing.assert_array_equal(loaded.walks, walks)
        assert loaded.lengths.tolist() == [3, 1]
        assert loaded.num_vertices == 10

    def test_load_refuses_a_token_beyond_int32(self, tmp_path):
        p = tmp_path / "big.npz"
        np.savez_compressed(
            p, walks=np.asarray([[2**31, PAD]], dtype=np.int64), num_vertices=2**32
        )
        with pytest.raises(ValueError, match="int32"):
            WalkCorpus.load(p)

    def test_load_refuses_a_token_below_pad(self, tmp_path):
        p = tmp_path / "neg.npz"
        np.savez_compressed(
            p, walks=np.asarray([[0, -5, 1]], dtype=WALK_DTYPE), num_vertices=3
        )
        with pytest.raises(ValueError, match="below -1"):
            WalkCorpus.load(p)

    def test_text_roundtrip(self, tmp_path):
        c = corpus_of([[0, 1, 2], [3, PAD, PAD]])
        p = tmp_path / "walks.txt"
        c.to_text(p)
        assert p.read_text() == "0 1 2\n3\n"
        loaded = WalkCorpus.from_text(p, num_vertices=10)
        np.testing.assert_array_equal(loaded.walks, c.walks)
        assert loaded.num_vertices == 10

    def test_text_infers_universe(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text("0 5\n2 1 4\n")
        loaded = WalkCorpus.from_text(p)
        assert loaded.num_vertices == 6
        assert loaded.lengths.tolist() == [2, 3]

    def test_text_refuses_a_token_beyond_int32(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text(f"0 {2**31}\n")
        with pytest.raises(ValueError, match="int32"):
            WalkCorpus.from_text(p)

    def test_text_empty_file(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text("")
        loaded = WalkCorpus.from_text(p)
        assert loaded.num_walks == 0

    def test_text_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text("0 1\n\n2 3\n")
        assert WalkCorpus.from_text(p).num_walks == 2

    def test_text_refuses_a_token_below_pad(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text("0 -5 1\n")
        with pytest.raises(ValueError, match="below -1"):
            WalkCorpus.from_text(p, num_vertices=3)
