"""Tests for the walk corpus and context extraction."""

import numpy as np
import pytest

from repro.walks.corpus import PAD, WALK_DTYPE, WalkCorpus


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
