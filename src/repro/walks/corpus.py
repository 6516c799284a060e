"""Walk corpus: the "sentences" consumed by the CBOW/SkipGram trainers.

A corpus is a dense int32 matrix (walks × walk_length) padded with ``-1``
after a walk terminates. It is the largest array a run holds, and int32
tokens take half the bytes of int64 ones. Training examples are int32
positions into a window-padded copy of that matrix (int64 once it has
2**31 cells or more); :func:`gather_windows` turns a block of positions
into the (center, padded contexts) rows the vectorized trainers consume,
without ever materializing Python lists of tokens.

A corpus built from a caller's array is validated (tokens in range,
padding only as a row suffix) and narrowed to int32. The walk engine's
matrices are correct by construction and skip that pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["WalkCorpus", "gather_windows", "position_dtype"]

PAD = -1
#: The dtype of every walk matrix: vertex ids and ``PAD``.
WALK_DTYPE = np.dtype(np.int32)
_TOKEN_RANGE = np.iinfo(WALK_DTYPE)
#: About how many tokens :meth:`WalkCorpus.token_counts` counts at once.
_COUNT_BLOCK_TOKENS = 1 << 18
#: Walks whose first example :meth:`WalkCorpus.example_positions` places
#: at once.
_POSITION_BLOCK_WALKS = 1 << 14


def position_dtype(cells: int) -> np.dtype:
    """The dtype of example positions into a matrix of ``cells`` cells:
    int32 while every flat index fits (fewer than 2**31 cells), else
    int64."""
    return np.dtype(np.int32 if cells <= _TOKEN_RANGE.max else np.int64)


def gather_windows(
    padded: np.ndarray, positions: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (centers, contexts) examples at ``positions``.

    ``padded`` is a :meth:`WalkCorpus.padded_walks` matrix and
    ``positions`` flat indices into it (:meth:`WalkCorpus.example_positions`).
    Each context row holds the ``window`` tokens before the center, then
    the ``window`` after it; ``-1`` where the window ran off the walk.
    Both arrays come out in ``padded``'s dtype (int32 for a corpus), as
    gathered.
    """
    flat = padded.reshape(-1)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    return flat[positions], flat[positions[:, None] + offsets]


class WalkCorpus:
    """A set of vertex sequences produced by the walk engine.

    Parameters
    ----------
    walks:
        2-D integer array; row = walk; ``-1`` marks padding. Padding may
        only appear as a suffix of a row. Held as int32
        (:data:`WALK_DTYPE`): other integer arrays are narrowed after a
        range check, and a token that does not fit is refused.
    num_vertices:
        Size of the vertex universe (vocabulary size upper bound).
    """

    def __init__(self, walks: np.ndarray, *, num_vertices: int) -> None:
        walks = np.asarray(walks)
        if walks.ndim != 2:
            raise ValueError("walks must be a 2-D array")
        if walks.size:
            lo, hi = walks.min(), walks.max()
            if walks.dtype != WALK_DTYPE and (
                hi > _TOKEN_RANGE.max or lo < _TOKEN_RANGE.min
            ):
                raise ValueError("walk token does not fit in int32")
            if hi >= num_vertices:
                raise ValueError("walk token exceeds num_vertices")
            if lo < PAD:
                raise ValueError("walk token below -1 (the padding id)")
        self._walks = np.ascontiguousarray(walks, dtype=WALK_DTYPE)
        self._num_vertices = int(num_vertices)
        valid = self._walks != PAD
        # Padding must be a suffix: a valid token may not follow a pad.
        if walks.shape[1] > 1 and np.any(~valid[:, :-1] & valid[:, 1:]):
            raise ValueError("padding (-1) must only appear as a row suffix")
        self._lengths = valid.sum(axis=1).astype(np.int64)

    @classmethod
    def _trusted(
        cls,
        walks: np.ndarray,
        *,
        num_vertices: int,
        lengths: np.ndarray | None = None,
    ) -> "WalkCorpus":
        """A corpus over a matrix that is valid by construction: the walk
        engine's output, or rows of a corpus already checked.

        ``walks`` must be C-contiguous :data:`WALK_DTYPE`, in range and
        padded only as a row suffix; nothing is re-checked. Without
        ``lengths`` (then ``walks`` has at least one column), a row whose
        last token is not ``PAD`` has full length, and only the rows that
        end in ``PAD`` are counted.
        """
        corpus = cls.__new__(cls)
        corpus._walks = walks
        corpus._num_vertices = int(num_vertices)
        if lengths is None:
            lengths = np.full(walks.shape[0], walks.shape[1], dtype=np.int64)
            ended = np.flatnonzero(walks[:, -1] == PAD)
            if ended.size:
                lengths[ended] = (walks[ended] != PAD).sum(axis=1)
        corpus._lengths = lengths
        return corpus

    # ------------------------------------------------------------------
    @property
    def walks(self) -> np.ndarray:
        return self._walks

    @property
    def lengths(self) -> np.ndarray:
        """Number of real (non-pad) tokens per walk."""
        return self._lengths

    @property
    def num_walks(self) -> int:
        return int(self._walks.shape[0])

    @property
    def max_length(self) -> int:
        return int(self._walks.shape[1])

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_tokens(self) -> int:
        """Total real tokens across all walks."""
        return int(self._lengths.sum())

    def __len__(self) -> int:
        return self.num_walks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalkCorpus(walks={self.num_walks}, max_len={self.max_length}, "
            f"tokens={self.num_tokens}, vertices={self._num_vertices})"
        )

    # ------------------------------------------------------------------
    def sentences(self) -> Iterator[np.ndarray]:
        """Iterate walks as variable-length arrays (pads stripped)."""
        for row, ln in zip(self._walks, self._lengths):
            yield row[: int(ln)]

    def token_counts(self) -> np.ndarray:
        """Occurrence count of each vertex across the corpus.

        Counted in blocks of rows of about 2**18 tokens, so the transient
        is one block's tokens, not a compacted copy of the corpus.
        """
        counts = np.zeros(self._num_vertices, dtype=np.int64)
        rows = max(1, _COUNT_BLOCK_TOKENS // max(self.max_length, 1))
        for lo in range(0, self.num_walks, rows):
            block = self._walks[lo : lo + rows]
            counts += np.bincount(block[block != PAD], minlength=self._num_vertices)
        return counts

    def coverage(self) -> float:
        """Fraction of vertices that appear at least once."""
        if self._num_vertices == 0:
            return 1.0
        return float((self.token_counts() > 0).mean())

    # ------------------------------------------------------------------
    def padded_walks(self, window: int) -> np.ndarray:
        """The walk matrix with ``window`` pad columns on each side.

        Every window gathered at an example position (see
        :meth:`example_positions`) then stays inside its own row: slots
        that run off the walk read a pad instead of a neighbour walk.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        num_walks, max_len = self._walks.shape
        padded = np.full(
            (num_walks, max_len + 2 * window), PAD, dtype=self._walks.dtype
        )
        padded[:, window : window + max_len] = self._walks
        return padded

    def example_positions(self, window: int) -> np.ndarray:
        """Flat indices into :meth:`padded_walks` of the training examples.

        One position per example: every token of a walk with at least
        two tokens (a window >= 1 then always holds a real context),
        walk by walk and left to right within a walk, so the positions
        are strictly increasing and sorting a shuffled copy restores
        them. In :func:`position_dtype` of the padded matrix: int32
        below 2**31 cells.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        width = self.max_length + 2 * window
        positions = np.ones(
            self.num_examples(window), dtype=position_dtype(self.num_walks * width)
        )
        # Examples of one walk are one cell apart, and walk k's first sits
        # at k * width + window. Write each walk's jump from the previous
        # walk's last example at its first example, then sum up in place:
        # no second full-size array. The jumps are written a block of
        # walks at a time, so no array per walk is held either.
        first, last = 0, 0  # next first-example index, last position so far
        for lo in range(0, self.num_walks, _POSITION_BLOCK_WALKS):
            lengths = self._lengths[lo : lo + _POSITION_BLOCK_WALKS]
            rows = np.flatnonzero(lengths >= 2)
            if not rows.size:
                continue
            counts = lengths[rows]
            starts = (rows + lo) * width + window
            jumps = starts.copy()
            jumps[0] -= last
            jumps[1:] -= starts[:-1] + counts[:-1] - 1
            ends = np.cumsum(counts)
            positions[ends - counts + first] = jumps
            first += int(ends[-1])
            last = int(starts[-1] + counts[-1] - 1)
        np.cumsum(positions, dtype=positions.dtype, out=positions)
        return positions

    def context_arrays(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """All (center, padded-context) training examples.

        Returns
        -------
        centers:
            int32 array of shape (num_examples,).
        contexts:
            int32 array of shape (num_examples, 2 * window); ``-1`` where
            the window ran off the walk (mask it in the trainer).

        The paper's window is symmetric: ``n`` vertices before and after
        the center within the same walk. This is
        :func:`gather_windows` at every :meth:`example_positions` entry —
        the trainer gathers the same windows one block of batches at a
        time instead of materializing them all.
        """
        return gather_windows(
            self.padded_walks(window), self.example_positions(window), window
        )

    def num_examples(self, window: int) -> int:
        """Number of (center, context) training examples at this window,
        without materializing them: every token in a walk of length >= 2
        is one example."""
        if window < 1:
            raise ValueError("window must be >= 1")
        return int(np.sum(self._lengths, where=self._lengths >= 2))

    def merge(self, other: "WalkCorpus") -> "WalkCorpus":
        """Concatenate two corpora over the same vertex universe."""
        if other.num_vertices != self._num_vertices:
            raise ValueError("cannot merge corpora over different universes")
        width = max(self.max_length, other.max_length)

        def _pad(mat: np.ndarray) -> np.ndarray:
            if mat.shape[1] == width:
                return mat
            out = np.full((mat.shape[0], width), PAD, dtype=WALK_DTYPE)
            out[:, : mat.shape[1]] = mat
            return out

        # Both halves were checked when they were built.
        return WalkCorpus._trusted(
            np.vstack([_pad(self._walks), _pad(other._walks)]),
            num_vertices=self._num_vertices,
            lengths=np.concatenate([self._lengths, other._lengths]),
        )

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            Path(path), walks=self._walks, num_vertices=self._num_vertices
        )

    @classmethod
    def load(cls, path: str | Path) -> "WalkCorpus":
        with np.load(Path(path), allow_pickle=False) as data:
            return cls(data["walks"], num_vertices=int(data["num_vertices"]))

    def to_text(self, path: str | Path) -> None:
        """Write walks as whitespace-separated token lines.

        The format gensim's ``LineSentence`` (and the original word2vec
        tool) consume — the interop path for training V2V walks with an
        external word2vec implementation.
        """
        with Path(path).open("w") as fh:
            for walk in self.sentences():
                fh.write(" ".join(str(int(v)) for v in walk) + "\n")

    @classmethod
    def from_text(
        cls, path: str | Path, *, num_vertices: int | None = None
    ) -> "WalkCorpus":
        """Read a text corpus written by :meth:`to_text` (or any
        line-per-sentence integer-token file). ``num_vertices`` defaults
        to max token + 1."""
        rows: list[list[int]] = []
        with Path(path).open() as fh:
            for line in fh:
                tokens = line.split()
                if tokens:
                    rows.append([int(t) for t in tokens])
        if not rows:
            return cls(
                np.empty((0, 1), dtype=WALK_DTYPE),
                num_vertices=num_vertices or 0,
            )
        width = max(len(r) for r in rows)
        walks = np.full((len(rows), width), PAD, dtype=np.int64)
        for i, r in enumerate(rows):
            walks[i, : len(r)] = r
        if num_vertices is None:
            num_vertices = int(walks.max()) + 1
        return cls(walks, num_vertices=num_vertices)
