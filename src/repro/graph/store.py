"""On-disk, build-once CSR graph store with memory-mapped access.

A :class:`GraphStore` is a directory of plain ``.npy`` files plus a JSON
manifest::

    store/
      manifest.json      schema, sizes, shard bounds, integrity record
      indptr.npy         int64 (n + 1,)
      indices.npy        int64 (num_arcs,)
      weights.npy        float64 (num_arcs,)   [weighted graphs only]
      times.npy          float64 (num_arcs,)   [temporal graphs only]
      vertex_weights.npy float64 (n,)          [if present]
      perm.npy           int64 (n,)  new id -> original id
      label_<name>.npy   (n,)                  [one per vertex label]

Arrays are opened with ``np.load(..., mmap_mode="r")``: nothing but the
pages a computation touches ever becomes resident, which is what lets
the walk engine process graphs larger than RAM shard by shard. Building
happens once, in memory, from an ordinary :class:`repro.graph.core.Graph`
— the build partitions the vertex set (:mod:`repro.graph.partition`),
relabels it so every shard owns a contiguous id range, and persists the
permutation so results can be mapped back to original ids.

Temporal graphs store each CSR row's arcs pre-sorted by timestamp
(weights follow the same order), so the temporal stepper can binary
search eligible arcs straight off the mmap without a per-run sort.

Integrity reuses the checkpoint machinery
(:func:`repro.resilience.checkpoint.integrity_record`): the manifest
embeds one SHA-256 over every array plus per-array CRC32s. ``open()``
runs cheap structural checks (manifest shape/dtype vs the ``.npy``
headers, indptr endpoints); :meth:`GraphStore.verify` reads every byte
and checks the digest. Either failure raises the typed
:class:`StoreCorrupt` (mirroring ``CheckpointCorrupt``) after
quarantining the store directory to ``<dir>.corrupt.<ts>`` — *missing*
stays ``FileNotFoundError``, so callers can tell "never built" from
"built but rotted".
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.graph.core import EdgeList, Graph
from repro.graph.partition import (
    PARTITION_METHODS,
    contiguous_relabel,
    partition_vertices,
)
from repro.obs.recorder import current_recorder
from repro.resilience.checkpoint import (
    atomic_write_bytes,
    integrity_record,
    verify_integrity,
)

__all__ = ["GraphStore", "GraphShard", "StoreCorrupt", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"
SCHEMA_VERSION = 1

#: Arrays that must exist in every store.
_REQUIRED = ("indptr", "indices", "perm")


class StoreCorrupt(RuntimeError):
    """A graph store exists on disk but cannot be trusted.

    Raised for missing/torn/mismatched shard files and integrity-record
    failures. Mirrors :class:`repro.resilience.checkpoint.CheckpointCorrupt`:
    *missing* store directories stay ``FileNotFoundError`` (a normal
    first-run state); *corrupt* means quarantine-and-rebuild.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"corrupt graph store {path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def _quarantine(path: Path) -> Path | None:
    """Move a bad store directory aside (``<dir>.corrupt.<ts>``)."""
    if not path.exists():
        return None
    target = path.with_name(f"{path.name}.corrupt.{int(time.time())}")
    suffix = 0
    while target.exists():  # pragma: no cover - same-second collisions
        suffix += 1
        target = path.with_name(f"{path.name}.corrupt.{int(time.time())}.{suffix}")
    path.rename(target)
    current_recorder().event(
        "shard.quarantined", level="warning", path=str(path), moved_to=str(target)
    )
    return target


def _npy_header(path: Path) -> tuple[str, tuple[int, ...]]:
    """(dtype str, shape) from a ``.npy`` header without loading data."""
    with path.open("rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, _fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        else:
            shape, _fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    return dtype.str, tuple(int(s) for s in shape)


class GraphShard:
    """One shard of a store: a contiguous row range over shared mmaps.

    A shard is bookkeeping, not a copy: it holds only the row range
    ``[lo, hi)`` of the store's memory-mapped arrays (``indptr``,
    ``indices``, and ``weights``/``cum_weights``/``times`` when present),
    so advancing walks resident in the range touches only those rows'
    pages. Weighted steps search the per-row ``cum_weights``; no alias
    tables are built.
    """

    def __init__(self, store: "GraphStore", index: int, lo: int, hi: int) -> None:
        self.store = store
        self.index = int(index)
        self.lo = int(lo)
        self.hi = int(hi)

    @property
    def num_vertices(self) -> int:
        return self.hi - self.lo

    def owns(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean mask: which (new-space) vertices live in this shard."""
        return (vertices >= self.lo) & (vertices < self.hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphShard({self.index}, rows [{self.lo}, {self.hi}))"


class GraphStore:
    """Memory-mapped CSR graph satisfying the :class:`GraphView` protocol.

    Construct with :meth:`build` (from an in-memory graph) or
    :meth:`open` (an existing store directory). Vertex ids inside the
    store are *relabeled* — shard-contiguous — and :meth:`permutation`
    maps new ids back to the originals; :meth:`to_graph` reconstructs an
    in-memory graph in either id space.
    """

    #: The resource guard keys off this: mmap'd structure is disk, not RSS.
    mmap_backed = True

    def __init__(
        self, path: Path, manifest: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        self.path = Path(path)
        self._manifest = manifest
        self._arrays = arrays
        self._bounds = np.asarray(manifest["shard_bounds"], dtype=np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        g: Graph,
        path: str | Path,
        *,
        shards: int = 1,
        method: str = "bfs",
        seed: int | None = None,
    ) -> "GraphStore":
        """Partition, relabel, and persist ``g``; returns the opened store.

        Build is the one in-memory step of the out-of-core flow: it
        needs the source graph resident (like any conversion), but the
        store it writes is then consumed purely via mmap. An existing
        directory at ``path`` is refused — stores are immutable once
        built (delete or choose a new path to rebuild).
        """
        if method not in PARTITION_METHODS:
            raise ValueError(
                f"unknown partition method {method!r} (expected one of "
                f"{PARTITION_METHODS})"
            )
        path = Path(path)
        if path.exists():
            raise FileExistsError(
                f"graph store {path} already exists (stores are build-once; "
                "remove it to rebuild)"
            )
        rec = current_recorder()
        started = time.perf_counter()
        membership = partition_vertices(g, shards, method=method, seed=seed)
        perm, bounds = contiguous_relabel(membership)
        arrays = _relabeled_arrays(g, perm)
        arrays["perm"] = perm

        meta = {
            "schema": SCHEMA_VERSION,
            "n": int(g.n),
            "num_edges": int(g.num_edges),
            "num_arcs": int(arrays["indices"].shape[0]),
            "directed": bool(g.directed),
            "weighted": "weights" in arrays,
            "temporal": "times" in arrays,
            "rows_time_sorted": "times" in arrays,
            "partition_method": method,
            "partition_seed": seed,
            "shard_bounds": [int(b) for b in bounds],
            "labels": g.label_names,
            "files": {
                name: {"dtype": arr.dtype.str, "shape": list(arr.shape)}
                for name, arr in arrays.items()
            },
        }
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        manifest = dict(meta)
        manifest["integrity"] = integrity_record(arrays, meta_bytes)

        path.mkdir(parents=True)
        for name, arr in arrays.items():
            with (path / f"{name}.npy").open("wb") as fh:
                np.save(fh, arr)
        atomic_write_bytes(
            path / MANIFEST_NAME,
            json.dumps(manifest, sort_keys=True, indent=1).encode(),
        )
        seconds = time.perf_counter() - started
        if rec.enabled:
            rec.observe("shard.build_seconds", seconds)
            rec.set("shard.shards", float(len(bounds) - 1))
            rec.event(
                "shard.build",
                n=int(g.n),
                arcs=int(arrays["indices"].shape[0]),
                shards=len(bounds) - 1,
                method=method,
                seconds=round(seconds, 6),
            )
        return cls.open(path)

    @classmethod
    def open(cls, path: str | Path, *, verify: bool = False) -> "GraphStore":
        """Open an existing store, memory-mapping its arrays.

        Structural validation is always performed (manifest readable,
        every listed file present with the declared dtype/shape, indptr
        endpoints sane); ``verify=True`` additionally reads every byte
        and checks the SHA-256 integrity record. Any failure quarantines
        the directory and raises :class:`StoreCorrupt`.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no graph store at {path}")
        try:
            manifest, arrays = cls._open_validated(path)
        except StoreCorrupt:
            _quarantine(path)
            raise
        store = cls(path, manifest, arrays)
        if verify:
            store.verify()
        return store

    @classmethod
    def _open_validated(
        cls, path: Path
    ) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreCorrupt(path, f"missing {MANIFEST_NAME}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorrupt(path, f"unreadable manifest: {exc}") from exc
        files = manifest.get("files")
        if not isinstance(files, Mapping) or not isinstance(
            manifest.get("shard_bounds"), list
        ):
            raise StoreCorrupt(path, "manifest missing files/shard_bounds")
        for name in _REQUIRED:
            if name not in files:
                raise StoreCorrupt(path, f"manifest lists no {name!r} array")
        arrays: dict[str, np.ndarray] = {}
        for name, spec in files.items():
            file = path / f"{name}.npy"
            if not file.is_file():
                raise StoreCorrupt(path, f"missing array file {file.name}")
            try:
                dtype, shape = _npy_header(file)
            except (ValueError, OSError) as exc:
                raise StoreCorrupt(
                    path, f"unreadable array file {file.name}: {exc}"
                ) from exc
            if dtype != spec["dtype"] or list(shape) != list(spec["shape"]):
                raise StoreCorrupt(
                    path,
                    f"{file.name}: header {dtype}{list(shape)} does not match "
                    f"manifest {spec['dtype']}{spec['shape']}",
                )
            try:
                arrays[name] = np.load(file, mmap_mode="r", allow_pickle=False)
            except (ValueError, OSError) as exc:
                raise StoreCorrupt(
                    path, f"torn array file {file.name}: {exc}"
                ) from exc
        n = int(manifest.get("n", -1))
        indptr = arrays["indptr"]
        if (
            n < 0
            or indptr.shape != (n + 1,)
            or (n >= 0 and indptr.size and int(indptr[0]) != 0)
            or int(indptr[-1]) != int(manifest.get("num_arcs", -1))
            or arrays["indices"].shape != (int(manifest["num_arcs"]),)
        ):
            raise StoreCorrupt(path, "indptr endpoints inconsistent with manifest")
        bounds = np.asarray(manifest["shard_bounds"], dtype=np.int64)
        if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n or np.any(
            np.diff(bounds) < 0
        ):
            raise StoreCorrupt(path, "shard bounds do not cover the vertex range")
        return manifest, arrays

    def verify(self) -> None:
        """Full integrity check: re-hash every array against the manifest.

        Reads all pages (sequentially — still streaming, not resident all
        at once for the digest). Raises :class:`StoreCorrupt` after
        quarantining the directory on mismatch.
        """
        record = self._manifest.get("integrity")
        if not isinstance(record, Mapping):
            _quarantine(self.path)
            raise StoreCorrupt(self.path, "manifest has no integrity record")
        meta = {k: v for k, v in self._manifest.items() if k != "integrity"}
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        from repro.resilience.checkpoint import CheckpointCorrupt

        try:
            verify_integrity(
                dict(self._arrays), dict(record), meta_bytes=meta_bytes,
                path=self.path,
            )
        except CheckpointCorrupt as exc:
            _quarantine(self.path)
            raise StoreCorrupt(self.path, exc.reason) from exc

    # ------------------------------------------------------------------
    # GraphView surface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._manifest["n"])

    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        return int(self._manifest["num_edges"])

    @property
    def num_arcs(self) -> int:
        return int(self._manifest["num_arcs"])

    @property
    def directed(self) -> bool:
        return bool(self._manifest["directed"])

    @property
    def indptr(self) -> np.ndarray:
        return self._arrays["indptr"]

    @property
    def indices(self) -> np.ndarray:
        return self._arrays["indices"]

    @property
    def edge_weights(self) -> np.ndarray | None:
        return self._arrays.get("weights")

    @property
    def edge_times(self) -> np.ndarray | None:
        return self._arrays.get("times")

    @property
    def vertex_weights(self) -> np.ndarray | None:
        return self._arrays.get("vertex_weights")

    @property
    def weighted(self) -> bool:
        return "weights" in self._arrays

    @property
    def temporal(self) -> bool:
        return "times" in self._arrays

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphStore({self.path}, n={self.n}, m={self.num_edges}, "
            f"shards={self.num_shards})"
        )

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int | None = None) -> "int | np.ndarray":
        if v is None:
            return self.out_degrees()
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return int(self.indptr[v + 1] - self.indptr[v])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        if not self.directed:
            return self.out_degrees()
        return np.bincount(
            np.asarray(self.indices), minlength=self.n
        ).astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def arc_array(self) -> tuple[np.ndarray, np.ndarray]:
        """All arcs as ``(src, dst)`` heap arrays (materializes O(arcs))."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())
        return src, np.array(self.indices)

    @property
    def label_names(self) -> list[str]:
        return sorted(self._manifest.get("labels", []))

    def vertex_labels(self, name: str) -> np.ndarray:
        key = f"label_{name}"
        if key not in self._arrays:
            raise KeyError(f"no vertex labels named '{name}'")
        return self._arrays[key]

    # ------------------------------------------------------------------
    # Shards & permutation
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return int(self._bounds.size - 1)

    @property
    def shard_bounds(self) -> np.ndarray:
        """Length ``num_shards + 1``; shard s owns rows bounds[s]:bounds[s+1]."""
        return self._bounds

    def shard(self, index: int) -> GraphShard:
        if not 0 <= index < self.num_shards:
            raise IndexError(
                f"shard {index} out of range [0, {self.num_shards})"
            )
        return GraphShard(
            self, index, int(self._bounds[index]), int(self._bounds[index + 1])
        )

    def shards(self) -> Iterator[GraphShard]:
        for index in range(self.num_shards):
            yield self.shard(index)

    def permutation(self) -> np.ndarray:
        """int64 map *new* (store) vertex id → *original* id."""
        return self._arrays["perm"]

    @property
    def manifest(self) -> dict[str, Any]:
        return dict(self._manifest)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def to_graph(self, *, original_ids: bool = True) -> Graph:
        """Materialize an in-memory :class:`Graph` from the store.

        With ``original_ids`` (default) endpoints, vertex weights, and
        labels are mapped back through the persisted permutation, so the
        result is interchangeable with the graph the store was built
        from (same edges/weights/times — arc order within a CSR row may
        differ). ``original_ids=False`` keeps the store's relabeled,
        shard-contiguous id space.
        """
        src, dst = self.arc_array()
        w = self.edge_weights
        t = self.edge_times
        if not self.directed:
            # Undirected CSR holds two arcs per non-loop edge: keep the
            # canonical half (u < v) plus self-loops (stored once).
            keep = src <= dst
            src, dst = src[keep], dst[keep]
            w = None if w is None else np.array(w)[keep]
            t = None if t is None else np.array(t)[keep]
        else:
            w = None if w is None else np.array(w)
            t = None if t is None else np.array(t)
        vw = self.vertex_weights
        vw = None if vw is None else np.array(vw)
        labels = {
            name: np.array(self.vertex_labels(name)) for name in self.label_names
        }
        if original_ids:
            # Per-vertex data is indexed by new id; scattering through
            # perm (new -> original) puts each value back at its
            # original position.
            perm = np.array(self.permutation())
            src, dst = perm[src], perm[dst]
            if vw is not None:
                out = np.empty(self.n, dtype=np.float64)
                out[perm] = vw
                vw = out
            reordered = {}
            for name, arr in labels.items():
                out = np.empty_like(arr)
                out[perm] = arr
                reordered[name] = out
            labels = reordered
        g = Graph(
            self.n,
            EdgeList(src, dst, w, t),
            directed=self.directed,
            vertex_weights=vw,
        )
        for name, arr in labels.items():
            g.set_vertex_labels(name, arr)
        return g


def _relabeled_arrays(g: Graph, perm: np.ndarray) -> dict[str, np.ndarray]:
    """CSR (+ optional columns) of ``g`` in the permuted id space.

    ``perm`` maps new → original; arcs are re-bucketed by new source id
    with a stable sort, and temporal rows are additionally time-sorted
    so the store can serve binary searches straight off the mmap.
    """
    n = int(g.n)
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n, dtype=np.int64)
    old_src = np.repeat(np.arange(n, dtype=np.int64), g.out_degrees())
    src = inverse[old_src]
    dst = inverse[np.asarray(g.indices)]
    w = g.edge_weights
    t = g.edge_times
    if t is not None:
        order = np.lexsort((t, src))
    else:
        order = np.argsort(src, kind="stable")
    arrays: dict[str, np.ndarray] = {
        "indices": np.ascontiguousarray(dst[order]),
    }
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    arrays["indptr"] = indptr
    if w is not None:
        arrays["weights"] = np.ascontiguousarray(np.asarray(w)[order])
        # Per-row inclusive cumulative weights: the walk engine
        # draws weighted steps by binary-searching this straight off the
        # mmap, so no in-RAM alias table is ever built.
        arrays["cum_weights"] = _row_cumsum(indptr, arrays["weights"])
    if t is not None:
        arrays["times"] = np.ascontiguousarray(np.asarray(t)[order])
    if g.vertex_weights is not None:
        arrays["vertex_weights"] = np.ascontiguousarray(g.vertex_weights[perm])
        arrays["cum_vertex_weights"] = _row_cumsum(
            indptr, arrays["vertex_weights"][arrays["indices"]]
        )
    for name in g.label_names:
        arrays[f"label_{name}"] = np.ascontiguousarray(g.vertex_labels(name)[perm])
    return arrays


def _row_cumsum(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inclusive cumulative sum restarting at every CSR row boundary."""
    if values.size == 0:
        return np.zeros(0, dtype=np.float64)
    global_cum = np.cumsum(values, dtype=np.float64)
    shifted = np.concatenate(([0.0], global_cum))
    base = shifted[indptr[:-1]]
    return np.ascontiguousarray(
        global_cum - np.repeat(base, np.diff(indptr))
    )
