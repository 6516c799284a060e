"""Edge-list and binary I/O for graphs.

Text format is whitespace-separated: ``src dst [weight [time]]`` per line,
``#``-prefixed comments allowed. Binary format is an ``.npz`` capturing the
full graph (CSR-independent: the canonical edge list plus metadata) so a
round trip is exact.

Both binary entry points also speak the out-of-core store format
(:mod:`repro.graph.store`): :func:`load_graph` on a store *directory*
materializes the graph back through the persisted permutation — vertex
labels, edge weights, and timestamps round-trip exactly — and
:func:`save_graph` accepts a :class:`~repro.graph.store.GraphStore` as
input. Corrupt stores raise
:class:`~repro.graph.store.StoreCorrupt` (after quarantining the
directory), mirroring ``CheckpointCorrupt`` for checkpoints.
"""

from __future__ import annotations

import io
import json
import warnings
from pathlib import Path

import numpy as np

from repro.graph.core import EdgeList, Graph

__all__ = ["write_edge_list", "read_edge_list", "save_graph", "load_graph"]


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write the canonical edge list as text, one edge per line."""
    path = Path(path)
    e = g.edge_list
    cols = [e.src, e.dst]
    if e.weights is not None:
        cols.append(e.weights)
    if e.times is not None:
        if e.weights is None:
            cols.append(np.ones(len(e)))  # placeholder weight column
        cols.append(e.times)
    with path.open("w") as fh:
        fh.write(f"# n={g.n} directed={int(g.directed)}\n")
        for row in zip(*cols):
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    value = float(x)
    return str(int(value)) if value.is_integer() else repr(value)


ERROR_POLICIES = ("strict", "skip", "collect")


def _parse_edge_line(line: str, width: int | None) -> tuple[list[float], str | None]:
    """Parse one data line; returns (fields, error message or None)."""
    try:
        fields = [float(t) for t in line.split()]
    except ValueError:
        return [], "non-numeric field"
    if len(fields) < 2:
        return [], "fewer than two columns"
    if width is not None and len(fields) != width:
        return [], f"expected {width} columns, got {len(fields)}"
    for value in fields[:2]:
        if not np.isfinite(value) or value != int(value):
            return [], f"vertex id {value!r} is not a non-negative integer"
        if value < 0:
            return [], f"vertex id {value!r} is not a non-negative integer"
    return fields, None


def read_edge_list(
    path: str | Path,
    *,
    n: int | None = None,
    directed: bool | None = None,
    errors: str = "strict",
    collector: list[tuple[int, str, str]] | None = None,
) -> Graph:
    """Read a text edge list. Header comments written by
    :func:`write_edge_list` supply ``n`` and directedness; explicit
    arguments override. Without either, ``n`` defaults to max id + 1.

    ``errors`` controls what a malformed line (non-numeric field, wrong
    column count, fractional/negative/out-of-range vertex id) does:

    - ``"strict"`` (default) — raise ``ValueError`` naming the line.
    - ``"skip"`` — drop the line silently; one corrupt record no longer
      kills a multi-hour pipeline load.
    - ``"collect"`` — drop the line and record ``(lineno, line,
      message)``. Records append to ``collector`` when given, otherwise
      a single summary ``UserWarning`` is emitted.

    Column count is fixed by the first well-formed data line; later
    lines with a different width are malformed.

    A well-formed file is parsed in one vectorized pass; anything that
    pass cannot vouch for is re-read line by line, so every ``errors``
    policy sees exactly the per-line records and messages.
    """
    if errors not in ERROR_POLICIES:
        raise ValueError(f"errors must be one of {ERROR_POLICIES}")
    path = Path(path)
    parsed = _parse_vectorized(path, n)
    if parsed is None:
        parsed = _parse_lines(path, n, errors, collector)
    arr, header_n, header_directed = parsed
    width = arr.shape[1]
    src = arr[:, 0].astype(np.int64)
    dst = arr[:, 1].astype(np.int64)
    weights = arr[:, 2] if width >= 3 else None
    times = arr[:, 3] if width >= 4 else None
    resolved_n = n if n is not None else header_n
    if resolved_n is None:
        resolved_n = int(max(src.max(), dst.max()) + 1) if len(src) else 0
    resolved_directed = directed if directed is not None else bool(header_directed)
    return Graph(
        resolved_n,
        EdgeList(src, dst, weights, times),
        directed=resolved_directed,
    )


#: (rows as float64 columns, header ``n=``, header ``directed=``)
_Parsed = tuple[np.ndarray, int | None, bool | None]


def _parse_header(body: str, header: dict) -> None:
    """Fold one ``#`` line's ``n=`` / ``directed=`` tokens into
    ``header``, in order; a malformed token raises ``ValueError`` after
    the tokens before it have landed."""
    for token in body.split():
        if token.startswith("n="):
            header["n"] = int(token[2:])
        elif token.startswith("directed="):
            header["directed"] = bool(int(token[9:]))


def _parse_vectorized(path: Path, n: int | None) -> _Parsed | None:
    """One ``np.loadtxt`` pass over a well-formed file, or None.

    None whenever the result could differ from :func:`_parse_lines`:
    undecodable bytes, a character the two tokenizers may split
    differently, a ``#`` after data on a line, a malformed or ambiguous
    header (two different ``n=`` values bound different lines in the
    per-line loop), ragged or non-numeric rows, no data, or a vertex id
    that is not a finite, non-negative integer below ``n``.
    """
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        return None
    if not text.isascii() or "\x0b" in text or "\x0c" in text:
        return None
    header: dict = {"n": None, "directed": None}
    declared: set[int] = set()
    at = text.find("#")
    while at >= 0:
        line_start = text.rfind("\n", 0, at) + 1
        line_end = text.find("\n", at)
        line_end = len(text) if line_end < 0 else line_end
        if text[line_start:at].strip():
            return None
        try:
            _parse_header(text[at + 1 : line_end], header)
        except ValueError:
            return None
        if header["n"] is not None:
            declared.add(header["n"])
        at = text.find("#", line_end)
    if len(declared) > 1:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            arr = np.loadtxt(io.StringIO(text), comments="#", ndmin=2)
        except ValueError:
            return None
    if arr.shape[0] == 0 or arr.shape[1] < 2:
        return None
    ids = arr[:, :2]
    limit = n if n is not None else header["n"]
    if not (
        np.isfinite(ids).all()
        and (ids >= 0).all()
        and (ids == np.floor(ids)).all()
        and (limit is None or (ids < limit).all())
    ):
        return None
    return arr, header["n"], header["directed"]


def _parse_lines(
    path: Path,
    n: int | None,
    errors: str,
    collector: list[tuple[int, str, str]] | None,
) -> _Parsed:
    """The per-line parse that applies the ``errors`` policy."""
    header: dict = {"n": None, "directed": None}
    rows: list[list[float]] = []
    bad: list[tuple[int, str, str]] = collector if collector is not None else []
    width: int | None = None
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    _parse_header(line[1:], header)
                except ValueError:
                    if errors == "strict":
                        raise ValueError(
                            f"{path}:{lineno}: malformed header: {line!r}"
                        ) from None
                    bad.append((lineno, line, "malformed header"))
                continue
            fields, problem = _parse_edge_line(line, width)
            limit = n if n is not None else header["n"]
            if problem is None and limit is not None:
                if fields[0] >= limit or fields[1] >= limit:
                    problem = f"vertex id exceeds declared n={limit}"
            if problem is not None:
                if errors == "strict":
                    if problem.startswith("expected "):
                        raise ValueError(
                            "inconsistent column counts in edge list "
                            f"(line {lineno}: {problem})"
                        )
                    raise ValueError(f"{path}:{lineno}: {problem}: {line!r}")
                bad.append((lineno, line, problem))
                continue
            if width is None:
                width = len(fields)
            rows.append(fields)
    if errors == "collect" and bad and collector is None:
        warnings.warn(
            f"read_edge_list: dropped {len(bad)} malformed line(s) from {path} "
            f"(first: line {bad[0][0]}: {bad[0][2]})",
            UserWarning,
            stacklevel=3,
        )
    width = width if width is not None else 2
    arr = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, width))
    return arr, header["n"], header["directed"]


def save_graph(g: Graph, path: str | Path) -> None:
    """Save a graph (edges, weights, times, vertex weights, labels) as .npz.

    A :class:`~repro.graph.store.GraphStore` input is materialized back
    to original vertex ids first, so ``save_graph(store, p)`` followed by
    :func:`load_graph` round-trips the graph the store was built from.
    """
    if getattr(g, "mmap_backed", False) and hasattr(g, "to_graph"):
        g = g.to_graph()
    path = Path(path)
    e = g.edge_list
    payload: dict[str, np.ndarray] = {
        "src": e.src,
        "dst": e.dst,
        "meta": np.frombuffer(
            json.dumps(
                {
                    "n": g.n,
                    "directed": g.directed,
                    "labels": g.label_names,
                }
            ).encode(),
            dtype=np.uint8,
        ),
    }
    if e.weights is not None:
        payload["edge_weights"] = e.weights
    if e.times is not None:
        payload["edge_times"] = e.times
    if g.vertex_weights is not None:
        payload["vertex_weights"] = g.vertex_weights
    for name in g.label_names:
        payload[f"label_{name}"] = g.vertex_labels(name)
    np.savez_compressed(path, **payload)


def load_graph(path: str | Path) -> Graph:
    """Inverse of :func:`save_graph`.

    ``path`` may also be a graph-store directory (``repro shard
    build``): the store is opened — validation failures quarantine it
    and raise :class:`~repro.graph.store.StoreCorrupt` — and
    materialized with labels, weights, and times intact.
    """
    path = Path(path)
    if path.is_dir():
        from repro.graph.store import GraphStore

        return GraphStore.open(path).to_graph()
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        edge_list = EdgeList(
            data["src"],
            data["dst"],
            data["edge_weights"] if "edge_weights" in data else None,
            data["edge_times"] if "edge_times" in data else None,
        )
        g = Graph(
            int(meta["n"]),
            edge_list,
            directed=bool(meta["directed"]),
            vertex_weights=(
                data["vertex_weights"] if "vertex_weights" in data else None
            ),
        )
        for name in meta["labels"]:
            g.set_vertex_labels(name, data[f"label_{name}"])
    return g
