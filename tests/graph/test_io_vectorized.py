"""The one-pass edge-list parse must read a file exactly as the per-line loop.

``read_edge_list`` tries a vectorized ``np.loadtxt`` parse first and
falls back to the per-line loop whenever that parse cannot vouch for
the result. These tests pin both halves of that contract: every
well-formed file takes the fast path *and* yields the same arrays,
headers and ``Graph`` as the loop; every hazard is sent to the loop.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import io as graph_io
from repro.graph.io import read_edge_list

_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])
_NOISE = st.sampled_from(
    ["", "   ", "\t", "# a comment", "#", "   # indented comment", "#x y z"]
)


def _number(draw, low: float) -> str:
    value = draw(st.floats(low, 1e6, allow_nan=False))
    style = draw(st.sampled_from(["repr", "sci", "fixed", "int"]))
    if style == "sci":
        return f"{value:.6e}"
    if style == "fixed":
        return f"{value:.3f}"
    if style == "int":
        return str(int(value))
    return repr(value)


@st.composite
def edge_files(draw):
    """Valid 2-, 3- and 4-column files with comment and blank lines mixed in."""
    width = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 30))
    lines = []
    header = draw(st.sampled_from(["none", "n", "both"]))
    if header == "n":
        lines.append(f"# n={n}")
    elif header == "both":
        lines.append(f"# n={n} directed={draw(st.integers(0, 1))}")
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            lines.append(draw(_NOISE))
        fields = [str(draw(st.integers(0, n - 1))) for _ in range(2)]
        # Weights must be non-negative for a Graph; times may be anything.
        fields += [_number(draw, low) for low in (0.0, -1e6)[: width - 2]]
        sep = draw(_SEPARATORS)
        indent = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(indent + sep.join(fields) + draw(st.sampled_from(["", " "])))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return text


def _graph_arrays(g):
    e = g.edge_list
    return (
        g.n,
        g.directed,
        e.src.tobytes(),
        e.dst.tobytes(),
        None if e.weights is None else np.asarray(e.weights).tobytes(),
        None if e.times is None else np.asarray(e.times).tobytes(),
        np.asarray(g.indptr).tobytes(),
        np.asarray(g.indices).tobytes(),
    )


@given(text=edge_files())
@settings(max_examples=150, deadline=None)
def test_valid_files_parse_identically_through_both_paths(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_text(text)

    fast = graph_io._parse_vectorized(path, None)
    assert fast is not None, "a valid file fell back to the per-line loop"
    slow = graph_io._parse_lines(path, None, "strict", None)
    assert fast[0].shape == slow[0].shape
    assert fast[0].tobytes() == slow[0].tobytes()
    assert fast[1:] == slow[1:]

    via_fast = read_edge_list(path)
    with mock.patch.object(graph_io, "_parse_vectorized", return_value=None):
        via_loop = read_edge_list(path)
    assert _graph_arrays(via_fast) == _graph_arrays(via_loop)


@pytest.mark.parametrize(
    "text",
    [
        "0 1 # trailing comment\n",
        "0 1\n1 2 3\n",
        "0.5 1\n",
        "-1 2\n",
        "nan 1\n",
        "inf 1\n",
        "0 x\n",
        "0\n1\n",
        "# n=2\n0 5\n",
        "# n=3\n0 1\n# n=10\n2 5\n",
        "# n=x\n0 1\n",
        "# only comments\n\n",
        "",
        "0 1\x0c2 3\n",
        "0 1 café\n",
    ],
    ids=[
        "inline-comment",
        "ragged",
        "fractional-id",
        "negative-id",
        "nan-id",
        "inf-id",
        "non-numeric",
        "one-column",
        "id-over-header-n",
        "two-header-n",
        "malformed-header",
        "no-data",
        "empty",
        "form-feed",
        "non-ascii",
    ],
)
def test_hazards_fall_back_to_the_per_line_loop(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert graph_io._parse_vectorized(path, None) is None


def test_explicit_n_bounds_the_fast_path(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 4\n")
    assert graph_io._parse_vectorized(path, 5) is not None
    assert graph_io._parse_vectorized(path, 4) is None
