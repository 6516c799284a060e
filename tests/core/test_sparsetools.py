"""scipy's compiled sparse kernels, called directly, against scipy itself.

The trainer and k-means call ``csr_matvecs``/``csc_matvecs`` from
:data:`repro.core._math.sparsetools` on plain arrays instead of building
scipy matrices. scipy's ``M @ dense`` is ``np.zeros`` plus the same call,
so every product here must be bitwise scipy's public one: over int32 and
int64 indices, float32 and float64 data, duplicate indices and empty
rows. The loader must take its direct path on the installed scipy (a
silent fallback would only show as slow start-up), and its fallback must
still give working kernels.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.core import _math
from repro.core._math import scatter_add_rows, sparsetools

ROOT = Path(__file__).resolve().parents[2]


def _random_compressed(rng, major, minor, nnz, index_dtype, dtype):
    """(indptr, indices, data) with ``major`` rows (CSR) or columns (CSC):
    random row lengths, at least one of them 0, and indices that repeat."""
    cuts = np.sort(rng.integers(0, nnz + 1, major - 1))
    cuts[1] = cuts[0]
    indptr = np.concatenate([[0], cuts, [nnz]]).astype(index_dtype)
    indices = rng.integers(0, max(minor // 3, 1), nnz).astype(index_dtype)
    data = rng.standard_normal(nnz).astype(dtype)
    return indptr, indices, data


def _direct(fmt, shape, indptr, indices, data, x, kernels=sparsetools):
    out = np.zeros((shape[0], x.shape[1]), dtype=np.result_type(data, x))
    kernel = kernels.csr_matvecs if fmt == "csr" else kernels.csc_matvecs
    kernel(*shape, x.shape[1], indptr, indices, data, x.reshape(-1), out.reshape(-1))
    return out


@pytest.mark.parametrize("fmt", ["csr", "csc"])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(4))
def test_matvecs_bitwise_scipy(fmt, index_dtype, dtype, seed):
    rng = np.random.default_rng(seed)
    rows, cols, d = 40, 25, 7
    major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
    indptr, indices, data = _random_compressed(rng, major, minor, 300, index_dtype, dtype)
    assert np.any(np.diff(indptr) == 0)  # an empty row (CSR) or column (CSC)
    x = rng.standard_normal((cols, d)).astype(dtype)
    matrix = (sparse.csr_array if fmt == "csr" else sparse.csc_array)(
        (data, indices, indptr), shape=(rows, cols)
    )
    expected = matrix @ x
    got = _direct(fmt, (rows, cols), indptr, indices, data, x)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_output_of_another_dtype_is_refused():
    indptr = np.array([0, 1, 2], dtype=np.int32)
    indices = np.array([0, 1], dtype=np.int32)
    data = np.ones(2, dtype=np.float32)
    x = np.ones(4, dtype=np.float64)  # float64 input, float32 output
    with pytest.raises(ValueError):
        sparsetools.csr_matvecs(2, 2, 2, indptr, indices, data, x, np.zeros(4, np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_scatter_add_rows_bitwise_csr_selector(dtype, index_dtype):
    """The CSC one-entry-per-column selector sums each target row in the
    same order as the COO-built CSR selector scipy used to build."""
    rng = np.random.default_rng(7)
    target = rng.standard_normal((30, 5))
    idx = rng.integers(0, 30, 400).astype(index_dtype)  # many duplicates
    rows = rng.standard_normal((400, 5)).astype(dtype)
    selector = sparse.csr_matrix(
        (np.ones(400), (idx, np.arange(400))), shape=(30, 400)
    )
    expected = target + selector @ rows
    scatter_add_rows(target, idx, rows)
    assert np.array_equal(target, expected)


def test_scatter_add_rows_refuses_out_of_range_indices():
    target = np.zeros((4, 2))
    with pytest.raises(IndexError):
        scatter_add_rows(target, np.array([1, 1, 4]), np.ones((3, 2)))
    with pytest.raises(ValueError):
        scatter_add_rows(target, np.array([1, 1, -1]), np.ones((3, 2)))
    assert not target.any()


def test_loader_took_the_direct_path():
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    assert sparsetools.__name__ == "repro.core._sparsetools"
    assert os.path.dirname(sparsetools.__file__) == os.path.join(scipy_dir, "sparse")


def test_fallback_imports_scipy_sparse(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    fallback = _math._load_sparsetools()
    assert fallback.__name__ == "scipy.sparse._sparsetools"
    indptr = np.array([0, 2, 2], dtype=np.int64)
    indices = np.array([1, 1], dtype=np.int64)
    data = np.array([2.0, 3.0])
    x = np.array([[1.0], [4.0]])
    got = _direct("csr", (2, 2), indptr, indices, data, x, kernels=fallback)
    assert got.tolist() == [[20.0], [0.0]]


# In a fresh interpreter: the direct kernels first, then scipy imported,
# then the same product through both.
SCIPY_AFTERWARDS = """
import sys
import numpy as np
from repro.core._math import sparsetools
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
rng = np.random.default_rng(0)
indptr = np.array([0, 3, 3, 6], dtype=np.int32)
indices = np.array([0, 2, 0, 1, 1, 3], dtype=np.int32)
data = rng.standard_normal(6).astype(np.float32)
x = rng.standard_normal((4, 5)).astype(np.float32)

def direct():
    out = np.zeros((3, 5), dtype=np.float32)
    sparsetools.csr_matvecs(3, 4, 5, indptr, indices, data, x.ravel(), out.ravel())
    return out

before = direct()
from scipy import sparse
expected = sparse.csr_array((data, indices, indptr), shape=(3, 4)) @ x
assert np.array_equal(before, expected)
assert np.array_equal(direct(), expected)
print("ok")
"""


def test_scipy_imported_afterwards_in_the_same_process():
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_AFTERWARDS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
