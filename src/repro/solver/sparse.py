"""CSR utilities shared by the sparse solver core.

The formulation-to-solution path (compile -> presolve -> LP relaxation
-> backend) stores constraint matrices as ``scipy.sparse`` CSR: on
catalog-scale instances the coefficient matrices are well under 1%
dense, so the dense ``O(rows x vars)`` standard form was both the
compile-time and the memory bottleneck.  This module keeps the small
amount of CSR plumbing in one place:

* :func:`canonical_csr` wraps arrays that already form canonical CSR
  (the compile row memo builds them that way), without a copy or a
  ``sum_duplicates`` / ``sort_indices`` pass;
* :func:`csr_take_rows` copies a subset of a CSR matrix's rows in one
  vectorized gather (the compile memo splits its rows into the
  ``<=`` and ``==`` blocks this way);
* :func:`matrix_nbytes` / :func:`dense_equivalent_nbytes` are the byte
  accounting behind the ``solver.matrix.nbytes`` gauge and the
  service cache's LRU-by-bytes sizing;
* :func:`matrices_equal` and :func:`digest_update` give the session
  layer exact equality and content digests without densifying;
* :func:`pack_bitset` builds uint64 row-support bitsets for the
  sparse dominated-column presolve rule.

Everything here treats matrices as immutable values: canonical form
(sorted indices, no explicit zeros, no duplicates) is established at
construction and never revisited.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

__all__ = [
    "canonical_csr",
    "csr_take_rows",
    "dense_equivalent_nbytes",
    "digest_update",
    "is_sparse",
    "matrices_equal",
    "matrix_nbytes",
    "pack_bitset",
    "to_dense",
]


def is_sparse(matrix: object) -> bool:
    """Whether ``matrix`` is a scipy sparse matrix/array."""
    return sp.issparse(matrix)


def canonical_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, num_columns: int
) -> sp.csr_matrix:
    """Wrap arrays that already form canonical CSR, without copying.

    ``indptr`` and ``indices`` must be int32 and every row's columns
    strictly increasing with no explicit zeros.  A uniform int32 index
    dtype matters: mixing int32 indices with an int64 indptr makes
    scipy unify (and silently copy) on every construction, including
    the zero-copy shared-memory reattach.
    """
    matrix = sp.csr_matrix(
        (data, indices, indptr), shape=(indptr.size - 1, num_columns), copy=False
    )
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


def csr_take_rows(matrix: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """A canonical CSR copy of ``matrix``'s ``rows``, in the given order.

    One vectorized gather over the selected rows' nonzeros; the result
    shares no array with ``matrix``.
    """
    starts = matrix.indptr[rows]
    lengths = matrix.indptr[rows + 1] - starts
    indptr = np.zeros(rows.size + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    positions = np.repeat(starts - indptr[:-1], lengths) + np.arange(
        indptr[-1], dtype=np.int32
    )
    return canonical_csr(
        matrix.data[positions], matrix.indices[positions], indptr, matrix.shape[1]
    )


def to_dense(matrix: np.ndarray | sp.spmatrix) -> np.ndarray:
    """A dense ``float64`` view/copy of ``matrix``."""
    if sp.issparse(matrix):
        return np.asarray(matrix.todense(), dtype=np.float64)
    return np.asarray(matrix, dtype=np.float64)


def matrix_nbytes(matrix: np.ndarray | sp.spmatrix) -> int:
    """Actual payload bytes of a constraint matrix.

    CSR cost is ``data + indices + indptr`` — what the matrix really
    occupies — not the dense ``rows x vars x 8`` its shape implies.
    """
    if sp.issparse(matrix):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    return int(matrix.nbytes)


def dense_equivalent_nbytes(matrix: np.ndarray | sp.spmatrix) -> int:
    """Bytes a dense float64 materialization of ``matrix`` would take."""
    rows, cols = matrix.shape
    return int(rows) * int(cols) * 8


def matrices_equal(a: np.ndarray | sp.spmatrix, b: np.ndarray | sp.spmatrix) -> bool:
    """Exact (bitwise-value) equality of two constraint matrices.

    Two canonical CSR matrices are equal iff their three arrays match;
    mixed dense/sparse operands compare by densifying the sparse side
    (correct, and only reachable when a caller mixes compile flavors —
    the session layer never does on purpose).
    """
    if a.shape != b.shape:
        return False
    a_sparse, b_sparse = sp.issparse(a), sp.issparse(b)
    if a_sparse and b_sparse:
        a, b = a.tocsr(), b.tocsr()
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )
    if a_sparse or b_sparse:
        return np.array_equal(to_dense(a), to_dense(b))
    return np.array_equal(a, b)


def digest_update(hasher, matrix: np.ndarray | sp.spmatrix) -> None:
    """Feed a matrix's exact content into a running hash.

    Sparse matrices hash their canonical triple; a dense matrix with
    the same values hashes differently, which is deliberate — the
    session's LP caches must never be shared across compile flavors,
    because the backends' float pipelines may differ in the last ulp.
    """
    hasher.update(str(matrix.shape).encode())
    if sp.issparse(matrix):
        matrix = matrix.tocsr()
        hasher.update(b"csr")
        hasher.update(np.ascontiguousarray(matrix.indptr).tobytes())
        hasher.update(np.ascontiguousarray(matrix.indices).tobytes())
        hasher.update(np.ascontiguousarray(matrix.data).tobytes())
    else:
        hasher.update(np.ascontiguousarray(matrix).tobytes())


def pack_bitset(row_lists: list[np.ndarray], num_rows: int) -> np.ndarray:
    """Pack per-column row-support sets into a uint64 bitset matrix.

    ``row_lists[k]`` holds the (active-row-local) indices where column
    ``k`` is nonzero; the result has shape ``(len(row_lists), words)``
    with bit ``r`` of word ``r // 64`` set.  The dominated-column rule
    uses these for vectorized subset tests over thousands of columns.
    """
    words = max(1, -(-num_rows // 64))
    bits = np.zeros((len(row_lists), words), dtype=np.uint64)
    for k, rows in enumerate(row_lists):
        if rows.size:
            np.bitwise_or.at(
                bits[k],
                rows // 64,
                np.uint64(1) << (rows % 64).astype(np.uint64),
            )
    return bits
