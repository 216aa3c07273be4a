"""The fused counting kernel: one CSR walk over every row, no product matrix.

A scipy pass over ``A @ A`` is bound by the sparse product: scipy's
SpGEMM materializes (and sorts the column indices of) every path-2 entry
before the pass reduces them.  The fused kernel here, which
:func:`repro.stats.kernels.triangle_pass` calls once per graph, never
builds the product.  It walks the CSR rows directly with Gustavson's
dense accumulator —

* scatter the multiplicities of every 2-path out of row ``u`` into an
  O(n) workspace,
* read the edge-restricted sum straight back through ``N(u)`` (twice the
  row's triangle count),
* fold the off-diagonal maximum (the LS_Δ ingredient) while zeroing the
  touched workspace slots for the next row —

so each path-2 contribution costs one increment instead of an SpGEMM
entry, and peak extra memory is two length-n scratch arrays.

The kernel is a ~40-line C function registered with
:class:`repro.native.registry.NativeKernel` and compiled on first use with
the system C compiler.  It is integer-exact (the arithmetic is increments
and comparisons on int64 accumulators), so its results are bit-identical
to the full-product oracles and the scipy SpGEMM pass of
:mod:`repro.reference.counting` — the equivalence suite
(``tests/stats/test_backend_equivalence.py``) enforces this for every
graph family.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from repro.native.registry import NativeKernel

__all__ = ["COUNTING_KERNEL"]


# The whole A² pass.  Arguments are the CSR structure of the symmetric
# adjacency (int64 row pointers, int32 column indices: every node id fits
# int32, while 2E may not), the node count, the per-node triangle vector
# (int64, written in place), and two scratch arrays of length n_nodes
# (int64 counts, int32 touched columns).  Returns the off-diagonal maximum
# common-neighbour count.  The workspace must arrive all-zero and is left
# all-zero.
_C_SOURCE = """\
#include <stdint.h>

int64_t repro_fused_pass(
    const int64_t *indptr,
    const int32_t *indices,
    int64_t n_nodes,
    int64_t *per_node,
    int64_t *workspace,
    int32_t *touched)
{
    int64_t max_common = 0;
    for (int64_t u = 0; u < n_nodes; u++) {
        int64_t row_start = indptr[u];
        int64_t row_end = indptr[u + 1];
        int64_t n_touched = 0;
        for (int64_t idx = row_start; idx < row_end; idx++) {
            int32_t w = indices[idx];
            for (int64_t jdx = indptr[w]; jdx < indptr[w + 1]; jdx++) {
                int32_t v = indices[jdx];
                if (workspace[v] == 0) {
                    touched[n_touched++] = v;
                }
                workspace[v] += 1;
            }
        }
        int64_t on_edges = 0;
        for (int64_t idx = row_start; idx < row_end; idx++) {
            on_edges += workspace[indices[idx]];
        }
        per_node[u] = on_edges / 2;
        for (int64_t t = 0; t < n_touched; t++) {
            int32_t v = touched[t];
            int64_t count = workspace[v];
            workspace[v] = 0;
            if (v != (int32_t)u && count > max_common) {
                max_common = count;
            }
        }
    }
    return max_common;
}
"""


def _smoke_test(kernel: Callable) -> None:
    """Run the kernel on a hand-checked diamond graph.

    Catches a miscompiled or ABI-mismatched kernel at probe time (turning
    it into "kernel unavailable") instead of corrupting statistics later.
    """
    # The diamond: triangles {0,1,2} and {1,2,3}; nodes 0 and 3 (and the
    # adjacent pair 1, 2) share two common neighbours.
    indptr = np.array([0, 2, 5, 8, 10], dtype=np.int64)
    indices = np.array([1, 2, 0, 2, 3, 0, 1, 3, 1, 2], dtype=np.int32)
    per_node = np.zeros(4, dtype=np.int64)
    workspace = np.zeros(4, dtype=np.int64)
    touched = np.empty(4, dtype=np.int32)
    max_common = int(kernel(indptr, indices, 4, per_node, workspace, touched))
    if per_node.tolist() != [1, 2, 2, 1] or max_common != 2:
        raise RuntimeError(
            f"fused kernel self-check failed: per_node={per_node.tolist()}, "
            f"max_common={max_common}"
        )
    if workspace.any():
        raise RuntimeError("fused kernel self-check failed: workspace not zeroed")


_INT32_ARG = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")

COUNTING_KERNEL = NativeKernel(
    name="counting",
    c_source=_C_SOURCE,
    c_symbol="repro_fused_pass",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        _INT64_ARG,  # indptr
        _INT32_ARG,  # indices
        ctypes.c_int64,  # n_nodes
        _INT64_ARG,  # per_node
        _INT64_ARG,  # workspace
        _INT32_ARG,  # touched
    ],
    smoke_test=_smoke_test,
)
