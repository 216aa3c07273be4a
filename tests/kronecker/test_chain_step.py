"""KronFit's gradient step inside the chain kernel's run call.

In step mode the multichain kernel scores each chain's P sample
histograms, averages their values and gradients in sample order and
takes the sup-norm Θ step with its clip, all in C.  Its bits must be
those of the numpy oracle, :func:`profile_log_likelihoods` plus
:func:`ascent_step`.  This module pins that:

* the C pairwise sum equals ``np.sum`` bit for bit, over lengths 0–4,096
  (the ``(k+1)²`` cells of every k ≤ 63) and values with ±0.0 and ±inf;
* the C step equals the oracle row for row, for k ≤ 20, S ≤ 4, P ≤ 4,
  Θ at the clamp's edges, a zero gradient (no move) and a NaN gradient;
* a whole fit at k = 13 (past the sum's split above 128 cells) is
  identical on the numpy and cext engines;
* the kernel's C source calls no ``log``, ``exp`` or ``log1p``: those
  bits stay numpy's.
"""

from __future__ import annotations

import ctypes
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.datasets import dataset_info, load_dataset
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import (
    _LogTables,
    ascent_step,
    clamped_rows,
    profile_log_likelihoods,
)
from repro.native import chain as native_chain
from repro.native.chain import MULTICHAIN_KERNEL
from repro.native.registry import buffer_addresses, compile_shared_library

CEXT_KERNEL = pytest.mark.skipif(
    not MULTICHAIN_KERNEL.available("cext"),
    reason=f"cext backend unavailable: {MULTICHAIN_KERNEL.error('cext')}",
)


def _without_comments(source: str) -> str:
    return re.sub(r"/\*.*?\*/", "", source, flags=re.S)


def test_kernel_source_calls_no_log_or_exp():
    """The transcendentals' bits stay numpy's: the kernel makes only IEEE
    basic operations, numpy's pairwise sum and libm ``pow``."""
    code = _without_comments(native_chain._MULTICHAIN_C_SOURCE)
    assert "pairwise(" in code and "libm_pow(" in code
    assert not re.findall(r"\b(?:log|log1p|log2|log10|exp|expm1|exp2)\s*\(", code)


@functools.lru_cache(maxsize=None)
def _pairwise_sum():
    """The kernel's ``pairwise`` function, compiled alone with the same
    flags and called as ``0.0 + pairwise(a, n)``: how a row's ``np.sum``
    rounds."""
    source = native_chain._MULTICHAIN_C_SOURCE
    start = source.index("static double pairwise(")
    end = source.index("\n}\n", start) + 3
    library = compile_shared_library(
        "#include <stdint.h>\n" + source[start:end]
        + "double row_sum(const double *a, int64_t n) { return 0.0 + pairwise(a, n); }\n",
        "pairwise-test",
        extra_flags=MULTICHAIN_KERNEL.cext_extra_flags or (),
    )
    function = ctypes.CDLL(str(library)).row_sum
    function.restype = ctypes.c_double
    function.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    return function


@CEXT_KERNEL
class TestPairwiseSum:
    @given(
        n=st.integers(0, 4096) | st.sampled_from([7, 8, 128, 129, 4096]),
        seed=st.integers(0, 2**32 - 1),
        special=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        spread=st.integers(0, 300),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_sum(self, n, seed, special, spread):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
        mask = rng.random(n) < special
        values[mask] = rng.choice([0.0, -0.0, math.inf, -math.inf], size=mask.sum())
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.sum(values)
        got = np.float64(_pairwise_sum()(values.ctypes.data, n))
        assert got.tobytes() == want.tobytes(), (n, got, want)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 4096])
    def test_negative_zeros_sum_to_positive_zero(self, n):
        values = np.full(n, -0.0)
        got = np.float64(_pairwise_sum()(values.ctypes.data, n))
        assert got.tobytes() == np.sum(values).tobytes() == np.float64(0.0).tobytes()


def _kernel_step(thetas, k, snapshots, step_scale, p=None):
    """One step-mode call with no proposals, so it scores ``snapshots``
    (``(P, S, (k+1)²)`` int64) as given: the ``(S,)`` values and ``(S, 3)``
    rows.  ``p`` replaces the tables' P."""
    n_samples, n_chains, n_cells = snapshots.shape
    tables = _LogTables.stack(thetas, k)
    score = np.ascontiguousarray((tables.log_p - tables.log_1mp).reshape(n_chains, -1))
    p = np.ascontiguousarray(tables.p.reshape(n_chains, -1) if p is None else p)
    rows = np.array([(t.a, t.b, t.c) for t in thetas])
    stepped = np.full((n_chains, 4), np.nan)
    sigma = np.zeros((n_chains, 1), dtype=np.int64)
    counters = [np.zeros(n_chains, dtype=np.int64) for _ in range(2)]
    hist = np.zeros((n_chains, n_cells), dtype=np.int64)
    no_proposals = np.zeros(n_samples, dtype=np.int64)
    MULTICHAIN_KERNEL.kernel("cext")(
        native_chain._STEP, None, None, n_chains, 1, *buffer_addresses(np.int64, sigma), k,
        *buffer_addresses(np.float64, score),
        *buffer_addresses(np.int64, hist, counters[0]), None, None, None, 0,
        *buffer_addresses(np.int64, no_proposals), n_samples, n_samples,
        *buffer_addresses(np.int64, snapshots), None, *buffer_addresses(np.int64, counters[1]),
        *buffer_addresses(np.float64, p, rows, stepped), step_scale, 0, n_chains,
    )
    return stepped[:, 0], stepped[:, 1:]


def _oracle_step(thetas, k, snapshots, step_scale, p=None):
    tables = _LogTables.stack(thetas, k)
    if p is not None:
        tables = tables._replace(p=p.reshape(tables.p.shape))
    with np.errstate(invalid="ignore"):
        return ascent_step(
            *profile_log_likelihoods(
                tables, clamped_rows(thetas), snapshots.astype(np.float64)
            ),
            np.array([(t.a, t.b, t.c) for t in thetas]),
            step_scale,
        )


# The clamp's edges (1e-6 and 1 − 1e-6, and what lies past them) and the
# step's clip bounds, then anything in [0, 1].
_ENTRY = st.sampled_from([0.0, 1e-6, 1e-6 * 0.5, 0.001, 0.999, 1.0 - 1e-6, 1.0]) | st.floats(0, 1)


def _assert_same(got, want):
    for got_array, want_array in zip(got, want):
        assert got_array.tobytes() == want_array.tobytes(), (got_array, want_array)


@CEXT_KERNEL
class TestStepMatchesOracle:
    @given(
        k=st.integers(0, 20),
        thetas=st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY), min_size=1, max_size=4),
        n_samples=st.integers(1, 4),
        step_scale=st.sampled_from([0.08, 0.08 / 3.9]) | st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_oracle(self, k, thetas, n_samples, step_scale, seed):
        thetas = [Initiator(*theta) for theta in thetas]
        rng = np.random.default_rng(seed)
        snapshots = rng.integers(0, 2_000, size=(n_samples, len(thetas), (k + 1) ** 2))
        _assert_same(
            _kernel_step(thetas, k, snapshots, step_scale),
            _oracle_step(thetas, k, snapshots, step_scale),
        )

    def test_zero_gradient_does_not_move(self):
        """At k = 0 every count and every empty-graph gradient term is 0."""
        thetas = [Initiator(0.5, 0.25, 0.125), Initiator(0.999, 0.001, 1.0)]
        snapshots = np.array([[[3], [0]], [[1], [7]]])
        values, rows = _kernel_step(thetas, 0, snapshots, 0.08)
        _assert_same((values, rows), _oracle_step(thetas, 0, snapshots, 0.08))
        np.testing.assert_array_equal(rows, [[0.5, 0.25, 0.125], [0.999, 0.001, 1.0]])

    def test_nan_gradient_does_not_move(self):
        """A NaN in a chain's P table makes its whole gradient NaN: numpy's
        sup-norm is NaN, so the chain keeps its Θ; the other chain steps."""
        k = 6
        thetas = [Initiator(0.9, 0.5, 0.2), Initiator(0.7, 0.4, 0.3)]
        snapshots = np.random.default_rng(3).integers(0, 50, size=(2, 2, (k + 1) ** 2))
        p = _LogTables.stack(thetas, k).p.reshape(2, -1).copy()
        p[0, 5] = np.nan
        got = _kernel_step(thetas, k, snapshots, 0.08, p=p)
        _assert_same(got, _oracle_step(thetas, k, snapshots, 0.08, p=p))
        np.testing.assert_array_equal(got[1][0], [0.9, 0.5, 0.2])
        assert not np.array_equal(got[1][1], [0.7, 0.4, 0.3])


@CEXT_KERNEL
def test_whole_fit_at_k13_equals_numpy():
    """ca-grqc pads to k = 13: 196 cells, past the pairwise sum's split."""
    graph = load_dataset("ca-grqc", seed=dataset_info("ca-grqc").default_seed)
    config = dict(
        n_iterations=3, warmup_swaps=200, n_permutation_samples=3, sample_spacing=40,
        seed=5, kernel_threads=1,
    )
    want = KronFitEstimator(**config, backend="numpy").fit(graph)
    got = KronFitEstimator(**config, backend="cext").fit(graph)
    assert got.k == 13
    assert got == want
    assert np.array(got.log_likelihoods).tobytes() == np.array(want.log_likelihoods).tobytes()
