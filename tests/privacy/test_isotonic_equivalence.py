"""Equivalence of the isotonic (PAVA) kernel and its oracle.

:func:`repro.privacy.isotonic.isotonic_regression` runs its stack pass on
the compiled kernel of :mod:`repro.native.isotonic`; its numpy oracle is
:func:`repro.reference.isotonic.reference_isotonic_regression`.  Both
merge in the same order with the same expression, so the result must be
bit-identical — on noisy sorted degree sequences (the degree release's
input), weighted and unweighted, with ties, all-equal and descending
runs, and at n ∈ {0, 1}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelUnavailableError, ValidationError
from repro.native import isotonic as native_isotonic
from repro.native.isotonic import ISOTONIC_KERNEL
from repro.privacy import degree_release
from repro.privacy.isotonic import isotonic_regression
from repro.reference.isotonic import reference_isotonic_regression

NATIVE = ("cext",)  # the kernel; the oracle is reference_isotonic_regression


def _noisy_degrees(n: int, seed: int) -> np.ndarray:
    """A sorted heavy-tailed degree sequence plus Lap(2/0.1) noise."""
    rng = np.random.default_rng(seed)
    degrees = np.sort(np.floor(rng.pareto(1.5, n) * 3.0))
    return degrees + rng.laplace(0.0, 20.0, n)


def _both(values, weights=None):
    return reference_isotonic_regression(values, weights), isotonic_regression(values, weights)


def _assert_bit_identical(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


CASES = {
    "empty": np.zeros(0),
    "one": np.array([3.5]),
    "two-violating": np.array([2.0, 1.0]),
    "all-equal": np.full(50, 7.25),
    "descending": np.arange(200, 0, -1, dtype=np.float64) / 3.0,
    "ascending": np.arange(200, dtype=np.float64) / 7.0,
    "ties": np.repeat(np.array([5.0, 1.0, 1.0, 4.0, 4.0, 0.5, 9.0]), 13),
    "alternating": np.tile(np.array([1.0, -1.0]), 101),
    "degrees-n100": _noisy_degrees(100, 0),
    "degrees-n6474": _noisy_degrees(6474, 1),
}


class TestIsotonicMatrix:
    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_unweighted_bit_identical(self, case, backend):
        expected, got = _both(CASES[case])
        _assert_bit_identical(got, expected)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_weighted_bit_identical(self, case, backend):
        values = CASES[case]
        weights = np.random.default_rng(values.size).uniform(0.1, 5.0, values.size)
        expected, got = _both(values, weights)
        _assert_bit_identical(got, expected)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_noisy_sequences(self, seed, backend):
        rng = np.random.default_rng(seed)
        values = _noisy_degrees(int(rng.integers(1, 3000)), seed + 100)
        expected, got = _both(values)
        _assert_bit_identical(got, expected)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_large_k18_sized_sequence(self, backend):
        """The k=18 release's length; the oracle takes ~0.5 s here."""
        expected, got = _both(_noisy_degrees(2**18, 7))
        _assert_bit_identical(got, expected)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_non_contiguous_input(self, backend):
        values = _noisy_degrees(400, 3)[::2]
        assert not values.flags.c_contiguous
        expected, got = _both(values)
        _assert_bit_identical(got, expected)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_validation_is_engine_independent(self, backend):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros(3), np.array([1.0, 0.0, 1.0]))


class TestDegreeReleaseEngines:
    @pytest.mark.parametrize("backend", NATIVE)
    def test_release_is_engine_independent(self, monkeypatch, er_graph, backend):
        with monkeypatch.context() as patch:
            patch.setattr(degree_release, "isotonic_regression", reference_isotonic_regression)
            expected = degree_release.release_sorted_degrees(er_graph, 0.1, seed=4)
        got = degree_release.release_sorted_degrees(er_graph, 0.1, seed=4)
        _assert_bit_identical(got.degrees, expected.degrees)


class TestProbe:
    def test_naming_an_unavailable_cext_fails_loudly(self, monkeypatch, er_graph):
        """Without the kernel, both the PAVA pass and the degree release
        built on it raise the structured error."""
        monkeypatch.setattr(ISOTONIC_KERNEL, "state", (None, "no compiler"))
        with pytest.raises(KernelUnavailableError, match="no compiler"):
            isotonic_regression(np.array([2.0, 1.0]))
        with pytest.raises(KernelUnavailableError, match="no compiler"):
            degree_release.release_sorted_degrees(er_graph, 0.1, seed=4)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_smoke_test_passes_on_the_compiled_kernel(self, backend):
        native_isotonic._smoke_test(ISOTONIC_KERNEL.kernel())

    @pytest.mark.parametrize("backend", NATIVE)
    def test_smoke_test_catches_a_wrong_merge(self, backend):
        kernel = ISOTONIC_KERNEL.kernel()

        def unweighted(n, values, weights, *stack):
            return kernel(n, values, np.ones_like(weights), *stack)

        with pytest.raises(RuntimeError, match="isotonic kernel self-check"):
            native_isotonic._smoke_test(unweighted)
