"""Run the library's docstring examples as tests.

Public-API docstrings carry runnable examples; executing them keeps the
documentation honest.  Slow examples (KronFit's class docstring) are
excluded by module selection, not by skipping, so everything listed here
runs on every test invocation.
"""

from __future__ import annotations

import doctest

import pytest

import repro.graphs.graph
import repro.graphs.io
import repro.kronecker.initiator
import repro.privacy.accountant
import repro.runtime.cache
import repro.runtime.hashing
import repro.utils.rng
import repro.utils.tables

MODULES = [
    repro.graphs.graph,
    repro.graphs.io,
    repro.kronecker.initiator,
    repro.privacy.accountant,
    repro.runtime.cache,
    repro.runtime.hashing,
    repro.utils.rng,
    repro.utils.tables,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
