"""The ``repro.stats._fused`` shim is gone — and stays gone.

PR 3 introduced the shim, PR 5 deprecated it with an explicit removal
horizon (PR 7), and PR 7 deleted it.  This guard pins the removal: the
module must not come back (a revived shim would silently re-bless the
retired import path), and the replacement surface it pointed migrators
at must keep existing.
"""

from __future__ import annotations

import importlib
import importlib.util

import pytest


class TestFusedShimRemoved:
    def test_shim_module_no_longer_exists(self):
        assert importlib.util.find_spec("repro.stats._fused") is None, (
            "repro.stats._fused was removed in PR 7; import the fused "
            "counting kernels from repro.native.counting instead"
        )

    def test_shim_import_fails(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.stats._fused")

    def test_replacement_surface_exists(self):
        """The migration target named by the old deprecation warning must
        keep exporting what the shim re-exported."""
        counting = importlib.import_module("repro.native.counting")
        registry = importlib.import_module("repro.native.registry")
        assert hasattr(counting, "COUNTING_KERNEL")
        assert registry.NATIVE_BACKENDS == ("cext",)
