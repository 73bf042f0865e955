"""One DP per allocator in ``src/``; the oracle stands apart from it.

The production allocators have no second implementation to switch to, and
the seed recursions of ``tests/reference`` reach no production DP code — an
oracle that called the kernels it judges would agree with them by
construction.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tests.reference
from repro.allocation import (
    AdaptedTIVCAllocator,
    GlobalMinMaxAllocator,
    OktopusAllocator,
    SVCHeterogeneousAllocator,
    SVCHomogeneousAllocator,
)
from repro.allocation.svc_homogeneous import _HomogeneousTreeSearch

#: Where a production DP lives (the package re-exports the allocator classes,
#: and ``from repro.allocation import kernels`` is the same door): nothing
#: here may feed the oracle.
PRODUCTION_DP = {
    "repro.allocation",
    "repro.allocation.kernels",
    "repro.allocation.svc_homogeneous",
    "repro.allocation.svc_het_heuristic",
}


@pytest.mark.parametrize(
    "make",
    [
        SVCHomogeneousAllocator,
        AdaptedTIVCAllocator,
        OktopusAllocator,
        GlobalMinMaxAllocator,
        SVCHeterogeneousAllocator,
        lambda **options: _HomogeneousTreeSearch(optimize=True, **options),
    ],
    ids=["svc-dp", "tivc", "oktopus", "svc-global", "svc-het", "tree-search"],
)
def test_no_production_allocator_takes_a_fast_option(make):
    allocator = make()
    assert not hasattr(allocator, "_fast") and not allocator.name.endswith("-seed")
    for value in (True, False):
        with pytest.raises(TypeError, match="fast"):
            make(fast=value)


def test_the_oracle_imports_no_production_dp():
    sources = sorted(Path(tests.reference.__file__).parent.glob("*.py"))
    assert len(sources) >= 3  # the package and both recursions
    for source in sources:
        imported = set()
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{source.name}: relative import"
                imported.add(node.module)
        assert not imported & PRODUCTION_DP, f"{source.name}: {sorted(imported & PRODUCTION_DP)}"
