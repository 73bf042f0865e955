"""The tests' oracle: the tree DPs as first written, one vertex at a time.

``src/repro/allocation`` runs each recursion once, level by level, on the
shared kernels.  What those level walks are proven against lives here: the
straight-line recursions they replaced, moved out of the production modules
with their bodies untouched.  They build a table and a choice table per
vertex, visit one child at a time and read link states one by one — slow,
and with no line of DP logic in common with what they judge (nothing here
imports ``repro.allocation.kernels``, and
``tests/allocation/test_reference_oracle.py`` keeps it so).

* :class:`SeedTreeSearch` — Algorithm 1 (``optimize=True``), the adapted
  TIVC / Oktopus search (``optimize=False``) and the global min-max
  ablation (``localize=False``);
* :class:`SeedSubstringHeuristic` — the heterogeneous substring heuristic.

Both make no observability calls: a metric carrying the production
allocator's name counts the production allocator only.  Importers:
the equivalence tests under ``tests/allocation`` and
``scripts/check_incremental_dp.py`` (which puts the repo root on
``sys.path``).

:mod:`tests.reference.aggregate` is the textbook statement of Eqs. 4-6 that
``LinkState.occupancy_with`` (the one statement in ``src/``) is checked
against (``tests/stochastic/test_properties.py``).
"""

from tests.reference.seed_het_heuristic import SeedSubstringHeuristic
from tests.reference.seed_homogeneous import SeedTreeSearch

__all__ = ["SeedSubstringHeuristic", "SeedTreeSearch"]
