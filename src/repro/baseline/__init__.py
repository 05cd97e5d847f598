"""Comparator implementation.

:mod:`repro.baseline.pydict` — a per-state, dict-backed pure-Python
implementation of the same Bayesian lattice algorithms.  It stands in
for the prior framework SBGT was evaluated against (unavailable closed
research code): algorithmically identical, one-state-at-a-time, no
vectorisation — the cost profile SBGT's speedups are measured from.
The single-threaded NumPy path is
:class:`~repro.sbgt.distributed_lattice.DistributedLattice` on its
driver plane (no context, one block).
"""

from repro.baseline.pydict import PyDictLattice, PyDictPosterior

__all__ = ["PyDictLattice", "PyDictPosterior"]
