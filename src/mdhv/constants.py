"""Shared numeric conventions: the tolerances.

Every structural validity check (norms, hermiticity, POVM completeness) and
every closed-form identity comparison in the package reads its tolerance from
the single record below, so the property tests have one tuning point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    structural: float = 1e-9  # validity of constructed objects
    arithmetic: float = 1e-12  # closed-form arithmetic identities
    support: float = 1e-12  # density threshold separating structural zeros from dust


TOL = Tolerances()

