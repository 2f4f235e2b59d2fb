"""Mutable world state for one simulation run.

Holds every agent population plus the bookkeeping needed for the
conservation audit: the initial money stock and the escheat pool for money
that can no longer be attributed to a municipality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .economy import Family, Firm
from .errors import ValidationError
from .fiscal import Treasury
from .housing import House


@dataclass
class SimulationState:
    """One run's agents and audit bookkeeping; the run's random streams are
    ``engine._Runtime.rng``, and a month's taxes ``engine._Month.ledger``.

    Each municipality is one integer index, in ascending order of its id:
    ``treasuries[m]`` is municipality ``m``'s account and carries the id,
    and firms, houses, families, tax debts and ledger entries name their
    municipality by index. ``headcount[m]`` is the number of citizens whose
    family lives in ``m``; ``add_citizen``, ``demographics._remove_citizen``
    and a family's move in ``housing.run_housing_market`` keep it equal to
    a walk over the families.

    Firms and houses are fixed for a run, so they are lists indexed by id:
    ``firms[i].id == i`` and ``houses[i].id == i``. Only worldgen creates
    families, and one leaves when it escheats, so they are a dict keyed by id.

    A citizen is one row of the columns indexed by citizen id, its only
    store: age, qualification, employer (-1 for none), monthly wage (0.0
    without an employer), family (-1 once dead), liveness, and whether the
    qualification is still provisional (born in the run, not yet at
    labor-entry age). A citizen has one way in, ``add_citizen``, which
    issues the next id, and one way out, ``demographics._remove_citizen``,
    which clears ``alive``. Ids are never reused, so
    ``np.flatnonzero(alive)`` lists the living in ascending id order.
    """

    month: int = 0
    families: dict[int, Family] = field(default_factory=dict)
    firms: list[Firm] = field(default_factory=list)
    houses: list[House] = field(default_factory=list)
    treasuries: list[Treasury] = field(default_factory=list)  # by municipality index
    headcount: list[int] = field(init=False)  # by municipality index
    labor_entry_age_months: int = 192
    qualification_levels: int = 21
    money_base: float = 0.0
    escheat_pool: float = 0.0
    _next_citizen_id: int = 0
    age: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # months
    qualification: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    employer: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    wage: np.ndarray = field(default_factory=lambda: np.zeros(0))  # monthly
    family: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    alive: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    provisional: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self):
        ids = [t.municipality_id for t in self.treasuries]
        if ids != sorted(ids):
            raise ValidationError("treasuries must be in ascending municipality id order")
        self.headcount = [0] * len(self.treasuries)

    @property
    def municipality_ids(self) -> list[str]:
        """Every municipality's id, by index (ascending)."""
        return [t.municipality_id for t in self.treasuries]

    def add_citizen(self, family: Family, age_months: int, qualification: int) -> int:
        """Issue the next citizen id to a new member of ``family``; returns the id."""
        cid = self._next_citizen_id
        self._next_citizen_id += 1
        if cid >= len(self.alive):
            grow = max(cid + 1, 2 * len(self.alive)) - len(self.alive)
            self.age = np.concatenate([self.age, np.zeros(grow, dtype=np.int64)])
            self.qualification = np.concatenate(
                [self.qualification, np.zeros(grow, dtype=np.int64)]
            )
            self.employer = np.concatenate([self.employer, np.full(grow, -1, dtype=np.int64)])
            self.wage = np.concatenate([self.wage, np.zeros(grow)])
            self.family = np.concatenate([self.family, np.full(grow, -1, dtype=np.int64)])
            self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
            self.provisional = np.concatenate([self.provisional, np.zeros(grow, dtype=bool)])
        self.age[cid] = age_months
        self.qualification[cid] = qualification
        self.employer[cid] = -1
        self.wage[cid] = 0.0
        self.family[cid] = family.id
        self.alive[cid] = True
        family.members.append(cid)
        self.headcount[family.municipality] += 1
        return cid

    def populations(self) -> list[int]:
        """Citizen head-count by municipality index (residence follows the family)."""
        return list(self.headcount)

    def money_in_circulation(self) -> float:
        """Everything the audit can see; equals ``money_base`` when nothing leaks.

        Investment is public procurement paid back to local firms, so invested
        money never leaves circulation; only the escheat pool holds money idle.
        """
        total = self.escheat_pool
        for family in self.families.values():
            total += family.savings
        for firm in self.firms:
            total += firm.cash
        for treasury in self.treasuries:
            total += treasury.balance
        return total

    def residences(self) -> _Residences:
        """Citizen id -> home coordinates, for proximity-based hiring.

        Each lookup resolves citizen -> family -> house; a citizen whose
        family has no house raises ``KeyError``.
        """
        return _Residences(self)

    def unemployed_adults(self) -> list[int]:
        """Citizens old enough to work but without an employer, ordered by id."""
        adult = self.age >= self.labor_entry_age_months
        return np.flatnonzero(self.alive & adult & (self.employer < 0)).tolist()


class _Residences:
    """Keyed lookup of a housed citizen's home location."""

    def __init__(self, state: SimulationState):
        self._state = state

    def __getitem__(self, citizen_id: int) -> tuple[float, float]:
        state = self._state
        house_id = state.families[state.family.item(citizen_id)].house_id
        if house_id is None:
            raise KeyError(citizen_id)
        return state.houses[house_id].location
