"""Mutable world state for one simulation run.

Holds every agent population plus the bookkeeping needed for the
conservation audit: the initial money stock, cumulative investment, and the
escheat pool for money that can no longer be attributed to a municipality.
"""
from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .demographics import Citizen
from .economy import Family, Firm
from .errors import ValidationError
from .fiscal import TaxLedger, Treasury, sequential_sum
from .housing import House
from .rng import RngStreams


@dataclass
class SimulationState:
    """One run's agents and audit bookkeeping.

    Each municipality is one integer index, in ascending order of its id:
    ``treasuries[m]`` is municipality ``m``'s account and carries the id,
    and firms, houses, families, tax debts and ledger entries name their
    municipality by index. ``headcount[m]`` is the number of citizens whose
    family lives in ``m``; ``add_citizen``, ``demographics._remove_citizen``
    and a family's move in ``housing.run_housing_market`` keep it equal to
    a walk over the families.

    Firms and houses are fixed for a run, so they are lists indexed by id:
    ``firms[i].id == i`` and ``houses[i].id == i``. Citizens and families
    are born and die, so they are dicts keyed by id.

    A citizen's age, qualification, employer (-1 for none), monthly wage
    (0.0 without an employer) and liveness are columns indexed by citizen
    id, their only store. A citizen has one way in, ``add_citizen``, which
    issues the next id, and one way out, ``demographics._remove_citizen``,
    which clears ``alive``. So ``np.flatnonzero(alive)`` lists the same ids,
    in the same ascending order, as ``citizens``: a gather over the columns
    draws the RNG in the order a walk over the dict would.
    """

    month: int = 0
    citizens: dict[int, Citizen] = field(default_factory=dict)
    families: dict[int, Family] = field(default_factory=dict)
    firms: list[Firm] = field(default_factory=list)
    houses: list[House] = field(default_factory=list)
    treasuries: list[Treasury] = field(default_factory=list)  # by municipality index
    headcount: list[int] = field(init=False)  # by municipality index
    ledger: TaxLedger = field(default_factory=TaxLedger)
    rng: RngStreams | None = None
    labor_entry_age_months: int = 192
    qualification_levels: int = 21
    simulation_born: set[int] = field(default_factory=set)
    money_base: float = 0.0
    escheat_pool: float = 0.0
    _next_citizen_id: int = 0
    age: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # months
    qualification: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    employer: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    wage: np.ndarray = field(default_factory=lambda: np.zeros(0))  # monthly
    alive: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

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
            self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
        self.age[cid] = age_months
        self.qualification[cid] = qualification
        self.employer[cid] = -1
        self.wage[cid] = 0.0
        self.alive[cid] = True
        self.citizens[cid] = Citizen(id=cid, family_id=family.id)
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
        total = self.escheat_pool + self.ledger.total()
        for family in self.families.values():
            total += family.savings
        for firm in self.firms:
            total += firm.cash
        for treasury in self.treasuries:
            total += treasury.balance
        return total

    def total_invested(self) -> float:
        return sequential_sum(t.cumulative_invested for t in self.treasuries)

    def residences(self) -> Mapping[int, tuple[float, float]]:
        """Citizen id -> home coordinates, for proximity-based hiring.

        Each lookup resolves citizen -> family -> house; a citizen whose
        family has no house is not a key.
        """
        return _Residences(self)

    def unemployed_adults(self) -> list[int]:
        """Citizens old enough to work but without an employer, ordered by id."""
        adult = self.age >= self.labor_entry_age_months
        return np.flatnonzero(self.alive & adult & (self.employer < 0)).tolist()


class _Residences(Mapping):
    """Read-only view of every housed citizen's home location."""

    def __init__(self, state: SimulationState):
        self._state = state

    def __getitem__(self, citizen_id: int) -> tuple[float, float]:
        state = self._state
        house_id = state.families[state.citizens[citizen_id].family_id].house_id
        if house_id is None:
            raise KeyError(citizen_id)
        return state.houses[house_id].location

    def __iter__(self) -> Iterator[int]:
        state = self._state
        for cid, citizen in state.citizens.items():
            if state.families[citizen.family_id].house_id is not None:
                yield cid

    def __len__(self) -> int:
        return sum(1 for _ in self)
