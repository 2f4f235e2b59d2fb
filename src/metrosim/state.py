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
from .fiscal import TaxLedger, Treasury, sequential_sum
from .housing import House
from .rng import RngStreams


@dataclass
class SimulationState:
    """One run's agents and audit bookkeeping.

    Firms and houses are fixed for a run, so they are lists indexed by id:
    ``firms[i].id == i`` and ``houses[i].id == i``. Citizens and families
    are born and die, so they are dicts keyed by id.

    A citizen's age, employer (-1 for none) and liveness are columns
    indexed by citizen id, their only store. A citizen has one way in,
    ``add_citizen``, which issues the next id, and one way out,
    ``demographics._remove_citizen``, which clears ``alive``. So
    ``np.flatnonzero(alive)`` lists the same ids, in the same ascending
    order, as ``citizens``: a gather over the columns draws the RNG in the
    order a walk over the dict would.
    """

    month: int = 0
    citizens: dict[int, Citizen] = field(default_factory=dict)
    families: dict[int, Family] = field(default_factory=dict)
    firms: list[Firm] = field(default_factory=list)
    houses: list[House] = field(default_factory=list)
    treasuries: dict[str, Treasury] = field(default_factory=dict)
    ledger: TaxLedger = field(default_factory=TaxLedger)
    rng: RngStreams | None = None
    labor_entry_age_months: int = 192
    qualification_levels: int = 21
    simulation_born: set[int] = field(default_factory=set)
    money_base: float = 0.0
    escheat_pool: float = 0.0
    _next_citizen_id: int = 0
    age: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # months
    employer: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    alive: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def add_citizen(self, family: Family, age_months: int, qualification: int) -> int:
        """Issue the next citizen id to a new member of ``family``; returns the id."""
        cid = self._next_citizen_id
        self._next_citizen_id += 1
        if cid >= len(self.alive):
            grow = max(cid + 1, 2 * len(self.alive)) - len(self.alive)
            self.age = np.concatenate([self.age, np.zeros(grow, dtype=np.int64)])
            self.employer = np.concatenate([self.employer, np.full(grow, -1, dtype=np.int64)])
            self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
        self.age[cid] = age_months
        self.employer[cid] = -1
        self.alive[cid] = True
        self.citizens[cid] = Citizen(id=cid, qualification=qualification, family_id=family.id)
        family.members.append(cid)
        return cid

    def populations(self) -> dict[str, int]:
        """Citizen head-count per municipality (residence follows the family)."""
        pops = {muni: 0 for muni in self.treasuries}
        for family in self.families.values():
            pops[family.municipality_id] += len(family.members)
        return pops

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
        for treasury in self.treasuries.values():
            total += treasury.balance
        return total

    def total_invested(self) -> float:
        return sequential_sum(t.cumulative_invested for t in self.treasuries.values())

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
