"""Mutable world state for one simulation run.

Holds every agent population plus the bookkeeping needed for the
conservation audit: the initial money stock, cumulative investment, and the
escheat pool for money that can no longer be attributed to a municipality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    def next_citizen_id(self) -> int:
        cid = self._next_citizen_id
        self._next_citizen_id += 1
        return cid

    def seal_ids(self) -> None:
        """Start the id sequence above anything world generation handed out."""
        if self.citizens:
            self._next_citizen_id = max(self.citizens) + 1

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

    def residences(self) -> dict[int, tuple[float, float]]:
        """Citizen id -> home coordinates, for proximity-based hiring."""
        out: dict[int, tuple[float, float]] = {}
        for family in self.families.values():
            if family.house_id is None:
                continue
            house = self.houses[family.house_id]
            for cid in family.members:
                out[cid] = house.location
        return out

    def unemployed_adults(self) -> list[int]:
        """Citizens old enough to work but without an employer, ordered by id."""
        cutoff = self.labor_entry_age_months
        return sorted(
            cid
            for cid, citizen in self.citizens.items()
            if citizen.age_months >= cutoff and citizen.employer_id is None
        )
