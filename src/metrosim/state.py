"""Mutable world state for one simulation run.

Holds every agent population plus the bookkeeping needed for the
conservation audit: the initial money stock and the escheat pool for money
that can no longer be attributed to a municipality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fiscal import Treasury


@dataclass
class SimulationState:
    """One run's agents and audit bookkeeping; the run's random streams are
    ``engine._Runtime.rng``, and a month's taxes ``engine._Month.ledger``.

    Each municipality is one integer index, in ascending order of its id:
    ``treasuries[m]`` is municipality ``m``'s account and carries the id,
    and firms, houses, arrears and ledger entries name their municipality
    by index. A citizen lives in its family's home, so ``populations()``
    counts the living by their home's municipality.

    A firm is one row of the columns indexed by firm id, their only store:
    ``firm_municipality``, its location ``firm_x`` and ``firm_y``, ``cash``,
    ``inventory``, ``price``, ``wage_offer``, ``cumulative_profit`` (since the
    last profit-tax settlement), the trailing-month signals
    ``last_production``, ``revenue_this_month`` and ``payroll_this_month``,
    and ``vacancy_unfilled``. ``employees[i]`` lists firm ``i``'s staff in
    payroll order, which orders every payroll and output sum. Firms are
    fixed for a run and enter through ``add_firms``.

    A house is one row of the columns indexed by house id, their only
    store: ``house_municipality``, ``house_size``, ``house_quality``, its
    location ``house_x`` and ``house_y``, ``owner`` (family id, -1 for
    municipal stock) and ``resident`` (family id, -1 when vacant). Houses
    are fixed for a run and enter through ``add_houses``, vacant and
    municipal; ownership and occupancy change only through ``add_families``,
    ``move_in``, a seller giving up its house, and escheat.

    A citizen is one row of the columns indexed by citizen id, its only
    store: age, qualification, employer (-1 for none), monthly wage (0.0
    without an employer), family (-1 once dead), liveness, and whether the
    qualification is still provisional (born in the run, not yet at
    labor-entry age). Citizens have one way in, ``add_citizens``, which
    issues the next ids to a batch of rows written at once, and one way out,
    ``demographics._remove_citizen``, which clears ``alive``. Ids are never
    reused, so ``np.flatnonzero(alive)`` lists the living in ascending id
    order.

    A family is likewise one row of the columns indexed by family id, their
    only store: ``savings``, ``home`` (a house id, -1 once escheated),
    ``live`` and ``arrears`` (family x municipality index; 0.0 is no debt,
    and a debt is always > 0). Its members are the living citizens whose
    ``family`` names it, and its municipality is its home's.
    ``owned_houses[f]`` lists the houses family ``f`` owns in purchase
    order, which orders its property tax dues; a house is in that list
    exactly when its ``owner`` is ``f``. Families have one way in,
    ``add_families``, which writes a batch of rows at once and moves each
    family into its first home, and one way out,
    ``demographics._escheat_family``, run once no living citizen names it,
    which clears ``live`` and zeroes its row. A live family lives in one of
    the houses it owns, so one that owns exactly one house lives in it.

    Citizen and family columns grow by doubling, or to the batch being
    added where that is more; rows past the last citizen or family are
    padding, which is never alive or live and owns nothing. ``trim`` cuts it
    off. Unpickling re-views every array with its dtype's canonical
    instance (see ``__setstate__``).
    """

    month: int = 0
    treasuries: list[Treasury] = field(default_factory=list)  # by municipality index
    owned_houses: list[list[int]] = field(default_factory=list)  # by family id
    employees: list[list[int]] = field(default_factory=list)  # by firm id
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
    savings: np.ndarray = field(default_factory=lambda: np.zeros(0))
    home: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    live: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    arrears: np.ndarray = field(init=False)  # family x municipality index
    house_municipality: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    house_size: np.ndarray = field(default_factory=lambda: np.zeros(0))
    house_quality: np.ndarray = field(default_factory=lambda: np.zeros(0))
    house_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    house_y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    owner: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    resident: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    firm_municipality: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    firm_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    firm_y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cash: np.ndarray = field(default_factory=lambda: np.zeros(0))
    inventory: np.ndarray = field(default_factory=lambda: np.zeros(0))
    price: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wage_offer: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cumulative_profit: np.ndarray = field(default_factory=lambda: np.zeros(0))
    last_production: np.ndarray = field(default_factory=lambda: np.zeros(0))
    revenue_this_month: np.ndarray = field(default_factory=lambda: np.zeros(0))
    payroll_this_month: np.ndarray = field(default_factory=lambda: np.zeros(0))
    vacancy_unfilled: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self):
        ids = [t.municipality_id for t in self.treasuries]
        if ids != sorted(ids):
            raise ValidationError("treasuries must be in ascending municipality id order")
        self.arrears = np.zeros((len(self.live), len(self.treasuries)))

    @property
    def municipality_ids(self) -> list[str]:
        """Every municipality's id, by index (ascending)."""
        return [t.municipality_id for t in self.treasuries]

    def __setstate__(self, fields: dict) -> None:
        # numpy unpickles an array with a dtype instance that is not its
        # dtype's canonical one, and np.add.at takes a path about ten times
        # slower on it; the canonical view holds the same bytes
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                fields[name] = value.view(np.dtype(value.dtype.str))
        self.__dict__.update(fields)

    def add_citizens(self, families, ages, qualifications) -> range:
        """Issue the next citizen ids to new members of families ``families``,
        one citizen per entry, in entry order; returns their ids.

        ``ages`` (months) and ``qualifications`` hold one value per entry, or
        one value for all.
        """
        first = self._next_citizen_id
        stop = first + len(families)
        if stop > len(self.alive):
            grow = max(stop, 2 * len(self.alive)) - len(self.alive)
            self.age = np.concatenate([self.age, np.zeros(grow, dtype=np.int64)])
            self.qualification = np.concatenate(
                [self.qualification, np.zeros(grow, dtype=np.int64)]
            )
            self.employer = np.concatenate([self.employer, np.full(grow, -1, dtype=np.int64)])
            self.wage = np.concatenate([self.wage, np.zeros(grow)])
            self.family = np.concatenate([self.family, np.full(grow, -1, dtype=np.int64)])
            self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
            self.provisional = np.concatenate([self.provisional, np.zeros(grow, dtype=bool)])
        self.age[first:stop] = ages
        self.qualification[first:stop] = qualifications
        self.employer[first:stop] = -1
        self.wage[first:stop] = 0.0
        self.family[first:stop] = families
        self.alive[first:stop] = True
        self._next_citizen_id = stop
        return range(first, stop)

    def add_families(self, homes, savings) -> range:
        """Issue the next family ids to new families without members, one per
        entry: family ``i`` of the entries buys vacant house ``homes[i]`` and
        lives in it, with ``savings[i]``. Returns their ids."""
        first = len(self.owned_houses)
        homes = np.asarray(homes, dtype=np.int64)
        stop = first + len(homes)
        if stop > len(self.live):
            grow = max(stop, 2 * len(self.live)) - len(self.live)
            self.savings = np.concatenate([self.savings, np.zeros(grow)])
            self.home = np.concatenate([self.home, np.full(grow, -1, dtype=np.int64)])
            self.live = np.concatenate([self.live, np.zeros(grow, dtype=bool)])
            self.arrears = np.concatenate([self.arrears, np.zeros((grow, len(self.treasuries)))])
        ids = range(first, stop)
        self.savings[first:stop] = savings
        self.live[first:stop] = True
        self.home[first:stop] = homes
        self.owner[homes] = ids
        self.resident[homes] = ids
        self.owned_houses.extend([house] for house in homes.tolist())
        return ids

    def add_houses(self, municipality, size, quality, x, y) -> range:
        """Append vacant municipal houses, one per entry of the equal-length
        column values; returns their ids."""
        first = len(self.resident)
        self.house_municipality = np.concatenate(
            [self.house_municipality, np.asarray(municipality, dtype=np.int64)]
        )
        self.house_size = np.concatenate([self.house_size, size])
        self.house_quality = np.concatenate([self.house_quality, quality])
        self.house_x = np.concatenate([self.house_x, x])
        self.house_y = np.concatenate([self.house_y, y])
        grow = len(self.house_municipality) - first
        self.owner = np.concatenate([self.owner, np.full(grow, -1, dtype=np.int64)])
        self.resident = np.concatenate([self.resident, np.full(grow, -1, dtype=np.int64)])
        return range(first, first + grow)

    def add_firms(self, municipality, x, y, wage_offer, cash) -> range:
        """Append firms without staff or stock, priced at 1.0, one per entry of
        the equal-length column values; returns their ids."""
        first, n = len(self.employees), len(municipality)
        rows = dict(firm_municipality=np.asarray(municipality, dtype=np.int64), firm_x=x, firm_y=y,
                    cash=cash, wage_offer=wage_offer, price=np.ones(n),
                    vacancy_unfilled=np.zeros(n, dtype=bool))
        for name in ("inventory", "cumulative_profit", "last_production", "revenue_this_month",
                     "payroll_this_month"):
            rows[name] = np.zeros(n)
        for name, values in rows.items():
            setattr(self, name, np.concatenate([getattr(self, name), values]))
        self.employees.extend([] for _ in range(n))
        return range(first, first + n)

    def move_in(self, family: int, house_id: int) -> None:
        """Family ``family`` buys vacant house ``house_id`` and makes it its home;
        the caller settles any seller's side. The family keeps its old home,
        which empties."""
        old = self.home.item(family)
        if old >= 0:
            self.resident[old] = -1
        self.owner[house_id] = family
        self.resident[house_id] = family
        self.owned_houses[family].append(house_id)
        self.home[family] = house_id

    def trim(self) -> None:
        """Cut the citizen and family columns to their used rows."""
        n = self._next_citizen_id
        for name in ("age", "qualification", "employer", "wage", "family", "alive",
                     "provisional"):
            setattr(self, name, getattr(self, name)[:n].copy())
        n = len(self.owned_houses)
        for name in ("savings", "home", "live", "arrears"):
            setattr(self, name, getattr(self, name)[:n].copy())

    def populations(self) -> list[int]:
        """Living citizens by municipality index of their family's home."""
        homes = self.home[self.family[self.alive]]
        return np.bincount(
            self.house_municipality[homes], minlength=len(self.treasuries)
        ).tolist()

    def money_in_circulation(self) -> float:
        """Everything the audit can see; equals ``money_base`` when nothing leaks.

        Investment is public procurement paid back to local firms, so invested
        money never leaves circulation; only the escheat pool holds money idle.
        """
        total = self.escheat_pool
        for saved in self.savings[self.live].tolist():
            total += saved
        for cash in self.cash.tolist():
            total += cash
        for treasury in self.treasuries:
            total += treasury.balance
        return total

    def residences(self) -> _Residences:
        """Citizen id -> home coordinates, for proximity-based hiring.

        Each lookup resolves citizen -> family -> home; a dead citizen, who
        has no family, raises ``KeyError``.
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
        family = state.family.item(citizen_id)
        if family < 0:
            raise KeyError(citizen_id)
        house_id = state.home.item(family)
        return state.house_x.item(house_id), state.house_y.item(house_id)
