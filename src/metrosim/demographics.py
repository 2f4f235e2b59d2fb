"""Monthly population dynamics: aging, deaths, births.

Vital rates are bracket tables of monthly probabilities by age in years.
Deaths cascade: the citizen leaves employer and family; a family that
empties escheats its savings and houses to the municipality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, ValidationError

if TYPE_CHECKING:
    from .state import SimulationState

MONTHS_PER_YEAR = 12
MAX_AGE_YEARS = 101
MAX_AGE_MONTHS = MAX_AGE_YEARS * MONTHS_PER_YEAR


@dataclass(frozen=True)
class VitalBracket:
    """Half-open age bracket [start, end) in years with monthly probabilities."""

    start_age: int
    end_age: int
    monthly_mortality: float
    monthly_fertility: float


# Compact 5-year default table. Mortality is flat and tiny through the prime
# ages, rises steeply late, and is 1.0 in the terminal bracket so nobody
# outlives it. Fertility is concentrated in ages 15-49 and applied to every
# citizen in the bracket (the model does not track sex), so the rates are
# roughly half of per-woman rates.
DEFAULT_VITAL_BRACKETS: tuple[VitalBracket, ...] = (
    VitalBracket(0, 5, 5e-5, 0.0),
    VitalBracket(5, 10, 3e-5, 0.0),
    VitalBracket(10, 15, 3e-5, 0.0),
    VitalBracket(15, 20, 3e-5, 0.0015),
    VitalBracket(20, 25, 3e-5, 0.0045),
    VitalBracket(25, 30, 3e-5, 0.0045),
    VitalBracket(30, 35, 3e-5, 0.0035),
    VitalBracket(35, 40, 3e-5, 0.0020),
    VitalBracket(40, 45, 8e-5, 0.0008),
    VitalBracket(45, 50, 1.2e-4, 0.0002),
    VitalBracket(50, 55, 2e-4, 0.0),
    VitalBracket(55, 60, 3e-4, 0.0),
    VitalBracket(60, 65, 5e-4, 0.0),
    VitalBracket(65, 70, 8e-4, 0.0),
    VitalBracket(70, 75, 1.5e-3, 0.0),
    VitalBracket(75, 80, 2.5e-3, 0.0),
    VitalBracket(80, 85, 5e-3, 0.0),
    VitalBracket(85, 90, 1e-2, 0.0),
    VitalBracket(90, 95, 2.5e-2, 0.0),
    VitalBracket(95, 100, 6e-2, 0.0),
    VitalBracket(100, MAX_AGE_YEARS, 1.0, 0.0),
)


class VitalRates:
    """Validated bracket table, expanded to per-month-of-age lookup arrays."""

    def __init__(self, brackets: Sequence[VitalBracket] = DEFAULT_VITAL_BRACKETS):
        self.brackets = tuple(sorted(brackets, key=lambda b: b.start_age))
        self._validate()
        n = MAX_AGE_MONTHS
        self.mortality_by_month = np.zeros(n)
        self.fertility_by_month = np.zeros(n)
        for b in self.brackets:
            lo = b.start_age * MONTHS_PER_YEAR
            hi = min(b.end_age * MONTHS_PER_YEAR, n)
            self.mortality_by_month[lo:hi] = b.monthly_mortality
            self.fertility_by_month[lo:hi] = b.monthly_fertility

    def _validate(self) -> None:
        if not self.brackets:
            raise ValidationError("vital rate table is empty")
        if self.brackets[0].start_age != 0:
            raise ConfigError("vital rate brackets must start at age 0")
        prev_end = 0
        for b in self.brackets:
            if b.start_age != prev_end:
                raise ConfigError(
                    f"vital rate gap: bracket starts at {b.start_age}, expected {prev_end}"
                )
            if b.end_age <= b.start_age:
                raise ValidationError(f"empty bracket [{b.start_age}, {b.end_age})")
            for name, p in (("mortality", b.monthly_mortality), ("fertility", b.monthly_fertility)):
                if not 0.0 <= p <= 1.0:
                    raise ValidationError(
                        f"{name} {p} outside [0, 1] in bracket [{b.start_age}, {b.end_age})"
                    )
            prev_end = b.end_age
        if prev_end < MAX_AGE_YEARS:
            raise ConfigError(f"vital rate brackets end at {prev_end}, must cover {MAX_AGE_YEARS}")


# ---------------------------------------------------------------------------
# Monthly passes
# ---------------------------------------------------------------------------


def step_ages(state: "SimulationState") -> None:
    """Increment every living citizen's age by one month."""
    np.add(state.age, 1, out=state.age, where=state.alive)


def mature_qualifications(state: "SimulationState", rng: np.random.Generator) -> int:
    """Draw the adult qualification of citizens reaching labor-entry age.

    Simulation-born citizens carry a provisional qualification of 1 until they
    reach the configured entry age; the adult draw is centered on the family's
    mean qualification so the region-level distribution stays roughly
    stationary across generations. Only provisional citizens can mature;
    they are visited in ascending id order, so the normal draws come in the
    same order as a walk over every citizen.
    """
    entry = state.labor_entry_age_months
    q_max = state.qualification_levels
    ready = np.flatnonzero(state.provisional & (state.age == entry)).tolist()
    for born_id in ready:
        members = np.flatnonzero(state.family == state.family.item(born_id))
        others = members[members != born_id]
        if len(others):
            center = sum(state.qualification[others].tolist()) / len(others)
        else:
            center = (1 + q_max) / 2.0
        draw = rng.normal(center, max(q_max / 10.0, 1.0))
        state.qualification[born_id] = int(min(q_max, max(1, round(draw))))
        state.provisional[born_id] = False
    return len(ready)


def apply_mortality(
    state: "SimulationState", rates: VitalRates, rng: np.random.Generator
) -> int:
    """Remove each citizen independently with its age-bracket probability.

    Returns the death count. Fallout is handled here: employers drop the
    deceased, and a family with no members left escheats savings and houses
    to its municipality's treasury and vacant pool.
    """
    ids = np.flatnonzero(state.alive)
    if not len(ids):
        return 0
    ages = state.age[ids]
    if int(ages.max()) >= MAX_AGE_MONTHS:
        raise ConfigError("citizen older than the vital rate table covers")
    dead = ids[rng.random(len(ids)) < rates.mortality_by_month[ages]].tolist()
    for cid in dead:
        _remove_citizen(state, cid)
    return len(dead)


def _remove_citizen(state: "SimulationState", citizen_id: int) -> None:
    state.alive[citizen_id] = False
    state.provisional[citizen_id] = False
    employer = int(state.employer[citizen_id])
    if employer >= 0:
        state.firms[employer].employees.remove(citizen_id)
        state.employer[citizen_id] = -1
    family = state.family.item(citizen_id)
    state.family[citizen_id] = -1
    if not (state.family == family).any():
        _escheat_family(state, family)


def _escheat_family(state: "SimulationState", family_id: int) -> None:
    state.live[family_id] = False
    home = state.home.item(family_id)
    savings = state.savings.item(family_id)
    if savings > 0:
        state.treasuries[state.house_municipality.item(home)].balance += savings
    state.savings[family_id] = 0.0
    state.arrears[family_id] = 0.0  # arrears die with the family; nothing was collected
    owned = state.owned_houses[family_id]
    state.owner[owned] = -1
    owned.clear()
    state.resident[home] = -1
    state.home[family_id] = -1


def apply_fertility(
    state: "SimulationState", rates: VitalRates, rng: np.random.Generator
) -> int:
    """Create newborns for citizens drawn by their bracket fertility.

    Newborns start at age 0 with a provisional qualification of 1 (redrawn at
    labor-entry age), in the parent's family and municipality. Returns the
    birth count.
    """
    ids = np.flatnonzero(state.alive)
    if not len(ids):
        return 0
    probs = rates.fertility_by_month[np.minimum(state.age[ids], MAX_AGE_MONTHS - 1)]
    parents = ids[rng.random(len(ids)) < probs]
    # add_citizens may grow the columns, so index provisional after it returns
    born = state.add_citizens(state.family[parents], 0, 1)
    state.provisional[born.start:born.stop] = True
    return len(born)
