"""Aging, mortality with escheat cascades, fertility, and vital-rate tables."""
import numpy as np
import pytest

from metrosim.demographics import (
    DEFAULT_VITAL_BRACKETS,
    MAX_AGE_MONTHS,
    VitalBracket,
    VitalRates,
    apply_fertility,
    apply_mortality,
    mature_qualifications,
    step_ages,
)
from metrosim.errors import ConfigError, ValidationError

from conftest import add_family, add_firm, add_house, rng


def flat_rates(mortality=0.0, fertility=0.0):
    return VitalRates([VitalBracket(0, 101, mortality, fertility)])


# ---------------------------------------------------------------------------
# Vital-rate tables
# ---------------------------------------------------------------------------


def test_default_brackets_cover_and_terminate():
    rates = VitalRates(DEFAULT_VITAL_BRACKETS)
    assert rates.mortality_by_month[0] == 5e-5
    assert rates.mortality_by_month[100 * 12] == 1.0  # terminal bracket: nobody outlives it
    assert rates.fertility_by_month[25 * 12] == 0.0045
    assert rates.fertility_by_month[60 * 12] == 0.0


def test_bracket_gap_rejected():
    with pytest.raises(ConfigError, match="gap"):
        VitalRates([VitalBracket(0, 10, 0.0, 0.0), VitalBracket(20, 101, 0.0, 0.0)])


def test_bracket_must_start_at_zero_and_cover_max():
    with pytest.raises(ConfigError):
        VitalRates([VitalBracket(5, 101, 0.0, 0.0)])
    with pytest.raises(ConfigError):
        VitalRates([VitalBracket(0, 50, 0.0, 0.0)])


def test_probability_out_of_range_rejected():
    with pytest.raises(ValidationError):
        VitalRates([VitalBracket(0, 101, 1.5, 0.0)])


# ---------------------------------------------------------------------------
# Aging
# ---------------------------------------------------------------------------


def test_step_ages_increments_everyone(make_state):
    state = make_state()
    add_family(state, "m00", [1, 2, 3], ages=[0, 100, 500])
    step_ages(state)
    assert sorted(c.age_months for c in state.citizens.values()) == [1, 101, 501]


def test_terminal_bracket_kills_with_certainty(make_state):
    state = make_state()
    add_family(state, "m00", [1], ages=[100 * 12])
    deaths = apply_mortality(state, VitalRates(DEFAULT_VITAL_BRACKETS), rng())
    assert deaths == 1
    assert not state.citizens


def test_citizen_beyond_table_is_config_error(make_state):
    state = make_state()
    add_family(state, "m00", [1], ages=[MAX_AGE_MONTHS])
    with pytest.raises(ConfigError):
        apply_mortality(state, flat_rates(), rng())


# ---------------------------------------------------------------------------
# Mortality
# ---------------------------------------------------------------------------


def test_zero_mortality_no_deaths(make_state):
    state = make_state()
    add_family(state, "m00", [1] * 50)
    assert apply_mortality(state, flat_rates(mortality=0.0), rng()) == 0
    assert len(state.citizens) == 50


def test_certain_mortality_empties_population(make_state):
    state = make_state()
    add_family(state, "m00", [1] * 50, savings=10.0)
    assert apply_mortality(state, flat_rates(mortality=1.0), rng()) == 50
    assert not state.citizens
    assert not state.families
    assert state.treasuries["m00"].balance == 10.0  # family savings escheated


def test_death_count_within_binomial_bound(make_state):
    state = make_state()
    for i in range(100):
        add_family(state, "m00", [1] * 100, fam_id=i)
    n = len(state.citizens)
    assert n == 10_000
    deaths = apply_mortality(state, flat_rates(mortality=0.5), rng(123))
    sigma = (n * 0.25) ** 0.5
    assert abs(deaths - n / 2) < 4 * sigma


def test_mortality_determinism(make_state):
    results = []
    for _ in range(2):
        state = make_state()
        add_family(state, "m00", [1] * 500, ages=[400] * 500)
        deaths = apply_mortality(state, flat_rates(mortality=0.3), rng(77))
        results.append((deaths, sorted(state.citizens)))
    assert results[0] == results[1]


def test_death_cascade_employer_family_houses(make_state):
    state = make_state()
    family = add_family(state, "m00", [5], savings=42.0)
    firm = add_firm(state, "m00")
    cid = family.members[0]
    state.citizens[cid].employer_id = firm.id
    state.citizens[cid].monthly_wage = 1.0
    firm.employees.append(cid)
    home = add_house(state, "m00", owner=family.id, resident=family.id)
    family.house_id = home.id
    family.owned_houses.append(home.id)
    family.tax_debt["m00"] = 0.7

    deaths = apply_mortality(state, flat_rates(mortality=1.0), rng())
    assert deaths == 1
    assert firm.employees == []
    assert family.id not in state.families
    assert state.treasuries["m00"].balance == 42.0
    assert home.owner_family_id is None and home.resident_family_id is None


def test_survivors_keep_family_alive(make_state):
    state = make_state()
    family = add_family(state, "m00", [1, 1], savings=10.0)
    # age one member into the terminal bracket, keep the other young
    a, b = family.members
    state.citizens[a].age_months = 100 * 12
    state.citizens[b].age_months = 240
    apply_mortality(state, VitalRates(DEFAULT_VITAL_BRACKETS), rng())
    assert family.id in state.families
    assert state.families[family.id].members == [b]
    assert state.families[family.id].savings == 10.0  # no escheat while members remain


# ---------------------------------------------------------------------------
# Fertility
# ---------------------------------------------------------------------------


def test_zero_fertility_no_births(make_state):
    state = make_state()
    add_family(state, "m00", [1] * 30, ages=[300] * 30)
    assert apply_fertility(state, flat_rates(fertility=0.0), rng()) == 0


def test_certain_fertility_single_parent(make_state):
    state = make_state()
    family = add_family(state, "m00", [4], ages=[300])
    births = apply_fertility(state, flat_rates(fertility=1.0), rng())
    assert births == 1
    assert len(family.members) == 2
    baby_id = family.members[-1]
    baby = state.citizens[baby_id]
    assert baby.age_months == 0
    assert baby.qualification == 1  # provisional until labor-entry age
    assert baby_id in state.simulation_born


def test_fertility_determinism(make_state):
    counts = []
    for _ in range(2):
        state = make_state()
        add_family(state, "m00", [1] * 400, ages=[300] * 400)
        counts.append(apply_fertility(state, flat_rates(fertility=0.1), rng(5)))
    assert counts[0] == counts[1]
    assert counts[0] > 0


def test_population_accounting_exact(make_state):
    state = make_state()
    add_family(state, "m00", [1] * 1000, ages=[360] * 1000)
    before = len(state.citizens)
    generator = rng(9)
    deaths = apply_mortality(state, flat_rates(mortality=0.05), generator)
    births = apply_fertility(state, flat_rates(fertility=0.05), generator)
    assert len(state.citizens) == before - deaths + births


# ---------------------------------------------------------------------------
# Qualification maturation
# ---------------------------------------------------------------------------


def test_simulation_born_matures_at_entry_age(make_state):
    state = make_state()
    family = add_family(state, "m00", [10, 12], ages=[400, 420])
    baby_id = state.next_citizen_id()
    from metrosim.demographics import Citizen

    state.citizens[baby_id] = Citizen(
        id=baby_id, age_months=state.labor_entry_age_months, qualification=1,
        family_id=family.id,
    )
    family.members.append(baby_id)
    state.simulation_born.add(baby_id)

    matured = mature_qualifications(state, rng(21))
    assert matured == 1
    assert baby_id not in state.simulation_born
    assert 1 <= state.citizens[baby_id].qualification <= state.qualification_levels


def test_maturation_draws_in_ascending_id_order(make_state):
    state = make_state()
    entry = state.labor_entry_age_months
    high = add_family(state, "m00", [20], fam_id=0)
    low = add_family(state, "m00", [2], fam_id=1)
    from metrosim.demographics import Citizen

    for baby_id, family in ((8, high), (40, low)):  # state.citizens stays ascending
        state.citizens[baby_id] = Citizen(
            id=baby_id, age_months=entry, qualification=1, family_id=family.id
        )
        family.members.append(baby_id)
    state.simulation_born.update([40, 8])  # the set iterates 40 first
    assert list(state.simulation_born) != sorted(state.simulation_born)

    assert mature_qualifications(state, rng(7)) == 2
    draws = rng(7).normal([20.0, 2.0], 2.1)  # baby 8's draw first, then baby 40's
    expected = [int(min(21, max(1, round(d)))) for d in draws.tolist()]
    assert [state.citizens[8].qualification, state.citizens[40].qualification] == expected


def test_worldgen_citizens_never_rematured(make_state):
    state = make_state()
    family = add_family(state, "m00", [7], ages=[state.labor_entry_age_months])
    # not in simulation_born -> qualification untouched
    assert mature_qualifications(state, rng()) == 0
    assert state.citizens[family.members[0]].qualification == 7
