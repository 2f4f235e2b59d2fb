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

from conftest import add_family, add_firm, add_house, living, members, rng


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
    add_family(state, 0, [1, 2, 3], ages=[0, 100, 500])
    step_ages(state)
    assert state.age[living(state)].tolist() == [1, 101, 501]


def test_terminal_bracket_kills_with_certainty(make_state):
    state = make_state()
    add_family(state, 0, [1], ages=[100 * 12])
    deaths = apply_mortality(state, VitalRates(DEFAULT_VITAL_BRACKETS), rng())
    assert deaths == 1
    assert not living(state)


def test_citizen_beyond_table_is_config_error(make_state):
    state = make_state()
    add_family(state, 0, [1], ages=[MAX_AGE_MONTHS])
    with pytest.raises(ConfigError):
        apply_mortality(state, flat_rates(), rng())


# ---------------------------------------------------------------------------
# Mortality
# ---------------------------------------------------------------------------


def test_zero_mortality_no_deaths(make_state):
    state = make_state()
    add_family(state, 0, [1] * 50)
    assert apply_mortality(state, flat_rates(mortality=0.0), rng()) == 0
    assert len(living(state)) == 50


def test_certain_mortality_empties_population(make_state):
    state = make_state()
    add_family(state, 0, [1] * 50, savings=10.0)
    assert apply_mortality(state, flat_rates(mortality=1.0), rng()) == 50
    assert not living(state)
    assert not state.live.any()
    assert state.populations() == [0]
    assert state.treasury[0] == 10.0  # family savings escheated


def test_death_count_within_binomial_bound(make_state):
    state = make_state()
    for i in range(100):
        add_family(state, 0, [1] * 100, fam_id=i)
    n = len(living(state))
    assert n == 10_000
    deaths = apply_mortality(state, flat_rates(mortality=0.5), rng(123))
    sigma = (n * 0.25) ** 0.5
    assert abs(deaths - n / 2) < 4 * sigma


def test_mortality_determinism(make_state):
    results = []
    for _ in range(2):
        state = make_state()
        add_family(state, 0, [1] * 500, ages=[400] * 500)
        deaths = apply_mortality(state, flat_rates(mortality=0.3), rng(77))
        results.append((deaths, living(state)))
    assert results[0] == results[1]


def test_death_cascade_employer_family_houses(make_state):
    state = make_state()
    family = add_family(state, 0, [5], savings=42.0)
    firm = add_firm(state, 0)
    [cid] = members(state, family)
    state.employer[cid] = firm
    state.wage[cid] = 1.0
    state.employees[firm].append(cid)
    home = state.home.item(family)
    second = add_house(state, 0, owner=family)
    state.arrears[family, 0] = 0.7

    deaths = apply_mortality(state, flat_rates(mortality=1.0), rng())
    assert deaths == 1
    assert state.employees[firm] == []
    assert state.employer[cid] == -1 and not state.alive[cid]
    assert not state.live[family]
    assert state.treasury[0] == 42.0
    assert state.owner[home] == state.owner[second] == -1
    assert state.resident[home] == state.resident[second] == -1
    # the escheated row owns nothing and owes nothing
    assert state.owned_houses[family] == []
    assert state.home[family] == -1
    assert state.savings[family] == 0.0 and not state.arrears[family].any()


def test_survivors_keep_family_alive(make_state):
    state = make_state()
    family = add_family(state, 0, [1, 1], savings=10.0)
    # age one member into the terminal bracket, keep the other young
    a, b = members(state, family)
    state.age[a] = 100 * 12
    state.age[b] = 240
    apply_mortality(state, VitalRates(DEFAULT_VITAL_BRACKETS), rng())
    assert state.live[family]
    assert members(state, family) == [b]
    assert state.savings[family] == 10.0  # no escheat while members remain


# ---------------------------------------------------------------------------
# Fertility
# ---------------------------------------------------------------------------


def test_zero_fertility_no_births(make_state):
    state = make_state()
    add_family(state, 0, [1] * 30, ages=[300] * 30)
    assert apply_fertility(state, flat_rates(fertility=0.0), rng()) == 0


def test_certain_fertility_single_parent(make_state):
    # only adults are fertile; two infants leave a spare column row for the
    # newborn, none leave the columns exactly full, so the birth grows them
    rates = VitalRates([VitalBracket(0, 20, 0.0, 0.0), VitalBracket(20, 101, 0.0, 1.0)])
    for infants in (2, 0):
        state = make_state()
        if infants:
            add_family(state, 0, [1] * infants, ages=[0] * infants)
        family = add_family(state, 0, [4], ages=[300])
        assert (len(state.alive) == len(living(state))) == (infants == 0)
        births = apply_fertility(state, rates, rng())
        assert births == 1
        assert len(members(state, family)) == 2
        assert state.populations() == [infants + 2]
        baby_id = members(state, family)[-1]
        assert living(state)[-1] == baby_id
        assert state.age[baby_id] == 0 and state.alive[baby_id]
        assert state.family[baby_id] == family
        assert state.qualification[baby_id] == 1  # provisional until labor-entry age
        assert state.provisional[baby_id]


def test_fertility_determinism(make_state):
    counts = []
    for _ in range(2):
        state = make_state()
        add_family(state, 0, [1] * 400, ages=[300] * 400)
        counts.append(apply_fertility(state, flat_rates(fertility=0.1), rng(5)))
    assert counts[0] == counts[1]
    assert counts[0] > 0


def test_population_accounting_exact(make_state):
    state = make_state()
    add_family(state, 0, [1] * 1000, ages=[360] * 1000)
    before = len(living(state))
    generator = rng(9)
    deaths = apply_mortality(state, flat_rates(mortality=0.05), generator)
    births = apply_fertility(state, flat_rates(fertility=0.05), generator)
    assert len(living(state)) == before - deaths + births


# ---------------------------------------------------------------------------
# Qualification maturation
# ---------------------------------------------------------------------------


def test_simulation_born_matures_at_entry_age(make_state):
    state = make_state()
    family = add_family(state, 0, [10, 12], ages=[400, 420])
    [baby_id] = state.add_citizens([family], state.labor_entry_age_months, 1)
    state.provisional[baby_id] = True

    matured = mature_qualifications(state, rng(21))
    assert matured == 1
    assert not state.provisional[baby_id]
    assert 1 <= state.qualification[baby_id] <= state.qualification_levels


def test_maturation_draws_in_ascending_id_order(make_state):
    state = make_state()
    entry = state.labor_entry_age_months
    high = add_family(state, 0, [20], fam_id=0)
    low = add_family(state, 0, [2], fam_id=1)
    add_family(state, 0, [5] * 5, fam_id=2)  # ids 2..6
    assert state.add_citizens([high, low], entry, 1) == range(7, 9)
    state.provisional[[8, 7]] = True

    assert mature_qualifications(state, rng(7)) == 2
    draws = rng(7).normal([20.0, 2.0], 2.1)  # baby 7's draw first, then baby 8's
    expected = [int(min(21, max(1, round(d)))) for d in draws.tolist()]
    assert state.qualification[[7, 8]].tolist() == expected


def test_worldgen_citizens_never_rematured(make_state):
    state = make_state()
    family = add_family(state, 0, [7], ages=[state.labor_entry_age_months])
    # not provisional -> qualification untouched
    assert mature_qualifications(state, rng()) == 0
    assert state.qualification[members(state, family)[0]] == 7
