"""Hedonic pricing, midpoint settlement, moves, and the property tax."""
import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrosim.demographics import _remove_citizen
from metrosim.errors import ValidationError
from metrosim.fiscal import TaxKind, TaxLedger, TaxRates, Treasury
from metrosim.housing import (
    HousingParams,
    Transaction,
    collect_property_tax,
    hedonic_prices,
    run_housing_market,
    vacancies,
)
from metrosim.state import SimulationState
from metrosim.worldgen import WorldConfig, default_apc_batch, instantiate_world

from conftest import add_family, add_house, ledger_entries, members, rng


ALWAYS_ENTER = HousingParams(market_entry_rate=1.0, bid_fraction=1.0)


def hedonic_price(size, quality, municipality_qli, params):
    """One house's attribute-based value, the scalar reference of ``hedonic_prices``:
    base x size x quality, scaled up with local QLI."""
    return (
        params.hedonic_base
        * size
        * quality
        * (1.0 + params.qli_elasticity * municipality_qli)
    )


def market(state, params, rates, taxes=None):
    """One month of the housing market at the month's hedonic price table."""
    return run_housing_market(state, hedonic_prices(state, params), params, rates, rng(),
                              ([], []) if taxes is None else taxes)


def property_tax(state, params, rates):
    """One month of property tax at the month's hedonic price table; returns its
    ``(municipality, amount)`` entries."""
    munis, amounts = collect_property_tax(state, hedonic_prices(state, params), rates)
    return list(zip(munis.tolist(), amounts.tolist()))


def debts(state, family_id) -> dict[int, float]:
    """A family's arrears as municipality index -> debt, the debts only."""
    return {m: d for m, d in enumerate(state.arrears[family_id].tolist()) if d > 0.0}


# ---------------------------------------------------------------------------
# Hedonic pricing
# ---------------------------------------------------------------------------


def test_hedonic_unit_house():
    assert hedonic_price(1.0, 1.0, 0.0, HousingParams(hedonic_base=100.0)) == 100.0


def test_hedonic_scales_with_attributes_and_qli():
    params = HousingParams(hedonic_base=100.0, qli_elasticity=1.0)
    assert hedonic_price(2.0, 1.5, 0.5, params) == 2.0 * 1.5 * 1.5 * 100.0  # == 450


def test_hedonic_ignores_qli_when_elasticity_zero():
    params = HousingParams(hedonic_base=10.0, qli_elasticity=0.0)
    assert hedonic_price(3.0, 1.0, 0.0, params) == hedonic_price(3.0, 1.0, 9.0, params) == 30.0


def test_price_table_equals_hedonic_price_per_house():
    region = next(r for r in default_apc_batch() if r.id == "apc33")
    state = instantiate_world(region, WorldConfig(), rng())
    params = HousingParams(hedonic_base=1.7, qli_elasticity=0.37)
    draws = rng(1).uniform(0.0, 3.0, size=len(state.treasuries))
    for treasury, qli in zip(state.treasuries, draws.tolist()):
        treasury.qli = qli
    table = hedonic_prices(state, params)
    assert table.shape == (len(state.resident),)
    for house_id, (m, size, quality) in enumerate(zip(
        state.house_municipality.tolist(), state.house_size.tolist(), state.house_quality.tolist()
    )):
        price = table.item(house_id)
        assert price == hedonic_price(size, quality, state.treasuries[m].qli, params)


def test_housing_params_validation():
    with pytest.raises(ValidationError):
        HousingParams(market_entry_rate=1.5).validate()
    with pytest.raises(ValidationError):
        HousingParams(hedonic_base=0.0).validate()
    with pytest.raises(ValidationError):
        HousingParams(bid_fraction=0.0).validate()
    HousingParams().validate()


# ---------------------------------------------------------------------------
# The market
# ---------------------------------------------------------------------------


def two_vacancy_state(make_state, savings=100.0, size=4.0, quality=10.0):
    """One family, one cheap municipal vacancy plus a spare to keep the invariant."""
    state = make_state()
    family = add_family(state, 0, [5], savings=savings)
    target = add_house(state, 0, size=size, quality=quality)
    spare = add_house(state, 0, size=50.0, quality=50.0)  # unaffordable buffer
    return state, family, target, spare


def test_midpoint_settlement_and_transmission_tax(make_state):
    # hedonic 2.0 * 4 * 10 = 80 against a full-savings offer of 100 -> 90
    state, family, target, _ = two_vacancy_state(make_state)
    taxes = ([], [])
    deals = market(state, ALWAYS_ENTER, TaxRates(transmission=0.02), taxes)
    assert len(deals) == 1
    deal = deals[0]
    assert deal.hedonic == 80.0
    assert deal.offer == 100.0
    assert deal.price == 90.0
    assert deal.price == (deal.hedonic + deal.offer) / 2.0
    assert taxes == ([0], [pytest.approx(1.8, rel=1e-12)])
    # the buyer moved in and now owns both houses
    assert state.home[family] == target
    assert state.owner[target] == family
    assert state.resident[target] == family
    assert sorted(state.owned_houses[family]) == [0, 1]
    assert state.resident[0] == -1  # old residence emptied


def test_municipal_seller_credits_treasury(make_state):
    state, family, target, _ = two_vacancy_state(make_state)
    market(state, ALWAYS_ENTER, TaxRates(transmission=0.02))
    # municipal stock sold: price net of tax lands in the treasury
    assert state.treasuries[0].balance == pytest.approx(90.0 - 1.8, rel=1e-12)
    assert state.savings[family] == pytest.approx(10.0, rel=1e-12)


def test_family_seller_receives_net_price(make_state):
    state = make_state()
    seller = add_family(state, 0, [5], savings=0.0, fam_id=0)
    buyer = add_family(state, 0, [5], savings=100.0, fam_id=1)
    offered = add_house(state, 0, size=4.0, quality=10.0, owner=seller)
    add_house(state, 0, size=50.0, quality=50.0)  # spare vacancy
    deals = market(state, ALWAYS_ENTER, TaxRates(transmission=0.02))
    assert [d.buyer_family_id for d in deals] == [buyer]
    assert state.savings[seller] == pytest.approx(88.2, rel=1e-12)  # 90 minus 1.8 tax
    assert offered not in state.owned_houses[seller]
    assert state.owner[offered] == buyer
    assert state.treasuries[0].balance == 0.0


def test_money_conserved_through_sale(make_state):
    state, family, _, _ = two_vacancy_state(make_state)
    taxes = ([], [])
    before = state.savings[family]
    market(state, ALWAYS_ENTER, TaxRates(transmission=0.02), taxes)
    after = state.savings[family] + state.treasuries[0].balance + sum(taxes[1])
    assert math.isclose(after, before, rel_tol=0, abs_tol=1e-12)


def test_a_buyer_family_carries_its_head_count(make_state):
    state = make_state(("m00", "m01"))
    family = add_family(state, 0, [5, 6, 7], savings=100.0)
    add_house(state, 0, size=50.0, quality=50.0)  # m00 keeps a vacancy
    target = add_house(state, 1, size=4.0, quality=10.0)
    add_house(state, 1, size=50.0, quality=50.0)  # and so does m01
    assert state.populations() == [3, 0]
    deals = market(state, ALWAYS_ENTER, TaxRates())
    assert [d.house_id for d in deals] == [target]
    assert state.house_municipality[state.home[family]] == 1
    assert state.populations() == [0, 3]


def test_last_vacant_house_never_sold(make_state):
    state = make_state()
    family = add_family(state, 0, [5], savings=100.0)
    add_house(state, 0, size=1.0, quality=1.0)  # the only vacancy
    deals = market(state, ALWAYS_ENTER, TaxRates())
    assert deals == []


def test_zero_entry_rate_freezes_market(make_state):
    state, _, _, _ = two_vacancy_state(make_state)
    params = HousingParams(market_entry_rate=0.0)
    assert market(state, params, TaxRates()) == []


def test_broke_families_stay_out(make_state):
    state, family, _, _ = two_vacancy_state(make_state, savings=0.0)
    assert market(state, ALWAYS_ENTER, TaxRates()) == []
    assert state.home[family] == 0


def test_unaffordable_listings_stay_unsold(make_state):
    # cheapest vacancy hedonic 80 > offer 40 -> the sorted scan stops cold
    state, family, target, _ = two_vacancy_state(make_state, savings=40.0)
    deals = market(state, ALWAYS_ENTER, TaxRates())
    assert deals == []
    assert state.savings[family] == 40.0
    assert state.resident[target] == -1


def test_house_sells_at_most_once_per_month(make_state):
    state = make_state()
    for fam_id in (0, 1):
        add_family(state, 0, [5], savings=100.0, fam_id=fam_id)
    target = add_house(state, 0, size=4.0, quality=10.0)
    add_house(state, 0, size=4.0, quality=10.0)
    add_house(state, 0, size=50.0, quality=50.0)  # spare
    deals = market(state, ALWAYS_ENTER, TaxRates())
    sold = [d.house_id for d in deals]
    assert len(sold) == len(set(sold)) == 2
    assert target in sold


# ---------------------------------------------------------------------------
# Property tax
# ---------------------------------------------------------------------------


def test_property_tax_worked_example(make_state):
    # a 1200-value house at 0.5% a year owes exactly 0.5 a month
    state = make_state()
    family = add_family(state, 0, [5], savings=10.0, size=6.0)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    assert hedonic_price(6.0, 1.0, 0.0, params) == 1200.0
    taxes = property_tax(state, params, TaxRates(property_annual=0.005))
    assert taxes == [(0, pytest.approx(0.5, rel=1e-12))]
    assert state.savings[family] == pytest.approx(9.5, rel=1e-12)


def test_property_tax_skips_municipal_stock(make_state):
    state = make_state()
    add_family(state, 0, [5], savings=10.0, size=6.0)
    add_house(state, 0, size=6.0, quality=1.0)  # unowned, worth as much as the home
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    taxes = property_tax(state, params, TaxRates(property_annual=0.005))
    assert taxes == [(0, pytest.approx(0.5, rel=1e-12))]  # the home's dues only


def test_zero_rate_collects_nothing(make_state):
    state = make_state()
    family = add_family(state, 0, [5], savings=10.0)
    assert property_tax(state, HousingParams(), TaxRates(property_annual=0.0)) == []
    assert state.savings[family] == 10.0


def test_broke_owner_accrues_debt_without_event(make_state):
    state = make_state()
    family = add_family(state, 0, [5], savings=0.0, size=6.0)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    assert property_tax(state, params, TaxRates(property_annual=0.005)) == []
    assert debts(state, family) == {0: pytest.approx(0.5, rel=1e-12)}


def test_arrears_collected_once_funds_arrive(make_state):
    state = make_state()
    family = add_family(state, 0, [5], savings=0.0, size=6.0)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    rates = TaxRates(property_annual=0.005)
    property_tax(state, params, rates)  # month 1: all debt
    state.savings[family] = 100.0
    taxes = property_tax(state, params, rates)  # month 2: debt, then current
    assert taxes == [(0, pytest.approx(0.5, rel=1e-12))] * 2
    assert debts(state, family) == {}
    assert state.savings[family] == pytest.approx(99.0, rel=1e-12)


def test_partial_payment_splits_into_debt(make_state):
    state = make_state()
    family = add_family(state, 0, [5], savings=0.3, size=6.0)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    taxes = property_tax(state, params, TaxRates(property_annual=0.005))
    assert taxes == [(0, pytest.approx(0.3, rel=1e-12))]
    assert state.savings[family] == 0.0
    assert debts(state, family) == {0: pytest.approx(0.2, rel=1e-12)}


# ---------------------------------------------------------------------------
# The month-wide passes against the per-family and per-house loops they replace
# ---------------------------------------------------------------------------


@dataclass
class FamilyRecord:
    """A live family as the scalar references see it: every number on the record."""

    id: int
    municipality: int
    members: int  # head-count
    savings: float
    house_id: int
    owned_houses: list[int]
    tax_debt: dict[int, float]  # municipality index -> arrears, debts only


@dataclass
class HouseRecord:
    id: int
    municipality: int
    owner_family_id: int | None
    resident_family_id: int | None


@dataclass
class ScalarWorld:
    """The agents of a ``SimulationState`` as records: families keyed by id in
    id order, live ones only, and houses by id."""

    month: int
    families: dict[int, FamilyRecord]
    houses: list[HouseRecord]
    treasuries: list[Treasury]
    populations: list[int]  # citizens by municipality index, kept as families move


def scalar_world(state) -> ScalarWorld:
    live = np.flatnonzero(state.live).tolist()
    return ScalarWorld(
        month=state.month,
        families={
            f: FamilyRecord(
                id=f,
                municipality=state.house_municipality.item(state.home.item(f)),
                members=len(members(state, f)),
                savings=state.savings.item(f),
                house_id=state.home.item(f),
                owned_houses=list(state.owned_houses[f]),
                tax_debt=debts(state, f),
            )
            for f in live
        },
        houses=[
            HouseRecord(h, m, None if owner < 0 else owner, None if resident < 0 else resident)
            for h, (m, owner, resident) in enumerate(zip(
                state.house_municipality.tolist(), state.owner.tolist(), state.resident.tolist()
            ))
        ],
        treasuries=copy.deepcopy(state.treasuries),
        populations=state.populations(),
    )


def world_bits(world: ScalarWorld) -> tuple:
    """Everything the passes write, floats as hex."""
    return (
        [(f.id, f.municipality, f.members, f.savings.hex(), f.house_id, f.owned_houses,
          {m: d.hex() for m, d in f.tax_debt.items()}) for f in world.families.values()],
        [(h.owner_family_id, h.resident_family_id) for h in world.houses],
        [t.balance.hex() for t in world.treasuries],
        world.populations,
    )


def reference_collect_property_tax(world: ScalarWorld, prices, rates, taxes) -> None:
    """The per-family property tax that ``collect_property_tax`` replaced, each
    payment appended to ``taxes``."""
    monthly_rate = rates.property_monthly
    houses = world.houses
    tax_munis, tax_amounts = taxes
    for family in world.families.values():
        owned = family.owned_houses
        debt = family.tax_debt
        savings = family.savings
        if savings <= 0.0:
            for house_id in owned:
                amount = prices[house_id] * monthly_rate
                if amount > 0.0:
                    muni = houses[house_id].municipality
                    debt[muni] = debt.get(muni, 0.0) + amount
            continue
        if debt:
            dues = sorted(debt.items())
            debt = family.tax_debt = {}
        elif owned:
            dues = []
        else:
            continue
        for house_id in owned:
            dues.append((houses[house_id].municipality, prices[house_id] * monthly_rate))
        for muni, amount in dues:
            if not amount > 0.0:
                continue  # a zero rate or price owes nothing
            if savings <= 0.0:
                debt[muni] = debt.get(muni, 0.0) + amount
            elif savings < amount:  # min(amount, savings) is savings: pay it all, owe the rest
                tax_munis.append(muni)
                tax_amounts.append(savings)
                debt[muni] = debt.get(muni, 0.0) + (amount - savings)
                savings = 0.0
            else:
                savings -= amount
                tax_munis.append(muni)
                tax_amounts.append(amount)
        family.savings = savings


def reference_property_tax(state, prices, rates):
    """The plain per-family loop ``collect_property_tax`` must match bit for bit:
    every family re-sorts its arrears and rebuilds its debt, every visit."""
    monthly_rate = rates.property_monthly
    payments = []
    for family in state.families.values():
        dues = []
        if family.tax_debt:
            dues.extend(sorted(family.tax_debt.items()))
            family.tax_debt = {}
        if monthly_rate > 0.0:
            for house_id in family.owned_houses:
                amount = prices[house_id] * monthly_rate
                if amount > 0.0:
                    dues.append((state.houses[house_id].municipality, amount))
        if not dues:
            continue
        for muni, amount in dues:
            if family.savings <= 0.0:
                family.tax_debt[muni] = family.tax_debt.get(muni, 0.0) + amount
                continue
            paid = min(amount, family.savings)
            family.savings -= paid
            if paid:
                payments.append((muni, paid))
            shortfall = amount - paid
            if shortfall > 0.0:
                family.tax_debt[muni] = family.tax_debt.get(muni, 0.0) + shortfall
    return payments


def reference_vacancies(world: ScalarWorld) -> list[int]:
    """The house-by-house vacancy count that ``vacancies`` replaced."""
    vacant = [0] * len(world.treasuries)
    for house in world.houses:
        if house.resident_family_id is None:
            vacant[house.municipality] += 1
    return vacant


def reference_housing_market(world: ScalarWorld, prices, params, rates, rng, taxes):
    """The per-family and per-house market that ``run_housing_market`` replaced:
    the listings and vacancy counts come from a walk over every house."""
    families = world.families
    if not families:
        return []
    fam_list = list(families.values())
    entrants = np.flatnonzero(rng.random(len(fam_list)) < params.market_entry_rate).tolist()
    buyers = [fam_list[i] for i in entrants if fam_list[i].savings > 0.0]
    if not buyers:
        return []

    listings = []
    vacant_count = [0] * len(world.treasuries)
    for house in world.houses:
        if house.resident_family_id is None:
            vacant_count[house.municipality] += 1
            listings.append((prices[house.id], house))
    listings.sort(key=lambda ph: (ph[0], ph[1].id))

    transactions = []
    sold = set()
    for family in buyers:
        offer = params.bid_fraction * family.savings
        chosen = None
        chosen_hedonic = 0.0
        for hedonic, house in listings:
            if hedonic > offer:
                break
            if house.id in sold or house.owner_family_id == family.id:
                continue
            if vacant_count[house.municipality] <= 1:
                continue
            chosen = house
            chosen_hedonic = hedonic
            break
        if chosen is None:
            continue
        price = (chosen_hedonic + offer) / 2.0
        tax = price * rates.transmission
        seller_id = chosen.owner_family_id
        family.savings -= price
        if seller_id is None:
            world.treasuries[chosen.municipality].balance += price - tax
        else:
            seller = families[seller_id]
            seller.savings += price - tax
            seller.owned_houses.remove(chosen.id)
        if tax:
            taxes[0].append(chosen.municipality)
            taxes[1].append(tax)
        if family.house_id is not None:
            world.houses[family.house_id].resident_family_id = None
        chosen.owner_family_id = family.id
        chosen.resident_family_id = family.id
        family.owned_houses.append(chosen.id)
        family.house_id = chosen.id
        world.populations[family.municipality] -= family.members
        world.populations[chosen.municipality] += family.members
        family.municipality = chosen.municipality
        sold.add(chosen.id)
        vacant_count[chosen.municipality] -= 1
        transactions.append(
            Transaction(world.month, chosen.id, family.id, chosen_hedonic, offer, price)
        )
    return transactions


MUNIS = (0, 1, 2)  # indices of m00, m01, m02
# the kinds of owner the property tax tells apart, each present in every drawn world
ROLES = ("broke, arrears elsewhere", "two houses", "solvent, arrears in two", "short payer",
         "short at a middle house", "broke, arrears at one of several", "escheated", "any",
         "any")

savings_draws = st.one_of(st.just(0.0), st.floats(-5.0, 0.0), st.floats(0.0, 40.0))
price_draws = st.one_of(st.just(0.0), st.floats(0.01, 60.0), st.floats(60.0, 5e4))


@st.composite
def owner_worlds(draw):
    """A world of families in every role of ``ROLES``, in a drawn id order, with
    the prices of its houses by id and a property tax rate.

    A family owns its houses in a drawn purchase order and lives in the first
    one built, as the model keeps it; municipal houses stand vacant among them.
    """
    state = SimulationState(treasuries=[Treasury(municipality_id=f"m{m:02d}") for m in MUNIS])
    annual = draw(st.sampled_from([0.0, 0.005, 0.3, 0.9]))
    rates = TaxRates(property_annual=annual)
    prices = []

    def build_house(owner=None, price_from=price_draws):
        if draw(st.booleans()):  # municipal stock between the owned houses
            add_house(state, draw(st.sampled_from(MUNIS)))
            prices.append(draw(price_draws))
        house = add_house(state, draw(st.sampled_from(MUNIS)), owner=owner)
        prices.append(draw(price_from))
        return house

    for role in draw(st.permutations(ROLES)):
        n_houses = {"two houses": 2, "solvent, arrears in two": draw(st.integers(1, 2)),
                    "short at a middle house": draw(st.integers(3, 4)),
                    "broke, arrears at one of several": draw(st.integers(2, 4)),
                    "any": draw(st.integers(1, 3))}.get(role, 1)
        own_prices = {"short payer": st.floats(0.01, 5e4),
                      "short at a middle house": st.floats(0.01, 5e4)}.get(role, price_draws)
        [fid] = state.add_families([build_house(price_from=own_prices)], [0.0])
        [member] = state.add_citizens([fid], [360], [5])
        for _ in range(n_houses - 1):
            build_house(owner=fid, price_from=own_prices)
        state.owned_houses[fid][:] = draw(st.permutations(state.owned_houses[fid]))
        if role == "broke, arrears elsewhere":
            state.savings[fid] = draw(st.one_of(st.just(0.0), st.floats(-5.0, 0.0)))
            home_muni = state.house_municipality[state.home[fid]]
            elsewhere = draw(st.sampled_from([m for m in MUNIS if m != home_muni]))
            state.arrears[fid, elsewhere] = draw(st.floats(0.01, 30.0))
        elif role == "solvent, arrears in two":
            state.savings[fid] = draw(st.floats(0.01, 40.0))
            for m in draw(st.lists(st.sampled_from(MUNIS), min_size=2, max_size=2, unique=True)):
                state.arrears[fid, m] = draw(st.floats(0.01, 30.0))
        elif role == "broke, arrears at one of several":
            state.savings[fid] = draw(st.one_of(st.just(0.0), st.floats(-5.0, 0.0)))
            house = draw(st.sampled_from(state.owned_houses[fid]))
            state.arrears[fid, state.house_municipality[house]] = draw(st.floats(0.01, 30.0))
        elif role == "short payer":  # savings cover part of the month's dues
            price = prices[state.home[fid]]
            state.savings[fid] = draw(st.floats(0.01, 0.99)) * price * rates.property_monthly
        elif role == "short at a middle house":
            # savings cover the dues of the first houses bought, and part of the next
            dues = [prices[house] * rates.property_monthly for house in state.owned_houses[fid]]
            covered = draw(st.integers(1, n_houses - 2))
            funds = 0.0
            for due in dues[:covered]:
                funds += due
            state.savings[fid] = funds + draw(st.floats(0.01, 0.99)) * dues[covered]
        else:
            state.savings[fid] = draw(savings_draws)
            for m, debt in draw(st.dictionaries(st.sampled_from(MUNIS), st.floats(0.01, 30.0))).items():
                state.arrears[fid, m] = debt
        if role == "escheated":
            _remove_citizen(state, member)
    build_house()
    return state, np.array(prices), rates


def assert_escheated_rows_empty(state):
    gone = ~state.live[:len(state.owned_houses)]
    assert not state.savings[:len(gone)][gone].any()
    assert not state.arrears[:len(gone)][gone].any()
    assert (state.home[:len(gone)][gone] == -1).all()


@settings(max_examples=300, deadline=None)
@given(world=owner_worlds(), months=st.integers(1, 3))
def test_property_tax_matches_the_per_family_loop(world, months):
    state, prices, rates = world
    ref = scalar_world(state)
    plain = scalar_world(state)
    ledger = TaxLedger(len(state.treasuries))
    ref_ledger = TaxLedger(len(state.treasuries))
    ledger.add(TaxKind.PROPERTY, 2, 1.5)  # an origin paid earlier in the month
    ref_ledger.add(TaxKind.PROPERTY, 2, 1.5)
    for _ in range(months):
        munis, amounts = collect_property_tax(state, prices, rates)
        expected = ([], [])
        reference_collect_property_tax(ref, prices.tolist(), rates, expected)
        assert list(zip(munis.tolist(), [a.hex() for a in amounts.tolist()])) == list(
            zip(expected[0], [a.hex() for a in expected[1]])
        )
        assert world_bits(scalar_world(state)) == world_bits(ref)
        assert [(m, a.hex()) for m, a in reference_property_tax(plain, prices.tolist(), rates)] == [
            (m, a.hex()) for m, a in zip(*expected)
        ]
        assert world_bits(plain) == world_bits(ref)
        assert_escheated_rows_empty(state)
        ledger.add_all(TaxKind.PROPERTY, munis, amounts)
        for muni, amount in zip(*expected):
            ref_ledger.add(TaxKind.PROPERTY, muni, amount)
        assert ledger_entries(ledger) == ledger_entries(ref_ledger)
        assert ledger.event_count == ref_ledger.event_count


@settings(max_examples=200, deadline=None)
@given(
    world=owner_worlds(),
    entry=st.sampled_from([0.3, 1.0]),
    bid=st.floats(0.05, 1.0),
    transmission=st.sampled_from([0.0, 0.02, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_housing_market_matches_the_per_house_loop(world, entry, bid, transmission, seed):
    state, prices, _ = world
    params = HousingParams(market_entry_rate=entry, bid_fraction=bid)
    rates = TaxRates(transmission=transmission)
    ref = scalar_world(state)
    assert vacancies(state).tolist() == reference_vacancies(ref)
    taxes = ([], [])
    deals = run_housing_market(state, prices, params, rates, rng(seed), taxes)
    ref_taxes = ([], [])
    ref_deals = reference_housing_market(ref, prices.tolist(), params, rates, rng(seed),
                                         ref_taxes)
    assert [tuple(map(str, d)) for d in deals] == [tuple(map(str, d)) for d in ref_deals]
    assert (taxes[0], [t.hex() for t in taxes[1]]) == (
        ref_taxes[0], [t.hex() for t in ref_taxes[1]]
    )
    assert world_bits(scalar_world(state)) == world_bits(ref)
    assert vacancies(state).tolist() == reference_vacancies(ref)
    assert_escheated_rows_empty(state)
