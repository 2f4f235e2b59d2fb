"""Hedonic pricing, midpoint settlement, moves, and the property tax."""
import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrosim.errors import ValidationError
from metrosim.fiscal import TaxKind, TaxLedger, TaxRates
from metrosim.housing import (
    House,
    HousingParams,
    collect_property_tax,
    hedonic_price,
    hedonic_prices,
    hedonic_units,
    run_housing_market,
)
from metrosim.state import SimulationState
from metrosim.worldgen import WorldConfig, default_apc_batch, instantiate_world

from conftest import add_family, add_house, ledger_entries, rng


ALWAYS_ENTER = HousingParams(market_entry_rate=1.0, bid_fraction=1.0)


def market(state, params, rates, taxes=None):
    """One month of the housing market at the month's hedonic price table."""
    prices = hedonic_prices(state, params, hedonic_units(state, params))
    return run_housing_market(state, prices, params, rates, rng(), [] if taxes is None else taxes)


def property_tax(state, params, rates):
    """One month of property tax at the month's hedonic price table; returns its entries."""
    prices = hedonic_prices(state, params, hedonic_units(state, params))
    taxes = []
    collect_property_tax(state, prices, rates, taxes)
    return taxes


# ---------------------------------------------------------------------------
# Hedonic pricing
# ---------------------------------------------------------------------------


def test_hedonic_unit_house():
    plain = House(id=0, municipality_id="m", size=1.0, quality=1.0, location=(0, 0))
    assert hedonic_price(plain, 0.0, HousingParams(hedonic_base=100.0)) == 100.0


def test_hedonic_scales_with_attributes_and_qli():
    house = House(id=0, municipality_id="m", size=2.0, quality=1.5, location=(0, 0))
    params = HousingParams(hedonic_base=100.0, qli_elasticity=1.0)
    assert hedonic_price(house, 0.5, params) == 2.0 * 1.5 * 1.5 * 100.0  # == 450


def test_hedonic_ignores_qli_when_elasticity_zero():
    house = House(id=0, municipality_id="m", size=3.0, quality=1.0, location=(0, 0))
    params = HousingParams(hedonic_base=10.0, qli_elasticity=0.0)
    assert hedonic_price(house, 0.0, params) == hedonic_price(house, 9.0, params) == 30.0


def test_price_table_equals_hedonic_price_per_house():
    region = next(r for r in default_apc_batch() if r.id == "apc33")
    state = instantiate_world(region, WorldConfig(), rng())
    params = HousingParams(hedonic_base=1.7, qli_elasticity=0.37)
    units = hedonic_units(state, params)  # once per run, before QLI moves
    draws = rng(1).uniform(0.0, 3.0, size=len(state.treasuries))
    for treasury, qli in zip(state.treasuries.values(), draws.tolist()):
        treasury.qli = qli
    table = hedonic_prices(state, params, units)
    assert table == hedonic_prices(state, params, hedonic_units(state, params))
    assert len(table) == len(state.houses)
    for house in state.houses:
        price = table[house.id]
        assert type(price) is float
        assert price == hedonic_price(house, state.treasuries[house.municipality_id].qli, params)


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
    family = add_family(state, "m00", [5], savings=savings)
    home = add_house(state, "m00", owner=family.id, resident=family.id)
    family.house_id = home.id
    family.owned_houses.append(home.id)
    target = add_house(state, "m00", size=size, quality=quality)
    spare = add_house(state, "m00", size=50.0, quality=50.0)  # unaffordable buffer
    return state, family, target, spare


def test_midpoint_settlement_and_transmission_tax(make_state):
    # hedonic 2.0 * 4 * 10 = 80 against a full-savings offer of 100 -> 90
    state, family, target, _ = two_vacancy_state(make_state)
    taxes = []
    deals = market(state, ALWAYS_ENTER, TaxRates(transmission=0.02), taxes)
    assert len(deals) == 1
    deal = deals[0]
    assert deal.hedonic == 80.0
    assert deal.offer == 100.0
    assert deal.price == 90.0
    assert deal.price == (deal.hedonic + deal.offer) / 2.0
    assert taxes == [("m00", pytest.approx(1.8, rel=1e-12))]
    # the buyer moved in and now owns both houses
    assert family.house_id == target.id
    assert target.owner_family_id == family.id
    assert target.resident_family_id == family.id
    assert target.last_transaction_price == 90.0
    assert sorted(family.owned_houses) == [0, 1]
    assert state.houses[0].resident_family_id is None  # old residence emptied


def test_municipal_seller_credits_treasury(make_state):
    state, family, target, _ = two_vacancy_state(make_state)
    market(state, ALWAYS_ENTER, TaxRates(transmission=0.02))
    # municipal stock sold: price net of tax lands in the treasury
    assert state.treasuries["m00"].balance == pytest.approx(90.0 - 1.8, rel=1e-12)
    assert family.savings == pytest.approx(10.0, rel=1e-12)


def test_family_seller_receives_net_price(make_state):
    state = make_state()
    seller = add_family(state, "m00", [5], savings=0.0, fam_id=0)
    buyer = add_family(state, "m00", [5], savings=100.0, fam_id=1)
    for fam in (seller, buyer):
        home = add_house(state, "m00", owner=fam.id, resident=fam.id)
        fam.house_id = home.id
        fam.owned_houses.append(home.id)
    offered = add_house(state, "m00", size=4.0, quality=10.0, owner=seller.id)
    seller.owned_houses.append(offered.id)
    add_house(state, "m00", size=50.0, quality=50.0)  # spare vacancy
    deals = market(state, ALWAYS_ENTER, TaxRates(transmission=0.02))
    assert [d.buyer_family_id for d in deals] == [buyer.id]
    assert seller.savings == pytest.approx(88.2, rel=1e-12)  # 90 minus 1.8 tax
    assert offered.id not in seller.owned_houses
    assert state.treasuries["m00"].balance == 0.0


def test_money_conserved_through_sale(make_state):
    state, family, _, _ = two_vacancy_state(make_state)
    taxes = []
    before = family.savings
    market(state, ALWAYS_ENTER, TaxRates(transmission=0.02), taxes)
    after = family.savings + state.treasuries["m00"].balance + sum(a for _, a in taxes)
    assert math.isclose(after, before, rel_tol=0, abs_tol=1e-12)


def test_last_vacant_house_never_sold(make_state):
    state = make_state()
    family = add_family(state, "m00", [5], savings=100.0)
    home = add_house(state, "m00", owner=family.id, resident=family.id)
    family.house_id = home.id
    family.owned_houses.append(home.id)
    add_house(state, "m00", size=1.0, quality=1.0)  # the only vacancy
    deals = market(state, ALWAYS_ENTER, TaxRates())
    assert deals == []


def test_zero_entry_rate_freezes_market(make_state):
    state, _, _, _ = two_vacancy_state(make_state)
    params = HousingParams(market_entry_rate=0.0)
    assert market(state, params, TaxRates()) == []


def test_broke_families_stay_out(make_state):
    state, family, _, _ = two_vacancy_state(make_state, savings=0.0)
    assert market(state, ALWAYS_ENTER, TaxRates()) == []
    assert family.house_id == 0


def test_unaffordable_listings_stay_unsold(make_state):
    # cheapest vacancy hedonic 80 > offer 40 -> the sorted scan stops cold
    state, family, target, _ = two_vacancy_state(make_state, savings=40.0)
    deals = market(state, ALWAYS_ENTER, TaxRates())
    assert deals == []
    assert family.savings == 40.0
    assert target.resident_family_id is None


def test_house_sells_at_most_once_per_month(make_state):
    state = make_state()
    for fam_id in (0, 1):
        fam = add_family(state, "m00", [5], savings=100.0, fam_id=fam_id)
        home = add_house(state, "m00", owner=fam_id, resident=fam_id)
        fam.house_id = home.id
        fam.owned_houses.append(home.id)
    target = add_house(state, "m00", size=4.0, quality=10.0)
    add_house(state, "m00", size=4.0, quality=10.0)
    add_house(state, "m00", size=50.0, quality=50.0)  # spare
    deals = market(state, ALWAYS_ENTER, TaxRates())
    sold = [d.house_id for d in deals]
    assert len(sold) == len(set(sold)) == 2
    assert target.id in sold


# ---------------------------------------------------------------------------
# Property tax
# ---------------------------------------------------------------------------


def test_property_tax_worked_example(make_state):
    # a 1200-value house at 0.5% a year owes exactly 0.5 a month
    state = make_state()
    family = add_family(state, "m00", [5], savings=10.0)
    house = add_house(state, "m00", size=6.0, quality=1.0, owner=family.id, resident=family.id)
    family.owned_houses.append(house.id)
    family.house_id = house.id
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    assert hedonic_price(house, 0.0, params) == 1200.0
    taxes = property_tax(state, params, TaxRates(property_annual=0.005))
    assert taxes == [("m00", pytest.approx(0.5, rel=1e-12))]
    assert family.savings == pytest.approx(9.5, rel=1e-12)


def test_property_tax_skips_municipal_stock(make_state):
    state = make_state()
    add_family(state, "m00", [5], savings=10.0)
    add_house(state, "m00", size=6.0, quality=1.0)  # unowned
    assert property_tax(state, HousingParams(), TaxRates()) == []


def test_zero_rate_collects_nothing(make_state):
    state = make_state()
    family = add_family(state, "m00", [5], savings=10.0)
    house = add_house(state, "m00", owner=family.id, resident=family.id)
    family.owned_houses.append(house.id)
    assert property_tax(state, HousingParams(), TaxRates(property_annual=0.0)) == []
    assert family.savings == 10.0


def test_broke_owner_accrues_debt_without_event(make_state):
    state = make_state()
    family = add_family(state, "m00", [5], savings=0.0)
    house = add_house(state, "m00", size=6.0, quality=1.0, owner=family.id, resident=family.id)
    family.owned_houses.append(house.id)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    assert property_tax(state, params, TaxRates(property_annual=0.005)) == []
    assert family.tax_debt == {"m00": pytest.approx(0.5, rel=1e-12)}


def test_arrears_collected_once_funds_arrive(make_state):
    state = make_state()
    family = add_family(state, "m00", [5], savings=0.0)
    house = add_house(state, "m00", size=6.0, quality=1.0, owner=family.id, resident=family.id)
    family.owned_houses.append(house.id)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    rates = TaxRates(property_annual=0.005)
    property_tax(state, params, rates)  # month 1: all debt
    family.savings = 100.0
    taxes = property_tax(state, params, rates)  # month 2: debt, then current
    assert taxes == [("m00", pytest.approx(0.5, rel=1e-12))] * 2
    assert family.tax_debt == {}
    assert family.savings == pytest.approx(99.0, rel=1e-12)


def test_partial_payment_splits_into_debt(make_state):
    state = make_state()
    family = add_family(state, "m00", [5], savings=0.3)
    house = add_house(state, "m00", size=6.0, quality=1.0, owner=family.id, resident=family.id)
    family.owned_houses.append(house.id)
    params = HousingParams(hedonic_base=200.0, qli_elasticity=0.0)
    taxes = property_tax(state, params, TaxRates(property_annual=0.005))
    assert taxes == [("m00", pytest.approx(0.3, rel=1e-12))]
    assert family.savings == 0.0
    assert family.tax_debt["m00"] == pytest.approx(0.2, rel=1e-12)


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
                    dues.append((state.houses[house_id].municipality_id, amount))
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


MUNIS = ("m00", "m01", "m02")


@st.composite
def property_tax_months(draw):
    """A world of owners: broke families, arrears in several municipalities,
    multi-house owners, savings that run out mid-dues, and zero rates or prices."""
    state = SimulationState()
    n_houses = draw(st.integers(0, 12))
    prices = {}
    for house_id in range(n_houses):
        add_house(state, draw(st.sampled_from(MUNIS)), house_id=house_id)
        prices[house_id] = draw(st.one_of(st.just(0.0), st.floats(0.01, 5e4)))
    owner_of = draw(st.lists(st.integers(-1, 5), min_size=n_houses, max_size=n_houses))
    for fam_id in range(6):
        family = add_family(state, draw(st.sampled_from(MUNIS)), [5], fam_id=fam_id)
        family.savings = draw(st.one_of(st.just(0.0), st.floats(-5.0, 0.0), st.floats(0.0, 40.0)))
        family.owned_houses = [h for h, owner in enumerate(owner_of) if owner == fam_id]
        family.tax_debt = draw(st.dictionaries(st.sampled_from(MUNIS), st.floats(0.01, 30.0)))
    rates = TaxRates(property_annual=draw(st.sampled_from([0.0, 0.005, 0.3, 0.9])))
    ledger = TaxLedger()
    for muni in draw(st.lists(st.sampled_from(MUNIS), max_size=2, unique=True)):
        ledger.add(TaxKind.PROPERTY, muni, draw(st.floats(0.01, 10.0)))
    return state, prices, rates, ledger


@settings(max_examples=300, deadline=None)
@given(month=property_tax_months(), months=st.integers(1, 3))
def test_property_tax_matches_the_per_family_loop(month, months):
    state, prices, rates, ledger = month
    ref_state, ref_ledger = copy.deepcopy((state, ledger))
    for _ in range(months):
        taxes = []
        collect_property_tax(state, prices, rates, taxes)
        expected = reference_property_tax(ref_state, prices, rates)
        assert [(m, a.hex()) for m, a in taxes] == [(m, a.hex()) for m, a in expected]
        ledger.add_all(TaxKind.PROPERTY, taxes)
        ref_ledger.add_all(TaxKind.PROPERTY, expected)
        for family in state.families.values():
            ref_family = ref_state.families[family.id]
            assert family.savings.hex() == ref_family.savings.hex()
            assert {m: d.hex() for m, d in family.tax_debt.items()} == {
                m: d.hex() for m, d in ref_family.tax_debt.items()
            }
        assert ledger_entries(ledger) == ledger_entries(ref_ledger)
        assert ledger.event_count == ref_ledger.event_count
