"""Production, pricing, wages, the labor market, and household consumption."""
import math

import pytest

from metrosim.demographics import Citizen
from metrosim.economy import (
    Family,
    Firm,
    MarketParams,
    consume,
    pay_wages,
    produce,
    run_labor_market,
    set_price,
    set_wage_and_vacancy,
    settle_profit_tax,
)
from metrosim.errors import ValidationError
from metrosim.fiscal import TaxKind, TaxLedger, TaxRates

from conftest import rng


def make_firm(firm_id=0, muni="m00", cash=100.0, **overrides):
    firm = Firm(id=firm_id, municipality_id=muni, location=(0.0, 0.0), cash=cash)
    for name, value in overrides.items():
        setattr(firm, name, value)
    return firm


def make_citizen(cid, qual=5, wage=0.0, family_id=0):
    return Citizen(id=cid, age_months=360, qualification=qual, family_id=family_id,
                   monthly_wage=wage)


# ---------------------------------------------------------------------------
# Production
# ---------------------------------------------------------------------------


def test_produce_worked_example():
    firm = make_firm()
    params = MarketParams(productivity_alpha=2.0, qualification_exponent_beta=0.5)
    units = produce(firm, [1, 4, 9], params)
    assert units == 2.0 * (1.0 + 2.0 + 3.0)  # 2 * (1 + sqrt(4) + sqrt(9))
    assert firm.inventory == 12.0
    assert firm.last_production == 12.0


def test_produce_without_employees():
    firm = make_firm()
    assert produce(firm, [], MarketParams()) == 0.0
    assert firm.inventory == 0.0


def test_produce_linear_in_alpha():
    params = MarketParams(productivity_alpha=1.0, qualification_exponent_beta=1.0)
    firm = make_firm()
    assert produce(firm, [1], params) == 1.0


def test_produce_accumulates_inventory():
    firm = make_firm(inventory=3.0)
    produce(firm, [1], MarketParams(productivity_alpha=1.0, qualification_exponent_beta=1.0))
    assert firm.inventory == 4.0


def test_market_params_validation():
    with pytest.raises(ValidationError):
        MarketParams(productivity_alpha=0.0).validate()
    with pytest.raises(ValidationError):
        MarketParams(qualification_exponent_beta=0.0).validate()
    with pytest.raises(ValidationError):
        MarketParams(savings_rate_bounds=(0.5, 0.2)).validate()
    with pytest.raises(ValidationError):
        MarketParams(proximity_hire_share=1.5).validate()
    MarketParams().validate()  # defaults are coherent


# ---------------------------------------------------------------------------
# Price and wage rules
# ---------------------------------------------------------------------------


def test_price_rises_when_sold_out():
    firm = make_firm(price=1.0, inventory=0.0)
    set_price(firm, MarketParams())
    assert firm.price == 1.05


def test_price_holds_in_band():
    firm = make_firm(price=1.0, inventory=1.0, last_production=1.0)
    set_price(firm, MarketParams())
    assert firm.price == 1.0


def test_price_cut_on_glut():
    firm = make_firm(price=1.0, inventory=5.0, last_production=1.0)
    set_price(firm, MarketParams(inventory_glut_months=2.0))
    assert firm.price == 0.95


def test_price_floor_clamps():
    firm = make_firm(price=0.0105, inventory=5.0, last_production=1.0)
    for _ in range(10):
        set_price(firm, MarketParams())
    assert firm.price == MarketParams().price_floor


def test_wage_raised_after_unfilled_vacancy():
    firm = make_firm(wage_offer=1.0, vacancy_unfilled=True)
    set_wage_and_vacancy(firm, MarketParams())
    assert firm.wage_offer == 1.05
    assert not firm.vacancy_unfilled  # signal consumed once


def test_wage_cut_when_cash_short():
    firm = make_firm(cash=50.0, wage_offer=1.0, payroll_this_month=80.0)
    set_wage_and_vacancy(firm, MarketParams())
    assert firm.wage_offer == 0.95


def test_wage_steady_otherwise():
    firm = make_firm(cash=100.0, wage_offer=1.0, payroll_this_month=80.0)
    set_wage_and_vacancy(firm, MarketParams())
    assert firm.wage_offer == 1.0


def test_vacancy_posted_iff_inventory_cleared():
    cleared = make_firm(inventory=0.0)
    assert set_wage_and_vacancy(cleared, MarketParams()) is True
    stocked = make_firm(inventory=2.0)
    assert set_wage_and_vacancy(stocked, MarketParams()) is False


# ---------------------------------------------------------------------------
# Labor market
# ---------------------------------------------------------------------------


def test_higher_wage_firm_picks_first():
    low = make_firm(firm_id=0, wage_offer=10.0)
    high = make_firm(firm_id=1, wage_offer=20.0)
    worker = make_citizen(0)
    matches = run_labor_market(
        [low, high], [worker], {0: (0.0, 0.0)},
        MarketParams(proximity_hire_share=0.0), rng(),
    )
    assert matches == [(1, 0)]
    assert low.vacancy_unfilled and not high.vacancy_unfilled


def test_each_candidate_hired_at_most_once():
    firms = [make_firm(firm_id=i, wage_offer=1.0 + i) for i in range(5)]
    workers = [make_citizen(i) for i in range(3)]
    residences = {c.id: (0.0, 0.0) for c in workers}
    matches = run_labor_market(firms, workers, residences,
                               MarketParams(proximity_hire_share=0.0), rng())
    assert len(matches) == 3
    hired = [cid for _, cid in matches]
    assert len(set(hired)) == 3
    unfilled = [f for f in firms if f.vacancy_unfilled]
    assert len(unfilled) == 2  # two lowest-wage firms found an empty pool


def test_qualification_wins_without_proximity():
    firm = make_firm()
    weak = make_citizen(0, qual=1)
    strong = make_citizen(1, qual=9)
    matches = run_labor_market(
        [firm], [weak, strong], {0: (0.0, 0.0), 1: (0.0, 0.0)},
        MarketParams(proximity_hire_share=0.0), rng(),
    )
    assert matches == [(0, 1)]


def test_proximity_one_prefers_nearby_over_qualified():
    firm = make_firm()
    near_weak = make_citizen(0, qual=1)
    far_strong = make_citizen(1, qual=9)
    residences = {0: (1.0, 0.0), 1: (5.0, 0.0)}
    matches = run_labor_market(
        [firm], [near_weak, far_strong], residences,
        MarketParams(proximity_hire_share=1.0), rng(),
    )
    assert matches == [(0, 0)]


# ---------------------------------------------------------------------------
# Wages and the income tax
# ---------------------------------------------------------------------------


def test_pay_wages_worked_example():
    firm = make_firm(cash=150.0)
    worker = make_citizen(0, wage=100.0)
    worker.employer_id = firm.id
    firm.employees = [0]
    family = Family(id=0, municipality_id="m00", members=[0], savings=0.0)
    ledger = TaxLedger()
    paid = pay_wages(firm, {0: worker}, {0: family}, TaxRates(personal_income=0.275), ledger)
    assert paid == 100.0
    assert family.savings == pytest.approx(72.5, rel=1e-12)
    assert ledger.by_kind(TaxKind.PERSONAL_INCOME)["m00"] == pytest.approx(27.5, rel=1e-12)
    assert firm.cash == 50.0
    assert firm.cumulative_profit == -100.0


def test_zero_income_tax_rate_writes_no_event():
    firm = make_firm(cash=10.0)
    worker = make_citizen(0, wage=5.0)
    firm.employees = [0]
    family = Family(id=0, municipality_id="m00", members=[0])
    ledger = TaxLedger()
    pay_wages(firm, {0: worker}, {0: family}, TaxRates(personal_income=0.0), ledger)
    assert family.savings == 5.0
    assert ledger.event_count == 0


def test_fire_and_shrink_releases_least_qualified():
    firm = make_firm(cash=100.0)
    senior = make_citizen(0, qual=5, wage=80.0)
    junior = make_citizen(1, qual=2, wage=70.0)
    for worker in (senior, junior):
        worker.employer_id = firm.id
    firm.employees = [0, 1]
    families = {
        0: Family(id=0, municipality_id="m00", members=[0]),
        1: Family(id=1, municipality_id="m00", members=[1]),
    }
    ledger = TaxLedger()
    paid = pay_wages(firm, {0: senior, 1: junior}, families, TaxRates(), ledger)
    assert paid == 80.0  # junior released; senior affordable
    assert firm.employees == [0]
    assert junior.employer_id is None and junior.monthly_wage == 0.0
    assert senior.employer_id == firm.id
    assert firm.cash == 20.0
    assert families[1].savings == 0.0


def test_pay_wages_empty_firm_is_noop():
    firm = make_firm()
    assert pay_wages(firm, {}, {}, TaxRates(), TaxLedger()) == 0.0


# ---------------------------------------------------------------------------
# Consumption and its tax
# ---------------------------------------------------------------------------


def test_consume_worked_example():
    family = Family(id=0, municipality_id="m00", savings=10.0)
    firm = make_firm(price=2.0, inventory=10.0, cash=0.0)
    ledger = TaxLedger()
    units, spent = consume(family, [firm], 0.0, TaxRates(consumption=0.2), ledger)
    assert units == 5.0
    assert spent == 10.0
    assert firm.cash == 8.0  # net of the 20% consumption tax
    assert ledger.by_kind(TaxKind.CONSUMPTION) == {"m00": 2.0}
    assert family.savings == 0.0


def test_consume_cheapest_first():
    family = Family(id=0, municipality_id="m00", savings=4.0)
    pricey = make_firm(firm_id=0, price=4.0, inventory=10.0)
    cheap = make_firm(firm_id=1, price=1.0, inventory=2.0)
    units, spent = consume(family, [pricey, cheap], 0.0, TaxRates(consumption=0.0),
                           ledger=TaxLedger())
    # 2 units at 1.0 exhaust the cheap firm, the remaining 2.0 buys 0.5 units at 4.0
    assert units == 2.5
    assert spent == 4.0
    assert cheap.inventory == 0.0
    assert pricey.inventory == 9.5


def test_consume_limited_by_inventory_keeps_rest_saved():
    family = Family(id=0, municipality_id="m00", savings=10.0)
    firm = make_firm(price=1.0, inventory=3.0)
    units, spent = consume(family, [firm], 0.0, TaxRates(), TaxLedger())
    assert units == 3.0
    assert spent == 3.0
    assert family.savings == 7.0


def test_consume_respects_savings_rate():
    family = Family(id=0, municipality_id="m00", savings=100.0)
    firm = make_firm(price=1.0, inventory=1000.0)
    units, spent = consume(family, [firm], 0.5, TaxRates(consumption=0.0), TaxLedger())
    assert spent == 50.0
    assert family.savings == 50.0


def test_consume_money_conserved():
    family = Family(id=0, municipality_id="m00", savings=37.0)
    firms = [make_firm(firm_id=i, price=1.0 + i, inventory=5.0, cash=0.0) for i in range(3)]
    ledger = TaxLedger()
    before = family.savings
    units, spent = consume(family, firms, 0.1, TaxRates(consumption=0.18), ledger)
    after = family.savings + sum(f.cash for f in firms) + ledger.total()
    assert math.isclose(after, before, rel_tol=0, abs_tol=1e-12)


def test_broke_family_buys_nothing():
    family = Family(id=0, municipality_id="m00", savings=0.0)
    firm = make_firm(inventory=10.0)
    assert consume(family, [firm], 0.1, TaxRates(), TaxLedger()) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Profit tax
# ---------------------------------------------------------------------------


def test_profit_tax_worked_example():
    firm = make_firm(cash=1000.0, cumulative_profit=1000.0)
    ledger = TaxLedger()
    tax = settle_profit_tax(firm, TaxRates(company=0.15), ledger)
    assert tax == 150.0
    assert firm.cash == 850.0
    assert firm.cumulative_profit == 0.0
    assert ledger.by_kind(TaxKind.COMPANY) == {"m00": 150.0}


def test_losses_untaxed_but_reset():
    firm = make_firm(cash=100.0, cumulative_profit=-40.0)
    ledger = TaxLedger()
    assert settle_profit_tax(firm, TaxRates(), ledger) == 0.0
    assert firm.cumulative_profit == 0.0
    assert firm.cash == 100.0
    assert ledger.event_count == 0
