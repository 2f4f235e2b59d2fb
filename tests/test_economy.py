"""Production, pricing, wages, the labor market, and household consumption."""
import copy
import math
from dataclasses import dataclass
from operator import add, attrgetter, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrosim.demographics import _remove_citizen
from metrosim.economy import (
    Firm,
    MarketParams,
    consume,
    output_per_worker,
    pay_wages,
    produce,
    rank_samples,
    run_labor_market,
    set_price,
    set_wage_and_vacancy,
    settle_profit_tax,
    shopping_budgets,
)
from metrosim.errors import ValidationError
from metrosim.fiscal import TaxKind, TaxLedger, TaxRates

from conftest import add_family, members, rng


def make_firm(firm_id=0, muni=0, cash=100.0, **overrides):
    firm = Firm(id=firm_id, municipality=muni, location=(0.0, 0.0), cash=cash)
    for name, value in overrides.items():
        setattr(firm, name, value)
    return firm


def employer_column(n, firm_id=None):
    """An ``employer`` column for citizens ``0..n-1``, all at ``firm_id`` (or none)."""
    return np.full(n, -1 if firm_id is None else firm_id, dtype=np.int64)


def qualification_column(quals):
    return np.array(quals, dtype=np.int64)


def produce_one(firm, quals, params):
    """``firm`` alone, employing citizens ``0..len(quals)-1`` of these qualifications."""
    firm.employees = list(range(len(quals)))
    (units,) = produce([firm], qualification_column(quals), output_per_worker(params, 21), params)
    return units


def pay(firms, savings, quals, wages, employer, rates):
    """``pay_wages`` for ``firms``, citizen ``i`` being the one member of family ``i``.

    ``quals`` and ``wages`` give citizens ``0..n-1``, and ``savings`` is the
    family column; returns the ``wage`` column and the income-tax entries as
    lists.
    """
    family = np.arange(len(quals), dtype=np.int64)
    wage = np.array(wages, dtype=float)
    munis, amounts = pay_wages(firms, savings, family, qualification_column(quals), wage,
                               employer, rates)
    return wage, (munis.tolist(), amounts.tolist())


# ---------------------------------------------------------------------------
# Production
# ---------------------------------------------------------------------------


def test_produce_worked_example():
    firm = make_firm()
    params = MarketParams(productivity_alpha=2.0, qualification_exponent_beta=0.5)
    units = produce_one(firm, [1, 4, 9], params)
    assert units == 2.0 * (1.0 + 2.0 + 3.0)  # 2 * (1 + sqrt(4) + sqrt(9))
    assert firm.inventory == 12.0
    assert firm.last_production == 12.0


def test_produce_without_employees():
    firm = make_firm()
    assert produce_one(firm, [], MarketParams()) == 0.0
    assert firm.inventory == 0.0


def test_produce_linear_in_alpha():
    params = MarketParams(productivity_alpha=1.0, qualification_exponent_beta=1.0)
    firm = make_firm()
    assert produce_one(firm, [1], params) == 1.0


def test_produce_accumulates_inventory():
    firm = make_firm(inventory=3.0)
    produce_one(firm, [1], MarketParams(productivity_alpha=1.0, qualification_exponent_beta=1.0))
    assert firm.inventory == 4.0


def test_output_per_worker_is_the_python_power():
    params = MarketParams(qualification_exponent_beta=0.37)
    table = output_per_worker(params, 21)
    assert [v.hex() for v in table.tolist()] == [(q**0.37).hex() for q in range(22)]


def test_market_params_validation():
    with pytest.raises(ValidationError):
        MarketParams(productivity_alpha=0.0).validate()
    with pytest.raises(ValidationError):
        MarketParams(qualification_exponent_beta=0.0).validate()
    with pytest.raises(ValidationError):
        MarketParams(savings_rate_bounds=(0.5, 0.2)).validate()
    with pytest.raises(ValidationError):
        MarketParams(proximity_hire_share=1.5).validate()
    for field, value in (("price_step", -0.01), ("price_step", 1.0), ("wage_step", 2.5),
                         ("wage_step", -0.5), ("inventory_glut_months", -1.0),
                         ("sold_out_level", -1e-9)):
        with pytest.raises(ValidationError, match=field):
            MarketParams(**{field: value}).validate()
    MarketParams().validate()  # defaults are coherent
    MarketParams(price_step=0.0, wage_step=0.0, inventory_glut_months=0.0,
                 sold_out_level=0.0).validate()


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
    matches = run_labor_market(
        [low, high], [0], qualification_column([5]), {0: (0.0, 0.0)},
        MarketParams(proximity_hire_share=0.0), rng(),
    )
    assert matches == [(1, 0)]
    assert low.vacancy_unfilled and not high.vacancy_unfilled


def test_each_candidate_hired_at_most_once():
    firms = [make_firm(firm_id=i, wage_offer=1.0 + i) for i in range(5)]
    workers = [0, 1, 2]
    residences = {cid: (0.0, 0.0) for cid in workers}
    matches = run_labor_market(firms, workers, qualification_column([5, 5, 5]), residences,
                               MarketParams(proximity_hire_share=0.0), rng())
    assert len(matches) == 3
    hired = [cid for _, cid in matches]
    assert len(set(hired)) == 3
    unfilled = [f for f in firms if f.vacancy_unfilled]
    assert len(unfilled) == 2  # two lowest-wage firms found an empty pool


def test_qualification_wins_without_proximity():
    firm = make_firm()
    weak, strong = 0, 1
    matches = run_labor_market(
        [firm], [weak, strong], qualification_column([1, 9]), {0: (0.0, 0.0), 1: (0.0, 0.0)},
        MarketParams(proximity_hire_share=0.0), rng(),
    )
    assert matches == [(0, 1)]


def test_proximity_one_prefers_nearby_over_qualified():
    firm = make_firm()
    near_weak, far_strong = 0, 1
    residences = {0: (1.0, 0.0), 1: (5.0, 0.0)}
    matches = run_labor_market(
        [firm], [near_weak, far_strong], qualification_column([1, 9]), residences,
        MarketParams(proximity_hire_share=1.0), rng(),
    )
    assert matches == [(0, 0)]


def test_residences_resolve_each_housed_citizen(make_state):
    state = make_state()
    housed = add_family(state, 0, [3, 4], location=(3.0, 4.0))
    widowed = add_family(state, 0, [5, 6])
    [dead, _] = members(state, widowed)
    _remove_citizen(state, dead)
    residences = state.residences()
    assert [residences[cid] for cid in members(state, housed)] == [(3.0, 4.0)] * 2
    with pytest.raises(KeyError):
        residences[dead]
    with pytest.raises(KeyError):
        run_labor_market([make_firm()], [dead], state.qualification, residences,
                         MarketParams(proximity_hire_share=1.0), rng())


# ---------------------------------------------------------------------------
# Wages and the income tax
# ---------------------------------------------------------------------------


def test_pay_wages_worked_example():
    firm = make_firm(cash=150.0)
    firm.employees = [0]
    savings = np.zeros(1)
    _, taxes = pay([firm], savings, [5], [100.0], employer_column(1, firm.id),
                   TaxRates(personal_income=0.275))
    assert firm.payroll_this_month == 100.0
    assert savings[0] == pytest.approx(72.5, rel=1e-12)
    assert taxes == ([0], [pytest.approx(27.5, rel=1e-12)])
    assert firm.cash == 50.0
    assert firm.cumulative_profit == -100.0


def test_zero_income_tax_rate_writes_no_event():
    firm = make_firm(cash=10.0)
    firm.employees = [0]
    savings = np.zeros(1)
    ledger = TaxLedger(1)
    _, taxes = pay([firm], savings, [5], [5.0], employer_column(1, firm.id),
                   TaxRates(personal_income=0.0))
    ledger.add_all(TaxKind.PERSONAL_INCOME, *taxes)
    assert savings[0] == 5.0
    assert ledger.event_count == 0


def test_fire_and_shrink_releases_least_qualified():
    firm = make_firm(cash=100.0)
    senior, junior = 0, 1
    employer = employer_column(2, firm.id)
    firm.employees = [senior, junior]
    savings = np.zeros(2)
    wage, _ = pay([firm], savings, [5, 2], [80.0, 70.0], employer, TaxRates())
    assert firm.payroll_this_month == 80.0  # junior released; senior affordable
    assert firm.employees == [senior]
    assert employer[junior] == -1 and wage[junior] == 0.0
    assert employer[senior] == firm.id and wage[senior] == 80.0
    assert firm.cash == 20.0
    assert savings[junior] == 0.0


def test_pay_wages_empty_firm_is_noop():
    firm = make_firm(cash=10.0)
    _, taxes = pay([firm], np.zeros(0), [], [], employer_column(0), TaxRates())
    assert firm.payroll_this_month == 0.0
    assert firm.cash == 10.0
    assert taxes == ([], [])


def test_payroll_resets_when_the_last_employee_is_gone():
    # a firm whose only worker died must not carry last month's payroll into
    # its wage decision (and into the profit metric)
    firm = make_firm(cash=150.0)
    employer = employer_column(1, firm.id)
    firm.employees = [0]
    savings = np.zeros(1)
    pay([firm], savings, [5], [100.0], employer, TaxRates())
    assert firm.payroll_this_month == 100.0
    firm.employees.remove(0)
    pay([firm], savings, [5], [100.0], employer, TaxRates())
    assert firm.payroll_this_month == 0.0
    firm.wage_offer = 1.0
    set_wage_and_vacancy(firm, MarketParams())
    assert firm.wage_offer == 1.0


@dataclass
class Worker:
    """A citizen as the per-firm references see it: qualification and wage on the record."""

    id: int
    qualification: int
    family_id: int
    monthly_wage: float


def produce_one_firm(firm, qualifications, params) -> float:
    """Reference: one firm's output, summed employee by employee."""
    beta = params.qualification_exponent_beta
    total = 0.0
    for q in qualifications:
        total += q**beta
    units = params.productivity_alpha * total
    firm.inventory += units
    firm.last_production = units
    return units


def pay_wages_one_firm(firm, workers, savings, employer, rates, taxes) -> None:
    """Reference: one firm's payroll, released and paid employee by employee, each
    take-home pay credited to ``savings`` (a list by family id) in turn."""
    staff = [workers[cid] for cid in firm.employees]
    payroll = 0.0
    for citizen in staff:
        payroll += citizen.monthly_wage
    if firm.cash < payroll:
        staff.sort(key=lambda c: (c.qualification, -c.id), reverse=True)
        while staff and firm.cash < payroll:
            released = staff.pop()
            payroll -= released.monthly_wage
            employer[released.id] = -1
            released.monthly_wage = 0.0
        firm.employees = [citizen.id for citizen in staff]
    rate = rates.personal_income
    for citizen in staff:
        wage = citizen.monthly_wage
        tax = wage * rate
        savings[citizen.family_id] += wage - tax
        taxes.append((firm.municipality, tax))
    firm.cash -= payroll
    firm.cumulative_profit -= payroll
    firm.payroll_this_month = payroll


def random_payroll_world(seed):
    """Firms, families and employed citizens for one month of production and pay.

    Firm 0 employs nobody in half the worlds, some firms cannot cover their
    payroll, families have earners at several firms, and a third of the
    worlds have no income tax.
    """
    gen = rng(seed)
    n_firms = int(gen.integers(1, 6))
    n_citizens = int(gen.integers(0, 16))
    n_families = int(gen.integers(1, 6))
    quals = gen.integers(1, 22, size=n_citizens).tolist()
    wages = gen.uniform(0.5, 2.0, size=n_citizens).tolist()
    family_of = gen.integers(0, n_families, size=n_citizens).tolist()
    first_hiring = int(gen.integers(0, 2)) if n_firms > 1 else 0
    employer = [
        -1 if gen.random() < 0.2 else int(gen.integers(first_hiring, n_firms))
        for _ in range(n_citizens)
    ]
    firms = [make_firm(firm_id=i, muni=i % 3, inventory=float(gen.uniform(0.0, 2.0)))
             for i in range(n_firms)]
    for cid in gen.permutation(n_citizens).tolist():  # payrolls not in id order
        if employer[cid] >= 0:
            firms[employer[cid]].employees.append(cid)
    for firm in firms:
        payroll = sum(wages[cid] for cid in firm.employees)
        firm.cash = float(gen.uniform(0.0, 1.5)) * payroll
        firm.cumulative_profit = float(gen.uniform(-2.0, 2.0))
    savings = gen.uniform(0.0, 5.0, size=n_families)
    params = MarketParams(productivity_alpha=float(gen.uniform(0.5, 2.0)),
                          qualification_exponent_beta=float(gen.choice([0.5, 1.0, gen.random()])))
    rates = TaxRates(personal_income=float(gen.choice([0.0, 0.275, gen.random() * 0.9])))
    workers = {cid: Worker(cid, quals[cid], family_of[cid], wages[cid] if employer[cid] >= 0 else 0.0)
               for cid in range(n_citizens)}
    return firms, savings, workers, employer, params, rates


def firm_fields(firms):
    return [
        (f.employees, f.inventory.hex(), f.last_production.hex(), f.cash.hex(),
         f.cumulative_profit.hex(), f.payroll_this_month.hex())
        for f in firms
    ]


PAYROLL_SEEDS = range(150)


def test_random_payroll_worlds_cover_the_edge_cases():
    worlds = [random_payroll_world(seed) for seed in PAYROLL_SEEDS]
    assert any(not w[0][0].employees for w in worlds)
    assert any(sum(w.monthly_wage for w in world[2].values() if w.id in f.employees) > f.cash
               for world in worlds for f in world[0])
    assert any(world[5].personal_income == 0.0 for world in worlds)
    assert any(
        len({employer[cid] for cid, w in workers.items() if w.family_id == fam and employer[cid] >= 0})
        >= 2
        for _, savings, workers, employer, _, _ in worlds for fam in range(len(savings))
    )


@pytest.mark.parametrize("seed", PAYROLL_SEEDS)
def test_month_production_and_payroll_match_per_firm_references_bit_for_bit(seed):
    firms, savings, workers, employer_ids, params, rates = random_payroll_world(seed)
    ref_firms, ref_workers = copy.deepcopy((firms, workers))
    ref_savings = savings.tolist()
    n = len(workers)
    qualification = qualification_column([w.qualification for w in workers.values()])
    wage = np.array([w.monthly_wage for w in workers.values()], dtype=float)
    employer = np.array(employer_ids, dtype=np.int64)
    ref_employer = employer.copy()

    units = produce(firms, qualification, output_per_worker(params, 21), params)
    family = np.array([w.family_id for w in workers.values()], dtype=np.int64)
    taxes = pay_wages(firms, savings, family, qualification, wage, employer, rates)

    ref_units = [
        produce_one_firm(firm, [ref_workers[cid].qualification for cid in firm.employees], params)
        for firm in ref_firms
    ]
    ref_taxes = []
    for firm in ref_firms:
        pay_wages_one_firm(firm, ref_workers, ref_savings, ref_employer, rates, ref_taxes)

    assert [u.hex() for u in units] == [u.hex() for u in ref_units]
    assert firm_fields(firms) == firm_fields(ref_firms)
    assert [s.hex() for s in savings.tolist()] == [s.hex() for s in ref_savings]
    assert employer.tolist() == ref_employer.tolist()
    assert [w.hex() for w in wage.tolist()] == [ref_workers[cid].monthly_wage.hex() for cid in range(n)]
    assert [(m, t.hex()) for m, t in zip(*(a.tolist() for a in taxes))] == [
        (m, t.hex()) for m, t in ref_taxes
    ]


def reference_credit_wages(savings: list, family_ids: list, take_home: list) -> None:
    """The per-employee wage credit that ``pay_wages``' one ``np.add.at`` replaced."""
    for fam_id, pay in zip(family_ids, take_home):
        savings[fam_id] += pay


@settings(max_examples=200, deadline=None)
@given(
    savings=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
    staff=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), st.floats(0.01, 3.0)),
                   max_size=24),
    rate=st.sampled_from([0.0, 0.275, 0.9]),
)
def test_wage_credits_match_the_per_employee_loop(savings, staff, rate):
    # (firm, family, wage) per employee: families earn at several firms, and
    # a family row past the payroll's families gets nothing
    firms = [make_firm(firm_id=i, muni=i, cash=100.0) for i in range(3)]
    for cid, (firm_id, _, _) in enumerate(staff):
        firms[firm_id].employees.append(cid)
    family = np.array([fam % len(savings) for _, fam, _ in staff], dtype=np.int64)
    wage = np.array([w for _, _, w in staff])
    column = np.array(savings + [7.0])
    pay_wages(firms, column, family, qualification_column([5] * len(staff)), wage,
              employer_column(len(staff), 0), TaxRates(personal_income=rate))
    expected = savings + [7.0]
    order = [cid for firm in firms for cid in firm.employees]
    reference_credit_wages(
        expected, family[order].tolist(), [w - w * rate for w in wage[order].tolist()]
    )
    assert [s.hex() for s in column.tolist()] == [s.hex() for s in expected]


# ---------------------------------------------------------------------------
# Consumption and its tax
# ---------------------------------------------------------------------------


def shop(savings, firms, savings_rate, rates):
    """Family 0 of the ``savings`` column buying from ``firms`` in the order given,
    through the month-wide passes; returns ``consume``'s result."""
    shopping, budgets = shopping_budgets(savings, np.array([0]), np.array([savings_rate]))
    rows = np.tile(np.arange(len(firms)), (len(shopping), 1))
    return consume(savings, shopping, budgets, firms, rows, rates)


def test_consume_worked_example():
    savings = np.array([10.0])
    firm = make_firm(price=2.0, inventory=10.0, cash=0.0)
    ledger = TaxLedger(1)
    units, spent, *taxes = shop(savings, [firm], 0.0, TaxRates(consumption=0.2))
    ledger.add_all(TaxKind.CONSUMPTION, *taxes)
    assert units == 5.0
    assert spent == 10.0
    assert firm.cash == 8.0  # net of the 20% consumption tax
    assert ledger.by_kind(TaxKind.CONSUMPTION) == {0: 2.0}
    assert savings[0] == 0.0


def test_rank_samples_orders_by_price_then_id():
    # equal prices tie on id; repeated picks stay, side by side
    prices = [2.0, 1.0, 2.0, 1.0, 0.5]
    firms = [make_firm(firm_id=10 + i, price=p) for i, p in enumerate(prices)]
    picks = np.array([[0, 2, 1, 1], [3, 0, 3, 2], [4, 4, 4, 4]])
    ranked, rows = rank_samples(firms, picks)
    assert [[ranked[r].id for r in row] for row in rows] == [
        [11, 11, 10, 12], [13, 13, 10, 12], [14, 14, 14, 14],
    ]


def test_rank_samples_matches_sorting_each_sample():
    gen = rng(3)
    prices = gen.choice([0.5, 1.0, 1.05, 2.0], size=12).tolist()
    firms = [make_firm(firm_id=i, price=p) for i, p in zip(gen.permutation(12).tolist(), prices)]
    picks = gen.integers(0, len(firms), size=(50, 10))
    by_price_then_id = attrgetter("price", "id")
    expected = [sorted((firms[j] for j in row), key=by_price_then_id) for row in picks.tolist()]
    ranked, rows = rank_samples(firms, picks)
    assert [[ranked[r] for r in row] for row in rows] == expected


def test_consume_cheapest_first():
    savings = np.array([4.0])
    pricey = make_firm(firm_id=0, price=4.0, inventory=10.0)
    cheap = make_firm(firm_id=1, price=1.0, inventory=2.0)
    ranked, rows = rank_samples([pricey, cheap], np.array([[0, 1]]))
    units, spent, *_ = consume(savings, np.array([0]), np.array([4.0]), ranked, rows,
                               TaxRates(consumption=0.0))
    # 2 units at 1.0 exhaust the cheap firm, the remaining 2.0 buys 0.5 units at 4.0
    assert units == 2.5
    assert spent == 4.0
    assert cheap.inventory == 0.0
    assert pricey.inventory == 9.5


def test_consume_limited_by_inventory_keeps_rest_saved():
    savings = np.array([10.0])
    firm = make_firm(price=1.0, inventory=3.0)
    units, spent, *_ = shop(savings, [firm], 0.0, TaxRates())
    assert units == 3.0
    assert spent == 3.0
    assert savings[0] == 7.0


def test_consume_respects_savings_rate():
    savings = np.array([100.0])
    firm = make_firm(price=1.0, inventory=1000.0)
    units, spent, *_ = shop(savings, [firm], 0.5, TaxRates(consumption=0.0))
    assert spent == 50.0
    assert savings[0] == 50.0


def test_consume_money_conserved():
    savings = np.array([37.0])
    firms = [make_firm(firm_id=i, price=1.0 + i, inventory=5.0, cash=0.0) for i in range(3)]
    ledger = TaxLedger(1)
    before = savings[0]
    units, spent, *taxes = shop(savings, firms, 0.1, TaxRates(consumption=0.18))
    ledger.add_all(TaxKind.CONSUMPTION, *taxes)
    after = savings[0] + sum(f.cash for f in firms) + sum(ledger.total_by_kind().values())
    assert math.isclose(after, before, rel_tol=0, abs_tol=1e-12)


def test_broke_family_buys_nothing():
    savings = np.array([0.0])
    firm = make_firm(inventory=10.0)
    units, spent, munis, amounts = shop(savings, [firm], 0.1, TaxRates())
    assert (units, spent, munis.tolist(), amounts.tolist()) == (0.0, 0.0, [], [])
    assert firm.inventory == 10.0


class ListedRows(np.ndarray):
    """A rank matrix that records the length of every block of rows turned into lists."""

    def __array_finalize__(self, obj):
        self.listed = getattr(obj, "listed", None)

    def tolist(self):
        self.listed.append(len(self))
        return super().tolist()


def test_consume_reads_the_sample_only_as_far_as_it_buys():
    # three firms with 5.0 units at 1.0; each shopper's row is all three, cheapest first
    firms = [make_firm(firm_id=i, price=1.0, inventory=5.0, cash=0.0) for i in range(3)]
    savings = np.array([0.0, 2.0, 2.0, 2.0, 2.0])  # family 0 is broke
    shopping, budgets = shopping_budgets(savings, np.arange(5), np.zeros(5))
    assert shopping.tolist() == [1, 2, 3, 4]  # no budget, no shopping
    rows = np.tile(np.arange(3), (4, 1)).view(ListedRows)
    rows.listed = []
    units, spent, munis, amounts = consume(savings, shopping, budgets, firms, rows,
                                           TaxRates(consumption=0.25))
    assert (units, spent) == (8.0, 8.0)
    # the third shopper's 2.0 units reach firm 0's last 1.0: the pass ends there,
    # and only the rows from it on become lists, for the walk
    assert rows.listed == [2]
    assert [f.inventory for f in firms] == [0.0, 2.0, 5.0]
    assert [f.cash for f in firms] == [3.75, 2.25, 0.0]  # firm 2 is never reached
    assert (munis.tolist(), amounts.tolist()) == ([0, 0, 0, 0, 0], [0.5, 0.5, 0.25, 0.25, 0.5])
    assert savings.tolist() == [0.0] * 5


def consume_one_family(
    savings: list, family_id: int, firm_sample, savings_rate: float, rates: TaxRates,
    taxes: list,
) -> tuple[float, float]:
    """Reference: one family's purchases, written straight onto the firms and onto
    ``savings`` (a list by family id)."""
    budget = (1.0 - savings_rate) * savings[family_id]
    if budget <= 1e-12:
        return 0.0, 0.0
    rate = rates.consumption
    units_total = 0.0
    spent_total = 0.0
    for firm in firm_sample:
        if firm.inventory <= 0.0:
            continue
        units = min(budget / firm.price, firm.inventory)
        spent = units * firm.price
        firm.inventory -= units
        tax = spent * rate
        firm.cash += spent - tax
        firm.revenue_this_month += spent - tax
        firm.cumulative_profit += spent - tax
        if tax:
            taxes.append((firm.municipality, tax))
        budget -= spent
        units_total += units
        spent_total += spent
        if budget <= 1e-12:
            break
    savings[family_id] -= spent_total
    return units_total, spent_total


def random_market(seed):
    """Firms and families' savings for one month of shopping.

    Prices tie, samples repeat firms, some firms start sold out, some
    families are broke, and a third of the markets have no consumption tax.
    """
    gen = rng(seed)
    n_firms = int(gen.integers(1, 7))
    firms = [
        make_firm(
            firm_id=i, muni=i % 2,
            cash=float(gen.uniform(0.0, 20.0)),
            price=float(gen.choice([0.5, 1.0, 1.0 + gen.random()])),
            inventory=0.0 if gen.random() < 0.3 else float(gen.uniform(0.0, 3.0)),
            revenue_this_month=float(gen.uniform(0.0, 3.0)),
            cumulative_profit=float(gen.uniform(-5.0, 5.0)),
        )
        for i in range(n_firms)
    ]
    n_families = int(gen.integers(1, 13))
    savings = np.array([
        0.0 if gen.random() < 0.25 else float(gen.uniform(0.0, 15.0)) for _ in range(n_families)
    ])
    picks = gen.integers(0, n_firms, size=(n_families, int(gen.integers(1, 6))))
    savings_rates = gen.uniform(0.0, 0.3, size=n_families)
    rates = TaxRates(consumption=float(gen.choice([0.0, 0.18, gen.random()])))
    return firms, savings, picks, savings_rates, rates


def rich_market(seed):
    """A market of budgets from 1e4 to 1e7 and stocks from 1e3 to 1e9 units.

    At such budgets ``budget - (budget / price) * price`` is often a
    rounding error above 1e-12, which sends the shopper on to its next firm
    with its first firm still in stock; some stocks run out as well.
    """
    gen = rng(seed)
    n_firms = int(gen.integers(1, 7))
    firms = [
        make_firm(
            firm_id=i, muni=i % 3,
            cash=float(gen.uniform(0.0, 1e6)),
            price=float(gen.choice([1.0, 1.0 + gen.random(), 0.5 + 4.0 * gen.random()])),
            inventory=0.0 if gen.random() < 0.2 else float(10.0 ** gen.uniform(3.0, 9.0)),
            revenue_this_month=float(gen.uniform(0.0, 1e4)),
            cumulative_profit=float(gen.uniform(-1e5, 1e5)),
        )
        for i in range(n_firms)
    ]
    n_families = int(gen.integers(1, 25))
    savings = 10.0 ** gen.uniform(4.0, 7.0, size=n_families)
    picks = gen.integers(0, n_firms, size=(n_families, int(gen.integers(1, 6))))
    savings_rates = gen.uniform(0.0, 0.3, size=n_families)
    rates = TaxRates(consumption=float(gen.choice([0.0, 0.18, gen.random()])))
    return firms, savings, picks, savings_rates, rates


def pass_end(market):
    """Where ``consume``'s pass must hand over to the walk: ``(why, place, shoppers)``.

    ``why`` is ``"stock-out"`` when a shopper's first purchase reaches its
    firm's stock, ``"budget"`` when it leaves more than 1e-12 of the budget,
    and None when every shopper spends its whole budget at its first firm in
    stock; ``place`` is that shopper's place among the month's shoppers.
    """
    firms, savings, picks, savings_rates, _ = copy.deepcopy(market)
    shopping, budgets = shopping_budgets(savings, np.arange(len(savings)), savings_rates)
    ranked, rows = rank_samples(firms, picks[shopping])
    for place, (budget, row) in enumerate(zip(budgets.tolist(), rows.tolist())):
        in_stock = [ranked[r] for r in row if ranked[r].inventory > 0.0]
        if not in_stock:
            continue
        firm = in_stock[0]
        units = budget / firm.price
        if units >= firm.inventory:
            return "stock-out", place, len(budgets)
        if budget - units * firm.price > 1e-12:
            return "budget", place, len(budgets)
        firm.inventory -= units
    return None, len(budgets), len(budgets)


MARKET_SEEDS = range(200)
RICH_MARKET_SEEDS = range(100)


def test_random_markets_cover_the_edge_cases():
    markets = [random_market(seed) for seed in MARKET_SEEDS]
    assert any(len(set(row)) < len(row) for m in markets for row in m[2].tolist())
    assert any(f.inventory == 0.0 for m in markets for f in m[0])
    assert any(s == 0.0 for m in markets for s in m[1].tolist())
    assert any(m[4].consumption == 0.0 for m in markets)


def test_markets_end_the_pass_everywhere_it_can_end():
    ends = [pass_end(random_market(seed)) for seed in MARKET_SEEDS]
    ends += [pass_end(rich_market(seed)) for seed in RICH_MARKET_SEEDS]
    stock_outs = [(place, n) for why, place, n in ends if why == "stock-out"]
    assert any(place == 0 and n > 1 for place, n in stock_outs)  # at the first shopper
    assert any(0 < place < n - 1 for place, n in stock_outs)  # in the middle
    assert any(place == n - 1 > 0 for place, n in stock_outs)  # at the last shopper
    assert any(why is None and n > 1 for why, _, n in ends)  # no stock-out all month
    # a budget left over at a firm still in stock, at the rich markets' budgets
    assert any(why == "budget" and place > 0 for why, place, _ in ends)


def assert_consume_matches_per_family_reference(market):
    firms, savings, picks, savings_rates, rates = market
    ref_firms = copy.deepcopy(firms)
    ref_savings = savings.tolist()

    families = np.arange(len(savings))
    shopping, budgets = shopping_budgets(savings, families, savings_rates)
    ranked, rows = rank_samples(firms, picks[shopping])
    units, spent, munis, amounts = consume(savings, families[shopping], budgets, ranked, rows,
                                           rates)

    ref_taxes = []
    ref_ranked, ref_rows = rank_samples(ref_firms, picks)
    ref_units = ref_spent = 0.0
    for family_id, (row, savings_rate) in enumerate(zip(ref_rows, savings_rates.tolist())):
        u, s = consume_one_family(
            ref_savings, family_id, [ref_ranked[r] for r in row], savings_rate, rates, ref_taxes
        )
        ref_units += u
        ref_spent += s

    assert money_fields(firms, savings.tolist()) == money_fields(ref_firms, ref_savings)
    assert [(m, t.hex()) for m, t in zip(munis.tolist(), amounts.tolist())] == [
        (m, t.hex()) for m, t in ref_taxes
    ]
    assert (units.hex(), spent.hex()) == (ref_units.hex(), ref_spent.hex())


def money_fields(firms, savings):
    return (
        [(f.inventory.hex(), f.cash.hex(), f.revenue_this_month.hex(),
          f.cumulative_profit.hex()) for f in firms],
        [s.hex() for s in savings],
    )


@pytest.mark.parametrize("seed", MARKET_SEEDS)
def test_month_consume_matches_per_family_reference_bit_for_bit(seed):
    assert_consume_matches_per_family_reference(random_market(seed))


@pytest.mark.parametrize("seed", RICH_MARKET_SEEDS)
def test_rich_month_consume_matches_per_family_reference_bit_for_bit(seed):
    assert_consume_matches_per_family_reference(rich_market(seed))


def left_fold(op, values):
    """Every partial result of folding ``values`` with ``op`` from the left."""
    out = [values[0]]
    for value in values[1:]:
        out.append(op(out[-1], value))
    return out


def hexes(values):
    return [v.hex() for v in values]


def fold_values(drawn, seed, extra):
    """``drawn`` then ``extra`` lognormal values of random sign, from 1e-5 to 1e6 or so."""
    gen = rng(seed)
    tail = gen.lognormal(0.0, 3.0, size=extra) * gen.choice([-1.0, 1.0], size=extra)
    return drawn + tail.tolist()


@settings(max_examples=100, deadline=None)
@given(
    drawn=st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
    extra=st.integers(0, 1500),
    width=st.integers(1, 60),
    slots=st.integers(1, 5),
)
def test_numpy_folds_in_consume_are_python_left_folds(drawn, seed, extra, width, slots):
    # consume relies on these three folding left to right, as its scalar walk
    # does; a numpy that changes one of them fails here, not only in a digest
    values = fold_values(drawn, seed, extra)
    # np.add.accumulate: the month totals over the pass
    assert hexes(np.add.accumulate(np.array(values)).tolist()) == hexes(
        left_fold(add, values))
    # np.subtract.accumulate along each row of a matrix padded with 0.0: a
    # firm's stock before each of its buyers
    matrix = np.array(values + [0.0] * (-len(values) % width)).reshape(-1, width)
    assert [hexes(row) for row in np.subtract.accumulate(matrix, axis=1).tolist()] == [
        hexes(left_fold(sub, row)) for row in matrix.tolist()
    ]
    # np.add.at with repeated indices: net takings in shopper order, per firm
    gen = rng(seed + 1)
    index = gen.integers(0, slots, size=len(values))
    starts = gen.uniform(-1e3, 1e3, size=slots)
    sums = starts.copy()
    np.add.at(sums, index, np.array(values))
    expected = starts.tolist()
    for i, value in zip(index.tolist(), values):
        expected[i] += value
    assert hexes(sums.tolist()) == hexes(expected)


# ---------------------------------------------------------------------------
# Profit tax
# ---------------------------------------------------------------------------


def test_profit_tax_worked_example():
    firm = make_firm(cash=1000.0, cumulative_profit=1000.0)
    taxes = ([], [])
    settle_profit_tax(firm, TaxRates(company=0.15), taxes)
    assert firm.cash == 850.0
    assert firm.cumulative_profit == 0.0
    assert taxes == ([0], [150.0])


def test_losses_untaxed_but_reset():
    firm = make_firm(cash=100.0, cumulative_profit=-40.0)
    taxes = ([], [])
    settle_profit_tax(firm, TaxRates(), taxes)
    assert firm.cumulative_profit == 0.0
    assert firm.cash == 100.0
    assert taxes == ([], [])
