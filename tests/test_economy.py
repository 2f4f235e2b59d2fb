"""Production, pricing, wages, the labor market, and household consumption."""
import math
from dataclasses import dataclass
from operator import add, sub

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metrosim.demographics import _remove_citizen
from metrosim.economy import (
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
from metrosim.fiscal import TaxKind, TaxLedger, TaxRates, Treasury
from metrosim.state import SimulationState

from conftest import add_family, add_firm, firm_bits, firm_records, members, rng


def make_firms(n=1, **columns):
    """A state with ``n`` firms and no citizens: municipality 0, cash 100.0,
    wage offer 1.0, and the ``add_firms`` defaults otherwise. Each keyword
    sets a firm column, to one value for every firm or one value per firm."""
    state = SimulationState()
    state.add_firms([0] * n, [0.0] * n, [0.0] * n, [1.0] * n, [100.0] * n)
    for name, value in columns.items():
        getattr(state, name)[:] = value
    return state


def set_citizens(state, quals, wages=None, employer=None, savings=None):
    """Citizens ``0..n-1`` of qualifications ``quals``: citizen ``i`` is the one
    member of family ``i`` (of ``savings``, 0.0 by default), earns ``wages[i]``
    (0.0 by default) and works for firm ``employer[i]`` (-1, none, by default).
    The firms' staff lists are left to the caller."""
    n = len(quals)
    state.qualification = np.array(quals, dtype=np.int64)
    state.wage = np.array([0.0] * n if wages is None else wages, dtype=float)
    state.employer = np.array([-1] * n if employer is None else employer, dtype=np.int64)
    state.family = np.arange(n, dtype=np.int64)
    state.alive = np.ones(n, dtype=bool)
    state.savings = np.zeros(n) if savings is None else np.array(savings, dtype=float)


def produce_one(quals, params, **columns):
    """One firm employing citizens ``0..len(quals)-1`` of these qualifications;
    returns the state and the firm's units."""
    state = make_firms(**columns)
    set_citizens(state, quals)
    state.employees[0] = list(range(len(quals)))
    (units,) = produce(state, output_per_worker(params, 21), params).tolist()
    return state, units


def pay(state, rates):
    """``pay_wages`` on ``state``; returns the income-tax entries as lists."""
    munis, amounts = pay_wages(state, rates)
    return munis.tolist(), amounts.tolist()


# ---------------------------------------------------------------------------
# Production
# ---------------------------------------------------------------------------


def test_produce_worked_example():
    params = MarketParams(productivity_alpha=2.0, qualification_exponent_beta=0.5)
    state, units = produce_one([1, 4, 9], params)
    assert units == 2.0 * (1.0 + 2.0 + 3.0)  # 2 * (1 + sqrt(4) + sqrt(9))
    assert state.inventory[0] == 12.0
    assert state.last_production[0] == 12.0


def test_produce_without_employees():
    state, units = produce_one([], MarketParams())
    assert units == 0.0
    assert state.inventory[0] == 0.0


def test_produce_linear_in_alpha():
    params = MarketParams(productivity_alpha=1.0, qualification_exponent_beta=1.0)
    assert produce_one([1], params)[1] == 1.0


def test_produce_accumulates_inventory():
    params = MarketParams(productivity_alpha=1.0, qualification_exponent_beta=1.0)
    state, _ = produce_one([1], params, inventory=3.0)
    assert state.inventory[0] == 4.0


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
    state = make_firms(price=1.0, inventory=0.0)
    set_price(state, MarketParams())
    assert state.price[0] == 1.05


def test_price_holds_in_band():
    state = make_firms(price=1.0, inventory=1.0, last_production=1.0)
    set_price(state, MarketParams())
    assert state.price[0] == 1.0


def test_price_cut_on_glut():
    state = make_firms(price=1.0, inventory=5.0, last_production=1.0)
    set_price(state, MarketParams(inventory_glut_months=2.0))
    assert state.price[0] == 0.95


def test_price_floor_clamps():
    state = make_firms(price=0.0105, inventory=5.0, last_production=1.0)
    for _ in range(10):
        set_price(state, MarketParams())
    assert state.price[0] == MarketParams().price_floor


def test_wage_raised_after_unfilled_vacancy():
    state = make_firms(wage_offer=1.0, vacancy_unfilled=True)
    set_wage_and_vacancy(state, MarketParams())
    assert state.wage_offer[0] == 1.05
    assert not state.vacancy_unfilled[0]  # signal consumed once


def test_wage_cut_when_cash_short():
    state = make_firms(cash=50.0, wage_offer=1.0, payroll_this_month=80.0)
    set_wage_and_vacancy(state, MarketParams())
    assert state.wage_offer[0] == 0.95


def test_wage_steady_otherwise():
    state = make_firms(cash=100.0, wage_offer=1.0, payroll_this_month=80.0)
    set_wage_and_vacancy(state, MarketParams())
    assert state.wage_offer[0] == 1.0


def test_vacancy_posted_iff_inventory_cleared():
    state = make_firms(3, inventory=[0.0, 2.0, 0.0])
    assert set_wage_and_vacancy(state, MarketParams()).tolist() == [0, 2]


def set_price_one_firm(firm, params):
    """Reference: one firm's price rule, on its record."""
    if firm.inventory <= params.sold_out_level:
        firm.price *= 1.0 + params.price_step
    elif firm.last_production > 0 and firm.inventory > params.inventory_glut_months * firm.last_production:
        firm.price *= 1.0 - params.price_step
    if firm.price < params.price_floor:
        firm.price = params.price_floor


def set_wage_and_vacancy_one_firm(firm, params) -> bool:
    """Reference: one firm's wage rule and vacancy decision, on its record."""
    payroll_due = firm.payroll_this_month
    if firm.vacancy_unfilled:
        firm.wage_offer *= 1.0 + params.wage_step
        firm.vacancy_unfilled = False
    elif payroll_due > 0 and firm.cash < payroll_due:
        firm.wage_offer *= 1.0 - params.wage_step
    return firm.inventory <= params.sold_out_level


def settle_profit_tax_one_firm(firm, rates, taxes):
    """Reference: one firm's profit tax, on its record, appended to ``taxes``."""
    profit = firm.cumulative_profit
    firm.cumulative_profit = 0.0
    if profit <= 0.0:
        return
    tax = profit * rates.company
    if tax:
        firm.cash -= tax
        taxes.append((firm.firm_municipality, tax))


FIRM_RULE_COLUMNS = ("inventory", "last_production", "price", "wage_offer", "cash",
                     "payroll_this_month", "vacancy_unfilled", "cumulative_profit")


def edge_firms(params):
    """One firm row (``FIRM_RULE_COLUMNS``) per edge of the firm rules under ``params``."""
    level, floor = params.sold_out_level, params.price_floor
    return [
        # stock exactly at the sold-out level, a profit
        (level, 1.0, 1.0, 1.0, 1.0, 0.5, False, 1.0),
        # a glut at the price floor, cash short of the payroll, zero profit
        (10.0, 1.0, floor, 1.0, 1.0, 2.0, False, 0.0),
        # a glut without production, an unfilled vacancy to consume, zero
        # payroll and no cash, a loss
        (10.0, 0.0, 1.0, 1.0, 0.0, 0.0, True, -1.0),
        # below the floor already, sold out
        (0.0, 0.0, floor / 2, 1.0, 1.0, 1.0, True, 5.0),
        # zero payroll with cash below zero, as a fire-and-shrink residual leaves it
        (1.0, 1.0, 1.0, 1.0, -2.78e-17, 0.0, False, 0.0),
    ]


firm_rule_rows = st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0.0, 10.0)),  # inventory
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),  # last production
    st.floats(0.001, 3.0),  # price, sometimes below the floor
    st.floats(0.01, 3.0),  # wage offer
    st.floats(0.0, 10.0),  # cash
    st.one_of(st.just(0.0), st.floats(0.0, 10.0)),  # payroll
    st.booleans(),  # vacancy unfilled
    st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),  # profit
), max_size=12)

market_rules = st.builds(
    MarketParams,
    price_step=st.sampled_from([0.0, 0.05, 0.5]),
    wage_step=st.sampled_from([0.0, 0.05, 0.5]),
    price_floor=st.sampled_from([0.01, 0.5]),
    inventory_glut_months=st.sampled_from([0.0, 2.0]),
    sold_out_level=st.sampled_from([0.0, 1e-9]),
)


@settings(max_examples=200, deadline=None)
@given(rows=firm_rule_rows, params=market_rules, company=st.sampled_from([0.0, 0.15, 0.9]))
@example(rows=[], params=MarketParams(), company=0.0)
def test_firm_passes_match_the_per_firm_rules_bit_for_bit(rows, params, company):
    rows = rows + edge_firms(params)
    columns = dict(zip(FIRM_RULE_COLUMNS, map(list, zip(*rows))))
    state = make_firms(len(rows), firm_municipality=[i % 3 for i in range(len(rows))], **columns)
    records = firm_records(state)
    rates = TaxRates(company=company)

    set_price(state, params)
    vacancies = set_wage_and_vacancy(state, params)
    munis, amounts = settle_profit_tax(state, rates)

    ref_vacancies, ref_taxes = [], []
    for f, firm in enumerate(records):
        set_price_one_firm(firm, params)
        if set_wage_and_vacancy_one_firm(firm, params):
            ref_vacancies.append(f)
    for firm in records:
        settle_profit_tax_one_firm(firm, rates, ref_taxes)

    assert firm_bits(firm_records(state)) == firm_bits(records)
    assert vacancies.tolist() == ref_vacancies
    assert [(m, t.hex()) for m, t in zip(munis.tolist(), amounts.tolist())] == [
        (m, t.hex()) for m, t in ref_taxes
    ]


# ---------------------------------------------------------------------------
# Labor market
# ---------------------------------------------------------------------------


def test_higher_wage_firm_picks_first():
    state = make_firms(2, wage_offer=[10.0, 20.0])
    set_citizens(state, [5])
    matches = run_labor_market(
        np.array([0, 1]), [0], state, (np.zeros(1), np.zeros(1)),
        MarketParams(proximity_hire_share=0.0), rng(),
    )
    assert matches == [(1, 0)]
    assert state.vacancy_unfilled.tolist() == [True, False]


def test_each_candidate_hired_at_most_once():
    state = make_firms(5, wage_offer=[1.0 + i for i in range(5)])
    workers = [0, 1, 2]
    set_citizens(state, [5, 5, 5])
    residences = (np.zeros(3), np.zeros(3))
    matches = run_labor_market(np.arange(5), workers, state, residences,
                               MarketParams(proximity_hire_share=0.0), rng())
    assert len(matches) == 3
    hired = [cid for _, cid in matches]
    assert len(set(hired)) == 3
    # the two lowest-wage firms found an empty pool
    assert state.vacancy_unfilled.tolist() == [True, True, False, False, False]


def test_qualification_wins_without_proximity():
    state = make_firms()
    weak, strong = 0, 1
    set_citizens(state, [1, 9])
    matches = run_labor_market(
        [0], [weak, strong], state, (np.zeros(2), np.zeros(2)),
        MarketParams(proximity_hire_share=0.0), rng(),
    )
    assert matches == [(0, 1)]


def test_proximity_one_prefers_nearby_over_qualified():
    state = make_firms()
    near_weak, far_strong = 0, 1
    set_citizens(state, [1, 9])
    residences = (np.array([1.0, 5.0]), np.zeros(2))  # by citizen id
    matches = run_labor_market(
        [0], [near_weak, far_strong], state, residences,
        MarketParams(proximity_hire_share=1.0), rng(),
    )
    assert matches == [(0, 0)]


def test_residences_resolve_each_housed_citizen(make_state):
    state = make_state()
    housed = add_family(state, 0, [3, 4], location=(3.0, 4.0))
    widowed = add_family(state, 0, [5, 6])
    [dead, _] = members(state, widowed)
    _remove_citizen(state, dead)
    x, y = state.residences()
    people = members(state, housed)
    assert (x[people].tolist(), y[people].tolist()) == ([3.0, 3.0], [4.0, 4.0])
    assert len(x) == len(y) == dead + 2
    # a dead citizen has no home to be hired near
    assert math.isnan(x[dead]) and math.isnan(y[dead])


def reference_run_labor_market(vacancies, candidates, state, residences, params, rng):
    """``run_labor_market`` as a walk that looks each sampled candidate's
    qualification and home up one at a time; ``residences`` maps a citizen id
    to its home's (x, y)."""
    offer, firm_x, firm_y = state.wage_offer, state.firm_x, state.firm_y
    order = sorted(map(int, vacancies), key=lambda f: (-offer.item(f), f))
    pool = list(candidates)
    quals = state.qualification[pool].tolist()
    matches = []
    for firm in order:
        if not pool:
            break
        k = min(params.labor_candidate_sample, len(pool))
        if k == len(pool):
            sample_idx = range(len(pool))
        else:
            sample_idx = rng.choice(len(pool), size=k, replace=False).tolist()
        by_proximity = params.proximity_hire_share > 0 and rng.random() < params.proximity_hire_share
        best_i = None
        best_key = None
        fx, fy = firm_x.item(firm), firm_y.item(firm)
        for i in sample_idx:
            cid = pool[i]
            if by_proximity:
                rx, ry = residences[cid]
                d = (rx - fx) ** 2 + (ry - fy) ** 2
                key = (d, cid)
            else:
                key = (-quals[i], cid)
            if best_key is None or key < best_key:
                best_key = key
                best_i = i
        hired = pool.pop(best_i)
        quals.pop(best_i)
        matches.append((firm, hired))
    state.vacancy_unfilled[order[:len(matches)]] = False
    state.vacancy_unfilled[order[len(matches):]] = True
    return matches


# (candidates, posting firms): a pool larger than the sample, one smaller
# than the sample, and one that runs dry before the last vacancy
LABOR_SHAPES = {"large pool": (300, 15), "pool below sample": (7, 3), "dry pool": (25, 30)}


def labor_world(seed, n_candidates, n_posting):
    """A world of one- to three-member families on a coarse grid of homes (so
    distances tie), drawn qualifications and wage offers (so both tie), and
    ``n_posting`` of its firms posting; returns the state, the posting firm
    ids and ``n_candidates`` citizen ids, ascending."""
    gen = rng(seed)
    state = SimulationState(treasuries=[Treasury(municipality_id="m00")])
    n_families = n_candidates
    homes = state.add_houses([0] * n_families, np.ones(n_families), np.ones(n_families),
                             gen.integers(0, 5, n_families) * 1.5,
                             gen.integers(0, 5, n_families) * 0.5)
    families = state.add_families(homes, np.zeros(n_families))
    sizes = gen.integers(1, 4, n_families)
    citizens = state.add_citizens(np.repeat(np.asarray(families), sizes), 360,
                                  gen.integers(0, 21, int(sizes.sum())))
    n_firms = n_posting + 5
    state.add_firms([0] * n_firms, gen.uniform(-1.0, 8.0, n_firms), gen.uniform(-1.0, 3.0, n_firms),
                    gen.choice([1.0, 1.5, 2.0], n_firms), np.full(n_firms, 100.0))
    state.vacancy_unfilled[:] = gen.random(n_firms) < 0.5
    vacancies = np.sort(gen.choice(n_firms, n_posting, replace=False))
    candidates = np.sort(gen.choice(np.asarray(citizens), n_candidates, replace=False))
    return state, vacancies, candidates


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", LABOR_SHAPES)
@pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
def test_labor_market_matches_the_per_candidate_walk(seed, shape, share):
    state, vacancies, candidates = labor_world(seed, *LABOR_SHAPES[shape])
    params = MarketParams(proximity_hire_share=share)
    ref_unfilled = state.vacancy_unfilled.copy()
    residences = {}
    for cid in candidates.tolist():
        home = state.home.item(state.family.item(cid))
        residences[cid] = (state.house_x.item(home), state.house_y.item(home))
    gen, ref_gen = rng(seed + 100), rng(seed + 100)
    matches = run_labor_market(vacancies, candidates.tolist(), state, state.residences(),
                               params, gen)
    unfilled, state.vacancy_unfilled = state.vacancy_unfilled, ref_unfilled
    ref_matches = reference_run_labor_market(vacancies, candidates.tolist(), state, residences,
                                             params, ref_gen)
    assert matches == ref_matches
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert unfilled.tolist() == state.vacancy_unfilled.tolist()
    if shape == "dry pool":
        assert len(matches) == len(candidates) < len(vacancies)


# ---------------------------------------------------------------------------
# Wages and the income tax
# ---------------------------------------------------------------------------


def test_pay_wages_worked_example():
    state = make_firms(cash=150.0)
    set_citizens(state, [5], [100.0], employer=[0])
    state.employees[0] = [0]
    taxes = pay(state, TaxRates(personal_income=0.275))
    assert state.payroll_this_month[0] == 100.0
    assert state.savings[0] == pytest.approx(72.5, rel=1e-12)
    assert taxes == ([0], [pytest.approx(27.5, rel=1e-12)])
    assert state.cash[0] == 50.0
    assert state.cumulative_profit[0] == -100.0


def test_zero_income_tax_rate_writes_no_event():
    state = make_firms(cash=10.0)
    set_citizens(state, [5], [5.0], employer=[0])
    state.employees[0] = [0]
    ledger = TaxLedger(1)
    ledger.add_all(TaxKind.PERSONAL_INCOME, *pay(state, TaxRates(personal_income=0.0)))
    assert state.savings[0] == 5.0
    assert ledger.event_count == 0


def test_fire_and_shrink_releases_least_qualified():
    state = make_firms(cash=100.0)
    senior, junior = 0, 1
    set_citizens(state, [5, 2], [80.0, 70.0], employer=[0, 0])
    state.employees[0] = [senior, junior]
    pay(state, TaxRates())
    assert state.payroll_this_month[0] == 80.0  # junior released; senior affordable
    assert state.employees[0] == [senior]
    assert state.employer[junior] == -1 and state.wage[junior] == 0.0
    assert state.employer[senior] == 0 and state.wage[senior] == 80.0
    assert state.cash[0] == 20.0
    assert state.savings[junior] == 0.0


@pytest.mark.xfail(strict=True, reason="releasing every employee keeps the payroll's rounding "
                   "residual: 0.1 + 0.2 - 0.2 - 0.1 is 2.78e-17, so cash ends below zero")
def test_releasing_every_employee_leaves_no_payroll():
    # pay_wages promises non-negative cash at month end; zeroing the residual
    # would change output bytes, so it is pinned here rather than fixed
    state = make_firms(cash=0.0)
    set_citizens(state, [5, 2], [0.1, 0.2], employer=[0, 0])
    state.employees[0] = [0, 1]
    pay(state, TaxRates())
    assert state.employees[0] == []
    assert state.payroll_this_month[0] == 0.0
    assert state.cash[0] >= 0.0


def test_pay_wages_empty_firm_is_noop():
    state = make_firms(cash=10.0)
    set_citizens(state, [])
    assert pay(state, TaxRates()) == ([], [])
    assert state.payroll_this_month[0] == 0.0
    assert state.cash[0] == 10.0


def test_payroll_resets_when_the_last_employee_is_gone():
    # a firm whose only worker died must not carry last month's payroll into
    # its wage decision (and into the profit metric)
    state = make_firms(cash=150.0)
    set_citizens(state, [5], [100.0], employer=[0])
    state.employees[0] = [0]
    pay(state, TaxRates())
    assert state.payroll_this_month[0] == 100.0
    state.employees[0].remove(0)
    pay(state, TaxRates())
    assert state.payroll_this_month[0] == 0.0
    state.wage_offer[0] = 1.0
    set_wage_and_vacancy(state, MarketParams())
    assert state.wage_offer[0] == 1.0


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
        taxes.append((firm.firm_municipality, tax))
    firm.cash -= payroll
    firm.cumulative_profit -= payroll
    firm.payroll_this_month = payroll


def random_payroll_world(seed):
    """Firms, families and employed citizens for one month of production and pay:
    a state, its market params and its tax rates.

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
    state = make_firms(n_firms, firm_municipality=[i % 3 for i in range(n_firms)],
                       inventory=[float(gen.uniform(0.0, 2.0)) for _ in range(n_firms)])
    for cid in gen.permutation(n_citizens).tolist():  # payrolls not in id order
        if employer[cid] >= 0:
            state.employees[employer[cid]].append(cid)
    for f, staff in enumerate(state.employees):
        payroll = sum(wages[cid] for cid in staff)
        state.cash[f] = float(gen.uniform(0.0, 1.5)) * payroll
        state.cumulative_profit[f] = float(gen.uniform(-2.0, 2.0))
    savings = gen.uniform(0.0, 5.0, size=n_families)
    params = MarketParams(productivity_alpha=float(gen.uniform(0.5, 2.0)),
                          qualification_exponent_beta=float(gen.choice([0.5, 1.0, gen.random()])))
    rates = TaxRates(personal_income=float(gen.choice([0.0, 0.275, gen.random() * 0.9])))
    paid = [wage if firm >= 0 else 0.0 for wage, firm in zip(wages, employer)]
    set_citizens(state, quals, paid, employer)
    state.family = np.array(family_of, dtype=np.int64)
    state.savings = savings
    return state, params, rates


def workers_of(state):
    """Every citizen of ``state`` as a ``Worker`` record, by id."""
    rows = zip(state.qualification.tolist(), state.family.tolist(), state.wage.tolist())
    return {cid: Worker(cid, *row) for cid, row in enumerate(rows)}


PAYROLL_SEEDS = range(150)


def test_random_payroll_worlds_cover_the_edge_cases():
    worlds = [random_payroll_world(seed) for seed in PAYROLL_SEEDS]
    states = [state for state, _, _ in worlds]
    assert any(not state.employees[0] for state in states)
    assert any(sum(state.wage[staff].tolist()) > state.cash[f]
               for state in states for f, staff in enumerate(state.employees))
    assert any(rates.personal_income == 0.0 for _, _, rates in worlds)
    assert any(
        len(set(state.employer[(state.family == fam) & (state.employer >= 0)].tolist())) >= 2
        for state in states for fam in range(len(state.savings))
    )


@pytest.mark.parametrize("seed", PAYROLL_SEEDS)
def test_month_production_and_payroll_match_per_firm_references_bit_for_bit(seed):
    state, params, rates = random_payroll_world(seed)
    records = firm_records(state)
    workers = workers_of(state)
    ref_savings = state.savings.tolist()
    ref_employer = state.employer.copy()

    units = produce(state, output_per_worker(params, 21), params)
    taxes = pay_wages(state, rates)

    ref_units = [
        produce_one_firm(firm, [workers[cid].qualification for cid in firm.employees], params)
        for firm in records
    ]
    ref_taxes = []
    for firm in records:
        pay_wages_one_firm(firm, workers, ref_savings, ref_employer, rates, ref_taxes)

    assert hexes(units.tolist()) == hexes(ref_units)
    assert firm_bits(firm_records(state)) == firm_bits(records)
    assert hexes(state.savings.tolist()) == hexes(ref_savings)
    assert state.employer.tolist() == ref_employer.tolist()
    assert hexes(state.wage.tolist()) == [workers[cid].monthly_wage.hex() for cid in workers]
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
    state = make_firms(3, firm_municipality=[0, 1, 2])
    for cid, (firm, _, _) in enumerate(staff):
        state.employees[firm].append(cid)
    set_citizens(state, [5] * len(staff), [w for _, _, w in staff],
                 [firm for firm, _, _ in staff], savings + [7.0])
    state.family = np.array([fam % len(savings) for _, fam, _ in staff], dtype=np.int64)
    pay_wages(state, TaxRates(personal_income=rate))
    expected = savings + [7.0]
    order = [cid for staff in state.employees for cid in staff]
    reference_credit_wages(
        expected, state.family[order].tolist(), [w - w * rate for w in state.wage[order].tolist()]
    )
    assert hexes(state.savings.tolist()) == hexes(expected)


# ---------------------------------------------------------------------------
# Consumption and its tax
# ---------------------------------------------------------------------------


def shop(state, savings_rate, rates):
    """Family 0 of ``state.savings`` buying from every firm in id order,
    through the month-wide passes; returns ``consume``'s result."""
    shopping, budgets = shopping_budgets(state.savings, np.array([0]), np.array([savings_rate]))
    n_firms = len(state.employees)
    rows = np.tile(np.arange(n_firms), (len(shopping), 1))
    return consume(state, shopping, budgets, np.arange(n_firms), rows, rates)


def test_consume_worked_example():
    state = make_firms(price=2.0, inventory=10.0, cash=0.0)
    state.savings = np.array([10.0])
    ledger = TaxLedger(1)
    units, spent, *taxes = shop(state, 0.0, TaxRates(consumption=0.2))
    ledger.add_all(TaxKind.CONSUMPTION, *taxes)
    assert units == 5.0
    assert spent == 10.0
    assert state.cash[0] == 8.0  # net of the 20% consumption tax
    assert ledger.by_kind(TaxKind.CONSUMPTION) == {0: 2.0}
    assert state.savings[0] == 0.0


def test_rank_samples_orders_by_price_then_id():
    # equal prices tie on id; repeated picks stay, side by side
    price = np.array([2.0, 1.0, 2.0, 1.0, 0.5])
    picks = np.array([[0, 2, 1, 1], [3, 0, 3, 2], [4, 4, 4, 4]])
    ranked, rows = rank_samples(price, picks)
    assert [[ranked[r] for r in row] for row in rows] == [
        [1, 1, 0, 2], [3, 3, 0, 2], [4, 4, 4, 4],
    ]


def test_rank_samples_matches_sorting_each_sample():
    gen = rng(3)
    price = gen.choice([0.5, 1.0, 1.05, 2.0], size=12)
    picks = gen.integers(0, len(price), size=(50, 10))
    expected = [sorted(row, key=lambda f: (price[f], f)) for row in picks.tolist()]
    ranked, rows = rank_samples(price, picks)
    assert [[ranked[r] for r in row] for row in rows.tolist()] == expected


def test_consume_cheapest_first():
    state = make_firms(2, price=[4.0, 1.0], inventory=[10.0, 2.0])
    state.savings = np.array([4.0])
    ranked, rows = rank_samples(state.price, np.array([[0, 1]]))
    units, spent, *_ = consume(state, np.array([0]), np.array([4.0]), ranked, rows,
                               TaxRates(consumption=0.0))
    # 2 units at 1.0 exhaust the cheap firm, the remaining 2.0 buys 0.5 units at 4.0
    assert units == 2.5
    assert spent == 4.0
    assert state.inventory.tolist() == [9.5, 0.0]


def test_consume_limited_by_inventory_keeps_rest_saved():
    state = make_firms(price=1.0, inventory=3.0)
    state.savings = np.array([10.0])
    units, spent, *_ = shop(state, 0.0, TaxRates())
    assert units == 3.0
    assert spent == 3.0
    assert state.savings[0] == 7.0


def test_consume_respects_savings_rate():
    state = make_firms(price=1.0, inventory=1000.0)
    state.savings = np.array([100.0])
    units, spent, *_ = shop(state, 0.5, TaxRates(consumption=0.0))
    assert spent == 50.0
    assert state.savings[0] == 50.0


def test_consume_money_conserved():
    state = make_firms(3, price=[1.0, 2.0, 3.0], inventory=5.0, cash=0.0)
    state.savings = np.array([37.0])
    ledger = TaxLedger(1)
    before = state.savings[0]
    units, spent, *taxes = shop(state, 0.1, TaxRates(consumption=0.18))
    ledger.add_all(TaxKind.CONSUMPTION, *taxes)
    after = state.savings[0] + sum(state.cash) + sum(ledger.total_by_kind().values())
    assert math.isclose(after, before, rel_tol=0, abs_tol=1e-12)


def test_broke_family_buys_nothing():
    state = make_firms(inventory=10.0)
    state.savings = np.array([0.0])
    units, spent, munis, amounts = shop(state, 0.1, TaxRates())
    assert (units, spent, munis.tolist(), amounts.tolist()) == (0.0, 0.0, [], [])
    assert state.inventory[0] == 10.0


class ListedRows(np.ndarray):
    """A rank matrix that records the length of every block of rows turned into lists."""

    def __array_finalize__(self, obj):
        self.listed = getattr(obj, "listed", None)

    def tolist(self):
        self.listed.append(len(self))
        return super().tolist()


def test_consume_reads_the_sample_only_as_far_as_it_buys():
    # three firms with 5.0 units at 1.0; each shopper's row is all three, cheapest first
    state = make_firms(3, price=1.0, inventory=5.0, cash=0.0)
    state.savings = np.array([0.0, 2.0, 2.0, 2.0, 2.0])  # family 0 is broke
    shopping, budgets = shopping_budgets(state.savings, np.arange(5), np.zeros(5))
    assert shopping.tolist() == [1, 2, 3, 4]  # no budget, no shopping
    rows = np.tile(np.arange(3), (4, 1)).view(ListedRows)
    rows.listed = []
    units, spent, munis, amounts = consume(state, shopping, budgets, np.arange(3), rows,
                                           TaxRates(consumption=0.25))
    assert (units, spent) == (8.0, 8.0)
    # the third shopper's 2.0 units reach firm 0's last 1.0: the pass ends there,
    # and only the rows from it on become lists, for the walk
    assert rows.listed == [2]
    assert state.inventory.tolist() == [0.0, 2.0, 5.0]
    assert state.cash.tolist() == [3.75, 2.25, 0.0]  # firm 2 is never reached
    assert (munis.tolist(), amounts.tolist()) == ([0, 0, 0, 0, 0], [0.5, 0.5, 0.25, 0.25, 0.5])
    assert state.savings.tolist() == [0.0] * 5


def consume_one_family(
    savings: list, family_id: int, firm_sample, savings_rate: float, rates: TaxRates,
    taxes: list,
) -> tuple[float, float]:
    """Reference: one family's purchases, written straight onto the firm records
    and onto ``savings`` (a list by family id)."""
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
            taxes.append((firm.firm_municipality, tax))
        budget -= spent
        units_total += units
        spent_total += spent
        if budget <= 1e-12:
            break
    savings[family_id] -= spent_total
    return units_total, spent_total


def market(gen, firm_rows, munis, savings):
    """A state of one firm per row of ``firm_rows`` (cash, price, inventory,
    revenue, profit), firm ``i`` in municipality ``i % munis``, and of
    families with ``savings``; then each family's sample of firms and savings
    rate, and the tax rates, drawn from ``gen``."""
    n_firms = len(firm_rows)
    cash, price, inventory, revenue, profit = zip(*firm_rows)
    state = make_firms(n_firms, firm_municipality=[i % munis for i in range(n_firms)], cash=cash,
                       price=price, inventory=inventory, revenue_this_month=revenue,
                       cumulative_profit=profit)
    state.savings = savings
    picks = gen.integers(0, n_firms, size=(len(savings), int(gen.integers(1, 6))))
    savings_rates = gen.uniform(0.0, 0.3, size=len(savings))
    rates = TaxRates(consumption=float(gen.choice([0.0, 0.18, gen.random()])))
    return state, picks, savings_rates, rates


def random_market(seed):
    """Firms and families' savings for one month of shopping.

    Prices tie, samples repeat firms, some firms start sold out, some
    families are broke, and a third of the markets have no consumption tax.
    """
    gen = rng(seed)
    firm_rows = [
        (
            float(gen.uniform(0.0, 20.0)),
            float(gen.choice([0.5, 1.0, 1.0 + gen.random()])),
            0.0 if gen.random() < 0.3 else float(gen.uniform(0.0, 3.0)),
            float(gen.uniform(0.0, 3.0)),
            float(gen.uniform(-5.0, 5.0)),
        )
        for _ in range(int(gen.integers(1, 7)))
    ]
    n_families = int(gen.integers(1, 13))
    savings = np.array([
        0.0 if gen.random() < 0.25 else float(gen.uniform(0.0, 15.0)) for _ in range(n_families)
    ])
    return market(gen, firm_rows, 2, savings)


def rich_market(seed):
    """A market of budgets from 1e4 to 1e7 and stocks from 1e3 to 1e9 units.

    At such budgets ``budget - (budget / price) * price`` is often a
    rounding error above 1e-12, which sends the shopper on to its next firm
    with its first firm still in stock; some stocks run out as well.
    """
    gen = rng(seed)
    firm_rows = [
        (
            float(gen.uniform(0.0, 1e6)),
            float(gen.choice([1.0, 1.0 + gen.random(), 0.5 + 4.0 * gen.random()])),
            0.0 if gen.random() < 0.2 else float(10.0 ** gen.uniform(3.0, 9.0)),
            float(gen.uniform(0.0, 1e4)),
            float(gen.uniform(-1e5, 1e5)),
        )
        for _ in range(int(gen.integers(1, 7)))
    ]
    savings = 10.0 ** gen.uniform(4.0, 7.0, size=int(gen.integers(1, 25)))
    return market(gen, firm_rows, 3, savings)


def pass_end(market):
    """Where ``consume``'s pass must hand over to the walk: ``(why, place, shoppers)``.

    ``why`` is ``"stock-out"`` when a shopper's first purchase reaches its
    firm's stock, ``"budget"`` when it leaves more than 1e-12 of the budget,
    and None when every shopper spends its whole budget at its first firm in
    stock; ``place`` is that shopper's place among the month's shoppers.
    """
    state, picks, savings_rates, _ = market
    inventory, price = state.inventory.tolist(), state.price.tolist()
    shopping, budgets = shopping_budgets(state.savings, np.arange(len(state.savings)),
                                         savings_rates)
    ranked, rows = rank_samples(state.price, picks[shopping])
    for place, (budget, row) in enumerate(zip(budgets.tolist(), rows.tolist())):
        in_stock = [ranked[r] for r in row if inventory[ranked[r]] > 0.0]
        if not in_stock:
            continue
        firm = in_stock[0]
        units = budget / price[firm]
        if units >= inventory[firm]:
            return "stock-out", place, len(budgets)
        if budget - units * price[firm] > 1e-12:
            return "budget", place, len(budgets)
        inventory[firm] -= units
    return None, len(budgets), len(budgets)


MARKET_SEEDS = range(200)
RICH_MARKET_SEEDS = range(100)


def test_random_markets_cover_the_edge_cases():
    markets = [random_market(seed) for seed in MARKET_SEEDS]
    assert any(len(set(row)) < len(row) for m in markets for row in m[1].tolist())
    assert any(0.0 in m[0].inventory.tolist() for m in markets)
    assert any(0.0 in m[0].savings.tolist() for m in markets)
    assert any(m[3].consumption == 0.0 for m in markets)


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
    state, picks, savings_rates, rates = market
    records = firm_records(state)
    ref_savings = state.savings.tolist()

    families = np.arange(len(ref_savings))
    shopping, budgets = shopping_budgets(state.savings, families, savings_rates)
    ranked, rows = rank_samples(state.price, picks[shopping])
    units, spent, munis, amounts = consume(state, families[shopping], budgets, ranked, rows,
                                           rates)

    ref_taxes = []
    ref_units = ref_spent = 0.0
    for family_id, (row, savings_rate) in enumerate(zip(picks.tolist(), savings_rates.tolist())):
        sample = sorted(row, key=lambda f: (records[f].price, f))
        u, s = consume_one_family(
            ref_savings, family_id, [records[f] for f in sample], savings_rate, rates, ref_taxes
        )
        ref_units += u
        ref_spent += s

    assert firm_bits(firm_records(state)) == firm_bits(records)
    assert hexes(state.savings.tolist()) == hexes(ref_savings)
    assert [(m, t.hex()) for m, t in zip(munis.tolist(), amounts.tolist())] == [
        (m, t.hex()) for m, t in ref_taxes
    ]
    assert (units.hex(), spent.hex()) == (ref_units.hex(), ref_spent.hex())


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
    # does, and money_in_circulation on the first; a numpy that changes one
    # of them fails here, not only in a digest
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
    # SimulationState.money_in_circulation folds the same way: the escheat
    # pool, then each live family's savings, each firm's cash and each
    # treasury's balance, in turn
    n_families = len(values) // 2
    state = SimulationState(
        treasuries=[Treasury(municipality_id=f"m{m}", balance=b) for m, b in enumerate(starts)],
        escheat_pool=values[0],
    )
    state.savings = np.array(values[1:n_families + 1])
    state.live = gen.random(n_families) < 0.8
    state.cash = np.array(values[n_families + 1:])
    audited = [values[0]]
    audited += [saved for saved, live in zip(state.savings.tolist(), state.live) if live]
    audited += state.cash.tolist() + starts.tolist()
    assert state.money_in_circulation().hex() == left_fold(add, audited)[-1].hex()


# ---------------------------------------------------------------------------
# Profit tax
# ---------------------------------------------------------------------------


def test_profit_tax_worked_example():
    state = make_firms(cash=1000.0, cumulative_profit=1000.0)
    munis, amounts = settle_profit_tax(state, TaxRates(company=0.15))
    assert state.cash[0] == 850.0
    assert state.cumulative_profit[0] == 0.0
    assert (munis.tolist(), amounts.tolist()) == ([0], [150.0])


def test_losses_untaxed_but_reset():
    state = make_firms(cash=100.0, cumulative_profit=-40.0)
    munis, amounts = settle_profit_tax(state, TaxRates())
    assert state.cumulative_profit[0] == 0.0
    assert state.cash[0] == 100.0
    assert (munis.tolist(), amounts.tolist()) == ([], [])
