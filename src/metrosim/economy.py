"""Firms, families, and the three flows between them: labor, goods, wages.

Firms produce a homogeneous good from employee qualification, adjust price
and wage offers on inventory/cash signals, and compete for workers by wage.
Families consume from sampled firms, cheapest first. No function here
writes the month's ledger: each tax is appended as a ``(municipality,
amount)`` entry to a list the caller passes, and the engine writes each
phase's entries with one ``TaxLedger.add_all``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .fiscal import TaxRates

if TYPE_CHECKING:
    from .demographics import Citizen


@dataclass(slots=True)
class Firm:
    id: int
    municipality_id: str
    location: tuple[float, float]
    cash: float
    inventory: float = 0.0
    price: float = 1.0
    wage_offer: float = 1.0
    employees: list[int] = field(default_factory=list)
    cumulative_profit: float = 0.0  # since the last profit-tax settlement
    # trailing-month signals used by the decision rules
    last_production: float = 0.0
    revenue_this_month: float = 0.0
    payroll_this_month: float = 0.0
    vacancy_unfilled: bool = False


@dataclass(slots=True)
class Family:
    id: int
    municipality_id: str
    members: list[int] = field(default_factory=list)
    savings: float = 0.0
    house_id: int | None = None
    owned_houses: list[int] = field(default_factory=list)
    tax_debt: dict[str, float] = field(default_factory=dict)  # municipality -> arrears


@dataclass
class MarketParams:
    """Knobs of the goods and labor markets. Defaults are documented, not sacred."""

    productivity_alpha: float = 1.0
    qualification_exponent_beta: float = 0.5
    price_step: float = 0.05
    wage_step: float = 0.05
    consumption_firm_sample: int = 10
    labor_candidate_sample: int = 20
    proximity_hire_share: float = 0.3
    savings_rate_bounds: tuple[float, float] = (0.05, 0.25)
    price_floor: float = 0.01
    # a firm cuts price when unsold stock exceeds this many months of output
    inventory_glut_months: float = 2.0
    sold_out_level: float = 1e-9

    def validate(self) -> None:
        if self.productivity_alpha <= 0:
            raise ValidationError("productivity_alpha must be positive")
        if not 0.0 < self.qualification_exponent_beta <= 1.0:
            raise ValidationError("qualification_exponent_beta must be in (0, 1]")
        if self.consumption_firm_sample < 1 or self.labor_candidate_sample < 1:
            raise ValidationError("market sample sizes must be >= 1")
        if not 0.0 <= self.proximity_hire_share <= 1.0:
            raise ValidationError("proximity_hire_share must be in [0, 1]")
        lo, hi = self.savings_rate_bounds
        if not 0.0 <= lo <= hi < 1.0:
            raise ValidationError("savings_rate_bounds must satisfy 0 <= low <= high < 1")
        if self.price_floor <= 0:
            raise ValidationError("price_floor must be positive")


# ---------------------------------------------------------------------------
# Firm-side operations
# ---------------------------------------------------------------------------


def produce(firm: Firm, qualifications: Iterable[int], params: MarketParams) -> float:
    """Add this month's output to inventory; returns units produced.

    Output is alpha * sum(q^beta) over current employees. No money moves.
    """
    beta = params.qualification_exponent_beta
    total = 0.0
    for q in qualifications:
        total += q**beta
    units = params.productivity_alpha * total
    firm.inventory += units
    firm.last_production = units
    return units


def set_price(firm: Firm, params: MarketParams) -> None:
    """Inventory-signal pricing: raise when sold out, cut on a glut, floor below."""
    if firm.inventory <= params.sold_out_level:
        firm.price *= 1.0 + params.price_step
    elif firm.last_production > 0 and firm.inventory > params.inventory_glut_months * firm.last_production:
        firm.price *= 1.0 - params.price_step
    if firm.price < params.price_floor:
        firm.price = params.price_floor


def set_wage_and_vacancy(firm: Firm, params: MarketParams) -> bool:
    """Adjust the wage offer and decide whether to post a vacancy.

    The offer rises after a vacancy went unfilled, falls when cash cannot
    cover the payroll due. A vacancy is posted when the month ends with
    empty inventory (excess demand). Returns the vacancy decision.
    """
    payroll_due = firm.payroll_this_month
    if firm.vacancy_unfilled:
        firm.wage_offer *= 1.0 + params.wage_step
        firm.vacancy_unfilled = False  # signal consumed; set again only by a new failed round
    elif payroll_due > 0 and firm.cash < payroll_due:
        firm.wage_offer *= 1.0 - params.wage_step
    return firm.inventory <= params.sold_out_level


def run_labor_market(
    vacancies: Sequence[Firm],
    candidates: Sequence["Citizen"],
    residences: Mapping[int, tuple[float, float]],
    params: MarketParams,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Match vacancy-posting firms to unemployed candidates.

    Firms offering higher wages pick first. Each firm draws a sample of
    candidates and hires the most qualified of them, except that with
    probability ``proximity_hire_share`` it hires the sample's
    nearest-residence candidate instead. One hire per vacancy; each
    candidate is matched at most once. Returns (firm_id, citizen_id) pairs
    and flags firms whose vacancy went unfilled.
    """
    order = sorted(vacancies, key=lambda f: (-f.wage_offer, f.id))
    pool = list(candidates)
    matches: list[tuple[int, int]] = []
    for firm in order:
        if not pool:
            firm.vacancy_unfilled = True
            continue
        k = min(params.labor_candidate_sample, len(pool))
        if k == len(pool):
            sample_idx = np.arange(len(pool))
        else:
            sample_idx = rng.choice(len(pool), size=k, replace=False)
        by_proximity = params.proximity_hire_share > 0 and rng.random() < params.proximity_hire_share
        best_i = None
        best_key = None
        fx, fy = firm.location
        for i in sample_idx:
            c = pool[int(i)]
            if by_proximity:
                rx, ry = residences[c.id]
                d = (rx - fx) ** 2 + (ry - fy) ** 2
                key = (d, c.id)  # nearer wins, id breaks ties
            else:
                key = (-c.qualification, c.id)  # higher qualification wins
            if best_key is None or key < best_key:
                best_key = key
                best_i = int(i)
        hired = pool.pop(best_i)
        matches.append((firm.id, hired.id))
        firm.vacancy_unfilled = False
    return matches


def pay_wages(
    firm: Firm,
    citizens: Mapping[int, "Citizen"],
    families: Mapping[int, Family],
    employer: np.ndarray,
    rates: TaxRates,
    taxes: list[tuple[str, float]],
) -> None:
    """Pay the month-end payroll, splitting each wage into take-home and tax.

    If cash cannot cover the payroll the firm releases its least qualified
    employees until it can (fire-and-shrink), which keeps cash non-negative
    at month end; a released citizen's entry of the ``employer`` column
    (indexed by citizen id) becomes -1. Each employee's income tax is
    appended to ``taxes`` as ``(municipality, amount)``, in payroll order.
    The gross payroll paid is left in ``firm.payroll_this_month``; a firm
    without employees pays and records 0.0.
    """
    staff = [citizens[cid] for cid in firm.employees]
    payroll = 0.0
    for citizen in staff:
        payroll += citizen.monthly_wage
    if firm.cash < payroll:
        staff.sort(key=lambda c: (c.qualification, -c.id), reverse=True)
        # walk from the least qualified end, releasing until affordable
        while staff and firm.cash < payroll:
            released = staff.pop()
            payroll -= released.monthly_wage
            employer[released.id] = -1
            released.monthly_wage = 0.0
        firm.employees = [citizen.id for citizen in staff]
    rate = rates.personal_income
    muni = firm.municipality_id
    for citizen in staff:
        wage = citizen.monthly_wage
        tax = wage * rate
        families[citizen.family_id].savings += wage - tax
        taxes.append((muni, tax))
    firm.cash -= payroll
    firm.cumulative_profit -= payroll
    firm.payroll_this_month = payroll


def rank_samples(firms: Sequence[Firm], picks: np.ndarray) -> tuple[list[Firm], list[list[int]]]:
    """Rank ``firms`` by (price, id) once, and each row of ``picks`` by that rank.

    Returns the ranked firm list and, for every row of ``picks`` (indices
    into ``firms``), its ranks in ascending order: ``ranked[r]`` for ``r``
    in a row is that sample's firms cheapest first, and a firm picked twice
    appears twice. No per-sample firm list is built, so a consumer walks
    only the firms it reaches. Prices must stay fixed until the samples are
    consumed, as they do between production and ``set_price``.
    """
    order = np.lexsort(([f.id for f in firms], [f.price for f in firms]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ranked = [firms[i] for i in order.tolist()]
    return ranked, np.sort(rank[picks], axis=1).tolist()


def consume(
    families: Sequence[Family],
    ranked: Sequence[Firm],
    rank_rows: Sequence[Sequence[int]],
    savings_rates: Sequence[float],
    rates: TaxRates,
    taxes: list[tuple[str, float]],
) -> tuple[float, float]:
    """Spend the month's consumption budgets: every family, in the order given.

    ``ranked`` and ``rank_rows`` come from ``rank_samples``: family ``i``
    shops at ``ranked[r]`` for ``r`` in ``rank_rows[i]``, cheapest first. It
    keeps ``savings_rates[i]`` of its savings (drawn uniformly from
    ``MarketParams.savings_rate_bounds``) and buys with the rest until the
    budget or the sample's inventory runs out; it reads its row no further
    than the firm where the budget runs out, and not at all without a
    budget. Unspent budget stays in savings. Each purchase's nonzero
    consumption tax is appended to ``taxes`` as ``(municipality, amount)``.
    The firms' stock and money are kept in local lists by rank and written
    back once. Returns the month's (units bought, money spent), each summed
    per family and then over families in order.
    """
    inventory = [firm.inventory for firm in ranked]
    price = [firm.price for firm in ranked]
    cash = [firm.cash for firm in ranked]
    revenue = [firm.revenue_this_month for firm in ranked]
    profit = [firm.cumulative_profit for firm in ranked]
    rate = rates.consumption
    units_month = 0.0
    spent_month = 0.0
    for family, row, savings_rate in zip(families, rank_rows, savings_rates):
        budget = (1.0 - savings_rate) * family.savings
        if budget <= 1e-12:
            continue
        units_total = 0.0
        spent_total = 0.0
        for r in row:
            stock = inventory[r]
            if stock <= 0.0:
                continue
            units = min(budget / price[r], stock)
            spent = units * price[r]
            inventory[r] = stock - units
            tax = spent * rate
            net = spent - tax
            cash[r] += net
            revenue[r] += net
            profit[r] += net
            if tax:
                taxes.append((ranked[r].municipality_id, tax))
            budget -= spent
            units_total += units
            spent_total += spent
            if budget <= 1e-12:
                break
        family.savings -= spent_total
        units_month += units_total
        spent_month += spent_total
    for firm, stock, money, income, accrued in zip(ranked, inventory, cash, revenue, profit):
        firm.inventory = stock
        firm.cash = money
        firm.revenue_this_month = income
        firm.cumulative_profit = accrued
    return units_month, spent_month


def settle_profit_tax(firm: Firm, rates: TaxRates, taxes: list[tuple[str, float]]) -> None:
    """Tax the period's profit if positive, into ``taxes``; reset the accumulator."""
    profit = firm.cumulative_profit
    firm.cumulative_profit = 0.0
    if profit <= 0.0:
        return
    tax = profit * rates.company
    if tax:
        firm.cash -= tax
        taxes.append((firm.municipality_id, tax))
