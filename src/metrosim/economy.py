"""Firms, families, and the three flows between them: labor, goods, wages.

Firms produce a homogeneous good from employee qualification, adjust price
and wage offers on inventory/cash signals, and compete for workers by wage.
Families consume from sampled firms, cheapest first. Wage, consumption and
profit taxes are recorded in the month's ledger at the moment money moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .fiscal import TaxKind, TaxLedger, TaxRates

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


def set_price(firm: Firm, params: MarketParams) -> Firm:
    """Inventory-signal pricing: raise when sold out, cut on a glut, floor below."""
    if firm.inventory <= params.sold_out_level:
        firm.price *= 1.0 + params.price_step
    elif firm.last_production > 0 and firm.inventory > params.inventory_glut_months * firm.last_production:
        firm.price *= 1.0 - params.price_step
    if firm.price < params.price_floor:
        firm.price = params.price_floor
    return firm


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
    rates: TaxRates,
    ledger: TaxLedger,
) -> float:
    """Pay the month-end payroll, splitting each wage into take-home and tax.

    If cash cannot cover the payroll the firm releases its least qualified
    employees until it can (fire-and-shrink), which keeps cash non-negative
    at month end. Returns the gross payroll actually paid.
    """
    if not firm.employees:
        return 0.0
    payroll = 0.0
    for cid in firm.employees:
        payroll += citizens[cid].monthly_wage
    if firm.cash < payroll:
        keep = sorted(
            firm.employees,
            key=lambda cid: (citizens[cid].qualification, -cid),
            reverse=True,
        )
        # walk from the least qualified end, releasing until affordable
        while keep and firm.cash < payroll:
            released_id = keep.pop()
            released = citizens[released_id]
            payroll -= released.monthly_wage
            released.employer_id = None
            released.monthly_wage = 0.0
        firm.employees = keep
    rate = rates.personal_income
    for cid in firm.employees:
        citizen = citizens[cid]
        wage = citizen.monthly_wage
        tax = wage * rate
        families[citizen.family_id].savings += wage - tax
        if tax:
            ledger.add(TaxKind.PERSONAL_INCOME, firm.municipality_id, tax)
    firm.cash -= payroll
    firm.cumulative_profit -= payroll
    firm.payroll_this_month = payroll
    return payroll


_PRICE_THEN_ID = attrgetter("price", "id")


def consume(
    family: Family,
    firm_sample: Sequence[Firm],
    savings_rate: float,
    rates: TaxRates,
    ledger: TaxLedger,
) -> tuple[float, float]:
    """Spend this month's consumption budget at the sampled firms.

    The family keeps ``savings_rate`` of its savings (the caller draws it
    uniformly from ``MarketParams.savings_rate_bounds``) and shops with the
    rest, buying from the cheapest sampled firm first until the budget or the
    sample's inventory runs out. Unspent budget returns to savings. Returns
    (units bought, money spent).
    """
    budget = (1.0 - savings_rate) * family.savings
    if budget <= 0.0:
        return 0.0, 0.0
    rate = rates.consumption
    units_total = 0.0
    spent_total = 0.0
    for firm in sorted(firm_sample, key=_PRICE_THEN_ID):
        if budget <= 1e-12:
            break
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
            ledger.add(TaxKind.CONSUMPTION, firm.municipality_id, tax)
        budget -= spent
        units_total += units
        spent_total += spent
    family.savings -= spent_total
    return units_total, spent_total


def settle_profit_tax(firm: Firm, rates: TaxRates, ledger: TaxLedger) -> float:
    """Tax the period's accumulated profit if positive; reset the accumulator."""
    profit = firm.cumulative_profit
    firm.cumulative_profit = 0.0
    if profit <= 0.0:
        return 0.0
    tax = profit * rates.company
    if tax:
        firm.cash -= tax
        ledger.add(TaxKind.COMPANY, firm.municipality_id, tax)
    return tax
