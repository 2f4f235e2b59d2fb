"""Firms, families, and the three flows between them: labor, goods, wages.

Firms produce a homogeneous good from employee qualification, adjust price
and wage offers on inventory/cash signals, and compete for workers by wage.
Families consume from sampled firms, cheapest first. Production and the
payroll each run as one pass over every firm per month. No function here
writes the month's ledger: each tax's municipality index and amount are
appended to the ``TaxEntries`` lists the caller passes (the payroll and
consumption return their taxes as arrays), and the engine writes each
phase's entries with one ``TaxLedger.add_all``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .fiscal import TaxEntries, TaxRates


@dataclass(slots=True)
class Firm:
    id: int
    municipality: int  # index, see SimulationState
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
        for name in ("price_step", "wage_step"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be in [0, 1)")
        for name in ("inventory_glut_months", "sold_out_level"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


# ---------------------------------------------------------------------------
# Firm-side operations
# ---------------------------------------------------------------------------


def output_per_worker(params: MarketParams, levels: int) -> np.ndarray:
    """``q**beta`` for every qualification ``q`` in ``0..levels``, indexed by ``q``.

    Built with Python's ``**``, so each entry has the bits of the
    per-employee power.
    """
    beta = params.qualification_exponent_beta
    return np.array([q**beta for q in range(levels + 1)], dtype=float)


def _payroll_order(firms: Sequence[Firm]) -> tuple[np.ndarray, np.ndarray]:
    """Every employee in firm order, then payroll order, as an index array, and
    its firm's position in ``firms``."""
    staffs = [firm.employees for firm in firms]
    sizes = np.fromiter(map(len, staffs), dtype=np.intp, count=len(staffs))
    staff = np.fromiter(chain.from_iterable(staffs), dtype=np.intp, count=int(sizes.sum()))
    return staff, np.repeat(np.arange(len(firms)), sizes)


def _per_firm_sums(owner: np.ndarray, values: np.ndarray, n_firms: int) -> np.ndarray:
    """Each firm's ``values`` added in payroll order from 0.0, as ``np.bincount`` adds a
    bin's entries; floats even when no firm has employees."""
    return np.bincount(owner, weights=values, minlength=n_firms).astype(float, copy=False)


def produce(
    firms: Sequence[Firm], qualification: np.ndarray, output: np.ndarray, params: MarketParams
) -> list[float]:
    """Add this month's output to every firm's inventory; returns the units, by firm.

    A firm's output is alpha * sum(q^beta) over its current employees, in
    payroll order. ``qualification`` is the citizen column and ``output`` the
    ``output_per_worker`` table. No money moves.
    """
    staff, owner = _payroll_order(firms)
    totals = _per_firm_sums(owner, output[qualification[staff]], len(firms))
    units = (params.productivity_alpha * totals).tolist()
    for firm, made in zip(firms, units):
        firm.inventory += made
        firm.last_production = made
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
    candidates: Sequence[int],
    qualification: np.ndarray,
    residences: Mapping[int, tuple[float, float]],
    params: MarketParams,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Match vacancy-posting firms to unemployed candidates (citizen ids).

    Firms offering higher wages pick first. Each firm draws a sample of
    candidates and hires the most qualified of them (``qualification`` is
    the citizen column), except that with probability
    ``proximity_hire_share`` it hires the sample's nearest-residence
    candidate instead. One hire per vacancy; each candidate is matched at
    most once. Returns (firm_id, citizen_id) pairs and flags firms whose
    vacancy went unfilled.
    """
    order = sorted(vacancies, key=lambda f: (-f.wage_offer, f.id))
    pool = list(candidates)
    quals = qualification[pool].tolist()
    matches: list[tuple[int, int]] = []
    for firm in order:
        if not pool:
            firm.vacancy_unfilled = True
            continue
        k = min(params.labor_candidate_sample, len(pool))
        if k == len(pool):
            sample_idx = range(len(pool))
        else:
            sample_idx = rng.choice(len(pool), size=k, replace=False).tolist()
        by_proximity = params.proximity_hire_share > 0 and rng.random() < params.proximity_hire_share
        best_i = None
        best_key = None
        fx, fy = firm.location
        for i in sample_idx:
            cid = pool[i]
            if by_proximity:
                rx, ry = residences[cid]
                d = (rx - fx) ** 2 + (ry - fy) ** 2
                key = (d, cid)  # nearer wins, id breaks ties
            else:
                key = (-quals[i], cid)  # higher qualification wins
            if best_key is None or key < best_key:
                best_key = key
                best_i = i
        hired = pool.pop(best_i)
        quals.pop(best_i)
        matches.append((firm.id, hired))
        firm.vacancy_unfilled = False
    return matches


def _release_until_affordable(
    firm: Firm, payroll: float, qualification: np.ndarray, wage: np.ndarray,
    employer: np.ndarray,
) -> float:
    """Fire-and-shrink: release the least qualified employees until cash covers
    the payroll; returns the payroll left, with its subtraction sequence.

    The kept employees become the payroll, most qualified first.
    """
    ranked = sorted(
        zip(qualification[firm.employees].tolist(), firm.employees),
        key=lambda qc: (qc[0], -qc[1]), reverse=True,
    )
    staff = [cid for _, cid in ranked]
    # walk from the least qualified end, releasing until affordable
    while staff and firm.cash < payroll:
        released = staff.pop()
        payroll -= wage.item(released)
        employer[released] = -1
        wage[released] = 0.0
    firm.employees = staff
    return payroll


def pay_wages(
    firms: Sequence[Firm],
    savings: np.ndarray,
    family: np.ndarray,
    qualification: np.ndarray,
    wage: np.ndarray,
    employer: np.ndarray,
    rates: TaxRates,
) -> tuple[np.ndarray, np.ndarray]:
    """Pay every firm's month-end payroll, splitting each wage into take-home and tax.

    ``savings`` is the family column; ``family``, ``qualification``, ``wage``
    and ``employer`` are citizen columns. A payroll is its employees' wages
    summed in payroll order from 0.0. If cash cannot cover it, the firm
    releases its least qualified employees until it can (fire-and-shrink),
    which keeps cash non-negative at month end; a released citizen's
    ``employer`` becomes -1 and its ``wage`` 0.0. Families are credited in
    firm order, then payroll order, one take-home pay at a time
    (``np.add.at``), as a loop over employees adds.
    The gross payroll paid is left in ``firm.payroll_this_month``; a firm
    without employees pays and records 0.0. Returns each employee's income tax, in
    the same order, as parallel arrays of municipality index and amount:
    the tax is computed as an array, and ``TaxLedger.add_all`` takes it so.
    """
    index, owner = _payroll_order(firms)
    gross = wage[index]
    payrolls = _per_firm_sums(owner, gross, len(firms)).tolist()
    shrunk = False
    for i, firm in enumerate(firms):
        if firm.cash < payrolls[i]:
            payrolls[i] = _release_until_affordable(
                firm, payrolls[i], qualification, wage, employer
            )
            shrunk = True
    if shrunk:
        index, owner = _payroll_order(firms)
        gross = wage[index]
    tax = gross * rates.personal_income
    np.add.at(savings, family[index], gross - tax)
    for firm, payroll in zip(firms, payrolls):
        firm.cash -= payroll
        firm.cumulative_profit -= payroll
        firm.payroll_this_month = payroll
    return np.array([firm.municipality for firm in firms], dtype=np.intp)[owner], tax


def rank_samples(firms: Sequence[Firm], picks: np.ndarray) -> tuple[list[Firm], np.ndarray]:
    """Rank ``firms`` by (price, id) once, and each row of ``picks`` by that rank.

    Returns the ranked firm list and, for every row of ``picks`` (indices
    into ``firms``), its ranks in ascending order, as one integer matrix:
    ``ranked[r]`` for ``r`` in a row is that sample's firms cheapest first,
    and a firm picked twice appears twice. Prices must stay fixed until the
    samples are consumed, as they do between production and ``set_price``.
    """
    order = np.lexsort(([f.id for f in firms], [f.price for f in firms]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ranked = [firms[i] for i in order.tolist()]
    return ranked, np.sort(rank[picks], axis=1)


def shopping_budgets(
    savings: np.ndarray, families: np.ndarray, savings_rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The families among ``families`` that shop this month, and their budgets.

    A family keeps ``savings_rates[i]`` of its savings and may spend the rest,
    ``(1.0 - rate) * savings``; one whose budget is at most 1e-12 buys nothing.
    """
    budgets = (1.0 - savings_rates) * savings[families]
    shopping = budgets > 1e-12
    return np.flatnonzero(shopping), budgets[shopping]


def consume(
    savings: np.ndarray,
    shoppers: np.ndarray,
    budgets: np.ndarray,
    ranked: Sequence[Firm],
    rank_rows: np.ndarray,
    rates: TaxRates,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Spend the month's consumption budgets: every shopper, in the order given.

    ``shoppers`` are family ids and ``budgets`` their budgets, as
    ``shopping_budgets`` gives them. ``ranked`` and ``rank_rows`` come from
    ``rank_samples``: shopper ``i`` shops at ``ranked[r]`` for ``r`` in
    ``rank_rows[i]``, cheapest first, skipping firms without stock, and
    buys ``min(budget / price, stock)`` at each until its budget is at most
    1e-12 or its sample runs out. Unspent budget stays in ``savings`` (the
    family column), from which each shopper's spending is subtracted once.

    The month runs as one pass and then a walk, with the bits of a walk over
    every shopper. The pass takes the shoppers in order up to the month's
    first stock-out: each buys its whole budget at its first firm in stock,
    ``u = budget / price`` units for ``u * price``, elementwise. A firm's
    stock before each of its buyers is one ``np.subtract.accumulate`` along
    the firm's row of arrivals (its stock, then each buyer's units), the
    subtractions of the walk in the walk's order. The pass ends at the first
    shopper whose ``u`` reaches its firm's stock, or whose budget keeps more
    than 1e-12; the shoppers before it commit at once, their net takings
    added per firm by ``np.add.at`` in shopper order. The scalar walk takes
    that shopper and every later one.

    Returns the month's units bought and money spent, each summed per family
    and then over families from 0.0, left to right (``np.add.accumulate``
    over the pass), and each purchase's nonzero consumption tax, in purchase
    order, as arrays of municipality index and amount for ``add_all``.
    """
    n_firms = len(ranked)
    stock = np.array([firm.inventory for firm in ranked], dtype=float)
    price = np.array([firm.price for firm in ranked], dtype=float)
    muni = np.array([firm.municipality for firm in ranked], dtype=np.intp)
    rate = rates.consumption

    # the pass: every shopper's whole budget at its first firm in stock; a
    # shopper without one buys nothing
    in_stock = (stock > 0.0)[rank_rows]
    shopper = np.arange(len(budgets))
    first = in_stock.argmax(axis=1)
    buys = in_stock[shopper, first]
    shop = rank_rows[shopper, first]
    u = np.where(buys, budgets / price[shop], 0.0)
    paid = u * price[shop]
    buyer = np.flatnonzero(buys)
    at = shop[buyer]
    # each buyer's place among its firm's buyers, and its firm's stock before
    # it: along a firm's row, its stock less each buyer's units in turn
    arrivals = np.bincount(at, minlength=n_firms)
    by_firm = np.argsort(at, kind="stable")
    place = np.empty_like(by_firm)
    place[by_firm] = np.arange(len(at)) - np.repeat(np.cumsum(arrivals) - arrivals, arrivals)
    left = np.zeros((n_firms, arrivals.max(initial=0) + 1))
    left[:, 0] = stock
    left[at, place + 1] = u[buyer]
    np.subtract.accumulate(left, axis=1, out=left)
    stops = (u[buyer] >= left[at, place]) | (budgets[buyer] - paid[buyer] > 1e-12)
    n_pass = int(stops.argmax()) if stops.any() else len(buyer)
    end = int(buyer[n_pass]) if n_pass < len(buyer) else len(budgets)

    # commit the shoppers before ``end``: each firm's stock after its buyers
    # among them, their net takings in shopper order, their spending
    at = at[:n_pass]
    stock = left[np.arange(n_firms), np.bincount(at, minlength=n_firms)]
    takings = paid[buyer[:n_pass]]
    tax = takings * rate
    net = takings - tax
    cash = np.array([firm.cash for firm in ranked], dtype=float)
    revenue = np.array([firm.revenue_this_month for firm in ranked], dtype=float)
    profit = np.array([firm.cumulative_profit for firm in ranked], dtype=float)
    for column in (cash, revenue, profit):
        np.add.at(column, at, net)
    taxed = tax != 0.0
    pass_munis, pass_amounts = muni[at[taxed]], tax[taxed]
    savings[shoppers[:end]] -= paid[:end]
    units_month = np.add.accumulate(u[:end])[-1].item() if end else 0.0
    spent_month = np.add.accumulate(paid[:end])[-1].item() if end else 0.0

    # the walk: every shopper from ``end`` on, firm by firm
    inventory = stock.tolist()
    price = price.tolist()
    cash = cash.tolist()
    revenue = revenue.tolist()
    profit = profit.tolist()
    muni = muni.tolist()
    tax_munis: list[int] = []
    tax_amounts: list[float] = []
    spent_by = []
    for budget, row in zip(budgets[end:].tolist(), rank_rows[end:].tolist()):
        units_total = 0.0
        spent_total = 0.0
        for r in row:
            stock = inventory[r]
            if stock <= 0.0:
                continue
            units = budget / price[r]
            if units > stock:
                units = stock
            spent = units * price[r]
            inventory[r] = stock - units
            tax = spent * rate
            net = spent - tax
            cash[r] += net
            revenue[r] += net
            profit[r] += net
            if tax:
                tax_munis.append(muni[r])
                tax_amounts.append(tax)
            budget -= spent
            units_total += units
            spent_total += spent
            if budget <= 1e-12:
                break
        spent_by.append(spent_total)
        units_month += units_total
        spent_month += spent_total
    savings[shoppers[end:]] -= spent_by
    for firm, stock, money, income, accrued in zip(ranked, inventory, cash, revenue, profit):
        firm.inventory = stock
        firm.cash = money
        firm.revenue_this_month = income
        firm.cumulative_profit = accrued
    return (
        units_month, spent_month,
        np.concatenate((pass_munis, np.array(tax_munis, dtype=np.intp))),
        np.concatenate((pass_amounts, tax_amounts)),
    )


def settle_profit_tax(firm: Firm, rates: TaxRates, taxes: TaxEntries) -> None:
    """Tax the period's profit if positive, into ``taxes``; reset the accumulator."""
    profit = firm.cumulative_profit
    firm.cumulative_profit = 0.0
    if profit <= 0.0:
        return
    tax = profit * rates.company
    if tax:
        firm.cash -= tax
        taxes[0].append(firm.municipality)
        taxes[1].append(tax)
