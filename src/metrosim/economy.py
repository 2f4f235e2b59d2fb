"""Firms, families, and the three flows between them: labor, goods, wages.

Firms produce a homogeneous good from employee qualification, adjust price
and wage offers on inventory/cash signals, and compete for workers by wage.
Families consume from sampled firms, cheapest first. A firm is a row of the
``SimulationState`` firm columns, and production, pricing, wage offers, the
payroll and the profit tax each run as one pass over every firm per month.
A firm's staff are the citizens whose ``employer`` names it, in payroll
order (``SimulationState.payroll_order``). No function here writes the
month's ledger: the payroll, consumption and the profit tax return their
taxes as arrays of municipality index and amount, in firm or purchase
order, and the engine writes each phase's taxes with one
``TaxLedger.add_all``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError
from .fiscal import TaxRates

if TYPE_CHECKING:
    from .state import SimulationState


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


def _per_firm_sums(owner: np.ndarray, values: np.ndarray, n_firms: int) -> np.ndarray:
    """Each firm's ``values`` added in payroll order from 0.0, as ``np.bincount`` adds a
    bin's entries; floats even when no firm has employees."""
    return np.bincount(owner, weights=values, minlength=n_firms).astype(float, copy=False)


def produce(state: SimulationState, output: np.ndarray, params: MarketParams) -> np.ndarray:
    """Add this month's output to every firm's inventory; returns the units, by firm id.

    A firm's output is alpha * sum(q^beta) over its current employees, in
    payroll order. ``output`` is the ``output_per_worker`` table. No money
    moves.
    """
    staff, owner = state.payroll_order()
    totals = _per_firm_sums(owner, output[state.qualification[staff]], len(state.cash))
    units = params.productivity_alpha * totals
    state.inventory += units
    state.last_production[:] = units
    return units


def set_price(state: SimulationState, params: MarketParams) -> None:
    """Inventory-signal pricing of every firm: raise when sold out, cut on a glut,
    floor below."""
    inventory, made, price = state.inventory, state.last_production, state.price
    sold_out = inventory <= params.sold_out_level
    glut = ~sold_out & (made > 0) & (inventory > params.inventory_glut_months * made)
    price[sold_out] *= 1.0 + params.price_step
    price[glut] *= 1.0 - params.price_step
    price[price < params.price_floor] = params.price_floor


def set_wage_and_vacancy(state: SimulationState, params: MarketParams) -> np.ndarray:
    """Adjust every firm's wage offer and decide which firms post a vacancy.

    An offer rises after a vacancy went unfilled and falls when cash cannot
    cover the payroll due. The unfilled signal is consumed, set again only
    by a new failed round. A vacancy is posted when the month ends with
    empty inventory (excess demand). Returns the posting firms' ids,
    ascending.
    """
    unfilled, due = state.vacancy_unfilled, state.payroll_this_month
    short = ~unfilled & (due > 0) & (state.cash < due)
    state.wage_offer[unfilled] *= 1.0 + params.wage_step
    state.wage_offer[short] *= 1.0 - params.wage_step
    unfilled[:] = False
    return np.flatnonzero(state.inventory <= params.sold_out_level)


def run_labor_market(
    vacancies: Sequence[int],
    candidates: Sequence[int],
    state: SimulationState,
    residences: tuple[np.ndarray, np.ndarray],
    params: MarketParams,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Match vacancy-posting firms (firm ids) to unemployed candidates (citizen ids).

    Firms offering higher wages pick first. Each firm draws a sample of
    candidates and hires the most qualified of them, except that with
    probability ``proximity_hire_share`` it hires the sample's
    nearest-residence candidate instead. One hire per vacancy; each
    candidate is matched at most once, so the firms that find the pool empty
    are the last in order. ``residences`` holds every citizen's home x and
    y by citizen id, as ``SimulationState.residences`` gives them. Returns
    (firm_id, citizen_id) pairs and flags ``vacancy_unfilled`` of the firms
    whose vacancy went unfilled.

    A sampled candidate's qualification and home are read from the columns
    by its id, so the pool is the one list that shrinks with each hire.
    """
    offer, firm_x, firm_y = state.wage_offer, state.firm_x, state.firm_y
    qual = state.qualification
    home_x, home_y = residences
    order = sorted(map(int, vacancies), key=lambda f: (-offer.item(f), f))
    pool = list(candidates)
    matches: list[tuple[int, int]] = []
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
                d = (home_x.item(cid) - fx) ** 2 + (home_y.item(cid) - fy) ** 2
                key = (d, cid)  # nearer wins, id breaks ties
            else:
                key = (-qual.item(cid), cid)  # higher qualification wins
            if best_key is None or key < best_key:
                best_key = key
                best_i = i
        hired = pool.pop(best_i)
        matches.append((firm, hired))
    state.vacancy_unfilled[order[:len(matches)]] = False
    state.vacancy_unfilled[order[len(matches):]] = True
    return matches


def _release_until_affordable(state: SimulationState, firm: int, payroll: float) -> float:
    """Fire-and-shrink: release firm ``firm``'s least qualified employees until its
    cash covers the payroll; returns the payroll left, with its subtraction
    sequence.

    The kept employees become the payroll, most qualified first, with fresh
    payroll positions.
    """
    staff = np.flatnonzero(state.employer == firm)  # ascending ids: ties go to the lower
    staff = staff[np.argsort(-state.qualification[staff], kind="stable")].tolist()
    cash = state.cash.item(firm)
    # walk from the least qualified end, releasing until affordable
    while staff and cash < payroll:
        released = staff.pop()
        payroll -= state.wage.item(released)
        state.employer[released] = -1
        state.wage[released] = 0.0
    state.payroll_position[staff] = state.issue_positions(len(staff))
    return payroll


def pay_wages(state: SimulationState, rates: TaxRates) -> tuple[np.ndarray, np.ndarray]:
    """Pay every firm's month-end payroll, splitting each wage into take-home and tax.

    A payroll is its employees' wages summed in payroll order from 0.0. If
    cash cannot cover it, the firm releases its least qualified employees
    until it can (fire-and-shrink), which keeps cash non-negative at month
    end up to the rounding residual of a payroll whose staff are all
    released; a released citizen's ``employer`` becomes -1 and its ``wage``
    0.0. Families' ``savings`` are credited in firm order, then payroll
    order, one take-home pay at a time (``np.add.at``), as a loop over
    employees adds. The gross payroll paid is left in
    ``payroll_this_month``; a firm without employees pays and records 0.0.
    Returns each employee's income tax, in the same order, as parallel
    arrays of municipality index and amount: the tax is computed as an
    array, and ``TaxLedger.add_all`` takes it so.
    """
    wage = state.wage
    index, owner = state.payroll_order()
    gross = wage[index]
    payrolls = _per_firm_sums(owner, gross, len(state.cash))
    short = np.flatnonzero(state.cash < payrolls).tolist()
    for f in short:
        payrolls[f] = _release_until_affordable(state, f, payrolls.item(f))
    if short:
        index, owner = state.payroll_order()
        gross = wage[index]
    tax = gross * rates.personal_income
    np.add.at(state.savings, state.family[index], gross - tax)
    state.cash -= payrolls
    state.cumulative_profit -= payrolls
    state.payroll_this_month[:] = payrolls
    return state.firm_municipality[owner], tax


def rank_samples(price: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank the firms by (price, id) once, and each row of ``picks`` by that rank.

    ``price`` is the firm column. Returns the firm ids in rank order and,
    for every row of ``picks`` (firm ids), its ranks in ascending order, as
    one integer matrix: firm ``ranked[r]`` for ``r`` in a row is that
    sample's firms cheapest first, and a firm picked twice appears twice.
    Prices must stay fixed until the samples are consumed, as they do
    between production and ``set_price``.
    """
    ranked = np.argsort(price, kind="stable")  # ties stay in id order
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(len(ranked))
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
    state: SimulationState,
    shoppers: np.ndarray,
    budgets: np.ndarray,
    ranked: np.ndarray,
    rank_rows: np.ndarray,
    rates: TaxRates,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Spend the month's consumption budgets: every shopper, in the order given.

    ``shoppers`` are family ids and ``budgets`` their budgets, as
    ``shopping_budgets`` gives them. ``ranked`` and ``rank_rows`` come from
    ``rank_samples``: shopper ``i`` shops at firm ``ranked[r]`` for ``r`` in
    ``rank_rows[i]``, cheapest first, skipping firms without stock, and
    buys ``min(budget / price, stock)`` at each until its budget is at most
    1e-12 or its sample runs out. Unspent budget stays in ``savings``, from
    which each shopper's spending is subtracted once. Stock and price are
    gathered in rank order, and the stock left is scattered back.

    The month runs as one pass and then a walk, with the bits of a walk over
    every shopper. The pass takes the shoppers in order up to the month's
    first stock-out: each buys its whole budget at its first firm in stock,
    ``u = budget / price`` units for ``u * price``, elementwise. A firm's
    stock before each of its buyers is one ``np.subtract.accumulate`` along
    the firm's row of arrivals (its stock, then each buyer's units), the
    subtractions of the walk in the walk's order. The pass ends at the first
    shopper whose ``u`` reaches its firm's stock, or whose budget keeps more
    than 1e-12; the shoppers before it commit at once. The scalar walk takes
    that shopper and every later one, and keeps only what a later shopper
    reads: stock, budget and the month totals. Each purchase of the pass and
    the walk leaves its firm and money spent; after the walk its tax and net
    takings are computed as arrays, and the takings added to ``cash``,
    ``revenue_this_month`` and ``cumulative_profit`` by ``np.add.at`` in
    purchase order, the ``+=`` of a walk in the walk's order.

    Returns the month's units bought and money spent, each summed per family
    and then over families from 0.0, left to right (``np.add.accumulate``
    over the pass), and each purchase's nonzero consumption tax, in purchase
    order, as arrays of municipality index and amount for ``add_all``.
    """
    savings = state.savings
    n_firms = len(ranked)
    stock = state.inventory[ranked]
    price = state.price[ranked]
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
    # in the smallest integer type that holds a rank, the stable sort is a radix sort
    by_firm = np.argsort(at.astype(np.min_scalar_type(n_firms)), kind="stable")
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
    # among them, and their spending
    at = at[:n_pass]
    stock = left[np.arange(n_firms), np.bincount(at, minlength=n_firms)]
    savings[shoppers[:end]] -= paid[:end]
    units_month = np.add.accumulate(u[:end])[-1].item() if end else 0.0
    spent_month = np.add.accumulate(paid[:end])[-1].item() if end else 0.0

    # the walk: every shopper from ``end`` on, firm by firm; it keeps what a
    # later shopper reads, and each purchase's firm rank and money spent
    inventory = stock.tolist()
    price = price.tolist()
    ranks: list[int] = []
    spends: list[float] = []
    spent_by = []
    for budget, row in zip(budgets[end:].tolist(), rank_rows[end:].tolist()):
        units_total = 0.0
        spent_total = 0.0
        for r in row:
            stock = inventory[r]
            if stock <= 0.0:
                continue
            cost = price[r]
            units = budget / cost
            if units > stock:
                units = stock
            spent = units * cost
            inventory[r] = stock - units
            ranks.append(r)
            spends.append(spent)
            budget -= spent
            units_total += units
            spent_total += spent
            if budget <= 1e-12:
                break
        spent_by.append(spent_total)
        units_month += units_total
        spent_month += spent_total
    savings[shoppers[end:]] -= np.fromiter(spent_by, dtype=float, count=len(spent_by))
    state.inventory[ranked] = inventory

    # every purchase, pass and walk, in purchase order: its tax and net
    # takings, added per firm in that order
    n_walked = len(ranks)
    firms = ranked[np.concatenate((at, np.fromiter(ranks, dtype=np.intp, count=n_walked)))]
    spent = np.concatenate((paid[buyer[:n_pass]], np.fromiter(spends, dtype=float, count=n_walked)))
    tax = spent * rates.consumption
    net = spent - tax
    for column in (state.cash, state.revenue_this_month, state.cumulative_profit):
        np.add.at(column, firms, net)
    taxed = tax != 0.0
    return units_month, spent_month, state.firm_municipality[firms[taxed]], tax[taxed]


def settle_profit_tax(state: SimulationState, rates: TaxRates) -> tuple[np.ndarray, np.ndarray]:
    """Tax every firm's period profit where positive, and reset the accumulators.

    Returns the nonzero taxes in firm order, as arrays of municipality index
    and amount.
    """
    profit = state.cumulative_profit
    tax = profit * rates.company
    taxed = (profit > 0.0) & (tax != 0.0)
    tax = tax[taxed]
    state.cash[taxed] -= tax
    profit[:] = 0.0
    return state.firm_municipality[taxed], tax
