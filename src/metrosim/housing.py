"""Monthly real-estate market with hedonic pricing and midpoint settlement.

A house is a row of ``SimulationState``'s house columns: its municipality,
size, quality, location, owner (-1 for municipal stock) and resident (-1
when vacant). Vacant houses are listed each month; a sampled set of
families bids a fraction of savings; a match settles at the average of the
hedonic price and the buyer's offer, moving the family and emitting
transmission tax. Property tax is charged monthly on owned stock, with
arrears carried as family debt (``SimulationState.arrears``). Neither tax
is written to the month's ledger here: the market appends each sale's
municipality index and tax to the ``TaxEntries`` lists the caller passes,
the property tax returns its payments as arrays, and the engine writes each
phase's entries with one ``TaxLedger.add_all``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ValidationError
from .fiscal import TaxEntries, TaxRates

if TYPE_CHECKING:
    from .state import SimulationState


@dataclass
class HousingParams:
    market_entry_rate: float = 0.05
    # money per size-quality unit, on the scale of a family's liquid savings
    hedonic_base: float = 2.0
    qli_elasticity: float = 0.3
    bid_fraction: float = 0.9  # share of savings a buyer is willing to commit

    def validate(self) -> None:
        if not 0.0 <= self.market_entry_rate <= 1.0:
            raise ValidationError("market_entry_rate must be in [0, 1]")
        if self.hedonic_base <= 0:
            raise ValidationError("hedonic_base must be positive")
        if self.qli_elasticity < 0:
            raise ValidationError("qli_elasticity must be non-negative")
        if not 0.0 < self.bid_fraction <= 1.0:
            raise ValidationError("bid_fraction must be in (0, 1]")


class Transaction(NamedTuple):
    month: int
    house_id: int
    buyer_family_id: int
    hedonic: float
    offer: float
    price: float


def hedonic_prices(state: "SimulationState", params: HousingParams) -> np.ndarray:
    """Every house's hedonic price at its municipality's current QLI, by house id.

    The attribute-based value is ``base x size x quality x (1 + elasticity x
    QLI)``, multiplied left to right. The prices hold until QLI moves, which
    only ``invest`` does.
    """
    qli = np.array([treasury.qli for treasury in state.treasuries], dtype=float)
    factor = 1.0 + params.qli_elasticity * qli
    return (
        params.hedonic_base * state.house_size * state.house_quality
        * factor[state.house_municipality]
    )


def vacancies(state: "SimulationState") -> np.ndarray:
    """Vacant houses by municipality index."""
    return np.bincount(
        state.house_municipality[state.resident < 0], minlength=len(state.treasuries)
    )


def run_housing_market(
    state: "SimulationState",
    prices: np.ndarray,
    params: HousingParams,
    rates: TaxRates,
    rng: np.random.Generator,
    taxes: TaxEntries,
) -> list[Transaction]:
    """Match sampled buyer families to listed vacant houses for one month.

    Vacant houses are listed at their ``prices`` (``hedonic_prices``). Every
    live family enters, in id order, with probability ``market_entry_rate``
    (savings permitting) and can afford any listing whose midpoint
    settlement stays within ``bid_fraction`` of savings. Each buyer takes the cheapest
    affordable listing, ties going to the lower house id; each house sells
    at most once; the last vacant house of a municipality is never sold,
    which preserves the vacancy invariant. Each sale's nonzero transmission
    tax is appended to ``taxes``, in sale order. A buyer's family moves, and
    its members with it, into the house.
    """
    live = np.flatnonzero(state.live)
    if not len(live):
        return []
    entrants = live[rng.random(len(live)) < params.market_entry_rate]
    buyers = entrants[state.savings[entrants] > 0.0].tolist()
    if not buyers:
        return []

    vacant = np.flatnonzero(state.resident < 0)
    listed = vacant[np.argsort(prices[vacant], kind="stable")]
    listings = list(zip(
        prices[listed].tolist(), listed.tolist(), state.house_municipality[listed].tolist()
    ))
    vacant_count = vacancies(state).tolist()

    savings, owner = state.savings, state.owner
    transactions: list[Transaction] = []
    sold: set[int] = set()
    for buyer in buyers:
        offer = params.bid_fraction * savings.item(buyer)
        chosen = -1
        for hedonic, house_id, muni in listings:
            if hedonic > offer:
                break  # listings are sorted; nothing further is affordable
            if house_id in sold or owner.item(house_id) == buyer:
                continue
            if vacant_count[muni] <= 1:
                continue  # never sell a municipality's last vacant house
            chosen = house_id
            break
        if chosen < 0:
            continue

        price = (hedonic + offer) / 2.0
        tax = price * rates.transmission
        seller = owner.item(chosen)
        savings[buyer] -= price
        if seller < 0:
            state.treasuries[muni].balance += price - tax
        else:
            savings[seller] += price - tax
            state.owned_houses[seller].remove(chosen)
        if tax:
            taxes[0].append(muni)
            taxes[1].append(tax)
        state.move_in(buyer, chosen)
        sold.add(chosen)
        vacant_count[muni] -= 1
        transactions.append(Transaction(state.month, chosen, buyer, hedonic, offer, price))
    return transactions


def _charge(funds: np.ndarray, dues: np.ndarray) -> np.ndarray:
    """Each family's payment of one due from its ``funds``, taken from them:
    the due in full, what is left of the funds, or nothing once they are gone,
    as the walk's ``min(amount, funds)`` and ``funds -= amount``."""
    paid = np.where(funds > 0.0, np.minimum(dues, funds), 0.0)
    funds -= paid
    return paid


def _pay_arrears_first(
    state: "SimulationState", walked: list[int], prices: np.ndarray, rate: float
) -> list[tuple[int, int, float]]:
    """The property tax walk of families ``walked``, each owing arrears it has
    savings to pay: its arrears by ascending municipality, then its houses'
    dues in purchase order. Returns the payments as (family, municipality,
    amount), in that order."""
    savings, arrears, municipality = state.savings, state.arrears, state.house_municipality
    entries: list[tuple[int, int, float]] = []
    rows = arrears[walked].tolist()
    held_by = savings[walked].tolist()
    for i, fam_id in enumerate(walked):
        # the row is rebuilt from 0.0, and 0.0 + debt is debt
        dues = [(m, owed) for m, owed in enumerate(rows[i]) if owed > 0.0]
        debt = rows[i] = [0.0] * len(rows[i])
        for house_id in state.owned_houses[fam_id]:
            dues.append((municipality.item(house_id), prices.item(house_id) * rate))
        funds = held_by[i]
        for m, amount in dues:
            if not amount > 0.0:
                continue  # a zero rate or price owes nothing
            if funds <= 0.0:
                debt[m] += amount
            elif funds < amount:  # min(amount, funds) is funds: pay it all, owe the rest
                entries.append((fam_id, m, funds))
                debt[m] += amount - funds
                funds = 0.0
            else:
                funds -= amount
                entries.append((fam_id, m, amount))
        held_by[i] = funds
    arrears[walked] = rows
    savings[walked] = held_by
    return entries


def collect_property_tax(
    state: "SimulationState",
    prices: np.ndarray,
    rates: TaxRates,
) -> tuple[np.ndarray, np.ndarray]:
    """Charge the monthly property tax on family-owned houses, valued at ``prices``.

    Municipal stock is not taxed (the municipality does not tax itself). What a family cannot
    pay accrues as arrears (``state.arrears``) collected from savings in
    later months, so tax events always correspond to money that actually
    moved. A family without savings adds its houses' dues to its arrears.
    Any other family pays its arrears, by ascending municipality, and then
    its houses' dues in purchase order, each as far as its savings go.
    Returns every payment, families in id order, as parallel arrays of
    municipality index and amount.

    One pass serves every owner family that is broke or clear of arrears,
    whatever its house count. Its dues are one row of a family x house
    matrix in purchase order (a one-house family's house is its home),
    padded with 0.0 to the largest house count, and the pass charges it one
    column at a time: the first column for every family, each later one for
    the families that own several houses. A due takes what the funds
    cover; from the first due they cannot cover on, the rest is owed,
    added to the arrears by ``np.add.at`` in due order. The families that
    owe arrears they can pay are walked one by one, and all payments are
    merged by family id, each family's in due order.
    """
    rate = rates.property_monthly
    savings, arrears, municipality = state.savings, state.arrears, state.house_municipality
    owner = state.owner
    # houses per family; municipal stock (owner -1) falls in bin 0, which is dropped
    owned = np.bincount(owner + 1, minlength=len(state.live) + 1)[1:]
    # any() down the columns of a transposed copy runs one vector op per
    # municipality, not one short loop per family
    in_debt = np.ascontiguousarray(arrears.T).any(axis=0)
    payer_in_debt = in_debt & (savings > 0.0)
    passed = np.flatnonzero((owned > 0) & ~payer_in_debt)
    walked = np.flatnonzero(payer_in_debt).tolist()

    # the first column is every family's first house; the later columns hold
    # the other houses of the families that own several, padded with -1,
    # which prices at 0.0
    counts = owned[passed]
    several = np.flatnonzero(counts > 1)
    bought = [state.owned_houses[f] for f in passed[several].tolist()]
    width = max(map(len, bought), default=1)
    columns = [[purchases[k] if k < len(purchases) else -1 for purchases in bought]
               for k in range(width)]
    first = state.home[passed]
    first[several] = columns[0]
    later = np.array(columns[1:], dtype=np.intp).ravel()
    houses = np.concatenate((first, later))
    dues = np.append(prices, 0.0)[houses] * rate
    funds = savings[passed]
    paid = [_charge(funds, dues[:len(passed)])]
    left = funds[several]
    paid += [_charge(left, due) for due in dues[len(passed):].reshape(width - 1, len(bought))]
    funds[several] = left
    savings[passed] = funds
    paid = np.concatenate(paid)
    owed = dues - paid
    fams = np.concatenate((passed, np.repeat(passed[several][None], width - 1, axis=0).ravel()))
    munis = municipality[houses]
    owing = owed > 0.0
    np.add.at(arrears, (fams[owing], munis[owing]), owed[owing])
    paying = paid > 0.0
    fams, tax_munis, amounts = fams[paying], munis[paying], paid[paying]

    entries = _pay_arrears_first(state, walked, prices, rate) if walked else []
    if entries:
        walked_fams, walked_munis, walked_amounts = zip(*entries)
        fams = np.concatenate([fams, walked_fams])
        tax_munis = np.concatenate([tax_munis, walked_munis])
        amounts = np.concatenate([amounts, walked_amounts])
    if width == 1 and not entries:
        return tax_munis, amounts
    order = np.argsort(fams, kind="stable")
    return tax_munis[order], amounts[order]
