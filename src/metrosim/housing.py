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

    One pass serves the families that own exactly one house (their home)
    and are broke or clear of arrears; the rest, who own several houses or
    owe arrears they can pay, are walked one by one. The two sets of
    payments are merged by family id.
    """
    rate = rates.property_monthly
    savings, arrears, municipality = state.savings, state.arrears, state.house_municipality
    owner = state.owner
    owned = np.bincount(owner[owner >= 0], minlength=len(state.live))
    payer_in_debt = arrears.any(axis=1) & (savings > 0.0)
    single = np.flatnonzero((owned == 1) & ~payer_in_debt)
    walked = np.flatnonzero((owned > 1) | payer_in_debt).tolist()

    # one house: ``min(dues, savings)`` is paid, and the rest owed
    homes = state.home[single]
    munis = municipality[homes]
    dues = prices[homes] * rate
    held = savings[single]
    solvent = held > 0.0
    paid = np.minimum(dues, held)
    savings[single] = np.where(solvent, held - paid, held)
    arrears[single, munis] += np.where(solvent, dues - paid, dues)
    payment = solvent & (dues > 0.0)
    fams, tax_munis, amounts = single[payment], munis[payment], paid[payment]
    if not walked:
        return tax_munis, amounts

    entries: list[tuple[int, int, float]] = []  # (family, municipality, amount)
    rows = arrears[walked].tolist()
    held_by = savings[walked].tolist()
    for i, fam_id in enumerate(walked):
        # a broke family's arrears pass through unchanged: 0.0 + debt is debt
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
    if not entries:
        return tax_munis, amounts
    walked_fams, walked_munis, walked_amounts = zip(*entries)
    order = np.argsort(np.concatenate([fams, walked_fams]), kind="stable")
    return (
        np.concatenate([tax_munis, walked_munis]).astype(np.intp)[order],
        np.concatenate([amounts, walked_amounts])[order],
    )
