"""Monthly real-estate market with hedonic pricing and midpoint settlement.

Vacant houses are listed each month; a sampled set of families bids a
fraction of savings; a match settles at the average of the hedonic price and
the buyer's offer, moving the family and emitting transmission tax. Property
tax is charged monthly on owned stock, with arrears carried as family debt.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .fiscal import TaxKind, TaxLedger, TaxRates

if TYPE_CHECKING:
    from .state import SimulationState


@dataclass(slots=True)
class House:
    id: int
    municipality_id: str
    size: float
    quality: float
    location: tuple[float, float]
    owner_family_id: int | None = None  # None -> municipal stock
    resident_family_id: int | None = None
    last_transaction_price: float = 0.0


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


def hedonic_price(house: House, municipality_qli: float, params: HousingParams) -> float:
    """Attribute-based value: base x size x quality, scaled up with local QLI."""
    return (
        params.hedonic_base
        * house.size
        * house.quality
        * (1.0 + params.qli_elasticity * municipality_qli)
    )


def hedonic_prices(state: "SimulationState", params: HousingParams) -> dict[int, float]:
    """Every house's ``hedonic_price`` at its municipality's current QLI, by house id.

    One array expression with the operands of ``hedonic_price`` in its order,
    so every price has the same bits. The prices hold until QLI moves, which
    only ``invest`` does. ``tolist`` keeps them Python floats.
    """
    houses = state.houses.values()
    qli = {muni: treasury.qli for muni, treasury in state.treasuries.items()}
    size = np.array([h.size for h in houses], dtype=float)
    quality = np.array([h.quality for h in houses], dtype=float)
    local_qli = np.array([qli[h.municipality_id] for h in houses], dtype=float)
    prices = params.hedonic_base * size * quality * (1.0 + params.qli_elasticity * local_qli)
    return dict(zip(state.houses, prices.tolist()))


def run_housing_market(
    state: "SimulationState",
    prices: Mapping[int, float],
    params: HousingParams,
    rates: TaxRates,
    rng: np.random.Generator,
    ledger: TaxLedger,
) -> list[Transaction]:
    """Match sampled buyer families to listed vacant houses for one month.

    Vacant houses are listed at their ``prices`` (``hedonic_prices``). Buyers
    enter with probability ``market_entry_rate`` (savings permitting) and can
    afford any listing whose midpoint settlement stays within
    ``bid_fraction`` of savings. Each buyer takes the cheapest affordable
    listing; each house sells at most once; the last vacant house of a
    municipality is never sold, which preserves the vacancy invariant.
    """
    families = state.families
    if not families:
        return []
    fam_list = list(families.values())
    entry_draws = rng.random(len(fam_list))
    buyers = [
        f
        for f, draw in zip(fam_list, entry_draws)
        if draw < params.market_entry_rate and f.savings > 0.0
    ]
    if not buyers:
        return []

    listings: list[tuple[float, House]] = []
    vacant_count: dict[str, int] = {}
    for house in state.houses.values():
        if house.resident_family_id is None:
            vacant_count[house.municipality_id] = vacant_count.get(house.municipality_id, 0) + 1
            listings.append((prices[house.id], house))
    listings.sort(key=lambda ph: (ph[0], ph[1].id))

    transactions: list[Transaction] = []
    sold: set[int] = set()
    for family in buyers:
        offer = params.bid_fraction * family.savings
        chosen = None
        chosen_hedonic = 0.0
        for hedonic, house in listings:
            if hedonic > offer:
                break  # listings are sorted; nothing further is affordable
            if house.id in sold or house.owner_family_id == family.id:
                continue
            if vacant_count[house.municipality_id] <= 1:
                continue  # never sell a municipality's last vacant house
            chosen = house
            chosen_hedonic = hedonic
            break
        if chosen is None:
            continue

        price = (chosen_hedonic + offer) / 2.0
        tax = price * rates.transmission
        seller_id = chosen.owner_family_id
        family.savings -= price
        if seller_id is None:
            state.treasuries[chosen.municipality_id].balance += price - tax
        else:
            seller = families[seller_id]
            seller.savings += price - tax
            seller.owned_houses.remove(chosen.id)
        if tax:
            ledger.add(TaxKind.TRANSMISSION, chosen.municipality_id, tax)

        # move the family in; the old residence stays owned but empties
        old_house_id = family.house_id
        if old_house_id is not None:
            state.houses[old_house_id].resident_family_id = None
        chosen.owner_family_id = family.id
        chosen.resident_family_id = family.id
        chosen.last_transaction_price = price
        family.owned_houses.append(chosen.id)
        family.house_id = chosen.id
        family.municipality_id = chosen.municipality_id
        sold.add(chosen.id)
        vacant_count[chosen.municipality_id] -= 1
        transactions.append(
            Transaction(state.month, chosen.id, family.id, chosen_hedonic, offer, price)
        )
    return transactions


def collect_property_tax(
    state: "SimulationState",
    prices: Mapping[int, float],
    rates: TaxRates,
    ledger: TaxLedger,
) -> float:
    """Charge the monthly property tax on family-owned houses, valued at ``prices``.

    Municipal stock is not taxed (the municipality does not tax itself).
    What a family cannot pay accrues as per-municipality debt collected from
    savings in later months, so tax events always correspond to money that
    actually moved. Returns the total collected this month.
    """
    monthly_rate = rates.property_monthly
    collected_total = 0.0
    payments: list[tuple[str, float]] = []
    for family in state.families.values():
        dues: list[tuple[str, float]] = []
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
                collected_total += paid
            shortfall = amount - paid
            if shortfall > 0.0:
                family.tax_debt[muni] = family.tax_debt.get(muni, 0.0) + shortfall
    ledger.add_all(TaxKind.PROPERTY, payments)
    return collected_total
