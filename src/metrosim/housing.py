"""Monthly real-estate market with hedonic pricing and midpoint settlement.

Vacant houses are listed each month; a sampled set of families bids a
fraction of savings; a match settles at the average of the hedonic price and
the buyer's offer, moving the family and emitting transmission tax. Property
tax is charged monthly on owned stock, with arrears carried as family debt.
Neither tax is written to the month's ledger here: each payment is appended
as a ``(municipality, amount)`` entry to a list the caller passes, and the
engine writes each phase's entries with one ``TaxLedger.add_all``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .fiscal import TaxRates

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


class HedonicUnits(NamedTuple):
    """The per-run part of every house's hedonic price, indexed by house id.

    Houses are fixed for a run (see ``SimulationState``) and never altered,
    so ``base x size x quality`` is computed once; a month gathers only QLI.
    """

    municipalities: list[str]  # the QLI gather order
    municipality_index: np.ndarray  # per house, into ``municipalities``
    unit: np.ndarray  # per house, base x size x quality


def hedonic_units(state: "SimulationState", params: HousingParams) -> HedonicUnits:
    """Each house's ``base x size x quality``, in ``hedonic_price``'s operand order."""
    houses = state.houses
    municipalities = list(state.treasuries)
    position = {muni: i for i, muni in enumerate(municipalities)}
    size = np.array([h.size for h in houses], dtype=float)
    quality = np.array([h.quality for h in houses], dtype=float)
    return HedonicUnits(
        municipalities=municipalities,
        municipality_index=np.array([position[h.municipality_id] for h in houses], dtype=np.intp),
        unit=params.hedonic_base * size * quality,
    )


def hedonic_prices(
    state: "SimulationState", params: HousingParams, units: HedonicUnits
) -> list[float]:
    """Every house's ``hedonic_price`` at its municipality's current QLI, by house id.

    Each price is its unit in ``units`` (this world's ``hedonic_units``) times
    ``1 + elasticity x QLI``, the operands of ``hedonic_price`` in its order,
    so every price has the same bits. The prices hold until QLI moves, which
    only ``invest`` does. ``tolist`` keeps them Python floats.
    """
    qli = np.array([state.treasuries[m].qli for m in units.municipalities], dtype=float)
    factor = 1.0 + params.qli_elasticity * qli
    prices = units.unit * factor[units.municipality_index]
    return prices.tolist()


def run_housing_market(
    state: "SimulationState",
    prices: Sequence[float],
    params: HousingParams,
    rates: TaxRates,
    rng: np.random.Generator,
    taxes: list[tuple[str, float]],
) -> list[Transaction]:
    """Match sampled buyer families to listed vacant houses for one month.

    Vacant houses are listed at their ``prices`` (``hedonic_prices``). Buyers
    enter with probability ``market_entry_rate`` (savings permitting) and can
    afford any listing whose midpoint settlement stays within
    ``bid_fraction`` of savings. Each buyer takes the cheapest affordable
    listing; each house sells at most once; the last vacant house of a
    municipality is never sold, which preserves the vacancy invariant. Each
    sale's nonzero transmission tax is appended to ``taxes`` as
    ``(municipality, amount)``, in sale order.
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
    for house in state.houses:
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
            taxes.append((chosen.municipality_id, tax))

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
    prices: Sequence[float],
    rates: TaxRates,
    taxes: list[tuple[str, float]],
) -> None:
    """Charge the monthly property tax on family-owned houses, valued at ``prices``.

    Municipal stock is not taxed (the municipality does not tax itself).
    What a family cannot pay accrues as per-municipality debt collected from
    savings in later months, so tax events always correspond to money that
    actually moved. A family without savings adds its houses' dues to its
    debt in place. Any other family pays its arrears (by municipality) and
    then its houses' dues in turn, each as far as its savings go, and its
    savings are written back once. Each payment is appended to ``taxes`` as
    ``(municipality, amount)``, in payment order.
    """
    monthly_rate = rates.property_monthly
    houses = state.houses
    for family in state.families.values():
        owned = family.owned_houses
        debt = family.tax_debt
        savings = family.savings
        if savings <= 0.0:
            for house_id in owned:
                amount = prices[house_id] * monthly_rate
                if amount > 0.0:
                    muni = houses[house_id].municipality_id
                    debt[muni] = debt.get(muni, 0.0) + amount
            continue
        if debt:
            dues = sorted(debt.items())
            debt = family.tax_debt = {}
        elif owned:
            dues = []
        else:
            continue
        for house_id in owned:
            dues.append((houses[house_id].municipality_id, prices[house_id] * monthly_rate))
        for muni, amount in dues:
            if not amount > 0.0:
                continue  # a zero rate or price owes nothing
            if savings <= 0.0:
                debt[muni] = debt.get(muni, 0.0) + amount
            elif savings < amount:  # min(amount, savings) is savings: pay it all, owe the rest
                taxes.append((muni, savings))
                debt[muni] = debt.get(muni, 0.0) + (amount - savings)
                savings = 0.0
            else:
                savings -= amount
                taxes.append((muni, amount))
        family.savings = savings
