"""Tax collection ledger and the four alternative distribution policies.

Money enters here as (kind, origin municipality, amount) records, is routed
through three channels (kept locally, split equally by population, split by
the progressive population-bracket fund), and leaves as per-municipality
allocations that treasuries invest into their Quality of Life Index.
"""
from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError

if TYPE_CHECKING:
    from .economy import Firm

log = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-12


def sequential_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, rounding after each step.

    From Python 3.12 the builtin ``sum()`` compensates float rounding, so
    every float sum that reaches an output goes through here to keep the
    output bytes the same on every Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class TaxKind(Enum):
    """The five taxes collected from the simulated markets."""

    CONSUMPTION = "consumption"
    PERSONAL_INCOME = "personal_income"
    TRANSMISSION = "transmission"
    COMPANY = "company"
    PROPERTY = "property"


TAX_KINDS = tuple(TaxKind)


@dataclass
class TaxRates:
    """Statutory rates, all configurable. Property is an annual rate applied monthly."""

    consumption: float = 0.18
    personal_income: float = 0.275
    company: float = 0.15
    property_annual: float = 0.005
    transmission: float = 0.02

    @property
    def property_monthly(self) -> float:
        return self.property_annual / 12.0

    def validate(self) -> None:
        for name in ("consumption", "personal_income", "company", "property_annual", "transmission"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValidationError(f"tax rate {name}={v} outside [0, 1)")


class TaxLedger:
    """Per-month accumulator of tax amounts, one dict per kind keyed by origin municipality.

    Tax producers never write here: they hand back ``(municipality, amount)``
    entries, and the engine writes each phase's entries of one kind with one
    ``add_all``. Each kind's dict holds its origins in first-payment order.
    ``add`` stays as the one-entry reference that ``add_all`` must match bit
    for bit.
    """

    __slots__ = ("amounts", "event_count")

    def __init__(self):
        self.amounts: dict[TaxKind, dict[str, float]] = {k: {} for k in TAX_KINDS}
        self.event_count = 0

    def add(self, kind: TaxKind, origin: str, amount: float) -> None:
        if amount < 0:
            raise ValidationError(f"negative tax amount {amount} for {kind.value} in {origin}")
        if amount == 0.0:
            return
        pools = self.amounts[kind]
        pools[origin] = pools.get(origin, 0.0) + amount
        self.event_count += 1

    def add_all(self, kind: TaxKind, entries: Iterable[tuple[str, float]]) -> None:
        """``add`` every ``(origin, amount)`` entry in turn, skipping zeros."""
        pools = self.amounts[kind]
        count = 0
        for origin, amount in entries:
            if amount < 0:
                raise ValidationError(f"negative tax amount {amount} for {kind.value} in {origin}")
            if amount == 0.0:
                continue
            pools[origin] = pools.get(origin, 0.0) + amount
            count += 1
        self.event_count += count

    def total(self) -> float:
        return sequential_sum(self.total_by_kind().values())

    def total_by_kind(self) -> dict[TaxKind, float]:
        return {kind: sequential_sum(pools.values()) for kind, pools in self.amounts.items()}

    def by_kind(self, kind: TaxKind) -> dict[str, float]:
        return self.amounts[kind]

    def clear(self) -> None:
        for pools in self.amounts.values():
            pools.clear()
        self.event_count = 0


@dataclass(frozen=True)
class ChannelWeights:
    """How one tax kind is split across the three routing channels."""

    local: float
    equal: float
    mpf: float

    def validate(self, kind: str) -> None:
        for name, w in (("local", self.local), ("equal", self.equal), ("mpf", self.mpf)):
            if w < 0:
                raise ValidationError(f"{kind}: negative {name} weight {w}")
        s = self.local + self.equal + self.mpf
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"{kind}: channel weights sum to {s!r}, expected 1")


@dataclass(frozen=True)
class DistributionPolicy:
    """Per-kind channel weight matrix for one distribution case."""

    case_id: int
    weights: Mapping[TaxKind, ChannelWeights]

    def __post_init__(self):
        missing = [k for k in TAX_KINDS if k not in self.weights]
        if missing:
            raise ValidationError(f"policy missing weights for {[k.value for k in missing]}")
        for kind, w in self.weights.items():
            w.validate(kind.value)


def policy_for_case(case_id: int) -> DistributionPolicy:
    """Return the weight matrix of one of the four tested distribution cases.

    Case 1 is the status quo (partial local retention plus population-equal
    and bracket-fund channels), case 2 merges the municipalities for
    distribution purposes, case 3 keeps everything at the origin, case 4
    splits everything equally by population.
    """
    if case_id not in (1, 2, 3, 4):
        raise ValidationError(f"case_id must be in 1..4, got {case_id!r}")
    C = ChannelWeights
    if case_id == 1:
        table = {
            TaxKind.CONSUMPTION: C(0.1875, 0.8125, 0.0),
            TaxKind.PERSONAL_INCOME: C(0.0, 0.765, 0.235),
            TaxKind.TRANSMISSION: C(1.0, 0.0, 0.0),
            TaxKind.COMPANY: C(0.0, 0.765, 0.235),
            TaxKind.PROPERTY: C(1.0, 0.0, 0.0),
        }
    elif case_id == 2:
        table = {
            TaxKind.CONSUMPTION: C(0.0, 1.0, 0.0),
            TaxKind.PERSONAL_INCOME: C(0.0, 0.765, 0.235),
            TaxKind.TRANSMISSION: C(0.0, 1.0, 0.0),
            TaxKind.COMPANY: C(0.0, 0.765, 0.235),
            TaxKind.PROPERTY: C(0.0, 1.0, 0.0),
        }
    elif case_id == 3:
        table = {k: C(1.0, 0.0, 0.0) for k in TAX_KINDS}
    else:
        table = {k: C(0.0, 1.0, 0.0) for k in TAX_KINDS}
    return DistributionPolicy(case_id=case_id, weights=table)


# ---------------------------------------------------------------------------
# Population-bracket fund coefficients
# ---------------------------------------------------------------------------

# Anchor points of the default coefficient schedule: (population, coefficient),
# 0.6 rising in 17 steps of 0.2 to 4.0. Between anchors the coefficient is
# linearly interpolated; below the first anchor it is flat at 0.6 and above the
# last it is flat at 4.0. Interpolation (rather than a step function) is what
# keeps the per-capita share non-increasing in population everywhere, including
# across bracket boundaries; the terminal anchor is placed so the last ramp's
# slope still satisfies slope * pop <= coefficient.
DEFAULT_MPF_KNOTS: tuple[tuple[float, float], ...] = (
    (10_188, 0.6),
    (13_584, 0.8),
    (16_980, 1.0),
    (23_772, 1.2),
    (30_564, 1.4),
    (37_356, 1.6),
    (44_148, 1.8),
    (50_940, 2.0),
    (61_128, 2.2),
    (71_316, 2.4),
    (81_504, 2.6),
    (91_692, 2.8),
    (101_880, 3.0),
    (115_464, 3.2),
    (129_048, 3.4),
    (142_632, 3.6),
    (156_216, 3.8),
    (164_438, 4.0),
)


class MpfTable:
    """Progressive coefficient schedule over population.

    Rows are (max_population, coefficient) anchors in ascending order. The
    coefficient for an arbitrary population is linearly interpolated between
    anchors and clamped flat outside them.
    """

    def __init__(self, knots: Sequence[tuple[float, float]] = DEFAULT_MPF_KNOTS):
        if not knots:
            raise ValidationError("coefficient table needs at least one row")
        self.knots = tuple((float(p), float(c)) for p, c in knots)
        self._validate()

    def _validate(self) -> None:
        prev_p, prev_c = None, None
        for p, c in self.knots:
            if p <= 0 or c <= 0:
                raise ValidationError(f"table row ({p}, {c}) must be positive")
            if prev_p is not None:
                if p <= prev_p:
                    raise ValidationError(f"population column not ascending at {p}")
                if c < prev_c:
                    raise ValidationError(f"coefficient column decreasing at ({p}, {c})")
                # Per-capita progressivity needs slope * pop <= coefficient on
                # every segment; with that, coefficient/population cannot rise.
                slope = (c - prev_c) / (p - prev_p)
                if slope * prev_p > prev_c * (1 + 1e-12):
                    raise ValidationError(
                        f"segment ending at ({p}, {c}) breaks per-capita progressivity"
                    )
            prev_p, prev_c = p, c

    def coefficient(self, population: float) -> float:
        if population < 0:
            raise ValidationError(f"negative population {population}")
        knots = self.knots
        if population <= knots[0][0]:
            return knots[0][1]
        if population >= knots[-1][0]:
            return knots[-1][1]
        for (p0, c0), (p1, c1) in zip(knots, knots[1:]):
            if p0 <= population <= p1:
                return c0 + (c1 - c0) * (population - p0) / (p1 - p0)
        raise AssertionError("unreachable")


def load_mpf_table(path) -> MpfTable:
    """Read a (max_population, coefficient) CSV, validating monotonicity."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"max_population", "coefficient"} <= set(reader.fieldnames):
            raise ParseError("coefficient table needs columns 'max_population' and 'coefficient'")
        for i, row in enumerate(reader):
            try:
                rows.append((float(row["max_population"]), float(row["coefficient"])))
            except (TypeError, ValueError):
                raise ParseError(f"coefficient table row {i + 1}: non-numeric value") from None
    return MpfTable(rows)


@functools.cache
def read_mpf_table(path: str) -> MpfTable:
    """``load_mpf_table`` once per path and process; later runs share the table.

    A file changed on disk after its first read is not seen again.
    """
    return load_mpf_table(path)


# ---------------------------------------------------------------------------
# Share computation and distribution
# ---------------------------------------------------------------------------


def _close_to_one(shares: dict[str, float], order: Sequence[str]) -> dict[str, float]:
    # Absorb the floating-point residual into the largest share so the
    # shares sum to 1.0 exactly.
    residual = 1.0 - sequential_sum(shares[m] for m in order)
    if residual != 0.0:
        largest = max(order, key=lambda m: (shares[m], m))
        shares[largest] += residual
    return shares


def equal_shares(populations: Mapping[str, int], order: Sequence[str] | None = None) -> dict[str, float]:
    """Population-proportional shares, corrected to sum to exactly 1."""
    if order is None:
        order = list(populations)
    total = 0
    for m in order:
        pop = populations[m]
        if pop < 0:
            raise ValidationError(f"negative population for {m}")
        total += pop
    if total <= 0:
        raise ValidationError("total population is zero; equal shares undefined")
    shares = {m: populations[m] / total for m in order}
    return _close_to_one(shares, order)


def mpf_shares(
    populations: Mapping[str, int],
    table: MpfTable,
    order: Sequence[str] | None = None,
) -> dict[str, float]:
    """Coefficient-proportional shares; smaller municipalities get more per capita."""
    if order is None:
        order = list(populations)
    coefs = {m: table.coefficient(populations[m]) for m in order}
    total = sequential_sum(coefs[m] for m in order)
    if total <= 0:
        raise ValidationError("coefficient total is zero")
    shares = {m: coefs[m] / total for m in order}
    return _close_to_one(shares, order)


def distribute(
    ledger: TaxLedger,
    policy: DistributionPolicy,
    populations: Mapping[str, int],
    table: MpfTable,
    order: Sequence[str] | None = None,
) -> dict[TaxKind, dict[str, float]]:
    """Route every ledger amount through the policy's channels.

    Returns per-kind, per-municipality allocations. For each kind the
    allocations sum to the collected amount to the last ulp: the
    floating-point residual of the split is folded into the largest
    allocation (the money analogue of a largest-remainder correction).
    """
    if order is None:
        order = list(populations)
    eq = equal_shares(populations, order)
    mp = mpf_shares(populations, table, order)

    out: dict[TaxKind, dict[str, float]] = {}
    for kind in TAX_KINDS:
        pools = ledger.by_kind(kind)
        alloc = {m: 0.0 for m in order}
        if pools:
            w = policy.weights[kind]
            pool_total = 0.0
            for origin in sorted(pools):
                amount = pools[origin]
                pool_total += amount
                if w.local:
                    if origin not in alloc:
                        raise ValidationError(f"ledger origin {origin!r} not in region")
                    alloc[origin] += w.local * amount
                if w.equal:
                    for m in order:
                        alloc[m] += w.equal * amount * eq[m]
                if w.mpf:
                    for m in order:
                        alloc[m] += w.mpf * amount * mp[m]
            # folding once lands within an ulp of the pool; the re-sum can
            # round again, so a second pass usually clears the remainder
            for _ in range(2):
                residual = pool_total - sequential_sum(alloc[m] for m in order)
                if residual == 0.0:
                    break
                largest = max(order, key=lambda m: (alloc[m], m))
                alloc[largest] += residual
        out[kind] = alloc
    return out


# ---------------------------------------------------------------------------
# Treasuries
# ---------------------------------------------------------------------------


@dataclass
class Treasury:
    """One municipality's fiscal account and Quality of Life Index."""

    municipality_id: str
    balance: float = 0.0
    qli: float = 0.0
    cumulative_invested: float = 0.0


def invest(
    treasury: Treasury, allocation: float, population: int, qli_unit_cost: float
) -> tuple[float, float]:
    """Credit the allocation and convert the whole balance into QLI.

    The index rises linearly in the invested amount and inversely in the
    current population. Returns ``(spent, escheated)``: the amount spent
    this month, which the caller pays to firms for the public works (see
    ``pay_procurement``), and the balance that escheats to the region pool
    because a municipality with no citizens cannot absorb investment.
    """
    if allocation < 0:
        raise ValidationError(f"negative allocation {allocation}")
    if qli_unit_cost <= 0:
        raise ValidationError("qli_unit_cost must be positive")
    treasury.balance += allocation
    if treasury.balance == 0.0:
        return 0.0, 0.0
    if population <= 0:
        log.debug(
            "municipality %s has no population; %.6f escheats to region pool",
            treasury.municipality_id,
            treasury.balance,
        )
        escheated = treasury.balance
        treasury.balance = 0.0
        return 0.0, escheated
    invested = treasury.balance
    treasury.qli += invested / (population * qli_unit_cost)
    treasury.cumulative_invested += invested
    treasury.balance = 0.0
    return invested, 0.0


def pay_procurement(spent: float, firms: Sequence[Firm]) -> None:
    """Pay ``spent`` for public works to ``firms`` as revenue, in equal parts.

    The first firm takes the remainder, so the parts sum to ``spent`` exactly.
    """
    share = spent / len(firms)
    paid = 0.0
    for firm in firms[1:]:
        firm.cash += share
        firm.cumulative_profit += share
        firm.revenue_this_month += share
        paid += share
    first = firms[0]
    first.cash += spent - paid
    first.cumulative_profit += spent - paid
    first.revenue_this_month += spent - paid
