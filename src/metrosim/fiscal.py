"""Tax collection ledger and the four alternative distribution policies.

Money enters here as (kind, origin municipality index, amount) records, is routed
through three channels (kept locally, split equally by population, split by
the progressive population-bracket fund), and leaves as per-municipality
allocations that municipalities invest into their Quality of Life Index.
"""
from __future__ import annotations

import csv
import functools
import logging
from dataclasses import astuple, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError, columns, finite

if TYPE_CHECKING:
    from .state import SimulationState

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
_ROW = {kind: i for i, kind in enumerate(TAX_KINDS)}  # a kind's row in a ledger

# One phase's tax entries: parallel lists of origin municipality indices and
# amounts, in payment order, for ``TaxLedger.add_all``, which takes arrays too.
TaxEntries = tuple[list[int], list[float]]


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
    """One month's tax amounts: each kind's sum per origin municipality.

    Each month gets a fresh ledger, ``engine._Month.ledger``, sized to the
    region's ``n_munis`` municipalities, which lives as long as the month.
    Origins are municipality indices in ``0 .. n_munis - 1``; any other is
    rejected before a sum moves, as is a negative or non-finite amount. Tax
    producers never write here: they return each entry's index and amount
    as parallel arrays, or append them to a pair of parallel lists
    (``TaxEntries``), and the engine writes each phase's entries of one kind
    with one ``add_all``. ``sums`` is one kind x municipality array, one row
    per kind in ``TAX_KINDS`` order (0.0 where nothing was paid), and its
    sums grow entry by entry in entry order, from 0.0, across every write of
    the month, so each has the bits of a left-to-right sum. ``add`` stays as
    the one-entry reference that ``add_all`` must match bit for bit.
    """

    __slots__ = ("sums", "_origins", "event_count")

    def __init__(self, n_munis: int):
        self.sums = np.zeros((len(TAX_KINDS), n_munis))
        # each kind's origins in first-payment order (dicts as ordered sets),
        # the order ``total_by_kind`` adds them in
        self._origins: list[dict[int, None]] = [{} for _ in TAX_KINDS]
        self.event_count = 0

    def _check_origin(self, kind: TaxKind, low: int, high: int) -> None:
        n = self.sums.shape[1]
        if low < 0 or high >= n:
            bad = low if low < 0 else high
            raise ValidationError(
                f"municipality index {bad} for {kind.value} outside 0..{n - 1}"
            )

    def add(self, kind: TaxKind, origin: int, amount: float) -> None:
        if not 0.0 <= amount < np.inf:  # a negative, a NaN or an infinity
            raise ValidationError(f"invalid tax amount {amount} for {kind.value} in {origin}")
        if amount == 0.0:
            return
        self._check_origin(kind, origin, origin)
        row = _ROW[kind]
        self.sums[row, origin] += amount
        self._origins[row].setdefault(origin)
        self.event_count += 1

    def add_all(self, kind: TaxKind, munis: Sequence[int], amounts: Sequence[float]) -> None:
        """``add`` every entry ``(munis[i], amounts[i])`` in turn, skipping zeros.

        ``np.add.at`` adds each index's entries in entry order onto its sum,
        the bits of ``add`` in turn.
        """
        amounts = np.asarray(amounts, dtype=float)
        if not amounts.size:
            return
        munis = np.asarray(munis, dtype=np.intp)
        if not (amounts.min() > 0.0 and amounts.max() < np.inf):  # a zero or a bad amount
            bad = np.flatnonzero(~((amounts >= 0.0) & (amounts < np.inf)))
            if bad.size:
                i = bad[0]
                raise ValidationError(
                    f"invalid tax amount {amounts[i]} for {kind.value} in {munis[i]}"
                )
            paid = amounts != 0.0
            munis, amounts = munis[paid], amounts[paid]
            if not munis.size:
                return
        self._check_origin(kind, munis.min(), munis.max())
        row = _ROW[kind]
        np.add.at(self.sums[row], munis, amounts)
        # an entry with the origin of the entry before it pays no origin's
        # first, so only the heads of runs go to dict.fromkeys, which keeps
        # first payments in order; update appends only the new origins
        head = np.empty(len(munis), dtype=bool)
        head[0] = True
        np.not_equal(munis[1:], munis[:-1], out=head[1:])
        self._origins[row].update(dict.fromkeys(munis[head].tolist()))
        self.event_count += len(munis)

    def total_by_kind(self) -> np.ndarray:
        """Each kind's month total, in ``TAX_KINDS`` order: its origins' sums
        added in first-payment order."""
        return np.array([
            sequential_sum(map(sums.__getitem__, origins))
            for sums, origins in zip(self.sums.tolist(), self._origins)
        ])


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
    # kind x (local, equal, mpf), the kinds in TAX_KINDS order, resolved once
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [k for k in TAX_KINDS if k not in self.weights]
        if missing:
            raise ValidationError(f"policy missing weights for {[k.value for k in missing]}")
        for kind, w in self.weights.items():
            w.validate(kind.value)
        matrix = np.array([astuple(self.weights[kind]) for kind in TAX_KINDS])
        matrix.flags.writeable = False  # the POLICIES are shared by every run
        object.__setattr__(self, "matrix", matrix)

    @property
    def merged(self) -> bool:  # no tax keeps a local share: the paper's alternative0 = false
        return not any(w.local for w in self.weights.values())

    @property
    def uses_mpf(self) -> bool:  # some tax feeds the bracket fund: mpf_distribution
        return any(w.mpf for w in self.weights.values())


# The tested cases by id, shared by every run, so read and never assigned to:
# 1 is the status quo, 2 merges the municipalities' finances, 3 keeps every tax
# at its origin and 4 splits every tax by population.
POLICIES: dict[int, DistributionPolicy] = {
    case_id: DistributionPolicy(case_id, weights)
    for case_id, weights in {
        1: {
            TaxKind.CONSUMPTION: ChannelWeights(0.1875, 0.8125, 0.0),
            TaxKind.PERSONAL_INCOME: ChannelWeights(0.0, 0.765, 0.235),
            TaxKind.TRANSMISSION: ChannelWeights(1.0, 0.0, 0.0),
            TaxKind.COMPANY: ChannelWeights(0.0, 0.765, 0.235),
            TaxKind.PROPERTY: ChannelWeights(1.0, 0.0, 0.0),
        },
        2: {
            TaxKind.CONSUMPTION: ChannelWeights(0.0, 1.0, 0.0),
            TaxKind.PERSONAL_INCOME: ChannelWeights(0.0, 0.765, 0.235),
            TaxKind.TRANSMISSION: ChannelWeights(0.0, 1.0, 0.0),
            TaxKind.COMPANY: ChannelWeights(0.0, 0.765, 0.235),
            TaxKind.PROPERTY: ChannelWeights(0.0, 1.0, 0.0),
        },
        3: {kind: ChannelWeights(1.0, 0.0, 0.0) for kind in TAX_KINDS},
        4: {kind: ChannelWeights(0.0, 1.0, 0.0) for kind in TAX_KINDS},
    }.items()
}
CASES = tuple(POLICIES)


def policy_for_case(case_id: int) -> DistributionPolicy:
    """The shared weight matrix of one of the tested cases in ``POLICIES``."""
    if case_id not in POLICIES:
        raise ValidationError(f"case_id must be one of {CASES}, got {case_id!r}")
    return POLICIES[case_id]


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
            for value in (p, c):
                finite(value, f"table row ({p}, {c})", ValidationError)
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
        header = columns(reader.fieldnames, "coefficient table", ParseError)
        if not {"max_population", "coefficient"} <= set(header):
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


def _close_to_one(shares: list[float]) -> list[float]:
    # Absorb the floating-point residual into the largest share so the
    # shares sum to 1.0 exactly.
    residual = 1.0 - sequential_sum(shares)
    if residual != 0.0:
        largest = max(range(len(shares)), key=lambda m: (shares[m], m))
        shares[largest] += residual
    return shares


def equal_shares(populations: Sequence[int]) -> list[float]:
    """Population-proportional shares by municipality index, corrected to sum to exactly 1."""
    total = 0
    for m, pop in enumerate(populations):
        if pop < 0:
            raise ValidationError(f"negative population for municipality {m}")
        total += pop
    if total <= 0:
        raise ValidationError("total population is zero; equal shares undefined")
    return _close_to_one([pop / total for pop in populations])


def mpf_shares(populations: Sequence[int], table: MpfTable) -> list[float]:
    """Coefficient-proportional shares by municipality index; smaller municipalities
    get more per capita."""
    coefs = [table.coefficient(pop) for pop in populations]
    total = sequential_sum(coefs)
    if total <= 0:
        raise ValidationError("coefficient total is zero")
    return _close_to_one([coef / total for coef in coefs])


def distribute(
    sums: np.ndarray, policy: DistributionPolicy, equal: np.ndarray, mpf: np.ndarray
) -> np.ndarray:
    """Route a month's taxes through the policy's channels.

    ``sums`` is the ledger's kind x municipality array (``TaxLedger.sums``),
    ``equal`` and ``mpf`` the month's share vectors, and the result is the
    kind x municipality allocation. Each origin, in index order, adds its
    local part at its own column, then ``(w * amount) * share`` of the equal
    and of the mpf channel at every column: the parts tensor kind x origin x
    channel x municipality (120 n**2 bytes for n municipalities), folded
    left to right by ``np.add.accumulate``. An unpaid origin or a zero
    weight adds +0.0, which moves no bit, since no allocation is ever -0.0.
    Each kind's floating-point residual goes to its largest allocation, ties
    to the highest index, so the allocations sum to the pool to the last ulp.
    """
    kinds, n = sums.shape
    if equal.shape != (n,) or mpf.shape != (n,):
        raise ValidationError(f"ledger of {n} municipalities, shares of {len(equal)}/{len(mpf)}")
    # origin x channel x municipality: the identity keeps the local part at
    # its origin (x 1.0 there, x 0.0 elsewhere), then the two share vectors
    basis = np.empty((n, 3, n))
    basis[:, 0] = np.eye(n)
    basis[:, 1] = equal
    basis[:, 2] = mpf
    scaled = sums[:, :, None] * policy.matrix[:, None, :]  # w * amount by kind, origin, channel
    parts = (scaled[..., None] * basis).reshape(kinds, 3 * n, n)
    alloc = np.add.accumulate(parts, axis=1)[:, -1]
    pool = np.add.accumulate(sums, axis=1)[:, -1]
    # folding once lands within an ulp of the pool; the re-sum can round
    # again, so a second pass usually clears the remainder
    for _ in range(2):
        residual = pool - np.add.accumulate(alloc, axis=1)[:, -1]
        if not residual.any():
            break
        alloc[np.arange(kinds), n - 1 - alloc[:, ::-1].argmax(1)] += residual
    return alloc


# ---------------------------------------------------------------------------
# Investment
# ---------------------------------------------------------------------------


def invest(
    state: SimulationState, allocations: np.ndarray, populations: np.ndarray,
    qli_unit_cost: float,
) -> np.ndarray:
    """Credit each municipality its allocation and convert its whole balance
    into QLI, one pass over the ``state.treasury`` and ``state.qli`` columns.

    ``allocations`` and ``populations`` are by municipality index. The index
    rises linearly in the invested amount and inversely in the current
    population. A municipality whose balance is zero does nothing; one with
    no citizens cannot absorb investment, so its balance escheats to the
    region pool, the escheats adding onto it in index order. Returns the
    amount each municipality spent this month, which the caller pays to
    firms for the public works (see ``pay_procurement``).
    """
    if allocations.min() < 0:
        raise ValidationError(f"negative allocation {allocations[allocations < 0][0]}")
    if qli_unit_cost <= 0:
        raise ValidationError("qli_unit_cost must be positive")
    balance = state.treasury
    balance += allocations
    emptied = populations <= 0
    spent = np.where(emptied, 0.0, balance)
    # an emptied municipality divides by 1 instead of 0 and adds 0.0, as a
    # zero balance does: a QLI is never -0.0, so adding 0.0 moves no bit
    state.qli += spent / (np.maximum(populations, 1) * qli_unit_cost)
    for m in np.flatnonzero(emptied).tolist():
        if balance[m]:
            log.debug(
                "municipality %s has no population; %.6f escheats to region pool",
                state.municipality_ids[m], balance[m],
            )
            state.escheat_pool += balance.item(m)
    balance.fill(0.0)  # a balance is never -0.0 either
    return spent


def pay_procurement(
    state: SimulationState, spent: Sequence[float], contractors: Sequence[list[int]]
) -> None:
    """Pay each municipality's ``spent[m]`` for public works to the distinct firm
    ids ``contractors[m]`` as revenue, in equal parts.

    The first firm takes the remainder, so the parts sum to ``spent[m]``
    exactly: ``paid`` adds the other parts left to right from 0.0. The
    municipalities pay in order, firm by firm, onto lists of the three firm
    columns, which are written back once.
    """
    columns = (state.cash, state.cumulative_profit, state.revenue_this_month)
    cash, profit, revenue = values = [column.tolist() for column in columns]
    for amount, firms in zip(spent, contractors):
        if amount > 0.0:
            share = amount / len(firms)
            paid = 0.0
            for firm in firms[1:]:
                cash[firm] += share
                profit[firm] += share
                revenue[firm] += share
                paid += share
            for column in values:
                column[firms[0]] += amount - paid
    for column, paid_in in zip(columns, values):
        column[:] = paid_in
