"""Synthetic metropolitan regions and their initial agent populations.

A region is a list of municipalities (point centroids, no real cartography)
with populations drawn from a skewed split, firm counts concentrated
superlinearly in the larger municipalities, and a housing stock that always
exceeds the household count. ``instantiate_world`` scales the region down by
a sampling fraction and builds the full agent state.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .demographics import MAX_AGE_MONTHS
from .errors import ParseError, ValidationError, count, finite, number
from .fiscal import sequential_sum
from .state import SimulationState

COORD_BOX = 100.0  # side of the square the region lives in
JITTER_SD = 2.0  # within-municipality scatter around the centroid
# region and municipality ids name output files and fill CSV cells, so no
# path separator, line break, comma or leading dot gets in
ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _check_id(what: str, value: str) -> None:
    if not ID_PATTERN.fullmatch(value):
        raise ValidationError(f"{what} id {value!r} must match {ID_PATTERN.pattern}")


@dataclass(frozen=True)
class MunicipalitySpec:
    id: str
    population: int
    firm_count: int
    housing_stock: int
    centroid: tuple[float, float]

    def validate(self) -> None:
        _check_id("municipality", self.id)
        if self.population < 1:
            raise ValidationError(f"municipality {self.id}: population must be >= 1")
        if self.firm_count < 1:
            raise ValidationError(f"municipality {self.id}: firm_count must be >= 1")
        if self.housing_stock < 1:
            raise ValidationError(f"municipality {self.id}: housing_stock must be >= 1")


@dataclass(frozen=True)
class RegionSpec:
    id: str
    name: str
    municipalities: tuple[MunicipalitySpec, ...]

    def validate(self) -> None:
        _check_id("region", self.id)
        if not self.municipalities:
            raise ValidationError(f"region {self.id}: needs at least one municipality")
        seen: set[str] = set()
        for muni in self.municipalities:
            muni.validate()
            if muni.id in seen:
                raise ValidationError(f"region {self.id}: duplicate municipality id {muni.id!r}")
            seen.add(muni.id)

    @property
    def total_population(self) -> int:
        return sum(m.population for m in self.municipalities)


@dataclass
class WorldConfig:
    """Everything needed to turn a RegionSpec into live agents."""

    population_fraction: float = 0.02
    mean_family_size: float = 3.0
    qualification_levels: int = 21
    # None means uniform over 1..Q; otherwise Q weights summing to 1.
    initial_qualification_distribution: tuple[float, ...] | None = None
    labor_entry_age_months: int = 192
    initial_employment_rate: float = 0.9
    initial_firm_cash: float = 10.0
    # working capital: months of the initial payroll each firm starts with
    initial_cash_months_of_payroll: float = 2.0
    initial_savings_bounds: tuple[float, float] = (2.0, 6.0)
    initial_wage_bounds: tuple[float, float] = (0.8, 1.2)
    house_size_bounds: tuple[float, float] = (0.5, 2.0)
    house_quality_bounds: tuple[float, float] = (0.5, 2.0)
    max_initial_age_months: int = 960
    inhabitants_per_firm: float = 100.0
    firm_concentration: float = 1.3
    vacancy_margin: float = 0.1

    def validate(self) -> None:
        if not 0.0 < self.population_fraction <= 1.0:
            raise ValidationError("population_fraction must be in (0, 1]")
        if self.mean_family_size <= 0:
            raise ValidationError("mean_family_size must be positive")
        if self.qualification_levels < 1:
            raise ValidationError("qualification_levels must be >= 1")
        dist = self.initial_qualification_distribution
        if dist is not None:
            if len(dist) != self.qualification_levels:
                raise ValidationError(
                    "initial_qualification_distribution needs one weight per level "
                    f"({self.qualification_levels}), got {len(dist)}"
                )
            if any(w < 0 for w in dist):
                raise ValidationError("qualification weights must be non-negative")
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValidationError("qualification weights must sum to 1")
        if not 0.0 <= self.initial_employment_rate <= 1.0:
            raise ValidationError("initial_employment_rate must be in [0, 1]")
        if not 0 <= self.labor_entry_age_months < MAX_AGE_MONTHS:
            raise ValidationError(
                f"labor_entry_age_months must be in 0..{MAX_AGE_MONTHS - 1}, "
                f"got {self.labor_entry_age_months}"
            )
        if self.initial_firm_cash < 0:
            raise ValidationError("initial_firm_cash must be non-negative")
        if self.initial_cash_months_of_payroll < 0:
            raise ValidationError("initial_cash_months_of_payroll must be non-negative")
        if not 1 <= self.max_initial_age_months < MAX_AGE_MONTHS:
            raise ValidationError(
                f"max_initial_age_months must be in 1..{MAX_AGE_MONTHS - 1}, "
                f"got {self.max_initial_age_months}"
            )
        if self.inhabitants_per_firm <= 0:
            raise ValidationError("inhabitants_per_firm must be positive")
        if self.firm_concentration <= 0:
            raise ValidationError("firm_concentration must be positive")
        if self.vacancy_margin < 0:
            raise ValidationError("vacancy_margin must be non-negative")
        for name in ("initial_savings_bounds", "initial_wage_bounds",
                     "house_size_bounds", "house_quality_bounds"):
            lo, hi = (finite(v, name, ValidationError) for v in getattr(self, name))
            if not 0 <= lo <= hi:
                raise ValidationError(f"{name} must satisfy 0 <= low <= high")


def _apportion(weights: Sequence[float], total: int, minimum: int = 1) -> list[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Largest-remainder rounding, then a floor of ``minimum`` per entry funded
    by the largest entries. The result always sums to ``total`` exactly.
    """
    n = len(weights)
    if total < n * minimum:
        raise ValidationError(f"cannot give {n} entries at least {minimum} from {total}")
    wsum = sequential_sum(weights)
    quotas = [w / wsum * total for w in weights]
    out = [math.floor(q) for q in quotas]
    remainder = total - sum(out)
    by_frac = sorted(range(n), key=lambda i: (out[i] - quotas[i], i))
    for i in range(remainder):
        out[by_frac[i]] += 1
    # enforce the floor, taking from the biggest entries
    for i in range(n):
        while out[i] < minimum:
            donor = max(range(n), key=lambda j: (out[j], -j))
            if out[donor] <= minimum:
                raise ValidationError("apportionment floor infeasible")
            out[donor] -= 1
            out[i] += 1
    return out


def generate_region(
    n_municipalities: int,
    total_population: int,
    skew: float,
    rng: np.random.Generator,
    world: WorldConfig,
    *,
    region_id: str = "region",
    name: str = "synthetic region",
) -> RegionSpec:
    """Draw a synthetic region with a skew-controlled population split.

    ``skew`` 0 gives an exactly equal split; larger values concentrate
    population in municipality 0 (populations are emitted in descending
    order, primate city first). Firm counts grow superlinearly with
    population, so economic activity concentrates more than people do.
    Family size, firm density and concentration, and the vacancy margin come
    from ``world``.
    """
    if n_municipalities < 1:
        raise ValidationError("n_municipalities must be >= 1")
    if total_population < n_municipalities:
        raise ValidationError("total_population must cover one citizen per municipality")
    if skew < 0:
        raise ValidationError("skew must be non-negative")

    if skew == 0:
        weights = [1.0] * n_municipalities
    else:
        draws = rng.pareto(1.0 / skew, size=n_municipalities) + 1.0
        weights = sorted((float(d) for d in draws), reverse=True)
    populations = _apportion(weights, total_population, minimum=1)
    populations.sort(reverse=True)

    total_firms = max(n_municipalities, round(total_population / world.inhabitants_per_firm))
    firm_weights = [p**world.firm_concentration for p in populations]
    firm_counts = _apportion(firm_weights, total_firms, minimum=1)

    munis = []
    width = max(2, len(str(n_municipalities - 1)))
    for i, (pop, firms) in enumerate(zip(populations, firm_counts)):
        households = math.ceil(pop / world.mean_family_size)
        housing_stock = math.ceil(households * (1.0 + world.vacancy_margin))
        centroid = (float(rng.uniform(0.0, COORD_BOX)), float(rng.uniform(0.0, COORD_BOX)))
        munis.append(
            MunicipalitySpec(
                id=f"m{i:0{width}d}",
                population=pop,
                firm_count=firms,
                housing_stock=housing_stock,
                centroid=centroid,
            )
        )
    region = RegionSpec(id=region_id, name=name, municipalities=tuple(munis))
    region.validate()
    return region


# ---------------------------------------------------------------------------
# Region schema I/O
# ---------------------------------------------------------------------------

_MUNI_FIELDS = ("id", "population", "firm_count", "housing_stock", "centroid")


def save_region(region: RegionSpec, path) -> None:
    """Write the region schema with stable field order (byte-stable output)."""
    doc = {
        "id": region.id,
        "name": region.name,
        "municipalities": [
            {
                "id": m.id,
                "population": m.population,
                "firm_count": m.firm_count,
                "housing_stock": m.housing_stock,
                "centroid": [m.centroid[0], m.centroid[1]],
            }
            for m in region.municipalities
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_region(path) -> RegionSpec:
    """Load and validate a region schema file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"region file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("region file must contain an object")
    for field_name in ("id", "name", "municipalities"):
        if field_name not in doc:
            raise ParseError(f"region file missing field {field_name!r}")
    if not isinstance(doc["municipalities"], list):
        raise ParseError("field 'municipalities' must be a list")
    munis = []
    for i, raw in enumerate(doc["municipalities"]):
        if not isinstance(raw, dict):
            raise ParseError(f"municipality #{i} must be an object")
        for field_name in _MUNI_FIELDS:
            if field_name not in raw:
                raise ParseError(f"municipality #{i} missing field {field_name!r}")
        centroid = raw["centroid"]
        if not (isinstance(centroid, list) and len(centroid) == 2):
            raise ParseError(f"municipality #{i}: centroid must be [x, y]")
        where = f"municipality #{i}"
        munis.append(
            MunicipalitySpec(
                id=str(raw["id"]),
                population=count(raw["population"], f"{where} population", ParseError),
                firm_count=count(raw["firm_count"], f"{where} firm_count", ParseError),
                housing_stock=count(raw["housing_stock"], f"{where} housing_stock", ParseError),
                centroid=(number(centroid[0], f"{where} centroid", ParseError),
                          number(centroid[1], f"{where} centroid", ParseError)),
            )
        )
    region = RegionSpec(id=str(doc["id"]), name=str(doc["name"]), municipalities=tuple(munis))
    region.validate()
    return region


# ---------------------------------------------------------------------------
# World instantiation
# ---------------------------------------------------------------------------


def _partition(total: int, parts: int) -> list[int]:
    # sizes differing by at most one, larger groups first
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def instantiate_world(
    region: RegionSpec,
    cfg: WorldConfig,
    rng: np.random.Generator,
) -> SimulationState:
    """Build the live agent state for a sampled-down copy of the region.

    Citizens per municipality are ``round(population x fraction)`` (floored
    at one), grouped into families of roughly ``mean_family_size``, each
    family owning and occupying a house in its municipality. Firms and the
    housing stock are scaled by the same fraction, with enough extra houses
    kept that every municipality has at least one vacancy. Municipalities
    are drawn in region order and indexed in ascending id order.
    """
    region.validate()
    cfg.validate()
    ids = sorted(muni.id for muni in region.municipalities)
    index = {muni_id: i for i, muni_id in enumerate(ids)}
    state = SimulationState(
        municipality_ids=ids,
        labor_entry_age_months=cfg.labor_entry_age_months,
        qualification_levels=cfg.qualification_levels,
    )
    q_levels = cfg.qualification_levels
    q_dist = cfg.initial_qualification_distribution
    max_age = cfg.max_initial_age_months
    # numpy draws rng.uniform(lo, hi) as lo + (hi - lo) * rng.random() and
    # rng.normal(0.0, sd) as 0.0 + sd * rng.standard_normal(), so these
    # cheaper forms take the same stream values to the same bits (its 0.0 +
    # only turns a -0.0 into 0.0, and a centroid is added next)
    random, standard_normal, integers = rng.random, rng.standard_normal, rng.integers
    wage_lo, wage_hi = cfg.initial_wage_bounds
    size_lo, size_hi = cfg.house_size_bounds
    quality_lo, quality_hi = cfg.house_quality_bounds
    savings_lo, savings_hi = cfg.initial_savings_bounds

    def add_firms(m: int, n: int, centroid: tuple[float, float]) -> None:
        # each firm's three draws, in this order: x, y, then its wage offer
        cx, cy = centroid
        x, y, wage = [], [], []
        for _ in range(n):
            x.append(cx + JITTER_SD * standard_normal())
            y.append(cy + JITTER_SD * standard_normal())
            wage.append(wage_lo + (wage_hi - wage_lo) * random())
        state.add_firms([m] * n, x, y, wage, [cfg.initial_firm_cash] * n)

    for muni in region.municipalities:
        # every municipality has inhabitants, so the sampled copy keeps at
        # least one household even where the fraction rounds to zero people
        n_citizens = max(1, round(muni.population * cfg.population_fraction))
        n_families = max(1, round(n_citizens / cfg.mean_family_size))
        # firm counts round to zero in tiny municipalities: commerce
        # concentrates in the core, people commute and shop region-wide
        n_firms = round(muni.firm_count * cfg.population_fraction)
        n_houses = max(n_families + 1, round(muni.housing_stock * cfg.population_fraction))
        m = index[muni.id]

        cx, cy = muni.centroid
        size, quality, x, y = [], [], [], []
        for _ in range(n_houses):  # each house's four draws, in this order
            size.append(size_lo + (size_hi - size_lo) * random())
            quality.append(quality_lo + (quality_hi - quality_lo) * random())
            x.append(cx + JITTER_SD * standard_normal())
            y.append(cy + JITTER_SD * standard_normal())
        built = state.add_houses([m] * n_houses, size, quality, x, y)

        add_firms(m, n_firms, muni.centroid)

        # each family's savings, then each member's age and qualification;
        # the rows are written once the municipality's draws are done
        sizes = _partition(n_citizens, n_families)
        savings, ages, quals = [], [], []
        for fam_size in sizes:
            savings.append(savings_lo + (savings_hi - savings_lo) * random())
            for _ in range(fam_size):
                ages.append(int(integers(0, max_age)))
                if q_dist is None:
                    quals.append(int(integers(1, q_levels + 1)))
                else:
                    quals.append(int(rng.choice(q_levels, p=q_dist)) + 1)
        families = state.add_families(built[:n_families], savings)
        state.add_citizens(np.repeat(families, sizes), ages, quals)

    if not state.employees:
        # every region needs at least one employer, however small the sample
        host = max(region.municipalities, key=lambda m: m.population)
        add_firms(index[host.id], 1, host.centroid)

    # region-wide initial employment so the economy starts warm
    adults = np.flatnonzero(state.alive & (state.age >= cfg.labor_entry_age_months)).tolist()
    n_employed = round(cfg.initial_employment_rate * len(adults))
    if n_employed:
        order = rng.permutation(len(adults))
        for slot in range(n_employed):
            cid = adults[int(order[slot])]
            firm = slot % len(state.employees)
            state.employer[cid] = firm
            state.wage[cid] = state.wage_offer[firm]
            state.employees[firm].append(cid)

    # working capital so the first payrolls don't trigger mass layoffs
    for firm, staff in enumerate(state.employees):
        payroll = sequential_sum(state.wage[staff].tolist())
        state.cash[firm] = max(state.cash.item(firm), cfg.initial_cash_months_of_payroll * payroll)

    state.money_base = state.money_in_circulation()
    state.trim()  # a pickled world carries no padding rows
    return state


# ---------------------------------------------------------------------------
# The shipped default batch of synthetic regions
# ---------------------------------------------------------------------------

DEFAULT_BATCH_SIZE = 40


def default_apc_batch(seed: int = 2000, size: int = DEFAULT_BATCH_SIZE) -> list[RegionSpec]:
    """The default batch of synthetic metropolitan regions.

    Region counts, sizes and skews are drawn once from a fixed seed:
    2..12 municipalities, total population log-uniform between 20k and 150k,
    population skew uniform in [0.8, 2.0]. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    regions = []
    for i in range(size):
        n_munis = int(rng.integers(2, 13))
        total_pop = int(round(float(np.exp(rng.uniform(np.log(20_000), np.log(150_000))))))
        skew = float(rng.uniform(0.8, 2.0))
        regions.append(generate_region(n_munis, total_pop, skew, rng, WorldConfig(),
                                       region_id=f"apc{i:02d}", name=f"synthetic APC {i:02d}"))
    return regions
