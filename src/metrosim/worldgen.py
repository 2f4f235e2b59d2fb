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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .demographics import MAX_AGE_MONTHS, Citizen
from .economy import Family, Firm
from .errors import ParseError, ValidationError
from .fiscal import Treasury, sequential_sum
from .housing import House
from .state import SimulationState

COORD_BOX = 100.0  # side of the square the region lives in
JITTER_SD = 2.0  # within-municipality scatter around the centroid


@dataclass(frozen=True)
class MunicipalitySpec:
    id: str
    population: int
    firm_count: int
    housing_stock: int
    centroid: tuple[float, float]

    def validate(self) -> None:
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
            lo, hi = getattr(self, name)
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
        try:
            munis.append(
                MunicipalitySpec(
                    id=str(raw["id"]),
                    population=int(raw["population"]),
                    firm_count=int(raw["firm_count"]),
                    housing_stock=int(raw["housing_stock"]),
                    centroid=(float(centroid[0]), float(centroid[1])),
                )
            )
        except (TypeError, ValueError):
            raise ParseError(f"municipality #{i}: non-numeric field value") from None
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
    kept that every municipality has at least one vacancy.
    """
    region.validate()
    cfg.validate()
    state = SimulationState(
        labor_entry_age_months=cfg.labor_entry_age_months,
        qualification_levels=cfg.qualification_levels,
    )
    q_levels = cfg.qualification_levels
    q_dist = cfg.initial_qualification_distribution

    next_family = 0
    for muni in region.municipalities:
        # every municipality has inhabitants, so the sampled copy keeps at
        # least one household even where the fraction rounds to zero people
        n_citizens = max(1, round(muni.population * cfg.population_fraction))
        n_families = max(1, round(n_citizens / cfg.mean_family_size))
        # firm counts round to zero in tiny municipalities: commerce
        # concentrates in the core, people commute and shop region-wide
        n_firms = round(muni.firm_count * cfg.population_fraction)
        n_houses = max(n_families + 1, round(muni.housing_stock * cfg.population_fraction))
        state.treasuries[muni.id] = Treasury(municipality_id=muni.id)

        cx, cy = muni.centroid
        first_house = len(state.houses)
        for _ in range(n_houses):
            size = float(rng.uniform(*cfg.house_size_bounds))
            quality = float(rng.uniform(*cfg.house_quality_bounds))
            loc = (cx + float(rng.normal(0.0, JITTER_SD)), cy + float(rng.normal(0.0, JITTER_SD)))
            state.houses.append(House(
                id=len(state.houses), municipality_id=muni.id, size=size, quality=quality,
                location=loc,
            ))

        for _ in range(n_firms):
            loc = (cx + float(rng.normal(0.0, JITTER_SD)), cy + float(rng.normal(0.0, JITTER_SD)))
            state.firms.append(Firm(
                id=len(state.firms),
                municipality_id=muni.id,
                location=loc,
                cash=cfg.initial_firm_cash,
                wage_offer=float(rng.uniform(*cfg.initial_wage_bounds)),
            ))

        sizes = _partition(n_citizens, n_families)
        for k, fam_size in enumerate(sizes):
            family = Family(
                id=next_family,
                municipality_id=muni.id,
                savings=float(rng.uniform(*cfg.initial_savings_bounds)),
            )
            home = state.houses[first_house + k]
            home.owner_family_id = family.id
            home.resident_family_id = family.id
            family.house_id = home.id
            family.owned_houses.append(home.id)
            for _ in range(fam_size):
                cid = state.next_citizen_id()
                age = int(rng.integers(0, cfg.max_initial_age_months))
                if q_dist is None:
                    qual = int(rng.integers(1, q_levels + 1))
                else:
                    qual = int(rng.choice(q_levels, p=q_dist)) + 1
                state.citizens[cid] = Citizen(
                    id=cid, age_months=age, qualification=qual, family_id=family.id
                )
                family.members.append(cid)
            state.families[next_family] = family
            next_family += 1

    if not state.firms:
        # every region needs at least one employer, however small the sample
        host = max(region.municipalities, key=lambda m: m.population)
        cx, cy = host.centroid
        loc = (cx + float(rng.normal(0.0, JITTER_SD)), cy + float(rng.normal(0.0, JITTER_SD)))
        state.firms.append(Firm(
            id=0,
            municipality_id=host.id,
            location=loc,
            cash=cfg.initial_firm_cash,
            wage_offer=float(rng.uniform(*cfg.initial_wage_bounds)),
        ))

    # region-wide initial employment so the economy starts warm
    adults = [
        cid
        for cid, citizen in sorted(state.citizens.items())
        if citizen.age_months >= cfg.labor_entry_age_months
    ]
    n_employed = round(cfg.initial_employment_rate * len(adults))
    if n_employed:
        order = rng.permutation(len(adults))
        for slot in range(n_employed):
            cid = adults[int(order[slot])]
            firm = state.firms[slot % len(state.firms)]
            citizen = state.citizens[cid]
            citizen.employer_id = firm.id
            citizen.monthly_wage = firm.wage_offer
            firm.employees.append(cid)

    # working capital so the first payrolls don't trigger mass layoffs
    for firm in state.firms:
        payroll = sequential_sum(state.citizens[cid].monthly_wage for cid in firm.employees)
        firm.cash = max(firm.cash, cfg.initial_cash_months_of_payroll * payroll)

    state.seal_ids()
    state.money_base = state.money_in_circulation()
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
