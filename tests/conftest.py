"""Shared builders for the test suite.

Most tests construct tiny worlds by hand; these helpers cover the two
recurring shapes: a bare state with municipalities, and a scenario config whose
region is generated (not the shipped batch) so engine tests stay fast.
"""
from dataclasses import astuple, dataclass, fields

import numpy as np
import pytest

from metrosim import cli
from metrosim.config import (
    EngineConfig,
    FiscalConfig,
    RegionSource,
    ScenarioConfig,
)
from metrosim.errors import InvariantViolation
from metrosim.fiscal import TAX_KINDS
from metrosim.state import SimulationState
from metrosim.worldgen import MunicipalitySpec, RegionSpec, WorldConfig


@pytest.fixture
def make_state():
    """Factory for a minimal SimulationState of the given municipality ids.

    Municipality ``m`` of the builders below is the ``m``-th id in ascending order.
    """

    def build(munis=("m00",)) -> SimulationState:
        return SimulationState(municipality_ids=sorted(munis))

    return build


@pytest.fixture
def make_region():
    """Factory for a hand-built RegionSpec (centroids on a short diagonal)."""

    def build(populations, firm_counts=None, housing=None, region_id="r"):
        munis = []
        for i, pop in enumerate(populations):
            munis.append(
                MunicipalitySpec(
                    id=f"m{i:02d}",
                    population=pop,
                    firm_count=firm_counts[i] if firm_counts else max(1, pop // 100),
                    housing_stock=housing[i] if housing else max(2, pop // 2),
                    centroid=(10.0 * i, 10.0 * i),
                )
            )
        return RegionSpec(id=region_id, name="test region", municipalities=tuple(munis))

    return build


@pytest.fixture
def gen_config():
    """Factory for a generate-mode ScenarioConfig sized for fast engine tests."""

    def build(
        n_municipalities=3,
        total_population=9_000,
        skew=1.0,
        horizon=12,
        case_id=1,
        seed=0,
        population_fraction=0.05,
        **overrides,
    ) -> ScenarioConfig:
        cfg = ScenarioConfig(
            region=RegionSource(
                mode="generate",
                n_municipalities=n_municipalities,
                total_population=total_population,
                skew=skew,
            ),
            world=WorldConfig(population_fraction=population_fraction),
            fiscal=FiscalConfig(case_id=case_id),
            engine=EngineConfig(horizon_months=horizon, seed=seed),
        )
        for key, value in overrides.items():
            setattr(cfg, key, value)
        cfg.validate()
        return cfg

    return build


def add_family(state, muni, members_quals, savings=0.0, fam_id=None, ages=None, size=1.0,
               quality=1.0, location=(0.0, 0.0)):
    """Attach a family of citizens (given qualifications) that lives in a new house
    of municipality index ``muni``, built with ``add_house``; returns the family id.

    Families are indexed by id, so a given id must be the next one.
    """
    home = add_house(state, muni, size, quality, location=location)
    [family] = state.add_families([home], [savings])
    assert fam_id is None or fam_id == family
    state.add_citizens([family] * len(members_quals), ages or 360, members_quals)
    return family


def members(state, family) -> list[int]:
    """The living members of family ``family``, ascending."""
    return np.flatnonzero(state.family == family).tolist()


def living(state) -> list[int]:
    """The living citizens' ids, ascending."""
    return np.flatnonzero(state.alive).tolist()


def add_firm(state, muni, cash=100.0, wage=1.0, price=1.0, firm_id=None, location=(0.0, 0.0)):
    """Append a firm; returns its id. Firms are indexed by id, so a given id
    must be the next index."""
    [firm] = state.add_firms([muni], [location[0]], [location[1]], [wage], [cash])
    assert firm_id is None or firm_id == firm
    state.price[firm] = price
    return firm


@dataclass
class FirmRecord:
    """A firm as one record, for the per-firm scalar references: the fields
    are the state's firm columns of the same names, then the staff."""

    firm_municipality: int
    firm_x: float
    firm_y: float
    cash: float
    inventory: float
    price: float
    wage_offer: float
    cumulative_profit: float
    last_production: float
    revenue_this_month: float
    payroll_this_month: float
    vacancy_unfilled: bool
    employees: list[int]


FIRM_COLUMNS = tuple(f.name for f in fields(FirmRecord))[:-1]


def firm_records(state) -> list[FirmRecord]:
    """Every firm of ``state`` as a record, by id; the staff lists are copies."""
    columns = [getattr(state, name).tolist() for name in FIRM_COLUMNS]
    return [FirmRecord(*row, list(staff)) for *row, staff in zip(*columns, state.employees)]


def firm_bits(records) -> list[tuple]:
    """Each record's fields, floats as hex, for bit-for-bit comparisons."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in astuple(record))
        for record in records
    ]


@dataclass
class TreasuryRecord:
    """A municipality's account as one record, for the scalar ``invest``
    reference: the state's ``treasury`` and ``qli`` columns at one index."""

    balance: float = 0.0
    qli: float = 0.0


def treasury_records(state) -> list[TreasuryRecord]:
    """Every municipality of ``state`` as a record, by index."""
    return [TreasuryRecord(*row) for row in zip(state.treasury.tolist(), state.qli.tolist())]


def invest_one(treasury: TreasuryRecord, allocation, population, qli_unit_cost):
    """Reference: one municipality's investment, the rule ``fiscal.invest``
    applies to every municipality at once; returns ``(spent, escheated)``."""
    treasury.balance += allocation
    if treasury.balance == 0.0:
        return 0.0, 0.0
    if population <= 0:
        escheated = treasury.balance
        treasury.balance = 0.0
        return 0.0, escheated
    invested = treasury.balance
    treasury.qli += invested / (population * qli_unit_cost)
    treasury.balance = 0.0
    return invested, 0.0


def add_house(state, muni, size=1.0, quality=1.0, owner=None, house_id=None,
              location=(0.0, 0.0)):
    """Append a house, owned by family id ``owner`` as its latest purchase
    (municipal stock for None); returns its id. Houses are indexed by id, so a
    given id must be the next index."""
    [hid] = state.add_houses([muni], [size], [quality], [location[0]], [location[1]])
    assert house_id is None or house_id == hid
    if owner is not None:
        state.owner[hid] = owner
        state.owned_houses[owner].append(hid)
    return hid


def region_of(cfg):
    """The region the CLI would run for ``cfg`` (generate or file mode)."""
    return cli.resolve_regions(cfg)[0]


def break_invariant(state, runtime, result):
    """Stand-in for ``engine.step_month`` that fails the money audit at once."""
    raise InvariantViolation(state.month, "money-conservation", "forced")


def rng(seed=0) -> np.random.Generator:
    return np.random.default_rng(seed)


def ledger_entries(ledger) -> list[tuple]:
    """Every ``(kind, origin, amount.hex())`` of a ledger, origins in first-payment order.

    Comparing these lists checks each sum to the bit and the order sums are
    read in; comparing the nested dicts would ignore key order.
    """
    return [
        (kind, origin, amount.hex())
        for kind in TAX_KINDS
        for origin, amount in ledger.by_kind(kind).items()
    ]
