"""Shared builders for the test suite.

Most tests construct tiny worlds by hand; these helpers cover the two
recurring shapes: a bare state with treasuries, and a scenario config whose
region is generated (not the shipped batch) so engine tests stay fast.
"""
import numpy as np
import pytest

from metrosim import cli
from metrosim.config import (
    EngineConfig,
    FiscalConfig,
    RegionSource,
    ScenarioConfig,
)
from metrosim.demographics import Citizen
from metrosim.economy import Family, Firm
from metrosim.errors import InvariantViolation
from metrosim.fiscal import Treasury
from metrosim.housing import House
from metrosim.state import SimulationState
from metrosim.worldgen import MunicipalitySpec, RegionSpec, WorldConfig


@pytest.fixture
def make_state():
    """Factory for a minimal SimulationState with treasuries for given munis."""

    def build(munis=("m00",)) -> SimulationState:
        state = SimulationState()
        for muni in munis:
            state.treasuries[muni] = Treasury(municipality_id=muni)
        return state

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


def add_family(state, muni, members_quals, savings=0.0, fam_id=None, ages=None):
    """Attach a family of citizens (given qualifications) to a state."""
    fam_id = fam_id if fam_id is not None else len(state.families)
    family = Family(id=fam_id, municipality_id=muni, savings=savings)
    for i, qual in enumerate(members_quals):
        cid = state.next_citizen_id()
        age = ages[i] if ages else 360
        state.citizens[cid] = Citizen(id=cid, age_months=age, qualification=qual, family_id=fam_id)
        family.members.append(cid)
    state.families[fam_id] = family
    return family


def add_firm(state, muni, cash=100.0, wage=1.0, price=1.0, firm_id=None, location=(0.0, 0.0)):
    """Append a firm; firms are indexed by id, so a given id must be the next index."""
    assert firm_id is None or firm_id == len(state.firms)
    firm = Firm(
        id=len(state.firms), municipality_id=muni, location=location,
        cash=cash, wage_offer=wage, price=price,
    )
    state.firms.append(firm)
    return firm


def add_house(state, muni, size=1.0, quality=1.0, owner=None, resident=None, house_id=None):
    """Append a house; houses are indexed by id, so a given id must be the next index."""
    assert house_id is None or house_id == len(state.houses)
    house = House(
        id=len(state.houses), municipality_id=muni, size=size, quality=quality,
        location=(0.0, 0.0), owner_family_id=owner, resident_family_id=resident,
    )
    state.houses.append(house)
    return house


def region_of(cfg):
    """The region the CLI would run for ``cfg`` (generate or file mode)."""
    return cli.resolve_regions(cfg)[0]


def break_invariant(state, runtime, result):
    """Stand-in for ``engine.step_month`` that fails the money audit at once."""
    raise InvariantViolation(state.month, "money-conservation", "forced")


def rng(seed=0) -> np.random.Generator:
    return np.random.default_rng(seed)


def ledger_entries(ledger) -> list[tuple]:
    """Every ``(kind, origin, amount.hex())`` of a ledger, in storage order.

    Comparing these lists checks each sum to the bit and the order sums are
    read in; comparing the nested dicts would ignore key order.
    """
    return [
        (kind, origin, amount.hex())
        for kind, pools in ledger.amounts.items()
        for origin, amount in pools.items()
    ]
