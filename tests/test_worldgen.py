"""Region synthesis, schema round-trips, and world instantiation."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metrosim.errors import ParseError, ValidationError
from metrosim.fiscal import sequential_sum
from metrosim.state import SimulationState
from metrosim.worldgen import (
    JITTER_SD,
    MunicipalitySpec,
    RegionSpec,
    WorldConfig,
    default_apc_batch,
    generate_region,
    instantiate_world,
    load_region,
    save_region,
)

from conftest import FIRM_COLUMNS, house_lists, living, staff_lists


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# generate_region
# ---------------------------------------------------------------------------


def test_single_municipality_takes_all():
    region = generate_region(1, 1000, 2.0, rng(), WorldConfig())
    assert [m.population for m in region.municipalities] == [1000]


def test_zero_skew_splits_equally():
    region = generate_region(2, 1000, 0.0, rng(), WorldConfig())
    assert [m.population for m in region.municipalities] == [500, 500]


def test_golden_split_seed42():
    # fixed-seed reference values, recorded from the first correct run
    region = generate_region(4, 10_000, 1.5, rng(42), WorldConfig())
    assert [m.population for m in region.municipalities] == [3430, 3331, 3097, 142]
    assert [m.firm_count for m in region.municipalities] == [34, 34, 31, 1]
    assert [m.housing_stock for m in region.municipalities] == [1259, 1223, 1137, 53]
    assert region.total_population == 10_000


@pytest.mark.parametrize("seed", range(8))
def test_populations_sum_and_descend(seed):
    region = generate_region(5, 37_123, 1.3, rng(seed), WorldConfig())
    pops = [m.population for m in region.municipalities]
    assert sum(pops) == 37_123
    assert pops == sorted(pops, reverse=True)
    assert all(p >= 1 for p in pops)


def test_housing_stock_covers_households_with_margin():
    world = WorldConfig(mean_family_size=3.0, vacancy_margin=0.1)
    region = generate_region(3, 9_000, 0.0, rng(1), world)
    for muni in region.municipalities:
        households = math.ceil(muni.population / 3.0)
        assert muni.housing_stock == math.ceil(households * 1.1)
        assert muni.housing_stock > households


def test_firm_counts_concentrate_in_larger_municipalities():
    region = generate_region(4, 80_000, 1.5, rng(3), WorldConfig())
    counts = [m.firm_count for m in region.municipalities]
    assert sum(counts) == max(4, round(80_000 / 100.0))
    assert counts == sorted(counts, reverse=True)
    assert all(c >= 1 for c in counts)


def test_generate_region_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        generate_region(0, 1000, 1.0, rng(), WorldConfig())
    with pytest.raises(ValidationError):
        generate_region(5, 4, 1.0, rng(), WorldConfig())  # fewer people than municipalities
    with pytest.raises(ValidationError):
        generate_region(2, 1000, -0.5, rng(), WorldConfig())


def test_same_seed_same_region():
    a = generate_region(6, 50_000, 1.2, rng(9), WorldConfig())
    b = generate_region(6, 50_000, 1.2, rng(9), WorldConfig())
    assert a == b


# ---------------------------------------------------------------------------
# Region files
# ---------------------------------------------------------------------------


def test_region_roundtrip_and_byte_stability(tmp_path):
    region = generate_region(3, 12_000, 1.1, rng(5), WorldConfig(),
                             region_id="rt", name="roundtrip")
    path = tmp_path / "region.json"
    save_region(region, path)
    assert load_region(path) == region
    first = path.read_bytes()
    save_region(region, path)
    assert path.read_bytes() == first


def test_load_region_missing_field_names_it(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        '{"id": "x", "name": "x", "municipalities": ['
        '{"id": "m0", "population": 10, "firm_count": 1, "centroid": [0, 0]}]}',
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="housing_stock"):
        load_region(path)


def test_load_region_population_zero(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"id": "x", "name": "x", "municipalities": ['
        '{"id": "m0", "population": 0, "firm_count": 1, "housing_stock": 2, "centroid": [0, 0]}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValidationError):
        load_region(path)


def test_duplicate_municipality_id_rejected():
    muni = MunicipalitySpec(id="m0", population=5, firm_count=1, housing_stock=2, centroid=(0, 0))
    region = RegionSpec(id="dup", name="dup", municipalities=(muni, muni))
    with pytest.raises(ValidationError, match="duplicate"):
        region.validate()


@pytest.mark.parametrize("good", ["apc00", "m00", "region", "r", "0", "A.b-c_d"])
def test_file_name_safe_ids_accepted(good):
    muni = MunicipalitySpec(id=good, population=5, firm_count=1, housing_stock=2, centroid=(0, 0))
    RegionSpec(id=good, name="ok", municipalities=(muni,)).validate()


@pytest.mark.parametrize("bad", ["", "../escape", ".hidden", "-flag", "a/b", "a\\b", "a,b",
                                 "a b", "a\nb", "m00\n", "\u00e9"])
def test_ids_outside_the_pattern_rejected(bad):
    good = MunicipalitySpec(id="m00", population=5, firm_count=1, housing_stock=2,
                            centroid=(0, 0))
    with pytest.raises(ValidationError, match="region id"):
        RegionSpec(id=bad, name="bad", municipalities=(good,)).validate()
    muni = MunicipalitySpec(id=bad, population=5, firm_count=1, housing_stock=2, centroid=(0, 0))
    with pytest.raises(ValidationError, match="municipality id"):
        RegionSpec(id="r", name="bad", municipalities=(muni,)).validate()


# ---------------------------------------------------------------------------
# instantiate_world
# ---------------------------------------------------------------------------


def small_region(pop=1000, munis=1):
    return generate_region(munis, pop, 0.0, rng(2), WorldConfig(), region_id="small")


def test_two_percent_sampling():
    state = instantiate_world(small_region(1000), WorldConfig(population_fraction=0.02), rng())
    assert len(living(state)) == 20


def test_fraction_one_is_identity():
    region = small_region(300)
    state = instantiate_world(region, WorldConfig(population_fraction=1.0), rng())
    assert len(living(state)) == region.total_population


def test_families_partition_citizens():
    state = instantiate_world(
        small_region(1500), WorldConfig(population_fraction=0.02, mean_family_size=3.0), rng()
    )
    assert len(living(state)) == 30
    assert len(state.live) == 10 == np.count_nonzero(state.live)
    # every family has at least one member, and every living citizen a family
    assert sorted(set(state.family[living(state)].tolist())) == list(range(10))


def test_every_municipality_keeps_a_vacancy():
    region = generate_region(4, 40_000, 1.4, rng(7), WorldConfig())
    state = instantiate_world(region, WorldConfig(population_fraction=0.02), rng())
    for muni in region.municipalities:
        m = state.municipality_ids.index(muni.id)
        houses = np.flatnonzero(state.house_municipality == m)
        families = np.count_nonzero(state.house_municipality[state.home] == m)
        assert len(houses) > families
        assert np.any(state.resident[houses] == -1)


def test_hamlet_samples_to_one_household():
    # 40 people at 0.2% rounds to zero citizens; the sampled copy keeps one
    # household so no municipality starts the run empty
    state = instantiate_world(small_region(40), WorldConfig(population_fraction=0.002), rng())
    assert len(living(state)) == 1
    assert len(state.live) == 1
    assert len(state.resident) >= 2


def test_tiny_municipalities_may_host_no_firms():
    # at 2% sampling a 150-person town's single firm rounds away; commerce
    # stays in the core and the region as a whole still has employers
    munis = (
        MunicipalitySpec(id="core", population=20_000, firm_count=200, housing_stock=8000, centroid=(0, 0)),
        MunicipalitySpec(id="village", population=150, firm_count=1, housing_stock=60, centroid=(9, 9)),
    )
    region = RegionSpec(id="pair", name="pair", municipalities=munis)
    state = instantiate_world(region, WorldConfig(population_fraction=0.02), rng())
    assert state.municipality_ids == ["core", "village"]
    assert state.firm_municipality.tolist() == [0] * 4


def test_region_always_gets_at_least_one_firm():
    munis = (
        MunicipalitySpec(id="only", population=200, firm_count=2, housing_stock=80, centroid=(0, 0)),
    )
    region = RegionSpec(id="micro", name="micro", municipalities=munis)
    state = instantiate_world(region, WorldConfig(population_fraction=0.05), rng())
    assert len(state.cash) == 1
    assert state.municipality_ids[state.firm_municipality[0]] == "only"
    assert_indexed_by_id(state)


def test_municipalities_drawn_in_region_order_and_indexed_by_sorted_id():
    spec = dict(population=300, firm_count=40, housing_stock=120)
    munis = (
        MunicipalitySpec(id="zeta", centroid=(0, 0), **spec),
        MunicipalitySpec(id="alpha", centroid=(50, 50), **spec),
    )
    region = RegionSpec(id="r", name="r", municipalities=munis)
    state = instantiate_world(region, WorldConfig(population_fraction=0.05), rng())
    assert state.municipality_ids == ["alpha", "zeta"]
    # zeta, listed first, is drawn first: the first house and firm are its own
    assert state.house_municipality[0] == state.firm_municipality[0] == 1
    assert state.house_municipality[state.home[0]] == 1
    assert state.house_municipality[-1] == state.firm_municipality[-1] == 0
    assert state.populations() == [15, 15]


def assert_indexed_by_id(state):
    # a firm's or a house's id is its row, so every firm column has a row per
    # firm and every house column a row per house
    assert {len(getattr(state, name)) for name in FIRM_COLUMNS} == {len(state.cash)}
    columns = (state.house_municipality, state.house_size, state.house_quality,
               state.house_x, state.house_y, state.owner, state.resident,
               state.purchase_position)
    assert len({len(column) for column in columns}) == 1


def test_firms_and_houses_are_indexed_by_id():
    region = generate_region(5, 30_000, 1.2, rng(3), WorldConfig())
    state = instantiate_world(region, WorldConfig(population_fraction=0.05), rng())
    assert len(state.cash) > 1 and len(state.resident) > 1
    assert_indexed_by_id(state)
    for family, owned in enumerate(house_lists(state)):
        assert owned == [state.home[family]]
        assert state.resident[state.home[family]] == family
    assert np.count_nonzero(state.resident >= 0) == len(state.live)


def test_instantiation_deterministic():
    region = small_region(2000, munis=2)
    cfg = WorldConfig(population_fraction=0.05)
    a = instantiate_world(region, cfg, rng(13))
    b = instantiate_world(region, cfg, rng(13))
    assert {cid: (int(a.age[cid]), int(a.qualification[cid])) for cid in living(a)} == {
        cid: (int(b.age[cid]), int(b.qualification[cid])) for cid in living(b)
    }
    assert a.savings.tolist() == b.savings.tolist()
    assert a.money_base == b.money_base


def test_money_base_matches_circulation():
    state = instantiate_world(small_region(3000), WorldConfig(population_fraction=0.05), rng(4))
    assert state.money_base == state.money_in_circulation()
    total = sequential_sum(
        state.savings[state.live].tolist() + state.cash.tolist()
    )
    assert state.money_base == total  # nothing else holds money at the start


def test_fresh_world_has_no_padding_rows():
    # a shipped world pickles every row it holds, so none may be unused
    state = instantiate_world(small_region(3000), WorldConfig(population_fraction=0.05), rng(4))
    assert len(state.alive) == len(state.age) == state._next_citizen_id == len(living(state))
    assert len(state.live) == len(state.arrears) == state._next_family_id
    [born] = state.add_citizens([0], 0, 1)  # the first birth grows the columns
    assert state.alive[born] and state.family[born] == 0
    assert len(state.alive) > born


def test_initial_employment_rate_applied():
    state = instantiate_world(small_region(5000), WorldConfig(population_fraction=0.05), rng(6))
    adults = [cid for cid in living(state) if state.age[cid] >= state.labor_entry_age_months]
    employed = [cid for cid in adults if state.employer[cid] >= 0]
    assert len(employed) == round(0.9 * len(adults))
    for cid in employed:
        assert state.wage[cid] > 0
        assert cid in staff_lists(state)[state.employer[cid]]


def test_qualifications_within_levels():
    cfg = WorldConfig(population_fraction=0.05, qualification_levels=21)
    state = instantiate_world(small_region(5000), cfg, rng(8))
    quals = state.qualification[living(state)].tolist()
    assert min(quals) >= 1
    assert max(quals) <= 21


def one_hot(levels, *weighted):
    weights = [0.0] * levels
    for level, weight in weighted:
        weights[level - 1] = weight
    return tuple(weights)


def test_qualification_distribution_with_one_level():
    cfg = WorldConfig(
        population_fraction=0.05, initial_qualification_distribution=one_hot(21, (7, 1.0))
    )
    state = instantiate_world(small_region(5000), cfg, rng(8))
    assert set(state.qualification[living(state)].tolist()) == {7}


def test_qualification_distribution_with_two_levels():
    cfg = WorldConfig(
        population_fraction=0.05,
        initial_qualification_distribution=one_hot(21, (2, 0.5), (20, 0.5)),
    )
    state = instantiate_world(small_region(5000), cfg, rng(8))
    assert set(state.qualification[living(state)].tolist()) == {2, 20}


# ---------------------------------------------------------------------------
# The bulk draw against the per-draw reference
# ---------------------------------------------------------------------------


def reference_instantiate_world(region, cfg, rng):
    """``instantiate_world`` as one draw and one row at a time: numpy's
    ``uniform`` and ``normal``, each family, each citizen and each hire
    written alone. Returns the state and each firm's staff as a list, in
    payroll order."""
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
    staff = []

    def add_firm(m, centroid):
        cx, cy = centroid
        x = cx + float(rng.normal(0.0, JITTER_SD))
        y = cy + float(rng.normal(0.0, JITTER_SD))
        wage = float(rng.uniform(*cfg.initial_wage_bounds))
        state.add_firms([m], [x], [y], [wage], [cfg.initial_firm_cash])
        staff.append([])

    for muni in region.municipalities:
        n_citizens = max(1, round(muni.population * cfg.population_fraction))
        n_families = max(1, round(n_citizens / cfg.mean_family_size))
        n_firms = round(muni.firm_count * cfg.population_fraction)
        n_houses = max(n_families + 1, round(muni.housing_stock * cfg.population_fraction))
        m = index[muni.id]
        cx, cy = muni.centroid
        size, quality, x, y = [], [], [], []
        for _ in range(n_houses):
            size.append(float(rng.uniform(*cfg.house_size_bounds)))
            quality.append(float(rng.uniform(*cfg.house_quality_bounds)))
            x.append(cx + float(rng.normal(0.0, JITTER_SD)))
            y.append(cy + float(rng.normal(0.0, JITTER_SD)))
        built = state.add_houses([m] * n_houses, size, quality, x, y)
        for _ in range(n_firms):
            add_firm(m, muni.centroid)
        base, extra = divmod(n_citizens, n_families)
        sizes = [base + 1] * extra + [base] * (n_families - extra)
        for k, fam_size in enumerate(sizes):
            savings = float(rng.uniform(*cfg.initial_savings_bounds))
            [family] = state.add_families([built[k]], [savings])
            for _ in range(fam_size):
                age = int(rng.integers(0, cfg.max_initial_age_months))
                if q_dist is None:
                    qual = int(rng.integers(1, q_levels + 1))
                else:
                    qual = int(rng.choice(q_levels, p=q_dist)) + 1
                state.add_citizens([family], [age], [qual])

    if not staff:
        host = max(region.municipalities, key=lambda m: m.population)
        add_firm(index[host.id], host.centroid)

    adults = np.flatnonzero(state.alive & (state.age >= cfg.labor_entry_age_months)).tolist()
    n_employed = round(cfg.initial_employment_rate * len(adults))
    if n_employed:
        order = rng.permutation(len(adults))
        for slot in range(n_employed):
            cid = adults[int(order[slot])]
            firm = slot % len(staff)
            state.hire([firm], [cid])
            staff[firm].append(cid)

    for firm in range(len(staff)):
        payroll = sequential_sum(state.wage[staff[firm]].tolist())
        state.cash[firm] = max(float(state.cash[firm]), cfg.initial_cash_months_of_payroll * payroll)

    state.money_base = state.money_in_circulation()
    state.trim()
    return state, staff


WORLD_COLUMNS = (
    "age", "qualification", "employer", "wage", "payroll_position", "family", "alive",
    "provisional", "savings", "home", "live", "arrears", "house_municipality", "house_size",
    "house_quality", "house_x", "house_y", "owner", "resident", "purchase_position",
    *FIRM_COLUMNS,
)


def world_bits(state):
    """Every column's dtype and bytes, the houses each family owns, each
    firm's staff, the id and position counters, and the money base."""
    return (
        [(name, getattr(state, name).dtype.str, getattr(state, name).shape,
          getattr(state, name).tobytes()) for name in WORLD_COLUMNS],
        house_lists(state),
        staff_lists(state),
        (state._next_citizen_id, state._next_family_id, state._next_position),
        state.money_base.hex(),
    )


def draw_bounds():
    # some pairs with lo == hi, where every draw is lo
    return st.tuples(st.floats(0.0, 5.0), st.one_of(st.just(0.0), st.floats(0.0, 5.0))).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    )


qualification_weights = st.lists(st.floats(0.0, 1.0), min_size=21, max_size=21).filter(
    lambda w: sum(w) > 0.1
).map(lambda w: tuple(v / sum(w) for v in w)).filter(lambda w: abs(sum(w) - 1.0) <= 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n_munis=st.integers(1, 6),
    population=st.integers(20, 20_000),
    skew=st.floats(0.0, 2.0),
    fraction=st.floats(0.005, 0.2),
    qualification=st.one_of(st.none(), qualification_weights),
    bounds=st.tuples(draw_bounds(), draw_bounds(), draw_bounds(), draw_bounds()),
    seed=st.integers(0, 2**32 - 1),
)
# a fraction at which every firm count rounds to zero: the host-firm fallback
@example(n_munis=3, population=900, skew=1.0, fraction=0.005, qualification=None,
         bounds=((2.0, 6.0), (0.8, 0.8), (0.5, 2.0), (1.0, 1.0)), seed=3)
def test_world_draw_matches_the_per_draw_reference_bit_for_bit(
    n_munis, population, skew, fraction, qualification, bounds, seed
):
    region = generate_region(n_munis, population, skew, rng(seed), WorldConfig())
    savings, wage, size, quality = bounds
    cfg = WorldConfig(
        population_fraction=fraction, initial_qualification_distribution=qualification,
        initial_savings_bounds=savings, initial_wage_bounds=wage,
        house_size_bounds=size, house_quality_bounds=quality,
    )
    bulk_rng, reference_rng = rng(seed), rng(seed)
    bulk = instantiate_world(region, cfg, bulk_rng)
    reference, staff = reference_instantiate_world(region, cfg, reference_rng)
    assert world_bits(bulk) == world_bits(reference)
    assert staff_lists(bulk) == staff
    # both drew the same count of values from the stream
    assert bulk_rng.random() == reference_rng.random()
    if sum(round(m.firm_count * fraction) for m in region.municipalities) == 0:
        assert len(bulk.cash) == 1  # the host firm


def test_the_draw_forms_are_numpys_uniform_and_normal():
    # instantiate_world keeps the stream of rng.uniform and rng.normal
    # through these identities; a numpy release that broke one fails here
    version = f"numpy {np.__version__}"
    for seed in range(4):
        a, b = rng(seed), rng(seed)
        for lo, hi in ((0.0, 1.0), (0.5, 2.0), (0.8, 1.2), (2.0, 6.0), (3.0, 3.0), (0.0, 0.0),
                       (1e-300, 1e300)):
            draws = [float(a.uniform(lo, hi)) for _ in range(500)]
            assert draws == [lo + (hi - lo) * b.random() for _ in range(500)], version
        draws = [float(a.normal(0.0, JITTER_SD)).hex() for _ in range(2000)]
        assert draws == [(JITTER_SD * b.standard_normal()).hex() for _ in range(2000)], version
        assert a.random() == b.random(), version


# ---------------------------------------------------------------------------
# The shipped default batch
# ---------------------------------------------------------------------------


def test_default_batch_shape_and_determinism():
    batch = default_apc_batch()
    assert len(batch) == 40
    assert [r.id for r in batch] == [f"apc{i:02d}" for i in range(40)]
    for region in batch:
        assert 2 <= len(region.municipalities) <= 12
        assert 20_000 <= region.total_population <= 150_000
    again = default_apc_batch()
    assert batch == again
