"""Distribution policies, share computation, conservation, and investment."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metrosim.errors import ParseError, ValidationError
from metrosim.fiscal import (
    CASES,
    POLICIES,
    ChannelWeights,
    DistributionPolicy,
    TAX_KINDS,
    DEFAULT_MPF_KNOTS,
    MpfTable,
    TaxKind,
    TaxLedger,
    TaxRates,
    distribute,
    equal_shares,
    invest,
    load_mpf_table,
    mpf_shares,
    pay_procurement,
    policy_for_case,
    sequential_sum,
)
from metrosim.demographics import _remove_citizen
from metrosim.housing import HousingParams, hedonic_prices, run_housing_market
from metrosim.state import SimulationState

from conftest import (
    add_family, add_firm, add_house, firm_bits, firm_records, invest_one, kind_sums,
    ledger_entries, members, rng, route, treasury_records,
)


# ---------------------------------------------------------------------------
# The four-case weight matrix
# ---------------------------------------------------------------------------


def test_case1_matrix_exact():
    w = policy_for_case(1).weights
    assert (w[TaxKind.CONSUMPTION].local, w[TaxKind.CONSUMPTION].equal, w[TaxKind.CONSUMPTION].mpf) == (0.1875, 0.8125, 0.0)
    assert (w[TaxKind.PERSONAL_INCOME].local, w[TaxKind.PERSONAL_INCOME].equal, w[TaxKind.PERSONAL_INCOME].mpf) == (0.0, 0.765, 0.235)
    assert (w[TaxKind.TRANSMISSION].local, w[TaxKind.TRANSMISSION].equal, w[TaxKind.TRANSMISSION].mpf) == (1.0, 0.0, 0.0)
    assert (w[TaxKind.COMPANY].local, w[TaxKind.COMPANY].equal, w[TaxKind.COMPANY].mpf) == (0.0, 0.765, 0.235)
    assert (w[TaxKind.PROPERTY].local, w[TaxKind.PROPERTY].equal, w[TaxKind.PROPERTY].mpf) == (1.0, 0.0, 0.0)


def test_case2_matrix_exact():
    w = policy_for_case(2).weights
    for kind in (TaxKind.CONSUMPTION, TaxKind.TRANSMISSION, TaxKind.PROPERTY):
        assert (w[kind].local, w[kind].equal, w[kind].mpf) == (0.0, 1.0, 0.0)
    for kind in (TaxKind.PERSONAL_INCOME, TaxKind.COMPANY):
        assert (w[kind].local, w[kind].equal, w[kind].mpf) == (0.0, 0.765, 0.235)


def test_case3_all_local_case4_all_equal():
    w3 = policy_for_case(3).weights
    w4 = policy_for_case(4).weights
    for kind in TAX_KINDS:
        assert (w3[kind].local, w3[kind].equal, w3[kind].mpf) == (1.0, 0.0, 0.0)
        assert (w4[kind].local, w4[kind].equal, w4[kind].mpf) == (0.0, 1.0, 0.0)


def test_every_row_sums_to_one():
    for case_id in (1, 2, 3, 4):
        for kind, w in policy_for_case(case_id).weights.items():
            total = w.local + w.equal + w.mpf
            assert abs(total - 1.0) <= 1e-12, (case_id, kind)


def test_policy_for_case_reads_the_one_case_table():
    assert CASES == (1, 2, 3, 4)
    for case_id in CASES:
        assert policy_for_case(case_id) is POLICIES[case_id]
        assert POLICIES[case_id].case_id == case_id


@pytest.mark.parametrize("bad", [0, 5, -1, "1"])
def test_case_out_of_range(bad):
    with pytest.raises(ValidationError):
        policy_for_case(bad)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


def split(entries):
    """``(origin, amount)`` pairs as ``add_all``'s two parallel lists."""
    return [origin for origin, _ in entries], [amount for _, amount in entries]


def test_ledger_accumulates_by_kind_and_origin():
    ledger = TaxLedger(2)
    ledger.add(TaxKind.CONSUMPTION, 0, 3.0)
    ledger.add(TaxKind.CONSUMPTION, 0, 2.0)
    ledger.add(TaxKind.CONSUMPTION, 1, 1.0)
    ledger.add(TaxKind.PROPERTY, 0, 4.0)
    assert kind_sums(ledger, TaxKind.CONSUMPTION) == {0: 5.0, 1: 1.0}
    assert ledger.total_by_kind().tolist() == [6.0, 0.0, 0.0, 0.0, 4.0]
    assert ledger.event_count == 4


def test_ledger_rejects_negative_skips_zero():
    ledger = TaxLedger(1)
    with pytest.raises(ValidationError):
        ledger.add(TaxKind.COMPANY, 0, -0.01)
    ledger.add(TaxKind.COMPANY, 0, 0.0)
    assert ledger.event_count == 0
    assert not ledger.total_by_kind().any()


@settings(max_examples=200, deadline=None)
@given(
    seeded=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 1e6)), max_size=3),
    entries=st.lists(
        st.tuples(st.integers(0, 3), st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
        max_size=30,
    ),
)
def test_ledger_add_all_matches_add_in_turn(seeded, entries):
    # the same sums to the bit, the same key order (sums over it are
    # order-sensitive) and the same event count as one add per entry
    one_by_one, batched = TaxLedger(4), TaxLedger(4)
    for ledger in (one_by_one, batched):
        for origin, amount in seeded:
            ledger.add(TaxKind.PROPERTY, origin, amount)
        ledger.add(TaxKind.COMPANY, 0, 1.0)
    for origin, amount in entries:
        one_by_one.add(TaxKind.PROPERTY, origin, amount)
    batched.add_all(TaxKind.PROPERTY, *split(entries))
    assert ledger_entries(batched) == ledger_entries(one_by_one)
    assert batched.event_count == one_by_one.event_count


@pytest.mark.parametrize("origin", [2, 3, -1])
def test_sized_ledger_rejects_an_origin_outside_the_region(origin):
    ledger = TaxLedger(2)
    ledger.add(TaxKind.CONSUMPTION, 0, 1.0)
    with pytest.raises(ValidationError, match="outside 0..1"):
        ledger.add(TaxKind.CONSUMPTION, origin, 1.0)
    with pytest.raises(ValidationError, match="outside 0..1"):
        ledger.add_all(TaxKind.CONSUMPTION, [1, origin, 0], [1.0, 2.0, 3.0])
    # neither call moved a sum
    assert ledger_entries(ledger) == [(TaxKind.CONSUMPTION, 0, (1.0).hex())]
    assert ledger.event_count == 1


def test_ledger_add_all_rejects_negative():
    with pytest.raises(ValidationError):
        TaxLedger(1).add_all(TaxKind.PROPERTY, [0, 0], [1.0, -0.01])
    with pytest.raises(ValidationError):
        TaxLedger(1).add_all(TaxKind.PROPERTY, [0, -1], [1.0, 2.0])


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
def test_ledger_add_rejects_a_non_finite_amount(amount):
    ledger = TaxLedger(2)
    with pytest.raises(ValidationError, match="invalid tax amount"):
        ledger.add(TaxKind.PROPERTY, 1, amount)
    assert not ledger.sums.any() and ledger.event_count == 0


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
def test_ledger_add_all_rejects_a_non_finite_amount(amount):
    # the bad amount sits among zeros and positives, which alone would be kept
    ledger = TaxLedger(2)
    with pytest.raises(ValidationError, match="invalid tax amount"):
        ledger.add_all(TaxKind.PROPERTY, [0, 1, 1], [1.0, 0.0, amount])
    assert not ledger.sums.any() and ledger.event_count == 0


class FlatLedger:
    """Reference ledger: one dict keyed by ``(kind, origin)``, one entry at a time."""

    def __init__(self):
        self.amounts = {}
        self.event_count = 0

    def add(self, kind, origin, amount):
        if amount == 0.0:
            return
        self.amounts[(kind, origin)] = self.amounts.get((kind, origin), 0.0) + amount
        self.event_count += 1

    def by_kind(self, kind):
        return [(o, a.hex()) for (k, o), a in self.amounts.items() if k is kind]

    def total_by_kind(self):
        out = {k: 0.0 for k in TAX_KINDS}
        for (kind, _origin), amount in self.amounts.items():
            out[kind] += amount
        return [a.hex() for a in out.values()]


ENTRY = st.tuples(st.integers(0, 3), st.one_of(st.just(0.0), st.floats(0.0, 1e6)))


@settings(max_examples=200, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.sampled_from(TAX_KINDS), st.one_of(ENTRY, st.lists(ENTRY, max_size=8))),
        max_size=20,
    ),
    negative=st.tuples(st.sampled_from(TAX_KINDS), st.booleans()),
    n_munis=st.integers(4, 7),
)
def test_ledger_matches_a_flat_reference(calls, negative, n_munis):
    # interleaved add (one entry) and add_all (a list) calls across kinds,
    # on a ledger sized to the region, whose origins need not all pay
    ledger, reference = TaxLedger(n_munis), FlatLedger()
    for kind, entries in calls:
        if isinstance(entries, tuple):
            ledger.add(kind, *entries)
            reference.add(kind, *entries)
        else:
            ledger.add_all(kind, *split(entries))
            for entry in entries:
                reference.add(kind, *entry)
        for k in TAX_KINDS:
            assert [(o, a.hex()) for o, a in kind_sums(ledger, k).items()] == reference.by_kind(k)
        assert [a.hex() for a in ledger.total_by_kind().tolist()] == reference.total_by_kind()
        assert ledger.event_count == reference.event_count
    kind, batched = negative
    with pytest.raises(ValidationError):
        if batched:
            ledger.add_all(kind, [0, 1], [1.0, -0.01])
        else:
            ledger.add(kind, 0, -0.01)


def test_sequential_sum_rounds_after_every_step():
    # the builtin sum() compensates from Python 3.12 and returns 1.0 here
    assert sequential_sum([0.1] * 10) == 0.9999999999999999
    assert sequential_sum([]) == 0.0
    assert sequential_sum(iter([1.5, 2.25])) == 3.75


# ---------------------------------------------------------------------------
# Shares
# ---------------------------------------------------------------------------


def test_equal_shares_proportional():
    assert equal_shares([75, 25]) == [0.75, 0.25]
    assert equal_shares([1234]) == [1.0]


def test_equal_shares_thirds_sum_exactly_one():
    shares = equal_shares([1, 1, 1])
    assert sequential_sum(shares) == 1.0
    for v in shares:
        assert v == pytest.approx(1 / 3, abs=1e-15)


def test_equal_shares_errors():
    with pytest.raises(ValidationError):
        equal_shares([0, 0])
    with pytest.raises(ValidationError):
        equal_shares([-1, 2])


def test_mpf_coefficient_anchors_and_clamps():
    table = MpfTable()
    first_pop, first_coef = DEFAULT_MPF_KNOTS[0]
    last_pop, last_coef = DEFAULT_MPF_KNOTS[-1]
    assert table.coefficient(first_pop) == first_coef
    assert table.coefficient(1) == first_coef
    assert table.coefficient(0) == first_coef
    assert table.coefficient(last_pop) == last_coef
    assert table.coefficient(10_000_000) == last_coef
    # halfway between the first two anchors -> halfway between coefficients
    mid = (DEFAULT_MPF_KNOTS[0][0] + DEFAULT_MPF_KNOTS[1][0]) / 2
    assert table.coefficient(mid) == pytest.approx(0.7, abs=1e-12)


def test_mpf_shares_two_muni_arithmetic():
    # small town sits on the 0.6 floor, the metropolis on the 4.0 cap
    small, big = mpf_shares([5_000, 1_000_000], MpfTable())
    assert small == pytest.approx(0.6 / 4.6, abs=1e-15)
    assert big == pytest.approx(4.0 / 4.6, abs=1e-15)
    assert small + big == 1.0


def test_mpf_equal_populations_equal_shares():
    assert mpf_shares([42_000, 42_000], MpfTable()) == [0.5, 0.5]


def test_mpf_per_capita_progressive():
    table = MpfTable()
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(200):
        pa, pb = (int(v) for v in rng.integers(1, 300_000, size=2))
        if pa == pb:
            continue
        shares = mpf_shares([pa, pb], table)
        small, big = (0, 1) if pa < pb else (1, 0)
        pc_small = shares[small] / min(pa, pb)
        pc_big = shares[big] / max(pa, pb)
        assert pc_small >= pc_big * (1 - 1e-12)


def test_mpf_table_validation():
    with pytest.raises(ValidationError):
        MpfTable([])
    with pytest.raises(ValidationError):
        MpfTable([(100, 1.0), (100, 2.0)])  # population not ascending
    with pytest.raises(ValidationError):
        MpfTable([(100, 2.0), (200, 1.0)])  # coefficient decreasing
    with pytest.raises(ValidationError):
        MpfTable([(100, -1.0)])
    # a ramp this steep would make big municipalities better off per capita
    with pytest.raises(ValidationError):
        MpfTable([(100, 1.0), (110, 10.0)])


def test_load_mpf_table(tmp_path):
    path = tmp_path / "mpf.csv"
    path.write_text("max_population,coefficient\n1000,0.6\n2000,1.0\n", encoding="utf-8")
    table = load_mpf_table(path)
    assert table.coefficient(500) == 0.6
    assert table.coefficient(1500) == pytest.approx(0.8)

    bad = tmp_path / "bad.csv"
    bad.write_text("max_population\n1000\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_mpf_table(bad)
    bad.write_text("max_population,coefficient\n1000,sixty\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_mpf_table(bad)


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------


def test_distribute_case1_consumption_worked_example():
    ledger = TaxLedger(2)
    ledger.add(TaxKind.CONSUMPTION, 0, 100.0)
    alloc = route(ledger, policy_for_case(1), [75, 25])
    # 18.75 stays local, 81.25 splits by population
    assert alloc.tolist() == [[79.6875, 20.3125]] + [[0.0, 0.0]] * 4


def test_distribute_case3_is_identity_routing():
    ledger = TaxLedger(2)
    ledger.add(TaxKind.PROPERTY, 1, 2.5)
    ledger.add(TaxKind.PROPERTY, 0, 7.5)
    ledger.add(TaxKind.COMPANY, 1, 1.0)
    alloc = route(ledger, policy_for_case(3), [10, 90])
    assert alloc[TAX_KINDS.index(TaxKind.PROPERTY)].tolist() == [7.5, 2.5]
    assert alloc[TAX_KINDS.index(TaxKind.COMPANY)].tolist() == [0.0, 1.0]


def test_distribute_single_municipality_case_equivalence():
    allocations = []
    for case_id in (1, 2, 3, 4):
        ledger = TaxLedger(1)
        for kind in TAX_KINDS:
            ledger.add(kind, 0, 11.3)
        allocations.append(route(ledger, policy_for_case(case_id), [500]).tolist())
    assert allocations == [[[11.3]] * len(TAX_KINDS)] * 4


def test_distribute_unknown_origin_rejected():
    ledger = TaxLedger(2)
    ledger.add(TaxKind.PROPERTY, 1, 1.0)
    # shares for one municipality cannot route a ledger of two
    with pytest.raises(ValidationError):
        route(ledger, policy_for_case(3), [10])


def distribute_per_origin(ledger, policy, eq, mp):
    """Reference: ``distribute`` as a loop over each kind's paid origins in
    index order, channel by channel, on Python lists of shares."""
    n = len(eq)
    out = []
    for kind, sums, origins in zip(TAX_KINDS, ledger.sums.tolist(), ledger._origins):
        w = policy.weights[kind]
        alloc = [0.0] * n
        if origins:
            local, equal, mpf = w.local, w.equal, w.mpf
            pool_total = 0.0
            for origin in sorted(origins):
                amount = sums[origin]
                pool_total += amount
                if local:
                    alloc[origin] += local * amount
                if equal:
                    part = equal * amount
                    alloc = [x + part * share for x, share in zip(alloc, eq)]
                if mpf:
                    part = mpf * amount
                    alloc = [x + part * share for x, share in zip(alloc, mp)]
            for _ in range(2):
                residual = pool_total - sequential_sum(alloc)
                if residual == 0.0:
                    break
                largest = max(range(n), key=lambda m: (alloc[m], m))
                alloc[largest] += residual
        out.append(alloc)
    return out


# each case's kind x (local, equal, mpf) weights, in TAX_KINDS order
CASE = {case_id: tuple(map(tuple, p.matrix.tolist())) for case_id, p in POLICIES.items()}


def weight_row(draw):
    """(local, equal, mpf) summing to 1 within the policy tolerance."""
    local, rest = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    equal = (1.0 - local) * rest
    return local, equal, max(0.0, 1.0 - local - equal)


@st.composite
def routings(draw):
    """(populations, kind x weight rows, ledger entries (kind row, origin, amount))."""
    populations = draw(
        st.lists(st.integers(0, 200_000), min_size=1, max_size=12).filter(lambda p: sum(p) > 0)
    )
    rows = sorted({row for weights in CASE.values() for row in weights})
    weights = tuple(
        draw(st.sampled_from(rows)) if draw(st.booleans()) else weight_row(draw)
        for _ in TAX_KINDS
    )
    entry = st.tuples(
        st.integers(0, len(TAX_KINDS) - 1),
        st.integers(0, len(populations) - 1),
        st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    )
    return populations, weights, draw(st.lists(entry, max_size=30))


@settings(max_examples=300, deadline=None)
@given(routing=routings())
@example(routing=([3, 5], CASE[1], []))  # no kind paid
@example(routing=([500], CASE[1], [(0, 0, 11.3), (1, 0, 7.0)]))  # one municipality
@example(routing=([1, 5, 4, 7], CASE[4], [(2, 1, 4.94), (2, 0, 0.43)]))  # a second pass
@example(routing=([8, 8, 3, 1], CASE[4], [(3, 0, 5.0), (3, 1, 2.0)]))  # a tie for the largest
@example(routing=([0, 10, 25], CASE[1], [(0, 0, 3.5), (1, 2, 9.25)]))  # a zero population
@example(routing=([4, 9], CASE[1], [(2, 0, 1.25), (0, 1, 2.5)]))  # zero-weight channels
@example(routing=([3, 3, 9], CASE[1], [(0, 0, 2.66), (0, 2, 5.39)]))  # local, then equal
def test_distribute_matches_the_per_origin_loop_bit_for_bit(routing):
    populations, weights, entries = routing
    policy = DistributionPolicy(
        0, {kind: ChannelWeights(*w) for kind, w in zip(TAX_KINDS, weights)}
    )
    ledger = TaxLedger(len(populations))
    for row, origin, amount in entries:
        ledger.add(TAX_KINDS[row], origin, amount)
    eq, mp = equal_shares(populations), mpf_shares(populations, MpfTable())
    alloc = distribute(ledger.sums, policy, np.array(eq), np.array(mp))
    expected = distribute_per_origin(ledger, policy, eq, mp)
    assert alloc.tobytes() == np.array(expected).tobytes(), (alloc.tolist(), expected)


@settings(max_examples=100, deadline=None)
@given(
    case_id=st.sampled_from([1, 2, 3, 4]),
    amounts=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=4),
    pops=st.lists(st.integers(1, 500_000), min_size=1, max_size=6),
)
def test_distribute_conserves_to_ulp(case_id, amounts, pops):
    ledger = TaxLedger(len(pops))
    for i, amount in enumerate(amounts):
        ledger.add(TAX_KINDS[i % len(TAX_KINDS)], i % len(pops), amount)
    alloc = route(ledger, policy_for_case(case_id), pops)
    for kind, row in zip(TAX_KINDS, alloc.tolist()):
        pool = sum(kind_sums(ledger, kind).values())
        total = sum(row)
        # residual folding leaves at most ulp-scale daylight, far inside the
        # penny-per-million-events budget the engine audits against
        assert math.isclose(total, pool, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Investment
# ---------------------------------------------------------------------------


def municipalities(n, qli=0.0):
    """A state of ``n`` municipalities and nothing else, every QLI at ``qli``."""
    state = SimulationState(municipality_ids=[f"m{m:02d}" for m in range(n)])
    state.qli[:] = qli
    return state


def test_invest_unit_case():
    state = municipalities(1)
    spent = invest(state, np.array([100.0]), np.array([100]), qli_unit_cost=1.0)
    assert spent.tolist() == [100.0]
    assert state.escheat_pool == 0.0
    assert state.qli.tolist() == [1.0]
    assert state.treasury.tolist() == [0.0]


def test_invest_zero_allocation_no_change():
    state = municipalities(1, qli=0.7)
    spent = invest(state, np.array([0.0]), np.array([10]), qli_unit_cost=1.0)
    assert spent.tolist() == [0.0]
    assert state.escheat_pool == 0.0
    assert state.qli.tolist() == [0.7]


def test_invest_population_halves_increment():
    state = municipalities(2)
    invest(state, np.array([50.0, 50.0]), np.array([100, 200]), qli_unit_cost=2.0)
    assert state.qli[0] == pytest.approx(2 * state.qli[1], rel=1e-15)


def test_invest_zero_population_escheats():
    state = municipalities(1)
    spent = invest(state, np.array([12.5]), np.array([0]), qli_unit_cost=1.0)
    assert spent.tolist() == [0.0]
    assert state.escheat_pool == 12.5
    assert state.treasury.tolist() == [0.0]
    assert state.qli.tolist() == [0.0]


def invest_bits(state, spent):
    """What ``invest`` writes and returns, floats as hex."""
    return ([q.hex() for q in state.qli.tolist()], [b.hex() for b in state.treasury.tolist()],
            [s.hex() for s in spent], state.escheat_pool.hex())


def invest_each(state, allocations, populations, qli_unit_cost):
    """Reference: ``invest_one`` on each municipality's record in index order,
    each escheat added onto the pool in turn."""
    records = treasury_records(state)
    pool = state.escheat_pool
    spent = []
    for record, allocation, population in zip(records, allocations, populations):
        invested, escheated = invest_one(record, allocation, population, qli_unit_cost)
        pool += escheated
        spent.append(invested)
    qli = [record.qli.hex() for record in records]
    return qli, [record.balance.hex() for record in records], [s.hex() for s in spent], pool.hex()


amount_draws = st.one_of(st.just(0.0), st.floats(1e-9, 1e6))
municipality_draws = st.tuples(
    st.lists(amount_draws, max_size=3),  # credits before the allocation
    st.floats(0.0, 50.0),  # QLI so far
    amount_draws,  # allocation
    st.one_of(st.just(0), st.integers(1, 10_000)),  # population
)


@settings(max_examples=300, deadline=None)
@given(
    munis=st.lists(municipality_draws, min_size=1, max_size=8),
    pool=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    cost=st.floats(1e-3, 1e3),
)
# zero balances; an emptied municipality with a balance and one without;
# several emptied ones, whose escheats fold onto the pool in index order
@example(munis=[([], 0.0, 0.0, 5), ([], 1.0, 0.0, 0)], pool=0.0, cost=1.0)
@example(munis=[([0.1], 0.0, 0.0, 0), ([], 0.0, 2.0, 3), ([], 0.0, 0.0, 0)], pool=0.0, cost=1.0)
@example(munis=[([0.1, 0.2], 0.0, 0.3, 0), ([1e-9], 0.5, 0.0, 0), ([], 0.0, 1e6, 0),
                ([7.0], 1.0, 0.5, 40)], pool=0.7, cost=3.0)
def test_invest_pass_matches_the_per_municipality_loop_bit_for_bit(munis, pool, cost):
    state = municipalities(len(munis))
    state.escheat_pool = pool
    for m, (credits, qli, _, _) in enumerate(munis):
        state.qli[m] = qli
        for amount in credits:  # as an escheat or a municipal sale credits it
            state.treasury[m] += amount
    allocations = [allocation for _, _, allocation, _ in munis]
    populations = [population for _, _, _, population in munis]
    expected = invest_each(state, allocations, populations, cost)
    spent = invest(state, np.array(allocations), np.array(populations), cost)
    assert invest_bits(state, spent.tolist()) == expected


def test_invest_spends_what_escheats_and_municipal_sales_credited(make_state):
    # m00 empties when its one citizen dies and escheats her savings; a
    # family of m01 buys a municipal house there; m02 gets nothing, and m03
    # never had anyone
    state = make_state(("m00", "m01", "m02", "m03"))
    heir = add_family(state, 0, [5], savings=7.25)
    buyer = add_family(state, 1, [5], savings=100.0)
    add_house(state, 1, size=4.0, quality=10.0)  # hedonic 80, sold at 90
    add_house(state, 1, size=50.0, quality=50.0)  # unaffordable: the last vacancy
    add_family(state, 2, [5])
    add_house(state, 3)
    [citizen] = members(state, heir)
    _remove_citizen(state, citizen)
    params = HousingParams(market_entry_rate=1.0, bid_fraction=1.0)
    taxes = ([], [])
    sales = run_housing_market(state, hedonic_prices(state, params), params,
                               TaxRates(transmission=0.02), rng(), taxes)
    assert state.owner[sales].tolist() == [buyer]
    assert state.treasury.tolist() == [7.25, 90.0 - 1.8, 0.0, 0.0]
    populations = state.populations()
    assert populations == [0, 1, 1, 0]
    allocations = [1.5, 2.0, 0.0, 0.0]
    expected = invest_each(state, allocations, populations, 2.0)
    spent = invest(state, np.array(allocations), np.array(populations), 2.0)
    assert invest_bits(state, spent.tolist()) == expected
    assert spent.tolist() == [0.0, 90.0 - 1.8 + 2.0, 0.0, 0.0]
    assert state.escheat_pool == 7.25 + 1.5
    assert not state.treasury.any()


@pytest.mark.parametrize("spent, n_firms", [(5.0, 1), (1.0, 3), (0.7, 7), (123.456, 10)])
def test_pay_procurement_first_firm_takes_the_remainder(spent, n_firms):
    state = SimulationState()
    firms = [add_firm(state, 0, cash=0.0) for _ in range(n_firms)]
    pay_procurement(state, [spent], [firms])
    paid = 0.0
    for firm in firms[1:]:
        assert state.cash[firm] == spent / n_firms
        paid += state.cash[firm]
    assert state.cash[0] == spent - paid
    assert state.cash[0] + paid == spent
    assert state.revenue_this_month.tolist() == state.cumulative_profit.tolist() == state.cash.tolist()


def pay_procurement_one_firm_at_a_time(spent, firms):
    """Reference: the procurement payment, written onto each firm record in turn."""
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


@settings(max_examples=200, deadline=None)
@given(
    columns=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
                     min_size=1, max_size=12),
    data=st.data(),
)
def test_pay_procurement_matches_the_per_firm_loop_bit_for_bit(columns, data):
    # firms with cash, profit and revenue of their own; each municipality
    # pays some of them, in id order, and a firm may be paid by several (as
    # the region's firms are by every municipality without firms of its own)
    state = SimulationState()
    for cash, profit, revenue in columns:
        firm = add_firm(state, 0, cash=cash)
        state.cumulative_profit[firm] = profit
        state.revenue_this_month[firm] = revenue
    contractors = st.lists(st.sampled_from(range(len(columns))), min_size=1, unique=True)
    munis = data.draw(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e7)),
                                         contractors.map(sorted)), min_size=1, max_size=5))
    records = firm_records(state)
    pay_procurement(state, [spent for spent, _ in munis], [firms for _, firms in munis])
    for spent, firms in munis:
        if spent > 0.0:
            pay_procurement_one_firm_at_a_time(spent, [records[f] for f in firms])
    assert firm_bits(firm_records(state)) == firm_bits(records)


def test_invest_argument_errors():
    state = municipalities(2)
    with pytest.raises(ValidationError, match="negative allocation -1.0"):
        invest(state, np.array([1.0, -1.0]), np.array([10, 10]), qli_unit_cost=1.0)
    with pytest.raises(ValidationError):
        invest(state, np.array([1.0, 1.0]), np.array([10, 10]), qli_unit_cost=0.0)
    assert not state.treasury.any()  # rejected before a balance moved


def test_qli_never_decreases_over_random_allocations():
    state = municipalities(1)
    gen = rng(3)
    last = 0.0
    for _ in range(200):
        invest(state, np.array([gen.uniform(0, 10)]), np.array([gen.integers(1, 1000)]),
               qli_unit_cost=50.0)
        assert state.qli[0] >= last
        last = state.qli[0]
