"""Distribution policies, share computation, conservation, and investment."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrosim.economy import Firm
from metrosim.errors import ParseError, ValidationError
from metrosim.fiscal import (
    TAX_KINDS,
    DEFAULT_MPF_KNOTS,
    MpfTable,
    TaxKind,
    TaxLedger,
    Treasury,
    distribute,
    equal_shares,
    invest,
    load_mpf_table,
    mpf_shares,
    pay_procurement,
    policy_for_case,
    sequential_sum,
)

from conftest import ledger_entries


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


@pytest.mark.parametrize("bad", [0, 5, -1, "1"])
def test_case_out_of_range(bad):
    with pytest.raises(ValidationError):
        policy_for_case(bad)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


def test_ledger_accumulates_by_kind_and_origin():
    ledger = TaxLedger()
    ledger.add(TaxKind.CONSUMPTION, "a", 3.0)
    ledger.add(TaxKind.CONSUMPTION, "a", 2.0)
    ledger.add(TaxKind.CONSUMPTION, "b", 1.0)
    ledger.add(TaxKind.PROPERTY, "a", 4.0)
    assert ledger.by_kind(TaxKind.CONSUMPTION) == {"a": 5.0, "b": 1.0}
    assert ledger.total() == 10.0
    assert ledger.total_by_kind()[TaxKind.PROPERTY] == 4.0
    assert ledger.event_count == 4


def test_ledger_rejects_negative_skips_zero():
    ledger = TaxLedger()
    with pytest.raises(ValidationError):
        ledger.add(TaxKind.COMPANY, "a", -0.01)
    ledger.add(TaxKind.COMPANY, "a", 0.0)
    assert ledger.event_count == 0
    assert ledger.total() == 0.0


@settings(max_examples=200, deadline=None)
@given(
    seeded=st.lists(st.tuples(st.sampled_from("abc"), st.floats(0.0, 1e6)), max_size=3),
    entries=st.lists(
        st.tuples(st.sampled_from("abcd"), st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
        max_size=30,
    ),
)
def test_ledger_add_all_matches_add_in_turn(seeded, entries):
    # the same sums to the bit, the same key order (sums over it are
    # order-sensitive) and the same event count as one add per entry
    one_by_one, batched = TaxLedger(), TaxLedger()
    for ledger in (one_by_one, batched):
        for origin, amount in seeded:
            ledger.add(TaxKind.PROPERTY, origin, amount)
        ledger.add(TaxKind.COMPANY, "a", 1.0)
    for origin, amount in entries:
        one_by_one.add(TaxKind.PROPERTY, origin, amount)
    batched.add_all(TaxKind.PROPERTY, entries)
    assert ledger_entries(batched) == ledger_entries(one_by_one)
    assert batched.event_count == one_by_one.event_count


def test_ledger_add_all_rejects_negative():
    with pytest.raises(ValidationError):
        TaxLedger().add_all(TaxKind.PROPERTY, [("a", 1.0), ("a", -0.01)])


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
        return {k: a.hex() for k, a in out.items()}


ENTRY = st.tuples(st.sampled_from("abcd"), st.one_of(st.just(0.0), st.floats(0.0, 1e6)))


@settings(max_examples=200, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.sampled_from(TAX_KINDS), st.one_of(ENTRY, st.lists(ENTRY, max_size=8))),
        max_size=20,
    ),
    negative=st.tuples(st.sampled_from(TAX_KINDS), st.booleans()),
)
def test_ledger_matches_a_flat_reference(calls, negative):
    # interleaved add (one entry) and add_all (a list) calls across kinds
    ledger, reference = TaxLedger(), FlatLedger()
    for kind, entries in calls:
        if isinstance(entries, tuple):
            ledger.add(kind, *entries)
            reference.add(kind, *entries)
        else:
            ledger.add_all(kind, entries)
            for entry in entries:
                reference.add(kind, *entry)
        for k in TAX_KINDS:
            assert [(o, a.hex()) for o, a in ledger.by_kind(k).items()] == reference.by_kind(k)
        assert {k: a.hex() for k, a in ledger.total_by_kind().items()} == reference.total_by_kind()
        assert ledger.event_count == reference.event_count
    kind, batched = negative
    with pytest.raises(ValidationError):
        if batched:
            ledger.add_all(kind, [("a", 1.0), ("b", -0.01)])
        else:
            ledger.add(kind, "a", -0.01)


def test_sequential_sum_rounds_after_every_step():
    # the builtin sum() compensates from Python 3.12 and returns 1.0 here
    assert sequential_sum([0.1] * 10) == 0.9999999999999999
    assert sequential_sum([]) == 0.0
    assert sequential_sum(iter([1.5, 2.25])) == 3.75


def test_ledger_clear_resets():
    ledger = TaxLedger()
    ledger.add(TaxKind.COMPANY, "a", 1.0)
    ledger.clear()
    assert ledger.total() == 0.0
    assert ledger.event_count == 0


# ---------------------------------------------------------------------------
# Shares
# ---------------------------------------------------------------------------


def test_equal_shares_proportional():
    assert equal_shares({"a": 75, "b": 25}) == {"a": 0.75, "b": 0.25}
    assert equal_shares({"solo": 1234}) == {"solo": 1.0}


def test_equal_shares_thirds_sum_exactly_one():
    shares = equal_shares({"a": 1, "b": 1, "c": 1})
    assert sequential_sum(shares.values()) == 1.0
    for v in shares.values():
        assert v == pytest.approx(1 / 3, abs=1e-15)


def test_equal_shares_errors():
    with pytest.raises(ValidationError):
        equal_shares({"a": 0, "b": 0})
    with pytest.raises(ValidationError):
        equal_shares({"a": -1, "b": 2})


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
    shares = mpf_shares({"small": 5_000, "big": 1_000_000}, MpfTable())
    assert shares["small"] == pytest.approx(0.6 / 4.6, abs=1e-15)
    assert shares["big"] == pytest.approx(4.0 / 4.6, abs=1e-15)
    assert sequential_sum(shares.values()) == 1.0


def test_mpf_equal_populations_equal_shares():
    shares = mpf_shares({"a": 42_000, "b": 42_000}, MpfTable())
    assert shares["a"] == shares["b"] == 0.5


def test_mpf_per_capita_progressive():
    table = MpfTable()
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(200):
        pa, pb = (int(v) for v in rng.integers(1, 300_000, size=2))
        if pa == pb:
            continue
        shares = mpf_shares({"a": pa, "b": pb}, table)
        small, big = ("a", "b") if pa < pb else ("b", "a")
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
    ledger = TaxLedger()
    ledger.add(TaxKind.CONSUMPTION, "a", 100.0)
    alloc = distribute(ledger, policy_for_case(1), {"a": 75, "b": 25}, MpfTable())
    # 18.75 stays local, 81.25 splits by population
    assert alloc[TaxKind.CONSUMPTION]["a"] == 79.6875
    assert alloc[TaxKind.CONSUMPTION]["b"] == 20.3125


def test_distribute_case3_is_identity_routing():
    ledger = TaxLedger()
    ledger.add(TaxKind.PROPERTY, "a", 7.5)
    ledger.add(TaxKind.PROPERTY, "b", 2.5)
    ledger.add(TaxKind.COMPANY, "b", 1.0)
    alloc = distribute(ledger, policy_for_case(3), {"a": 10, "b": 90}, MpfTable())
    assert alloc[TaxKind.PROPERTY] == {"a": 7.5, "b": 2.5}
    assert alloc[TaxKind.COMPANY] == {"a": 0.0, "b": 1.0}


def test_distribute_single_municipality_case_equivalence():
    allocations = []
    for case_id in (1, 2, 3, 4):
        ledger = TaxLedger()
        for kind in TAX_KINDS:
            ledger.add(kind, "only", 11.3)
        allocations.append(distribute(ledger, policy_for_case(case_id), {"only": 500}, MpfTable()))
    assert allocations[0] == allocations[1] == allocations[2] == allocations[3]
    for kind in TAX_KINDS:
        assert allocations[0][kind]["only"] == 11.3


def test_distribute_unknown_origin_rejected():
    ledger = TaxLedger()
    ledger.add(TaxKind.PROPERTY, "elsewhere", 1.0)
    with pytest.raises(ValidationError):
        distribute(ledger, policy_for_case(3), {"a": 10}, MpfTable())


@settings(max_examples=100, deadline=None)
@given(
    case_id=st.sampled_from([1, 2, 3, 4]),
    amounts=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=4),
    pops=st.lists(st.integers(1, 500_000), min_size=1, max_size=6),
)
def test_distribute_conserves_to_ulp(case_id, amounts, pops):
    populations = {f"m{i}": p for i, p in enumerate(pops)}
    munis = list(populations)
    ledger = TaxLedger()
    for i, amount in enumerate(amounts):
        ledger.add(TAX_KINDS[i % len(TAX_KINDS)], munis[i % len(munis)], amount)
    alloc = distribute(ledger, policy_for_case(case_id), populations, MpfTable())
    for kind in TAX_KINDS:
        pool = sum(ledger.by_kind(kind).values())
        total = sum(alloc[kind][m] for m in munis)
        # residual folding leaves at most ulp-scale daylight, far inside the
        # penny-per-million-events budget the engine audits against
        assert math.isclose(total, pool, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Investment
# ---------------------------------------------------------------------------


def test_invest_unit_case():
    treasury = Treasury(municipality_id="m")
    spent, escheated = invest(treasury, 100.0, population=100, qli_unit_cost=1.0)
    assert spent == 100.0
    assert escheated == 0.0
    assert treasury.qli == 1.0
    assert treasury.balance == 0.0
    assert treasury.cumulative_invested == 100.0


def test_invest_zero_allocation_no_change():
    treasury = Treasury(municipality_id="m", qli=0.7)
    assert invest(treasury, 0.0, population=10, qli_unit_cost=1.0) == (0.0, 0.0)
    assert treasury.qli == 0.7


def test_invest_population_halves_increment():
    t1 = Treasury(municipality_id="a")
    t2 = Treasury(municipality_id="b")
    invest(t1, 50.0, population=100, qli_unit_cost=2.0)
    invest(t2, 50.0, population=200, qli_unit_cost=2.0)
    assert t1.qli == pytest.approx(2 * t2.qli, rel=1e-15)


def test_invest_zero_population_escheats():
    treasury = Treasury(municipality_id="ghost")
    spent, escheated = invest(treasury, 12.5, population=0, qli_unit_cost=1.0)
    assert spent == 0.0
    assert escheated == 12.5
    assert treasury.balance == 0.0
    assert treasury.qli == 0.0
    assert treasury.cumulative_invested == 0.0


@pytest.mark.parametrize("spent, n_firms", [(5.0, 1), (1.0, 3), (0.7, 7), (123.456, 10)])
def test_pay_procurement_first_firm_takes_the_remainder(spent, n_firms):
    firms = [Firm(id=i, municipality_id="m", location=(0.0, 0.0), cash=0.0)
             for i in range(n_firms)]
    pay_procurement(spent, firms)
    paid = 0.0
    for firm in firms[1:]:
        assert firm.cash == spent / n_firms
        paid += firm.cash
    assert firms[0].cash == spent - paid
    assert firms[0].cash + paid == spent
    for firm in firms:
        assert firm.revenue_this_month == firm.cumulative_profit == firm.cash


def test_invest_argument_errors():
    treasury = Treasury(municipality_id="m")
    with pytest.raises(ValidationError):
        invest(treasury, -1.0, population=10, qli_unit_cost=1.0)
    with pytest.raises(ValidationError):
        invest(treasury, 1.0, population=10, qli_unit_cost=0.0)


def test_qli_never_decreases_over_random_allocations():
    import numpy as np

    treasury = Treasury(municipality_id="m")
    rng = np.random.default_rng(3)
    last = 0.0
    for _ in range(200):
        invest(treasury, float(rng.uniform(0, 10)), population=int(rng.integers(1, 1000)),
               qli_unit_cost=50.0)
        assert treasury.qli >= last
        last = treasury.qli
