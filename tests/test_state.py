"""A firm's staff and a family's houses, kept as positions in columns, against
list-of-lists references that each hire, death, layoff, sale and escheat
updates by hand."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metrosim.demographics import _remove_citizen
from metrosim.economy import MarketParams, output_per_worker, pay_wages, produce
from metrosim.fiscal import TaxRates
from metrosim.housing import HousingParams, collect_property_tax, hedonic_prices
from metrosim.state import SimulationState

from conftest import (
    add_family, add_firm, add_house, firm_bits, firm_records, house_lists, members, staff_lists,
)
from test_economy import hexes, pay_wages_one_firm, produce_one_firm, workers_of
from test_housing import reference_collect_property_tax, scalar_world, world_bits

MUNIS = st.sampled_from([0, 1])


def die(state, citizen, staff, houses):
    """``citizen`` dies: off its payroll, and its family's houses escheat with
    the last member."""
    firm, family = state.employer.item(citizen), state.family.item(citizen)
    last = members(state, family) == [citizen]
    _remove_citizen(state, citizen)
    if firm >= 0:
        staff[firm].remove(citizen)
    if last:
        houses[family].clear()


def pay_month(state, staff, params, rates, cash):
    """Production and the payroll at ``cash`` shares of each firm's payroll,
    against the per-firm references over the ``staff`` lists, which the
    references update for fire-and-shrink."""
    state.cash[:] = [share * sum(state.wage[members].tolist())
                     for share, members in zip(cash, staff)]
    records = firm_records(state)
    for record, members in zip(records, staff):
        record.employees = list(members)
    workers = workers_of(state)
    savings, employer = state.savings.tolist(), state.employer.copy()
    units = produce(state, output_per_worker(params, 21), params)
    taxes = pay_wages(state, rates)
    ref_units = [produce_one_firm(r, [workers[c].qualification for c in r.employees], params)
                 for r in records]
    ref_taxes = []
    for record in records:
        pay_wages_one_firm(record, workers, savings, employer, rates, ref_taxes)
    staff[:] = [record.employees for record in records]
    assert hexes(units.tolist()) == hexes(ref_units)
    assert firm_bits(firm_records(state)) == firm_bits(records)
    assert hexes(state.savings.tolist()) == hexes(savings)
    assert state.employer.tolist() == employer.tolist()
    assert [(m, t.hex()) for m, t in zip(*(a.tolist() for a in taxes))] == [
        (m, t.hex()) for m, t in ref_taxes
    ]


def tax_month(state, houses, prices, rates):
    """The property tax, against the per-family loop over the ``houses`` lists."""
    world = scalar_world(state)
    for f, family in world.families.items():
        family.owned_houses = list(houses[f])
    expected = ([], [])
    reference_collect_property_tax(world, prices.tolist(), rates, expected)
    munis, amounts = collect_property_tax(state, prices, rates)
    assert (munis.tolist(), hexes(amounts.tolist())) == (expected[0], hexes(expected[1]))
    assert world_bits(scalar_world(state)) == world_bits(world)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_columns_keep_the_orders_of_staff_and_house_lists(data):
    draw = data.draw
    state = SimulationState(municipality_ids=["m00", "m01"])
    n_firms = draw(st.integers(1, 3))
    for _ in range(n_firms):
        add_firm(state, draw(MUNIS), wage=draw(st.floats(0.5, 2.0)))
    houses = []
    for _ in range(draw(st.integers(2, 6))):
        # small savings run out, so arrears build up and wages later pay them
        quals = draw(st.lists(st.integers(1, 21), min_size=1, max_size=4))
        savings = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        family = add_family(state, draw(MUNIS), quals, savings=savings,
                            size=draw(st.floats(1.0, 9.0)))
        houses.append([state.home.item(family)])
    for _ in range(draw(st.integers(2, 6))):
        add_house(state, draw(MUNIS), size=draw(st.floats(1.0, 9.0)))
    staff = [[] for _ in range(n_firms)]
    params, rates = MarketParams(), TaxRates(property_annual=0.9)
    prices = hedonic_prices(state, HousingParams())

    for _ in range(draw(st.integers(1, 8))):  # months, their events in the engine's order
        living = np.flatnonzero(state.alive).tolist()
        if not living:
            break
        for citizen in draw(st.lists(st.sampled_from(living), max_size=2, unique=True)):
            if state.alive[citizen]:  # not gone with an escheated family
                die(state, citizen, staff, houses)
        live = np.flatnonzero(state.live).tolist()
        if live and draw(st.integers(0, 4)) == 0:  # a whole family dies, and escheats
            for citizen in members(state, draw(st.sampled_from(live))):
                die(state, citizen, staff, houses)
        pool = np.flatnonzero(state.alive & (state.employer < 0)).tolist()
        if pool:
            # offers move between months, so a payroll's wages differ
            state.wage_offer[:] = draw(st.lists(st.floats(0.5, 2.0), min_size=n_firms,
                                                max_size=n_firms))
            hires = draw(st.lists(st.tuples(st.integers(0, n_firms - 1), st.sampled_from(pool)),
                                  max_size=8, unique_by=lambda hire: hire[1]))
            if hires:
                state.hire(*zip(*hires))
            for firm, citizen in hires:
                staff[firm].append(citizen)
        live = np.flatnonzero(state.live).tolist()
        for buyer in draw(st.lists(st.sampled_from(live), max_size=2)) if live else []:
            offered = np.flatnonzero((state.resident < 0) & (state.owner != buyer)).tolist()
            if offered:
                house = draw(st.sampled_from(offered))
                seller = state.owner.item(house)
                state.move_in(buyer, house)
                if seller >= 0:
                    houses[seller].remove(house)
                houses[buyer].append(house)
        # mostly a partial shortfall, which keeps part of the staff
        shares = st.one_of(st.floats(0.5, 1.5), st.floats(0.5, 1.0), st.just(0.0))
        pay_month(state, staff, params, rates,
                  draw(st.lists(shares, min_size=n_firms, max_size=n_firms)))
        tax_month(state, houses, prices, rates)
        assert staff_lists(state) == staff
        assert house_lists(state) == houses
