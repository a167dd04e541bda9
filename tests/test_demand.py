"""Demand and supply scaling tests, plus the synthetic generator's statistics."""

from __future__ import annotations

from fractions import Fraction

import pytest
from scipy import stats

from odt_lab.demand import (DAY_S, JITTER_S, RideRequest, SupplySchedule,
                            check_level_sizes, demand_density, generate_synthetic_demand, load_requests,
                            load_supply, round_half_up, scale_demand, scale_supply,
                            scaled_count)
from odt_lab.network import CsvParseError, generate_grid

from writers import save_requests

LEVELS = list(range(50, 501, 50))

# 177 requests/day rescaled across the whole sweep; the 50% and 500% ends
# are the frozen anchor counts
EXPECTED_COUNTS = {50: 89, 100: 177, 150: 266, 200: 354, 250: 443,
                   300: 531, 350: 620, 400: 708, 450: 797, 500: 885}


@pytest.fixture(scope="module")
def grid():
    return generate_grid(5, 5, 500.0, 10.0)


@pytest.fixture(scope="module")
def base_177(grid):
    return generate_synthetic_demand(grid, 177, [1.0] * 24, seed=0)


def test_round_half_up_is_half_up_not_bankers():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3  # bankers' rounding would give 2
    assert round_half_up(Fraction(177, 2)) == 89
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == -1
    assert round_half_up(-1.5) == -2


def test_scaled_counts_across_sweep():
    for level, expect in EXPECTED_COUNTS.items():
        assert scaled_count(177, level) == expect


def test_check_level_sizes_refuses_two_levels_with_one_day_size():
    check_level_sizes(177, LEVELS)  # ten distinct sizes
    check_level_sizes(3, [50, 100, 50])  # a repeated level is one level
    with pytest.raises(ValueError, match="levels 50% and 60% both scale the base day "
                                         "of 3 requests to 2"):
        check_level_sizes(3, [60, 100, 50])
    with pytest.raises(ValueError, match="levels 450% and 500% .* of 1 requests to 5"):
        check_level_sizes(1, [450, 500])  # 4.5 rounds half up to 5
    for levels in ([100], [50, 100]):  # an empty day is refused at any level
        with pytest.raises(ValueError, match="base demand is empty"):
            check_level_sizes(0, levels)


def test_scale_demand_sizes_and_determinism(base_177):
    for level in LEVELS:
        a = scale_demand(base_177, level, seed=42)
        b = scale_demand(base_177, level, seed=42)
        assert len(a) == EXPECTED_COUNTS[level]
        assert [(r.id, r.request_time, r.origin, r.destination) for r in a] == \
               [(r.id, r.request_time, r.origin, r.destination) for r in b]
        times = [r.request_time for r in a]
        assert times == sorted(times)
        assert len({r.id for r in a}) == len(a)


def test_scale_demand_seed_matters(base_177):
    a = scale_demand(base_177, 300, seed=1)
    b = scale_demand(base_177, 300, seed=2)
    assert [(r.request_time, r.origin) for r in a] != \
           [(r.request_time, r.origin) for r in b]


def test_subsample_is_subset_of_base(base_177):
    base_ids = {r.id for r in base_177}
    sub = scale_demand(base_177, 50, seed=5)
    assert {r.id for r in sub} <= base_ids
    by_id = {r.id: r for r in base_177}
    for r in sub:
        src = by_id[r.id]
        assert (r.request_time, r.origin, r.destination) == \
               (src.request_time, src.origin, src.destination)


def test_bootstrap_keeps_base_and_draws_same_hour_pairs(base_177):
    up = scale_demand(base_177, 400, seed=9)
    base_ids = {r.id for r in base_177}
    assert base_ids <= {r.id for r in up}

    by_hour: dict[int, set] = {}
    all_pairs = set()
    for r in base_177:
        pair = (r.origin, r.destination)
        by_hour.setdefault(int(r.request_time // 3600), set()).add(pair)
        all_pairs.add(pair)
    base_by_id = {r.id: r for r in base_177}
    for r in up:
        if r.id in base_ids:
            continue
        assert 0.0 <= r.request_time < DAY_S
        pool = by_hour.get(int(r.request_time // 3600)) or all_pairs
        assert (r.origin, r.destination) in pool
    # every extra request's time must sit within the jitter of some base
    # request; a sharper per-source check would need the rng internals
    base_times = sorted(r.request_time for r in base_177)
    for r in up:
        if r.id not in base_ids:
            assert any(abs(r.request_time - t) <= JITTER_S + 1e-6
                       for t in base_times)


def test_scale_demand_rejects_out_of_range(base_177):
    for bad in (49, 501, 0):
        with pytest.raises(ValueError):
            scale_demand(base_177, bad, seed=0)
    with pytest.raises(ValueError):
        scale_demand([], 100, seed=0)


def test_supply_scaling_rounds_and_floors():
    base = SupplySchedule([0] * 6 + [2] * 14 + [1] * 4)
    up = scale_supply(base, 100.0, alpha=1.0)  # demand +100%, alpha 1
    assert up.hourly_counts == [0] * 6 + [4] * 14 + [2] * 4
    half_response = scale_supply(base, 100.0, alpha=0.5)
    assert half_response.hourly_counts == [0] * 6 + [3] * 14 + [2] * 4  # 1.5 -> 2
    frozen = scale_supply(base, 300.0, alpha=0.0)
    assert frozen.hourly_counts == base.hourly_counts

    # staffed hours never drop to zero, empty hours stay empty
    down = scale_supply(base, -50.0, alpha=1.0)
    assert down.hourly_counts == [0] * 6 + [1] * 14 + [1] * 4
    deep = scale_supply(SupplySchedule([1] * 24), -90.0, alpha=1.0)
    assert deep.hourly_counts == [1] * 24


def test_supply_scaling_rejects_negative_multiplier():
    with pytest.raises(ValueError):
        scale_supply(SupplySchedule([1] * 24), -300.0, alpha=1.0)


def test_demand_density():
    assert demand_density(885, 262.4) == pytest.approx(3.3727, abs=5e-5)
    assert round(demand_density(885, 262.4), 2) == 3.37
    assert round(demand_density(354, 262.4), 2) == 1.35
    with pytest.raises(ValueError):
        demand_density(100, 0.0)


def test_synthetic_demand_shape(grid):
    reqs = generate_synthetic_demand(grid, 60, [1.0] * 24, seed=3)
    assert len(reqs) == 60
    assert sorted(r.id for r in reqs) == list(range(60))
    for r in reqs:
        assert r.origin != r.destination
        assert 0.0 <= r.request_time < DAY_S
    again = generate_synthetic_demand(grid, 60, [1.0] * 24, seed=3)
    assert [(r.id, r.request_time) for r in reqs] == \
           [(r.id, r.request_time) for r in again]


def test_synthetic_demand_follows_hourly_profile(grid):
    # two active hours weighted 1:3; aggregate over many seeds and
    # chi-square against the expectation
    profile = [0.0] * 24
    profile[8], profile[17] = 1.0, 3.0
    counts = [0, 0]
    for seed in range(100):
        for r in generate_synthetic_demand(grid, 50, profile, seed=seed):
            hour = int(r.request_time // 3600)
            assert hour in (8, 17)
            counts[0 if hour == 8 else 1] += 1
    total = sum(counts)
    chi2, p = stats.chisquare(counts, [total * 0.25, total * 0.75])
    assert p > 0.001, f"hourly split off: {counts}, chi2={chi2:.2f}"


def test_synthetic_demand_od_pairs_roughly_uniform(grid):
    pair_counts: dict[tuple, int] = {}
    for seed in range(60):
        for r in generate_synthetic_demand(grid, 100, [1.0] * 24, seed=seed):
            pair = (r.origin, r.destination)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
    n_pairs = 25 * 24
    observed = [pair_counts.get((o, d), 0)
                for o in range(25) for d in range(25) if o != d]
    assert len(observed) == n_pairs
    total = sum(observed)
    chi2, p = stats.chisquare(observed, [total / n_pairs] * n_pairs)
    assert p > 0.001, f"O-D draw not uniform, chi2={chi2:.1f}"


def test_request_validation(tmp_path):
    with pytest.raises(ValueError):
        RideRequest(0, -1.0, 0, 1)
    with pytest.raises(ValueError):
        RideRequest(0, DAY_S, 0, 1)
    with pytest.raises(ValueError):
        RideRequest(0, 10.0, 4, 4)
    path = tmp_path / "req.csv"
    path.write_text("id,time_s,origin,destination\n1,5.0,0,1\n1,9.0,1,2\n")
    with pytest.raises(CsvParseError):
        load_requests(str(path))
    path.write_text("id,time_s,origin,destination\n1,5.0,3,3\n")
    with pytest.raises(CsvParseError) as err:
        load_requests(str(path))
    assert str(err.value) == f"{path}:2: request 1: origin equals destination"


def test_requests_round_trip(tmp_path, base_177):
    path = tmp_path / "req.csv"
    save_requests(list(base_177), str(path))
    back = load_requests(str(path))
    assert len(back) == len(base_177)
    for a, b in zip(back, base_177):
        assert (a.id, a.origin, a.destination) == (b.id, b.origin, b.destination)
        assert a.request_time == pytest.approx(b.request_time, abs=1e-3)


def test_supply_round_trip_and_errors(tmp_path):
    path = tmp_path / "sup.csv"
    path.write_text("hour,vehicles\n" +
                    "\n".join(f"{h},{2 if 7 <= h < 21 else 0}" for h in range(24)) + "\n")
    sched = load_supply(str(path))
    assert sched.hourly_counts[7] == 2 and sched.hourly_counts[3] == 0

    path.write_text("hour,vehicles\n7,2\n7,3\n")
    with pytest.raises(Exception) as err:
        load_supply(str(path))
    assert "duplicate" in str(err.value)
    path.write_text("hour,vehicles\n7,2\n25,1\n")
    with pytest.raises(CsvParseError) as err:
        load_supply(str(path))
    assert str(err.value) == f"{path}:3: hour: must be in 0..23, got 25"
    with pytest.raises(ValueError):
        SupplySchedule([1] * 23)


def test_supply_schedule_refuses_a_negative_count():
    with pytest.raises(ValueError, match="hourly vehicle counts cannot be negative"):
        SupplySchedule([1] * 23 + [-1])


@pytest.mark.parametrize("count, profile, problem", [
    (-1, [1.0] * 24, "request count cannot be negative"),
    (10, [1.0] * 23, "hourly profile needs exactly 24 weights"),
    (10, [0.0] * 24, "weights must be non-negative with a positive sum"),
    (10, [-1.0] + [1.0] * 23, "weights must be non-negative with a positive sum"),
], ids=["negative-count", "23-weights", "zero-sum", "negative-weight"])
def test_synthetic_demand_refuses_a_bad_count_or_profile(count, profile, problem):
    with pytest.raises(ValueError, match=problem):
        generate_synthetic_demand(generate_grid(3, 3, 500.0, 10.0), count, profile, seed=0)
