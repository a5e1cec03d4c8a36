import itertools
import math
import random
import warnings

import numpy as np
import pytest

from creditnet import ripple
from creditnet.ripple import (
    PathLengthDistribution,
    distribution_from_lengths,
    expected_added_naive,
    expected_added_overlap,
    predict_ripple,
    release_prob,
    ripple_add_prob,
    simulate_iid_peeling,
    trajectory_csv,
)


def _soliton_like(k, dmax=10, boost=0.10):
    w = [boost + 1.0 / k] + [1.0 / (d * (d - 1)) for d in range(2, dmax + 1)]
    total = sum(w)
    return PathLengthDistribution(tuple(x / total for x in w))


def test_release_frozen_values():
    assert release_prob(3, 25, 50) == pytest.approx(3 / 98, abs=1e-15)
    assert release_prob(2, 30, 50) == pytest.approx(6 / 245, abs=1e-15)
    assert release_prob(1, 50, 50) == 1.0
    assert release_prob(1, 49, 50) == 0.0
    assert release_prob(2, 50, 50) == 0.0
    assert release_prob(4, 0, 50) == 0.0
    assert release_prob(51, 10, 50) == 0.0


def test_release_matches_order_statistics_exactly():
    # The closed form equals P(the (d-1)-th smallest of a uniform random
    # d-subset of positions 1..k sits at position k-L).  Lengths up to 40
    # run the product down to values near 1e-40.
    cases = [(k, d) for k in (20, 50) for d in range(2, 9)] \
        + [(k, d) for k in (50, 200) for d in range(9, 41)]
    for k, d in cases:
        for L in range(1, k - d + 2):
            p = k - L
            exact = math.comb(p - 1, d - 2) * (k - p) / math.comb(k, d)
            assert release_prob(d, L, k) == pytest.approx(exact, rel=1e-12, abs=0)


def test_release_million_trial_monte_carlo():
    rng = np.random.default_rng(717)
    need = 10**6
    draws = rng.integers(1, 51, size=(1_200_000, 3))
    distinct = ((draws[:, 0] != draws[:, 1])
                & (draws[:, 0] != draws[:, 2])
                & (draws[:, 1] != draws[:, 2]))
    kept = np.sort(draws[distinct][:need], axis=1)
    assert kept.shape[0] == need
    hit = float(np.mean(kept[:, 1] == 25))
    p = release_prob(3, 25, 50)
    sigma = math.sqrt(p * (1 - p) / need)
    assert abs(hit - p) < 3 * sigma


def test_release_mass_sums_to_one():
    for k in (20, 50, 100):
        for d in (2, 3, 5, 8, 12):
            total = sum(release_prob(d, L, k) for L in range(1, k - d + 2))
            assert abs(total - 1.0) <= 1e-6, (d, k)
    loose = sum(release_prob(6, L, 2000) for L in range(1, 2000 - 6 + 2))
    if abs(loose - 1.0) > 1e-6:
        warnings.warn(f"release mass at k=2000 off by {loose - 1.0:.2e}")


def test_probabilities_stay_in_unit_interval():
    for k in (5, 13, 50, 200):
        for d in range(1, 13):
            for L in range(0, k + 2):
                r = release_prob(d, L, k)
                assert 0.0 <= r <= 1.0
                for R in (0, 1, L // 2, L, L + 1):
                    a = ripple_add_prob(d, L, R, k)
                    assert 0.0 <= a <= 1.0
                    if R >= 1:
                        assert a <= r + 1e-15


def test_ripple_add_ratio_and_edges():
    assert ripple_add_prob(2, 30, 1, 50) == pytest.approx(
        release_prob(2, 30, 50) * 30 / 30, abs=1e-15)
    assert ripple_add_prob(3, 20, 5, 50) == pytest.approx(
        release_prob(3, 20, 50) * 16 / 20, abs=1e-15)
    assert ripple_add_prob(4, 10, 11, 50) == 0.0
    assert ripple_add_prob(1, 50, 0, 50) == 1.0
    assert ripple_add_prob(1, 50, 1, 50) == 0.0


def test_expected_added_naive_edges():
    one = PathLengthDistribution((1.0,))
    assert expected_added_naive(one, 40, 30, 3, 50) == 0.0
    mix = _soliton_like(50)
    assert expected_added_naive(mix, 0, 30, 3, 50) == 0.0
    assert expected_added_naive(mix, 1, 30, 3, 50) == pytest.approx(
        sum(mix.prob(d) * ripple_add_prob(d, 30, 3, 50)
            for d in range(1, 11)))


def test_expected_added_overlap_limits():
    mix = _soliton_like(50)
    assert expected_added_overlap(mix, 40, 30, 30, 50) == 0.0
    r = sum(mix.prob(d) * release_prob(d, 30, 50) for d in range(1, 11))
    assert expected_added_overlap(mix, 1, 30, 5, 50) == pytest.approx(
        25 * r / 30, rel=1e-12)
    assert expected_added_overlap(mix, 10**9, 30, 5, 50) == pytest.approx(
        25.0, rel=1e-9)


def test_expected_added_tracks_simulation():
    dist = _soliton_like(100)
    pred = predict_ripple(dist, 120, 100)
    probe = 90
    before = pred.size_at(probe + 1)
    gains = []
    for t in range(1500):
        rng = random.Random(f"probe:{t}")
        trace, _ = ripple._peel_one(dist, 120, 100, rng)
        if trace[100 - (probe + 1)] > 0:
            gains.append(trace[100 - probe] - trace[100 - (probe + 1)] + 1)
    mean = sum(gains) / len(gains)
    sem = (sum((g - mean) ** 2 for g in gains) / len(gains)) ** 0.5 \
        / len(gains) ** 0.5
    assert abs(expected_added_naive(dist, 120, probe, before, 100)
               - mean) < 3 * sem + 1e-3
    assert abs(expected_added_overlap(dist, 120, probe, before, 100)
               - mean) < 3 * sem + 1e-3


def test_pure_singles_decay_by_one():
    one = PathLengthDistribution((1.0,))
    pred = predict_ripple(one, 7, 10)
    assert pred.trajectory[0] == (10, 7.0)
    sizes = [s for _, s in pred.trajectory]
    assert sizes == [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0]
    assert predict_ripple(one, 15, 10).size_at(10) == 10.0
    assert pred.stall_level() == 3


def test_prediction_respects_the_vacancy_cap():
    dist = _soliton_like(80)
    for m in (60, 100, 160):
        pred = predict_ripple(dist, m, 80)
        for L in range(79, 0, -1):
            before = pred.size_at(L + 1)
            if before > 0:
                q = expected_added_overlap(dist, m, L, before, 80)
                assert q <= max(L - before, 0.0) + 1e-12
            assert pred.size_at(L) >= 0.0


def test_trajectory_matches_monte_carlo():
    dist = _soliton_like(100)
    pred = predict_ripple(dist, 120, 100)
    stats = simulate_iid_peeling(dist, 120, 100, seed=5, trials=200)
    inside = 0
    for L in range(100, 0, -1):
        gap = abs(pred.size_at(L) - stats.mean_at(L))
        if gap <= 3 * stats.sd_at(L) + 1e-9:
            inside += 1
    assert inside >= 90
    assert all(pred.size_at(L) >= 1.0 for L in range(10, 101))


def test_heavy_pair_mass_grows_earlier():
    flat = PathLengthDistribution((0.05,) + (0.95 / 7,) * 7)
    heavy = PathLengthDistribution((0.05, 0.30) + (0.65 / 6,) * 6)
    ph = predict_ripple(heavy, 150, 100)
    pf = predict_ripple(flat, 150, 100)
    assert ph.size_at(95) > pf.size_at(95)
    assert ph.size_at(85) > pf.size_at(85)


def test_simulation_edge_cases():
    dist = PathLengthDistribution((1.0,))
    empty = simulate_iid_peeling(dist, 0, 12, seed=1, trials=50)
    assert empty.success_rate == 0.0
    assert set(empty.mean) == {0.0}
    assert empty.levels == tuple(range(12, 0, -1))

    # coupon collector: plenty of singles covers every channel
    rich = simulate_iid_peeling(dist, 200, 20, seed=2, trials=100)
    assert rich.success_rate > 0.95
    sparse = simulate_iid_peeling(dist, 20, 20, seed=2, trials=100)
    assert sparse.success_rate < 0.5

    # a path longer than the channel count fits neither call
    for call in (lambda d: simulate_iid_peeling(d, 10, 5, seed=0, trials=5),
                 lambda d: predict_ripple(d, 10, 5)):
        with pytest.raises(ValueError, match="support exceeds"):
            call(_soliton_like(50))
    with pytest.raises(ValueError, match="flow count"):
        predict_ripple(dist, -5, 12)
    with pytest.raises(ValueError, match="flow count"):
        simulate_iid_peeling(dist, -5, 12, seed=1, trials=5)
    with pytest.raises(ValueError, match="trial count"):
        simulate_iid_peeling(dist, 5, 12, seed=1, trials=-3)


def test_simulation_seeds_agree_in_distribution():
    dist = _soliton_like(40)
    a = simulate_iid_peeling(dist, 50, 40, seed=11, trials=300)
    b = simulate_iid_peeling(dist, 50, 40, seed=12, trials=300)
    assert a.mean != b.mean
    for L in (40, 30, 20, 10):
        spread = 3 * (a.sd_at(L) + b.sd_at(L)) / math.sqrt(300) + 1e-6
        assert abs(a.mean_at(L) - b.mean_at(L)) <= spread
    again = simulate_iid_peeling(dist, 50, 40, seed=11, trials=300)
    assert again.mean == a.mean


def test_distribution_helpers_and_validation():
    dist = distribution_from_lengths([1, 2, 2, 3, 2, 1])
    assert dist.probabilities == (2 / 6, 3 / 6, 1 / 6)
    assert dist.prob(2) == 0.5
    assert dist.prob(9) == 0.0
    rng = random.Random(4)
    draws = [dist.sample(rng) for _ in range(2000)]
    assert abs(draws.count(2) / 2000 - 0.5) < 0.05
    with pytest.raises(ValueError):
        PathLengthDistribution((0.5, 0.4))
    with pytest.raises(ValueError):
        PathLengthDistribution((1.5, -0.5))
    for bad in ((1.0, math.nan), (math.nan,), (math.inf, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PathLengthDistribution(bad)
    with pytest.raises(ValueError):
        distribution_from_lengths([])


def test_trajectory_csv_layout():
    dist = PathLengthDistribution((1.0,))
    pred = predict_ripple(dist, 3, 5)
    bare = trajectory_csv(pred)
    lines = bare.strip().splitlines()
    assert lines[0] == "L,predicted,empirical_mean,empirical_sd"
    assert lines[1] == "5,3.000000,,"
    assert len(lines) == 6
    stats = simulate_iid_peeling(dist, 3, 5, seed=0, trials=20)
    full = trajectory_csv(pred, stats)
    assert full.count(",") == 3 * 6
    other = simulate_iid_peeling(dist, 3, 6, seed=0, trials=20)
    with pytest.raises(ValueError):
        trajectory_csv(pred, other)


def _sample_by_loop(dist, u):
    """A length for the draw u by a running sum, added left to right."""
    acc = 0.0
    for i, p in enumerate(dist.probabilities):
        acc += p
        if u < acc:
            return i + 1
    return dist.max_length


def _peel_one_by_library_calls(dist, flow_count, channel_count, rng):
    """`ripple._peel_one` written with `random.sample`, `randrange` and
    the running-sum length draw."""
    channels = list(range(channel_count))
    flow_sets = []
    for _ in range(flow_count):
        length = _sample_by_loop(dist, rng.random())
        flow_sets.append(set(rng.sample(channels, length)))
    members = [[] for _ in range(channel_count)]
    for f, picks in enumerate(flow_sets):
        for c in picks:
            members[c].append(f)
    in_ripple = [False] * channel_count
    ripple_ = []
    for picks in flow_sets:
        if len(picks) == 1:
            c = next(iter(picks))
            if not in_ripple[c]:
                in_ripple[c] = True
                ripple_.append(c)
    processed = [False] * channel_count
    trace = []
    level = channel_count
    while level > 0:
        trace.append(float(len(ripple_)))
        if not ripple_:
            break
        pick = rng.randrange(len(ripple_))
        ripple_[pick], ripple_[-1] = ripple_[-1], ripple_[pick]
        c = ripple_.pop()
        processed[c] = True
        level -= 1
        for f in members[c]:
            picks = flow_sets[f]
            picks.discard(c)
            if len(picks) == 1:
                rest = next(iter(picks))
                if not processed[rest] and not in_ripple[rest]:
                    in_ripple[rest] = True
                    ripple_.append(rest)
    while len(trace) < channel_count:
        trace.append(0.0)
    return trace, level == 0


# `random.sample` keeps a pool list up to 21 members for at most 5 picks
# and up to 85 for 6-21 picks, and a set of picks above that
@pytest.mark.parametrize("channels", [20, 21, 22, 84, 85, 86, 400])
def test_peel_one_reads_the_words_the_library_calls_read(channels):
    assert [ripple._sample_set_size(length) for length in (1, 5, 6, 21)] \
        == [21, 21, 85, 85]
    # lengths 1-8, so both set-size rules are met
    dist = PathLengthDistribution((0.25, 0.3, 0.15, 0.1, 0.05, 0.05, 0.05,
                                   0.05))
    flows = channels + channels // 4
    for trial in range(12):
        fast, slow = (random.Random(f"{channels}:{trial}") for _ in range(2))
        assert ripple._peel_one(dist, flows, channels, fast) \
            == _peel_one_by_library_calls(dist, flows, channels, slow)
        assert fast.getstate() == slow.getstate()


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_length_draw_matches_the_running_sum_at_every_edge():
    # the sums of ten 0.1s fall short of 1 and are not multiples of 0.1
    tenths = PathLengthDistribution((0.1,) * 10)
    lumpy = PathLengthDistribution((0.0, 0.3, 0.0, 0.2, 0.5))
    for dist in (tenths, lumpy, _soliton_like(60)):
        sums = list(itertools.accumulate(dist.probabilities))
        draws = [0.0, 0.1, 0.3, 0.5, 0.7, math.nextafter(1.0, 0.0)]
        draws += sums + [math.nextafter(s, 0.0) for s in sums] \
            + [math.nextafter(s, 1.0) for s in sums]
        for u in draws:
            assert dist.sample(_FixedDraw(u)) == _sample_by_loop(dist, u), u
    # draws exactly on a running sum fall to the next length
    assert lumpy.sample(_FixedDraw(0.3)) == 4
    assert tenths.sample(_FixedDraw(math.nextafter(1.0, 0.0))) == 10


def test_randrange_is_getrandbits_rejection():
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits, (
        "random.Random._randbelow is no longer _randbelow_with_getrandbits: "
        "ripple._peel_one, synthesis._wire_joint_degrees and "
        "demand.sample_demand rely on randrange(m) being getrandbits("
        "m.bit_length()) retried while the value is m or more")
