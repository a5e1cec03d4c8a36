"""Digests of the synthesis chain's seeded outputs.

The iid peel simulation, the degree-mix search and restart selection draw
from `random.Random` streams; these digests hold each stream's use fixed,
so a faster draw that reads the words differently fails here.
"""
import hashlib

from creditnet import synthesis
from creditnet.ripple import PathLengthDistribution, simulate_iid_peeling
from creditnet.synthesis import (
    SynthesisTarget,
    optimize_jdd,
    synthesize_matched,
)


def _mix(counts):
    total = sum(counts)
    return PathLengthDistribution(tuple(c / total for c in counts))


# close to the stage-one fits at 1500/300/900 and 200/80/250, written
# out so that the pins do not ride on the fit's solver
WORKLOAD_MIX = _mix((30, 300, 300, 55, 36, 36, 36, 36, 36, 35))
SMALL_MIX = _mix((14, 122, 34, 12, 12, 11, 11, 11, 11, 12))
# 20 channels: at most 21 (lengths <= 5) or 85 (lengths 6-21), so every
# flow's channels come from `random.sample`'s pool branch
POOL_MIX = _mix((2, 6, 5, 3, 2, 1, 1, 1))

SMALL_TARGET = SynthesisTarget(channel_budget=200, node_budget=80,
                               flow_budget=250)

PINS = {
    "peel 900/1500":
        "33caeb72dd2a679bff790d48f963f437864b8489beaae7ff2ad7ee2e8385c2a9",
    "peel 20 channels":
        "e704d7be896edae33911844f1f49e1497d839d61ca09a510e780f7975bc78ec7",
    "search 200/80/250":
        "5b95803062d262d5157f265a870733092d6e65101794669ab3ad4400c7c767c7",
    "matched 200/80/250":
        "b800425b4a185943ea0d98f155d70cdb03699b6c68de9cf0d2c12eb5db8fefbd",
    "matched 1500/300/900":
        "16ece189005805810a33c296de33a500267bd6a86b5cef6fd2ce4ae1bc65182a",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _peel_digest(dist, flows, channels):
    stats = simulate_iid_peeling(dist, flows, channels, seed=11, trials=20)
    return _digest((stats.mean, stats.sd, stats.success_rate))


def test_iid_peeling_is_pinned():
    assert _peel_digest(WORKLOAD_MIX, 900, 1500) == PINS["peel 900/1500"]
    assert _peel_digest(POOL_MIX, 30, 20) == PINS["peel 20 channels"]


def test_search_and_restart_selection_are_pinned():
    search = optimize_jdd(SMALL_MIX, SMALL_TARGET, seed=3, budget=20)
    assert _digest((search.jdd.entries.tobytes(), search.distance,
                    search.evaluations)) == PINS["search 200/80/250"]
    small = synthesize_matched(search.jdd, SMALL_MIX, SMALL_TARGET, seed=3)
    assert _digest(small.edges) == PINS["matched 200/80/250"]
    target = SynthesisTarget(channel_budget=1500, node_budget=300,
                             flow_budget=900)
    warm = synthesis._initial_guess(WORKLOAD_MIX, target)
    large = synthesize_matched(warm, WORKLOAD_MIX, target, seed=11)
    assert _digest(large.edges) == PINS["matched 1500/300/900"]
