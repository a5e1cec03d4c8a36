"""Analytical prediction of ripple evolution during randomized peeling.

The analysis treats an instance as a random bipartite graph: every flow
independently picks a set of distinct channels whose size is drawn from
a path-length distribution, and a channel together with its two
directions counts as a single unit.  Under that model the probability that a flow is released
at a given level has a closed form, and chaining the expected additions
yields a deterministic ripple-size trajectory that can be compared
against Monte Carlo runs of the same random model.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

DISTRIBUTION_MASS_TOL = 1e-12


@dataclass(frozen=True)
class PathLengthDistribution:
    """Probabilities over flow path lengths, index 0 holding length 1."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        if not self.probabilities:
            raise ValueError("distribution needs at least one length")
        if not all(math.isfinite(p) for p in self.probabilities):
            raise ValueError("probability mass must be finite")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("negative probability mass")
        total = sum(self.probabilities)
        if abs(total - 1.0) > DISTRIBUTION_MASS_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def prob(self, length: int) -> float:
        if 1 <= length <= len(self.probabilities):
            return self.probabilities[length - 1]
        return 0.0

    @property
    def max_length(self) -> int:
        return len(self.probabilities)

    @cached_property
    def _cumulative(self) -> tuple[float, ...]:
        """Running sums of the probabilities, added left to right."""
        return tuple(accumulate(self.probabilities))

    def sample(self, rng: random.Random) -> int:
        """The first length whose running sum exceeds one `rng.random()`,
        the longest if rounding leaves the draw past the last sum."""
        return min(bisect_right(self._cumulative, rng.random()),
                   self.max_length - 1) + 1


def distribution_from_lengths(lengths) -> PathLengthDistribution:
    """Empirical path-length histogram, normalized."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("no lengths given")
    top = max(lengths)
    counts = [0] * top
    for length in lengths:
        if length < 1:
            raise ValueError(f"bad path length {length}")
        counts[length - 1] += 1
    total = len(lengths)
    return PathLengthDistribution(tuple(c / total for c in counts))


def release_prob(length: int, remaining: int, channel_count: int) -> float:
    """Chance a flow of the given length is released at this level.

    Equals the chance that the next-to-last of the flow's channels, in
    processing order over all channel slots, sits exactly at the slot
    where `remaining` channels are still unprocessed.  Length-1 flows
    release only at the very start.
    """
    if length == 1:
        return 1.0 if remaining == channel_count else 0.0
    if not (2 <= length <= channel_count
            and 1 <= remaining <= channel_count - length + 1):
        return 0.0
    lead = length * (length - 1) * remaining \
        / ((channel_count - length + 1) * (channel_count - length + 2))
    product = 1.0
    for j in range(length - 2):
        product *= (channel_count - (remaining + 1) - j) / (channel_count - j)
    return lead * product


def ripple_add_prob(length: int, remaining: int, ripple_size,
                    channel_count: int) -> float:
    """Chance a released flow covers a channel outside the ripple."""
    if length == 1:
        return 1.0 if (remaining == channel_count and ripple_size == 0) \
            else 0.0
    if not (2 <= length <= channel_count
            and 1 <= ripple_size <= remaining <= channel_count - length + 1):
        return 0.0
    return release_prob(length, remaining, channel_count) \
        * (remaining - ripple_size + 1) / remaining


def expected_added_naive(dist: PathLengthDistribution, flow_count: int,
                         remaining: int, ripple_size,
                         channel_count: int) -> float:
    """Expected ripple additions by direct summation, ignoring overlaps."""
    return sum(flow_count * dist.prob(length)
               * ripple_add_prob(length, remaining, ripple_size,
                                 channel_count)
               for length in range(1, dist.max_length + 1))


def expected_added_overlap(dist: PathLengthDistribution, flow_count: int,
                           remaining: int, ripple_size,
                           channel_count: int) -> float:
    """Expected newly covered channels, with collisions accounted for.

    Throwing the flows' release events over the live channels leaves
    each channel outside the ripple empty with probability
    (1 - rate / remaining) ** flow_count, where rate is the per-flow
    release chance at this level.
    """
    if remaining <= 0 or ripple_size >= remaining:
        return 0.0
    rate = sum(dist.prob(length)
               * release_prob(length, remaining, channel_count)
               for length in range(1, dist.max_length + 1))
    return (remaining - ripple_size) \
        * (1.0 - (1.0 - rate / remaining) ** flow_count)


@dataclass(frozen=True)
class RipplePrediction:
    """Deterministic ripple-size trajectory, one row per level from
    a full board down to one remaining channel."""

    channel_count: int
    flow_count: int
    trajectory: tuple[tuple[int, float], ...]

    def size_at(self, level: int) -> float:
        return self.trajectory[self.channel_count - level][1]

    def stall_level(self) -> int | None:
        """Highest level at which the predicted ripple ran dry, if any."""
        for level, size in self.trajectory:
            if size <= 0.0:
                return level
        return None


def _check_inputs(dist: PathLengthDistribution, flow_count: int,
                  channel_count: int) -> None:
    """Reject inputs no flow set can have: no channels, a negative flow
    count, or a path longer than the channel count."""
    if channel_count < 1:
        raise ValueError(f"need at least one channel, got {channel_count}")
    if flow_count < 0:
        raise ValueError(f"flow count must be >= 0, got {flow_count}")
    if dist.max_length > channel_count:
        raise ValueError("distribution support exceeds the channel count")


def predict_ripple(dist: PathLengthDistribution, flow_count: int,
                   channel_count: int) -> RipplePrediction:
    """Iterate the expected-additions recursion down from a full board.

    Each processing event charges one ripple member and credits the
    overlap-corrected expected additions, evaluated at the board size
    left after the event together with the ripple size before it.
    Evaluating at the pre-event board size instead would re-count the
    initial length-1 releases on the very first step, which already sit
    in the starting ripple.  A trajectory that hits zero stays there:
    peeling has stalled and nothing can be processed at lower levels.
    """
    _check_inputs(dist, flow_count, channel_count)
    size = min(flow_count * dist.prob(1), float(channel_count))
    rows = [(channel_count, size)]
    for level in range(channel_count - 1, 0, -1):
        if size <= 0.0:
            nxt = 0.0
        else:
            nxt = max(0.0, size - 1.0
                      + expected_added_overlap(dist, flow_count, level,
                                               size, channel_count))
        rows.append((level, nxt))
        size = nxt
    return RipplePrediction(channel_count=channel_count,
                            flow_count=flow_count,
                            trajectory=tuple(rows))


@dataclass(frozen=True)
class PeelingTrialStats:
    """Per-level ripple statistics across Monte Carlo peeling trials."""

    channel_count: int
    flow_count: int
    trials: int
    levels: tuple[int, ...]
    mean: tuple[float, ...]
    sd: tuple[float, ...]
    success_rate: float

    def mean_at(self, level: int) -> float:
        return self.mean[self.channel_count - level]

    def sd_at(self, level: int) -> float:
        return self.sd[self.channel_count - level]


def simulate_iid_peeling(dist: PathLengthDistribution, flow_count: int,
                         channel_count: int, seed: int,
                         trials: int) -> PeelingTrialStats:
    """Peel freshly drawn random bipartite instances and average traces.

    Each trial draws flows whose lengths follow the distribution and
    whose channels are distinct uniform picks, then peels with channels
    as single units.  A stalled trial contributes zeros below its stall
    level, mirroring how the analytical trajectory flat-lines.
    """
    _check_inputs(dist, flow_count, channel_count)
    if trials < 0:
        raise ValueError(f"trial count must be >= 0, got {trials}")
    sums = [0.0] * channel_count
    squares = [0.0] * channel_count
    successes = 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        trace, succeeded = _peel_one(dist, flow_count, channel_count, rng)
        successes += succeeded
        for i, size in enumerate(trace):
            sums[i] += size
            squares[i] += size * size
    return _finish_stats(channel_count, flow_count, trials, sums, squares,
                         successes)


def _sample_set_size(length: int) -> int:
    """`random.sample`'s rule: it shuffles a pool list when the population
    has at most this many members, and keeps a set of picks above it."""
    size = 21
    if length > 5:
        size += 4 ** math.ceil(math.log(length * 3, 4))
    return size


def _peel_one(dist, flow_count, channel_count, rng):
    """One trial: each flow's length from `dist.sample(rng)` and its
    channels as `rng.sample(range(channel_count), length)` picks them,
    then a peel that processes a uniformly drawn ripple member per level.

    Above `random.sample`'s set-size rule its set loop is written out, as
    is the per-level `rng.randrange(len(ripple))`: each draw is
    `getrandbits(m.bit_length())`, retried while the value is m or more,
    which is how CPython builds `randrange(m)` (see `demand`'s module
    note), so the same words give the same picks without the call
    overhead.
    """
    getrandbits = rng.getrandbits
    channel_bits = channel_count.bit_length()
    pooled = [channel_count <= _sample_set_size(length)
              for length in range(1, dist.max_length + 1)]
    flow_sets = []
    for _ in range(flow_count):
        length = dist.sample(rng)
        if pooled[length - 1]:
            flow_sets.append(set(rng.sample(range(channel_count), length)))
            continue
        picks = set()
        while len(picks) < length:
            c = getrandbits(channel_bits)
            if c < channel_count:
                picks.add(c)
        flow_sets.append(picks)
    members = [[] for _ in range(channel_count)]
    for f, picks in enumerate(flow_sets):
        for c in picks:
            members[c].append(f)

    in_ripple = [False] * channel_count
    ripple = []
    for f, picks in enumerate(flow_sets):
        if len(picks) == 1:
            c = next(iter(picks))
            if not in_ripple[c]:
                in_ripple[c] = True
                ripple.append(c)

    processed = [False] * channel_count
    trace = []
    level = channel_count
    while level > 0:
        trace.append(float(len(ripple)))
        if not ripple:
            break
        size = len(ripple)
        bits = size.bit_length()
        pick = getrandbits(bits)
        while pick >= size:
            pick = getrandbits(bits)
        ripple[pick], ripple[-1] = ripple[-1], ripple[pick]
        c = ripple.pop()
        processed[c] = True
        level -= 1
        for f in members[c]:
            picks = flow_sets[f]
            picks.discard(c)
            if len(picks) == 1:
                rest = next(iter(picks))
                if not processed[rest] and not in_ripple[rest]:
                    in_ripple[rest] = True
                    ripple.append(rest)
    while len(trace) < channel_count:
        trace.append(0.0)
    return trace, level == 0


def _finish_stats(channel_count, flow_count, trials, sums, squares,
                  successes):
    n = max(trials, 1)
    mean = [s / n for s in sums]
    sd = []
    for s, sq in zip(sums, squares):
        var = sq / n - (s / n) ** 2
        sd.append(math.sqrt(max(var, 0.0)))
    return PeelingTrialStats(
        channel_count=channel_count,
        flow_count=flow_count,
        trials=trials,
        levels=tuple(range(channel_count, 0, -1)),
        mean=tuple(mean),
        sd=tuple(sd),
        success_rate=successes / n if trials else 0.0,
    )


def trajectory_csv(prediction: RipplePrediction,
                   stats: PeelingTrialStats | None = None) -> str:
    """Levels descending; empirical columns blank without simulation."""
    lines = ["L,predicted,empirical_mean,empirical_sd"]
    for level, size in prediction.trajectory:
        if stats is None:
            lines.append(f"{level},{size:.6f},,")
        else:
            if stats.channel_count != prediction.channel_count:
                raise ValueError("trajectories cover different channel counts")
            lines.append(f"{level},{size:.6f},{stats.mean_at(level):.6f},"
                         f"{stats.sd_at(level):.6f}")
    return "\n".join(lines) + "\n"
