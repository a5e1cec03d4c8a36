"""Sender/receiver pair sampling and shortest-path route construction.

Demand is binary: a pair either wants to transact or it does not, and
each chosen pair rides exactly one shortest route.  The skewed sampling
mode concentrates traffic on a small set of hub nodes to mimic the
uneven activity seen in deployed payment networks.

A demand draw is defined by a per-draw loop over `random.Random(seed)`:
two node draws per pair, self-pairs and repeats skipped.  A node draw is
`randrange(n)`; in Skewed mode it is a `random()` that picks the heavy
or the light pool (only when light nodes exist), then `randrange` over
that pool.  `sample_demand` gives that loop's pairs bit for bit without
running it, because CPython builds both calls from the Mersenne Twister's
32-bit words (Matsumoto & Nishimura, ACM TOMACS 8(1), 1998) in a fixed
way:

* `randbytes(4 * c)` is `getrandbits(32 * c)` written little-endian, and
  `getrandbits` fills its result from the low end one word at a time, so
  `np.frombuffer(rng.randbytes(4 * c), "<u4")` is the next c words in
  stream order;
* `randrange(m)` with k = m.bit_length() <= 32 is `getrandbits(k)`, the
  top k bits of one word (`word >> (32 - k)`), retried on the next word
  while the value is m or more;
* `random()` is ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 from two words.

So the words can be read in bulk and parsed with numpy.  With one pool a
draw is an accepted word.  With two, where a draw ends depends on its own
words, so a table holds the end of the draw that would start at every
word and one walk from word 0 follows it.  Node ids stay below 2**31, so
a pair's key s * n + r fits int64.

Routes come off one all-sources run of the package's hop-distance
kernel, `model.hop_levels` (the multi-source BFS of Then et al., PVLDB
8(4), 2014): each walk step is the lowest set bit of the closed
neighbourhood AND the root's level row one hop nearer, which gives the
lexicographically smallest shortest route read from the lower-numbered
endpoint, written straight into a `model.PathSet`'s arrays.  The run
costs O(levels * arcs * n / 64) whatever the pair count (`build_paths`).
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .model import CreditNetwork, PathSet, closed_arcs, hop_levels

UNIFORM = "Uniform"
SKEWED = "Skewed"

MODES = (UNIFORM, SKEWED)

DEFAULT_HEAVY_FRACTION = 0.10
DEFAULT_HEAVY_PROBABILITY = 0.70

# Most stream words read at once (1 MiB), whatever the demand's size.
_MAX_CHUNK_WORDS = 1 << 18


@dataclass(frozen=True)
class DemandSpec:
    pair_count: int
    mode: str = UNIFORM
    heavy_fraction: float = DEFAULT_HEAVY_FRACTION
    heavy_probability: float = DEFAULT_HEAVY_PROBABILITY
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown demand mode {self.mode!r}")
        if not isinstance(self.pair_count, numbers.Integral):
            raise ValueError(f"pair_count must be an integer, got {self.pair_count!r}")
        if self.pair_count < 0:
            raise ValueError("pair_count must be non-negative")
        if not 0.0 < self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must lie in (0, 1]")
        if not 0.0 <= self.heavy_probability <= 1.0:
            raise ValueError("heavy_probability must lie in [0, 1]")


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """The index of every distinct key's first occurrence, ascending."""
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(head))
                   if len(keys) else order)


@dataclass(frozen=True, eq=False, init=False)
class DemandMatrix:
    """Distinct ordered (sender, receiver) pairs in draw order, held as
    read-only int64 `source` and `destination` arrays, named as in
    `model.PathSet`.  Built from (s, r) pairs or an (m, 2) array; iterates
    as (s, r) tuples of ints.  Refuses the first pair that names a node id
    not equal to an integer (1.5, "3") rather than truncating it; then one
    vectorized check refuses the first pair, in order, that pays itself or
    repeats an earlier one."""

    source: np.ndarray
    destination: np.ndarray

    def __init__(self, pairs=()):
        try:
            ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            bad = next(p for p in pairs if not all(-2 ** 63 <= v < 2 ** 63 for v in p))
            raise ValueError(f"pair {tuple(bad)} names a node outside the "
                             "int64 range") from None
        if np.asarray(pairs).dtype.kind not in "iub":
            given = np.array(pairs, dtype=object).reshape(-1, 2)
            truncated = ~(given == ends).all(axis=1)
            if truncated.any():
                bad = tuple(given[np.argmax(truncated)].tolist())
                raise ValueError(f"pair {bad} names a node id that is not "
                                 "an integer")
        source, destination = ends.T
        low, high = int(ends.min(initial=0)), int(ends.max(initial=0))
        span = high - low + 1
        if span <= 2 ** 31:
            codes = ends - low
        else:  # ids too far apart for an int64 key: number those named
            ids, codes = np.unique(ends, return_inverse=True)
            codes, span = codes.reshape(-1, 2), len(ids)
        key = codes @ [span, 1]
        bad = source == destination
        ordered = np.sort(key)
        if (ordered[1:] == ordered[:-1]).any():  # only then find the first repeat
            repeat = np.ones(len(key), dtype=bool)
            repeat[_first_occurrences(key)] = False
            bad |= repeat
        if bad.any():
            i = int(np.argmax(bad))
            s, r = int(source[i]), int(destination[i])
            raise ValueError(f"node {s} cannot pay itself" if s == r
                             else f"duplicate pair {(s, r)}")
        for name, array in (("source", source), ("destination", destination)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self):
        return zip(self.source.tolist(), self.destination.tolist())

    def __eq__(self, other):
        return (isinstance(other, DemandMatrix)
                and np.array_equal(self.source, other.source)
                and np.array_equal(self.destination, other.destination))


def _walk(table: np.ndarray) -> np.ndarray:
    """The chain table[0], table[table[0]], ... up to the absorbing last
    index: one Python step per eight links, over the table composed with
    itself three times, and the links in between gathered with numpy."""
    stop = len(table) - 1
    leap = table
    for _ in range(3):
        leap = leap[leap]
    view = memoryview(leap)
    starts = [0]
    j = view[0]
    while j < stop:
        starts.append(j)
        j = view[j]
    links = [np.array(starts)]
    for _ in range(8):
        links.append(table[links[-1]])
    ends = np.stack(links[1:], axis=1).ravel()
    return ends[ends < stop]


def _draws(words: np.ndarray, pools, heavy_probability: float):
    """The node draws that lie whole in `words`, in draw order, and the
    index of the word after each.

    A draw is `randrange(len(pool))`: the pool's bit length off the top of
    a word, and the next word while that is past the pool.  With two
    pools, heavy then light, a `random()` off two words comes first and
    picks light when it is at least heavy_probability.  Where such a draw
    ends then depends on its own words: a table gives the end of the draw
    that would start at each word, and one walk from word 0 follows it.
    """
    m = len(words)
    shifts = [32 - len(pool).bit_length() for pool in pools]
    accepted = [(words >> shift) < len(pool) for shift, pool in zip(shifts, pools)]
    if len(pools) == 1:
        ends = np.flatnonzero(accepted[0]) + 1
        return pools[0][words[ends - 1] >> shifts[0]], ends
    index = np.arange(m + 1)
    # the word after the first accepted word at or after each index, m + 1
    # where there is none
    after = [np.minimum.accumulate(
        np.maximum(index, m * ~np.append(ok, True))[::-1])[::-1] + 1 for ok in accepted]
    coin = ((words[:-1] >> 5).astype(np.float64) * 67108864.0
            + (words[1:] >> 6)) * (1.0 / 9007199254740992.0)
    pick = coin >= heavy_probability
    # the randrange of a draw starting at word j begins at word j + 2; the
    # last two words start no whole draw, and m + 1 absorbs
    table = np.full(m + 2, m + 1)
    table[:len(pick)] = np.where(pick, after[1][2:], after[0][2:])
    ends = _walk(table)
    light = pick[np.append(0, ends)[:-1]]  # each draw's start
    last = words[ends - 1]
    # read every draw as heavy, then the light ones as light
    nodes = pools[0][np.minimum(last >> shifts[0], len(pools[0]) - 1)]
    nodes[light] = pools[1][last[light] >> shifts[1]]
    return nodes, ends


def sample_demand(network: CreditNetwork, spec: DemandSpec) -> DemandMatrix:
    """Draw pair_count distinct ordered pairs, rejecting repeats.

    The draws are those of a loop that takes two node draws per pair and
    skips self-pairs and repeats, read off the rng's words in bulk: each
    read parses its words at once, keeps every pair's first occurrence in
    draw order, and sizes the next read by the words per new pair that
    this one took, at most _MAX_CHUNK_WORDS at a time.
    """
    n = network.node_count
    if spec.pair_count > n * (n - 1):
        raise ValueError(
            f"cannot place {spec.pair_count} distinct pairs among "
            f"{n * (n - 1)} possible ones")
    if n >= 2 ** 31:
        raise ValueError("demand sampling needs fewer than 2**31 nodes")
    rng = random.Random(spec.seed)
    pools = [np.arange(n)]
    shares = [1.0]
    if spec.mode == SKEWED:
        heavy_count = max(1, round(spec.heavy_fraction * n))
        # A pool picked with certainty holds every draw; with no light
        # nodes the heavy pool is all n nodes, checked above.
        for certain, kind, size in ((1.0, "heavy", heavy_count),
                                    (0.0, "light", n - heavy_count)):
            pairs = size * (size - 1)
            if (spec.heavy_probability == certain and size
                    and spec.pair_count > pairs):
                raise ValueError(f"cannot place {spec.pair_count} distinct pairs "
                                 f"among the {pairs} between {size} {kind} nodes")
        heavy = rng.sample(range(n), heavy_count)
        light = np.ones(n, dtype=bool)
        light[heavy] = False
        pools = [np.array(heavy, dtype=np.int64), np.flatnonzero(light)]
        shares = [spec.heavy_probability, 1.0 - spec.heavy_probability]
        if not len(pools[1]):
            pools, shares = pools[:1], [1.0]

    want = spec.pair_count
    # words per drawn pair, and the pair draws that would give `want`
    # distinct pairs if all n * n were equally likely
    per_pair = 2 * (2 * (len(pools) - 1) + sum(
        share * 2 ** len(pool).bit_length() / len(pool)
        for share, pool in zip(shares, pools)))
    possible = n * (n - 1)
    draws = n * n * math.log((possible + 0.5) / (possible - want + 0.5))
    chunk = per_pair * draws
    keys = np.empty(0, dtype=np.int64)
    words = np.empty(0, dtype=np.uint32)
    while len(keys) < want:
        chunk = min(_MAX_CHUNK_WORDS, math.ceil(1.25 * chunk) + 64)
        words = np.concatenate((words, np.frombuffer(rng.randbytes(4 * chunk), "<u4")))
        nodes, ends = _draws(words, pools, spec.heavy_probability)
        count = len(nodes) // 2
        s, r = nodes[:2 * count:2], nodes[1:2 * count:2]
        drawn = np.concatenate((keys, (s * n + r)[s != r]))
        first = _first_occurrences(drawn)
        used = int(ends[2 * count - 1]) if count else 0
        # words per new pair in this read, times the pairs still missing
        chunk = (want - len(first)) * used / max(1, len(first) - len(keys))
        keys = drawn[first[:want]]
        words = words[used:]
    return DemandMatrix(np.stack(np.divmod(keys, n), axis=1))


# The bit arithmetic's scalars as np.uint64: under numpy 1.x's value-based
# casting a Python int there can turn a uint64 result float64
_M1, _M2, _M4, _H01 = (np.uint64(0x0101010101010101 * k) for k in (0x55, 0x33, 0x0F, 1))
_U1, _U2, _U4, _U56 = map(np.uint64, (1, 2, 4, 56))


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits per uint64 word, by SWAR (numpy 1.24 has no np.bitwise_count)."""
    x = x - ((x >> _U1) & _M1)
    x = (x & _M2) + ((x >> _U2) & _M2)
    return (((x + (x >> _U4)) & _M4) * _H01 >> _U56).astype(np.int64)


def build_paths(network: CreditNetwork, demand: DemandMatrix,
                seed: int = 0) -> PathSet:
    """One shortest route per pair, with a direction-blind tie-break.

    Among equally short routes the one whose node sequence is
    lexicographically smallest read from the lower-numbered endpoint
    wins.  Tie-breaking from a fixed end (rather than from whichever
    node happens to send) makes a pair and its reverse use the same
    channels, which keeps round-trip experiments symmetric.  The seed
    parameter is accepted for interface stability but unused.

    One `model.hop_levels` run with every node as a source gives the
    levels: bit u of row v at level d says u lies d hops from v, level 0
    being the identity.  A pair's length is the level whose row at the
    higher endpoint, the root, holds the lower endpoint's bit.  The
    pairs walk from the lower endpoint together, longest first so that
    those still walking are a prefix; each step takes the smallest-id
    closer neighbour, the lowest bit of the closed neighbourhood (levels
    0 and 1) AND the root's row one level nearer.  A hop's arc is the
    tail's first arc in the head's word plus the popcount of the
    neighbourhood bits below the head; the walks are scattered into the
    path set's arrays, reversed where the root sends.  The levels cost
    O(levels * arcs * n / 64) whatever the pair count, so a few pairs on
    a graph far past 1,000 nodes pay for rows they never walk.  Raises
    ValueError for the first pair, in demand order, that names a node
    outside the graph, else for the first that has no route.
    """
    del seed
    n = network.node_count
    source, destination = demand.source, demand.destination
    lows, highs = np.minimum(source, destination), np.maximum(source, destination)
    outside = (lows < 0) | (highs >= n)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"pair ({source[i]}, {destination[i]}) names a node "
                         f"outside 0..{n - 1}")
    arcs = closed_arcs(n, network.edge_array)
    width = -(-n // 64)
    nodes = np.arange(n)
    bit = np.left_shift(_U1, (nodes & 63).astype(np.uint64))
    identity = np.zeros((n, width), dtype=np.uint64)
    identity[nodes, nodes >> 6] = bit
    level = np.stack([identity, *hop_levels(arcs, nodes)])
    near = np.bitwise_or.reduce(level[:2])
    length = ((level[:, highs, lows >> 6] & bit[lows]) != 0).argmax(axis=0)
    if not length.all():
        i = int(np.argmin(length))
        raise ValueError(f"no route between {source[i]} and {destination[i]}")

    order = np.argsort(-length)
    hops = length[order]
    span = length.max(initial=0)
    walking = len(hops) - np.bincount(hops, minlength=span).cumsum()
    # the row, among all levels' rows, of each walker's root one level
    # nearer than its lower endpoint; one level nearer per hop after that
    row = (hops - 1) * n + highs[order]
    rows = level.reshape(-1, width)
    walk = np.empty((span + 1, len(hops)), dtype=np.int64)
    walk[0] = lows[order]
    index = np.arange(len(hops))
    # a block of walkers at a time, so that the rows gathered for one
    # step stay near 1 MiB whatever the pair count
    block = max(1, (1 << 17) // width)
    for t, k in enumerate(walking[:span].tolist()):
        for a in range(0, k, block):
            part = slice(a, min(a + block, k))
            closer = near[walk[t, part]]
            closer &= rows[row[part] - t * n]
            word = (closer != 0).argmax(axis=1)
            low = closer[index[:len(word)], word]
            low &= ~low + _U1  # the lowest set bit, 2**i: its float exponent is i + 1
            walk[t + 1, part] = (word << 6) + np.frexp(low.astype(np.float64))[1] - 1

    # each hop-sized array is dropped once it is read
    del level, rows, row
    # hop t of walker w, for every t below its length, in (t, w) order
    hop = np.arange(span)[:, None] < hops
    tail, head = walk[:-1][hop], walk[1:][hop]
    del walk
    forward = tail < head
    cell = tail * width
    cell += head >> 6
    del tail
    below = near.reshape(-1)[cell]
    below &= (bit - _U1)[head]
    del head
    fan = np.bincount(arcs.tails * width + (arcs.heads >> 6), minlength=n * width)
    arc = (np.cumsum(fan) - fan)[cell]
    del cell
    arc += _popcount(below)
    del below
    hop_edge = arcs.edge[arc]
    del arc

    # a walk runs from the lower endpoint to the root: it is the route
    # when the lower endpoint sends, and the route reversed otherwise;
    # hop t of a walk goes t places on from its route's first hop or
    # back from its last
    reverse = source[order] > destination[order]
    forward ^= (hop & reverse)[hop]
    indptr = np.concatenate(([0], np.cumsum(length)))
    first = indptr[order]
    first[reverse] += hops[reverse] - 1
    place = (first + np.where(reverse, -1, 1) * np.arange(span)[:, None])[hop]
    edge = np.empty(indptr[-1], dtype=np.int64)
    edge[place] = hop_edge
    del hop_edge
    sign = np.empty(indptr[-1], dtype=bool)
    sign[place] = forward
    sign = np.where(sign, 1, -1)
    return PathSet(source, destination, indptr, edge, sign)
