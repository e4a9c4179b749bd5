"""Synthesis and sequencing error simulation.

Every nucleotide independently suffers an error with the configured rate;
the error is a substitution (uniform different nucleotide), an insertion
(uniform nucleotide placed after the position) or a deletion, picked by
the configured weights. Primer regions are spared unless corrupt_primers
is set, matching their role as handles rather than data.

Noise is reproducible: each (pool seed, strand uid, copy) triple seeds its
own generator, so a strand's noise never depends on pool size or on how
many other strands were processed first. The generator is the one
default_rng(SeedSequence([seed, uid, copy])) would give; its seed words
are hashed for the whole pool at once (seed_words), and each read's PCG64
starts from its row. A read's draws are, in order: one uniform per
position it may err at, (word >> 11) * 2**-53 as Generator.random()
makes it, a hit where it falls below the rate; one uniform per hit,
placed on the weights' CDF as Generator.choice does, for the hit's kind;
then, hit by hit, one 32-bit half per substitution or insertion, low half
first, as scalar integers() calls take them. A substitution shifts by
1 + integers(0, 3), whose Lemire rejection passes a zero half over to the
next; an insertion adds integers(0, 4), the half's top two bits; a
deletion draws nothing. perturb_pool makes one random_raw call per read
and finds every hit, kind and value in whole-array passes over the words.
It returns a flat list of reads in (uid, copy) order; the decoder routes
each read by its own index, not its place.

Reads travel in batches as packed reads (pack_reads): one uint8 array
holding them back to back, with each read's start and size. edit_reads
is the one edit applier: it lays a batch of edited reads out in one pass,
for perturb_pool, targeted injection and containment trials alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence


@dataclass(frozen=True)
class ChannelConfig:
    rate: float
    sub_weight: float = 1.0
    ins_weight: float = 1.0
    del_weight: float = 1.0
    copies: int = 1
    corrupt_primers: bool = False

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        weights = (self.sub_weight, self.ins_weight, self.del_weight)
        if not all(map(math.isfinite, weights)) or min(weights) < 0 or sum(weights) <= 0:
            raise ValueError("error weights must be finite and nonnegative with a positive sum")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")

    @property
    def fractions(self) -> tuple[float, float, float]:
        total = self.sub_weight + self.ins_weight + self.del_weight
        return (self.sub_weight / total, self.ins_weight / total, self.del_weight / total)

    @cached_property
    def kind_cdf(self) -> np.ndarray:
        """Cumulative fractions scaled to end at exactly 1, as choice builds them."""
        cdf = np.cumsum(self.fractions)
        return cdf / cdf[-1]

    def describe(self) -> str:
        fs, fi, fd = self.fractions
        return (
            f"rate={self.rate:g} sub={fs:.3f} ins={fi:.3f} del={fd:.3f} "
            f"copies={self.copies} corrupt_primers={self.corrupt_primers}"
        )


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, pool of four uint32
# words), run over one column per read. It must stay equal to
# SeedSequence([seed, uid, copy]).generate_state(4, np.uint64), which
# test_seed_words_equal_seed_sequence in tests/test_channel.py pins.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hasher(const: int, mult: int):
    """numpy's hashmix: each call xors in the running constant, steps the
    constant and multiplies by it."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def seed_words(seed, strands: int, copies: int) -> np.ndarray:
    """The (strands, copies, 4) uint64 state words that
    SeedSequence([seed, uid, copy]).generate_state(4, np.uint64) gives,
    for every read at once."""
    seed = operator.index(seed)  # TypeError unless an integer
    if seed < 0 or max(strands, copies) > 2**32:
        raise ValueError("the seed must be non-negative, and uid and copy below 2**32")
    uid, copy = np.divmod(np.arange(strands * copies, dtype=np.uint32), np.uint32(copies))
    # the seed's little-endian 32-bit words, one word for 0
    parts = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(uid.size, p, dtype=np.uint32) for p in parts] + [uid, copy]
    entropy += [np.zeros_like(uid)] * (4 - len(entropy))  # a short entropy hashes zeros
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(extra))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    words = np.stack([state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=-1)
    return words.reshape(strands, copies, 4)


class _StateWords(ISeedSequence):
    """A seed sequence whose state words are already computed; numpy's
    bit generators accept any ISeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def edit_value(rng: np.random.Generator, kind: int) -> int:
    """One scalar draw: a nonzero shift for a substitution, a nucleotide
    for an insertion, nothing for a deletion. A vectorised draw would read
    the stream differently and change every seeded result."""
    if kind == 0:
        return int(rng.integers(1, 4))
    if kind == 1:
        return int(rng.integers(0, 4))
    return 0


def pack_reads(reads) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nts, starts, sizes): the reads back to back in one uint8 array, and
    where each starts and how long it is. None packs as an empty read."""
    reads = [np.zeros(0, dtype=np.uint8) if read is None else read for read in reads]
    sizes = np.fromiter(map(len, reads), dtype=np.int64, count=len(reads))
    nts = np.concatenate(reads).astype(np.uint8, copy=False) if reads else np.zeros(0, np.uint8)
    return nts, np.cumsum(sizes) - sizes, sizes


def unpack_reads(nts: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The packed reads as a list of views into nts."""
    return [nts[s:e] for s, e in zip(starts.tolist(), (starts + sizes).tolist())]


def edit_reads(
    bases, read: np.ndarray, pos: np.ndarray, kind: np.ndarray, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed reads (see pack_reads): read i is bases[i] with each point
    edit (read, pos, kind, value) whose read is i applied.

    Positions are distinct within a read and refer to its base. Kind 0
    replaces nts[pos] with (nts[pos] + value) % 4, kind 1 inserts value
    after pos and kind 2 deletes pos. Every read is laid out at once: the
    substitutions land in the packed bases, the deletions go in one
    np.delete and the insertions in one np.insert.
    """
    nts, starts, sizes = pack_reads(bases)
    at = starts[read] + pos  # each edit's place in the packed bases
    sub, ins, dele = kind == 0, kind == 1, kind == 2
    nts[at[sub]] = (nts[at[sub]] + value[sub]) & 3
    gone = np.sort(at[dele])
    if gone.size:
        nts = np.delete(nts, gone)
    if ins.any():
        after = at[ins] + 1
        nts = np.insert(nts, after - np.searchsorted(gone, after), value[ins].astype(np.uint8))
    count = len(sizes)
    sizes = sizes + np.bincount(read[ins], minlength=count)
    sizes -= np.bincount(read[dele], minlength=count)
    return nts, np.cumsum(sizes) - sizes, sizes


# a read draws its span, one word per expected hit and this many more
# before it has to draw again
_MARGIN = 16

# raw words one _draw_reads call holds at most, unless a single read
# needs more, so a large pool's words are never all in memory at once
_SLICE_WORDS = 1 << 18


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[i] - 1 for each i, back to back."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _uniform(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that Generator.random() makes of raw words."""
    return (words >> np.uint64(11)) * 2.0**-53


def _below(words: np.ndarray, rate: float) -> np.ndarray:
    """The indices of the words whose uniform falls below rate, asked of
    the raw words: (w >> 11) * 2**-53 < rate exactly when
    w < ceil(rate * 2**53) << 11, and no float array is made."""
    limit = math.ceil(rate * 2**53) << 11
    return np.flatnonzero(words < np.uint64(limit)) if limit < 2**64 else np.arange(words.size)


_HALF = np.uint64(32)


def _bounded(halves: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Lemire draw of integers(0, n) from each 32-bit half: whether
    the half is kept, and the value it gives."""
    scaled = halves * np.uint64(n)
    kept = (scaled & np.uint64(_MASK32)) >= np.uint64((2**32 - n) % n)
    return kept, (scaled >> _HALF).astype(np.int64)


def _first_kept(kept: np.ndarray) -> np.ndarray:
    """The index of the first kept half at or after each index."""
    at = np.where(kept, np.arange(kept.size), kept.size)
    return np.minimum.accumulate(at[::-1])[::-1]


def _draw_reads(cfg: ChannelConfig, words: np.ndarray, span: np.ndarray, count: np.ndarray):
    """(short, read, pos, kind, value): the errors of reads whose
    generators start from state words words[i] and draw count[i] raw
    words, each confined to its first span[i] positions. short[i] is set
    where read i ran out of words; the other reads' errors are (read,
    position, kind, value), read by read in position order.
    """
    raw = np.concatenate(
        [PCG64(_StateWords(w)).random_raw(n) for w, n in zip(words, count.tolist())]
    )
    ends = np.cumsum(count)
    starts = ends - count
    at = _below(raw, cfg.rate)
    read = np.searchsorted(ends, at, side="right")
    pos = at - starts[read]
    inside = pos < span[read]
    read, pos = read[inside], pos[inside]
    hits = np.bincount(read, minlength=count.size)
    # a read's next hits words give its kinds
    kind_at = np.arange(read.size) + (starts + span - np.cumsum(hits) + hits)[read]
    kind = cfg.kind_cdf.searchsorted(_uniform(raw[np.minimum(kind_at, raw.size - 1)]), side="right")
    # the words after those, as 32-bit halves with one stop half at the end;
    # read i's halves end at half_ends[i]
    spare = np.maximum(count - span - hits, 0)
    spare_words = raw[_ragged_arange(spare) + np.repeat(starts + span + hits, spare)]
    halves = np.zeros(2 * spare_words.size + 1, dtype=np.uint64)
    halves[0:-1:2] = spare_words & np.uint64(_MASK32)
    halves[1:-1:2] = spare_words >> _HALF
    half_ends = 2 * np.cumsum(spare)
    three_kept, three_value = _bounded(halves, 3)
    three_kept[-1] = True
    next_kept = _first_kept(three_kept)
    # a substitution or insertion takes its read's next half; a substitution
    # passes over rejected halves, which moves every later draw of its read.
    # A draw's start depends only on the draws before it, so each pass fixes
    # at least one more draw, and the starts stop moving once all are right.
    draw = np.flatnonzero(kind != 2)
    draw_read = read[draw]
    sub = kind[draw] == 0
    per_read = np.bincount(draw_read, minlength=count.size)
    base = _ragged_arange(per_read) + (half_ends - 2 * spare)[draw_read]
    first = (np.cumsum(per_read) - per_read)[draw_read]
    last = halves.size - 1
    start = np.minimum(base, last)
    while True:
        used = np.where(sub, next_kept[start], start)
        skipped = np.cumsum(used - start) - (used - start)
        moved = np.minimum(base + skipped - skipped[first], last)
        if np.array_equal(moved, start):
            break
        start = moved
    short = span + hits > count
    short[draw_read[used >= half_ends[draw_read]]] = True
    value = np.zeros(read.size, dtype=np.int64)
    # a substitution shifts by 1 + integers(0, 3), an insertion adds
    # integers(0, 4), the half's top two bits
    value[draw] = np.where(sub, 1 + three_value[used], (halves[used] >> np.uint64(30)).astype(np.int64))
    return short, read, pos, kind, value


def perturb_pool(
    strands: list[np.ndarray],
    cfg: ChannelConfig,
    seed: int,
    protect: tuple[int, int] = (0, 0),
) -> list[np.ndarray]:
    """cfg.copies noisy reads of every strand, flat in (uid, copy) order:
    read uid * cfg.copies + copy.

    protect gives the (prefix, suffix) primer lengths spared by default.
    Each read draws its raw words in one call to its own PCG64, and a read
    whose words run out draws again with twice as many. The reads are
    drawn in slices of at most _SLICE_WORDS words, which leaves each
    read's draws as they are; then one edit_reads call lays every read
    out.
    """
    words = seed_words(seed, len(strands), cfg.copies).reshape(-1, 4)
    if not strands:
        return []
    size = np.fromiter(map(len, strands), dtype=np.int64, count=len(strands))
    lo, hi = np.zeros_like(size), size
    if not cfg.corrupt_primers:
        lo = np.minimum(protect[0], size)
        hi = np.maximum(size - protect[1], lo)
    lo, span = np.repeat(lo, cfg.copies), np.repeat(hi - lo, cfg.copies)
    count = span + _MARGIN + np.ceil(cfg.rate * span).astype(np.int64)
    todo = np.arange(span.size)
    edits = []
    while todo.size:
        take = max(int(np.searchsorted(np.cumsum(count[todo]), _SLICE_WORDS, side="right")), 1)
        batch, todo = todo[:take], todo[take:]
        short, read, pos, kind, value = _draw_reads(cfg, words[batch], span[batch], count[batch])
        done = ~short[read]
        read = batch[read[done]]
        edits.append((read, lo[read] + pos[done], kind[done], value[done]))
        again = batch[short]
        count[again] *= 2
        todo = np.concatenate([again, todo])
    bases = [strand for strand in strands for _ in range(cfg.copies)]
    return unpack_reads(*edit_reads(bases, *map(np.concatenate, zip(*edits))))


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_channel_config(text: str) -> ChannelConfig:
    """Parse key=value lines; '#' starts a comment. Unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "rate":
            values["rate"] = float(val)
        elif key in ("sub_weight", "ins_weight", "del_weight"):
            values[key] = float(val)
        elif key == "copies":
            values["copies"] = int(val)
        elif key == "corrupt_primers":
            flag = _BOOL_WORDS.get(val.lower())
            if flag is None:
                raise ValueError(f"line {lineno}: bad boolean {val!r}")
            values["corrupt_primers"] = flag
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if "rate" not in values:
        raise ValueError("channel config must set rate")
    return ChannelConfig(**values)


def load_channel_config(path) -> ChannelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel_config(fh.read())
