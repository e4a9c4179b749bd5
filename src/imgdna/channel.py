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
starts from its row. perturb_pool returns a flat list of reads in (uid,
copy) order; the decoder routes each read by its own index, not its place.
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


def apply_edits(nts: np.ndarray, edits) -> np.ndarray:
    """A copy of nts with (pos, kind, value) point edits applied.

    Positions are distinct and refer to the original strand. Kind 0
    replaces nts[pos] with (nts[pos] + value) % 4, kind 1 inserts value
    after pos and kind 2 deletes pos.
    """
    pieces = []
    prev = 0
    for pos, kind, value in sorted(edits):
        pieces.append(nts[prev:pos])
        if kind == 0:
            pieces.append(np.array([(int(nts[pos]) + value) % 4], dtype=np.uint8))
        elif kind == 1:
            pieces.append(nts[pos : pos + 1])
            pieces.append(np.array([value], dtype=np.uint8))
        prev = pos + 1
    pieces.append(nts[prev:])
    return np.concatenate(pieces)


def perturb_strand(
    nts: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator, lo: int, hi: int
) -> np.ndarray:
    """One noisy read of a strand, errors confined to positions [lo, hi)."""
    hi = max(hi, lo)
    draws = rng.random(hi - lo)
    hits = np.flatnonzero(draws < cfg.rate) + lo
    if hits.size == 0:
        return nts.copy()
    # the draw Generator.choice(3, size, p=fractions) makes, without its
    # argument checks: one uniform per hit, placed on the weights' CDF
    kinds = cfg.kind_cdf.searchsorted(rng.random(hits.size), side="right")
    edits = [(pos, kind, edit_value(rng, kind)) for pos, kind in zip(hits.tolist(), kinds.tolist())]
    return apply_edits(nts, edits)


def perturb_pool(
    strands: list[np.ndarray],
    cfg: ChannelConfig,
    seed: int,
    protect: tuple[int, int] = (0, 0),
) -> list[np.ndarray]:
    """cfg.copies noisy reads of every strand, flat in (uid, copy) order:
    read uid * cfg.copies + copy.

    protect gives the (prefix, suffix) primer lengths spared by default.
    """
    words = seed_words(seed, len(strands), cfg.copies)
    out = []
    for strand, rows in zip(strands, words):
        lo, hi = 0, strand.size
        if not cfg.corrupt_primers:
            lo = min(protect[0], strand.size)
            hi = max(strand.size - protect[1], lo)
        out += [
            perturb_strand(strand, cfg, np.random.Generator(PCG64(_StateWords(w))), lo, hi)
            for w in rows
        ]
    return out


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
