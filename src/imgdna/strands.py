"""Strand assembly: primers, replicated index, barriered payload.

A strand is fwd_primer | index | payload | rev_primer. The index holds
(offset * 2 + stream_bit) in base 3, written three times so a single hit
cannot orphan the whole strand; each copy is rotation-encoded from the
last primer nucleotide. route_reads routes a batch of packed reads at
once: every index region becomes an integer key, looked up in a sorted,
memoised table of exact encodings. Every other region goes to one
decode_index call, which votes over the three copy windows plus their
one-shifted neighbours for all of them at once, so an indel inside the
index region still recovers the value: whole-array passes over the
(misses, windows) values, with no Python step per read. The key table
and the voting decoder's candidate codes come from one memoised array of
every code per (width, seed, limit). A received pool is a flat
sequence of reads, each routed by its own index; labels and order carry
nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import pack_reads
from .rotation import A, C, G, rotate_encode

STREAM_DC = 0  # also carries the single interleaved stream
STREAM_AC = 1

MAX_STRAND_LEN = 1000
MAX_HOMOPOLYMER = 3  # longest run the rotating code plus markers can emit


def generate_primer(
    rng: np.random.Generator,
    length: int = 20,
    forbid_leading_a: bool = False,
) -> np.ndarray:
    """Random primer with balanced GC and no runs longer than two."""
    if length < 4:
        raise ValueError("primer length must be >= 4")
    while True:
        cand = rng.integers(0, 4, size=length).astype(np.uint8)
        if forbid_leading_a and cand[0] == A:
            continue
        gc = np.isin(cand, (1, 2)).mean()
        if not 0.4 <= gc <= 0.6:
            continue
        if _max_run(cand) > 2:
            continue
        return cand


@lru_cache(maxsize=64)
def default_primer_pair(length: int = 20, seed: int = 0x1D9A) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic primer pair, memoised and read-only. The reverse
    primer never starts with A, so a trailing 'AA' marker cannot extend
    into a longer run."""
    rng = np.random.default_rng(seed)
    fwd = generate_primer(rng, length)
    while True:
        rev = generate_primer(rng, length, forbid_leading_a=True)
        if not np.array_equal(rev, fwd):
            fwd.setflags(write=False)
            rev.setflags(write=False)
            return fwd, rev


def _max_run(nts: np.ndarray) -> int:
    if nts.size == 0:
        return 0
    changes = np.flatnonzero(nts[1:] != nts[:-1])
    edges = np.concatenate([[-1], changes, [nts.size - 1]])
    return int(np.diff(edges).max())


@dataclass
class StrandGeometry:
    """Fixed layout shared by every strand in a pool."""

    strand_len: int
    fwd_primer: np.ndarray
    rev_primer: np.ndarray
    index_width: int  # trits per index copy

    def __post_init__(self):
        self.fwd_primer = np.asarray(self.fwd_primer, dtype=np.uint8)
        self.rev_primer = np.asarray(self.rev_primer, dtype=np.uint8)
        if self.index_width < 1:
            raise ValueError("index width must be >= 1")
        if self.capacity < 10:
            raise ValueError("strand too short for its primers and index")

    @property
    def fwd_len(self) -> int:
        return int(self.fwd_primer.size)

    @property
    def rev_len(self) -> int:
        return int(self.rev_primer.size)

    @property
    def index_len(self) -> int:
        return 3 * self.index_width

    @property
    def index_seed(self) -> int:
        return int(self.fwd_primer[-1])

    @property
    def capacity(self) -> int:
        """Payload nucleotides available per strand."""
        return self.strand_len - self.fwd_len - self.rev_len - self.index_len


def index_width_for(max_strands: int) -> int:
    """Smallest trit width holding offset*2+stream for max_strands offsets."""
    width = 1
    while 3**width < 2 * max(max_strands, 1):
        width += 1
    return width


def _copy_mask(width: int, k: int) -> np.ndarray:
    # position-dependent trit offset, distinct per copy
    return (np.arange(1, width + 1, dtype=np.int64) * k) % 3


def encode_indexes(values, width: int, seed: int) -> np.ndarray:
    """Three rotation-encoded copies of each value, each masked
    differently: a (len(values), 3 * width) uint8 array. The digits of all
    values and all copies are masked together and rotation-encoded one row
    per copy.

    The rotation code is additive, so plain repeats yield copies that are
    elementwise shifts of one another, and then decode windows misaligned
    by the same amount read the same wrong value out of two copies and
    can outvote the intact reads. Masking copy k with k*(position+1) mod 3
    makes equally misaligned windows disagree in every digit instead.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= 3**width):
        raise ValueError(f"index values must fit {width} trits")
    digits = values[:, None] // 3 ** np.arange(width - 1, -1, -1, dtype=np.int64) % 3
    masks = np.array([_copy_mask(width, k) for k in range(3)])
    copies = rotate_encode((digits[:, None, :] + masks) % 3, seed=seed)
    return copies.reshape(values.size, 3 * width)


@lru_cache(maxsize=64)
def _index_codes(width: int, seed: int, limit: int) -> np.ndarray:
    """The codes of every value below min(limit, 3**width), one row per
    value, memoised and read-only, since every caller shares them."""
    codes = encode_indexes(np.arange(min(limit, 3**width)), width, seed)
    codes.setflags(write=False)
    return codes


def _region_keys(regions: np.ndarray) -> np.ndarray:
    """A uint64 key per row: its first 32 nucleotides, two bits each.
    Copy 0 alone fixes the value, so up to width 32 no two codes share a
    key."""
    columns = min(regions.shape[1], 32)
    weights = 4 ** np.arange(columns - 1, -1, -1, dtype=np.uint64)
    return regions[:, :columns].astype(np.uint64) @ weights


@lru_cache(maxsize=64)
def _exact_table(width: int, seed: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted keys, their values) of the exact index encodings.

    index_width_for never yields a limit above 3**width - 1, and stopping
    there keeps width 1's value 2 out: its exact encoding votes to 0."""
    codes = _index_codes(width, seed, limit)[: min(limit, 3**width - 1)]
    keys = _region_keys(codes)
    order = np.argsort(keys)
    return keys[order], order


def _exact_values(regions: np.ndarray, width: int, seed: int, limit: int) -> np.ndarray:
    """The value whose exact encoding each row's first 3 * width
    nucleotides are, or -1: a key lookup, then a check of the whole
    region against the code it finds."""
    keys, values = _exact_table(width, seed, limit)
    if not keys.size:
        return np.full(len(regions), -1, dtype=np.int64)
    regions = regions[:, : 3 * width]
    at = keys.searchsorted(_region_keys(regions))
    found = values[np.minimum(at, keys.size - 1)]
    exact = (_index_codes(width, seed, limit)[found] == regions).all(axis=1)
    return np.where(exact, found, -1)


def _last_true(flags: np.ndarray) -> np.ndarray:
    """The last index along the last axis where flags is set, or -1."""
    n = flags.shape[-1]
    return np.where(flags.any(axis=-1), n - 1 - flags[..., ::-1].argmax(axis=-1), -1)


def _within_one_edit(codes: np.ndarray, regions: np.ndarray) -> np.ndarray:
    """Whether each code, (..., n), aligns to a prefix of its region,
    (..., n + 1), with <= 1 edit.

    Anchored at the start, free at the region's tail, so a trailing
    payload nucleotide after the index never counts as damage. Only
    prefixes of length n-1, n or n+1 can be one edit away, so past the
    first mismatch k the rest must match under a substitution (Hamming
    distance <= 1), an insertion (codes[j] == regions[j + 1] for j >= k)
    or a deletion (codes[j + 1] == regions[j] for j >= k).
    """
    n = codes.shape[-1]
    mismatch = codes != regions[..., :n]
    k = np.where(mismatch.any(axis=-1), mismatch.argmax(axis=-1), n)
    inserted = _last_true(codes != regions[..., 1:]) < k
    deleted = _last_true(codes[..., 1:] != regions[..., : n - 1]) < k
    return (mismatch.sum(axis=-1) <= 1) | inserted | deleted


@lru_cache(maxsize=64)
def _vote_windows(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(columns, masks, copy starts) of the voting windows: each copy's
    window at shifts -1, 0 and +1 that starts inside the region, copy by
    copy; each window's columns and its copy's mask, and where each copy's
    windows start."""
    starts = [(k, k * width + d) for k in range(3) for d in (-1, 0, 1) if k * width + d >= 0]
    columns = np.array([np.arange(s, s + width) for _, s in starts])
    masks = np.array([_copy_mask(width, k) for k, _ in starts], dtype=np.uint8)
    copy = np.array([k for k, _ in starts])
    return columns, masks, np.flatnonzero(np.diff(copy, prepend=-1))


def decode_index(regions: np.ndarray, width: int, seed: int, limit: int) -> np.ndarray:
    """The index value below limit each row of regions, a (reads, 3 * width
    + 1) array of index nucleotides and the one after them, addresses, or
    -1 where it is unroutable: a vote across the three copies, tolerating
    one-off shifts.

    Every copy window and its one-shifted neighbours are rotation-decoded
    and unmasked at once, each from seed. A window's value below limit is
    a candidate; its copy votes count the copies with a window holding its
    value, so a corrupt copy cannot outvote the two intact ones with
    misaligned-window noise, and its raw votes count those windows. The
    highest (copy votes, raw votes, -value) wins among the candidates
    whose code is within one edit of the region (_within_one_edit). From
    width 4 up, no single substitution, insertion or deletion inside a
    code, whatever payload follows it, decodes to another value, and no
    region of one to three edits the tests try has two values that pass
    the one-edit check; the tests check every single edit at width 4.
    Below that one edit can misroute: at width 3, 8 of the 27,168
    distinct single-edit regions of seeds 0-3 pass value 15 as 0, and at
    width 2, 92 of 5,572 decode to another value. Width 1 values sit only
    2 edits apart (and the exact encoding of value 2 votes to 0 under
    limit 3). So encode_image writes no index narrower than 4 trits,
    though a mapping of any width decodes; small images pay for it, as a
    16x16 crop would otherwise get width 2 or 3.

    route_reads looks every index region up in its exact table first and
    sends only the rest here; on an exact encoding the two give the same
    value. From width 3 up, no other value passes the one-edit check
    against an exact encoding. One edit either leaves some copy intact in
    place, which fixes the value, or is an indel in copy 0 that shifts
    copies 1 and 2, whose different masks cannot both decode to one value.
    The tests compare the two on every value and trailing nucleotide up to
    width 8.
    """
    columns, masks, copy_starts = _vote_windows(width)
    windows = regions[:, columns]  # (reads, windows, width)
    prev = np.empty_like(windows)
    prev[..., 0] = seed
    prev[..., 1:] = windows[..., :-1]
    # rotation-decode and unmask in one step: a repeat, d = 3, decodes as
    # trit 0, and 3 = 0 mod 3
    digits = ((windows - prev - 1) & 3) + 3 - masks
    digits %= 3
    values = digits @ 3 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    valid = values < limit
    same = (values[:, :, None] == values[:, None, :]) & valid[:, None, :]
    raw_votes = same.sum(axis=2)
    copy_votes = np.logical_or.reduceat(same, copy_starts, axis=2).sum(axis=2)
    codes = _index_codes(width, seed, limit)[np.where(valid, values, 0)]
    valid &= _within_one_edit(codes, regions[:, None, :])
    score = np.where(valid, copy_votes * 16 + raw_votes, -1)
    top = valid & (score == score.max(axis=1, keepdims=True))
    value = np.where(top, values, limit).min(axis=1)
    return np.where(value < limit, value, -1)


def assemble_strands(
    geom: StrandGeometry, index_values, payloads: list[np.ndarray]
) -> list[np.ndarray]:
    """fwd_primer | index | payload | rev_primer for each index value and payload.

    Each run of equal-size payloads fills one uint8 grid of one strand per
    row: the primer columns by broadcast, the index columns from one
    encode_indexes call and the payload columns stacked. The strands are
    the grids' rows, in payload order. A payload over the capacity is a
    ValueError before any grid is built.
    """
    capacity, width, seed = geom.capacity, geom.index_width, geom.index_seed
    pairs = list(zip(index_values, payloads))
    over = next((p.size for _, p in pairs if p.size > capacity), None)
    if over is not None:
        raise ValueError(f"payload {over} nt exceeds capacity {capacity}")
    head = geom.fwd_len + geom.index_len
    strands = []
    for size, run in groupby(pairs, key=lambda pair: pair[1].size):
        values, run_payloads = zip(*run)
        grid = np.empty((len(values), head + size + geom.rev_len), dtype=np.uint8)
        grid[:, : geom.fwd_len] = geom.fwd_primer
        grid[:, geom.fwd_len : head] = encode_indexes(values, width, seed)
        grid[:, head : head + size] = run_payloads
        grid[:, head + size :] = geom.rev_primer
        strands += list(grid)
    return strands


@dataclass
class DisassemblyResult:
    """Payloads slotted by (stream, offset); None marks a missing strand."""

    streams: dict[int, list]
    quarantined: int = 0
    duplicates: int = 0


def route_reads(
    nts: np.ndarray, starts: np.ndarray, sizes: np.ndarray, geom: StrandGeometry, limit: int
) -> np.ndarray:
    """The index value each packed read (see channel.pack_reads) addresses,
    -1 where it is unroutable; its stream is value & 1, its offset value
    >> 1 and its payload what lies between the index and the reverse
    primer.

    Primer regions are stripped by position and the index is read from the
    front of what is left. A read too short to hold primers, index and one
    payload nucleotide is unroutable. Every index region is looked up in
    the exact table at once; only the rest go to decode_index.
    """
    values = np.full(len(sizes), -1, dtype=np.int64)
    fits = np.flatnonzero(sizes > geom.fwd_len + geom.rev_len + geom.index_len)
    if not fits.size:
        return values
    width, seed = geom.index_width, geom.index_seed
    # decode_index reads one nucleotide past the index, for a shifted copy 2
    regions = sliding_window_view(nts, geom.index_len + 1)[starts[fits] + geom.fwd_len]
    exact = _exact_values(regions, width, seed, limit)
    values[fits] = exact
    misses = np.flatnonzero(exact < 0)
    if misses.size:
        values[fits[misses]] = decode_index(regions[misses], width, seed, limit)
    return values


def disassemble_pool(
    reads, geom: StrandGeometry, stream_counts: dict[int, int]
) -> DisassemblyResult:
    """Recover per-stream payload slots from received reads, in any order.

    The reads are packed and routed in one route_reads call. Unroutable
    reads and addresses with no slot are quarantined. Each slot keeps the
    most common exact payload among the reads routed to it, the first seen
    winning ties; routed reads whose payload loses that vote count as
    duplicates. A slot no read reaches stays None for the caller's gap
    fill.
    """
    result = DisassemblyResult(
        streams={s: [None] * n for s, n in stream_counts.items()}
    )
    limit = 2 * max(stream_counts.values())
    nts, starts, sizes = pack_reads(reads)
    values = route_reads(nts, starts, sizes, geom, limit)
    first = starts + geom.fwd_len + geom.index_len
    last = starts + sizes - geom.rev_len
    contested: dict[tuple[int, int], list[np.ndarray]] = {}  # slots with 2+ reads
    for value, lo, hi in zip(values.tolist(), first.tolist(), last.tolist()):
        stream, offset = value & 1, value >> 1
        slots = result.streams.get(stream)
        if value < 0 or slots is None or offset >= len(slots):
            result.quarantined += 1
            continue
        payload = nts[lo:hi]
        if slots[offset] is None:
            slots[offset] = payload
        else:
            contested.setdefault((stream, offset), [slots[offset]]).append(payload)
    for (stream, offset), payloads in contested.items():
        tally = Counter(p.tobytes() for p in payloads)
        top = max(tally.values())
        # first-seen wins among equally common payloads
        result.streams[stream][offset] = next(p for p in payloads if tally[p.tobytes()] == top)
        result.duplicates += len(payloads) - top
    return result


@dataclass
class ConstraintReport:
    strand_count: int
    max_homopolymer: int
    max_length: int
    gc_mean: float
    gc_min: float
    gc_max: float
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_GC_PIECE = 255  # nucleotides per uint8 GC sum, which then cannot overflow


def validate_constraints(strands: list[np.ndarray]) -> ConstraintReport:
    """Check biochemical plausibility rules over a pool of strands.

    One pass over the concatenated pool. Each strand's longest run comes
    from the positions where a nucleotide repeats its predecessor, which
    are rare in rotation-coded strands, with no run crossing a strand
    start. Its GC count is a sum of uint8 sums over pieces of at most
    _GC_PIECE nucleotides, so no array the length of the pool is wider
    than a byte. A strand's GC content is its count over its length in
    float64, and 0 for an empty strand.
    """
    n = len(strands)
    if n == 0:
        return ConstraintReport(0, 0, 0, 0.0, 0.0, 0.0)
    lens = np.fromiter((s.size for s in strands), dtype=np.int64, count=n)
    starts = np.cumsum(lens) - lens
    pool = np.concatenate(strands)

    repeat = pool[1:] == pool[:-1]
    repeat[starts[(starts > 0) & (starts < pool.size)] - 1] = False
    at = np.flatnonzero(repeat)  # pool[at + 1] repeats pool[at]
    del repeat
    runs = (lens > 0).astype(np.int64)
    if at.size:
        # k consecutive repeats make a run of k + 1
        streak = np.flatnonzero(np.diff(at, prepend=-2) != 1)
        owner = np.searchsorted(starts, at[streak], side="right") - 1
        np.maximum.at(runs, owner, np.diff(streak, append=at.size) + 1)

    pieces = -(-lens // _GC_PIECE)
    first = np.cumsum(pieces) - pieces
    piece_at = np.repeat(starts - _GC_PIECE * first, pieces) + _GC_PIECE * np.arange(pieces.sum())
    gc_mask = pool == C
    gc_mask |= pool == G
    counts = np.zeros(n, dtype=np.int64)
    filled = lens > 0
    if piece_at.size:
        piece_gc = np.add.reduceat(gc_mask.view(np.uint8), piece_at, dtype=np.uint8)
        counts[filled] = np.add.reduceat(piece_gc, first[filled], dtype=np.int64)
    gc = np.zeros(n)
    np.divide(counts, lens, out=gc, where=filled)

    violations = []
    for i in np.flatnonzero((runs > MAX_HOMOPOLYMER) | (lens >= MAX_STRAND_LEN)).tolist():
        if runs[i] > MAX_HOMOPOLYMER:
            violations.append(f"strand {i}: homopolymer run {runs[i]} > {MAX_HOMOPOLYMER}")
        if lens[i] >= MAX_STRAND_LEN:
            violations.append(f"strand {i}: length {lens[i]} >= {MAX_STRAND_LEN}")
    return ConstraintReport(
        strand_count=n,
        max_homopolymer=int(runs.max()),
        max_length=int(lens.max()),
        gc_mean=float(np.mean(gc)),
        gc_min=float(gc.min()),
        gc_max=float(gc.max()),
        violations=violations,
    )
