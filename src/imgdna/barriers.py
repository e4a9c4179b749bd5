"""Error-containment barriers between independently encoded trit partitions.

A trit stream is cut into fixed-length partitions. Each partition is
rotation-encoded on its own (seeded from A) and ends with the
two-nucleotide marker 'AA', which the rotating code can never emit; the
last partition on a strand ends with one too. A stream without barriers
is one unbounded partition per strand and carries no marker.
A whole stream is laid out at once, as one partition per row of a grid,
and then cut into strands.
An insertion or deletion inside one partition shifts only that partition's
nucleotides; the decoder re-anchors at the next marker, so damage does not
spread down the stream.

The decoder knows the expected trit count, searches a +/- window around each
expected marker position, and when a marker was destroyed it merges the two
neighbouring partitions and carries on at the following one.

resync_reads decodes a batch of packed reads of one layout into trits and a
(reads, partitions) damage matrix. Its intact reads, most reads at the
error rates studied, decode together: one (reads, length) array, one intact
test, one rotation decode along the rows and one gather of the payload
columns. Every other read goes through the marker search, with the same
result either way; those reads are rotation-decoded together too, and the
search writes each chunk straight into the two matrices.
partition_errors gives the same matrix against pristine trits. _read_layout
alone says where partitions start, and no other module knows the marker width.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rotation import A, rotate_decode, rotate_encode

BARRIER = np.array([A, A], dtype=np.uint8)


@dataclass(frozen=True)
class BarrierConfig:
    """Partition length in trits and marker search window in nucleotides.

    The window is the full width searched: (window - 2) / 2 nt either side
    of the expected marker position. partition_len None disables barriers
    entirely (one unbounded partition, no marker).
    """

    partition_len: int | None = 50
    window: int = 12

    def __post_init__(self):
        # at 2 the search sees only the expected column: an indel goes unflagged
        if self.window < 4 or self.window % 2:
            raise ValueError("window must be an even number >= 4")
        if self.partition_len is not None:
            if self.partition_len < 2:
                raise ValueError("partition_len must be >= 2")
            if self.window >= 2 * self.partition_len:
                raise ValueError("window must be smaller than two partitions")


def strand_trits(cfg: BarrierConfig, capacity: int) -> int:
    """Trits one strand of capacity payload nt holds: as many whole
    partitions as fit with their markers, or capacity without barriers."""
    if cfg.partition_len is None:
        return capacity
    per = capacity // (cfg.partition_len + BARRIER.size)
    if per < 1:
        raise ValueError(
            f"strand capacity {capacity} nt cannot hold one {cfg.partition_len}-trit "
            "partition plus its marker"
        )
    return per * cfg.partition_len


def stream_payloads(trits, cfg: BarrierConfig, per_strand: int) -> list[np.ndarray]:
    """Barriered payload of each consecutive per_strand-trit strand of a stream.

    All strands are laid out in one pass. per_strand is a whole number of
    partitions, so partitions tile the stream: the stream becomes a grid
    of one partition per row, the rows are rotation-encoded from seed A in
    one call, and the two columns after each row hold its marker. The
    final partition may be short, and its marker follows it directly.
    Without barriers a strand is one partition and its payload drops the
    marker. The payloads are views into one array.
    """
    trits = np.asarray(trits, dtype=np.uint8)
    n = trits.size
    pl = per_strand if cfg.partition_len is None else cfg.partition_len
    if per_strand % pl:
        raise ValueError("a strand must hold a whole number of partitions")
    if n == 0:
        return []
    rows = -(-n // pl)
    padded = np.zeros(rows * pl, dtype=np.uint8)
    padded[:n] = trits
    grid = np.full((rows, pl + 2), A, dtype=np.uint8)
    grid[:, :pl] = rotate_encode(padded.reshape(rows, pl), seed=A)
    last = n - (rows - 1) * pl  # trits in the final partition
    grid[-1, last : last + 2] = A
    nts = grid.ravel()[: (rows - 1) * (pl + 2) + last + 2]
    span = per_strand // pl * (pl + 2)
    cut = 0 if cfg.partition_len is not None else BARRIER.size
    return [nts[s : min(s + span, nts.size) - cut] for s in range(0, nts.size, span)]


def _find_marker(nts, expected: int, low: int, half: int, end: int) -> int | None:
    """Nearest 'AA' start around the expected position; ties go left.

    Candidates inside one A-run are snapped to the run's last 'AA':
    partitions never start with A, so a true marker always sits at the
    tail of its run (a partition may end with A and extend it leftward).
    nts is any sequence of nucleotide codes, a list being the fastest;
    the read being searched ends at end.
    """
    best = None
    best_key = None
    lo = max(low, expected - half)
    hi = min(end - 2, expected + half)
    for s in range(lo, hi + 1):
        if nts[s] != A or nts[s + 1] != A:
            continue
        while s + 2 < end and s + 1 <= hi and nts[s + 2] == A:
            s += 1
        key = (abs(s - expected), s)
        if best_key is None or key < best_key:
            best, best_key = s, key
    return best


@dataclass(frozen=True)
class _ReadLayout:
    """Where everything sits in an undamaged read of expected_trits trits.

    lengths and offsets are the partitions' trit counts and output offsets,
    and size is the read's length with its markers. checked lists the
    marker columns followed by the column right after each marker but the
    final one, which ends the read, and holds_a says which of them must
    hold A. payload lists the columns that carry trits, in order.
    """

    lengths: tuple[int, ...]
    offsets: tuple[int, ...]
    markers: int
    size: int
    checked: np.ndarray
    holds_a: np.ndarray
    payload: np.ndarray


@lru_cache(maxsize=1024)
def _read_layout(expected_trits: int, cfg: BarrierConfig) -> _ReadLayout:
    pl = cfg.partition_len or expected_trits or 1  # None: one unbounded partition
    full, rest = divmod(expected_trits, pl)
    lengths = (pl,) * full + ((rest,) if rest else ())
    offsets = (0, *itertools.accumulate(lengths))
    markers = len(lengths) if cfg.partition_len is not None else 0
    size = expected_trits + 2 * markers
    marker_at = [offsets[j + 1] + 2 * j for j in range(markers)]  # after partition j
    marker_cols = [m + d for m in marker_at for d in (0, 1)]
    after = [m + 2 for m in marker_at[:-1]]
    checked = np.array(marker_cols + after, dtype=np.int64)
    holds_a = np.arange(checked.size) < len(marker_cols)
    payload = np.delete(np.arange(size), marker_cols)
    for array in (checked, holds_a, payload):
        array.setflags(write=False)
    return _ReadLayout(lengths, offsets, markers, size, checked, holds_a, payload)


def _intact(nts: np.ndarray, layout: _ReadLayout):
    """Whether reads of the layout's length are intact, along the last
    axis: every marker column holds A and no column right after a marker
    does."""
    return ((nts.take(layout.checked, axis=-1) == A) == layout.holds_a).all(axis=-1)


def resync_reads(
    nts: np.ndarray, starts: np.ndarray, sizes: np.ndarray, cfg: BarrierConfig, expected_trits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode packed reads (see channel.pack_reads) of one layout: a
    (len(sizes), expected_trits) uint8 trit matrix and a (len(sizes),
    partitions) bool matrix of the partitions flagged as damaged. An empty
    read, which is how a missing one packs, decodes as zeros with every
    partition flagged.

    Intact reads (the layout's length, A in every marker column and in no
    column right after a marker) are stacked, rotation-decoded and gathered
    at once, with no partition flagged. The marker search gives them the
    same: at each marker the true 'AA' is a candidate at distance 0 from
    the expected position, and the non-A after it stops the run-snapping,
    so _find_marker returns the expected column every time and every chunk
    is exactly its span long. Intact is not error-free: a substitution
    inside a partition reads as clean on both paths.

    Every other read goes through the marker search. Those reads are
    joined and rotation-decoded in one pass, and their codes become one
    list; every chunk starts at a read's start or right after a marker's
    A, so its predecessor is the seed A either way. A chunk between two
    markers found fills its partitions with its decoded trits, padded with
    0 or truncated so every partition lands at its original offset, and
    flags them all when it is not exactly their span long or merged a
    missed marker.
    """
    layout = _read_layout(expected_trits, cfg)
    lengths, offsets = layout.lengths, layout.offsets
    out = np.zeros((len(sizes), expected_trits), dtype=np.uint8)
    damaged = np.zeros((len(sizes), len(lengths)), dtype=bool)
    if not lengths:
        return out, damaged
    intact = np.zeros(len(sizes), dtype=bool)
    whole = np.flatnonzero(sizes == layout.size)
    if whole.size:
        rows = sliding_window_view(nts, layout.size)[starts[whole]]
        ok = _intact(rows, layout)
        intact[whole[ok]] = True
        out[whole[ok]] = rotate_decode(rows[ok], seed=A)[:, layout.payload]
    rest = np.flatnonzero(~intact)
    if not rest.size:
        return out, damaged
    read_ends = np.cumsum(sizes[rest])  # in joined
    read_starts = read_ends - sizes[rest]
    joined = np.concatenate(
        [nts[s : s + n] for s, n in zip(starts[rest].tolist(), sizes[rest].tolist())]
    )
    decoded = rotate_decode(joined, seed=A)
    heads = read_starts[sizes[rest] > 0]
    decoded[heads] = rotate_decode(joined[heads, None], seed=A)[:, 0]
    codes = joined.tolist() if layout.markers else None
    half = (cfg.window - 2) // 2
    chunks = []  # (read, first partition, last partition, start, end, markers missed)
    for k, pos, end in zip(rest.tolist(), read_starts.tolist(), read_ends.tolist()):
        chunk_first = merged = 0
        for i in range(layout.markers):  # marker i follows partition i
            expected = pos + offsets[i + 1] - offsets[chunk_first] + 2 * merged
            at = _find_marker(codes, expected, pos, half, end)
            if at is None:
                merged += 1
                continue
            chunks.append((k, chunk_first, i, pos, at, merged))
            pos, chunk_first, merged = at + 2, i + 1, 0
        if chunk_first < len(lengths):  # the rest of the read is the final chunk
            chunks.append((k, chunk_first, len(lengths) - 1, pos, end, merged))
    for k, first, last, pos, end, merged in chunks:
        span = offsets[last + 1] - offsets[first]
        take = min(span, end - pos)
        out[k, offsets[first] : offsets[first] + take] = decoded[pos : pos + take]
        damaged[k, first : last + 1] = merged > 0 or end - pos != span
    return out, damaged


def partition_errors(got: np.ndarray, want: np.ndarray, cfg: BarrierConfig) -> np.ndarray:
    """(rows, partitions) bool: the partitions in which each row of got
    differs from the same row of want, the pristine trits of one layout."""
    starts = _read_layout(want.shape[1], cfg).offsets[:-1]
    return np.logical_or.reduceat(got != want, starts, axis=1)
