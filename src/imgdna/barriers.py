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
result either way. The search takes one marker of every such read per
step, on a small grid of A flags around each read's expected position,
and one gather then gives each (read, partition) its chunk, which is
rotation-decoded for all of them at once.
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
    offsets: np.ndarray
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
    offsets = np.array((0, *itertools.accumulate(lengths)), dtype=np.int64)
    markers = len(lengths) if cfg.partition_len is not None else 0
    size = expected_trits + 2 * markers
    marker_at = [int(offsets[j + 1]) + 2 * j for j in range(markers)]  # after partition j
    marker_cols = [m + d for m in marker_at for d in (0, 1)]
    after = [m + 2 for m in marker_at[:-1]]
    checked = np.array(marker_cols + after, dtype=np.int64)
    holds_a = np.arange(checked.size) < len(marker_cols)
    payload = np.delete(np.arange(size), marker_cols)
    for array in (offsets, checked, holds_a, payload):
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
    so the search finds the expected column every time and every chunk is
    exactly its span long. Intact is not error-free: a substitution inside
    a partition reads as clean on both paths.

    Every other nonempty read goes through the marker search, which takes
    one marker of all of them per step (_find_markers), and their chunks
    are decoded together in one gather (_decode_chunks). Python runs once
    per marker of the layout, not once per read or chunk.
    """
    layout = _read_layout(expected_trits, cfg)
    lengths = layout.lengths
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
    damaged[sizes == 0] = True
    rest = np.flatnonzero(~intact & (sizes > 0))
    if rest.size:
        begin = starts[rest]
        found, stops = _find_markers(nts, begin, begin + sizes[rest], cfg, layout)
        out[rest], damaged[rest] = _decode_chunks(nts, begin, found, stops, layout)
    return out, damaged


@lru_cache(maxsize=16)
def _marker_ranks(window: int) -> tuple[np.ndarray, np.ndarray]:
    """(rank, gap) of the marker search over a window: rank[c] orders a
    marker snapped to column c by its distance from the expected one,
    column (window - 2) / 2, the left one first among equals, and
    gap[rank[c]] is that distance, signed."""
    half = (window - 2) // 2
    offset = np.arange(window - 1) - half
    rank = np.abs(4 * offset + 1)  # 1, 3, 5, ... for 0, -1, +1, ...
    gap = np.zeros(rank.max() + 2, dtype=np.int64)
    gap[rank] = offset
    for array in (rank, gap):
        array.setflags(write=False)
    return rank, gap


def _find_markers(nts, begin, end, cfg: BarrierConfig, layout: _ReadLayout):
    """The marker search on the packed reads nts[begin:end], one marker of
    every read per step: (found, stops), where found[r, i] says whether
    read r's marker i was found and stops[r, i] is where it starts, or
    the read's end in the last column.

    Marker i is expected where the chunk's partitions and the markers it
    missed would put it. A step gathers A flags from (window - 2) / 2
    nucleotides before that through the window and one column after it,
    which never holds an A; none before the chunk start or at or past the
    read's end. Every 'AA' start in the window is a candidate, snapped to
    min(the last A of its run - 1, the window's last start): partitions
    never start with A, so a true marker always sits at the tail of its
    run (a partition may end with A and extend it leftward). So each run
    of two or more A gives one candidate, two columns before its first
    non-A. The nearest candidate wins, ties going left.
    """
    offsets = layout.offsets
    half = (cfg.window - 2) // 2
    rank, gap = _marker_ranks(cfg.window)
    missing = gap.size - 1  # above every rank
    # the window and the nucleotide after it; the last column lies past
    # every read's end, so it reads as no A and ends every run
    columns = np.append(np.arange(-half, half + 2), nts.size + 1)
    # a chunk opened at partition f by pos expects marker i at
    # pos + offsets[i + 1] - offsets[f] + 2 * (i - f), its missed markers
    # included: anchor + lead[i + 1] - 2 with anchor = pos - lead[f]
    lead = offsets + 2 * np.arange(offsets.size)
    found = np.zeros((begin.size, layout.markers), dtype=bool)
    stops = np.empty((begin.size, layout.markers + 1), dtype=np.int64)
    stops[:, -1] = end
    pos = anchor = begin
    for i in range(layout.markers):  # marker i follows partition i
        expected = anchor + (lead[i + 1] - 2)
        at = expected[:, None] + columns
        is_a = nts.take(at, mode="clip") == A
        is_a &= at >= pos[:, None]
        is_a &= at < end[:, None]
        snapped = is_a[:, :-2] & (is_a[:, 1:-1] > is_a[:, 2:])  # A, A, no A
        best = np.where(snapped, rank, missing).min(axis=1)
        hit = best < missing
        mark = expected + gap[best]
        found[:, i], stops[:, i] = hit, mark
        pos = np.where(hit, mark + 2, pos)
        anchor = np.where(hit, pos - lead[i + 1], anchor)
    return found, stops


def _decode_chunks(nts, begin, found, stops, layout: _ReadLayout):
    """The trits and damage flags of packed reads starting at begin, cut
    into chunks at the markers found (see _find_markers).

    A chunk runs from the read's start or the end of a marker found to
    the start of the next marker found or the read's end, and covers the
    partitions from the one after its opening marker to the one of its
    closing marker. One gather gives each (read, partition) its chunk, and
    one window per (read, partition), the nucleotide before the
    partition's first one and the longest partition's length after it, is
    rotation-decoded for all at once; a chunk's first window starts from
    the seed A, as every chunk decodes on its own. A partition takes the
    trits at its offset within its chunk, zeros past the chunk's end, so
    every partition lands at its original offset. All of a chunk's
    partitions are flagged when it merged a missed marker or is not
    exactly their span long.
    """
    offsets = layout.offsets
    parts, markers = len(layout.lengths), layout.markers
    reads, index = begin.size, np.arange(markers)
    rows = np.arange(reads)[:, None]
    # per (read, partition): the marker that closes its chunk (markers for
    # the final chunk) and the chunk's first partition
    close = np.full((reads, parts), markers)
    close[:, :markers] = np.where(found, index, markers)
    close = np.minimum.accumulate(close[:, ::-1], axis=1)[:, ::-1]
    first = np.zeros((reads, parts), dtype=np.int64)
    first[:, 1:] = np.maximum.accumulate(np.where(found, index, -1), axis=1)[:, : parts - 1] + 1
    opens = np.empty_like(stops)
    opens[:, 0] = begin
    opens[:, 1:] = stops[:, :-1] + 2
    start, stop = opens[rows, first], stops[rows, close]
    span = offsets[np.minimum(close + 1, parts)] - offsets[first]
    damaged = (close > first) | (stop - start != span)
    # each partition's first nucleotide; padded[at] is the one before it
    at = start - offsets[first] + offsets[:-1]
    pl = layout.lengths[0]
    padded = np.zeros(nts.size + pl + 1, dtype=np.uint8)
    padded[0] = A
    padded[1 : nts.size + 1] = nts
    view = sliding_window_view(padded, pl + 1)
    windows = view[np.minimum(at, len(view) - 1)]
    windows[..., 0][first == np.arange(parts)] = A
    trits = rotate_decode(windows, seed=A)[..., 1:]
    trits[np.arange(pl) >= (stop - at)[..., None]] = 0
    return trits.reshape(reads, parts * pl)[:, : offsets[-1]], damaged


def partition_errors(got: np.ndarray, want: np.ndarray, cfg: BarrierConfig) -> np.ndarray:
    """(rows, partitions) bool: the partitions in which each row of got
    differs from the same row of want, the pristine trits of one layout."""
    starts = _read_layout(want.shape[1], cfg).offsets[:-1]
    return np.logical_or.reduceat(got != want, starts, axis=1)
