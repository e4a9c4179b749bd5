"""Entropy coding of quantized coefficient blocks.

DC terms are difference-coded as (category, amplitude bits); AC terms are
run-length coded with (run, size) symbols plus end-of-block and
sixteen-zeros markers, as in baseline JPEG. Code tables are canonical
Huffman built per image from symbol counts, with the all-ones codeword
reserved so byte padding never decodes as data. prefix.py builds the
depths, the codewords and the decode lookup, as it does for the ternary
byte code; the 16-bit length cap is JPEG's and stays here.

Streams are cut into segments of whole blocks, and one encoder and one
decoder handle every segment. For each block a segment holds the DC
difference if it is given a DC table, then the AC terms if it is given an
AC table: IMG-DNA's DC and AC streams carry one class each, and Raw-DNA
interleaves both. Each segment restarts the DC predictor and is padded to
a whole byte, so a damaged segment can be skipped without poisoning its
neighbours. A decode failure freezes the DC predictor and zero-fills the
AC terms for the remainder of the segment being decoded.

Encoding is one numpy pass per stream (encode_segments). Each codeword
and its amplitude bits form one field, taken from 256-entry code arrays.
A field's place follows from counts: a block's DC difference, then each
AC term's ZRLs and symbol, then EOB. Each field is OR-ed into the bytes
as a 40-bit window at its first byte, and padding joins a segment's last
field.

Decoding is table-driven. A segment's bits are read through 24-bit
big-endian words, one at each byte offset and padded with 1 bits past the
end. The next 16 bits index two 65,536-entry lookups that give the symbol
and its code length at once, and amplitude bits come from the same words.
A zero length, or a code or amplitude that runs past the segment, fails
it. decode_segment reads one segment through a plain int bit position;
it decodes Raw-DNA's interleaved segment and is the tests' reference.

decode_segments decodes every segment of a stream in one call: one-class
segments, IMG-DNA's and NoBarrier-Separated's DC and AC streams, in
lockstep, block j of every segment at once under a per-symbol rule table,
and interleaved ones through decode_segment, one at a time, as each pool
has only one. decode_pools hands it every segment of a stream from all
the pools of one pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .jpeg import ZIGZAG, coefficient_bounds
from .prefix import canonical_codes, huffman_depths, window_lookup

EOB = 0x00  # end of block: all remaining AC terms are zero
ZRL = 0xF0  # sixteen zero AC terms
MAX_CODE_LENGTH = 16
_RESERVED = 0x100  # pseudo-symbol holding the all-ones codeword


def _words(data: bytes) -> np.ndarray:
    """24-bit big-endian word at each byte offset of data and one past it.

    Bytes past the end read as 0xFF. The 16 bits at bit position pos are
    (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF, and any 1 to 17 bits
    starting there fit in the same word.
    """
    padded = np.frombuffer(bytes(data) + b"\xff\xff\xff", dtype=np.uint8).astype(np.int32)
    return (padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]


def _optimal_lengths(freqs: dict[int, int]) -> dict[int, int]:
    """Binary Huffman code lengths including the reserved pseudo-symbol.

    The pseudo-symbol gets weight 0, so it is merged first and always ends
    at the maximum depth; being the highest symbol value it then takes the
    numerically largest (all ones) codeword in the canonical assignment.
    """
    items = {**freqs, _RESERVED: 0}
    syms = sorted(items)
    depths = huffman_depths([items[s] for s in syms], 2)
    if len(syms) == 1:  # degenerate: only the pseudo-symbol
        depths = [1]
    return dict(zip(syms, depths))


def _limit_lengths(lengths: dict[int, int], cap: int = MAX_CODE_LENGTH) -> dict[int, int]:
    """Squeeze code lengths above cap back under it, preserving Kraft sum."""
    maxlen = max(lengths.values())
    if maxlen <= cap:
        return lengths
    bits = [0] * (maxlen + 1)
    for ln in lengths.values():
        bits[ln] += 1
    for i in range(maxlen, cap, -1):
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    new_sorted = [ln for ln in range(1, cap + 1) for _ in range(bits[ln])]
    syms = sorted(lengths, key=lambda s: (lengths[s], s))
    return dict(zip(syms, new_sorted))


@dataclass
class HuffmanTable:
    """Canonical code defined entirely by its per-symbol lengths."""

    lengths: dict[int, int]
    _encode: dict[int, tuple[int, int]] = field(repr=False, compare=False, default=None)
    _lookup: tuple[bytes, bytes] = field(repr=False, compare=False, default=None)
    _arrays: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("empty code table")
        if min(self.lengths) < 0 or max(self.lengths) > 0xFF:
            raise ValueError("symbol outside 0..255")
        if not 1 <= min(self.lengths.values()) <= max(self.lengths.values()) <= MAX_CODE_LENGTH:
            raise ValueError("code length outside 1..16")
        if sum(2 ** (MAX_CODE_LENGTH - ln) for ln in self.lengths.values()) > (
            1 << MAX_CODE_LENGTH
        ):
            raise ValueError("code lengths violate the Kraft bound")
        self._encode = canonical_codes(self.lengths, 2)

    @classmethod
    def from_frequencies(cls, freqs: dict[int, int]) -> "HuffmanTable":
        used = {s: f for s, f in freqs.items() if f > 0}
        if not used:
            raise ValueError("no symbols to code")
        depths = _limit_lengths(_optimal_lengths(used))
        depths.pop(_RESERVED)
        return cls(depths)

    def code_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, lengths): every symbol's codeword and its length as
        256-entry arrays, length 0 where a symbol has no codeword.
        Built on first encode, so decoding never pays for it."""
        if self._arrays is None:
            codes = np.zeros(256, dtype=np.int64)
            lengths = np.zeros(256, dtype=np.int32)
            for s, (code, ln) in self._encode.items():
                codes[s], lengths[s] = code, ln
            self._arrays = codes, lengths
        return self._arrays

    def lookup(self) -> tuple[bytes, bytes]:
        """(symbols, lengths): the codeword that each 16-bit window starts
        with, and its length, 0 where no codeword matches. Built on first
        use, so encoding never pays for it."""
        if self._lookup is None:
            sym, ln = window_lookup(self._encode, 2, MAX_CODE_LENGTH)
            self._lookup = sym.tobytes(), ln.tobytes()
        return self._lookup


def _categories(values: np.ndarray) -> np.ndarray:
    """The bit length of every value's magnitude: its DC category or AC size."""
    return np.frexp(np.abs(values).astype(np.float64))[1]


def zigzag_flatten(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) quantized blocks -> (n, 64) rows in zigzag scan order."""
    return blocks.reshape(-1, 64)[:, ZIGZAG]


def zigzag_unflatten(flat: np.ndarray) -> np.ndarray:
    n = flat.shape[0]
    out = np.zeros((n, 64), dtype=np.int32)
    out[:, ZIGZAG] = flat
    return out.reshape(n, 8, 8)


def _ac_terms(flat: np.ndarray):
    """Nonzero AC terms of (n, 64) zigzag rows, row by row.

    Returns (rows, runs, values, sizes): run counts the zeros since the
    previous nonzero term of the same row, and size is the bit length of
    the magnitude. A term costs run // 16 ZRLs and then one
    (run % 16, size) symbol; a row ends with EOB unless its 63rd term is
    nonzero.
    """
    rows, cols = np.nonzero(flat[:, 1:])
    values = flat[rows, cols + 1]
    runs = cols.astype(np.int32)
    runs[1:] -= runs[:-1] + 1
    first = np.ones(rows.size, dtype=bool)  # first nonzero term of its row
    first[1:] = rows[1:] != rows[:-1]
    runs[first] = cols[first]
    return rows, runs, values, _categories(values)


def _histogram(symbols: np.ndarray) -> Counter:
    """How often each nonnegative symbol occurs, from one np.bincount."""
    counts = np.bincount(symbols)
    used = np.flatnonzero(counts)
    return Counter(dict(zip(used.tolist(), counts[used].tolist())))


def symbol_counts(flat: np.ndarray) -> tuple[Counter, Counter]:
    """DC and AC symbol histograms over one image's zigzagged blocks.

    The DC chain runs over the whole image here; segmented encoding later
    restarts the predictor, which the floor counts in build_tables absorb.
    """
    flat = np.asarray(flat, dtype=np.int64)
    dc_freqs = _histogram(_categories(np.diff(flat[:, 0], prepend=0)))
    _, runs, _, sizes = _ac_terms(flat)
    ac_freqs = _histogram(((runs % 16) << 4) | sizes)
    ac_freqs[ZRL] += int((runs // 16).sum())
    ac_freqs[EOB] += len(flat) - int(np.count_nonzero(flat[:, 63]))
    return dc_freqs, +ac_freqs  # unary plus drops the zero counts


def build_tables(flat: np.ndarray) -> tuple[HuffmanTable, HuffmanTable]:
    dc_freqs, ac_freqs = symbol_counts(flat)
    for cat in range(16):  # predictor resets can produce any category
        dc_freqs[cat] = max(dc_freqs[cat], 1)
    ac_freqs[EOB] = max(ac_freqs[EOB], 1)
    return HuffmanTable.from_frequencies(dc_freqs), HuffmanTable.from_frequencies(ac_freqs)


def _dc_diff(words: list[int], pos: int, nbits: int, syms: bytes, lens: bytes):
    """One DC difference at bit pos: (diff, next pos), or None when damaged.

    Categories above 16 (hand-made tables only) mean |diff| >= 2**16, which
    clamps to the same bound from the top 16 amplitude bits as from all."""
    window = (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
    ln = lens[window]
    size = syms[window]
    pos += ln
    if ln == 0 or pos + size > nbits:
        return None
    if not size:
        return 0, pos
    top = min(size, 16)
    bits = (words[pos >> 3] >> (24 - (pos & 7) - top)) & ((1 << top) - 1)
    return (bits if bits >> (top - 1) else bits - (1 << top) + 1), pos + size


_NO_CODE = 256  # the symbol of a window that starts no codeword; it fails


def _ac_symbol_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per AC symbol: its amplitude size, how far it moves the coefficient
    index k, and the highest k that move may reach without failing the
    block. A term moves k past itself and may reach 63; ZRL moves k by 16
    and EOB by 63, and either may end the block; any other size-0 symbol,
    _NO_CODE among them, fails."""
    sym = np.arange(_NO_CODE + 1)
    size = sym & 0xF
    advance = np.where(size > 0, (sym >> 4) + 1, 16)
    advance[EOB] = 63
    limit = np.where(size > 0, 63, -1)
    limit[[EOB, ZRL]] = 127
    return size, advance, limit


def _dc_symbol_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per DC symbol, as _ac_symbol_rules: its amplitude size is its
    category, and its one difference moves k to 63, which ends the block;
    _NO_CODE fails."""
    sym = np.arange(_NO_CODE + 1)
    return sym, np.full(sym.size, 63), np.where(sym < _NO_CODE, 63, -1)


_AC_RULES, _DC_RULES = _ac_symbol_rules(), _dc_symbol_rules()
_AC_RULE_LISTS = tuple(rule.tolist() for rule in _AC_RULES)


def _ac_block(
    words: list[int], pos: int, nbits: int, syms: bytes, lens: bytes, row: list
) -> int:
    """Decode one block's AC terms from bit pos into row[1:] (64 zeros).

    Returns the bit position after the block, or -1 when it is damaged: no
    codeword, a code or amplitude past nbits, or a symbol that moves k
    past its limit in _ac_symbol_rules. Terms decoded before that stay.
    """
    size_of, advance, limit = _AC_RULE_LISTS
    k = 0
    while k < 63:
        window = (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
        ln = lens[window]
        sym = syms[window]
        size = size_of[sym]
        pos += ln
        k += advance[sym]
        if ln == 0 or pos + size > nbits or k > limit[sym]:
            return -1
        if size:  # a term: its column is the new k
            bits = (words[pos >> 3] >> (24 - (pos & 7) - size)) & ((1 << size) - 1)
            row[k] = bits if bits >> (size - 1) else bits - (1 << size) + 1
            pos += size
    return pos


def _fields(table: HuffmanTable, symbols, sizes, values) -> tuple[np.ndarray, np.ndarray]:
    """(bits, length) of each symbol's codeword followed by the size-bit
    amplitude of its value; a negative value is stored as value - 1 in
    size bits, as in JPEG."""
    codes, lengths = table.code_arrays()
    length = lengths[symbols]
    if not length.all():
        raise ValueError(f"symbol {int(symbols[length == 0][0]):#04x} has no codeword")
    field = codes[symbols]
    field <<= sizes
    field |= (values - (values < 0)) & ((1 << sizes) - 1)
    length += sizes
    return field, length


_WINDOW = 40  # bits OR-ed in per field: up to 7 bits of offset, then the field


def encode_segments(
    flat: np.ndarray,
    plan: list[tuple[int, int]],
    dc_table: HuffmanTable | None,
    ac_table: HuffmanTable | None,
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Code each (start, end) block range of plan as one segment, in one
    pass; each range starts where the one before it ends.

    Returns (data, sizes, dc_spans): the segments' bytes back to back, the
    byte count of each, and the [start, end) bit range of every DC term in
    data as an (m, 2) array, for analyses that target one coefficient
    class (m is 0 without a dc_table). Each block gives its DC difference
    when dc_table is set, then its AC terms when ac_table is set; a None
    table leaves that class out. The DC predictor restarts at 0 in every
    segment, and each segment is padded to a whole byte with 1 bits.

    Every codeword with its amplitude bits is one field of at most 33
    bits. A block's fields are its DC difference, then each AC term's
    ZRLs and its own symbol, then EOB; each field's index in the stream
    follows from counts, so no sort is needed. A segment's padding joins
    its last field, and each field is OR-ed into the bytes as a 40-bit
    window at its first byte, with one np.bincount over all fields.
    """
    bounds = np.asarray(plan, dtype=np.int64).reshape(-1, 2)
    if (bounds[1:, 0] != bounds[:-1, 1]).any() or (bounds[:, 1] < bounds[:, 0]).any():
        raise ValueError("plan ranges must follow one another")
    counts = bounds[:, 1] - bounds[:, 0]
    first_row = np.cumsum(counts) - counts
    flat = np.asarray(flat)
    rows = flat[bounds[0, 0] : bounds[-1, 1]] if len(bounds) else flat[:0]
    n = len(rows)
    has_dc = dc_table is not None

    r = runs = np.zeros(0, dtype=np.int64)
    eob = np.zeros(n, dtype=bool)
    if ac_table is not None:
        r, runs, values, sizes = _ac_terms(rows)
        eob = rows[:, 63] == 0
    through = np.cumsum(runs // 16 + 1)  # AC fields up to each term's own
    eobs_before = np.concatenate([[0], np.cumsum(eob)])
    start = np.concatenate([[0], through])[np.searchsorted(r, np.arange(n + 1))]
    start += eobs_before
    start += has_dc * np.arange(n + 1)  # each block's first field, then the end

    field = np.zeros(start[-1], dtype=np.int64)
    length = np.zeros(start[-1], dtype=np.int32)
    if has_dc:
        dc = rows[:, 0].astype(np.int64)
        prev = np.roll(dc, 1)
        prev[first_row[counts > 0]] = 0
        dc -= prev
        sizes_dc = _categories(dc)
        field[start[:-1]], dc_length = _fields(dc_table, sizes_dc, sizes_dc, dc)
        length[start[:-1]] = dc_length
    if ac_table is not None:
        # a term's own field follows every earlier AC field, the DC terms
        # of its block and the ones before, and the EOBs before its block
        at = through - 1
        at += (eobs_before + has_dc * np.arange(1, n + 2))[r]
        del r, through
        runs %= 16
        runs <<= 4
        runs |= sizes  # now each term's (run % 16, size) symbol
        field[at], length[at] = _fields(ac_table, runs, sizes, values)
        del runs, values, sizes, at
        at = start[1:][eob] - 1
        field[at], length[at] = _fields(ac_table, np.full(at.size, EOB), 0, 0)
        at = np.flatnonzero(length == 0)  # what is left: the ZRLs
        field[at], length[at] = _fields(ac_table, np.full(at.size, ZRL), 0, 0)
    del eobs_before
    if length.size and length.max() > _WINDOW - 7:
        raise ValueError("coefficient too large to code")

    ends = np.concatenate([[0], np.cumsum(length)])
    seg_first, seg_end = start[first_row], start[first_row + counts]
    pad = (ends[seg_first] - ends[seg_end]) % 8
    sizes_out = (ends[seg_end] - ends[seg_first] + pad) // 8
    last = seg_end[seg_end > seg_first] - 1  # each nonempty segment's last field
    pad = pad[seg_end > seg_first]
    field[last] = (field[last] << pad) | ((1 << pad) - 1)
    length[last] += pad
    np.cumsum(length, out=ends[1:])
    pos = ends[:-1]  # each field's first bit
    dc_spans = np.zeros((0, 2), dtype=np.int64)
    if has_dc:
        dc_spans = np.stack([pos[start[:-1]], pos[start[:-1]] + dc_length], axis=1)

    # the windows of the fields that start in one byte never overlap, so
    # their sum is their OR, and below 2**40 float64 sums them exactly; a
    # padded field ends on a byte boundary, so it fits its window too
    length += pos & 7
    np.subtract(_WINDOW, length, out=length)
    field <<= length
    pos >>= 3
    total = int(sizes_out.sum())
    windows = np.bincount(pos, weights=field, minlength=total).astype(np.int64)
    out = np.zeros(total + _WINDOW // 8, dtype=np.int64)
    for k in range(_WINDOW // 8):
        out[k : k + total] += (windows >> (_WINDOW - 8 - 8 * k)) & 0xFF
    return out[:total].astype(np.uint8).tobytes(), sizes_out, dc_spans


def decode_segment(
    data: bytes,
    dc_table: HuffmanTable | None,
    ac_table: HuffmanTable | None,
    count: int,
    quant_zig: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Returns ((count, 64) blocks, clean); a class without a table stays 0.

    A damaged DC difference freezes the predictor for the remaining blocks.
    A damaged AC block keeps the terms decoded before the damage, and the
    blocks after it stay zero. DC values are clamped as they are decoded,
    since the predictor chains them, and AC terms once per segment.
    """
    words, nbits = _words(data).tolist(), len(data) * 8
    dc_syms, dc_lens = dc_table.lookup() if dc_table is not None else (None, None)
    ac_syms, ac_lens = ac_table.lookup() if ac_table is not None else (None, None)
    bound = coefficient_bounds(quant_zig)
    dc_bound = int(bound[0])
    dc, rows = [], []
    pos = prev = 0
    for _ in range(count):
        if dc_syms is not None:
            term = _dc_diff(words, pos, nbits, dc_syms, dc_lens)
            if term is None:
                pos = -1
                break
            diff, pos = term
            prev = max(-dc_bound, min(dc_bound, prev + diff))
            dc.append(prev)
        if ac_syms is not None:
            rows.append([0] * 64)
            pos = _ac_block(words, pos, nbits, ac_syms, ac_lens, rows[-1])
            if pos < 0:
                break
    out = np.zeros((count, 64), dtype=np.int32)
    if rows:
        out[: len(rows)] = rows
        np.clip(out, -bound, bound, out=out)
    if dc:
        out[:, 0] = prev
        out[: len(dc), 0] = dc
    return out, pos >= 0


def decode_segments(
    datas: list[bytes],
    counts,
    dc_table: HuffmanTable | None,
    ac_table: HuffmanTable | None,
    quant_zig: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode segment i of counts[i] blocks from datas[i], for every i:
    ((sum(counts), 64) rows, clean flags), segment i's rows in order.

    Segment i's rows and clean[i] equal decode_segment(datas[i], dc_table,
    ac_table, counts[i], quant_zig). Interleaved segments go through
    decode_segment one at a time. One-class segments are decoded in
    lockstep, block j of every segment at once: each cursor holds a bit
    position and a coefficient index k, and each step reads one codeword
    of every open block with numpy gathers, under the symbol's rules (see
    _ac_symbol_rules; a DC difference moves k to 63). A block closes when
    k reaches 63, and a segment leaves when a block fails. Every codeword
    read is kept with its row, k, bit position, size and check; after the
    loop the ones that passed with a size are the terms. Their amplitudes
    are read, AC terms scattered into column k and clamped, and DC
    differences chained down each segment's rows, clamped at every row.
    The blocks after a failure get no terms, so AC rows stay zero and the
    DC predictor stays frozen. Cursors are intp, which numpy gathers with
    fastest, and the terms int32 after the loop, which holds the bit
    positions of up to 2**28 bytes of segments.

    The segments are read from the words of their concatenation, so a
    cursor's window runs on into the next segment where decode_segment
    sees 1 bits. That changes no result: a codeword is a prefix of its
    window, so one that fits in the segment is found whatever follows,
    and when none fits the lookup gives _NO_CODE or a code past the end.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (dc_table is None) == (ac_table is None):  # both classes, or neither
        decoded = [
            decode_segment(data, dc_table, ac_table, count, quant_zig)
            for data, count in zip(datas, counts.tolist())
        ]
        rows = [np.zeros((0, 64), dtype=np.int32)] + [v for v, _ in decoded]
        return np.concatenate(rows), np.array([ok for _, ok in decoded], dtype=bool)
    dc = dc_table is not None
    size_of, advance, limit = _DC_RULES if dc else _AC_RULES
    table = dc_table if dc else ac_table
    syms, lens = (np.frombuffer(t, dtype=np.uint8) for t in table.lookup())
    syms = syms.astype(np.intp)
    # canonical codewords cover the first windows in order, so the windows
    # that start no codeword are the last ones
    syms[np.count_nonzero(lens) :] = _NO_CODE
    nbytes = np.array([len(d) for d in datas], dtype=np.int64)
    words = _words(b"".join(datas))
    start = 8 * (np.cumsum(nbytes) - nbytes)
    stop = start + 8 * nbytes
    first = np.cumsum(counts) - counts  # each segment's first row
    total, width = int(counts.sum()), int(counts.max(initial=0))
    # the bit position after each row's block, -1 until it closes cleanly;
    # one slot more, so a segment of no blocks reads a valid index
    after = np.full(total + 1, -1)
    steps = [(first[:0],) * 4 + (first[:0] > 0,)]  # (row, k, bit position, size, ok)
    seg = np.flatnonzero(counts > 0)  # segments whose block j is next
    for j in range(width):
        block = first[seg] + j
        row, end, k = block, stop[seg], np.zeros_like(block)
        pos = after[block - 1] if j else start[seg]
        while row.size:
            window = (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
            sym = syms[window]
            size = size_of[sym]
            pos += lens[window]
            k = k + advance[sym]
            nxt = pos + size
            ok = (nxt <= end) & (k <= limit[sym])
            steps.append((row, k, pos, size, ok))
            after[row] = np.where(ok, nxt, -1)
            ok = ok & (k < 63)
            row, pos, end, k = row[ok], nxt[ok], end[ok], k[ok]
        seg = seg[(after[block] >= 0) & (counts[seg] > j + 1)]
    *columns, ok = zip(*steps)
    row, k, at, size = (np.concatenate(column, dtype=np.int32) for column in columns)
    ok = np.concatenate(ok)
    del steps
    term = ok & (size > 0)
    cell, at, size = (row[term] << 6) + k[term], at[term], size[term]
    top = np.minimum(size, 16)  # see _dc_diff
    mask = (1 << top) - 1
    bits = (words[at >> 3] >> (24 - (at & 7) - top)) & mask
    values = bits - (bits <= mask >> 1) * mask  # below half of the range: negative
    bound = coefficient_bounds(quant_zig).astype(np.int32)
    out = np.zeros((total, 64), dtype=np.int32)
    if dc:
        lanes = np.zeros((len(counts), width), dtype=np.int32)  # one per segment
        valid = np.arange(width) < counts[:, None]
        diffs = np.zeros(total, dtype=np.int32)
        diffs[cell >> 6] = values
        lanes[valid] = diffs
        prev = np.zeros(len(counts), dtype=np.int32)
        for j in range(width):
            prev += lanes[:, j]
            np.clip(prev, -bound[0], bound[0], out=prev)
            lanes[:, j] = prev
        out[:, 0] = lanes[valid]
    else:
        out.reshape(-1)[cell] = values
        np.clip(out, -bound, bound, out=out)
    return out, (counts == 0) | (after[first + counts - 1] >= 0)
