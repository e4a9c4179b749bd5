"""Entropy coding of quantized coefficient blocks.

DC terms are difference-coded as (category, amplitude bits); AC terms are
run-length coded with (run, size) symbols plus end-of-block and
sixteen-zeros markers, as in baseline JPEG. Code tables are canonical
Huffman built per image from symbol counts, with the all-ones codeword
reserved so byte padding never decodes as data.

Streams are cut into segments of whole blocks, and one encoder and one
decoder handle every segment. For each block a segment holds the DC
difference if it is given a DC table, then the AC terms if it is given an
AC table: IMG-DNA's DC and AC streams carry one class each, and Raw-DNA
interleaves both. Each segment restarts the DC predictor and is padded to
a whole byte, so a damaged segment can be skipped without poisoning its
neighbours. A decode failure freezes the DC predictor and zero-fills the
AC terms for the remainder of the segment being decoded.

Decoding is table-driven. A segment becomes a list of 24-bit big-endian
words, one at each byte offset and padded with 1 bits past the end, read
through a plain int bit position. The next 16 bits index two 65,536-entry
lookups that give the symbol and its code length at once, and amplitude
bits come from the same words. A zero length, or a code or amplitude that
runs past the segment, fails it. Decoded values are clamped to the valid
coefficient range once per segment, with numpy.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .jpeg import ZIGZAG, coefficient_bounds

EOB = 0x00  # end of block: all remaining AC terms are zero
ZRL = 0xF0  # sixteen zero AC terms
MAX_CODE_LENGTH = 16
_RESERVED = 0x100  # pseudo-symbol holding the all-ones codeword


class BitWriter:
    """Append integers MSB-first; pads the final byte with 1 bits."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nacc = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nacc += nbits
        while self._nacc >= 8:
            self._nacc -= 8
            self._out.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    @property
    def bit_length(self) -> int:
        return len(self._out) * 8 + self._nacc

    def getvalue(self) -> bytes:
        if not self._nacc:
            return bytes(self._out)
        pad = 8 - self._nacc
        last = ((self._acc << pad) | ((1 << pad) - 1)) & 0xFF
        return bytes(self._out) + bytes([last])


def _words(data: bytes) -> list[int]:
    """24-bit big-endian word at each byte offset of data and one past it.

    Bytes past the end read as 0xFF. The 16 bits at bit position pos are
    (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF, and any 1 to 17 bits
    starting there fit in the same word.
    """
    padded = np.frombuffer(bytes(data) + b"\xff\xff\xff", dtype=np.uint8).astype(np.int32)
    return ((padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]).tolist()


def _optimal_lengths(freqs: dict[int, int]) -> dict[int, int]:
    """Binary Huffman code lengths including the reserved pseudo-symbol.

    The pseudo-symbol gets weight 0, so it is merged first and always ends
    at the maximum depth; being the highest symbol value it then takes the
    numerically largest (all ones) codeword in the canonical assignment.
    """
    items = dict(freqs)
    items[_RESERVED] = 0
    heap = []
    for tie, (sym, f) in enumerate(sorted(items.items())):
        heap.append((f, tie, (sym,)))
    heapq.heapify(heap)
    tie = len(heap)
    depth = dict.fromkeys(items, 0)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        for sym in a + b:
            depth[sym] += 1
        heapq.heappush(heap, (fa + fb, tie, a + b))
        tie += 1
    if len(items) == 1:  # degenerate: only the pseudo-symbol
        depth[_RESERVED] = 1
    return depth


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


def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    out = {}
    code = 0
    prev = 0
    for sym in sorted(lengths, key=lambda s: (lengths[s], s)):
        ln = lengths[sym]
        code <<= ln - prev
        prev = ln
        out[sym] = (code, ln)
        code += 1
    return out


@dataclass
class HuffmanTable:
    """Canonical code defined entirely by its per-symbol lengths."""

    lengths: dict[int, int]
    _encode: dict[int, tuple[int, int]] = field(repr=False, compare=False, default=None)
    _lookup: tuple[bytes, bytes] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("empty code table")
        if min(self.lengths) < 0 or max(self.lengths) > 0xFF:
            raise ValueError("symbol outside 0..255")
        if max(self.lengths.values()) > MAX_CODE_LENGTH:
            raise ValueError("code length above 16")
        if sum(2 ** (MAX_CODE_LENGTH - ln) for ln in self.lengths.values()) > (
            1 << MAX_CODE_LENGTH
        ):
            raise ValueError("code lengths violate the Kraft bound")
        self._encode = _canonical_codes(self.lengths)

    @classmethod
    def from_frequencies(cls, freqs: dict[int, int]) -> "HuffmanTable":
        used = {s: f for s, f in freqs.items() if f > 0}
        if not used:
            raise ValueError("no symbols to code")
        depths = _limit_lengths(_optimal_lengths(used))
        depths.pop(_RESERVED)
        return cls(depths)

    def write(self, writer: BitWriter, symbol: int) -> None:
        code, ln = self._encode[symbol]
        writer.write(code, ln)

    def lookup(self) -> tuple[bytes, bytes]:
        """(symbols, lengths): the codeword that each 16-bit window starts
        with, and its length, 0 where no codeword matches. Built on first
        use, so encoding never pays for it."""
        if self._lookup is None:
            sym = np.zeros(1 << MAX_CODE_LENGTH, dtype=np.uint8)
            ln_arr = np.zeros(1 << MAX_CODE_LENGTH, dtype=np.uint8)
            for s, (code, ln) in self._encode.items():
                lo = code << (MAX_CODE_LENGTH - ln)
                hi = lo + (1 << (MAX_CODE_LENGTH - ln))
                sym[lo:hi] = s
                ln_arr[lo:hi] = ln
            self._lookup = sym.tobytes(), ln_arr.tobytes()
        return self._lookup


def dc_category(diff: int) -> int:
    return abs(int(diff)).bit_length()


def _categories(values: np.ndarray) -> np.ndarray:
    """dc_category of every value: the bit length of its magnitude."""
    return np.frexp(np.abs(values).astype(np.float64))[1]


def _amplitude(value: int, size: int) -> int:
    return value if value > 0 else value + (1 << size) - 1


def zigzag_flatten(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) quantized blocks -> (n, 64) rows in zigzag scan order."""
    return blocks.reshape(-1, 64)[:, ZIGZAG]


def zigzag_unflatten(flat: np.ndarray) -> np.ndarray:
    n = flat.shape[0]
    out = np.zeros((n, 64), dtype=np.int32)
    out[:, ZIGZAG] = flat
    return out.reshape(n, 8, 8)


def symbol_counts(flat: np.ndarray) -> tuple[Counter, Counter]:
    """DC and AC symbol histograms over one image's zigzagged blocks.

    The DC chain runs over the whole image here; segmented encoding later
    restarts the predictor, which the floor counts in build_tables absorb.
    Each nonzero AC term costs run // 16 ZRLs and one (run % 16, size)
    symbol, where run counts the zeros since the previous nonzero term of
    its row; a row ends with EOB unless its last term is nonzero.
    """
    flat = np.asarray(flat, dtype=np.int64)
    dc_freqs = Counter(_categories(np.diff(flat[:, 0], prepend=0)).tolist())
    rows, cols = np.nonzero(flat[:, 1:])
    first = np.ones(rows.size, dtype=bool)  # first nonzero term of its row
    first[1:] = rows[1:] != rows[:-1]
    runs = cols - np.where(first, -1, np.roll(cols, 1)) - 1
    ac_freqs = Counter((((runs % 16) << 4) | _categories(flat[rows, cols + 1])).tolist())
    ac_freqs[ZRL] += int((runs // 16).sum())
    ac_freqs[EOB] += len(flat) - int(np.count_nonzero(flat[:, 63]))
    return dc_freqs, +ac_freqs  # unary plus drops the zero counts


def build_tables(flat: np.ndarray) -> tuple[HuffmanTable, HuffmanTable]:
    dc_freqs, ac_freqs = symbol_counts(flat)
    for cat in range(16):  # predictor resets can produce any category
        dc_freqs[cat] = max(dc_freqs[cat], 1)
    ac_freqs[EOB] = max(ac_freqs[EOB], 1)
    return HuffmanTable.from_frequencies(dc_freqs), HuffmanTable.from_frequencies(ac_freqs)


def _write_dc(writer: BitWriter, table: HuffmanTable, diff: int) -> None:
    size = dc_category(diff)
    table.write(writer, size)
    if size:
        writer.write(_amplitude(diff, size), size)


def _write_ac_row(writer: BitWriter, table: HuffmanTable, row: list) -> None:
    codes = table._encode
    run = 0
    for v in row:
        if v == 0:
            run += 1
            continue
        while run >= 16:
            writer.write(*codes[ZRL])
            run -= 16
        size = abs(v).bit_length()
        code, ln = codes[(run << 4) | size]
        writer.write((code << size) | _amplitude(v, size), ln + size)
        run = 0
    if run:
        writer.write(*codes[EOB])


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


def _ac_block(
    words: list[int], pos: int, nbits: int, syms: bytes, lens: bytes, row: list
) -> int:
    """Decode one block's AC terms from bit pos into row[1:] (64 zeros).

    Returns the bit position after the block, or -1 when it is damaged: no
    codeword, a code or amplitude past nbits, a size-0 symbol other than
    EOB and ZRL, or a term past the 63rd. Terms decoded before that stay.
    """
    k = 0
    while k < 63:
        window = (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
        ln = lens[window]
        sym = syms[window]
        size = sym & 0xF
        pos += ln
        if ln == 0 or pos + size > nbits:
            return -1
        if size:
            k += sym >> 4
            if k >= 63:
                return -1
            bits = (words[pos >> 3] >> (24 - (pos & 7) - size)) & ((1 << size) - 1)
            row[k + 1] = bits if bits >> (size - 1) else bits - (1 << size) + 1
            pos += size
            k += 1
        elif sym == ZRL:
            k += 16
        elif sym == EOB:
            return pos
        else:
            return -1
    return pos


def encode_segment(
    flat: np.ndarray,
    dc_table: HuffmanTable | None,
    ac_table: HuffmanTable | None,
    dc_bit_spans: list | None = None,
) -> bytes:
    """Code (n, 64) zigzag rows as one segment; the DC predictor starts at 0.

    Each block gives its DC difference when dc_table is set, then its AC
    terms when ac_table is set; a None table leaves that class out. Pass a
    list as dc_bit_spans to collect the (start, end) bit range of every DC
    term, for analyses that target one coefficient class.
    """
    writer = BitWriter()
    prev = 0
    for row in flat.tolist():
        if dc_table is not None:
            start = writer.bit_length
            _write_dc(writer, dc_table, row[0] - prev)
            if dc_bit_spans is not None:
                dc_bit_spans.append((start, writer.bit_length))
            prev = row[0]
        if ac_table is not None:
            _write_ac_row(writer, ac_table, row[1:])
    return writer.getvalue()


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
    words, nbits = _words(data), len(data) * 8
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
