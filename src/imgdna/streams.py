"""Entropy coding of quantized coefficient blocks.

DC terms are difference-coded as (category, amplitude bits); AC terms are
run-length coded with (run, size) symbols plus end-of-block and
sixteen-zeros markers, as in baseline JPEG. Code tables are canonical
Huffman built per image from symbol counts, with the all-ones codeword
reserved so byte padding never decodes as data.

Streams may be cut into segments of whole blocks. Each segment restarts
the DC predictor and is padded to a whole byte, so a damaged segment can
be skipped without poisoning its neighbours. A decode failure zero-fills
the remainder of the segment being decoded.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .jpeg import ZIGZAG, clamp_quantized

EOB = 0x00  # end of block: all remaining AC terms are zero
ZRL = 0xF0  # sixteen zero AC terms
MAX_CODE_LENGTH = 16
_RESERVED = 0x100  # pseudo-symbol holding the all-ones codeword


class StreamDecodeError(ValueError):
    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} at bit {bit_offset}")
        self.bit_offset = bit_offset


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


class BitReader:
    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._nbits = len(self._data) * 8
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def bits_left(self) -> int:
        return self._nbits - self._pos

    def peek16(self) -> int:
        """Next 16 bits, padded with 1s past the end of the data."""
        i = self._pos >> 3
        chunk = self._data[i : i + 3]
        v = int.from_bytes(chunk + b"\xff" * (3 - len(chunk)), "big")
        return (v >> (8 - (self._pos & 7))) & 0xFFFF

    def skip(self, nbits: int) -> None:
        self._pos += nbits

    def read(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        if self._pos + nbits > self._nbits:
            raise StreamDecodeError("bit stream exhausted", self._pos)
        i = self._pos >> 3
        need = ((self._pos & 7) + nbits + 7) >> 3
        v = int.from_bytes(self._data[i : i + need], "big")
        v >>= need * 8 - (self._pos & 7) - nbits
        self._pos += nbits
        return v & ((1 << nbits) - 1)


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
    _sym: list = field(repr=False, compare=False, default=None)
    _len: list = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("empty code table")
        if max(self.lengths.values()) > MAX_CODE_LENGTH:
            raise ValueError("code length above 16")
        if sum(2 ** (MAX_CODE_LENGTH - ln) for ln in self.lengths.values()) > (
            1 << MAX_CODE_LENGTH
        ):
            raise ValueError("code lengths violate the Kraft bound")
        self._encode = _canonical_codes(self.lengths)
        sym = np.full(1 << 16, -1, dtype=np.int32)
        ln_arr = np.zeros(1 << 16, dtype=np.uint8)
        for s, (code, ln) in self._encode.items():
            lo = code << (MAX_CODE_LENGTH - ln)
            hi = lo + (1 << (MAX_CODE_LENGTH - ln))
            sym[lo:hi] = s
            ln_arr[lo:hi] = ln
        self._sym = sym.tolist()
        self._len = ln_arr.tolist()

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

    def decode_one(self, reader: BitReader) -> int:
        window = reader.peek16()
        ln = self._len[window]
        if ln == 0 or ln > reader.bits_left:
            raise StreamDecodeError("invalid code", reader.position)
        reader.skip(ln)
        return self._sym[window]


def dc_category(diff: int) -> int:
    return abs(int(diff)).bit_length()


def _amplitude(value: int, size: int) -> int:
    return value if value > 0 else value + (1 << size) - 1


def _amplitude_value(bits: int, size: int) -> int:
    if bits >> (size - 1):
        return bits
    return bits - (1 << size) + 1


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
    """
    dc_freqs: Counter = Counter()
    ac_freqs: Counter = Counter()
    prev = 0
    for row in flat:
        dc_freqs[dc_category(int(row[0]) - prev)] += 1
        prev = int(row[0])
        run = 0
        for v in row[1:]:
            if v == 0:
                run += 1
                continue
            while run >= 16:
                ac_freqs[ZRL] += 1
                run -= 16
            ac_freqs[(run << 4) | dc_category(int(v))] += 1
            run = 0
        if run:
            ac_freqs[EOB] += 1
    return dc_freqs, ac_freqs


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


def _write_ac_row(writer: BitWriter, table: HuffmanTable, row) -> None:
    run = 0
    for v in row:
        v = int(v)
        if v == 0:
            run += 1
            continue
        while run >= 16:
            table.write(writer, ZRL)
            run -= 16
        size = dc_category(v)
        table.write(writer, (run << 4) | size)
        writer.write(_amplitude(v, size), size)
        run = 0
    if run:
        table.write(writer, EOB)


def encode_dc_segment(dc_values, table: HuffmanTable) -> bytes:
    """Difference-code a run of DC values; the predictor starts at 0."""
    writer = BitWriter()
    prev = 0
    for v in dc_values:
        _write_dc(writer, table, int(v) - prev)
        prev = int(v)
    return writer.getvalue()


def decode_dc_segment(
    data: bytes, table: HuffmanTable, count: int, quant_dc: int
) -> tuple[np.ndarray, bool]:
    """Returns (values, clean). On damage the remaining diffs become 0."""
    out = np.zeros(count, dtype=np.int32)
    reader = BitReader(data)
    prev = 0
    for i in range(count):
        try:
            size = table.decode_one(reader)
            diff = _amplitude_value(reader.read(size), size) if size else 0
        except StreamDecodeError:
            out[i:] = prev
            return out, False
        prev = clamp_quantized(prev + diff, quant_dc)
        out[i] = prev
    return out, True


def encode_ac_segment(ac_rows: np.ndarray, table: HuffmanTable) -> bytes:
    writer = BitWriter()
    for row in ac_rows:
        _write_ac_row(writer, table, row)
    return writer.getvalue()


def decode_ac_segment(
    data: bytes, table: HuffmanTable, count: int, quant_zig: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Returns ((count, 63) AC terms, clean); damage zero-fills the rest."""
    out = np.zeros((count, 63), dtype=np.int32)
    reader = BitReader(data)
    for b in range(count):
        k = 0
        while k < 63:
            try:
                value, k = _read_ac_term(reader, table, k)
            except StreamDecodeError:
                return out, False
            if k < 0:  # end of block
                break
            if value is not None:
                out[b, k] = clamp_quantized(value, int(quant_zig[k + 1]))
                k += 1
    return out, True


def _read_ac_term(reader: BitReader, table: HuffmanTable, k: int):
    """One AC symbol: (None, new_k) for ZRL, (value, k) for a term,
    (None, -1) for end of block. Structural nonsense raises."""
    sym = table.decode_one(reader)
    if sym == EOB:
        return None, -1
    run, size = sym >> 4, sym & 0xF
    if size == 0:
        if run == 15:
            return None, k + 16
        raise StreamDecodeError("bad run/size symbol", reader.position)
    k += run
    if k >= 63:
        raise StreamDecodeError("AC index past block end", reader.position)
    return _amplitude_value(reader.read(size), size), k


def encode_interleaved_segment(
    flat: np.ndarray,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
    dc_bit_spans: list | None = None,
) -> bytes:
    """Blocks as DC diff + AC terms back to back in one bit stream.

    Pass a list as dc_bit_spans to collect the (start, end) bit range of
    every DC term, for analyses that target one coefficient class.
    """
    writer = BitWriter()
    prev = 0
    for row in flat:
        start = writer.bit_length
        _write_dc(writer, dc_table, int(row[0]) - prev)
        if dc_bit_spans is not None:
            dc_bit_spans.append((start, writer.bit_length))
        prev = int(row[0])
        _write_ac_row(writer, ac_table, row[1:])
    return writer.getvalue()


def decode_interleaved_segment(
    data: bytes,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
    count: int,
    quant_zig: np.ndarray,
) -> tuple[np.ndarray, bool]:
    out = np.zeros((count, 64), dtype=np.int32)
    reader = BitReader(data)
    prev = 0
    for b in range(count):
        try:
            size = dc_table.decode_one(reader)
            diff = _amplitude_value(reader.read(size), size) if size else 0
            prev = clamp_quantized(prev + diff, int(quant_zig[0]))
            out[b, 0] = prev
            k = 0
            while k < 63:
                value, k = _read_ac_term(reader, ac_table, k)
                if k < 0:
                    break
                if value is not None:
                    out[b, k + 1] = clamp_quantized(value, int(quant_zig[k + 1]))
                    k += 1
        except StreamDecodeError:
            out[b:, 0] = prev  # frozen predictor; AC stays zero
            return out, False
    return out, True
