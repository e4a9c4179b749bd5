from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imgdna import pipeline
from imgdna.channel import ChannelConfig, perturb_pool
from imgdna.corpus import corpus_image
from imgdna.jpeg import ZIGZAG, coefficient_bounds, forward_transform
from imgdna.streams import (
    EOB,
    ZRL,
    HuffmanTable,
    _words,
    build_tables,
    decode_segment,
    decode_segments,
    encode_segments,
    symbol_counts,
    zigzag_flatten,
    zigzag_unflatten,
)

_ONES = np.ones(64, dtype=np.int64)  # quantizer 1: clamp bounds of +-1024


def encode_segment(flat, dc_table, ac_table):
    """Code (n, 64) zigzag rows as one segment."""
    return encode_segments(flat, [(0, len(flat))], dc_table, ac_table)[0]


def canonical_codes_oracle(lengths):
    """Textbook canonical assignment, independent of the implementation."""
    out = {}
    code = 0
    prev = 0
    for sym in sorted(lengths, key=lambda s: (lengths[s], s)):
        code <<= lengths[sym] - prev
        prev = lengths[sym]
        out[sym] = (code, lengths[sym])
        code += 1
    return out


# -- reference codec ---------------------------------------------------------
#
# The bit-writer encoder, the bit-reader decoders and the per-coefficient
# symbol count that the whole-stream encoder and the table-driven decoder
# replaced, kept as oracles: encode_segments must give the reference
# encoder's bytes and DC bit spans segment by segment, and every value and
# clean flag of decode_segment under DC-only, AC-only and interleaved
# tables must match the reference decoders.


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


def write_symbol(writer, table, symbol):
    code, ln = table._encode[symbol]
    writer.write(code, ln)


def _amplitude(value, size):
    return value if value > 0 else value + (1 << size) - 1


def _write_dc(writer, table, diff):
    size = abs(diff).bit_length()
    write_symbol(writer, table, size)
    if size:
        writer.write(_amplitude(diff, size), size)


def _write_ac_row(writer, table, row):
    run = 0
    for v in row:
        if v == 0:
            run += 1
            continue
        while run >= 16:
            write_symbol(writer, table, ZRL)
            run -= 16
        size = abs(v).bit_length()
        code, ln = table._encode[(run << 4) | size]
        writer.write((code << size) | _amplitude(v, size), ln + size)
        run = 0
    if run:
        write_symbol(writer, table, EOB)


def ref_encode_segment(flat, dc_table, ac_table, dc_bit_spans=None):
    """One segment, codeword by codeword; DC bit spans go to dc_bit_spans."""
    writer = BitWriter()
    prev = 0
    for row in np.asarray(flat).tolist():
        if dc_table is not None:
            start = writer.bit_length
            _write_dc(writer, dc_table, row[0] - prev)
            if dc_bit_spans is not None:
                dc_bit_spans.append((start, writer.bit_length))
            prev = row[0]
        if ac_table is not None:
            _write_ac_row(writer, ac_table, row[1:])
    return writer.getvalue()


class _RefError(ValueError):
    pass


class _RefReader:
    def __init__(self, data):
        self._data = bytes(data)
        self._nbits = len(self._data) * 8
        self.pos = 0

    def symbol(self, codes):
        """Next symbol, matched against {(code, length): symbol}."""
        i = self.pos >> 3
        chunk = self._data[i : i + 3]
        v = int.from_bytes(chunk + b"\xff" * (3 - len(chunk)), "big")
        window = (v >> (8 - (self.pos & 7))) & 0xFFFF
        for ln in range(1, 17):
            sym = codes.get((window >> (16 - ln), ln))
            if sym is not None:
                if ln > self._nbits - self.pos:
                    break
                self.pos += ln
                return sym
        raise _RefError("invalid code")

    def read(self, nbits):
        if nbits == 0:
            return 0
        if self.pos + nbits > self._nbits:
            raise _RefError("bit stream exhausted")
        i = self.pos >> 3
        need = ((self.pos & 7) + nbits + 7) >> 3
        v = int.from_bytes(self._data[i : i + need], "big")
        v >>= need * 8 - (self.pos & 7) - nbits
        self.pos += nbits
        return v & ((1 << nbits) - 1)


def _ref_codes(table):
    return {cl: sym for sym, cl in table._encode.items()}


def _ref_clamp(value, q):
    bound = -(-1024 // int(q))
    return max(-bound, min(bound, value))


def _ref_amplitude(bits, size):
    return bits if bits >> (size - 1) else bits - (1 << size) + 1


def _ref_diff(reader, codes):
    size = reader.symbol(codes)
    return _ref_amplitude(reader.read(size), size) if size else 0


def _ref_ac_term(reader, codes, k):
    sym = reader.symbol(codes)
    if sym == EOB:
        return None, -1
    run, size = sym >> 4, sym & 0xF
    if size == 0:
        if run == 15:
            return None, k + 16
        raise _RefError("bad run/size symbol")
    k += run
    if k >= 63:
        raise _RefError("AC index past block end")
    return _ref_amplitude(reader.read(size), size), k


def ref_decode_dc(data, table, count, quant_dc):
    out = np.zeros(count, dtype=np.int32)
    reader, codes = _RefReader(data), _ref_codes(table)
    prev = 0
    for i in range(count):
        try:
            diff = _ref_diff(reader, codes)
        except _RefError:
            out[i:] = prev
            return out, False
        prev = _ref_clamp(prev + diff, quant_dc)
        out[i] = prev
    return out, True


def _ref_ac_block(reader, codes, row, quant_zig, first):
    k = 0
    while k < 63:
        value, k = _ref_ac_term(reader, codes, k)
        if k < 0:
            break
        if value is not None:
            row[first + k] = _ref_clamp(value, quant_zig[k + 1])
            k += 1


def ref_decode_ac(data, table, count, quant_zig):
    out = np.zeros((count, 63), dtype=np.int32)
    reader, codes = _RefReader(data), _ref_codes(table)
    for b in range(count):
        try:
            _ref_ac_block(reader, codes, out[b], quant_zig, 0)
        except _RefError:
            return out, False
    return out, True


def ref_decode_interleaved(data, dc_table, ac_table, count, quant_zig):
    out = np.zeros((count, 64), dtype=np.int32)
    reader = _RefReader(data)
    dc_codes, ac_codes = _ref_codes(dc_table), _ref_codes(ac_table)
    prev = 0
    for b in range(count):
        try:
            prev = _ref_clamp(prev + _ref_diff(reader, dc_codes), quant_zig[0])
            out[b, 0] = prev
            _ref_ac_block(reader, ac_codes, out[b], quant_zig, 1)
        except _RefError:
            out[b:, 0] = prev
            return out, False
    return out, True


def ref_symbol_counts(flat):
    dc_freqs, ac_freqs = Counter(), Counter()
    prev = 0
    for row in flat:
        dc_freqs[abs(int(row[0]) - prev).bit_length()] += 1
        prev = int(row[0])
        run = 0
        for v in row[1:]:
            if v == 0:
                run += 1
                continue
            while run >= 16:
                ac_freqs[ZRL] += 1
                run -= 16
            ac_freqs[(run << 4) | abs(int(v)).bit_length()] += 1
            run = 0
        if run:
            ac_freqs[EOB] += 1
    return dc_freqs, ac_freqs


def _read_symbols(table, data, n):
    """n symbols through the 16-bit lookup, as the segment decoders read them."""
    words = _words(data)
    syms, lens = table.lookup()
    out, pos = [], 0
    for _ in range(n):
        window = (words[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
        assert 0 < lens[window] <= len(data) * 8 - pos
        out.append(syms[window])
        pos += lens[window]
    return out


# -- bit i/o -----------------------------------------------------------------


def test_bit_writer_pads_with_ones():
    w = BitWriter()
    w.write(0b101, 3)
    assert w.getvalue() == bytes([0b10111111])
    assert w.bit_length == 3


def test_bit_round_trip():
    w = BitWriter()
    fields = [(0b1, 1), (0b0, 1), (0xABC, 12), (0, 3), (0x5A5A, 16)]
    for v, n in fields:
        w.write(v, n)
    words = _words(w.getvalue())
    pos = 0
    for v, n in fields:
        assert (words[pos >> 3] >> (24 - (pos & 7) - n)) & ((1 << n) - 1) == v
        pos += n


def test_amplitude_overrun_fails_segment():
    flat = np.zeros((2, 64), dtype=np.int32)
    flat[:, 0] = [700, 700]
    table, _ = build_tables(flat)
    ln = table.lengths[10]  # code length of category 10, which holds 700
    data = encode_segment(flat[:1], table, None)
    assert ln <= 8 < ln + 10  # the code fits in the first byte, its amplitude does not
    out, clean = decode_segment(data[:1], table, None, 1, _ONES)
    assert not clean
    assert out[:, 0].tolist() == [0]
    assert decode_segment(data, table, None, 1, _ONES)[1]


def test_words_pad_with_ones_past_end():
    words = _words(b"\x00").tolist()
    assert words == [0x00FFFF, 0xFFFFFF]
    assert (words[0] >> 8) & 0xFFFF == 0x00FF


# -- code tables -----------------------------------------------------------


def test_all_ones_codeword_is_reserved():
    rng = np.random.default_rng(0)
    for _ in range(20):
        nsym = int(rng.integers(1, 40))
        freqs = {s: int(rng.integers(1, 500)) for s in range(nsym)}
        table = HuffmanTable.from_frequencies(freqs)
        codes = canonical_codes_oracle(table.lengths)
        for sym, (code, ln) in codes.items():
            assert code != (1 << ln) - 1, sym
        # prefix-free: pad every code to 16 bits and check disjoint ranges
        spans = sorted(
            (code << (16 - ln), (code + 1) << (16 - ln)) for code, ln in codes.values()
        )
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


def test_code_lengths_are_capped_at_sixteen():
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    table = HuffmanTable.from_frequencies({s: f for s, f in enumerate(fib)})
    assert max(table.lengths.values()) == 16
    # still decodable end to end
    w = BitWriter()
    seq = [0, 1, 5, 39, 2, 0, 38]
    for s in seq:
        write_symbol(w, table, s)
    assert _read_symbols(table, w.getvalue(), len(seq)) == seq


def test_single_symbol_table():
    table = HuffmanTable.from_frequencies({EOB: 7})
    assert table.lengths == {EOB: 1}
    w = BitWriter()
    write_symbol(w, table, EOB)
    assert _read_symbols(table, w.getvalue(), 1) == [EOB]


def test_table_rebuilds_from_lengths_alone():
    freqs = {s: (s + 3) ** 2 for s in range(30)}
    a = HuffmanTable.from_frequencies(freqs)
    b = HuffmanTable(dict(a.lengths))
    w = BitWriter()
    for s in range(30):
        write_symbol(w, a, s)
    assert _read_symbols(b, w.getvalue(), 30) == list(range(30))


def test_invalid_length_tables_rejected():
    with pytest.raises(ValueError):
        HuffmanTable({})
    with pytest.raises(ValueError):
        HuffmanTable({0: 17})
    with pytest.raises(ValueError):
        HuffmanTable({0: 1, 1: 1, 2: 1})  # Kraft sum above 1


# -- coefficient streams ---------------------------------------------------


def _random_flat(rng, n):
    """Plausible sparse zigzag rows, values within clamp bounds for q=1."""
    flat = np.zeros((n, 64), dtype=np.int32)
    for i in range(n):
        flat[i, 0] = int(rng.integers(-1024, 1025))
        nz = rng.integers(0, 20)
        cols = rng.choice(63, size=int(nz), replace=False) + 1
        flat[i, cols] = rng.integers(-200, 201, size=cols.size)
    return flat


def test_dc_segment_round_trip():
    rng = np.random.default_rng(1)
    values = rng.integers(-1000, 1001, size=50)
    flat = np.concatenate([values[:, None], np.zeros((50, 63), int)], axis=1)
    table, _ = build_tables(flat)
    data = encode_segment(flat, table, None)
    out, clean = decode_segment(data, table, None, 50, _ONES)
    assert clean
    assert np.array_equal(out[:, 0], values)


def test_dc_predictor_restarts_per_segment():
    flat = np.zeros((4, 64), dtype=np.int32)
    flat[:, 0] = [100, 101, 102, 103]
    table, _ = build_tables(flat)
    second = encode_segment(flat[2:], table, None)
    out, clean = decode_segment(second, table, None, 2, _ONES)
    assert clean
    # decodes alone: the diff chain does not lean on the first segment
    assert out[:, 0].tolist() == [102, 103]


def test_ac_segment_round_trip_covers_zrl_and_eob():
    rows = np.zeros((4, 63), dtype=np.int32)
    rows[0, 0] = 5  # immediate term, trailing zeros -> EOB
    rows[1, 40] = -3  # long zero runs -> ZRL codes
    rows[2, :] = 1  # fully dense -> no EOB
    # rows[3] all zero -> EOB only
    flat = np.concatenate([np.zeros((4, 1), int), rows], axis=1)
    _, table = build_tables(flat)
    data = encode_segment(flat, None, table)
    out, clean = decode_segment(data, None, table, 4, _ONES)
    assert clean
    assert np.array_equal(out[:, 1:], rows)


def test_interleaved_round_trip():
    rng = np.random.default_rng(2)
    flat = _random_flat(rng, 30)
    dc_table, ac_table = build_tables(flat)
    data = encode_segment(flat, dc_table, ac_table)
    out, clean = decode_segment(data, dc_table, ac_table, 30, _ONES)
    assert clean
    assert np.array_equal(out, flat)


def test_truncated_ac_stream_fills_zeros_without_raising():
    rng = np.random.default_rng(3)
    flat = _random_flat(rng, 20)
    _, table = build_tables(flat)
    data = encode_segment(flat, None, table)
    out, clean = decode_segment(data[: len(data) // 2], None, table, 20, _ONES)
    assert not clean
    assert out[:, 1:].shape == (20, 63)


def test_truncated_dc_stream_repeats_last_value():
    flat = np.concatenate([np.full((8, 1), 9, int), np.zeros((8, 63), int)], axis=1)
    table, _ = build_tables(flat)
    data = encode_segment(flat, table, None)
    out, clean = decode_segment(data[:1], table, None, 8, _ONES)
    out = out[:, 0]
    assert not clean
    assert out.shape == (8,)
    assert len(set(out[np.flatnonzero(out != out[0])])) <= 1  # single fill level


def test_garbage_bytes_never_raise():
    rng = np.random.default_rng(4)
    flat = _random_flat(rng, 10)
    dc_table, ac_table = build_tables(flat)
    for _ in range(50):
        junk = rng.integers(0, 256, size=rng.integers(0, 60)).astype(np.uint8).tobytes()
        decode_segment(junk, dc_table, None, 10, np.full(64, 16, np.int64))
        decode_segment(junk, None, ac_table, 10, np.full(64, 16, np.int64))
        decode_segment(junk, dc_table, ac_table, 10, np.full(64, 16, np.int64))


def test_decoded_garbage_respects_clamp_bounds():
    rng = np.random.default_rng(5)
    flat = _random_flat(rng, 10)
    dc_table, ac_table = build_tables(flat)
    for _ in range(200):
        junk = rng.integers(0, 256, size=40).astype(np.uint8).tobytes()
        out, _ = decode_segment(junk, None, ac_table, 10, np.full(64, 16, np.int64))
        assert np.abs(out).max() <= -(-1024 // 16)
        dc, _ = decode_segment(junk, dc_table, None, 10, np.full(64, 16, np.int64))
        assert np.abs(dc).max() <= -(-1024 // 16)


def test_zigzag_flatten_unflatten_identity():
    rng = np.random.default_rng(6)
    blocks = rng.integers(-100, 101, size=(12, 8, 8)).astype(np.int32)
    assert np.array_equal(zigzag_unflatten(zigzag_flatten(blocks)), blocks)


def _encode_segments(blocks):
    """Whole-image DC and AC segments plus their code tables."""
    flat = zigzag_flatten(blocks)
    dc_table, ac_table = build_tables(flat)
    dc_data = encode_segment(flat, dc_table, None)
    ac_data = encode_segment(flat, None, ac_table)
    return dc_data, ac_data, dc_table, ac_table


def _segment_round_trip(blocks, quant_table):
    """Blocks through the DC and AC segment codecs; returns (blocks, clean)."""
    dc_data, ac_data, dc_table, ac_table = _encode_segments(blocks)
    quant_zig = quant_table.reshape(64)[ZIGZAG]
    n = blocks.shape[0]
    dc, dc_ok = decode_segment(dc_data, dc_table, None, n, quant_zig)
    ac, ac_ok = decode_segment(ac_data, None, ac_table, n, quant_zig)
    return zigzag_unflatten(np.concatenate([dc[:, :1], ac[:, 1:]], axis=1)), dc_ok and ac_ok


def test_streams_are_lossless_for_real_images():
    rng = np.random.default_rng(7)
    image = (rng.normal(128, 40, size=(64, 72)).clip(0, 255)).astype(np.uint8)
    blocks, meta = forward_transform(image, quality=75)
    out, clean = _segment_round_trip(blocks, meta.quant_table)
    assert clean
    assert np.array_equal(out, blocks)


def test_all_black_image_survives_entropy_round_trip():
    # DC quantizes to round(-1024/13) = -79, one above 1024 // 13
    image = np.zeros((24, 24), dtype=np.uint8)
    blocks, meta = forward_transform(image, quality=60)
    assert meta.quant_table[0, 0] == 13
    assert blocks[0, 0, 0] == -79
    assert coefficient_bounds(13) == 79
    out, clean = _segment_round_trip(blocks, meta.quant_table)
    assert clean
    assert np.array_equal(out, blocks)


def test_encoding_is_deterministic():
    rng = np.random.default_rng(8)
    image = (rng.normal(120, 50, size=(48, 48)).clip(0, 255)).astype(np.uint8)
    blocks, meta = forward_transform(image)
    a_dc, a_ac, a_dc_table, _ = _encode_segments(blocks)
    b_dc, b_ac, b_dc_table, _ = _encode_segments(blocks)
    assert a_dc == b_dc
    assert a_ac == b_ac
    assert a_dc_table.lengths == b_dc_table.lengths


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 25))
def test_stream_round_trip_property(seed, n):
    rng = np.random.default_rng(seed)
    flat = _random_flat(rng, n)
    dc_table, ac_table = build_tables(flat)
    dc_data = encode_segment(flat, dc_table, None)
    ac_data = encode_segment(flat, None, ac_table)
    dc, dc_ok = decode_segment(dc_data, dc_table, None, n, _ONES)
    ac, ac_ok = decode_segment(ac_data, None, ac_table, n, _ONES)
    assert dc_ok and ac_ok
    assert np.array_equal(dc[:, 0], flat[:, 0])
    assert np.array_equal(ac[:, 1:], flat[:, 1:])


# -- oracle fuzz: table-driven codec against the reference ------------------


@lru_cache(maxsize=None)
def _corpus_case(image, quality):
    """Zigzag rows, code tables and zigzag quant table of one corpus image."""
    blocks, meta = forward_transform(corpus_image(image), quality)
    flat = zigzag_flatten(blocks)
    return (flat, *build_tables(flat), meta.quant_table.reshape(64)[ZIGZAG])


def _assert_decoders_match_reference(data, dc_table, ac_table, count, quant_zig):
    got = decode_segment(data, dc_table, None, count, quant_zig)
    want = ref_decode_dc(data, dc_table, count, int(quant_zig[0]))
    assert got[1] == want[1] and np.array_equal(got[0][:, 0], want[0])
    assert not got[0][:, 1:].any()
    got = decode_segment(data, None, ac_table, count, quant_zig)
    want = ref_decode_ac(data, ac_table, count, quant_zig)
    assert got[1] == want[1] and np.array_equal(got[0][:, 1:], want[0])
    assert not got[0][:, 0].any()
    got = decode_segment(data, dc_table, ac_table, count, quant_zig)
    want = ref_decode_interleaved(data, dc_table, ac_table, count, quant_zig)
    assert got[1] == want[1] and np.array_equal(got[0], want[0])


_IMAGES = st.integers(0, 15)
_QUALITIES = st.sampled_from([10, 50, 75, 95])


@settings(max_examples=300, deadline=None)
@given(_IMAGES, _QUALITIES, st.binary(max_size=80), st.integers(0, 12))
def test_decoders_match_reference_on_junk(image, quality, junk, count):
    _, dc_table, ac_table, quant_zig = _corpus_case(image, quality)
    _assert_decoders_match_reference(junk, dc_table, ac_table, count, quant_zig)


@settings(max_examples=300, deadline=None)
@given(
    _IMAGES,
    _QUALITIES,
    st.integers(0, 2**32 - 1),
    st.sampled_from(["dc", "ac", "interleaved"]),
    st.integers(0, 6),
    st.booleans(),
)
def test_decoders_match_reference_on_damaged_segments(image, quality, seed, kind, flips, cut):
    flat, dc_table, ac_table, quant_zig = _corpus_case(image, quality)
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 13))
    b0 = int(rng.integers(0, flat.shape[0] - count + 1))
    tables = {"dc": (dc_table, None), "ac": (None, ac_table), "interleaved": (dc_table, ac_table)}
    data = encode_segment(flat[b0 : b0 + count], *tables[kind])
    damaged = bytearray(data)
    for bit in rng.integers(0, len(data) * 8, size=flips):
        damaged[bit >> 3] ^= 0x80 >> (bit & 7)
    if cut:
        damaged = damaged[: int(rng.integers(0, len(damaged) + 1))]
    _assert_decoders_match_reference(bytes(damaged), dc_table, ac_table, count, quant_zig)


def test_wide_dc_categories_match_reference():
    # categories above 16 never come from build_tables, only from hand-made
    # tables; their differences clamp to the bound
    dc_table = HuffmanTable({0: 2, 3: 2, 17: 2, 20: 3, 255: 3})
    _, _, ac_table, quant_zig = _corpus_case(0, 75)
    rng = np.random.default_rng(9)
    for _ in range(300):
        junk = rng.integers(0, 256, size=rng.integers(0, 120)).astype(np.uint8).tobytes()
        _assert_decoders_match_reference(junk, dc_table, ac_table, 6, quant_zig)


def test_symbols_above_one_byte_are_rejected():
    with pytest.raises(ValueError):
        HuffmanTable({0: 1, 0x100: 1})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_symbol_counts_match_reference_on_sparse_rows(seed, n):
    flat = _random_flat(np.random.default_rng(seed), n)
    assert symbol_counts(flat) == ref_symbol_counts(flat)


@pytest.mark.parametrize("quality", [10, 50, 75, 95])
def test_symbol_counts_match_reference_on_corpus(quality):
    for image in (0, 5, 10, 15):
        flat = _corpus_case(image, quality)[0]
        assert symbol_counts(flat) == ref_symbol_counts(flat)


# -- whole-stream encoder against the reference -------------------------------

_RUNS = st.sampled_from([0, 1, 5, 15, 16, 17, 31, 32, 47, 62])


def _amplitudes(draw):
    size = draw(st.integers(1, 10))
    return draw(st.integers(1 << (size - 1), (1 << size) - 1)) * draw(st.sampled_from([-1, 1]))


@st.composite
def _coded_blocks(draw):
    """Zigzag rows with DC differences of categories 0-11 and AC rows of
    runs of up to 62 zeros, some with a nonzero 63rd term."""
    n = draw(st.integers(1, 24))
    flat = np.zeros((n, 64), dtype=np.int32)
    prev = 0
    for i in range(n):
        category = draw(st.integers(0, 11))
        diff = 0
        if category:
            diff = draw(st.integers(1 << (category - 1), (1 << category) - 1))
        if prev + diff > 2047 or (prev - diff >= -2047 and draw(st.booleans())):
            diff = -diff  # keeps every DC value within +-2047
        flat[i, 0] = prev = prev + diff
        k = 0
        for run in draw(st.lists(_RUNS, max_size=6)):
            k += run
            if k >= 63:
                break
            flat[i, k + 1] = _amplitudes(draw)
            k += 1
        if draw(st.booleans()):
            flat[i, 63] = _amplitudes(draw)
    return flat


@settings(max_examples=300, deadline=None)
@given(
    _coded_blocks(),
    st.lists(st.integers(0, 24), max_size=6),
    st.sampled_from(["dc", "ac", "interleaved"]),
)
def test_encode_segments_match_reference(flat, cuts, kind):
    n = len(flat)
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    plan = list(zip(bounds, bounds[1:]))  # one-block, many-block and empty segments
    dc_table, ac_table = build_tables(flat)
    tables = {"dc": (dc_table, None), "ac": (None, ac_table), "interleaved": (dc_table, ac_table)}
    data, sizes, dc_spans = encode_segments(flat, plan, *tables[kind])
    want, want_spans, at = [], [], 0
    for b0, b1 in plan:
        spans = []
        want.append(ref_encode_segment(flat[b0:b1], *tables[kind], spans))
        want_spans += [[8 * at + s, 8 * at + e] for s, e in spans]
        at += len(want[-1])
    assert sizes.tolist() == [len(w) for w in want]
    assert data == b"".join(want)
    assert dc_spans.tolist() == want_spans
    assert encode_segment(flat, *tables[kind]) == ref_encode_segment(flat, *tables[kind])


@pytest.mark.parametrize("quality", [1, 10, 75, 95, 100])
def test_encode_segments_match_reference_on_corpus(quality):
    for image in (0, 7, 15):
        blocks, _ = forward_transform(corpus_image(image), quality)
        flat = zigzag_flatten(blocks)
        dc_table, ac_table = build_tables(flat)
        n = len(flat)
        for plan, tables in (
            ([(b, min(b + 6, n)) for b in range(0, n, 6)], (dc_table, None)),
            ([(b, b + 1) for b in range(n)], (None, ac_table)),
            ([(0, n)], (dc_table, ac_table)),
        ):
            data, sizes, _ = encode_segments(flat, plan, *tables)
            want = [ref_encode_segment(flat[b0:b1], *tables) for b0, b1 in plan]
            assert sizes.tolist() == [len(w) for w in want]
            assert data == b"".join(want)


def test_encode_segments_reject_ranges_that_do_not_follow_one_another():
    flat = np.zeros((4, 64), dtype=np.int32)
    dc_table, _ = build_tables(flat)
    for plan in ([(0, 1), (2, 4)], [(0, 2), (1, 4)], [(2, 1)]):
        with pytest.raises(ValueError, match="follow"):
            encode_segments(flat, plan, dc_table, None)


def test_encode_segments_reject_symbols_without_a_codeword():
    flat = np.zeros((2, 64), dtype=np.int32)
    flat[1, 5] = 3
    _, ac_table = build_tables(flat[:1])  # knows EOB only
    with pytest.raises(ValueError, match="no codeword"):
        encode_segment(flat, None, ac_table)


# -- lockstep decoder against the segment decoder -----------------------------


def _assert_lockstep_matches_segment_decoder(datas, counts, dc_table, ac_table, quant_zig):
    rows, clean = decode_segments(datas, counts, dc_table, ac_table, quant_zig)
    assert rows.shape == (sum(counts), 64) and clean.shape == (len(datas),)
    at = 0
    for data, count, ok in zip(datas, counts, clean):
        want, want_ok = decode_segment(data, dc_table, ac_table, count, quant_zig)
        assert ok == want_ok
        assert np.array_equal(rows[at : at + count], want)
        at += count
    return rows, clean


def _decoded_ac_streams(monkeypatch, image, scheme, rate):
    """The AC segments decode_pool hands to decode_segments for one noisy pool."""
    calls = []

    def spy(datas, counts, dc_table, ac_table, quant_zig):
        calls.append((datas, counts, dc_table, ac_table, quant_zig))
        return decode_segments(datas, counts, dc_table, ac_table, quant_zig)

    monkeypatch.setattr(pipeline, "decode_segments", spy)
    enc = pipeline.encode_image(corpus_image(image), pipeline.ExperimentConfig(scheme=scheme))
    pool = perturb_pool(enc.strands, ChannelConfig(rate=rate), 17, pipeline._primer_bounds(enc))
    pipeline.decode_pool(pool, enc.mapping, enc.metadata)
    assert len(calls) == 2  # one call per stream
    [(datas, counts, dc_table, ac_table, quant_zig)] = [c for c in calls if c[3] is not None]
    assert dc_table is None and set(counts) == {1}
    return datas, ac_table, quant_zig


@pytest.mark.parametrize("scheme", [pipeline.SCHEME_IMG_DNA, pipeline.SCHEME_NO_BARRIER])
@pytest.mark.parametrize("image", [0, 7])
@pytest.mark.parametrize("rate", [0.0, 0.01, 0.05])
def test_lockstep_ac_decode_matches_segment_decoder_on_noisy_streams(
    monkeypatch, scheme, image, rate
):
    datas, ac_table, quant_zig = _decoded_ac_streams(monkeypatch, image, scheme, rate)
    _, clean = _assert_lockstep_matches_segment_decoder(
        datas, [1] * len(datas), None, ac_table, quant_zig
    )
    assert clean.all() == (rate == 0)


_AC_SEGMENT_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["junk", "ones", "cut", "flip"]),
        st.binary(max_size=48),
        st.integers(0, 2**16),  # first block
        st.integers(0, 12),  # block count
        st.integers(0, 2**16),  # where to cut or flip, or how many 0xFF bytes
    ),
    max_size=20,
)


def _damaged_segments(flat, tables, specs):
    """(datas, counts) of real segments of 0 to 12 blocks, cut short or with
    a bit flipped, and of junk bytes or runs of 0xFF bytes."""
    datas, counts = [], []
    for kind, junk, block, count, at in specs:
        b = block % (len(flat) - count + 1)
        data = encode_segment(flat[b : b + count], *tables)
        if kind == "junk":
            data = junk
        elif kind == "ones":
            data = b"\xff" * (at % 49)
        elif kind == "cut":
            data = data[: at % (len(data) + 1)]
        elif data:
            flipped = bytearray(data)
            flipped[at % len(data)] ^= 1 << (at >> 8) % 8
            data = bytes(flipped)
        datas.append(data)
        counts.append(count)
    return datas, counts


@settings(max_examples=300, deadline=None)
@given(_IMAGES, _QUALITIES, _AC_SEGMENT_SPECS)
def test_lockstep_ac_decode_matches_segment_decoder_on_junk(image, quality, specs):
    # real multi-block AC segments cut short or with a bit flipped, and junk
    # bytes, of 0 to 12 blocks each, decoded side by side
    flat, _, ac_table, quant_zig = _corpus_case(image, quality)
    datas, counts = _damaged_segments(flat, (None, ac_table), specs)
    _assert_lockstep_matches_segment_decoder(datas, counts, None, ac_table, quant_zig)


def test_lockstep_ac_decode_matches_segment_decoder_on_zero_runs():
    # one to three terms per block leave runs of 16 zeros and more, so the
    # blocks carry ZRLs, and every cut and bit flip of them is decoded
    rng = np.random.default_rng(5)
    flat = np.zeros((200, 64), dtype=np.int32)
    for row in flat:
        cols = rng.choice(63, size=int(rng.integers(1, 4)), replace=False) + 1
        row[cols] = rng.integers(1, 60, size=cols.size) * rng.choice([-1, 1], size=cols.size)
    _, ac_table = build_tables(flat)
    assert ac_table.lengths.get(ZRL)
    datas = []
    for row in flat[:, None]:
        data = encode_segment(row, None, ac_table)
        datas += [data[:cut] for cut in range(len(data) + 1)]
        flipped = bytearray(data)
        flipped[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
        datas.append(bytes(flipped))
    _, clean = _assert_lockstep_matches_segment_decoder(
        datas, [1] * len(datas), None, ac_table, _ONES
    )
    assert clean.any() and not clean.all()


def test_lockstep_ac_decode_clamps_like_segment_decoder(monkeypatch):
    # a coarse quantizer gives clamp bounds of 5 to 7, so noisy and junk
    # terms hit them
    quant_zig = np.arange(150, 214)
    datas, ac_table, _ = _decoded_ac_streams(monkeypatch, 0, pipeline.SCHEME_IMG_DNA, 0.05)
    rng = np.random.default_rng(3)
    datas = datas + [rng.bytes(int(n)) for n in rng.integers(0, 40, size=200)]
    rows, _ = _assert_lockstep_matches_segment_decoder(
        datas, [1] * len(datas), None, ac_table, quant_zig
    )
    bound = coefficient_bounds(quant_zig)
    assert (np.abs(rows) == bound).any()
    assert (np.abs(rows) <= bound).all()


_DC_SEGMENT_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["junk", "cut", "flip"]),
        st.binary(max_size=24),
        st.integers(0, 2**16),  # first block
        st.integers(0, 12),  # block count
        st.integers(0, 2**16),  # where to cut or flip
    ),
    max_size=20,
)


@settings(max_examples=300, deadline=None)
@given(_IMAGES, _QUALITIES, _DC_SEGMENT_SPECS)
def test_lockstep_dc_decode_matches_segment_decoder_on_junk(image, quality, specs):
    # real DC segments cut short or with a bit flipped, and junk bytes, of
    # 0 to 12 blocks each, decoded side by side
    flat, dc_table, _, quant_zig = _corpus_case(image, quality)
    datas, counts = _damaged_segments(flat, (dc_table, None), specs)
    _assert_lockstep_matches_segment_decoder(datas, counts, dc_table, None, quant_zig)


def test_lockstep_dc_decode_edge_cases():
    # categories 0, 5 and 11 have the codewords 00, 01 and 10, and a
    # quantizer of 200 clamps DC values at +-6
    table = HuffmanTable({0: 2, 5: 2, 11: 2})
    quant_zig = np.full(64, 200)
    cases = [
        (b"", 0, True, []),  # no blocks
        (b"", 2, False, [0, 0]),  # no codeword at all
        (b"\x7f", 1, True, [6]),  # 01 11111: +31 clamps to +6
        (b"\x5f", 1, True, [-6]),  # 01 01111: -16 clamps to -6
        (b"\x7c", 2, False, [6, 6]),  # +30 clamps, then the code runs out
        # 10 wants 11 amplitude bits and 6 are left: the segment ends
        # mid-amplitude, though the next segment's bytes follow it
        (b"\x80", 1, False, [0]),
        (b"\x00\x00", 3, True, [0, 0, 0]),
    ]
    datas, counts, clean, dc = zip(*cases)
    rows, got = _assert_lockstep_matches_segment_decoder(
        list(datas), list(counts), table, None, quant_zig
    )
    assert got.tolist() == list(clean)
    assert rows[:, 0].tolist() == [v for values in dc for v in values]
    assert not rows[:, 1:].any()


def test_lockstep_dc_decode_of_wide_categories_matches_segment_decoder():
    # categories above 16 come only from hand-made tables (see _dc_diff)
    dc_table = HuffmanTable({0: 2, 3: 2, 17: 2, 20: 3, 255: 3})
    rng = np.random.default_rng(11)
    for quant_zig in (_ONES, np.full(64, 200)):
        counts = rng.integers(0, 9, size=300).tolist()
        datas = [rng.bytes(int(n)) for n in rng.integers(0, 40, size=300)]
        rows, clean = _assert_lockstep_matches_segment_decoder(
            datas, counts, dc_table, None, quant_zig
        )
        bound = coefficient_bounds(quant_zig)[0]
        assert (np.abs(rows[:, 0]) == bound).any() and clean.any() and not clean.all()


@settings(max_examples=100, deadline=None)
@given(_IMAGES, _QUALITIES, _AC_SEGMENT_SPECS)
def test_interleaved_segments_decode_as_the_segment_decoder(image, quality, specs):
    # with both tables every segment goes through decode_segment on its own
    flat, dc_table, ac_table, quant_zig = _corpus_case(image, quality)
    datas, counts = _damaged_segments(flat, (dc_table, ac_table), specs)
    _assert_lockstep_matches_segment_decoder(datas, counts, dc_table, ac_table, quant_zig)
