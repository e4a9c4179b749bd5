import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imgdna.jpeg import ZIGZAG, clamp_quantized, forward_transform
from imgdna.streams import (
    EOB,
    ZRL,
    BitReader,
    BitWriter,
    HuffmanTable,
    StreamDecodeError,
    build_tables,
    decode_ac_segment,
    decode_dc_segment,
    decode_interleaved_segment,
    encode_ac_segment,
    encode_dc_segment,
    encode_interleaved_segment,
    zigzag_flatten,
    zigzag_unflatten,
)


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


# -- bit i/o ---------------------------------------------------------------


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
    r = BitReader(w.getvalue())
    for v, n in fields:
        assert r.read(n) == v


def test_bit_reader_overrun_raises():
    r = BitReader(b"\xff")
    r.read(8)
    with pytest.raises(StreamDecodeError):
        r.read(1)


def test_peek_pads_with_ones_past_end():
    r = BitReader(b"\x00")
    assert r.peek16() == 0x00FF


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
        table.write(w, s)
    r = BitReader(w.getvalue())
    assert [table.decode_one(r) for _ in seq] == seq


def test_single_symbol_table():
    table = HuffmanTable.from_frequencies({EOB: 7})
    assert table.lengths == {EOB: 1}
    w = BitWriter()
    table.write(w, EOB)
    r = BitReader(w.getvalue())
    assert table.decode_one(r) == EOB


def test_table_rebuilds_from_lengths_alone():
    freqs = {s: (s + 3) ** 2 for s in range(30)}
    a = HuffmanTable.from_frequencies(freqs)
    b = HuffmanTable(dict(a.lengths))
    w = BitWriter()
    for s in range(30):
        a.write(w, s)
    r = BitReader(w.getvalue())
    assert [b.decode_one(r) for _ in range(30)] == list(range(30))


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
    table, _ = build_tables(np.concatenate([values[:, None], np.zeros((50, 63), int)], axis=1))
    data = encode_dc_segment(values, table)
    out, clean = decode_dc_segment(data, table, 50, 1)
    assert clean
    assert np.array_equal(out, values)


def test_dc_predictor_restarts_per_segment():
    flat = np.zeros((4, 64), dtype=np.int32)
    flat[:, 0] = [100, 101, 102, 103]
    table, _ = build_tables(flat)
    second = encode_dc_segment([102, 103], table)
    out, clean = decode_dc_segment(second, table, 2, 1)
    assert clean
    # decodes alone: the diff chain does not lean on the first segment
    assert out.tolist() == [102, 103]


def test_ac_segment_round_trip_covers_zrl_and_eob():
    rows = np.zeros((4, 63), dtype=np.int32)
    rows[0, 0] = 5  # immediate term, trailing zeros -> EOB
    rows[1, 40] = -3  # long zero runs -> ZRL codes
    rows[2, :] = 1  # fully dense -> no EOB
    # rows[3] all zero -> EOB only
    _, table = build_tables(np.concatenate([np.zeros((4, 1), int), rows], axis=1))
    data = encode_ac_segment(rows, table)
    out, clean = decode_ac_segment(data, table, 4, np.ones(64, dtype=np.int64))
    assert clean
    assert np.array_equal(out, rows)


def test_interleaved_round_trip():
    rng = np.random.default_rng(2)
    flat = _random_flat(rng, 30)
    dc_table, ac_table = build_tables(flat)
    data = encode_interleaved_segment(flat, dc_table, ac_table)
    out, clean = decode_interleaved_segment(
        data, dc_table, ac_table, 30, np.ones(64, dtype=np.int64)
    )
    assert clean
    assert np.array_equal(out, flat)


def test_truncated_ac_stream_fills_zeros_without_raising():
    rng = np.random.default_rng(3)
    flat = _random_flat(rng, 20)
    _, table = build_tables(flat)
    data = encode_ac_segment(flat[:, 1:], table)
    out, clean = decode_ac_segment(data[: len(data) // 2], table, 20, np.ones(64, np.int64))
    assert not clean
    assert out.shape == (20, 63)


def test_truncated_dc_stream_repeats_last_value():
    table, _ = build_tables(np.concatenate([np.full((8, 1), 9, int), np.zeros((8, 63), int)], axis=1))
    data = encode_dc_segment([9] * 8, table)
    out, clean = decode_dc_segment(data[:1], table, 8, 1)
    assert not clean
    assert out.shape == (8,)
    assert len(set(out[np.flatnonzero(out != out[0])])) <= 1  # single fill level


def test_garbage_bytes_never_raise():
    rng = np.random.default_rng(4)
    flat = _random_flat(rng, 10)
    dc_table, ac_table = build_tables(flat)
    for _ in range(50):
        junk = rng.integers(0, 256, size=rng.integers(0, 60)).astype(np.uint8).tobytes()
        decode_dc_segment(junk, dc_table, 10, 16)
        decode_ac_segment(junk, ac_table, 10, np.full(64, 16, np.int64))
        decode_interleaved_segment(junk, dc_table, ac_table, 10, np.full(64, 16, np.int64))


def test_decoded_garbage_respects_clamp_bounds():
    rng = np.random.default_rng(5)
    flat = _random_flat(rng, 10)
    dc_table, ac_table = build_tables(flat)
    for _ in range(200):
        junk = rng.integers(0, 256, size=40).astype(np.uint8).tobytes()
        out, _ = decode_ac_segment(junk, ac_table, 10, np.full(64, 16, np.int64))
        assert np.abs(out).max() <= -(-1024 // 16)
        dc, _ = decode_dc_segment(junk, dc_table, 10, 16)
        assert np.abs(dc).max() <= -(-1024 // 16)


def test_zigzag_flatten_unflatten_identity():
    rng = np.random.default_rng(6)
    blocks = rng.integers(-100, 101, size=(12, 8, 8)).astype(np.int32)
    assert np.array_equal(zigzag_unflatten(zigzag_flatten(blocks)), blocks)


def _encode_segments(blocks):
    """Whole-image DC and AC segments plus their code tables."""
    flat = zigzag_flatten(blocks)
    dc_table, ac_table = build_tables(flat)
    dc_data = encode_dc_segment(flat[:, 0], dc_table)
    ac_data = encode_ac_segment(flat[:, 1:], ac_table)
    return dc_data, ac_data, dc_table, ac_table


def _segment_round_trip(blocks, quant_table):
    """Blocks through the DC and AC segment codecs; returns (blocks, clean)."""
    dc_data, ac_data, dc_table, ac_table = _encode_segments(blocks)
    quant_zig = quant_table.reshape(64)[ZIGZAG]
    n = blocks.shape[0]
    dc, dc_ok = decode_dc_segment(dc_data, dc_table, n, int(quant_zig[0]))
    ac, ac_ok = decode_ac_segment(ac_data, ac_table, n, quant_zig)
    return zigzag_unflatten(np.concatenate([dc[:, None], ac], axis=1)), dc_ok and ac_ok


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
    assert clamp_quantized(-79, 13) == -79
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
    dc_data = encode_dc_segment(flat[:, 0], dc_table)
    ac_data = encode_ac_segment(flat[:, 1:], ac_table)
    dc, dc_ok = decode_dc_segment(dc_data, dc_table, n, 1)
    ac, ac_ok = decode_ac_segment(ac_data, ac_table, n, np.ones(64, np.int64))
    assert dc_ok and ac_ok
    assert np.array_equal(dc, flat[:, 0])
    assert np.array_equal(ac, flat[:, 1:])
