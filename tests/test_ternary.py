"""Byte/trit codec tests, anchored by a brute-force ternary Huffman oracle."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imgdna import ternary
from imgdna.corpus import corpus_image
from imgdna.pipeline import SCHEME_IMG_DNA, SCHEME_RAW_DNA, ExperimentConfig, encode_image
from imgdna.strands import STREAM_AC, STREAM_DC


def trits_to_bytes(trits) -> bytes:
    """Decode trits as one segment: the inverse of bytes_to_trits."""
    return ternary.trits_to_segments(trits, [len(trits)])[0]


def ternary_huffman_lengths_oracle(n_symbols: int) -> list[int]:
    """Independent 3-ary Huffman over uniform weights; returns sorted depths.

    Classic construction: pad the alphabet with zero-weight fillers until the
    count is 1 mod 2 so every merge takes exactly three nodes, then merge the
    three lightest nodes repeatedly.
    """
    leaves = [(1, i, 0) for i in range(n_symbols)]  # (weight, id, depth-holder)
    while len(leaves) % 2 != 1:
        leaves.append((0, len(leaves), 0))
    heap = [(w, i, [i]) for w, i, _ in leaves]  # track member leaf ids
    depths = {i: 0 for _, i, _ in leaves}
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        merged_ids = []
        weight = 0
        for _ in range(3):
            w, _, ids = heapq.heappop(heap)
            weight += w
            merged_ids.extend(ids)
        for i in merged_ids:
            depths[i] += 1
        heapq.heappush(heap, (weight, counter, merged_ids))
        counter += 1
    real = sorted(depths[i] for i in range(n_symbols))
    return real


def test_code_lengths_match_huffman_oracle():
    oracle = ternary_huffman_lengths_oracle(257)  # 256 bytes + 1 dummy
    produced = sorted(ternary.CODE_LENGTHS) + [len(ternary.codeword(ternary.DUMMY_SYMBOL))]
    assert sorted(produced) == oracle


def test_all_codeword_lengths_are_five_or_six():
    assert set(ternary.CODE_LENGTHS.tolist()) == {5, 6}
    counts = np.bincount(ternary.CODE_LENGTHS)
    assert counts[5] == 236
    assert counts[6] == 20  # plus the dummy codeword makes 21 sixes


def test_total_trits_for_full_byte_alphabet():
    # frozen from the oracle profile: 236*5 + 20*6 = 1300
    oracle = ternary_huffman_lengths_oracle(257)
    dummy_inclusive_total = sum(oracle)
    assert dummy_inclusive_total == 1306
    blob = bytes(range(256))
    trits = ternary.bytes_to_trits(blob)
    assert len(trits) == 1300
    assert 1280 <= len(trits) <= 1536


def test_prefix_free():
    words = [tuple(ternary.codeword(i)) for i in range(257)]
    assert len(set(words)) == 257
    by_len = sorted(words, key=len)
    for i, short in enumerate(by_len):
        for long in by_len[i + 1 :]:
            assert long[: len(short)] != short


def test_trits_are_ternary():
    trits = ternary.bytes_to_trits(bytes(range(256)) * 3)
    assert trits.dtype == np.uint8
    assert set(np.unique(trits)) <= {0, 1, 2}


def test_round_trip_all_single_bytes():
    for value in range(256):
        blob = bytes([value])
        assert trits_to_bytes(ternary.bytes_to_trits(blob)) == blob


def test_round_trip_large_blob():
    rng = np.random.default_rng(21)
    blob = rng.integers(0, 256, size=10240, dtype=np.uint8).tobytes()
    assert trits_to_bytes(ternary.bytes_to_trits(blob)) == blob


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_round_trip_property(blob):
    assert trits_to_bytes(ternary.bytes_to_trits(blob)) == blob


def test_deleted_final_trit_drops_one_symbol():
    # fixed example from enumeration: with the tail trit gone the last
    # codeword becomes an unmatchable suffix and is dropped; earlier symbols
    # are untouched.
    blob = b"AB"
    trits = ternary.bytes_to_trits(blob)
    assert len(trits) == 10  # both codewords have length 5
    damaged = trits[:-1]
    assert trits_to_bytes(damaged) == b"A"


def test_tolerant_decode_of_mid_stream_deletion_keeps_prefix():
    blob = bytes(range(64))
    trits = ternary.bytes_to_trits(blob)
    cut = len(trits) // 2
    damaged = np.delete(trits, cut)
    out = trits_to_bytes(damaged)
    # everything encoded strictly before the deletion point survives
    prefix_symbols = 0
    consumed = 0
    for value in blob:
        length = int(ternary.CODE_LENGTHS[value])
        if consumed + length > cut:
            break
        consumed += length
        prefix_symbols += 1
    assert out[:prefix_symbols] == blob[:prefix_symbols]


def test_decode_skips_past_dummy_codeword():
    dummy = np.array(ternary.codeword(ternary.DUMMY_SYMBOL), dtype=np.uint8)
    out = trits_to_bytes(dummy)
    assert isinstance(out, bytes)


def test_mean_code_length_constant():
    mean = ternary.CODE_LENGTHS.mean()
    assert mean == pytest.approx(1300 / 256)
    assert ternary.AVG_BITS_PER_TRIT == pytest.approx(2048 / 1300)


_WORDS = {tuple(ternary.codeword(s)): s for s in range(257)}


def decode_by_codewords(trits: list[int]) -> bytes:
    """Prefix-match one codeword at a time; one trit forward past a dummy,
    stop at a tail that no codeword fits."""
    out = bytearray()
    pos = 0
    while pos < len(trits):
        for length in range(1, min(ternary.MAX_LENGTH, len(trits) - pos) + 1):
            symbol = _WORDS.get(tuple(trits[pos : pos + length]))
            if symbol is not None:
                break
        else:
            break
        if symbol == ternary.DUMMY_SYMBOL:
            pos += 1
            continue
        out.append(symbol)
        pos += length
    return bytes(out)


_LONG_SYMBOLS = np.flatnonzero(ternary.CODE_LENGTHS == ternary.MAX_LENGTH).tolist()

# Codewords, dense in 6-trit ones and dummies, runs of 2s (a dummy at every
# start but the last five) and stray trits, which shift what follows to
# every residue mod 5, so resynchronisation and every kind of decode event
# get tried at every residue and, with the counts below, at segment edges.
_STREAMS = st.lists(
    st.one_of(
        st.integers(0, 255).map(lambda v: list(ternary.codeword(v))),
        st.sampled_from(_LONG_SYMBOLS).map(lambda v: list(ternary.codeword(v))),
        st.just(list(ternary.codeword(ternary.DUMMY_SYMBOL))),
        st.integers(1, 2 * ternary.MAX_LENGTH + 1).map(lambda k: [2] * k),
        st.lists(st.integers(0, 2), max_size=4),
    ),
    max_size=60,
).map(lambda pieces: np.array([t for p in pieces for t in p], dtype=np.uint8))


def assert_segments_match_oracle(stream, counts):
    got = ternary.trits_to_segments(stream, counts)
    assert len(got) == len(counts)
    pos = 0
    for count, data in zip(counts, got):
        segment = stream[pos : pos + count]
        assert data == decode_by_codewords(segment.tolist()), (pos, count)
        pos += count


@settings(max_examples=300, deadline=None)
@given(_STREAMS, st.lists(st.integers(0, 40), max_size=12))
def test_stream_decode_equals_per_segment_decode(stream, counts):
    # counts cut codewords anywhere, may be 0 and may run past the stream
    got = ternary.trits_to_segments(stream, counts)
    assert len(got) == len(counts)
    pos = 0
    for count, data in zip(counts, got):
        segment = stream[pos : pos + count]
        assert data == trits_to_bytes(segment) == decode_by_codewords(segment.tolist())
        pos += count


@pytest.mark.parametrize("lead", range(5))
def test_each_event_at_each_residue_and_segment_edge(lead):
    # a first segment of lead trits puts the second one's start, and every
    # event in it, at residue lead mod 5; the third segment starts at every
    # cut through the event and the short codewords around it
    short = list(ternary.codeword(7))
    events = [
        list(ternary.codeword(_LONG_SYMBOLS[-1])),
        list(ternary.codeword(ternary.DUMMY_SYMBOL)),
        [2] * 3,
        [2] * 8,
        short[:3],
    ]
    for event in events:
        body = short * 2 + event + short * 2
        stream = np.array([1] * lead + body, dtype=np.uint8)
        for cut in range(len(body) + 1):
            assert_segments_match_oracle(stream, [lead, cut, len(body) - cut])
            assert_segments_match_oracle(stream, [lead, cut, 0, len(body)])  # runs past the end


@pytest.mark.parametrize("rate", [0.01, 0.3])
@pytest.mark.parametrize("scheme, stream_id", [(SCHEME_IMG_DNA, STREAM_AC), (SCHEME_RAW_DNA, STREAM_DC)])
def test_noisy_real_stream_equals_codeword_oracle(scheme, stream_id, rate):
    enc = encode_image(corpus_image(0), ExperimentConfig(scheme=scheme))
    counts = next(sm.trit_counts for sm in enc.mapping.streams if sm.stream_id == stream_id)
    rng = np.random.default_rng(25)
    trits = enc.stream_trits[stream_id].copy()
    hit = rng.random(trits.size) < rate
    trits[hit] = (trits[hit] + rng.integers(1, 3, int(hit.sum()))) % 3
    trits = np.delete(trits, rng.choice(trits.size, 5, replace=False))
    assert_segments_match_oracle(trits, counts)


def test_stream_decode_rejects_bad_trits():
    with pytest.raises(ValueError):
        ternary.trits_to_segments(np.array([0, 1, 3], dtype=np.uint8), [3])


def test_stream_decode_rejects_negative_counts():
    # a negative count would start the next segment inside an earlier one
    with pytest.raises(ValueError, match="segment trit counts must be >= 0"):
        ternary.trits_to_segments(np.zeros(25, dtype=np.uint8), [10, -5, 10])
