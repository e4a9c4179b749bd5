"""Byte stream to trit stream codec.

A static canonical ternary Huffman code over the 256 byte values plus one
dummy symbol (3-ary Huffman needs an odd leaf count), all with uniform
weights. Every byte maps to 5 or 6 trits; the code is complete, so any trit
window decodes to *some* symbol and only the dummy codeword is invalid.
Decoding never fails: it resynchronizes after damage by skipping one trit
at a time past a dummy codeword, and drops an unmatchable tail shorter than
a codeword.
"""

from __future__ import annotations

import heapq

import numpy as np

DUMMY_SYMBOL = 256
_N_SYMBOLS = 257


def _huffman_lengths(n_symbols: int) -> list[int]:
    # 3-ary Huffman over uniform weights; n_symbols must be odd so that
    # every merge consumes exactly three nodes.
    if n_symbols % 2 != 1:
        raise ValueError("symbol count must be odd for a full ternary tree")
    heap = [(1, i, (i,)) for i in range(n_symbols)]
    heapq.heapify(heap)
    depths = [0] * n_symbols
    next_id = n_symbols
    while len(heap) > 1:
        weight = 0
        members: tuple[int, ...] = ()
        for _ in range(3):
            w, _, ids = heapq.heappop(heap)
            weight += w
            members += ids
        for i in members:
            depths[i] += 1
        heapq.heappush(heap, (weight, next_id, members))
        next_id += 1
    return depths


def _build_code() -> tuple[np.ndarray, list[tuple[int, ...]]]:
    # Uniform weights make the length assignment arbitrary; canonically the
    # sorted length multiset is assigned to symbols in index order, so low
    # byte values get the short codewords and the dummy comes last.
    lengths = sorted(_huffman_lengths(_N_SYMBOLS))
    words: list[tuple[int, ...]] = []
    code = 0
    prev_len = lengths[0]
    for length in lengths:
        if length > prev_len:
            code *= 3 ** (length - prev_len)
            prev_len = length
        digits = []
        value = code
        for _ in range(length):
            digits.append(value % 3)
            value //= 3
        words.append(tuple(reversed(digits)))
        code += 1
    return np.array(lengths, dtype=np.int64), words


_ALL_LENGTHS, _CODEWORDS = _build_code()
CODE_LENGTHS = _ALL_LENGTHS[:256].copy()  # per byte value; dummy excluded
DUMMY_LENGTH = int(_ALL_LENGTHS[DUMMY_SYMBOL])
MAX_LENGTH = int(_ALL_LENGTHS.max())

MEAN_CODE_LENGTH = float(CODE_LENGTHS.mean())
AVG_BITS_PER_TRIT = 8.0 / MEAN_CODE_LENGTH


def codeword(symbol: int) -> tuple[int, ...]:
    """Trit tuple for a symbol (bytes 0-255 plus DUMMY_SYMBOL)."""
    return _CODEWORDS[symbol]


def _build_encode_matrix() -> tuple[np.ndarray, np.ndarray]:
    matrix = np.zeros((256, MAX_LENGTH), dtype=np.uint8)
    mask = np.zeros((256, MAX_LENGTH), dtype=bool)
    for value in range(256):
        word = _CODEWORDS[value]
        matrix[value, : len(word)] = word
        mask[value, : len(word)] = True
    return matrix, mask


_ENCODE_TRITS, _ENCODE_MASK = _build_encode_matrix()


def _build_decode_table() -> tuple[np.ndarray, np.ndarray]:
    # Every MAX_LENGTH-trit window resolves to exactly one codeword because
    # the code is complete.
    size = 3**MAX_LENGTH
    symbols = np.full(size, -1, dtype=np.int64)
    lengths = np.zeros(size, dtype=np.int64)
    for symbol, word in enumerate(_CODEWORDS):
        prefix = 0
        for trit in word:
            prefix = prefix * 3 + trit
        span = 3 ** (MAX_LENGTH - len(word))
        start = prefix * span
        symbols[start : start + span] = symbol
        lengths[start : start + span] = len(word)
    if (symbols < 0).any():
        raise AssertionError("decode table has holes; code is not complete")
    return symbols, lengths


_DECODE_SYMBOL, _DECODE_LENGTH = _build_decode_table()


def bytes_to_trits(data) -> np.ndarray:
    """Encode bytes to a uint8 trit array (values 0, 1, 2)."""
    values = np.frombuffer(bytes(data), dtype=np.uint8)
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return _ENCODE_TRITS[values][_ENCODE_MASK[values]]


def trits_to_segments(trits, counts) -> list[bytes]:
    """Decode consecutive segments of counts[i] trits each from one stream.

    Each segment decodes on its own: it skips one trit on the dummy
    codeword and drops an unmatchable tail. The inverse of bytes_to_trits
    is trits_to_segments(t, [t.size])[0]. The symbol and codeword length
    of the MAX_LENGTH-trit window at every stream position are looked up
    once; a codeword is a prefix of its window, so trits past a segment's
    end change neither a codeword that fits in the segment nor the verdict
    that none fits. A segment running past the stream's end is cut short
    there.
    """
    trits = np.asarray(trits, dtype=np.uint8)
    n = trits.size
    if n and trits.max() > 2:
        raise ValueError("trit values must be 0, 1 or 2")
    padded = np.zeros(n + MAX_LENGTH - 1, dtype=np.intp)
    padded[:n] = trits
    windows = np.zeros(n, dtype=np.intp)
    for k in range(MAX_LENGTH):
        windows = windows * 3 + padded[k : k + n]
    symbols = _DECODE_SYMBOL[windows].tolist()
    lengths = _DECODE_LENGTH[windows].tolist()
    out = []
    start = 0
    for count in counts:
        end = min(start + count, n)
        segment = bytearray()
        pos = start
        while pos < end:
            symbol = symbols[pos]
            length = lengths[pos]
            if pos + length > end:
                break  # unmatchable suffix shorter than its codeword
            if symbol == DUMMY_SYMBOL:
                pos += 1  # resynchronize at the next decodable boundary
                continue
            segment.append(symbol)
            pos += length
        out.append(bytes(segment))
        start += count
    return out
