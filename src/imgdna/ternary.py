"""Byte stream to trit stream codec.

A static canonical ternary Huffman code over the 256 byte values plus one
dummy symbol (3-ary Huffman needs an odd leaf count), all with uniform
weights. Every byte maps to 5 or 6 trits; the code is complete, so any trit
window decodes to *some* symbol and only the dummy codeword is invalid.
Decoding never fails: it resynchronizes after damage by skipping one trit
at a time past a dummy codeword, and drops an unmatchable tail shorter than
a codeword.

The code lengths, codewords and the decode table of every MAX_LENGTH-trit
window come from prefix.py, which builds the binary entropy code too.
"""

from __future__ import annotations

import numpy as np

from .prefix import canonical_codes, huffman_depths, window_lookup

DUMMY_SYMBOL = 256
_N_SYMBOLS = 257


def _build_code() -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    # Uniform weights make the length assignment arbitrary; canonically the
    # sorted length multiset is assigned to symbols in index order, so low
    # byte values get the short codewords and the dummy comes last.
    lengths = sorted(huffman_depths([1] * _N_SYMBOLS, 3))
    return np.array(lengths, dtype=np.int64), canonical_codes(dict(enumerate(lengths)), 3)


_ALL_LENGTHS, _CODES = _build_code()
CODE_LENGTHS = _ALL_LENGTHS[:256].copy()  # per byte value; dummy excluded
DUMMY_LENGTH = int(_ALL_LENGTHS[DUMMY_SYMBOL])
MAX_LENGTH = int(_ALL_LENGTHS.max())

MEAN_CODE_LENGTH = float(CODE_LENGTHS.mean())
AVG_BITS_PER_TRIT = 8.0 / MEAN_CODE_LENGTH


def _digit_matrix() -> tuple[np.ndarray, np.ndarray]:
    # row s holds symbol s's codeword left-aligned in MAX_LENGTH trits,
    # most significant first, with 0 past its length; the mask marks its trits
    aligned = [code * 3 ** (MAX_LENGTH - ln) for code, ln in map(_CODES.get, range(_N_SYMBOLS))]
    digits = np.array(aligned)[:, None] // 3 ** np.arange(MAX_LENGTH - 1, -1, -1) % 3
    return digits.astype(np.uint8), np.arange(MAX_LENGTH) < _ALL_LENGTHS[:, None]


_DIGITS, _DIGIT_MASK = _digit_matrix()
_ENCODE_TRITS, _ENCODE_MASK = _DIGITS[:256], _DIGIT_MASK[:256]


def codeword(symbol: int) -> tuple[int, ...]:
    """Trit tuple for a symbol (bytes 0-255 plus DUMMY_SYMBOL)."""
    return tuple(_DIGITS[symbol, : _ALL_LENGTHS[symbol]].tolist())


# Every MAX_LENGTH-trit window resolves to exactly one codeword because the
# code is complete.
_DECODE_SYMBOL, _DECODE_LENGTH = window_lookup(_CODES, 3, MAX_LENGTH)
if not _DECODE_LENGTH.all():
    raise AssertionError("decode table has holes; code is not complete")


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
