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

236 of the 257 codewords are 5 trits long, so most of a decode strides by
5 within one residue class mod 5, and trits_to_segments walks only the
rest in Python: the self-synchronising parallel prefix decode of Klein and
Wiseman (Comput. J. 46(5), 2003) and Weissenberger and Schmidt (ICPP 2018),
fitted to a code with two lengths.
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

# The code has two lengths, and canonical order gives the long codewords the
# top codes: every window below _LONG starts a _STRIDE-trit codeword and
# every window from it a MAX_LENGTH-trit one, the dummy last.
_STRIDE = int(_DECODE_LENGTH.min())
_LONG = int(np.argmax(_DECODE_LENGTH == MAX_LENGTH))
if (_DECODE_LENGTH[:_LONG] != _STRIDE).any() or (_DECODE_LENGTH[_LONG:] != MAX_LENGTH).any():
    raise AssertionError("decode table is not one run of short codewords, then long ones")


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
    is trits_to_segments(t, [t.size])[0]. A segment running past the
    stream's end is cut short there; a negative count raises ValueError.

    The segments form one chain of codeword starts, in which a codeword
    that runs past its segment's end jumps to that end. Between events the
    chain strides through short codewords within one residue class mod
    _STRIDE. A successor table, one searchsorted over the events keyed by
    (residue, position), gives each event the next one its chain meets,
    and Python walks that table once per event. The runs between the
    walked events expand into every codeword start at once, and the
    segments are cut from one bytes object. A codeword is a prefix of its
    window, so trits past a segment's end change neither a codeword that
    fits in the segment nor the verdict that none fits.
    """
    trits = np.asarray(trits, dtype=np.uint8)
    if trits.size and trits.max() > 2:
        raise ValueError("trit values must be 0, 1 or 2")
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("segment trit counts must be >= 0")
    ends = np.minimum(np.cumsum(counts), trits.size)
    end = int(ends[-1]) if ends.size else 0
    rows = end // _STRIDE + 1  # every start up to the decoded end, in rows of _STRIDE
    padded = np.zeros(rows * _STRIDE + MAX_LENGTH - 1, dtype=np.int16)
    padded[:end] = trits[:end]
    windows = padded[: rows * _STRIDE].copy()
    for k in range(1, MAX_LENGTH):
        windows *= 3
        windows += padded[k : k + windows.size]

    # The events: every long codeword, the last _STRIDE - 1 starts of each
    # segment (no codeword fits there; an earlier one is clipped only if
    # long) and the decoded end, whose window clips it onto itself.
    event = windows >= _LONG
    event[np.maximum(ends[:, None] - np.arange(1, _STRIDE), 0)] = True
    event[end] = True
    key = np.flatnonzero(event.reshape(rows, _STRIDE).T)  # (residue, row) order
    residue, row = np.divmod(key, rows)
    at = row * _STRIDE + residue
    seg_end = np.append(ends, end)[np.searchsorted(ends, at, side="right")]
    window = windows[at]
    after = at + _DECODE_LENGTH[window]
    clipped = after > seg_end
    dummy = _DECODE_SYMBOL[window] == DUMMY_SYMBOL
    emits = ~(clipped | dummy)
    after = np.where(clipped, seg_end, np.where(dummy, at + 1, after))
    step = np.searchsorted(key, after % _STRIDE * rows + after // _STRIDE).tolist()

    stop = int(np.searchsorted(key, end % _STRIDE * rows + end // _STRIDE))
    # key 0 is position 0, so the chain's first event is the first one of
    # residue 0; from any start it meets one before it passes the decoded end
    i = 0
    path = [i]
    while i != stop:
        i = step[i]
        path.append(i)
    path = np.array(path)

    run_from = np.append(0, after[path[:-1]])
    runs = (at[path] - run_from) // _STRIDE + emits[path]
    first = np.cumsum(runs) - runs
    starts = _STRIDE * np.arange(runs.sum()) + np.repeat(run_from - _STRIDE * first, runs)
    data = _DECODE_SYMBOL[windows[starts]].astype(np.uint8).tobytes()
    cuts = np.searchsorted(starts, ends).tolist()
    return [data[a:b] for a, b in zip([0] + cuts, cuts)]
