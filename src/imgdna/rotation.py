"""Trit-to-nucleotide rotating code.

Each trit selects one of the three nucleotides that differ from the previous
output, so the encoded sequence never repeats a nucleotide back to back.
With A,C,G,T numbered 0..3 the rotation is next = (prev + trit + 1) mod 4,
which realizes the table:

    prev A: 0->C 1->G 2->T      prev G: 0->T 1->A 2->C
    prev C: 0->G 1->T 2->A      prev T: 0->A 1->C 2->G

Decoding inverts the rotation; a nucleotide equal to its predecessor cannot
occur in clean data and is mapped to trit 0.
"""

from __future__ import annotations

import numpy as np

NUCLEOTIDES = "ACGT"
A, C, G, T = range(4)

_CHAR_FROM_NT = np.frombuffer(NUCLEOTIDES.encode("ascii"), dtype=np.uint8)
_NT_FROM_BYTE = np.full(256, 255, dtype=np.uint8)  # 255: not a nucleotide
_NT_FROM_BYTE[_CHAR_FROM_NT] = np.arange(4)
_TRIT_FROM_PAIR = np.array(
    [(nt - prev - 1) % 4 % 3 for prev in range(4) for nt in range(4)], dtype=np.uint8
)


def seq_to_string(nts: np.ndarray) -> str:
    """Nucleotide code array -> string like 'ACGT'."""
    return _CHAR_FROM_NT[np.asarray(nts, dtype=np.uint8)].tobytes().decode("ascii")


def string_to_seq(text: str) -> np.ndarray:
    """String like 'ACGT' -> nucleotide code array."""
    # one byte per character: anything outside ASCII becomes '?', not a nucleotide
    raw = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)
    nts = _NT_FROM_BYTE[raw]
    bad = np.flatnonzero(nts == 255)
    if bad.size:
        raise ValueError(f"invalid nucleotide {text[bad[0]]!r}")
    return nts


def rotate_encode(trits, seed: int = A) -> np.ndarray:
    """Encode trits as nucleotides along the last axis, rotating away from
    the previous output; each row of a 2D array encodes on its own.

    The seed is the imaginary predecessor of the first nucleotide, so the
    first output always differs from it. The cumulative sum of trit + 1
    runs in uint8, which stays exact mod 4.
    """
    trits = np.asarray(trits)
    if trits.size and (trits.min() < 0 or trits.max() > 2):
        raise ValueError("trit values must be 0, 1 or 2")
    steps = trits.astype(np.uint8) + np.uint8(1)
    np.cumsum(steps, axis=-1, dtype=np.uint8, out=steps)
    steps += np.uint8(seed & 3)
    steps &= 3
    return steps


def rotate_decode(nts, seed: int = A) -> np.ndarray:
    """Invert rotate_encode along the last axis; repeated nucleotides
    decode as trit 0. Each row of a 2D array decodes on its own, from seed.

    Each output is one lookup of its (previous, current) pair in a 16-entry
    table. Only the low two bits of each value count, as in the arithmetic
    form (nt - prev - 1) mod 4, with 3 (a repeat) read as 0.
    """
    low = np.asarray(nts, dtype=np.uint8) & 3
    if low.size == 0:
        return low
    pairs = np.empty_like(low)  # prev << 2 | nt
    pairs[..., 0] = (seed & 3) << 2
    np.left_shift(low[..., :-1], 2, out=pairs[..., 1:])
    pairs |= low
    return _TRIT_FROM_PAIR[pairs]
