import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imgdna.rotation import (
    A,
    C,
    G,
    T,
    rotate_decode,
    rotate_encode,
    seq_to_string,
    string_to_seq,
)

# The full rotation table, written out long-hand so a regression in the
# arithmetic form cannot pass silently.
ROTATION_TABLE = {
    A: {0: C, 1: G, 2: T},
    C: {0: G, 1: T, 2: A},
    G: {0: T, 1: A, 2: C},
    T: {0: A, 1: C, 2: G},
}


def test_single_steps_match_table():
    for prev, row in ROTATION_TABLE.items():
        for trit, expected in row.items():
            out = rotate_encode([trit], seed=prev)
            assert out.tolist() == [expected], (prev, trit)


def test_digit_two_after_a_gives_t():
    assert rotate_encode([2], seed=A).tolist() == [T]


def test_zero_trits_from_seed_a_walk_cgt():
    assert seq_to_string(rotate_encode([0, 0, 0], seed=A)) == "CGT"


def test_repeated_nucleotide_decodes_to_zero():
    # "TT" cannot be produced by the encoder; the repeat maps to trit 0.
    assert rotate_decode(string_to_seq("TT"), seed=A).tolist() == [2, 0]


def test_round_trip_small():
    trits = np.array([0, 1, 2, 2, 1, 0, 1], dtype=np.uint8)
    nts = rotate_encode(trits, seed=A)
    assert rotate_decode(nts, seed=A).tolist() == trits.tolist()


def test_no_consecutive_equal_outputs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        trits = rng.integers(0, 3, size=200)
        nts = rotate_encode(trits, seed=A)
        assert np.all(nts[1:] != nts[:-1])
        assert nts[0] != A  # first output rotates away from the seed


def test_rejects_bad_trits():
    with pytest.raises(ValueError):
        rotate_encode([0, 3, 1])


def test_string_helpers_round_trip():
    assert seq_to_string(string_to_seq("ACGTAC")) == "ACGTAC"
    with pytest.raises(ValueError):
        string_to_seq("ACGN")
    assert string_to_seq("").dtype == np.uint8 and string_to_seq("").size == 0


@pytest.mark.parametrize(
    "text, bad", [("ACGN", "N"), ("NACG", "N"), ("AC?T", "?"), ("ACéT", "é"), ("AC中x", "中"), ("acgt", "a")]
)
def test_string_to_seq_names_first_bad_character(text, bad):
    with pytest.raises(ValueError, match=f"invalid nucleotide {bad!r}"):
        string_to_seq(text)


def test_string_to_seq_matches_per_character_lookup():
    rng = np.random.default_rng(5)
    text = "".join(rng.choice(list("ACGT"), size=2000))
    assert string_to_seq(text).tolist() == ["ACGT".index(ch) for ch in text]


def test_empty_inputs():
    assert rotate_encode([]).size == 0
    assert rotate_decode([]).size == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=300),
    st.integers(0, 3),
)
def test_round_trip_identity(trits, seed):
    nts = rotate_encode(trits, seed=seed)
    assert rotate_decode(nts, seed=seed).tolist() == trits


# every (prev, nt) pair once: a de Bruijn sequence of order 2 over ACGT
ALL_PAIRS = [0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3, 0]


def rotate_decode_arithmetic(nts, seed):
    """rotate_decode by its arithmetic form, the reference for the table:
    (nt - prev - 1) mod 4 on int64, with 3 (a repeat) read as 0."""
    nts = np.asarray(nts, dtype=np.int64)
    prev = np.concatenate([[seed], nts[:-1]]).astype(np.int64)
    deltas = (nts - prev - 1) % 4
    return np.where(deltas == 3, 0, deltas)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=120), st.integers(0, 3))
@example(ALL_PAIRS, 0)
@example(ALL_PAIRS, 1)
@example(ALL_PAIRS, 2)
@example(ALL_PAIRS, 3)
@example(list(range(256)), 0)
@example(list(range(256))[::-1], 3)
@example([], 2)
def test_decode_total_on_arbitrary_sequences(nts, seed):
    # Any byte string decodes to some trit string of equal length, the one
    # the arithmetic form gives: only each value's low two bits count.
    trits = rotate_decode(np.array(nts, dtype=np.uint8), seed=seed)
    assert trits.dtype == np.uint8
    assert len(trits) == len(nts)
    assert trits.size == 0 or (trits.min() >= 0 and trits.max() <= 2)
    assert trits.tolist() == rotate_decode_arithmetic(nts, seed).tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
    st.integers(0, 80),
    st.integers(0, 3),
)
@example(0, 0, 5, 0)
@example(0, 3, 0, 1)
def test_2d_decode_equals_row_by_row(seed, rows, cols, start):
    grid = np.random.default_rng(seed).integers(0, 256, size=(rows, cols)).astype(np.uint8)
    got = rotate_decode(grid, seed=start)
    assert got.shape == grid.shape and got.dtype == np.uint8
    for row, want in zip(got, grid):
        assert row.tolist() == rotate_decode(want, seed=start).tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
    st.integers(0, 300),
    st.integers(0, 3),
)
@example(0, 0, 5, 0)
@example(0, 3, 0, 1)
def test_2d_encode_equals_row_by_row(seed, rows, cols, start):
    # rows of 300 trits wrap the uint8 cumulative sum
    grid = np.random.default_rng(seed).integers(0, 3, size=(rows, cols))
    got = rotate_encode(grid, seed=start)
    assert got.shape == grid.shape and got.dtype == np.uint8
    for row, trits in zip(got, grid):
        want = [(start + s) % 4 for s in np.cumsum(trits + 1).tolist()]
        assert row.tolist() == rotate_encode(trits, seed=start).tolist() == want
