from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imgdna.channel import pack_reads
from imgdna.pipeline import ExperimentConfig
from imgdna.rotation import A, rotate_encode, seq_to_string
from imgdna.strands import (
    MAX_HOMOPOLYMER,
    MAX_STRAND_LEN,
    STREAM_AC,
    STREAM_DC,
    ConstraintReport,
    StrandGeometry,
    assemble_strands,
    decode_index,
    default_primer_pair,
    disassemble_pool,
    generate_primer,
    index_width_for,
    route_reads,
    validate_constraints,
)
from imgdna.strands import (
    _copy_mask,
    _exact_values,
    _index_codes,
    _region_keys,
    _within_one_edit,
    encode_indexes,
)
from test_rotation import rotate_decode_arithmetic


def test_default_primers_obey_rules():
    fwd, rev = default_primer_pair()
    for p in (fwd, rev):
        assert p.size == 20
        gc = np.isin(p, (1, 2)).mean()
        assert 0.4 <= gc <= 0.6
        text = seq_to_string(p)
        for ch in "ACGT":
            assert ch * 3 not in text
    assert rev[0] != A  # guards the trailing 'AA' marker against run growth
    assert not np.array_equal(fwd, rev)
    again = default_primer_pair()
    assert np.array_equal(again[0], fwd) and np.array_equal(again[1], rev)
    # memoised, so every caller shares the arrays: they must be read-only
    assert again[0] is fwd and again[1] is rev
    for p in (fwd, rev):
        with pytest.raises(ValueError):
            p[0] = (p[0] + 1) % 4


def test_generate_primer_respects_leading_ban():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert generate_primer(rng, 18, forbid_leading_a=True)[0] != A


def test_index_width_for_matches_capacity():
    # width w must hold 2 * max_strands distinct values in base 3
    assert index_width_for(1) == 1
    assert index_width_for(4) == 2
    assert index_width_for(13) == 3
    assert index_width_for(14) == 4  # 27 < 28 <= 81
    assert index_width_for(364) == 6
    for n in (1, 2, 5, 40, 365, 1000):
        w = index_width_for(n)
        assert 3**w >= 2 * n
        assert w == 1 or 3 ** (w - 1) < 2 * n


def trits_to_int(trits) -> int:
    value = 0
    for t in trits:
        value = value * 3 + int(t)
    return value


def int_to_trits(value: int, width: int) -> np.ndarray:
    if value < 0 or value >= 3**width:
        raise ValueError(f"value {value} does not fit {width} trits")
    out = np.zeros(width, dtype=np.uint8)
    for i in range(width - 1, -1, -1):
        out[i] = value % 3
        value //= 3
    return out


def encode_index(value: int, width: int, seed: int) -> np.ndarray:
    """One value's index: three rotation-encoded copies, copy k masked
    with k * (position + 1) mod 3, each encoded on its own."""
    trits = int_to_trits(value, width).astype(np.int64)
    return np.concatenate(
        [rotate_encode((trits + _copy_mask(width, k)) % 3, seed=seed) for k in range(3)]
    )


def decode_one(nts, width, seed, limit):
    """decode_index of one region of 3 * width + 1 nucleotides, None where
    it is unroutable."""
    nts = np.asarray(nts, dtype=np.uint8)
    assert nts.size == 3 * width + 1
    value = int(decode_index(nts[None], width, seed, limit)[0])
    return None if value < 0 else value


def with_tail(codes, tail):
    """Each row of codes followed by the nucleotide tail."""
    codes = np.atleast_2d(codes)
    return np.column_stack([codes, np.full(len(codes), tail, dtype=np.uint8)])


def test_trit_integer_round_trip():
    for v in (0, 1, 5, 80, min(3**6 - 1, 728)):
        assert trits_to_int(int_to_trits(v, 6)) == v
    with pytest.raises(ValueError):
        int_to_trits(729, 6)


def test_index_round_trip_all_values():
    width = 5
    values = np.arange(0, 3**width, 7)
    codes = encode_indexes(values, width, seed=2)
    assert codes.shape == (values.size, 3 * width)
    for tail in range(4):
        got = decode_index(with_tail(codes, tail), width, seed=2, limit=3**width)
        assert got.dtype == np.int64 and got.tolist() == values.tolist()
    assert decode_index(np.zeros((0, 3 * width + 1), np.uint8), width, 2, 3**width).shape == (0,)


def test_memoised_index_codes_equal_fresh_encodings_and_are_read_only():
    for width in range(1, 9):
        for seed in range(4):
            for limit in (3**width, 3**width - 1, 2):
                codes = _index_codes(width, seed, limit)
                assert codes.shape == (min(limit, 3**width), 3 * width)
                assert _index_codes(width, seed, limit) is codes
                for v in {0, 1, 3**width // 2, 3**width - 2} & set(range(len(codes))):
                    assert np.array_equal(codes[v], encode_index(v, width, seed))
                with pytest.raises(ValueError):
                    codes[0, 0] = (codes[0, 0] + 1) % 4


def test_encode_indexes_equals_one_value_encodings():
    rng = np.random.default_rng(4)
    for width in range(1, 11):
        values = rng.integers(0, 3**width, size=50)
        got = encode_indexes(values, width, seed=width % 4)
        assert got.dtype == np.uint8 and got.shape == (50, 3 * width)
        for v, row in zip(values.tolist(), got):
            assert np.array_equal(row, encode_index(v, width, seed=width % 4))
    assert encode_indexes([], 3, 0).shape == (0, 9)
    with pytest.raises(ValueError):
        encode_indexes([27], 3, 0)


def test_exact_lookup_finds_exactly_the_table_codes():
    # every code below min(limit, 3**width - 1) is found, any one-nucleotide
    # change to it is not, and neither is the width-1 value 2
    rng = np.random.default_rng(9)
    for width, limit in ((1, 3), (2, 9), (4, 50), (6, 3**6), (11, 500)):
        codes = _index_codes(width, 1, limit)
        got = _exact_values(codes, width, 1, limit)
        top = min(limit, 3**width - 1)
        assert got.tolist() == list(range(top)) + [-1] * (len(codes) - top)
        hit = codes.copy()
        cols = rng.integers(0, 3 * width, size=len(hit))
        hit[np.arange(len(hit)), cols] = (hit[np.arange(len(hit)), cols] + 1) % 4
        assert (_exact_values(hit, width, 1, limit) == -1).all()


def test_index_survives_any_single_substitution():
    # two copies stay aligned and intact, and their agreement wins outright
    rng = np.random.default_rng(8)
    for width in (4, 5, 6, 7):
        values = rng.integers(0, 3**width, size=200)
        hit = with_tail(encode_indexes(values, width, seed=1), 0)
        hit[:, -1] = rng.integers(0, 4, size=200)
        pos = rng.integers(0, 3 * width, size=200)
        rows = np.arange(200)
        hit[rows, pos] = (hit[rows, pos] + rng.integers(1, 4, size=200)) % 4
        assert decode_index(hit, width, seed=1, limit=3**width).tolist() == values.tolist()


def test_index_indel_failure_rate_is_small():
    # the decoder may give up on an indel-damaged index (-1 -> quarantine)
    # but must never hand back some other strand's address
    width = 6
    rng = np.random.default_rng(8)
    trials = 2000
    values = rng.integers(0, 3**width, size=trials)
    regions = []
    for trial, v in enumerate(values.tolist()):
        nts = encode_index(v, width, seed=1)
        if trial % 2:
            hit = np.insert(nts, int(rng.integers(0, nts.size + 1)), int(rng.integers(0, 4)))
        else:
            hit = np.delete(nts, int(rng.integers(0, nts.size)))
        tail = rng.integers(0, 4, size=2).astype(np.uint8)
        regions.append(np.concatenate([hit, tail])[: 3 * width + 1])
    got = decode_index(np.array(regions), width, seed=1, limit=3**width)
    gave_up = int((got < 0).sum())
    wrong = int(((got >= 0) & (got != values)).sum())
    assert wrong == 0, wrong
    assert gave_up / trials < 0.01, gave_up


def _single_edit_regions(width, seed):
    """(values, regions): every value's index code with each single
    substitution, deletion or insertion inside it, followed by every
    2-nucleotide payload tail and cut to the 3 * width + 1 nucleotides
    route_reads decodes, each distinct (value, region) pair once."""
    codes = _index_codes(width, seed, 3**width)
    n, count = 3 * width, len(codes)
    tails = np.array([(a, b) for a in range(4) for b in range(4)], dtype=np.uint8)
    values, regions = [], []

    def add(edited):  # each edited code followed by each tail
        rows = np.column_stack([np.repeat(edited, len(tails), axis=0), np.tile(tails, (count, 1))])
        regions.append(rows[:, : n + 1])
        values.append(np.repeat(np.arange(count), len(tails)))

    for p in range(n):
        add(np.delete(codes, p, axis=1))
        for d in (1, 2, 3):
            sub = codes.copy()
            sub[:, p] = (sub[:, p] + d) % 4
            add(sub)
    for p in range(n + 1):
        for x in range(4):
            add(np.insert(codes, p, x, axis=1))
    values, regions = np.concatenate(values), np.concatenate(regions)
    keys = values * 4 ** (n + 1) + regions @ 4 ** np.arange(n, -1, -1, dtype=np.int64)
    _, first = np.unique(keys, return_index=True)
    return values[first], regions[first]


def test_no_single_edit_in_a_width_4_index_routes_to_another_value():
    # exhaustive at the smallest width a 32x32 crop or larger gets: the
    # exact lookup, then the vote, as route_reads does; at widths 2 and 3
    # a few single-edit regions do decode to another value
    width = 4
    for seed in range(4):
        values, regions = _single_edit_regions(width, seed)
        got = _exact_values(regions, width, seed, 3**width)
        misses = got < 0
        got[misses] = decode_index(regions[misses], width, seed, 3**width)
        misrouted = (got >= 0) & (got != values)
        assert not misrouted.any(), (seed, values[misrouted][:5], got[misrouted][:5])
        assert len(values) > 27_000


def _values_passing_one_edit(regions, width, seed):
    """How many distinct values below 3**width have a code that passes
    decode_index's one-edit check against each region.

    A code within one edit of a region keeps copy 0 in place when the edit
    lies past it, and otherwise keeps copies 1 and 2 at a shift of -1, 0
    or +1. Either part alone fixes the value, so four lookups find every
    value that can pass, and only those are checked."""
    codes = _index_codes(width, seed, 3**width)
    n = 3 * width
    candidates = []
    for part, shifts in ((slice(0, width), [0]), (slice(width, n), [-1, 0, 1])):
        table = _region_keys(codes[:, part])
        order = np.argsort(table)
        for s in shifts:
            keys = _region_keys(regions[:, part.start + s : part.stop + s])
            at = np.minimum(table[order].searchsorted(keys), table.size - 1)
            candidates.append(order[at])  # a value that fails the check if no key matched
    candidates = np.stack(candidates, axis=1)
    passing = np.where(_within_one_edit(codes[candidates], regions[:, None, :]), candidates, -1)
    passing.sort(axis=1)
    return ((passing >= 0) & (np.diff(passing, axis=1, prepend=-1) != 0)).sum(axis=1)


def test_from_width_4_at_most_one_value_passes_the_one_edit_check():
    # so decode_index's vote order decides nothing there. Below width 4
    # some single-edit regions have two values within one edit; there the
    # lookups above also agree with checking every value
    for width in (2, 3):
        _, regions = _single_edit_regions(width, 0)
        passing = _values_passing_one_edit(regions, width, 0)
        codes = _index_codes(width, 0, 3**width)
        assert (passing == _within_one_edit(codes, regions[:, None, :]).sum(axis=1)).all()
        assert passing.max() == 2, width
    for seed in range(4):
        _, regions = _single_edit_regions(4, seed)
        assert _values_passing_one_edit(regions, 4, seed).max() == 1, seed
    rng = np.random.default_rng(31)
    for width in range(4, 9):
        for seed in range(4):
            regions = np.array(
                [_edited_region(rng, width, seed, 1 + k % 3) for k in range(90)], dtype=np.uint8
            )
            assert _values_passing_one_edit(regions, width, seed).max() <= 1, (width, seed)


def _assert_exact_reads_match_votes(width, seed):
    # the largest limit index_width_for can produce, and every value under
    # it: the exact table route_reads looks up and the voting decoder agree
    limit = 3**width - 1
    codes = encode_indexes(np.arange(limit), width, seed)
    assert _exact_values(codes, width, seed, limit).tolist() == list(range(limit))
    for tail in range(4):
        got = decode_index(with_tail(codes, tail), width, seed, limit)
        assert got.tolist() == list(range(limit)), (width, seed, tail)


@pytest.mark.parametrize("width", range(1, 8))
def test_exact_index_lookup_matches_voting_decoder(width):
    for seed in range(4):
        _assert_exact_reads_match_votes(width, seed)


def test_exact_index_lookup_matches_voting_decoder_at_width_8():
    fwd, _ = default_primer_pair(seed=ExperimentConfig().seed)
    _assert_exact_reads_match_votes(8, int(fwd[-1]))


def test_width_one_limit_stays_below_its_collision():
    # at width 1 the exact encoding of value 2 votes to 0 under limit 3 ...
    # and the exact table leaves it out, so routing gives the vote's answer
    for seed in range(4):
        code = encode_index(2, 1, seed)
        reads = with_tail(np.tile(code, (4, 1)), np.arange(4))
        assert 0 in decode_index(reads, 1, seed, 3).tolist()
        assert _exact_values(code[None], 1, seed, 3).tolist() == [-1]
    # ... a limit no pool reaches: every width's limit stays <= 3**width - 1
    for n in range(1, 4000):
        assert 2 * n <= 3 ** index_width_for(n) - 1
    assert index_width_for(1) == 1


def test_exact_encoding_at_or_above_limit_misses_the_exact_table():
    # so routing sends it to the voting decoder
    for width, limit in ((2, 4), (5, 100), (6, 500)):
        codes = encode_indexes(np.arange(limit, 3**width, 3), width, seed=3)
        assert (_exact_values(codes, width, 3, limit) == -1).all()


def _prefix_edit_within_one_dp(expected, observed):
    # reference: edit distance anchored at the start, free at the observed tail
    n, m = len(expected), len(observed)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cost = 0 if expected[i - 1] == observed[j - 1] else 1
            cur[j] = min(prev[j - 1] + cost, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return min(prev) <= 1


def prefix_edit_within_one(expected, observed) -> bool:
    """True when expected aligns to a prefix of observed with <= 1 edit.

    Anchored at the start, free at the observed tail. Only prefixes of
    length n-1, n or n+1 can be one edit away, so past the first mismatch
    k the rest must match under a deletion, substitution or insertion at
    k."""
    e, o = list(expected), list(observed)
    n = len(e)
    k = 0
    while k < min(n, len(o)) and e[k] == o[k]:
        k += 1
    return (
        e[k + 1 :] == o[k + 1 : n]  # substitution, or none when k == n
        or e[k:] == o[k + 1 : n + 1]  # insertion
        or e[k + 1 :] == o[k : n - 1]  # deletion
    )


def _random_edits(rng, seq, count):
    seq = list(seq)
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        if kind == 1 or not seq:
            seq.insert(int(rng.integers(0, len(seq) + 1)), int(rng.integers(0, 4)))
        elif kind == 0:
            seq[int(rng.integers(0, len(seq)))] = int(rng.integers(0, 4))
        else:
            del seq[int(rng.integers(0, len(seq)))]
    return seq


def test_prefix_edit_check_matches_reference_dp():
    rng = np.random.default_rng(21)
    for trial in range(20000):
        expected = rng.integers(0, 4, size=int(rng.integers(0, 13))).astype(np.uint8)
        if trial % 4 == 0:
            observed = rng.integers(0, 4, size=int(rng.integers(0, 13)))
        else:
            edited = _random_edits(rng, expected.tolist(), int(rng.integers(0, 3)))
            tail = rng.integers(0, 4, size=int(rng.integers(0, 4))).tolist()
            observed = np.array(edited + tail, dtype=np.uint8)
        want = _prefix_edit_within_one_dp(expected.tolist(), observed.tolist())
        assert prefix_edit_within_one(expected.tolist(), observed.tolist()) == want


def test_batched_prefix_edit_check_matches_reference_dp():
    # what decode_index asks: codes of n = 3 * width against regions of n + 1
    rng = np.random.default_rng(22)
    for n in range(2, 25):
        codes, regions = [], []
        for trial in range(400):
            code = rng.integers(0, 4, size=n).tolist()
            if trial % 4 == 0:
                region = rng.integers(0, 4, size=n + 1).tolist()
            else:
                edited = _random_edits(rng, code, int(rng.integers(0, 3)))
                region = (edited + rng.integers(0, 4, size=3).tolist())[: n + 1]
            codes.append(code)
            regions.append(region)
        codes, regions = np.array(codes, dtype=np.uint8), np.array(regions, dtype=np.uint8)
        want = [_prefix_edit_within_one_dp(c, r) for c, r in zip(codes.tolist(), regions.tolist())]
        assert _within_one_edit(codes, regions).tolist() == want, n
        # and with candidates along a middle axis, as decode_index has them
        got = _within_one_edit(codes.reshape(100, 4, n), regions.reshape(100, 4, n + 1))
        assert got.ravel().tolist() == want


def window_values(nts, width, seed):
    """(copy, value) of each copy window and its one-shifted neighbours
    that fits nts: each rotation-decoded as an array, unmasked and read
    back as an integer."""
    found = []
    for k in range(3):
        for off in (k * width - 1, k * width, k * width + 1):
            if off < 0 or off + width > len(nts):
                continue
            decoded = rotate_decode_arithmetic(np.asarray(nts[off : off + width]), seed)
            found.append((k, trits_to_int((decoded - _copy_mask(width, k)) % 3)))
    return found


def vote_index_reference(nts, width, seed, limit):
    """The voting decoder on one region, one window and one candidate at a
    time: the value with the most copy votes, then the most window votes,
    then the lowest, whose code is within one edit of a prefix of nts;
    None when no candidate is."""
    copy_votes: Counter = Counter()
    raw_votes: Counter = Counter()
    seen = set()
    for k, value in window_values(nts, width, seed):
        if value < limit:
            raw_votes[value] += 1
            if (k, value) not in seen:
                seen.add((k, value))
                copy_votes[value] += 1
    ranked = sorted(
        copy_votes, key=lambda v: (copy_votes[v], raw_votes[v], -v), reverse=True
    )
    for value in ranked:
        if prefix_edit_within_one(encode_index(value, width, seed).tolist(), list(nts)):
            return value
    return None


def _edited_region(rng, width, seed, edits):
    code = encode_index(int(rng.integers(0, 3**width)), width, seed).tolist()
    nts = _random_edits(rng, code, edits) + rng.integers(0, 4, size=4).tolist()
    return nts[: 3 * width + 1]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["edited", "junk"]),
    st.integers(0, 3),
    st.booleans(),
)
def test_voting_decoder_matches_scalar_reference(width, seed, key, region, edits, low_limit):
    # route_reads decodes only regions of 3 * width + 1 nucleotides: a
    # shorter read is unroutable (test_route_reads_quarantines_short_reads)
    rng = np.random.default_rng(key)
    top = 3**width - 1
    limit = int(rng.integers(1, top)) if low_limit else top
    if region == "junk":
        nts = rng.integers(0, 4, size=3 * width + 1)
    else:
        nts = _edited_region(rng, width, seed, edits)
    assert decode_one(nts, width, seed, limit) == vote_index_reference(nts, width, seed, limit)


@pytest.mark.parametrize("width", range(1, 9))
def test_voting_decoder_of_a_mixed_batch_matches_scalar_reference(width):
    # exact codes, codes with one to three edits, junk, and, under the
    # lowest limit, rows whose every window votes at or above it, all in
    # one call. Below width 3 some window always votes below the limit: at
    # width 1, copies 0, 1 and 2 all decode nucleotide 1, under three
    # different masks. Below width 4 two candidates can pass the one-edit
    # check, so there the vote's order can show
    rng = np.random.default_rng(width)
    for limit in sorted({3**width, 3**width - 1, max(1, (3**width - 1) // 3)}):
        kinds_used = 4 if width >= 3 and limit < 3**width // 2 else 3
        for seed in range(4):
            rows, kinds = [], []
            while len(rows) < 120:
                kind = len(rows) % kinds_used
                if kind == 0:
                    nts = _edited_region(rng, width, seed, 0)
                elif kind == 1:
                    nts = _edited_region(rng, width, seed, int(rng.integers(1, 4)))
                else:
                    nts = rng.integers(0, 4, size=3 * width + 1).tolist()
                    above = all(v >= limit for _, v in window_values(nts, width, seed))
                    if kind == 3 and not above:
                        continue
                rows.append(nts)
                kinds.append(kind)
            got = decode_index(np.array(rows, dtype=np.uint8), width, seed, limit)
            want = [vote_index_reference(r, width, seed, limit) for r in rows]
            assert got.tolist() == [-1 if w is None else w for w in want], (width, seed, limit)
            assert (got[np.array(kinds) == 3] == -1).all()


def test_route_reads_quarantines_short_reads():
    # a read needs primers, index and one more nucleotide to be decoded
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    (strand,), _ = _make_pool(geom, 1, 0, np.random.default_rng(18))
    shortest = geom.fwd_len + geom.index_len + geom.rev_len + 1
    reads = [strand[:n] for n in (0, 5, geom.fwd_len + geom.index_len, shortest - 1, shortest)]
    reads.append(strand)
    limit = 2 * 3
    got = route_reads(*pack_reads(reads), geom, limit)
    assert got.tolist() == [-1, -1, -1, -1, 0, 0]


def test_geometry_capacity():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    assert geom.fwd_len == geom.rev_len == 20
    assert geom.index_len == 18
    assert geom.capacity == 192
    with pytest.raises(ValueError):
        StrandGeometry(60, *default_primer_pair(), index_width=6)


def test_assemble_layout():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    payload = np.ones(100, dtype=np.uint8)
    (s,) = assemble_strands(geom, [5], [payload])
    assert s.size == 20 + 18 + 100 + 20
    assert np.array_equal(s[:20], geom.fwd_primer)
    assert np.array_equal(s[-20:], geom.rev_primer)
    with pytest.raises(ValueError):
        assemble_strands(geom, [5], [np.ones(geom.capacity + 1, dtype=np.uint8)])


def test_assemble_equals_per_strand_concatenate():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    rng = np.random.default_rng(16)
    cap = geom.capacity
    sizes = [cap - 2, cap - 2, cap - 2, 57, 0, 0, cap, cap, 1, cap - 2, 0, cap - 2, 140]
    payloads = [rng.integers(0, 4, size=n).astype(np.uint8) for n in sizes]
    values = range(1, 2 * len(sizes), 2)
    got = assemble_strands(geom, values, payloads)
    assert len(got) == len(sizes)
    for strand, value, payload in zip(got, values, payloads):
        want = np.concatenate([
            geom.fwd_primer,
            encode_index(value, geom.index_width, geom.index_seed),
            payload,
            geom.rev_primer,
        ])
        assert strand.dtype == np.uint8 and np.array_equal(strand, want)
    assert assemble_strands(geom, [], []) == []
    # an oversize payload anywhere fails the whole pool with its own size
    payloads[9] = np.ones(cap + 5, dtype=np.uint8)
    with pytest.raises(ValueError, match=f"^payload {cap + 5} nt exceeds capacity {cap}$"):
        assemble_strands(geom, values, payloads)


def _make_pool(geom, n_dc, n_ac, rng):
    strands = []
    payloads = {STREAM_DC: [], STREAM_AC: []}
    for stream, count in ((STREAM_DC, n_dc), (STREAM_AC, n_ac)):
        for _ in range(count):
            payloads[stream].append(rng.integers(0, 4, size=geom.capacity - 2).astype(np.uint8))
        strands += assemble_strands(geom, range(stream, 2 * count, 2), payloads[stream])
    return strands, payloads


def test_disassemble_clean_pool():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    rng = np.random.default_rng(10)
    strands, payloads = _make_pool(geom, 7, 13, rng)
    result = disassemble_pool(strands, geom, {STREAM_DC: 7, STREAM_AC: 13})
    assert result.quarantined == 0
    for stream, count in ((STREAM_DC, 7), (STREAM_AC, 13)):
        for off in range(count):
            assert np.array_equal(result.streams[stream][off], payloads[stream][off])


def test_disassemble_handles_missing_and_bogus_strands():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    rng = np.random.default_rng(11)
    strands, payloads = _make_pool(geom, 5, 5, rng)
    del strands[2]  # lost strand -> empty slot
    strands.append(rng.integers(0, 4, size=30).astype(np.uint8))  # junk read
    result = disassemble_pool(strands, geom, {STREAM_DC: 5, STREAM_AC: 5})
    assert result.streams[STREAM_DC][2] is None
    assert result.quarantined == 1
    assert np.array_equal(result.streams[STREAM_DC][3], payloads[STREAM_DC][3])


def test_disassemble_votes_across_copies():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    rng = np.random.default_rng(12)
    strands, payloads = _make_pool(geom, 3, 0, rng)
    reads = []
    for s in strands:
        bad = s.copy()
        bad[40] = (bad[40] + 1) % 4
        reads += [bad, s.copy(), s.copy()]  # majority is clean
    result = disassemble_pool(reads, geom, {STREAM_DC: 3, STREAM_AC: 0})
    for off in range(3):
        assert np.array_equal(result.streams[STREAM_DC][off], payloads[STREAM_DC][off])
    assert (result.quarantined, result.duplicates) == (0, 3)


def test_unroutable_copy_leaves_the_slot_to_the_next():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    strands, payloads = _make_pool(geom, 2, 0, np.random.default_rng(14))
    # too short for primers and index: unroutable, and first of its strand's reads
    reads = [strands[0][:45], strands[0], strands[1]]
    result = disassemble_pool(reads, geom, {STREAM_DC: 2, STREAM_AC: 0})
    for off in range(2):
        assert np.array_equal(result.streams[STREAM_DC][off], payloads[STREAM_DC][off])
    assert (result.quarantined, result.duplicates) == (1, 0)


def test_slot_vote_is_on_payloads_not_whole_reads():
    # two reads with different index hits carry one payload and outvote a
    # read with a payload error that arrives first
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    (strand,), payloads = _make_pool(geom, 1, 0, np.random.default_rng(15))
    index_lo = geom.fwd_len
    reads = [strand.copy() for _ in range(3)]
    for read, pos in zip(reads, (index_lo + geom.index_len + 5, index_lo + 2, index_lo + 9)):
        read[pos] = (read[pos] + 1) % 4
    assert len({r.tobytes() for r in reads}) == 3
    result = disassemble_pool(reads, geom, {STREAM_DC: 1, STREAM_AC: 0})
    assert np.array_equal(result.streams[STREAM_DC][0], payloads[STREAM_DC][0])
    assert (result.quarantined, result.duplicates) == (0, 1)


def test_duplicate_claims_keep_first():
    geom = StrandGeometry(250, *default_primer_pair(), index_width=6)
    rng = np.random.default_rng(13)
    strands, payloads = _make_pool(geom, 2, 0, rng)
    clone = strands[0].copy()
    clone[50] = (clone[50] + 1) % 4
    result = disassemble_pool([strands[0], strands[1], clone], geom, {STREAM_DC: 2, STREAM_AC: 0})
    assert result.duplicates == 1
    assert np.array_equal(result.streams[STREAM_DC][0], payloads[STREAM_DC][0])


def test_validate_constraints_flags_bad_strands():
    good = np.array([0, 1, 2, 3] * 50, dtype=np.uint8)
    runny = np.array([0, 1, 1, 1, 1, 2] * 10, dtype=np.uint8)
    long = np.zeros(1000, dtype=np.uint8)
    report = validate_constraints([good, runny, long])
    assert not report.ok
    assert report.max_homopolymer == 1000
    assert any("homopolymer" in v for v in report.violations)
    assert any("length" in v for v in report.violations)
    clean = validate_constraints([good])
    assert clean.ok
    assert clean.gc_mean == 0.5


def _constraints_per_strand(strands):
    """validate_constraints written strand by strand."""
    runs, gcs, violations = [], [], []
    for i, s in enumerate(strands):
        run = 0
        for j in range(s.size):
            start = j
            while start > 0 and s[start - 1] == s[j]:
                start -= 1
            run = max(run, j - start + 1)
        runs.append(run)
        gcs.append(float(np.isin(s, (1, 2)).mean()) if s.size else 0.0)
        if run > MAX_HOMOPOLYMER:
            violations.append(f"strand {i}: homopolymer run {run} > {MAX_HOMOPOLYMER}")
        if s.size >= MAX_STRAND_LEN:
            violations.append(f"strand {i}: length {s.size} >= {MAX_STRAND_LEN}")
    return ConstraintReport(
        strand_count=len(strands),
        max_homopolymer=max(runs, default=0),
        max_length=max((s.size for s in strands), default=0),
        gc_mean=float(np.mean(gcs)) if gcs else 0.0,
        gc_min=min(gcs, default=0.0),
        gc_max=max(gcs, default=0.0),
        violations=violations,
    )


_STRANDS = st.lists(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=40),
        st.lists(st.integers(0, 1), max_size=12),
        st.integers(995, 1004).map(lambda n: [2] * 3 + [0, 1] * (n // 2 - 1)),
    ).map(lambda v: np.array(v, dtype=np.uint8)),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_STRANDS)
def test_validate_constraints_equals_per_strand_check(strands):
    assert validate_constraints(strands) == _constraints_per_strand(strands)


def test_validate_constraints_counts_long_gc_rich_strands():
    # a GC count past 255 in one strand, and strands around empty ones
    rng = np.random.default_rng(17)
    strands = [
        np.empty(0, dtype=np.uint8),
        np.tile(np.array([1, 2], dtype=np.uint8), 700),
        rng.integers(1, 3, size=1300).astype(np.uint8),
        np.empty(0, dtype=np.uint8),
        np.full(256, 2, dtype=np.uint8),
        rng.integers(0, 4, size=511).astype(np.uint8),
        np.empty(0, dtype=np.uint8),
    ]
    report = validate_constraints(strands)
    assert report == _constraints_per_strand(strands)
    assert report.gc_max == 1.0 and report.max_homopolymer == 256
