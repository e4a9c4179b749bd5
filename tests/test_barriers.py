import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imgdna.barriers import (
    BARRIER,
    BarrierConfig,
    _read_layout,
    partition_errors,
    resync_reads,
    strand_trits,
    stream_payloads,
)
from imgdna.channel import pack_reads
from imgdna.corpus import corpus_image
from imgdna.pipeline import SCHEMES, ExperimentConfig, encode_image
from imgdna.rotation import A, C, G, rotate_encode, seq_to_string
from test_rotation import rotate_decode_arithmetic


def one_strand(trits, cfg):
    """The payload of one strand holding all of trits, laid out by stream_payloads."""
    payloads = stream_payloads(trits, cfg, (cfg.partition_len or 1) * max(len(trits), 1))
    return payloads[0] if payloads else np.zeros(0, dtype=np.uint8)


def resync_one(nts, cfg, expected_trits):
    """The trits and partition flags resync_reads gives one read."""
    trits, damaged = resync_reads(*pack_reads([nts]), cfg, expected_trits)
    return trits[0], damaged[0].tolist()


def _damaged_partitions(orig, got, pl):
    """Indices of partitions whose decoded trits differ from the original."""
    bad = []
    for k in range(0, len(orig), pl):
        if not np.array_equal(orig[k : k + pl], got[k : k + pl]):
            bad.append(k // pl)
    return bad


def test_config_validation():
    with pytest.raises(ValueError):
        BarrierConfig(partition_len=5, window=13)
    with pytest.raises(ValueError):
        BarrierConfig(partition_len=5, window=10)  # window must stay < 2*PL
    with pytest.raises(ValueError):
        BarrierConfig(partition_len=1, window=2)
    with pytest.raises(ValueError, match="even number >= 4"):
        BarrierConfig(partition_len=50, window=2)
    BarrierConfig(partition_len=3, window=4)  # the smallest layout
    BarrierConfig(partition_len=None, window=12)  # barriers disabled


def test_trailing_marker_adds_two_nt():
    # every partition ends with a marker, the last one included
    cfg = BarrierConfig(partition_len=5, window=8)
    nts = one_strand(np.zeros(10, dtype=np.uint8), cfg)
    assert nts.size == 14
    assert len(_read_layout(10, cfg).lengths) == 2
    # one marker sits exactly between the two 5-nt partitions
    assert seq_to_string(nts[5:7]) == "AA"
    assert seq_to_string(nts[-2:]) == "AA"


def test_five_thousand_trits_partition_fifty():
    rng = np.random.default_rng(11)
    trits = rng.integers(0, 3, size=5000).astype(np.uint8)
    cfg = BarrierConfig(partition_len=50, window=12)
    nts = one_strand(trits, cfg)
    assert len(_read_layout(trits.size, cfg).lengths) == 100
    assert nts.size - trits.size == 200
    assert nts.size == 5200
    overhead = (nts.size - trits.size) / nts.size
    assert abs(overhead - 0.0385) < 0.0002  # 2 of every 52 nt


def test_no_barrier_mode_emits_payload_only():
    rng = np.random.default_rng(12)
    trits = rng.integers(0, 3, size=777).astype(np.uint8)
    cfg = BarrierConfig(partition_len=None)
    nts = one_strand(trits, cfg)
    assert nts.size == 777
    assert len(_read_layout(trits.size, cfg).lengths) == 1
    assert np.array_equal(nts, rotate_encode(trits, seed=A))  # no marker


def test_homopolymer_runs_stay_below_four():
    # Worst case is a partition ending in A right before an 'AA' marker.
    rng = np.random.default_rng(13)
    for _ in range(20):
        trits = rng.integers(0, 3, size=400).astype(np.uint8)
        text = seq_to_string(one_strand(trits, BarrierConfig(partition_len=20, window=12)))
        for ch in "ACGT":
            assert ch * 4 not in text


def test_clean_round_trip():
    rng = np.random.default_rng(14)
    cfg = BarrierConfig(partition_len=10, window=12)
    trits = rng.integers(0, 3, size=95).astype(np.uint8)
    got, flags = resync_one(one_strand(trits, cfg), cfg, trits.size)
    assert np.array_equal(got, trits)
    assert not any(flags)


def test_clean_round_trip_without_barriers():
    rng = np.random.default_rng(15)
    trits = rng.integers(0, 3, size=321).astype(np.uint8)
    cfg = BarrierConfig(partition_len=None)
    got, flags = resync_one(one_strand(trits, cfg), cfg, trits.size)
    assert np.array_equal(got, trits)
    assert flags == [False]


def test_single_deletion_is_contained():
    rng = np.random.default_rng(16)
    cfg = BarrierConfig(partition_len=10, window=12)
    trits = rng.integers(0, 3, size=30).astype(np.uint8)
    hit = np.delete(one_strand(trits, cfg), 3)  # inside partition 0
    got, flags = resync_one(hit, cfg, trits.size)
    assert np.array_equal(got[10:], trits[10:])
    assert flags == [True, False, False]


def test_single_insertion_is_contained():
    rng = np.random.default_rng(17)
    cfg = BarrierConfig(partition_len=10, window=12)
    trits = rng.integers(0, 3, size=30).astype(np.uint8)
    hit = np.insert(one_strand(trits, cfg), 16, 2)  # inside partition 1 (nt 12..21)
    got, flags = resync_one(hit, cfg, trits.size)
    assert np.array_equal(got[:10], trits[:10])
    assert np.array_equal(got[20:], trits[20:])
    assert flags == [False, True, False]


def test_destroyed_marker_merges_two_partitions():
    rng = np.random.default_rng(18)
    cfg = BarrierConfig(partition_len=10, window=12)
    trits = rng.integers(0, 3, size=30).astype(np.uint8)
    nts = one_strand(trits, cfg)
    assert seq_to_string(nts[10:12]) == "AA"
    hit = nts.copy()
    hit[10] = 1  # C: first marker no longer reads 'AA'
    got, flags = resync_one(hit, cfg, trits.size)
    # damage stays inside the merged pair; partition 2 survives exactly
    assert np.array_equal(got[:10], trits[:10])
    assert np.array_equal(got[20:], trits[20:])
    assert flags == [True, True, False]


def test_substitution_in_body_is_silent_but_local():
    rng = np.random.default_rng(19)
    cfg = BarrierConfig(partition_len=10, window=12)
    trits = rng.integers(0, 3, size=30).astype(np.uint8)
    hit = one_strand(trits, cfg).copy()
    hit[14] = (hit[14] + 1) % 4  # inside partition 1
    got, flags = resync_one(hit, cfg, trits.size)
    bad = _damaged_partitions(trits, got, 10)
    assert bad == [1]
    # length-preserving damage cannot be flagged without checksums
    assert flags == [False, False, False]


def test_true_marker_beats_nearby_spurious_match():
    # An 'AA' created inside a partition must lose to the marker sitting at
    # the expected position.
    cfg = BarrierConfig(partition_len=10, window=12)
    rng = np.random.default_rng(20)
    for _ in range(200):
        trits = rng.integers(0, 3, size=20).astype(np.uint8)
        hit = one_strand(trits, cfg).copy()
        hit[8] = A
        hit[9] = A  # spurious marker at distance 2 from the real one
        got, _ = resync_one(hit, cfg, trits.size)
        assert np.array_equal(got[10:], trits[10:])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(40, 160),
    st.sampled_from(["sub", "ins", "del"]),
)
def test_any_single_error_damages_at_most_two_adjacent_partitions(seed, ntrits, kind):
    rng = np.random.default_rng(seed)
    trits = rng.integers(0, 3, size=ntrits).astype(np.uint8)
    cfg = BarrierConfig(partition_len=10, window=12)
    nts = one_strand(trits, cfg)
    pos = int(rng.integers(0, nts.size))
    if kind == "sub":
        hit = nts.copy()
        hit[pos] = (hit[pos] + int(rng.integers(1, 4))) % 4
    elif kind == "ins":
        hit = np.insert(nts, pos, int(rng.integers(0, 4)))
    else:
        hit = np.delete(nts, pos)
    got, _ = resync_one(hit, cfg, trits.size)
    assert got.size == trits.size
    bad = _damaged_partitions(trits, got, 10)
    assert len(bad) <= 2
    if len(bad) == 2:
        assert bad[1] == bad[0] + 1


def test_window_below_four_is_rejected_as_blind_to_a_shifted_marker():
    # at window 2 the search checked only the expected position: this
    # insertion left 2 trits wrong and the partition flagged clean
    trits = np.random.default_rng(0).integers(0, 3, 24).astype(np.uint8)
    with pytest.raises(ValueError, match="even number >= 4"):
        BarrierConfig(50, 2)
    cfg = BarrierConfig(50, 4)
    (nts,) = stream_payloads(trits, cfg, 50)
    got, flags = resync_one(np.insert(nts, 22, 1), cfg, trits.size)
    assert np.count_nonzero(got != trits) == 2
    assert flags == [True]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        [(3, 4), (4, 6), (5, 8), (7, 4), (10, 12), (20, 4), (20, 12), (50, 6), (50, 12), (None, 12)]
    ),
    st.integers(1, 4),
    st.sampled_from(["ins", "del"]),
)
def test_one_indel_flags_every_partition_it_damages(seed, layout, parts, kind):
    # the flags are all a decode knows of its damage, so an indel's damage
    # must never read as clean; a substitution's may (see above)
    rng = np.random.default_rng(seed)
    cfg = BarrierConfig(partition_len=layout[0], window=layout[1])
    per_strand = parts * (layout[0] or int(rng.integers(1, 60)))
    ntrits = int(rng.integers(1, per_strand + 1))
    trits = rng.integers(0, 3, size=ntrits).astype(np.uint8)
    (nts,) = stream_payloads(trits, cfg, per_strand)
    if kind == "ins":
        hit = np.insert(nts, int(rng.integers(0, nts.size + 1)), int(rng.integers(0, 4)))
    else:
        hit = np.delete(nts, int(rng.integers(0, nts.size)))
    got, flags = resync_reads(*pack_reads([hit]), cfg, ntrits)
    wrong = partition_errors(got, trits[None], cfg)
    assert not (wrong & ~flags).any()


def find_marker(nts, expected: int, low: int, half: int, end: int) -> int | None:
    """Nearest 'AA' start around the expected position, at or after low;
    ties go left. Candidates inside one A-run are snapped to the run's last
    'AA' start, but never past the window."""
    best = None
    best_key = None
    lo = max(low, expected - half)
    hi = min(end - 2, expected + half)
    for s in range(lo, hi + 1):
        if nts[s] != A or nts[s + 1] != A:
            continue
        while s + 2 < end and s + 1 <= hi and nts[s + 2] == A:
            s += 1
        key = (abs(s - expected), s)
        if best_key is None or key < best_key:
            best, best_key = s, key
    return best


def resync_by_chunks(nts, cfg, expected_trits):
    """The marker search on one read, with a fresh rotation decode of
    every chunk between the markers found, each seeded from A."""
    lengths = _read_layout(expected_trits, cfg).lengths
    n = len(lengths)
    out = np.zeros(expected_trits, dtype=np.uint8)
    damaged = [False] * n
    if n == 0:
        return out, damaged
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    half = (cfg.window - 2) // 2
    pos = chunk_first = merged = 0

    def close(last, end):
        chunk = rotate_decode_arithmetic(nts[pos:end], A)
        span = int(offsets[last + 1] - offsets[chunk_first])
        clean = merged == 0 and chunk.size == span
        at = 0
        for j in range(chunk_first, last + 1):
            take = min(lengths[j], max(chunk.size - at, 0))
            out[offsets[j] : offsets[j] + take] = chunk[at : at + take]
            at += lengths[j]
            damaged[j] = damaged[j] or not clean

    for i in range(n if cfg.partition_len else 0):  # a marker after every partition
        expected = pos + int(offsets[i + 1] - offsets[chunk_first]) + 2 * merged
        s = find_marker(nts, expected, pos, half, len(nts))
        if s is None:
            merged += 1
            continue
        close(i, s)
        pos, chunk_first, merged = s + 2, i + 1, 0
    if chunk_first < n:
        close(n - 1, nts.size)
    return out, damaged


def random_edits(nts, rng, cfg, ntrits, edits):
    """nts after edits random edits, aimed at a read of ntrits trits: plain
    indels and substitutions, substitutions on marker columns, an A right
    after a marker, indel pairs inside one partition, destroyed markers and
    new ones."""
    lengths = _read_layout(ntrits, cfg).lengths
    starts = [sum(lengths[:j]) + 2 * j for j in range(len(lengths))]
    markers = [s + n for s, n in zip(starts, lengths)] if cfg.partition_len else []
    for _ in range(edits):
        pos = int(rng.integers(0, nts.size + 1))
        kind = int(rng.integers(0, 8))
        if kind == 0:  # insertion
            nts = np.insert(nts, pos, int(rng.integers(0, 4)))
        elif kind == 5 and markers:  # substitution on a marker column
            m = markers[int(rng.integers(0, len(markers)))] + int(rng.integers(0, 2))
            if m < nts.size:
                nts = nts.copy()
                nts[m] = (nts[m] + int(rng.integers(1, 4))) % 4
        elif kind == 6 and markers:  # the nucleotide after a marker becomes A
            m = markers[int(rng.integers(0, len(markers)))] + 2
            if m < nts.size:
                nts = nts.copy()
                nts[m] = A
        elif kind == 7 and lengths:  # an indel pair inside one partition
            j = int(rng.integers(0, len(lengths)))
            cols = range(starts[j], min(starts[j] + lengths[j], nts.size))
            if len(cols) >= 2:
                nts = np.delete(nts, int(rng.choice(cols)))
                nts = np.insert(nts, int(rng.choice(cols[:-1])), int(rng.integers(0, 4)))
        elif pos == nts.size or kind >= 5:
            continue
        elif kind == 1:  # deletion
            nts = np.delete(nts, pos)
        elif kind == 2:  # substitution
            nts = nts.copy()
            nts[pos] = (nts[pos] + int(rng.integers(1, 4))) % 4
        elif kind == 3:  # destroy the nearest marker after pos
            aa = np.flatnonzero((nts[pos:-1] == A) & (nts[pos + 1 :] == A))
            if aa.size:
                nts = nts.copy()
                nts[pos + aa[0] + int(rng.integers(0, 2))] = int(rng.integers(1, 4))
        else:  # create a marker
            nts = nts.copy()
            nts[pos : pos + 2] = A
    return nts


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 200),
    st.sampled_from([(3, 4), (5, 8), (10, 12), (20, 12), (50, 12), (None, 12)]),
    st.integers(0, 8),
)
@example(0, 47, (10, 12), 0)  # no edits, short final partition
def test_resync_equals_per_chunk_rotation_decode(seed, ntrits, layout, edits):
    rng = np.random.default_rng(seed)
    cfg = BarrierConfig(partition_len=layout[0], window=layout[1])
    trits = rng.integers(0, 3, size=ntrits).astype(np.uint8)
    nts = random_edits(one_strand(trits, cfg), rng, cfg, ntrits, edits)
    want_trits, want_damaged = resync_by_chunks(nts, cfg, ntrits)
    got, flags = resync_one(nts, cfg, ntrits)
    assert np.array_equal(got, want_trits)
    assert flags == want_damaged


def resync_read_by_read(reads, cfg, expected_trits):
    """resync_reads by resync_by_chunks on each read, a missing one empty."""
    trits = np.zeros((len(reads), expected_trits), dtype=np.uint8)
    damaged = np.zeros((len(reads), len(_read_layout(expected_trits, cfg).lengths)), dtype=bool)
    empty = np.zeros(0, dtype=np.uint8)
    for k, read in enumerate(reads):
        trits[k], damaged[k] = resync_by_chunks(empty if read is None else read, cfg, expected_trits)
    return trits, damaged


FATES = ["intact", "edits", "missing", "short", "long", "no_last_marker", "a_tail", "a_run", "tie"]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(3, 4), (10, 12), (20, 12), (50, 12), (None, 12)]),
    st.integers(1, 5),
    st.sampled_from(["exact", "short", "one"]),
    st.sampled_from(["strands", "copies"]),
    st.lists(st.sampled_from(FATES), max_size=6),
)
@example(0, (20, 12), 2, "short", "strands", ["intact", "missing", "edits", "long"])
@example(1, (None, 12), 1, "exact", "strands", ["intact", "short", "intact"])
@example(2, (10, 12), 3, "exact", "copies", ["intact", "edits", "edits", "intact", "missing"])
@example(3, (20, 12), 2, "short", "copies", ["missing", "missing", "missing"])
@example(4, (50, 12), 1, "exact", "strands", [])
# 81 trits at partition 20: the final partition holds 1 trit, so the
# window of its marker reaches back past the chunk start to the marker
# before, an 'AA' the search must not take again when its own is gone
@example(5, (20, 12), 5, "one", "strands", ["no_last_marker", "intact", "no_last_marker"])
@example(6, (10, 12), 3, "exact", "strands", ["a_tail", "a_run", "intact", "a_run"])
@example(7, (20, 12), 5, "one", "copies", ["long", "long", "edits", "a_tail"])
@example(8, (10, 12), 3, "exact", "strands", ["tie", "tie", "intact", "tie"])
def test_resync_reads_equals_per_read_marker_search(seed, layout, parts, fill, source, fates):
    # strands: distinct reads, as a stream's strands are; copies: repeated
    # reads of one strand, as containment trials are; short: the trits of
    # a stream's final strand; one: a final partition of one trit.
    # no_last_marker: the read's last 'AA' is gone; a_tail: an A-run
    # reaches the read's end; a_run: an A-run longer than the window
    # starts at a random place; tie: a marker is gone and two 'AA' sit
    # two columns either side of it
    rng = np.random.default_rng(seed)
    cfg = BarrierConfig(partition_len=layout[0], window=layout[1])
    per_strand = parts * (layout[0] or int(rng.integers(1, 60)))
    expected = per_strand
    if fill == "short" and per_strand > 1:
        expected = int(rng.integers(1, per_strand))
    elif fill == "one":
        expected = per_strand - (layout[0] or per_strand) + 1

    def strand():
        trits = rng.integers(0, 3, size=expected).astype(np.uint8)
        (payload,) = stream_payloads(trits, cfg, per_strand)
        return payload

    base = strand()
    reads = [strand() if source == "strands" else base for _ in fates]
    for k, fate in enumerate(fates):
        if fate == "edits":
            reads[k] = random_edits(reads[k], rng, cfg, expected, int(rng.integers(1, 4)))
        elif fate == "missing":
            reads[k] = None
        elif fate == "short":
            reads[k] = reads[k][: int(rng.integers(0, reads[k].size))]
        elif fate == "long":
            extra = rng.integers(0, 4, size=int(rng.integers(1, 5))).astype(np.uint8)
            reads[k] = np.concatenate([reads[k], extra])
        elif fate == "no_last_marker" and layout[0]:
            reads[k] = reads[k].copy()
            reads[k][-2:] = [C, G]
        elif fate == "a_tail":
            reads[k] = reads[k].copy()
            reads[k][-int(rng.integers(2, 2 * cfg.window)) :] = A
        elif fate == "a_run":
            reads[k] = reads[k].copy()
            at = int(rng.integers(0, reads[k].size))
            reads[k][at : at + cfg.window + int(rng.integers(1, 6))] = A
        elif fate == "tie" and layout[0]:
            read = reads[k] = reads[k].copy()
            lengths = _read_layout(expected, cfg).lengths
            j = int(rng.integers(0, len(lengths)))
            m = max(sum(lengths[: j + 1]) + 2 * j, 2)  # marker j's column
            read[m - 2 : m + 5] = [A, A, C, G, A, A, C][: read.size - (m - 2)]
    got, damaged = resync_reads(*pack_reads(reads), cfg, expected)
    want, want_damaged = resync_read_by_read(reads, cfg, expected)
    assert got.dtype == np.uint8
    assert got.shape == (len(reads), expected)
    assert np.array_equal(got, want)
    assert damaged.dtype == bool
    assert np.array_equal(damaged, want_damaged)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(3, 4), (10, 12), (20, 12), (50, 12), (None, 12)]),
    st.integers(20, 60),
    st.booleans(),
)
@example(0, (20, 12), 40, False)
@example(1, (None, 12), 30, True)
def test_resync_reads_of_many_damaged_reads_equals_per_chunk_decode(seed, layout, count, shuffle):
    # one call holding many damaged reads at once: edited, missing,
    # truncated and A-run reads among intact ones; shuffled, the reads
    # sit in the packed array out of order
    rng = np.random.default_rng(seed)
    cfg = BarrierConfig(partition_len=layout[0], window=layout[1])
    per_strand = 3 * (layout[0] or int(rng.integers(1, 60)))
    expected = int(rng.integers(1, per_strand + 1))
    reads = []
    for _ in range(count):
        trits = rng.integers(0, 3, size=expected).astype(np.uint8)
        (nts,) = stream_payloads(trits, cfg, per_strand)
        fate = int(rng.integers(0, 5))
        if fate == 0:
            nts = random_edits(nts, rng, cfg, expected, int(rng.integers(1, 7)))
        elif fate == 1:
            nts = None
        elif fate == 2:
            nts = nts[: int(rng.integers(0, nts.size))]
        elif fate == 3:  # a run of A over a marker or inside a partition
            nts = nts.copy()
            at = int(rng.integers(0, nts.size))
            nts[at : at + int(rng.integers(2, 9))] = A
        reads.append(nts)
    nts, starts, sizes = pack_reads(reads)
    order = rng.permutation(count) if shuffle else np.arange(count)
    got, damaged = resync_reads(nts, starts[order], sizes[order], cfg, expected)
    want, want_damaged = resync_read_by_read([reads[k] for k in order], cfg, expected)
    assert np.array_equal(got, want)
    assert np.array_equal(damaged, want_damaged)


def test_resync_reads_of_missing_reads_are_zeros_with_every_partition_damaged():
    cfg = BarrierConfig(partition_len=20)
    got, damaged = resync_reads(*pack_reads([None] * 3), cfg, 45)
    assert np.array_equal(got, np.zeros((3, 45), dtype=np.uint8))
    assert damaged.tolist() == [[True] * 3] * 3
    got, damaged = resync_reads(*pack_reads([]), cfg, 45)
    assert got.shape == (0, 45) and damaged.shape == (0, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.integers(1, 300),
    st.sampled_from([None, 3, 7, 50, 400]),
    st.integers(0, 4),
)
def test_partition_damage_equals_per_partition_loop(seed, rows, size, pl, hits):
    rng = np.random.default_rng(seed)
    want = rng.integers(0, 3, size=(rows, size)).astype(np.uint8)
    got = want.copy()
    for row in got:
        row[rng.integers(0, size, size=hits)] = rng.integers(0, 3, size=hits)
    diff = got != want
    step = pl or size  # None: one unbounded partition; the last may be short
    loop = [[d[j : j + step].any() for j in range(0, size, step)] for d in diff]
    damage = partition_errors(got, want, BarrierConfig(partition_len=pl, window=4))
    assert damage.shape == (rows, -(-size // step))
    assert damage.tolist() == loop


# -- stream layout against a per-partition reference -------------------------


def layout_by_partitions(trits, cfg, per_strand):
    """Payload and barrier nucleotide count of each per_strand-trit strand,
    one rotate_encode and one 'AA' per partition."""
    payloads, barrier_nt = [], 0
    for k in range(0, trits.size, per_strand):
        chunk = trits[k : k + per_strand]
        pl = cfg.partition_len or chunk.size
        pieces = []
        for off in range(0, chunk.size, pl):
            pieces += [rotate_encode(chunk[off : off + pl], seed=A), BARRIER]
        if cfg.partition_len is None:
            pieces.pop()  # no barriers, no marker
        payloads.append(np.concatenate(pieces))
        markers = -(-chunk.size // pl) if cfg.partition_len else 0
        barrier_nt += 2 * markers
    return payloads, barrier_nt


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(None, 12), (3, 4), (20, 12), (50, 12)]),
    st.integers(1, 4),
    st.sampled_from(["empty", "exact", "short"]),
)
def test_stream_payloads_equal_per_partition_layout(seed, layout, parts, fill):
    rng = np.random.default_rng(seed)
    cfg = BarrierConfig(partition_len=layout[0], window=layout[1])
    per_strand = parts * (layout[0] or int(rng.integers(1, 60)))
    strands = int(rng.integers(1, 5))
    ntrits = {
        "empty": 0,
        "exact": strands * per_strand,  # every strand and partition full
        "short": int(rng.integers(0, strands * per_strand)),  # a short last strand
    }[fill]
    trits = rng.integers(0, 3, size=ntrits).astype(np.uint8)
    got = stream_payloads(trits, cfg, per_strand)
    want, want_barrier_nt = layout_by_partitions(trits, cfg, per_strand)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert sum(p.size for p in got) - ntrits == want_barrier_nt


def test_stream_payloads_reject_bad_strand_sizes_and_trits():
    with pytest.raises(ValueError, match="whole number"):
        stream_payloads(np.zeros(30, dtype=np.uint8), BarrierConfig(partition_len=20), 30)
    with pytest.raises(ValueError, match="trit values"):
        stream_payloads(np.array([0, 3, 1], dtype=np.uint8), BarrierConfig(partition_len=20), 20)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_encoded_strands_and_barrier_count_match_per_partition_layout(scheme):
    cfg = ExperimentConfig(scheme=scheme)
    for image in (corpus_image(0)[:64, :72], corpus_image(7)):
        enc = encode_image(image, cfg)
        geom = enc.mapping.geometry
        body = slice(geom.fwd_len + geom.index_len, geom.strand_len)
        strands = iter(enc.strands)
        for sid, bc in cfg.stream_configs().items():
            trits = enc.stream_trits[sid]
            payloads, barrier_nt = layout_by_partitions(
                trits, bc, strand_trits(bc, geom.capacity)
            )
            for payload in payloads:
                assert np.array_equal(next(strands)[body][: -geom.rev_len], payload)
            assert enc.stream_barrier_nt[sid] == barrier_nt
        assert next(strands, None) is None
