"""End-to-end pipeline behaviour: round trips, routing, experiments."""

import copy
import itertools
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imgdna import pipeline
from imgdna.channel import ChannelConfig, pack_reads, perturb_pool
from imgdna.corpus import corpus_image
from imgdna.formats import FormatError, read_mapping, read_metadata, read_pool, segment_bounds, write_mapping, write_metadata, write_pool
from imgdna.pipeline import (
    DEFAULT_RATES,
    SCHEME_IMG_DNA,
    SCHEME_NO_BARRIER,
    SCHEME_RAW_DNA,
    SCHEMES,
    ExperimentConfig,
    PipelineError,
    decode_pool,
    decode_pools,
    encode_image,
    reference_image,
    run_coefficient_isolation,
    run_containment,
    run_pipeline,
    run_sweep,
    stream_classes,
    _primer_bounds,
    _target_positions,
)
from imgdna.strands import STREAM_AC, STREAM_DC, route_reads, validate_constraints
from test_barriers import resync_by_chunks
from test_channel import _apply_edits_reference
from test_strands import vote_index_reference


@pytest.fixture(scope="module")
def small_image():
    return corpus_image(0)


@pytest.fixture(scope="module")
def odd_image():
    img = corpus_image(7)
    assert img.shape == (130, 140)  # exercises edge-block padding
    return img


@pytest.mark.parametrize("scheme", SCHEMES)
def test_clean_round_trip_matches_reference(scheme, small_image):
    cfg = ExperimentConfig(scheme=scheme)
    enc = encode_image(small_image, cfg)
    dec = decode_pool(enc.strands, enc.mapping, enc.metadata)
    assert np.array_equal(dec.image, reference_image(small_image, cfg.quality))
    assert dec.missing_strands == 0
    assert dec.damaged_partitions == 0
    assert dec.quarantined == 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_clean_round_trip_odd_size(scheme, odd_image):
    cfg = ExperimentConfig(scheme=scheme)
    enc = encode_image(odd_image, cfg)
    dec = decode_pool(enc.strands, enc.mapping, enc.metadata)
    assert np.array_equal(dec.image, reference_image(odd_image, cfg.quality))
    assert dec.image.shape == odd_image.shape


@pytest.mark.parametrize("image", ["small_image", "odd_image"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_strand_layout_and_uid_order(scheme, image, request):
    cfg = ExperimentConfig(scheme=scheme)
    enc = encode_image(request.getfixturevalue(image), cfg)
    geom, layouts = enc.mapping.layouts()
    uids = {sid: uids for sid, (_, _, uids) in layouts.items()}
    assert list(uids) == list(stream_classes(scheme))
    assert uids[STREAM_DC].start == 0
    if STREAM_AC in uids:
        assert uids[STREAM_AC].start == len(uids[STREAM_DC])
    assert len(enc.strands) == sum(len(r) for r in uids.values())
    # the encoder wrote each strand's index from the layout the decoder
    # reads, so every strand routes to the (stream, offset) of its uid
    limit = 2 * max(len(r) for r in uids.values())
    routed = route_reads(*pack_reads(enc.strands), geom, limit).tolist()
    for sid, r in uids.items():
        for offset, uid in enumerate(r):
            assert (routed[uid] & 1, routed[uid] >> 1) == (sid, offset)
    for s in enc.strands:
        assert s.size <= cfg.strand_len
        assert s.size > geom.fwd_len + geom.rev_len + geom.index_len
    # every segment's trit extent must tile the stream exactly, one trit
    # count per segment, at the scheme's segment size
    n = enc.metadata.block_count
    steps = {(True, True): n, (True, False): cfg.dc_segment_blocks, (False, True): 1}
    for sm in enc.mapping.streams:
        assert sm.segment_blocks == steps[stream_classes(scheme)[sm.stream_id]]
        assert sum(sm.trit_counts) == enc.stream_trits[sm.stream_id].size
        assert len(sm.trit_counts) == len(segment_bounds(sm.segment_blocks, n))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sidecar_file_round_trip(tmp_path, small_image, scheme):
    cfg = ExperimentConfig(scheme=scheme)
    enc = encode_image(small_image, cfg)
    write_pool(tmp_path / "pool.fasta", enc.strands)
    write_mapping(tmp_path / "img.map", enc.mapping)
    write_metadata(tmp_path / "img.meta", enc.metadata)

    pool = read_pool(tmp_path / "pool.fasta")
    mapping = read_mapping(tmp_path / "img.map")
    meta = read_metadata(tmp_path / "img.meta")
    assert mapping == enc.mapping
    assert (meta.width, meta.height, meta.block_count) == (
        enc.metadata.width, enc.metadata.height, enc.metadata.block_count,
    )
    assert np.array_equal(meta.quant_table, enc.metadata.quant_table)
    assert meta.dc_code_lengths == enc.metadata.dc_code_lengths
    assert meta.ac_code_lengths == enc.metadata.ac_code_lengths
    dec = decode_pool([read for copies in pool.values() for read in copies], mapping, meta)
    assert np.array_equal(dec.image, reference_image(small_image, cfg.quality))


def test_encode_deterministic(small_image):
    a = encode_image(small_image, ExperimentConfig())
    b = encode_image(small_image, ExperimentConfig())
    assert len(a.strands) == len(b.strands)
    assert all(np.array_equal(x, y) for x, y in zip(a.strands, b.strands))


def test_run_pipeline_seed_controls_noise(small_image):
    cfg = ExperimentConfig()
    ch = ChannelConfig(rate=0.01)
    enc = encode_image(small_image, cfg)
    s1, dec1 = run_pipeline(small_image, cfg, ch, channel_seed=5, enc=enc)
    s2, dec2 = run_pipeline(small_image, cfg, ch, channel_seed=5, enc=enc)
    s3, _ = run_pipeline(small_image, cfg, ch, channel_seed=6, enc=enc)
    assert s1 == s2
    assert np.array_equal(dec1.image, dec2.image)
    assert s1 != s3


def test_missing_strand_leaves_gap_not_crash(small_image):
    cfg = ExperimentConfig()
    enc = encode_image(small_image, cfg)
    pool = enc.strands[:-1]  # drop the last AC strand entirely
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    ref = reference_image(small_image, cfg.quality)
    assert dec.missing_strands == 1
    assert dec.image.shape == ref.shape
    assert not np.array_equal(dec.image, ref)
    # every partition of the lost strand counts as damaged
    sm = enc.mapping.streams[-1]
    _, per, uids = enc.mapping.layouts()[1][sm.stream_id]
    last = sum(sm.trit_counts) - (len(uids) - 1) * per
    assert dec.damaged_partitions == -(-last // sm.partition_len)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_missing_strands_fail_segments(scheme, small_image):
    # a lost strand reads as zero trits, and every segment with a trit on
    # it fails. The last stream is the AC stream, or Raw-DNA's only one.
    enc = encode_image(small_image, ExperimentConfig(scheme=scheme))
    sm = enc.mapping.streams[-1]
    lost = enc.mapping.layouts()[1][sm.stream_id][2][::8]
    pool = [s for uid, s in enumerate(enc.strands) if uid not in lost]
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    assert dec.missing_strands == len(lost)
    assert 0 < dec.segments_failed <= len(sm.trit_counts)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_lost_strand_fails_every_segment_it_meets(scheme, small_image):
    # zero trits can decode as clean junk, so a segment fails whenever any
    # of its trits lies on the lost strand, and only then on a clean channel
    enc = encode_image(small_image, ExperimentConfig(scheme=scheme))
    layouts = enc.mapping.layouts()[1]
    for sm in enc.mapping.streams:
        _, per, uids = layouts[sm.stream_id]
        for k in sorted({0, len(uids) // 2, len(uids) - 1}):
            lo, hi = k * per, min((k + 1) * per, sum(sm.trit_counts))
            want, start = 0, 0
            for count in sm.trit_counts:
                want += start < hi and lo < start + count
                start += count
            pool = [s for uid, s in enumerate(enc.strands) if uid != uids[k]]
            dec = decode_pool(pool, enc.mapping, enc.metadata)
            assert dec.missing_strands == 1
            assert dec.segments_failed == want, (sm.stream_id, k)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_rate_channel_fails_no_segment(scheme, small_image):
    enc = encode_image(small_image, ExperimentConfig(scheme=scheme))
    pool = perturb_pool(enc.strands, ChannelConfig(rate=0.0), 3, protect=_primer_bounds(enc))
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    assert dec.segments_failed == 0


def test_truncated_strand_is_quarantined(small_image):
    cfg = ExperimentConfig()
    enc = encode_image(small_image, cfg)
    pool = [s.copy() for s in enc.strands]
    pool[3] = pool[3][:40]  # shorter than primers plus index
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    assert dec.quarantined == 1
    assert dec.missing_strands == 1


@lru_cache(maxsize=None)
def _crop_encoding(scheme):
    return encode_image(corpus_image(0)[:32, :32], ExperimentConfig(scheme=scheme))


_READS = st.binary(max_size=300).map(lambda b: np.frombuffer(b, dtype=np.uint8) % 4)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SCHEMES),
    st.floats(0.0, 0.3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 2**16), _READS), max_size=4),
    st.booleans(),
)
@example(SCHEME_IMG_DNA, 0.0, 1, False, 0, [], True)  # an empty pool
@example(SCHEME_RAW_DNA, 0.0, 1, False, 0, [(0, np.zeros(0, np.uint8))], True)
@example(SCHEME_IMG_DNA, 0.0, 2, False, 0, [(3, np.zeros(0, np.uint8))], False)
def test_decode_pool_never_raises(scheme, rate, copies, corrupt_primers, seed, junk, empty):
    # any pool the channel can produce, with junk and empty reads anywhere in it, decodes
    enc = _crop_encoding(scheme)
    channel = ChannelConfig(rate=rate, copies=copies, corrupt_primers=corrupt_primers)
    pool = [] if empty else perturb_pool(enc.strands, channel, seed, protect=_primer_bounds(enc))
    for at, read in junk:
        pool.insert(at % (len(pool) + 1), read)
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    assert dec.image.shape == (32, 32)
    assert dec.missing_strands <= len(enc.strands)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pool_without_a_strands_reads_counts_it_missing(scheme):
    # a strand none of whose reads arrive is lost, not a crash or a quarantine;
    # the other strands' agreeing copies are not duplicates
    enc = _crop_encoding(scheme)
    reads = perturb_pool(enc.strands, ChannelConfig(rate=0.0, copies=2), 0)
    dec = decode_pool(reads[2:], enc.mapping, enc.metadata)
    assert (dec.missing_strands, dec.quarantined, dec.duplicates) == (1, 0, 0)
    once = decode_pool(enc.strands[1:], enc.mapping, enc.metadata)
    assert np.array_equal(once.image, dec.image)
    assert once.missing_strands == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_read_order_carries_nothing(scheme):
    enc = _crop_encoding(scheme)
    reads = perturb_pool(enc.strands, ChannelConfig(rate=0.01), 5, protect=_primer_bounds(enc))
    shuffled = [reads[i] for i in np.random.default_rng(6).permutation(len(reads))]
    ordered = decode_pool(reads, enc.mapping, enc.metadata)
    dec = decode_pool(shuffled, enc.mapping, enc.metadata)
    assert np.array_equal(dec.image, ordered.image)
    assert replace(dec, image=None) == replace(ordered, image=None)
    assert ordered.damaged_partitions > 0  # the pool is noisy


def _mixed_pools(enc):
    """Pools of one encoding: clean, 0.5% and 5% noise, empty, without the
    last stream's strands, and three noisy copies of every strand."""
    protect = _primer_bounds(enc)
    noisy = [
        perturb_pool(enc.strands, ChannelConfig(rate=rate), seed, protect=protect)
        for seed, rate in ((1, 0.005), (2, 0.05))
    ]
    last = enc.mapping.layouts()[1][enc.mapping.streams[-1].stream_id][2]
    dropped = [strand for uid, strand in enumerate(enc.strands) if uid not in last]
    copies = perturb_pool(enc.strands, ChannelConfig(rate=0.01, copies=3), 3, protect=protect)
    return [list(enc.strands), *noisy, [], dropped, copies]


def _fields(dec):
    return (dec.image.shape, dec.image.tobytes(), replace(dec, image=None))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_decode_pools_equals_one_pool_at_a_time(scheme, odd_image, monkeypatch):
    enc = encode_image(odd_image, ExperimentConfig(scheme=scheme))
    pools = _mixed_pools(enc)
    want = [_fields(decode_pool(pool, enc.mapping, enc.metadata)) for pool in pools]
    assert [_fields(dec) for dec in decode_pools(pools, enc.mapping, enc.metadata)] == want
    assert want[0][2].damaged_partitions == 0 and want[2][2].segments_failed > 0
    assert want[3][2].missing_strands == len(enc.strands)
    assert decode_pools([], enc.mapping, enc.metadata) == []

    # under a cap of two pools' reads, the batch takes three passes, the
    # last one the copies=3 pool alone, which is over the cap
    passes = []
    decode_pass = pipeline._decode_pass

    def spy(dis, *args):
        passes.append(len(dis))
        return decode_pass(dis, *args)

    monkeypatch.setattr(pipeline, "_decode_pass", spy)
    monkeypatch.setattr(pipeline, "DECODE_BATCH_READS", 2 * len(enc.strands))
    got = decode_pools(iter(pools), enc.mapping, enc.metadata)
    assert [_fields(dec) for dec in got] == want
    assert passes == [2, 3, 1]


# each edit breaks a mapping and returns the start of the error it raises
def _zero_segment_size(m):
    m.streams[0].segment_blocks = 0
    return f"stream {m.streams[0].stream_id}: segment size"


def _one_trit_count_too_many(m):
    m.streams[-1].trit_counts.append(0)
    return f"stream {m.streams[-1].stream_id}: segment trit counts"


def _one_trit_count_too_few(m):
    m.streams[0].trit_counts.pop()
    return f"stream {m.streams[0].stream_id}: segment trit counts"


def _negative_trit_count(m):
    m.streams[-1].trit_counts[-1] = -5
    return f"stream {m.streams[-1].stream_id}: segment trit counts"


def _bad_primer(m):
    m.fwd_primer = "X" + m.fwd_primer[1:]
    return "strand geometry: invalid nucleotide 'X'"


def _short_strand(m):
    m.strand_len = 40  # no room for the primers and the index
    return "strand geometry: strand too short"


def _huge_partition(m):
    m.streams[-1].partition_len = 10**6  # no strand holds one partition
    return f"stream {m.streams[-1].stream_id}: strand capacity"


def _odd_window(m):
    m.streams[-1].window = 3
    return f"stream {m.streams[-1].stream_id}: window must be an even number"


def _unknown_scheme(m):
    m.scheme = "bogus"
    return "unknown scheme 'bogus'"


def _relabelled_stream(m):
    m.streams[-1].stream_id += 1  # IMG-DNA's AC stream as 2, Raw-DNA's one stream as 1
    return "stream ids"


def _duplicate_stream(m):
    m.streams.append(copy.deepcopy(m.streams[-1]))
    return "stream ids"


def _dropped_stream(m):
    m.streams.pop()
    return "stream ids"


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "edit",
    [
        _zero_segment_size,
        _one_trit_count_too_many,
        _one_trit_count_too_few,
        _negative_trit_count,
        _bad_primer,
        _short_strand,
        _huge_partition,
        _odd_window,
        _unknown_scheme,
        _relabelled_stream,
        _duplicate_stream,
        _dropped_stream,
    ],
)
def test_mapping_that_disagrees_with_the_image_is_a_format_error(scheme, edit):
    enc = _crop_encoding(scheme)
    decode_pool(enc.strands, enc.mapping, enc.metadata)  # the encoded mapping is accepted
    mapping = copy.deepcopy(enc.mapping)
    with pytest.raises(FormatError, match=edit(mapping)):
        decode_pool(enc.strands, mapping, enc.metadata)


def test_config_whose_strands_hold_no_partition_fails_at_encode(small_image):
    # the encoder lays its strands out with the decoder's layout, so it
    # refuses what the decoder would
    with pytest.raises(FormatError, match="stream 0: strand capacity 10 nt cannot hold one 20-trit"):
        encode_image(small_image, ExperimentConfig(strand_len=62))
    for strand_len in (40, 60):  # primers and a width-4 index leave under 10 nt
        with pytest.raises(FormatError, match="strand geometry: strand too short"):
            encode_image(small_image, ExperimentConfig(strand_len=strand_len))


def test_single_error_containment(small_image):
    stats = run_containment(small_image, trials=300, seed=11)
    assert stats.trials == 300
    assert stats.confined_fraction == 1.0
    assert stats.within_two_fraction >= 0.99


def test_seeded_draw_order_is_pinned(small_image):
    # seeded figures kept as literals: any change to the order of RNG draws
    # in the channel, the injections or the trial loop fails here
    hist = {
        SCHEME_IMG_DNA: {0: 44, 1: 256},
        SCHEME_NO_BARRIER: {0: 26, 1: 274},
    }
    for scheme, want in hist.items():
        stats = run_containment(small_image, ExperimentConfig(scheme=scheme), trials=300, seed=11)
        assert stats.damage_histogram == want, scheme
    rows = run_coefficient_isolation([small_image], trials=2)
    assert rows == [
        [SCHEME_IMG_DNA, "dc", 0.01, 0.6767147261027522, 0.023700068662082147],
        [SCHEME_IMG_DNA, "ac", 0.01, 0.39280700658201484, 0.08090339869447831],
        [SCHEME_NO_BARRIER, "dc", 0.01, 0.6637366513828178, 0.03199022747904397],
        [SCHEME_NO_BARRIER, "ac", 0.01, 0.2700307277415183, 0.11539751376763865],
        [SCHEME_RAW_DNA, "dc", 0.01, 0.008143482543183306, 0.005177038407148098],
        [SCHEME_RAW_DNA, "ac", 0.01, 0.008921350109263242, 0.002194323852005105],
    ]


def route_read(read, geom, limit):
    """(stream, offset, payload) addressed by one read, or None: primers
    stripped by position, the index voted on from the front of the rest,
    one window and one candidate at a time."""
    if read.size <= geom.fwd_len + geom.rev_len + geom.index_len:
        return None
    body = read[geom.fwd_len : read.size - geom.rev_len]
    value = vote_index_reference(
        body[: geom.index_len + 1].tolist(), geom.index_width, geom.index_seed, limit
    )
    if value is None:
        return None
    return value & 1, value >> 1, body[geom.index_len :]


def containment_by_trial(image, cfg, trials, seed):
    """run_containment's up-front draws, then one edit applied in place,
    one route_read, one per-chunk marker search and one per-partition
    damage count per trial, each in turn."""
    enc = encode_image(image, cfg)
    geom, layouts = enc.mapping.layouts()
    limit = 2 * max(len(uids) for _, _, uids in layouts.values())
    targets = {}
    for sid, (bc, per, uids) in layouts.items():
        for k, uid in enumerate(uids):
            want = enc.stream_trits[sid][k * per : (k + 1) * per]
            targets[uid] = (sid, k, bc, want)
    cum = np.concatenate([[0], np.cumsum([s.size for s in enc.strands])])
    rng = np.random.default_rng(seed)
    ranges = ((0, cum[-1]), (0, 3), (1, 4), (0, 4))  # position, kind, shift, nucleotide
    draws = [rng.integers(lo, hi, trials).tolist() for lo, hi in ranges]
    within = confined_count = 0
    hist = {}
    for flat_pos, kind, shift, nt in zip(*draws):
        uid = int(np.searchsorted(cum, flat_pos, side="right")) - 1
        pos = flat_pos - int(cum[uid])
        read = _apply_edits_reference(enc.strands[uid], [(pos, kind, shift if kind == 0 else nt)])
        sid, offset, bc, want = targets[uid]
        routed = route_read(read, geom, limit)
        confined = routed is None or routed[:2] == (sid, offset)
        if routed is not None and confined:
            got = resync_by_chunks(routed[2], bc, want.size)[0]
        else:
            got = np.zeros_like(want)
        step = bc.partition_len or want.size
        damage = sum(
            1 for j in range(0, want.size, step) if (got[j : j + step] != want[j : j + step]).any()
        )
        within += damage <= 2
        confined_count += confined
        hist[damage] = hist.get(damage, 0) + 1
    return within, confined_count, hist


def _pattern(height, width):
    return (np.arange(height * width).reshape(height, width) * 7 % 256).astype(np.uint8)


CONTAINMENT_IMAGES = {
    "corpus3": lambda: corpus_image(3),
    "corpus15": lambda: corpus_image(15),
    "16x16": lambda: _pattern(16, 16),
    "8x8": lambda: _pattern(8, 8),
    "40x24": lambda: _pattern(24, 40),
}


@pytest.mark.parametrize("seed", [5, 0xC2C2])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("image", sorted(CONTAINMENT_IMAGES))
def test_containment_equals_per_trial_loop(image, scheme, seed, monkeypatch):
    # small images have a short final strand per stream, and NoBarrier's
    # DC and AC strands share a layout, so one batch mixes both streams;
    # a batch of 97 trials makes the trial count cross batch boundaries
    monkeypatch.setattr(pipeline, "CONTAINMENT_BATCH", 97)
    img, cfg = CONTAINMENT_IMAGES[image](), ExperimentConfig(scheme=scheme)
    stats = run_containment(img, cfg, trials=400, seed=seed)
    within, confined, hist = containment_by_trial(img, cfg, 400, seed)
    assert stats.trials == 400
    assert (stats.within_two_partitions, stats.confined_to_strand) == (within, confined)
    assert list(stats.damage_histogram.items()) == list(hist.items())


def test_containment_is_independent_of_the_batch_size(monkeypatch):
    # every trial's edit is drawn before the first batch
    image = corpus_image(7)[:24, :40]
    want = run_containment(image, trials=300, seed=9)
    for batch in (1, 97):
        monkeypatch.setattr(pipeline, "CONTAINMENT_BATCH", batch)
        got = run_containment(image, trials=300, seed=9)
        assert got == want, batch
        assert list(got.damage_histogram.items()) == list(want.damage_histogram.items())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("image", [0, 7])
def test_small_crops_keep_every_single_error_confined(image, scheme):
    # a 16x16 crop would get a width-2 or width-3 index, where one edit can
    # route a read to another strand's slot; the width floor of 4 keeps
    # every trial confined
    crop = corpus_image(image)[:16, :16]
    cfg = ExperimentConfig(scheme=scheme)
    assert encode_image(crop, cfg).mapping.index_width == 4
    stats = run_containment(crop, cfg, trials=5000, seed=5)
    assert stats.confined_fraction == 1.0


@pytest.mark.parametrize("every", [1, 4])
def test_misrouted_reads_are_unconfined_lost_strands(small_image, every, monkeypatch):
    # real misroutes are too rare to test on; here every k-th routed read
    # is either quarantined or sent to an offset no strand has
    cfg = ExperimentConfig()
    real = pipeline.route_reads

    def run(fate):
        chosen, calls = [], itertools.count()

        def route(nts, starts, sizes, geom, limit):
            routed = real(nts, starts, sizes, geom, limit)
            for k, value in enumerate(routed.tolist()):
                if value < 0 or next(calls) % every:
                    continue
                chosen.append((value & 1, value >> 1))
                routed[k] = -1 if fate == "quarantine" else (value & 1) + 2 * limit
            return routed

        monkeypatch.setattr(pipeline, "route_reads", route)
        return run_containment(small_image, cfg, trials=300, seed=3), chosen

    kept, chosen = run("quarantine")
    moved, again = run("misroute")
    assert chosen == again and len(chosen) >= 300 // every - 1
    assert kept.confined_to_strand == 300
    assert moved.confined_to_strand == 300 - len(chosen)
    # a misrouted read loses its strand, as a quarantined one does
    assert moved.damage_histogram == kept.damage_histogram
    assert moved.within_two_partitions == kept.within_two_partitions
    if every == 1:  # every trial lost its strand: the damage is all of its nonzero partitions
        enc = encode_image(small_image, cfg)
        lost = {}
        for stream, (bc, per, _) in enc.mapping.layouts()[1].items():
            for sid, offset in chosen:
                if sid == stream:
                    want = enc.stream_trits[sid][offset * per : (offset + 1) * per]
                    step = bc.partition_len or want.size
                    d = sum(want[j : j + step].any() for j in range(0, want.size, step))
                    lost[d] = lost.get(d, 0) + 1
        assert moved.damage_histogram == lost


def test_trial_counts_are_validated(small_image):
    with pytest.raises(PipelineError, match="trials"):
        run_containment(small_image, trials=-3)
    assert run_containment(small_image, trials=0).trials == 0
    points = [(SCHEME_IMG_DNA, ExperimentConfig())]
    with pytest.raises(PipelineError, match="trials"):
        run_sweep([small_image], points, rates=(0.01,), trials=0)
    with pytest.raises(PipelineError, match="trials"):
        run_coefficient_isolation([small_image], trials=0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_strand_streams_route_without_misrouting(scheme):
    # one strand per stream would fit width-1 indexes, whose two values sit
    # only 2 edits apart, and below width 4 one edit can pass as another
    # value; encoding starts at width 4 so no error misroutes
    image = (np.arange(64).reshape(8, 8) * 7 % 256).astype(np.uint8)
    cfg = ExperimentConfig(scheme=scheme)
    enc = encode_image(image, cfg)
    assert enc.mapping.index_width == 4
    dec = decode_pool(enc.strands, enc.mapping, enc.metadata)
    assert np.array_equal(dec.image, reference_image(image, cfg.quality))
    stats = run_containment(image, cfg, trials=4000)
    assert stats.confined_to_strand == 4000


def test_report_fields_populated(small_image):
    cfg = ExperimentConfig()
    enc = encode_image(small_image, cfg)
    score, dec = run_pipeline(small_image, cfg, ChannelConfig(rate=0.0), enc=enc)
    assert score == 1.0
    assert enc.mapping.scheme == SCHEME_IMG_DNA
    assert 0 < enc.payload_density < 2.0
    assert 0 < enc.strand_density < enc.payload_density
    assert enc.barrier_overhead_for(STREAM_DC) > 0
    assert enc.barrier_overhead_for(STREAM_AC) > enc.barrier_overhead_for(STREAM_DC)
    constraints = validate_constraints(enc.strands)
    assert 0.3 < constraints.gc_mean < 0.7
    assert constraints.max_homopolymer <= 3
    assert (
        dec.missing_strands, dec.quarantined, dec.duplicates,
        dec.damaged_partitions, dec.segments_failed,
    ) == (0, 0, 0, 0, 0)
    assert dec.image.dtype == np.uint8


def test_no_barrier_scheme_has_zero_overhead(small_image):
    enc = encode_image(small_image, ExperimentConfig(scheme=SCHEME_NO_BARRIER))
    assert enc.stream_barrier_nt == {STREAM_DC: 0, STREAM_AC: 0}
    assert enc.barrier_overhead_for(STREAM_DC) == 0.0
    assert enc.barrier_overhead_for(STREAM_AC) == 0.0
    # one payload deletion damages the strand's single unbounded partition
    geom = enc.mapping.geometry
    pool = [s.copy() for s in enc.strands]
    pool[0] = np.delete(pool[0], geom.fwd_len + geom.index_len + 10)
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    assert (dec.quarantined, dec.missing_strands, dec.damaged_partitions) == (0, 0, 1)


def test_run_sweep_rows_and_determinism(tmp_path, small_image):
    points = [
        (SCHEME_IMG_DNA, ExperimentConfig()),
        (SCHEME_RAW_DNA, ExperimentConfig(scheme=SCHEME_RAW_DNA)),
    ]
    out = tmp_path / "sweep.csv"
    rows = run_sweep([small_image], points, rates=(0.005,), trials=2, out_path=out)
    again = run_sweep([small_image], points, rates=(0.005,), trials=2)
    assert rows == again
    assert [r[0] for r in rows] == [SCHEME_IMG_DNA, SCHEME_RAW_DNA]
    for row in rows:
        assert 0.0 <= row[2] <= 1.0 and row[3] >= 0.0 and row[4] > 1.0
    text = out.read_text().splitlines()
    assert text[0] == "scheme,error_rate,mean_ssim,ci90_half_width,density"
    assert len(text) == 3


def test_target_positions_partition_payload(small_image):
    enc = encode_image(small_image, ExperimentConfig(scheme=SCHEME_RAW_DNA))
    dc = set(map(tuple, _target_positions(enc, STREAM_DC).tolist()))
    ac = set(map(tuple, _target_positions(enc, STREAM_AC).tolist()))
    assert dc and ac
    assert not dc & ac
    geom = enc.mapping.geometry
    body = geom.fwd_len + geom.index_len
    total = sum(s.size - body - geom.rev_len for s in enc.strands)
    assert len(dc) + len(ac) == total
    for uid, pos in list(dc)[:50] + list(ac)[:50]:
        assert body <= pos < enc.strands[uid].size - geom.rev_len


def test_target_positions_run_strand_by_strand(small_image):
    # every payload position of the target stream's strands, uid-major
    enc = encode_image(small_image, ExperimentConfig())
    geom, layouts = enc.mapping.layouts()
    body = geom.fwd_len + geom.index_len
    for sid, (_, _, uids) in layouts.items():
        want = [
            [uid, body + p]
            for uid in uids
            for p in range(enc.strands[uid].size - body - geom.rev_len)
        ]
        assert _target_positions(enc, sid).tolist() == want


def test_isolation_rows_cover_targets(small_image):
    rows = run_coefficient_isolation(
        [small_image], schemes=(SCHEME_IMG_DNA,), rates=(0.01,), trials=2
    )
    assert [(r[0], r[1]) for r in rows] == [(SCHEME_IMG_DNA, "dc"), (SCHEME_IMG_DNA, "ac")]
    for row in rows:
        assert 0.0 <= row[3] <= 1.0


@pytest.mark.parametrize("rate", [-0.5, 3.0, float("nan"), float("inf")])
def test_isolation_rates_must_be_in_unit_interval(rate):
    image = corpus_image(0)[:32, :32]
    with pytest.raises(PipelineError, match="rates must be in"):
        run_coefficient_isolation([image], rates=(0.01, rate), trials=1)


def test_config_validation():
    with pytest.raises(PipelineError):
        ExperimentConfig(scheme="Hybrid")
    with pytest.raises(PipelineError):
        ExperimentConfig(quality=0)
    with pytest.raises(PipelineError):
        ExperimentConfig(dc_segment_blocks=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dc_partition_len=1)  # below the barrier minimum
    # barriers are turned off by the NoBarrier-Separated scheme, not by None
    for scheme in SCHEMES:
        with pytest.raises(PipelineError, match="partition lengths"):
            ExperimentConfig(scheme=scheme, dc_partition_len=None)
        with pytest.raises(PipelineError, match="partition lengths"):
            ExperimentConfig(scheme=scheme, ac_partition_len=None)


def test_rates_constant_is_sorted():
    assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)
    assert all(0 < r < 0.1 for r in DEFAULT_RATES)
