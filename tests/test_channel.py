import numpy as np
import pytest

from imgdna.channel import (
    ChannelConfig,
    draw_point_edits,
    edit_reads,
    edit_value,
    pack_reads,
    parse_channel_config,
    perturb_pool,
    perturb_strand,
    seed_words,
    unpack_reads,
)


def strand_rng(seed: int, uid: int, copy: int) -> np.random.Generator:
    """The generator perturb_pool gives read (uid, copy), built by numpy."""
    return np.random.default_rng(np.random.SeedSequence([seed, uid, copy]))


def perturb_pool_reference(strands, cfg, seed, protect=(0, 0)):
    """perturb_pool with one numpy-seeded generator per read, in (uid, copy) order."""
    out = []
    for uid, strand in enumerate(strands):
        lo, hi = 0, strand.size
        if not cfg.corrupt_primers:
            lo = min(protect[0], strand.size)
            hi = max(strand.size - protect[1], lo)
        out += [perturb_strand(strand, cfg, strand_rng(seed, uid, c), lo, hi) for c in range(cfg.copies)]
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(rate=-0.1)
    with pytest.raises(ValueError):
        ChannelConfig(rate=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(rate=0.1, sub_weight=0, ins_weight=0, del_weight=0)
    with pytest.raises(ValueError):
        ChannelConfig(rate=0.1, copies=0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for field in ("sub_weight", "ins_weight", "del_weight"):
            with pytest.raises(ValueError, match="finite"):
                ChannelConfig(rate=0.1, **{field: bad})
    assert ChannelConfig(rate=0.5).fractions == (1 / 3, 1 / 3, 1 / 3)


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 1, 1), (1, 0, 0), (0.2, 0, 0.8)])
def test_kind_draw_matches_generator_choice(weights):
    # perturb_strand places one uniform per hit on kind_cdf, which is the
    # draw Generator.choice(3, n, p=fractions) makes; if numpy ever changes
    # choice, this names the break before the seeded outputs move
    cfg = ChannelConfig(0.1, *weights)
    for seed in range(2000):
        n = 1 + seed % 17
        ours, theirs = strand_rng(seed, 0, 0), strand_rng(seed, 0, 0)
        kinds = cfg.kind_cdf.searchsorted(ours.random(n), side="right")
        assert np.array_equal(kinds, theirs.choice(3, n, p=cfg.fractions))
        assert ours.random() == theirs.random()


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**70 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_equal_seed_sequence(seed):
    # seed_words re-implements numpy's SeedSequence hash; if a numpy
    # release changes that hash, this test names the break
    words = seed_words(seed, 301, 5)
    assert words.shape == (301, 5, 4) and words.dtype == np.uint64
    for uid in range(301):
        for copy in range(5):
            want = np.random.SeedSequence([seed, uid, copy]).generate_state(4, np.uint64)
            assert np.array_equal(words[uid, copy], want), (uid, copy)


@pytest.mark.parametrize("rate", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("protect", [(0, 0), (20, 15)])
@pytest.mark.parametrize("corrupt_primers", [False, True])
def test_perturb_pool_equals_per_read_reference(rate, copies, protect, corrupt_primers):
    rng = np.random.default_rng(6)
    strands = [rng.integers(0, 4, size=int(n)).astype(np.uint8) for n in rng.integers(0, 260, 40)]
    cfg = ChannelConfig(rate=rate, copies=copies, corrupt_primers=corrupt_primers)
    for seed in (0, 2**32, 2**70 + 3):
        got = perturb_pool(strands, cfg, seed, protect=protect)
        want = perturb_pool_reference(strands, cfg, seed, protect=protect)
        assert len(got) == len(want) == len(strands) * copies
        for g, w in zip(got, want):
            assert g.dtype == np.uint8 and np.array_equal(g, w)


def test_pool_seed_must_be_a_nonnegative_integer():
    strands = [np.zeros(50, dtype=np.uint8)]
    cfg = ChannelConfig(rate=0.2)
    with pytest.raises(ValueError):
        perturb_pool(strands, cfg, seed=-1)
    with pytest.raises(TypeError):
        perturb_pool(strands, cfg, seed=3.0)
    want = perturb_pool(strands, cfg, seed=7)[0]
    for seed in (np.uint32(7), np.int64(7)):
        assert np.array_equal(perturb_pool(strands, cfg, seed=seed)[0], want)
    assert perturb_pool([], cfg, seed=7) == []


def test_zero_rate_is_identity():
    rng = np.random.default_rng(1)
    strand = rng.integers(0, 4, size=200).astype(np.uint8)
    out = perturb_pool([strand], ChannelConfig(rate=0.0, copies=3), seed=9)
    assert len(out) == 3
    for copy in out:
        assert np.array_equal(copy, strand)


def test_full_rate_substitutions_change_every_eligible_position():
    rng = np.random.default_rng(2)
    strand = rng.integers(0, 4, size=150).astype(np.uint8)
    cfg = ChannelConfig(rate=1.0, sub_weight=1, ins_weight=0, del_weight=0)
    out = perturb_pool([strand], cfg, seed=5, protect=(20, 20))[0]
    assert out.size == strand.size
    assert np.array_equal(out[:20], strand[:20])  # primers spared
    assert np.array_equal(out[-20:], strand[-20:])
    assert np.all(out[20:-20] != strand[20:-20])  # substitution never repeats the nt


def test_corrupt_primers_reaches_the_ends():
    strand = np.zeros(100, dtype=np.uint8)
    cfg = ChannelConfig(rate=1.0, sub_weight=1, ins_weight=0, del_weight=0, corrupt_primers=True)
    out = perturb_pool([strand], cfg, seed=5, protect=(20, 20))[0]
    assert np.all(out != 0)


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(3)
    strands = [rng.integers(0, 4, size=250).astype(np.uint8) for _ in range(5)]
    cfg = ChannelConfig(rate=0.05, copies=2)
    a = perturb_pool(strands, cfg, seed=11)
    b = perturb_pool(strands, cfg, seed=11)
    c = perturb_pool(strands, cfg, seed=12)
    assert len(a) == len(b) == len(c) == 10
    for ra, rb in zip(a, b):
        assert np.array_equal(ra, rb)
    assert any(not np.array_equal(ra, rc) for ra, rc in zip(a, c))


def test_noise_is_per_strand_not_per_pool():
    # a strand's noise must not depend on what else is in the pool
    rng = np.random.default_rng(4)
    s0 = rng.integers(0, 4, size=250).astype(np.uint8)
    s1 = rng.integers(0, 4, size=250).astype(np.uint8)
    cfg = ChannelConfig(rate=0.05)
    small = perturb_pool([s0], cfg, seed=7)
    big = perturb_pool([s0, s1], cfg, seed=7)
    assert np.array_equal(small[0], big[0])


def test_copies_receive_independent_noise():
    rng = np.random.default_rng(5)
    strand = rng.integers(0, 4, size=250).astype(np.uint8)
    out = perturb_pool([strand], ChannelConfig(rate=0.1, copies=3), seed=8)
    assert not np.array_equal(out[0], out[1])
    assert not np.array_equal(out[1], out[2])


def test_event_counts_match_binomial():
    n = 200_000
    rate = 0.01
    strand = np.zeros(n, dtype=np.uint8)
    cfg = ChannelConfig(rate=rate, sub_weight=1, ins_weight=0, del_weight=0)
    out = perturb_strand(strand, cfg, strand_rng(1, 0, 0), 0, n)
    events = int((out != 0).sum())
    mean = n * rate
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(events - mean) < 4 * sigma


def test_error_kind_split_matches_weights():
    # insertion-only grows, deletion-only shrinks; mixed hits the weights
    n = 120_000
    rate = 0.01
    strand = np.zeros(n, dtype=np.uint8)
    grow = perturb_strand(
        strand, ChannelConfig(rate=rate, sub_weight=0, ins_weight=1, del_weight=0),
        strand_rng(2, 0, 0), 0, n,
    )
    shrink = perturb_strand(
        strand, ChannelConfig(rate=rate, sub_weight=0, ins_weight=0, del_weight=1),
        strand_rng(3, 0, 0), 0, n,
    )
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs((grow.size - n) - n * rate) < 4 * sigma
    assert abs((n - shrink.size) - n * rate) < 4 * sigma
    # 2:1:1 weights: length is unchanged in expectation, subs dominate
    cfg = ChannelConfig(rate=rate, sub_weight=2.0, ins_weight=1.0, del_weight=1.0)
    out = perturb_strand(strand, cfg, strand_rng(4, 0, 0), 0, n)
    assert abs(out.size - n) < 4 * sigma


def test_insertion_goes_after_the_position():
    strand = np.array([0, 1, 2, 3], dtype=np.uint8)
    cfg = ChannelConfig(rate=1.0, sub_weight=0, ins_weight=1, del_weight=0)
    out = perturb_strand(strand, cfg, strand_rng(5, 0, 0), 0, 1)
    assert out.size == 5
    assert out[0] == 0  # original nt kept, insertion lands behind it
    assert np.array_equal(out[2:], strand[1:])


def _apply_edits_reference(nts, edits):
    # edits applied from the highest position down, so lower ones keep their place
    seq = nts.copy()
    for pos, kind, value in sorted(edits, reverse=True):
        if kind == 0:
            seq[pos] = (seq[pos] + value) % 4
        elif kind == 1:
            seq = np.insert(seq, pos + 1, value)
        else:
            seq = np.delete(seq, pos)
    return seq


def test_edit_reads_matches_one_at_a_time_reference():
    rng = np.random.default_rng(12)
    for _ in range(300):
        bases, edits = [], []
        for read in range(int(rng.integers(1, 12))):
            n = int(rng.integers(0, 61))
            bases.append(rng.integers(0, 4, size=n).astype(np.uint8))
            picks = rng.choice(n, size=int(rng.integers(0, min(5, n) + 1)), replace=False)
            for pos in picks.tolist():
                kind = int(rng.integers(0, 3))
                value = int(rng.integers(1, 4)) if kind == 0 else int(rng.integers(0, 4))
                edits.append((read, pos, kind, value))
        columns = np.array(edits, dtype=np.int64).reshape(-1, 4).T
        packed = edit_reads(bases, *columns)
        got = unpack_reads(*packed)
        assert packed[0].dtype == np.uint8 and len(got) == len(bases)
        for read, base in enumerate(bases):
            want = _apply_edits_reference(base, [e[1:] for e in edits if e[0] == read])
            assert np.array_equal(got[read], want), (base, edits)
        shuffled = columns[:, rng.permutation(columns.shape[1])]
        again = edit_reads(bases, *shuffled)  # order-free
        assert all(np.array_equal(x, y) for x, y in zip(packed, again))
        assert not any(np.shares_memory(packed[0], base) for base in bases)


def test_pack_reads_round_trip_and_missing_reads():
    reads = [np.array([1, 2], np.uint8), None, np.zeros(0, np.uint8), np.array([3], np.uint8)]
    nts, starts, sizes = pack_reads(reads)
    assert nts.tolist() == [1, 2, 3] and starts.tolist() == [0, 2, 2, 2] and sizes.tolist() == [2, 0, 0, 1]
    assert [r.tolist() for r in unpack_reads(nts, starts, sizes)] == [[1, 2], [], [], [3]]
    nts, starts, sizes = pack_reads([])
    assert nts.dtype == np.uint8 and nts.size == starts.size == sizes.size == 0


def _scalar_point_edits(rng, total, n):
    """n rounds of the scalar draws run_containment once made per trial."""
    edits = []
    for _ in range(n):
        pos = int(rng.integers(0, total))
        kind = int(rng.integers(0, 3))
        edits.append((pos, kind, edit_value(rng, kind)))
    return edits


@pytest.mark.parametrize("total", [3, 5, 76_000, 2**31 + 1, 3 * 10**9])
def test_point_edit_draws_equal_scalar_draws(total):
    # 2**31 + 1 rejects about half of all halves for the position draw;
    # odd and even call lengths make later calls start on a buffered half
    for seed in range(300):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # start with a buffered half
            assert want_rng.integers(0, 7) == got_rng.integers(0, 7)
        for n in (7, 4, 1, 10, 0, 3):
            want = _scalar_point_edits(want_rng, total, n)
            pos, kind, value = draw_point_edits(got_rng, total, n)
            assert all(a.dtype == np.int64 for a in (pos, kind, value))
            assert list(zip(pos.tolist(), kind.tolist(), value.tolist())) == want, (seed, n)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (seed, n)
        assert got_rng.random() == want_rng.random()
        assert got_rng.integers(0, 1000) == want_rng.integers(0, 1000)


def test_point_edit_draws_reject_what_they_cannot_pin():
    with pytest.raises(ValueError):
        draw_point_edits(np.random.default_rng(0), 2**32 + 1, 5)
    with pytest.raises(ValueError):
        draw_point_edits(np.random.default_rng(0), 1, 5)
    with pytest.raises(TypeError):
        draw_point_edits(np.random.Generator(np.random.MT19937(0)), 10, 5)


def test_parse_channel_config():
    cfg = parse_channel_config(
        """
        # synthesis + sequencing model
        rate = 0.003
        sub_weight = 2
        ins_weight = 1
        del_weight = 1
        copies = 3
        corrupt_primers = false
        """
    )
    assert cfg == ChannelConfig(
        rate=0.003, sub_weight=2, ins_weight=1, del_weight=1, copies=3
    )
    assert parse_channel_config("rate=0.01").copies == 1
    with pytest.raises(ValueError):
        parse_channel_config("speed=1")
    with pytest.raises(ValueError):
        parse_channel_config("rate")
    with pytest.raises(ValueError):
        parse_channel_config("")  # rate is mandatory
    with pytest.raises(ValueError):
        parse_channel_config("rate=0.1\ncorrupt_primers=maybe")
    for text in ("rate=0.5\nsub_weight=nan", "rate=0.5\nins_weight=inf", "rate=0.5\ndel_weight=-inf"):
        with pytest.raises(ValueError, match="finite"):
            parse_channel_config(text)
