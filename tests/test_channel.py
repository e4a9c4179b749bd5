import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imgdna import channel
from imgdna.channel import (
    ChannelConfig,
    draw_point_edits,
    edit_reads,
    edit_value,
    pack_reads,
    parse_channel_config,
    perturb_pool,
    seed_words,
    unpack_reads,
)


def strand_rng(seed: int, uid: int, copy: int) -> np.random.Generator:
    """The generator perturb_pool gives read (uid, copy), built by numpy."""
    return np.random.default_rng(np.random.SeedSequence([seed, uid, copy]))


def draw_edits_reference(cfg, rng, lo, hi):
    """(positions, kinds, values) of one read's errors, confined to [lo, hi),
    drawn by scalar Generator calls in the order perturb_pool reproduces."""
    hi = max(hi, lo)
    draws = rng.random(hi - lo)
    hits = np.flatnonzero(draws < cfg.rate) + lo
    # the draw Generator.choice(3, size, p=fractions) makes, without its
    # argument checks: one uniform per hit, placed on the weights' CDF
    kinds = cfg.kind_cdf.searchsorted(rng.random(hits.size), side="right") if hits.size else hits
    values = np.array([edit_value(rng, kind) for kind in kinds.tolist()], dtype=np.int64)
    return hits, kinds, values


def perturb_strand(nts, cfg, rng, lo, hi):
    """One noisy read of a strand, errors confined to positions [lo, hi)."""
    hits, kinds, values = draw_edits_reference(cfg, rng, lo, hi)
    return edit_reads([nts], np.zeros(hits.size, dtype=np.int64), hits, kinds, values)[0]


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
    # perturb_pool places one uniform per hit on kind_cdf, which is the
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


@pytest.mark.parametrize("rate", [0.01, 1.0])
@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("budget", [1, 40, 700])
def test_perturb_pool_in_word_slices_equals_per_read_reference(rate, copies, budget, monkeypatch):
    # a pool drawn a few words at a time gives the same reads, and no
    # draw holds more words than the budget unless one read needs them
    rng = np.random.default_rng(6)
    strands = [rng.integers(0, 4, size=int(n)).astype(np.uint8) for n in rng.integers(0, 260, 40)]
    cfg = ChannelConfig(rate=rate, copies=copies)
    draws = []
    real = channel._draw_reads

    def draw_reads(cfg, words, span, count):
        draws.append((count.size, int(count.sum())))
        return real(cfg, words, span, count)

    monkeypatch.setattr(channel, "_SLICE_WORDS", budget)
    monkeypatch.setattr(channel, "_draw_reads", draw_reads)
    for seed in (0, 2**70 + 3):
        draws.clear()
        got = perturb_pool(strands, cfg, seed, protect=(20, 15))
        want = perturb_pool_reference(strands, cfg, seed, protect=(20, 15))
        assert len(got) == len(want) == len(strands) * copies
        for g, w in zip(got, want):
            assert g.dtype == np.uint8 and np.array_equal(g, w)
        assert len(draws) > 1
        assert all(words <= budget or reads == 1 for reads, words in draws)


def test_uniform_is_generator_random():
    # perturb_pool reads Generator.random() off the raw words; if numpy
    # ever changes how a double is made, this names the break
    for seed in range(200):
        raw_gen, gen = strand_rng(seed, 1, 2), strand_rng(seed, 1, 2)
        words = raw_gen.bit_generator.random_raw(50)
        assert np.array_equal(channel._uniform(words), gen.random(50))
        assert raw_gen.bit_generator.state == gen.bit_generator.state


@pytest.mark.parametrize("rate", [0.0, 2.0**-53, 0.003, 0.1, 1 / 3, 0.5, 1 - 2.0**-53, 1.0])
def test_hits_on_raw_words_equal_uniform_below_rate(rate):
    # words on both sides of the rate's threshold, and the extremes
    edge = int(np.ceil(rate * 2**53)) << 11
    near = [edge + d for d in range(-4097, 4097, 7)] + [0, 1, 2**11 - 1, 2**11, 2**64 - 1]
    words = np.array([w for w in near if 0 <= w < 2**64], dtype=np.uint64)
    words = np.concatenate([words, np.random.default_rng(0).integers(0, 2**64, 5000, dtype=np.uint64)])
    want = np.flatnonzero(channel._uniform(words) < rate)
    assert np.array_equal(channel._below(words, rate), want)


@pytest.mark.parametrize("weights", [(1, 0, 0), (0, 1, 0), (2, 1, 1)])
def test_reads_that_run_out_of_words_draw_again(weights, monkeypatch):
    # at rate 1 every position is hit, so every read of more than a few
    # dozen nt needs more words than its first draw gives
    calls = []  # the reads in each draw pass
    draw = channel._draw_reads

    def counted(cfg, words, span, count):
        calls.append(len(words))
        return draw(cfg, words, span, count)

    monkeypatch.setattr(channel, "_draw_reads", counted)
    rng = np.random.default_rng(21)
    strands = [rng.integers(0, 4, size=n).astype(np.uint8) for n in (0, 1, 2, 17, 64, 65, 150, 299, 300)]
    for copies in range(1, 6):
        calls.clear()
        cfg = ChannelConfig(1.0, *weights, copies=copies)
        got = perturb_pool(strands, cfg, seed=copies)
        want = perturb_pool_reference(strands, cfg, seed=copies)
        assert len(got) == len(want) == len(strands) * copies
        for g, w in zip(got, want):
            assert g.dtype == np.uint8 and np.array_equal(g, w)
        assert len(calls) > 1 and max(calls[1:]) < calls[0]  # only the short reads drew again


@pytest.mark.parametrize("weights, per_hit", [((0, 0, 1), 2), ((1, 0, 0), 2.5), ((0, 1, 0), 2.5)])
def test_a_read_is_short_exactly_when_its_words_run_out(weights, per_hit):
    # at rate 1 a 10 nt read takes 10 uniforms, 10 kinds and a half per
    # substitution or insertion
    cfg = ChannelConfig(1.0, *weights)
    words = seed_words(4, 1, 1).reshape(-1, 4)
    span = np.array([10])
    for count in range(10, 40):
        short, read, pos, kind, value = channel._draw_reads(cfg, words, span, np.array([count]))
        assert short[0] == (count < 10 * per_hit), count
        if not short[0]:
            assert pos.tolist() == list(range(10)) and kind.tolist() == [weights.index(1)] * 10


@pytest.mark.parametrize("weights", [(1, 0, 0), (1, 1, 0), (2, 1, 1)])
@pytest.mark.parametrize("zero_word", [12, 13, 14])
def test_rejected_substitution_half_passes_to_the_next(weights, zero_word, monkeypatch):
    # integers(1, 4) rejects a 32-bit half only when it is 0. A PCG64
    # output is 0 when its state's high and low 64 bits are equal, so the
    # generator is set back zero_word + 1 steps from such a state. A 6 nt
    # read at rate 1 draws 6 uniforms and 6 kinds; its value halves start
    # at word 12
    x = 0x0123456789ABCDEF
    bitgen = np.random.PCG64(5)
    state = bitgen.state
    state["state"]["state"] = x << 64 | x
    bitgen.state = state
    bitgen.advance(-(zero_word + 1))
    state = bitgen.state
    assert bitgen.random_raw(zero_word + 1)[-1] == 0

    def rigged(_seed_sequence):
        out = np.random.PCG64()
        out.state = state
        return out

    monkeypatch.setattr(channel, "PCG64", rigged)
    strand = np.array([0, 1, 2, 3, 0, 1], dtype=np.uint8)
    cfg = ChannelConfig(1.0, *weights)
    want = perturb_strand(strand, cfg, np.random.Generator(rigged(None)), 0, strand.size)
    got = perturb_pool([strand], cfg, seed=0)[0]
    assert np.array_equal(got, want)
    if weights == (1, 0, 0):
        assert np.all(got != strand)


_WEIGHTS = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, 0.3]), st.sampled_from([0.0, 1.0, 0.5]), st.sampled_from([1.0, 0.0, 4.0])
).filter(lambda w: sum(w) > 0)
_CONFIGS = st.builds(
    lambda rate, weights, copies, corrupt_primers: ChannelConfig(
        rate, *weights, copies=copies, corrupt_primers=corrupt_primers
    ),
    st.sampled_from([0.0, 0.001, 0.02, 0.2, 0.9, 1.0]) | st.floats(0, 1),
    _WEIGHTS,
    st.integers(1, 3),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    cfg=_CONFIGS,
    sizes=st.lists(st.integers(0, 120), max_size=8),
    protect=st.tuples(st.integers(0, 150), st.integers(0, 150)),
    seed=st.integers(0, 2**70),
)
def test_perturb_pool_equals_reference_everywhere(cfg, sizes, protect, seed):
    rng = np.random.default_rng(len(sizes))
    strands = [rng.integers(0, 4, size=n).astype(np.uint8) for n in sizes]
    got = perturb_pool(strands, cfg, seed, protect=protect)
    want = perturb_pool_reference(strands, cfg, seed, protect=protect)
    assert len(got) == len(want) == len(strands) * cfg.copies
    for g, w in zip(got, want):
        assert g.dtype == np.uint8 and np.array_equal(g, w)


def test_perturb_pool_leaves_its_strands_alone():
    rng = np.random.default_rng(22)
    strands = [rng.integers(0, 4, size=n).astype(np.uint8) for n in (0, 5, 80, 200)]
    before = [s.copy() for s in strands]
    for rate in (0.0, 0.05, 1.0):
        out = perturb_pool(strands, ChannelConfig(rate, copies=2), seed=3, protect=(2, 2))
        assert all(s.flags.writeable for s in strands)
        assert all(np.array_equal(s, b) for s, b in zip(strands, before))
        assert all(r.dtype == np.uint8 for r in out)
        assert not any(np.shares_memory(r, s) for r in out for s in strands)


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
