"""System-level acceptance checks.

Each test exercises one end-to-end contract property at full corpus scale
and records a single verdict line; the terminal summary echoes all lines
in one block. These are slow by design (several minutes total). Everything
is seeded, so verdicts are reproducible bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from imgdna import (
    DEFAULT_RATES,
    SCHEMES,
    ChannelConfig,
    ExperimentConfig,
    build_corpus,
    encode_image,
    perturb_pool,
    read_pool,
    rotate_decode,
    rotate_encode,
    run_coefficient_isolation,
    run_containment,
    run_pipeline,
    run_sweep,
    validate_constraints,
    write_pool,
)
from imgdna.strands import STREAM_AC, STREAM_DC
from imgdna.ternary import CODE_LENGTHS, codeword

SCHEME_IMG = SCHEMES[0]
SCHEME_RAW = SCHEMES[1]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(20)


@pytest.fixture(scope="module")
def scheme_cfgs():
    return {s: replace(ExperimentConfig(), scheme=s) for s in SCHEMES}


@pytest.fixture(scope="module")
def all_encodes(corpus, scheme_cfgs):
    return {
        (s, i): encode_image(img, scheme_cfgs[s])
        for s in SCHEMES
        for i, img in enumerate(corpus)
    }


@pytest.fixture(scope="module")
def sweep_rows(corpus, scheme_cfgs):
    points = [(s, scheme_cfgs[s]) for s in SCHEMES]
    return run_sweep(corpus, points, rates=DEFAULT_RATES, trials=5)


@pytest.fixture(scope="module")
def partition_len_rows(corpus):
    base = ExperimentConfig()
    points = [
        ("DC20-AC50", replace(base, dc_partition_len=20, ac_partition_len=50)),
        ("DC50-AC100", replace(base, dc_partition_len=50, ac_partition_len=100)),
        ("DC100-AC150", replace(base, dc_partition_len=100, ac_partition_len=150)),
    ]
    return run_sweep(corpus, points, rates=(0.005, 0.01, 0.02), trials=5)


@pytest.fixture(scope="module")
def isolation_rows(corpus):
    return run_coefficient_isolation(
        corpus, schemes=SCHEMES, rates=(0.0002, 0.0005), trials=5
    )


def test_clean_channel_identity(corpus, scheme_cfgs, all_encodes, verdict, tmp_path):
    zero = ChannelConfig(rate=0.0)
    exact = 0
    pool_path = tmp_path / "pool.fa"
    for (scheme, i), enc in all_encodes.items():
        score, _ = run_pipeline(corpus[i], scheme_cfgs[scheme], zero, enc=enc)
        assert score == 1.0, f"{scheme} image {i}: ssim {score!r}"
        write_pool(pool_path, enc.strands)
        back = read_pool(pool_path)
        assert len(back) == len(enc.strands)
        for uid, strand in enumerate(enc.strands):
            assert np.array_equal(back[uid][0], strand), f"{scheme} image {i} uid {uid}"
        exact += 1

    big = np.tile(corpus[0], (2, 2))
    assert big.shape == (256, 256)
    worst = 0.0
    for scheme in SCHEMES:
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            score, _ = run_pipeline(big, scheme_cfgs[scheme], zero)
            best = min(best, time.perf_counter() - t0)
            assert score == 1.0
        worst = max(worst, best)

    ok = exact == 60 and worst < 1.0
    verdict(
        "clean-channel identity",
        ok,
        f"{exact}/60 image+scheme pairs ssim exactly 1.0, pools bit-exact, "
        f"worst 256x256 run {worst:.3f}s",
    )


def test_single_error_containment(corpus, verdict):
    per_image = 2500
    image_ids = (0, 3, 7, 15)
    within2 = confined = total = 0
    for k, idx in enumerate(image_ids):
        stats = run_containment(corpus[idx], trials=per_image, seed=0xC2C2 + k)
        within2 += stats.within_two_partitions
        confined += stats.confined_to_strand
        total += stats.trials
    ok = total == 10_000 and confined == total and within2 >= 0.99 * total
    verdict(
        "single-error containment",
        ok,
        f"{total} injections over {len(image_ids)} pools: "
        f"within two partitions {100 * within2 / total:.2f}% (need >=99%), "
        f"confined to strand {100 * confined / total:.2f}% (need 100%)",
    )


def test_robustness_vs_raw_baseline(sweep_rows, verdict):
    mean = {(r[0], r[1]): r[2] for r in sweep_rows}
    ratios = {
        rate: mean[(SCHEME_IMG, rate)] / mean[(SCHEME_RAW, rate)]
        for rate in DEFAULT_RATES
    }
    low_rate = mean[(SCHEME_IMG, DEFAULT_RATES[0])]
    ok = all(v >= 2.0 for v in ratios.values()) and low_rate >= 0.80
    pretty = " ".join(f"{r:.1%}:{v:.1f}x" for r, v in ratios.items())
    verdict(
        "robustness vs raw baseline",
        ok,
        f"mean-ssim ratios {pretty} (need >=2.0 each); "
        f"barrier scheme at 0.1% = {low_rate:.4f} (need >=0.80)",
    )


def _monotone_violations(series: list[tuple[float, float]]) -> list[float]:
    """Increases beyond the larger neighbouring CI half-width."""
    bad = []
    for (m0, c0), (m1, c1) in zip(series, series[1:]):
        if m1 > m0 and (m1 - m0) > max(c0, c1):
            bad.append(m1 - m0)
    return bad


def test_monotonic_degradation_trends(sweep_rows, partition_len_rows, verdict):
    by_scheme: dict[str, list[tuple[float, float]]] = {s: [] for s in SCHEMES}
    for label, rate, m, ci, _ in sweep_rows:
        by_scheme[label].append((m, ci))
    rate_bad = [v for s in SCHEMES for v in _monotone_violations(by_scheme[s])]

    labels = ["DC20-AC50", "DC50-AC100", "DC100-AC150"]
    cell = {(r[0], r[1]): (r[2], r[3]) for r in partition_len_rows}
    pl_bad = []
    for rate in (0.005, 0.01, 0.02):
        series = [cell[(lab, rate)] for lab in labels]
        pl_bad.extend(_monotone_violations(series))

    ok = not rate_bad and not pl_bad
    verdict(
        "monotonic degradation trends",
        ok,
        f"rate trend violations beyond CI: {len(rate_bad)}; "
        f"partition-length trend violations beyond CI: {len(pl_bad)}",
    )


def test_dc_damage_exceeds_ac_damage(isolation_rows, verdict):
    cell = {(r[0], r[1], r[2]): r[3] for r in isolation_rows}
    rates = sorted({r[2] for r in isolation_rows})
    gaps = []
    ok = True
    for scheme in SCHEMES:
        for rate in rates:
            dc, ac = cell[(scheme, "dc", rate)], cell[(scheme, "ac", rate)]
            ok = ok and dc < ac
            gaps.append(f"{scheme}@{rate:.2%}:{ac - dc:+.4f}")
    verdict(
        "dc-targeted damage exceeds ac-targeted",
        ok,
        "ac-minus-dc mean ssim gaps " + " ".join(gaps) + " (all must be positive)",
    )


def test_encoding_density_targets(corpus, all_encodes, verdict):
    def density(cfg: ExperimentConfig) -> float:
        return float(np.mean([encode_image(im, cfg).payload_density for im in corpus]))

    none = float(
        np.mean([all_encodes[(SCHEMES[2], i)].payload_density for i in range(20)])
    )
    tight = density(replace(ExperimentConfig(), dc_partition_len=10, ac_partition_len=20))
    loose = density(
        replace(ExperimentConfig(), dc_partition_len=100, ac_partition_len=150)
    )
    targets = [(none, 1.591), (tight, 1.514), (loose, 1.575)]
    bands_ok = [abs(measured - want) <= 0.06 for measured, want in targets]

    fracs = []
    for i in range(20):
        enc = all_encodes[(SCHEME_IMG, i)]
        fracs.append(sum(enc.stream_barrier_nt.values()) / enc.payload_nt)
    cap = float(np.mean(fracs))
    cap_ok = 0.01 <= cap <= 0.05

    ok = all(bands_ok) and cap_ok
    verdict(
        "encoding density targets",
        ok,
        f"bits/nt no-barriers {none:.4f} (want 1.591+-0.06), "
        f"DC10-AC20 {tight:.4f} (want 1.514+-0.06), "
        f"DC100-AC150 {loose:.4f} (want 1.575+-0.06); "
        f"barrier capacity share {cap:.2%} (want 1-5%)",
    )


def test_strand_feasibility_rules(all_encodes, verdict):
    worst_run = worst_len = 0
    violations = 0
    gc_by_scheme = {}
    for scheme in SCHEMES:
        gcs = []
        for i in range(20):
            rep = validate_constraints(all_encodes[(scheme, i)].strands)
            violations += len(rep.violations)
            worst_run = max(worst_run, rep.max_homopolymer)
            worst_len = max(worst_len, rep.max_length)
            gcs.append(rep.gc_mean)
        gc_by_scheme[scheme] = float(np.mean(gcs))
    gc_ok = all(
        0.40 <= g <= 0.60 and abs(g - 0.49) <= 0.05 for g in gc_by_scheme.values()
    )
    ok = violations == 0 and gc_ok
    pretty = " ".join(f"{s}:{g:.3f}" for s, g in gc_by_scheme.items())
    verdict(
        "strand feasibility rules",
        ok,
        f"constraint violations {violations}, max homopolymer {worst_run} (<=3), "
        f"max length {worst_len} (<1000), corpus GC {pretty} "
        f"(need 0.40-0.60 and 0.49+-0.05)",
    )


def test_barrier_byte_overhead(all_encodes, verdict):
    dc = 100 * float(
        np.mean(
            [all_encodes[(SCHEME_IMG, i)].barrier_overhead_for(STREAM_DC) for i in range(20)]
        )
    )
    ac = 100 * float(
        np.mean(
            [all_encodes[(SCHEME_IMG, i)].barrier_overhead_for(STREAM_AC) for i in range(20)]
        )
    )
    ok = abs(dc - 0.28) <= 0.15 and abs(ac - 3.0) <= 1.0
    verdict(
        "barrier byte overhead",
        ok,
        f"corpus means: dc {dc:.3f}% of image bytes (want 0.28+-0.15), "
        f"ac {ac:.3f}% (want 3+-1)",
    )


def test_codec_and_channel_oracles(verdict):
    lengths = sorted(set(int(v) for v in CODE_LENGTHS))
    lengths_ok = set(lengths) <= {5, 6}

    words = [tuple(codeword(s)) for s in range(257)]
    table = set(words)
    prefix_free = len(table) == 257 and not any(
        w[:k] in table for w in words for k in range(1, len(w))
    )

    rng = np.random.default_rng(0xF022)
    inverses = 0
    for k in range(10_000):
        trits = rng.integers(0, 3, size=int(rng.integers(0, 120)))
        if np.array_equal(rotate_decode(rotate_encode(trits, seed=k % 4), seed=k % 4), trits):
            inverses += 1

    # every nucleotide of a 1-nt strand errors exactly once at rate 1, so the
    # output length classifies the drawn error type unambiguously; ten pools
    # of 10**5 strands keep the memory of one pool small
    cfg = ChannelConfig(rate=1.0, sub_weight=2.0, ins_weight=1.0, del_weight=1.0)
    n = 1_000_000
    pools = 10
    one = np.zeros(1, dtype=np.uint8)
    by_size = np.zeros(3, dtype=np.int64)
    for i in range(pools):
        reads = perturb_pool([one] * (n // pools), cfg, seed=0x5EED5 + i)
        by_size += np.bincount(np.fromiter(map(len, reads), np.int64, len(reads)), minlength=3)
    counts = {"sub": int(by_size[1]), "ins": int(by_size[2]), "del": int(by_size[0])}
    expected = [f * n for f in cfg.fractions]
    result = chisquare(
        [counts["sub"], counts["ins"], counts["del"]], f_exp=expected
    )
    chi_ok = result.pvalue >= 0.01

    ok = lengths_ok and prefix_free and inverses == 10_000 and chi_ok
    verdict(
        "codec and channel oracles",
        ok,
        f"ternary code lengths {lengths} (subset of {{5,6}}), prefix-free {prefix_free}, "
        f"rotation inverse on {inverses}/10000 fuzzed streams, "
        f"channel chi-square p={result.pvalue:.3f} at n=1e6 "
        f"(observed {counts['sub']}/{counts['ins']}/{counts['del']} vs 2:1:1)",
    )
