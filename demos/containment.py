"""Anatomy of single-error containment.

A substitution inside a partition flips a couple of trits and stops at the
next 'AA' barrier. An insertion or deletion shifts the rotating code's frame,
which would normally garble everything downstream; the barrier re-anchors the
decoder so the damage stays inside one or two partitions. The decoder flags
the partitions whose length came out wrong, so it sees an indel's damage but
not a substitution's.

Run:  python demos/containment.py
"""

import numpy as np

from imgdna import ExperimentConfig, corpus_image, encode_image, run_containment
from imgdna.barriers import BarrierConfig, partition_errors, resync_reads, stream_payloads
from imgdna.channel import pack_reads
from imgdna.rotation import seq_to_string

# --- micro view: one partitioned sequence, one error of each kind ----------
rng = np.random.default_rng(7)
trits = rng.integers(0, 3, size=120).astype(np.uint8)
cfg = BarrierConfig(partition_len=20, window=12)
(nts,) = stream_payloads(trits, cfg, trits.size)  # all of it on one strand
print(f"{trits.size} trits -> {nts.size} nt in {trits.size // cfg.partition_len} partitions")
print("encoded:", seq_to_string(nts)[:80], "...")

for label, mutate in (
    ("substitution", lambda nts: np.concatenate([nts[:31], [(nts[31] + 1) % 4], nts[32:]])),
    ("deletion    ", lambda nts: np.delete(nts, 31)),
    ("insertion   ", lambda nts: np.insert(nts, 31, 2)),
):
    got, flags = resync_reads(*pack_reads([mutate(nts.copy())]), cfg, trits.size)
    wrong = int(np.count_nonzero(got != trits))
    touched = np.flatnonzero(partition_errors(got, trits[None], cfg)[0]).tolist()
    flagged = np.flatnonzero(flags[0]).tolist()
    print(f"{label} at nt 31: {wrong:2d} trits wrong, "
          f"partitions touched {touched}, flagged {flagged}")

# --- macro view: thousands of uniform single errors through real strands ---
print("\n10,000 single errors into a full IMG-DNA pool (uniform position and type):")
stats = run_containment(corpus_image(3), ExperimentConfig(), trials=10_000)
print(f"  damage within <=2 partitions: {stats.within_two_fraction:.2%}")
print(f"  damage confined to afflicted strand: {stats.confined_fraction:.2%}")
print(f"  damaged-partition histogram: {dict(sorted(stats.damage_histogram.items()))}")
