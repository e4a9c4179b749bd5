"""The three benchmark workloads: inputs, operations and output checks.

A workload builds its inputs in `setup` and then hands the runner one
round of operations at a time. Every round runs the same operations on
the same images; only the channel or trial seeds change between rounds.
An operation is one timed call into imgdna's public API plus a check of
what it returned. A check compares against a separate computation or a
property the method must have, and returns the problems it found.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import imgdna.cli
import imgdna.corpus
from imgdna import (
    SCHEME_IMG_DNA,
    SCHEME_NO_BARRIER,
    SCHEME_RAW_DNA,
    SCHEMES,
    ChannelConfig,
    ExperimentConfig,
    read_pool,
    reference_image,
    run_coefficient_isolation,
    run_containment,
    run_pipeline,
    run_sweep,
    seq_to_string,
    write_pgm,
)


@dataclass
class Op:
    kind: str
    trials: int  # trials this operation completes, for trials_per_s
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def round_seed(seed: int, *key: int) -> int:
    """Seed for one round's channel or trials, derived from the run seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def warm_up() -> None:
    """One tiny round trip, so lazy imports and first-call set-up are paid
    before timing starts."""
    tiny = imgdna.corpus.corpus_image(1)[:16, :16]
    run_pipeline(tiny, ExperimentConfig(), ChannelConfig(rate=0.01), channel_seed=1)


# ---------------------------------------------------------------- sweep

SWEEP_IMAGES = (0, 7, 15)  # 7 and 15 are the odd-sized corpus members
SWEEP_RATES = (0.001, 0.005, 0.02)
ISOLATION_RATES = (0.0005,)
# schemes whose SSIM stays well above 0 and falls steeply with the rate;
# Raw-DNA sits at its floor (about 0.01, either sign) from 0.1% on
BOUNDED_SCHEMES = (SCHEME_IMG_DNA, SCHEME_NO_BARRIER)


def ssim_range(rows, scheme_col: int, ssim_col: int) -> list[str]:
    """Mean SSIM in (0, 1] for the bounded schemes, in [-1, 1] for Raw-DNA."""
    bad = []
    for row in rows:
        s = row[ssim_col]
        bounded = row[scheme_col] in BOUNDED_SCHEMES
        if not (0.0 < s <= 1.0 if bounded else -1.0 <= s <= 1.0):
            bad.append(f"{row[scheme_col]} mean ssim {s!r} out of range")
    return bad


def no_rise(rows) -> list[str]:
    """Mean SSIM may not rise with the rate by more than the larger CI."""
    bad = []
    series = [(r[2], r[3]) for r in rows if r[0] in BOUNDED_SCHEMES]
    for (m0, c0), (m1, c1) in zip(series, series[1:]):
        if m1 > m0 and m1 - m0 > max(c0, c1):
            bad.append(f"{rows[0][0]} mean ssim rises {m0:.4f} -> {m1:.4f} with the rate")
    return bad


def beats(img_rows, raw_rows) -> list[str]:
    """IMG-DNA above Raw-DNA at every rate."""
    return [
        f"IMG-DNA {a[2]:.4f} not above Raw-DNA {b[2]:.4f} at rate {a[1]}"
        for a, b in zip(img_rows, raw_rows)
        if not a[2] > b[2]
    ]


class Sweep:
    """run_sweep and run_coefficient_isolation per scheme on corpus images
    0, 7 and 15, at channel rates from 0.1% to 2%. One call per scheme
    keeps operations short, so a run has many samples of each."""

    def __init__(self, seed: int):
        self.seed = seed
        self.points = [(s, ExperimentConfig(scheme=s)) for s in SCHEMES]

    def setup(self) -> None:
        warm_up()
        self.images = [imgdna.corpus.corpus_image(i) for i in SWEEP_IMAGES]

    def round(self, r: int) -> list[Op]:
        ops = []
        rows_of: dict = {}  # (image, scheme) -> this round's run_sweep rows
        for k, image in enumerate(self.images):
            base = round_seed(self.seed, r, k)
            for point in self.points:
                scheme = point[0]

                def sweep(image=image, point=point, base=base):
                    return run_sweep([image], [point], rates=SWEEP_RATES, trials=1, base_seed=base)

                def check(rows, k=k, scheme=scheme):
                    rows_of[k, scheme] = rows
                    bad = ssim_range(rows, 0, 2) + no_rise(rows)
                    if scheme == SCHEME_RAW_DNA:  # IMG-DNA runs first
                        bad += beats(rows_of[k, SCHEME_IMG_DNA], rows)
                    return bad

                ops.append(Op("run_sweep", len(SWEEP_RATES), sweep, check))
            for scheme in SCHEMES:

                def isolate(image=image, scheme=scheme, base=base):
                    return run_coefficient_isolation(
                        [image], schemes=(scheme,), rates=ISOLATION_RATES, trials=1, base_seed=base
                    )

                ops.append(
                    Op(
                        "run_coefficient_isolation",
                        len(ISOLATION_RATES) * 2,
                        isolate,
                        lambda rows: ssim_range(rows, 0, 3),
                    )
                )

        # determinism contract: the round's first cell, run again on its
        # own, must give an identical row
        def again(image=self.images[0], base=round_seed(self.seed, r, 0)):
            return run_sweep(
                [image], self.points[:1], rates=SWEEP_RATES[:1], trials=1, base_seed=base
            )

        def same_as_first(rows):
            first = rows_of[0, SCHEME_IMG_DNA][:1]
            return [] if rows == first else [f"repeated cell {rows} differs from {first}"]

        ops.append(Op("run_sweep", 1, again, same_as_first))
        return ops

    def figures(self, results) -> dict:
        """Mean SSIM over the IMG-DNA cells of every run_sweep call."""
        cells = [
            row[2]
            for op, rows in results
            if op.kind == "run_sweep" and op.trials > 1 and rows is not None
            for row in rows
            if row[0] == SCHEME_IMG_DNA
        ]
        return {"img_dna_mean_ssim": {"value": float(np.mean(cells)), "unit": "SSIM"}}


# -------------------------------------------------------------- archive

def read_pgm_raster(path) -> np.ndarray:
    """Minimal P5 reader, independent of imgdna.pgm: header of four
    whitespace-separated tokens, no comments, one separator byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"unexpected PGM header in {path}")
    width, height = int(width), int(height)
    return np.frombuffer(data[-width * height :], dtype=np.uint8).reshape(height, width)


def read_fasta(path) -> list[str]:
    """Pool records in file order, independent of imgdna.formats."""
    records: list[list[str]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                records.append([])
            elif line:
                records[-1].append(line)
    return ["".join(r) for r in records]


def max_run(text: str) -> int:
    best = run = 0
    prev = ""
    for ch in text:
        run = run + 1 if ch == prev else 1
        prev = ch
        best = max(best, run)
    return best


def check_pool(path) -> list[str]:
    """The pool re-reads bit-exactly and obeys the strand rules."""
    bad = []
    text = read_fasta(path)
    pool = read_pool(path)
    back = [seq_to_string(pool[uid][0]) for uid in sorted(pool)]
    if back != text:
        bad.append(f"{path}: read_pool does not reproduce the file's records")
    runs = max((max_run(s) for s in text), default=0)
    longest = max((len(s) for s in text), default=0)
    total = sum(len(s) for s in text)
    gc = sum(s.count("C") + s.count("G") for s in text) / max(total, 1)
    if runs > 3:
        bad.append(f"{path}: homopolymer run {runs} > 3")
    if longest >= 1000:
        bad.append(f"{path}: strand length {longest} >= 1000")
    if not 0.40 <= gc <= 0.60:
        bad.append(f"{path}: pool GC {gc:.4f} outside 0.40-0.60")
    return bad


class Archive:
    """One image stored and retrieved through the files by the encode and
    decode verbs, per scheme, on a clean channel: corpus member 0 at
    128x128, and members 1-4 tiled into 256x256. The seed flips each
    member and orders the tile's quadrants. A flip keeps every block's
    coefficient magnitudes, so the inputs change with the seed while the
    work they take stays nearly the same."""

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.flips = [(bool(rng.integers(2)), bool(rng.integers(2))) for _ in range(5)]
        self.order = [int(i) for i in rng.permutation(4)]

    def _member(self, k: int) -> np.ndarray:
        image = imgdna.corpus.corpus_image(k)
        rows, cols = self.flips[k]
        return image[:: -1 if rows else 1, :: -1 if cols else 1]

    def setup(self) -> None:
        warm_up()
        small = np.ascontiguousarray(self._member(0))
        q = [self._member(1 + i) for i in self.order]
        tile = np.block([[q[0], q[1]], [q[2], q[3]]])
        self.inputs = []
        for name, image in (("square128", small), ("tile256", tile)):
            path = os.path.join(self.workdir, f"{name}.pgm")
            write_pgm(path, image)
            self.inputs.append((name, path, image.size, reference_image(image)))

    def round(self, r: int) -> list[Op]:
        ops = []
        for name, pgm, pixels, reference in self.inputs:
            for scheme in SCHEMES:
                prefix = os.path.join(self.workdir, f"{name}-{scheme}")
                out = f"{prefix}.out.pgm"
                encode = ["encode", "--image", pgm, "--out", prefix, "--scheme", scheme]
                decode = [
                    "decode", "--pool", f"{prefix}.pool.fa", "--mapping", f"{prefix}.map",
                    "--metadata", f"{prefix}.meta", "--out", out,
                ]

                def wrote(code, prefix=prefix):
                    return [f"encode exited {code}"] if code else check_pool(f"{prefix}.pool.fa")

                def read_back(code, out=out, reference=reference):
                    if code:
                        return [f"decode exited {code}"]
                    if not np.array_equal(read_pgm_raster(out), reference):
                        return [f"{out} differs from the transform-only reconstruction"]
                    return []

                ops.append(Op(f"write_{name}", 0, lambda argv=encode: run_verb(argv), wrote))
                ops.append(Op(f"read_{name}", 1, lambda argv=decode: run_verb(argv), read_back))
        return ops

    def figures(self, results) -> dict:
        """Pool nucleotides per image pixel over one round's pools."""
        nt = pixels = 0
        for name, _, size, _ in self.inputs:
            for scheme in SCHEMES:
                path = os.path.join(self.workdir, f"{name}-{scheme}.pool.fa")
                nt += sum(len(s) for s in read_fasta(path))
                pixels += size
        return {"pool_nt_per_pixel": {"value": nt / pixels, "unit": "nt/pixel"}}


def run_verb(argv: list[str]) -> int:
    """imgdna.cli.main in-process, with its report lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return imgdna.cli.main(argv)


# ---------------------------------------------------------- containment

CONTAINMENT_IMAGES = (0, 3, 7, 15)
CONTAINMENT_SCHEMES = (SCHEME_IMG_DNA, SCHEME_NO_BARRIER)
CONTAINMENT_TRIALS = 1000


def check_containment(stats) -> list[str]:
    bad = []
    n = stats.trials
    if n != CONTAINMENT_TRIALS or sum(stats.damage_histogram.values()) != n:
        bad.append(f"histogram sums to {sum(stats.damage_histogram.values())}, trials {n}")
    if stats.within_two_partitions < 0.99 * n:
        bad.append(f"only {stats.within_two_partitions}/{n} trials within two partitions")
    if stats.confined_to_strand != n:
        bad.append(f"only {stats.confined_to_strand}/{n} trials confined to their strand")
    return bad


class Containment:
    """Single-error run_containment trials on four corpus images, for
    IMG-DNA and for NoBarrier-Separated (one unbounded partition)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = [replace(ExperimentConfig(), scheme=s) for s in CONTAINMENT_SCHEMES]

    def setup(self) -> None:
        warm_up()
        self.images = [imgdna.corpus.corpus_image(i) for i in CONTAINMENT_IMAGES]

    def round(self, r: int) -> list[Op]:
        ops = []
        for k, image in enumerate(self.images):
            for j, cfg in enumerate(self.configs):
                seed = round_seed(self.seed, r, k, j)
                ops.append(
                    Op(
                        "run_containment",
                        CONTAINMENT_TRIALS,
                        lambda image=image, cfg=cfg, seed=seed: run_containment(
                            image, cfg, trials=CONTAINMENT_TRIALS, seed=seed
                        ),
                        check_containment,
                    )
                )
        return ops

    def figures(self, results) -> dict:
        """Share of single-error trials whose damage stayed within two partitions."""
        done = [stats for op, stats in results if stats is not None]
        within = sum(s.within_two_partitions for s in done)
        total = sum(s.trials for s in done)
        return {"within_two_fraction": {"value": within / max(total, 1), "unit": "fraction"}}
