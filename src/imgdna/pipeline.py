"""End-to-end encode / perturb / decode orchestration and experiments.

Encoding turns an image into a strand pool in five stages: block transform,
entropy coding, byte-to-trit conversion, barrier layout, and strand
assembly with a triplicated address index. Each of the middle three is one
pass over a whole stream: all of its segments are entropy coded together,
its bytes become trits in one conversion, and its partitions are laid out
and cut into strand payloads at once. Three schemes share the stages and
differ only in stream layout:

  IMG-DNA              DC and AC in separate strand sets, barriers on both
  NoBarrier-Separated  same split, no barriers (unbounded partitions)
  Raw-DNA              one interleaved stream, no barriers, one segment

Byte segments are block-aligned so a damaged segment tail corrupts a known
block range: every AC segment covers one block, DC segments a few blocks,
and Raw-DNA deliberately uses a single whole-image segment. A stream
stores that segment size once, and formats.segment_bounds cuts the image's
blocks into its segments, in order, for encode_image and decode_pools; the
decoded rows of a stream's segments stack into one row per block. A
segment stores its trit count alone. encode_image lays the pool out with
MappingTable.layouts(), the call decode_pools, run_containment and
_target_positions read it with. decode_pools rejects a mapping with a
segment size below 1, other than one trit count per segment, a negative
trit count, a strand layout no strand can hold, or a scheme or stream ids
stream_classes does not give. That table says which streams a scheme has
and which coefficient classes each carries; barrier layouts, segment
plans, code tables, the decoder's tables and targeted injection all read
it. Each stream's segments go to one decode_segments call, which decodes
a one-class stream in lockstep, with any segment size. Segment extents
live in the mapping sidecar (the error-free side channel), so the decoder
can carve the repaired trit stream back into segments whatever the noisy
channel did to its strands.

A pool is a flat sequence of reads, as perturb_pool and _inject return it;
decode_pools routes each read by its own index and votes per slot among the
reads routed there. It decodes several pools of one encoding in one pass,
each step one call over all of them, and decode_pool is a pass of one
pool. The trial loop of run_sweep and run_coefficient_isolation,
_score_trials, decodes each encoding's noisy pools that way.

Every strand slot goes through the barrier resync decode, resync_reads,
which takes packed reads (channel.pack_reads: one uint8 array with each
read's start and size). decode_pools calls it for every pool's full
strands of a stream and for their final ones, and run_containment once
per stream piece (full strands or final one) and batch. Its damage
matrix, one row per strand and one column per partition, flags a stream
without barriers (one unbounded partition per strand) when its decoded
length is wrong. A missing or quarantined strand decodes as an empty
read: zero trits, every partition flagged and every segment with a trit
on it counted as failed. run_containment scores trials with barriers.partition_errors, the same
matrix against the pristine trits. It draws every trial's edit up front
in four vectorised integers() calls, and its batches make no Python call
per trial: one edit_reads call lays the reads out and one route_reads
call routes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .barriers import BarrierConfig, partition_errors, resync_reads, stream_payloads
from .channel import (
    ChannelConfig,
    edit_reads,
    edit_value,
    pack_reads,
    perturb_pool,
    unpack_reads,
)
from .formats import FormatError, MappingTable, StreamMap, segment_bounds
from .jpeg import ZIGZAG, ImageMetadata, forward_transform, inverse_transform
from .metrics import barrier_overhead, ci90_half_width, encoding_density, ssim, write_csv
from .rotation import seq_to_string
from .strands import (
    STREAM_AC,
    STREAM_DC,
    assemble_strands,
    default_primer_pair,
    disassemble_pool,
    index_width_for,
    route_reads,
)
from .streams import (
    HuffmanTable,
    build_tables,
    decode_segments,
    encode_segments,
    zigzag_flatten,
    zigzag_unflatten,
)
from .ternary import CODE_LENGTHS, bytes_to_trits, trits_to_segments

SCHEME_IMG_DNA = "IMG-DNA"
SCHEME_RAW_DNA = "Raw-DNA"
SCHEME_NO_BARRIER = "NoBarrier-Separated"
SCHEMES = (SCHEME_IMG_DNA, SCHEME_RAW_DNA, SCHEME_NO_BARRIER)

DEFAULT_RATES = (0.001, 0.005, 0.01, 0.02)


class PipelineError(ValueError):
    pass


def stream_classes(scheme: str) -> dict[int, tuple[bool, bool]]:
    """{stream id: (carries DC, carries AC)} for each of a scheme's streams."""
    if scheme == SCHEME_RAW_DNA:
        return {STREAM_DC: (True, True)}
    return {STREAM_DC: (True, False), STREAM_AC: (False, True)}


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = SCHEME_IMG_DNA
    quality: int = 75
    strand_len: int = 250
    dc_partition_len: int = 20
    ac_partition_len: int = 50
    barrier_window: int = 12
    dc_segment_blocks: int = 6
    seed: int = 0x5EED

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise PipelineError(f"unknown scheme {self.scheme!r}")
        if not 1 <= self.quality <= 100:
            raise PipelineError("quality must be in [1, 100]")
        if self.dc_segment_blocks < 1:
            raise PipelineError("dc_segment_blocks must be >= 1")
        if self.dc_partition_len is None or self.ac_partition_len is None:
            raise PipelineError(
                f"partition lengths must be set; {SCHEME_NO_BARRIER} is the scheme without barriers"
            )
        self.stream_configs()  # fail fast on bad barrier parameters

    def stream_configs(self) -> dict[int, BarrierConfig]:
        """Barrier layout per stream id; only IMG-DNA has barriers."""
        barriers = self.scheme == SCHEME_IMG_DNA
        return {
            sid: BarrierConfig(
                (self.dc_partition_len if dc else self.ac_partition_len) if barriers else None,
                self.barrier_window,
            )
            for sid, (dc, _) in stream_classes(self.scheme).items()
        }


@dataclass
class EncodedImage:
    """A strand pool plus everything the decoder gets on the side channel."""

    strands: list[np.ndarray]
    mapping: MappingTable
    metadata: ImageMetadata
    stream_trits: dict[int, np.ndarray]
    stream_payload_bits: dict[int, int]
    stream_barrier_nt: dict[int, int]
    dc_trit_ranges: list[tuple[int, int]] | None = None  # set when one stream interleaves DC and AC

    @property
    def payload_nt(self) -> int:
        return sum(t.size for t in self.stream_trits.values()) + sum(
            self.stream_barrier_nt.values()
        )

    @property
    def payload_bits(self) -> int:
        return sum(self.stream_payload_bits.values())

    @property
    def payload_density(self) -> float:
        return encoding_density(self.payload_bits, self.payload_nt)

    @property
    def strand_density(self) -> float:
        return encoding_density(self.payload_bits, sum(s.size for s in self.strands))

    def barrier_overhead_for(self, stream_id: int) -> float:
        trits = self.stream_trits.get(stream_id)
        if trits is None or trits.size == 0:
            return 0.0
        raw_bytes = self.metadata.width * self.metadata.height
        return barrier_overhead(
            self.stream_barrier_nt[stream_id],
            self.stream_payload_bits[stream_id],
            trits.size,
            raw_bytes,
        )


def encode_image(image: np.ndarray, cfg: ExperimentConfig) -> EncodedImage:
    blocks, meta = forward_transform(image, cfg.quality)
    flat = zigzag_flatten(blocks)
    dc_table, ac_table = build_tables(flat)
    meta.dc_code_lengths = dict(dc_table.lengths)
    meta.ac_code_lengths = dict(ac_table.lengths)

    stream_cfgs = cfg.stream_configs()
    n = meta.block_count

    stream_trits: dict[int, np.ndarray] = {}
    stream_bits: dict[int, int] = {}
    stream_maps: list[StreamMap] = []
    dc_trit_ranges: list[tuple[int, int]] | None = None

    for sid, (dc, ac) in stream_classes(cfg.scheme).items():
        # a stream of both classes is one segment: the whole coded image as
        # a unit, exactly like storing the compressed file as opaque bytes
        step = n if dc and ac else cfg.dc_segment_blocks if dc else 1
        tables = (dc_table if dc else None, ac_table if ac else None)
        data, sizes, dc_spans = encode_segments(flat, segment_bounds(step, n), *tables)
        stream_trits[sid] = bytes_to_trits(data)
        stream_bits[sid] = 8 * len(data)
        # trits before each byte of the stream
        cum = np.zeros(len(data) + 1, dtype=np.int64)
        np.cumsum(CODE_LENGTHS[np.frombuffer(data, dtype=np.uint8)], out=cum[1:])
        trit_counts = np.diff(cum[np.cumsum(sizes)], prepend=0).tolist()
        bc = stream_cfgs[sid]
        stream_maps.append(StreamMap(sid, bc.partition_len, bc.window, step, trit_counts))
        if dc and ac:  # nucleotide extents of the DC terms, for targeted injection
            lo, hi = cum[dc_spans[:, 0] // 8], cum[(dc_spans[:, 1] + 7) // 8]
            dc_trit_ranges = list(zip(lo.tolist(), hi.tolist()))

    fwd, rev = map(seq_to_string, default_primer_pair(seed=cfg.seed))
    # the smallest index width, from 4 up, that addresses the strands laid
    # out at that width; below width 4 one edit can route a read to another
    # strand's slot (see strands.decode_index)
    mapping = MappingTable(cfg.scheme, cfg.quality, cfg.strand_len, 4, fwd, rev, stream_maps)
    while True:
        geom, layouts = mapping.layouts()
        need = index_width_for(max(len(uids) for _, _, uids in layouts.values()))
        if need <= mapping.index_width:
            break
        mapping.index_width = need  # no width between fits: wider only adds strands

    strands: list[np.ndarray] = []
    barrier_nt: dict[int, int] = {}
    for sid, (bc, per, uids) in layouts.items():
        trits = stream_trits[sid]
        payloads = stream_payloads(trits, bc, per)
        strands += assemble_strands(geom, range(sid, 2 * len(uids), 2), payloads)
        barrier_nt[sid] = sum(p.size for p in payloads) - trits.size
    return EncodedImage(
        strands=strands,
        mapping=mapping,
        metadata=meta,
        stream_trits=stream_trits,
        stream_payload_bits=stream_bits,
        stream_barrier_nt=barrier_nt,
        dc_trit_ranges=dc_trit_ranges,
    )


# --------------------------------------------------------------------- decode


@dataclass
class DecodeResult:
    image: np.ndarray
    damaged_partitions: int = 0
    missing_strands: int = 0
    quarantined: int = 0
    duplicates: int = 0
    segments_failed: int = 0  # entropy segments whose decode hit damage or a lost strand


def _check_mapping(mapping: MappingTable, meta: ImageMetadata) -> dict[int, list[tuple[int, int]]]:
    """{stream id: its segments' block ranges}; FormatError unless the scheme
    is known, the stream ids are the scheme's, and each stream has a segment
    size of at least 1 and one trit count, none negative, per segment."""
    if mapping.scheme not in SCHEMES:
        raise FormatError(f"unknown scheme {mapping.scheme!r}")
    ids = sorted(sm.stream_id for sm in mapping.streams)
    want = sorted(stream_classes(mapping.scheme))
    if ids != want:
        raise FormatError(f"stream ids {ids} do not match {mapping.scheme}'s {want}")
    plans = {}
    for sm in mapping.streams:
        if sm.segment_blocks < 1:
            raise FormatError(f"stream {sm.stream_id}: segment size must be >= 1 block")
        plan = plans[sm.stream_id] = segment_bounds(sm.segment_blocks, meta.block_count)
        if len(sm.trit_counts) != len(plan) or min(sm.trit_counts, default=0) < 0:
            raise FormatError(
                f"stream {sm.stream_id}: segment trit counts must be >= 0, "
                f"one for each of its {len(plan)} segments"
            )
    return plans


# reads decoded in one decode_pools pass; bounds memory for any pool count
DECODE_BATCH_READS = 4096


def decode_pool(reads, mapping: MappingTable, meta: ImageMetadata) -> DecodeResult:
    """Reassemble an image from a (possibly noisy) pool: a sequence of
    reads in any order, any number per strand. One decode_pools pass."""
    return decode_pools([reads], mapping, meta)[0]


def decode_pools(pools, mapping: MappingTable, meta: ImageMetadata) -> list[DecodeResult]:
    """decode_pool of every pool of one encoding, in order: an iterable of
    pools, taken in passes of at most DECODE_BATCH_READS reads (or one
    larger pool).

    The mapping is checked, the layouts derived and both code tables built
    once. Each pool is routed by its own disassemble_pool call as it is
    taken, so its reads can go; then a pass decodes all of its pools'
    strands together: per stream, one resync_reads call for the full
    strands and one for the final ones, and one decode_segments call over
    every segment. Each pool's trits are cut into segments on their own,
    so trits_to_segments' working arrays stay one pool long. Every result
    equals decode_pool's.
    """
    plans = _check_mapping(mapping, meta)
    geom, layouts = mapping.layouts()
    counts = {sid: len(uids) for sid, (_, _, uids) in layouts.items()}
    tables = HuffmanTable(meta.dc_code_lengths), HuffmanTable(meta.ac_code_lengths)
    results: list[DecodeResult] = []
    routed: list = []  # this pass's pools, each routed as it is taken
    reads = 0
    for pool in pools:
        if routed and reads + len(pool) > DECODE_BATCH_READS:
            results += _decode_pass(routed, mapping, meta, plans, layouts, tables)
            routed, reads = [], 0
        routed.append(disassemble_pool(pool, geom, counts))
        reads += len(pool)
    if routed:
        results += _decode_pass(routed, mapping, meta, plans, layouts, tables)
    return results


def _resync_segments(slots, trit_counts, bc: BarrierConfig, per: int):
    """(segment bytes, damaged partitions) of one stream, from its slots in
    each of k pools: the k pools' segments in order, and a count per pool.
    One resync_reads call takes every pool's full strands and one their
    final strands; then each pool's trits are cut into its segments."""
    k = len(slots)
    total = sum(trit_counts)
    full = total // per  # the final strand may be short
    head, head_damaged = resync_reads(
        *pack_reads([read for s in slots for read in s[:full]]), bc, per
    )
    tail, tail_damaged = resync_reads(
        *pack_reads([read for s in slots for read in s[full:]]), bc, total - full * per
    )
    head, tail, head_damaged, tail_damaged = (
        a.reshape(k, a.size // k) for a in (head, tail, head_damaged, tail_damaged)
    )
    trits = np.concatenate([head, tail], axis=1)  # one row per pool
    datas = [data for row in trits for data in trits_to_segments(row, trit_counts)]
    return datas, head_damaged.sum(axis=1) + tail_damaged.sum(axis=1)


def _decode_pass(dis, mapping, meta, plans, layouts, tables) -> list[DecodeResult]:
    """decode_pools' results for one pass of routed pools."""
    k = len(dis)
    dc_table, ac_table = tables
    quant_zig = meta.quant_table.ravel()[ZIGZAG]
    n = meta.block_count
    flat = np.zeros((k * n, 64), dtype=np.int32)  # pool i's blocks are rows i*n to (i+1)*n
    damaged, missing, failed = (np.zeros(k, dtype=np.int64) for _ in range(3))

    classes = stream_classes(mapping.scheme)
    for sm in mapping.streams:
        bc, per, uids = layouts[sm.stream_id]
        dc, ac = classes[sm.stream_id]
        plan = plans[sm.stream_id]
        slots = [d.streams[sm.stream_id] for d in dis]
        edges = np.cumsum([0] + sm.trit_counts)
        # a missing strand decodes as an empty read: zeros, all partitions damaged
        lost = np.zeros((k, len(uids) + 1), dtype=np.int64)  # lost slots before each
        lost[:, 1:] = np.cumsum([[read is None for read in s] for s in slots], axis=1)
        missing += lost[:, -1]
        datas, hit = _resync_segments(slots, sm.trit_counts, bc, per)
        damaged += hit
        # a segment with a trit on a lost slot fails, even where its zero
        # trits decode cleanly
        first = np.minimum(edges[:-1] // per, len(uids))
        stop = np.minimum(-(-edges[1:] // per), len(uids))
        meets = lost[:, stop] > lost[:, first]
        # each coefficient class comes from one stream, and a segment
        # leaves the class it does not carry at 0
        counts = [b1 - b0 for b0, b1 in plan] * k
        tabs = (dc_table if dc else None, ac_table if ac else None)
        vals, clean = decode_segments(datas, counts, *tabs, quant_zig)
        flat += vals  # the segments cover each pool's blocks in order
        failed += (meets | ~clean.reshape(k, len(plan))).sum(axis=1)

    return [
        DecodeResult(
            image=inverse_transform(zigzag_unflatten(flat[i * n : (i + 1) * n]), meta),
            damaged_partitions=int(damaged[i]),
            missing_strands=int(missing[i]),
            quarantined=d.quarantined,
            duplicates=d.duplicates,
            segments_failed=int(failed[i]),
        )
        for i, d in enumerate(dis)
    ]


def reference_image(image: np.ndarray, quality: int = 75) -> np.ndarray:
    """The lossy-but-error-free reconstruction every run is scored against."""
    blocks, meta = forward_transform(image, quality)
    return inverse_transform(blocks, meta)


def run_pipeline(
    image: np.ndarray,
    cfg: ExperimentConfig,
    channel: ChannelConfig,
    channel_seed: int = 0,
    enc: EncodedImage | None = None,
) -> tuple[float, DecodeResult]:
    """Full encode → channel → decode cycle; returns (SSIM against the clean
    reconstruction, decode result). Encoder figures stay on `enc`."""
    if enc is None:
        enc = encode_image(image, cfg)
    noisy = perturb_pool(enc.strands, channel, channel_seed, protect=_primer_bounds(enc))
    dec = decode_pool(noisy, enc.mapping, enc.metadata)
    return ssim(reference_image(image, cfg.quality), dec.image), dec


def _primer_bounds(enc: EncodedImage) -> tuple[int, int]:
    return len(enc.mapping.fwd_primer), len(enc.mapping.rev_primer)


def _score_trials(encs, refs, cells, trials: int, noisy_pool) -> list[tuple[float, float]]:
    """Mean SSIM and its 90% CI half-width of each cell, over every image x
    trial.

    noisy_pool(cell, ii, enc, trial) returns the noisy pool for one trial.
    Each encoding's pools of every cell and trial go to decode_pools
    together, built as its passes take them; each trial seeds its own
    generator, so neither the call order nor the batching can change a
    score, and a cell's scores stay in image-major, trial-minor order.
    """
    if trials < 1:
        raise PipelineError("trials must be >= 1")
    scores = [[] for _ in cells]
    for ii, enc in enumerate(encs):
        pools = (noisy_pool(cell, ii, enc, t) for cell in cells for t in range(trials))
        for j, dec in enumerate(decode_pools(pools, enc.mapping, enc.metadata)):
            scores[j // trials].append(ssim(refs[ii], dec.image))
    return [(float(np.mean(s)), ci90_half_width(s)) for s in scores]


# -------------------------------------------------------------------- sweeps

SWEEP_HEADER = ["scheme", "error_rate", "mean_ssim", "ci90_half_width", "density"]


def run_sweep(
    images: list[np.ndarray],
    points: list[tuple[str, ExperimentConfig]],
    rates=DEFAULT_RATES,
    trials: int = 5,
    base_seed: int = 0xABC0,
    out_path=None,
) -> list[list]:
    """Mean SSIM per (configuration, error rate) over images x trials.

    Returns CSV rows; identical arguments always produce identical rows.
    """
    rows = []
    for pi, (label, cfg) in enumerate(points):
        encs = [encode_image(img, cfg) for img in images]
        refs = [reference_image(img, cfg.quality) for img in images]
        density = float(np.mean([e.payload_density for e in encs]))
        channels = [ChannelConfig(rate=rate) for rate in rates]

        def noisy_pool(ri, ii, enc, trial):
            key = np.random.SeedSequence([base_seed, pi, ri, ii, trial])
            seed = int(key.generate_state(1)[0])
            return perturb_pool(enc.strands, channels[ri], seed, protect=_primer_bounds(enc))

        scores = _score_trials(encs, refs, range(len(rates)), trials, noisy_pool)
        rows += [[label, rate, *score, density] for rate, score in zip(rates, scores)]
    if out_path is not None:
        write_csv(out_path, SWEEP_HEADER, rows)
    return rows


# -------------------------------------------------- coefficient-class injection


def _target_positions(enc: EncodedImage, target: int) -> np.ndarray:
    """(uid, absolute position) choices for errors aimed at one coefficient
    class, STREAM_DC or STREAM_AC, as an (N, 2) int array ordered by uid,
    then position."""
    geom, layouts = enc.mapping.layouts()
    body = geom.fwd_len + geom.index_len
    classes = stream_classes(enc.mapping.scheme)
    k = 1 if target == STREAM_AC else 0  # index into (carries DC, carries AC)
    sm = next(sm for sm in enc.mapping.streams if classes[sm.stream_id][k])
    _, per, uids = layouts[sm.stream_id]
    if not all(classes[sm.stream_id]):  # the stream carries the target class alone
        uids = np.arange(uids.start, uids.stop)
        sizes = np.array([enc.strands[uid].size for uid in uids.tolist()], dtype=np.int64)
        spans = sizes - body - geom.rev_len  # payload nucleotides per strand
        firsts = np.repeat(np.cumsum(spans) - spans, spans)
        return np.column_stack([np.repeat(uids, spans), body + np.arange(spans.sum()) - firsts])
    # interleaved payloads: map stream trit positions through the DC extents
    mask = np.zeros(enc.stream_trits[sm.stream_id].size, dtype=bool)
    for lo, hi in enc.dc_trit_ranges:
        mask[lo:hi] = True
    t = np.flatnonzero(mask if target == STREAM_DC else ~mask)
    return np.column_stack([uids.start + t // per, body + t % per])


def _inject(strands: list[np.ndarray], hits, rng) -> list[np.ndarray]:
    """One read per strand, with (uid, position, kind) point errors applied;
    kinds: 0 sub, 1 ins, 2 del.

    Values are drawn per uid in first-hit order, highest position first;
    then one edit_reads call lays out every strand that was hit.
    """
    by_uid: dict[int, list[tuple[int, int]]] = {}
    for uid, pos, kind in hits:
        by_uid.setdefault(uid, []).append((pos, kind))
    edits = [
        (read, pos, kind, edit_value(rng, kind))
        for read, uid_edits in enumerate(by_uid.values())
        for pos, kind in sorted(uid_edits, reverse=True)
    ]
    reads = list(strands)
    if edits:
        read, pos, kind, value = np.array(edits, dtype=np.int64).T
        packed = edit_reads([strands[uid] for uid in by_uid], read, pos, kind, value)
        for uid, edited in zip(by_uid, unpack_reads(*packed)):
            reads[uid] = edited
    return reads


ISOLATION_HEADER = ["scheme", "target", "error_rate", "mean_ssim", "ci90_half_width"]


def run_coefficient_isolation(
    images: list[np.ndarray],
    schemes=(SCHEME_IMG_DNA, SCHEME_NO_BARRIER, SCHEME_RAW_DNA),
    rates=(0.01,),
    trials: int = 5,
    base_seed: int = 0xD0C5,
    out_path=None,
    cfg: ExperimentConfig | None = None,
) -> list[list]:
    """Equal error budgets aimed at DC versus AC coefficients.

    The budget for both targets is rate x total payload nucleotides, so the
    comparison isolates which coefficient class the errors land in.
    """
    if not all(0 <= rate <= 1 for rate in rates):  # NaN fails too
        raise PipelineError(f"rates must be in [0, 1], got {list(rates)}")
    base = cfg or ExperimentConfig()
    rows = []
    for si, scheme in enumerate(schemes):
        scheme_cfg = replace(base, scheme=scheme)
        encs = [encode_image(img, scheme_cfg) for img in images]
        refs = [reference_image(img, scheme_cfg.quality) for img in images]
        targets = [(STREAM_DC, "dc"), (STREAM_AC, "ac")]
        positions = [
            [_target_positions(enc, t) for enc in encs] for t, _ in targets
        ]
        cells = [(ri, ti) for ri in range(len(rates)) for ti in range(len(targets))]

        def noisy_pool(cell, ii, enc, trial):
            ri, ti = cell
            rng = np.random.default_rng(np.random.SeedSequence([base_seed, si, ri, ti, ii, trial]))
            choices = positions[ti][ii]
            budget = max(1, round(rates[ri] * enc.payload_nt))
            picks = rng.choice(len(choices), size=min(budget, len(choices)), replace=False)
            kinds = rng.integers(0, 3, size=picks.size)
            hits = [
                (uid, pos, kind)
                for (uid, pos), kind in zip(choices[picks].tolist(), kinds.tolist())
            ]
            return _inject(enc.strands, hits, rng)

        scores = _score_trials(encs, refs, cells, trials, noisy_pool)
        rows += [
            [scheme, targets[ti][1], rates[ri], *score] for (ri, ti), score in zip(cells, scores)
        ]
    if out_path is not None:
        write_csv(out_path, ISOLATION_HEADER, rows)
    return rows


# ------------------------------------------------------- containment trials


@dataclass
class ContainmentStats:
    trials: int = 0
    within_two_partitions: int = 0
    confined_to_strand: int = 0
    damage_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def within_two_fraction(self) -> float:
        return self.within_two_partitions / self.trials if self.trials else 1.0

    @property
    def confined_fraction(self) -> float:
        return self.confined_to_strand / self.trials if self.trials else 1.0


# trials whose reads are decoded together; bounds the reads' memory
CONTAINMENT_BATCH = 4096


def run_containment(
    image: np.ndarray,
    cfg: ExperimentConfig | None = None,
    trials: int = 10_000,
    seed: int = 0xC2C2,
) -> ContainmentStats:
    """Single-error injections: how far does the damage spread?

    Each trial mutates one nucleotide (uniform position incl. primers and
    index, uniform type) in one strand and routes that read; the reads of
    up to CONTAINMENT_BATCH trials decode together as decode_pool would,
    and each trial counts damaged partitions against the pristine trit
    stream. A quarantined read loses the whole strand but stays confined;
    a read routed to any other address loses the strand too and counts as
    unconfined.

    Every trial's edit is drawn before the first batch, as four arrays:
    positions, kinds, substitution shifts and inserted nucleotides, each
    one rng.integers call over all trials, so the batch size moves no
    draw. A batch lays its reads out in one edit_reads call and routes
    them in one route_reads call.
    Its trials are grouped by the piece of a stream their strand lies in,
    its full strands or its short final one, and each group's payloads go
    through one resync_reads call.
    """
    if trials < 0:
        raise PipelineError("trials must be >= 0")
    cfg = cfg or ExperimentConfig()
    enc = encode_image(image, cfg)
    geom, layouts = enc.mapping.layouts()
    limit = 2 * max(len(uids) for _, _, uids in layouts.values())
    strands = enc.strands
    count = len(strands)
    # per uid: its address, its piece and its row of the piece's pristine trits
    address, piece, row = (np.empty(count, dtype=np.int64) for _ in range(3))
    pieces: list[tuple[BarrierConfig, np.ndarray]] = []  # (layout, pristine trits)
    for sid, (bc, per, uids) in layouts.items():
        trits = enc.stream_trits[sid]
        address[uids.start : uids.stop] = 2 * np.arange(len(uids)) + sid
        full = trits.size // per
        full_strands, final_strand = trits[: full * per].reshape(full, per), trits[full * per :]
        for before, grid in ((0, full_strands), (full, final_strand[None])):
            if grid.size:
                at = slice(uids.start + before, uids.start + before + len(grid))
                piece[at], row[at] = len(pieces), np.arange(len(grid))
                pieces.append((bc, grid))

    sizes = np.fromiter(map(len, strands), dtype=np.int64, count=count)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    head, tail = geom.fwd_len + geom.index_len, geom.rev_len
    rng = np.random.default_rng(seed)
    all_pos = rng.integers(0, ends[-1], trials)
    all_kind = rng.integers(0, 3, trials)
    # a substitution's shift, then an insertion's nucleotide; a deletion
    # reads no value
    all_value = np.where(all_kind == 0, rng.integers(1, 4, trials), rng.integers(0, 4, trials))
    stats = ContainmentStats(trials=trials)

    for first in range(0, trials, CONTAINMENT_BATCH):
        cut = slice(first, first + CONTAINMENT_BATCH)
        flat_pos, kind, value = all_pos[cut], all_kind[cut], all_value[cut]
        batch = flat_pos.size
        uid = np.searchsorted(ends, flat_pos, side="right")
        bases = [strands[u] for u in uid.tolist()]
        nts, read_starts, read_sizes = edit_reads(
            bases, np.arange(batch), flat_pos - starts[uid], kind, value
        )
        routed = route_reads(nts, read_starts, read_sizes, geom, limit)
        confined = (routed < 0) | (routed == address[uid])
        stats.confined_to_strand += int(confined.sum())
        # a quarantined or misrouted read decodes as a missing one: zeros
        payload_sizes = np.where(confined & (routed >= 0), read_sizes - head - tail, 0)
        damage = np.zeros(batch, dtype=np.int64)
        trial_piece = piece[uid]
        for p, (bc, grid) in enumerate(pieces):
            sel = np.flatnonzero(trial_piece == p)
            if sel.size:
                got, _ = resync_reads(
                    nts, read_starts[sel] + head, payload_sizes[sel], bc, grid.shape[1]
                )
                damage[sel] = partition_errors(got, grid[row[uid[sel]]], bc).sum(axis=1)
        stats.within_two_partitions += int((damage <= 2).sum())
        counts = np.bincount(damage)
        seen, order = np.unique(damage, return_index=True)
        for d in seen[np.argsort(order)].tolist():  # in order of first appearance
            stats.damage_histogram[d] = stats.damage_histogram.get(d, 0) + int(counts[d])

    return stats
