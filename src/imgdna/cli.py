"""Command-line front end.

Verbs mirror the pipeline stages:

  encode    image -> pool + mapping + metadata sidecars
  perturb   pool -> noisy pool through the error channel
  decode    (noisy) pool + sidecars -> reconstructed PGM
  sweep     corpus x schemes x error rates -> CSV of mean SSIM
  isolate   DC-targeted vs AC-targeted injections -> CSV
  validate  pool feasibility: homopolymers, lengths, GC content

Every verb exits 0 on success. Failures print one JSON object to stderr
({"error": ..., "message": ...}) and exit 1; argparse usage errors keep
argparse's own exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, load_channel_config, perturb_pool
from .corpus import build_corpus, corpus_image
from .formats import read_mapping, read_metadata, read_pool, write_mapping, write_metadata, write_pool
from .metrics import ssim, write_csv
from .pgm import read_pgm, write_pgm
from .pipeline import (
    DEFAULT_RATES,
    SCHEMES,
    ExperimentConfig,
    decode_pool,
    encode_image,
    reference_image,
    run_coefficient_isolation,
    run_containment,
    run_sweep,
)
from .strands import validate_constraints


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    d = ExperimentConfig()
    sub.add_argument("--scheme", choices=SCHEMES, default=d.scheme)
    sub.add_argument("--quality", type=int, default=d.quality, help="compression quality 1-100")
    sub.add_argument("--strand-len", type=int, default=d.strand_len)
    sub.add_argument("--dc-partition-len", type=int, default=d.dc_partition_len)
    sub.add_argument("--ac-partition-len", type=int, default=d.ac_partition_len)
    sub.add_argument("--barrier-window", type=int, default=d.barrier_window)
    sub.add_argument("--dc-segment-blocks", type=int, default=d.dc_segment_blocks)
    sub.add_argument("--seed", type=int, default=d.seed, help="primer/geometry seed")


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})


def _add_channel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--channel-config", metavar="FILE", help="key=value channel config file")
    sub.add_argument("--rate", type=float, help="per-nucleotide error probability")
    sub.add_argument("--sub-weight", type=float, help="substitution weight")
    sub.add_argument("--ins-weight", type=float, help="insertion weight")
    sub.add_argument("--del-weight", type=float, help="deletion weight")
    sub.add_argument("--copies", type=int, help="noisy reads per strand")
    sub.add_argument("--corrupt-primers", action="store_true", default=None)
    sub.add_argument("--channel-seed", type=int, default=0)


def _channel_from(args) -> ChannelConfig:
    """Config file first, then individual flags override its fields."""
    if args.channel_config:
        base = load_channel_config(args.channel_config)
    elif args.rate is None:
        raise ValueError("either --rate or --channel-config is required")
    else:
        base = ChannelConfig(rate=args.rate)
    overrides = {f.name: getattr(args, f.name) for f in fields(ChannelConfig)}
    return replace(base, **{key: val for key, val in overrides.items() if val is not None})


def _load_image(args) -> np.ndarray:
    if args.image is not None:
        return read_pgm(args.image)
    return corpus_image(args.builtin_index)


def _load_corpus(args) -> list[np.ndarray]:
    if args.corpus is not None:
        paths = sorted(Path(args.corpus).glob("*.pgm"))
        if not paths:
            raise ValueError(f"no .pgm files in {args.corpus}")
        return [read_pgm(p) for p in paths]
    return build_corpus(args.builtin_corpus)


def _parse_rates(text: str) -> tuple[float, ...]:
    rates = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not rates:
        raise ValueError("empty rate list")
    return rates


def _parse_schemes(text: str) -> tuple[str, ...]:
    schemes = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; choices: {', '.join(SCHEMES)}")
    return schemes


def _cmd_encode(args) -> int:
    cfg = _config_from(args)
    image = _load_image(args)
    t0 = time.perf_counter()
    enc = encode_image(image, cfg)
    elapsed = time.perf_counter() - t0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pool(f"{out}.pool.fa", enc.strands)
    write_mapping(f"{out}.map", enc.mapping)
    write_metadata(f"{out}.meta", enc.metadata)
    report = validate_constraints(enc.strands)
    print(f"encoded {image.shape[1]}x{image.shape[0]} image as {len(enc.strands)} strands in {elapsed:.3f}s")
    print(f"payload density      {enc.payload_density:.4f} bits/nt")
    print(f"whole-strand density {enc.strand_density:.4f} bits/nt")
    print(f"pool GC fraction     {report.gc_mean:.4f}  max homopolymer {report.max_homopolymer}")
    print(f"wrote {out}.pool.fa  {out}.map  {out}.meta")
    return 0


def _cmd_perturb(args) -> int:
    channel = _channel_from(args)
    pool = read_pool(args.pool)
    mapping = read_mapping(args.mapping)
    if sorted(pool) != list(range(len(pool))) or any(len(reads) != 1 for reads in pool.values()):
        raise ValueError("perturb needs one read per strand, with ids s0..s{n-1}")
    strands = [pool[uid][0] for uid in range(len(pool))]
    protect = (len(mapping.fwd_primer), len(mapping.rev_primer))
    noisy = perturb_pool(strands, channel, args.channel_seed, protect=protect)
    write_pool(args.out, noisy, channel.copies)
    total_in = sum(s.size for s in strands)
    total_out = sum(read.size for read in noisy)
    print(f"channel: {channel.describe()} seed={args.channel_seed}")
    print(f"perturbed {len(strands)} strands ({total_in} nt -> {total_out} nt), wrote {args.out}")
    return 0


def _reads(path) -> list[np.ndarray]:
    """Every read of a pool file; the decoder ignores labels and order."""
    return [read for copies in read_pool(path).values() for read in copies]


def _cmd_decode(args) -> int:
    reads = _reads(args.pool)
    mapping = read_mapping(args.mapping)
    meta = read_metadata(args.metadata)
    result = decode_pool(reads, mapping, meta)
    write_pgm(args.out, result.image)
    print(f"decoded {meta.width}x{meta.height} image from {len(reads)} reads")
    print(
        f"missing strands {result.missing_strands}  quarantined {result.quarantined}  "
        f"duplicates {result.duplicates}  damaged partitions {result.damaged_partitions}  "
        f"failed segments {result.segments_failed}"
    )
    if args.image is not None:
        original = read_pgm(args.image)
        score = ssim(reference_image(original, mapping.quality), result.image)
        print(f"ssim vs clean reconstruction {score:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    images = _load_corpus(args)
    schemes = _parse_schemes(args.schemes)
    rates = _parse_rates(args.rates)
    points = [(s, replace(cfg, scheme=s)) for s in schemes]
    rows = run_sweep(
        images, points, rates=rates, trials=args.trials, base_seed=args.base_seed, out_path=args.out
    )
    for row in rows:
        print(f"{row[0]:22s} rate={row[1]:<8g} mean_ssim={row[2]:.4f} ci90={row[3]:.4f} density={row[4]:.4f}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_isolate(args) -> int:
    cfg = _config_from(args)
    images = _load_corpus(args)
    schemes = _parse_schemes(args.schemes)
    rates = _parse_rates(args.rates)
    rows = run_coefficient_isolation(
        images,
        schemes=schemes,
        rates=rates,
        trials=args.trials,
        base_seed=args.base_seed,
        out_path=args.out,
        cfg=cfg,
    )
    for row in rows:
        print(f"{row[0]:22s} target={row[1]} rate={row[2]:<8g} mean_ssim={row[3]:.4f} ci90={row[4]:.4f}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_validate(args) -> int:
    report = validate_constraints(_reads(args.pool))
    payload = {
        key: round(val, 6) if isinstance(val, float) else val
        for key, val in asdict(report).items()
    }
    stats = run_containment(corpus_image(0), trials=args.containment) if args.containment else None
    if args.json:
        if stats is not None:
            payload["containment"] = asdict(stats)
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key:16s} {val}")
        if stats is not None:
            print(
                f"containment: {stats.within_two_fraction:.4f} of single errors within 2 partitions, "
                f"{stats.confined_fraction:.4f} confined to the afflicted strand"
            )
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="imgdna", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    enc = sub.add_parser("encode", help="encode one image into a strand pool")
    src = enc.add_mutually_exclusive_group()
    src.add_argument("--image", help="input PGM file")
    src.add_argument("--builtin-index", type=int, default=0, help="built-in corpus image index")
    enc.add_argument("--out", required=True, help="output prefix (.pool.fa/.map/.meta)")
    _add_experiment_flags(enc)
    enc.set_defaults(fn=_cmd_encode)

    per = sub.add_parser("perturb", help="run a pool through the error channel")
    per.add_argument("--pool", required=True)
    per.add_argument("--mapping", required=True, help="mapping sidecar (primer extents)")
    per.add_argument("--out", required=True)
    _add_channel_flags(per)
    per.set_defaults(fn=_cmd_perturb)

    dec = sub.add_parser("decode", help="decode a pool back into a PGM image")
    dec.add_argument("--pool", required=True)
    dec.add_argument("--mapping", required=True)
    dec.add_argument("--metadata", required=True)
    dec.add_argument("--out", required=True, help="output PGM path")
    dec.add_argument("--image", help="original image; prints SSIM against its clean reconstruction")
    dec.set_defaults(fn=_cmd_decode)

    swp = sub.add_parser("sweep", help="error-rate sweep over a corpus; writes CSV")
    corpus = swp.add_mutually_exclusive_group()
    corpus.add_argument("--corpus", help="directory of .pgm images")
    corpus.add_argument("--builtin-corpus", type=int, default=20, help="built-in corpus size")
    swp.add_argument("--schemes", default=",".join(SCHEMES), help="comma-separated scheme list")
    swp.add_argument("--rates", default=",".join(str(r) for r in DEFAULT_RATES))
    swp.add_argument("--trials", type=int, default=5)
    swp.add_argument("--base-seed", type=int, default=0xABC0)
    swp.add_argument("--out", required=True, help="output CSV path")
    _add_experiment_flags(swp)
    swp.set_defaults(fn=_cmd_sweep)

    iso = sub.add_parser("isolate", help="DC-only vs AC-only injection comparison; writes CSV")
    corpus = iso.add_mutually_exclusive_group()
    corpus.add_argument("--corpus", help="directory of .pgm images")
    corpus.add_argument("--builtin-corpus", type=int, default=20, help="built-in corpus size")
    iso.add_argument("--schemes", default=",".join(SCHEMES))
    iso.add_argument("--rates", default="0.0002,0.0005")
    iso.add_argument("--trials", type=int, default=5)
    iso.add_argument("--base-seed", type=int, default=0xD0C5)
    iso.add_argument("--out", required=True, help="output CSV path")
    _add_experiment_flags(iso)
    iso.set_defaults(fn=_cmd_isolate)

    val = sub.add_parser("validate", help="check pool feasibility constraints")
    val.add_argument("--pool", required=True)
    val.add_argument("--json", action="store_true", help="machine-readable output")
    val.add_argument(
        "--containment", type=int, default=0, metavar="N",
        help="also run N single-error containment trials on a reference encode",
    )
    val.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
