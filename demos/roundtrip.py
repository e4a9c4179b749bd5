"""Walk one image through the whole pipeline, stage by stage.

Run:  python demos/roundtrip.py [output_dir]
"""

import sys
import time
from pathlib import Path

import numpy as np

from imgdna import (
    ChannelConfig,
    ExperimentConfig,
    corpus_image,
    decode_pool,
    encode_image,
    perturb_pool,
    reference_image,
    seq_to_string,
    ssim,
    validate_constraints,
    write_pgm,
)

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
out_dir.mkdir(parents=True, exist_ok=True)

image = corpus_image(0)
cfg = ExperimentConfig()
print(f"image: {image.shape[1]}x{image.shape[0]}, scheme {cfg.scheme}, quality {cfg.quality}")

t0 = time.perf_counter()
enc = encode_image(image, cfg)
print(f"\nencoded in {time.perf_counter() - t0:.3f}s -> {len(enc.strands)} strands")

# anatomy of the first strand: primer | index | payload (with 'AA' barriers)
geom = enc.mapping.geometry
s0 = seq_to_string(enc.strands[0])
fwd = geom.fwd_len
idx = geom.index_len + 1  # index trits plus its seed base
print(f"strand 0 ({len(s0)} nt):")
print(f"  fwd primer  {s0[:fwd]}")
print(f"  index       {s0[fwd:fwd + idx]}")
print(f"  payload     {s0[fwd + idx:len(s0) - geom.rev_len][:60]}...")
print(f"  rev primer  {s0[len(s0) - geom.rev_len:]}")

report = validate_constraints(enc.strands)
print(f"\nfeasibility: max homopolymer {report.max_homopolymer}, "
      f"GC {report.gc_mean:.3f} [{report.gc_min:.3f}, {report.gc_max:.3f}], "
      f"violations {report.violations or 'none'}")
print(f"payload density {enc.payload_density:.4f} bits/nt "
      f"(whole strand: {enc.strand_density:.4f})")
print(f"barrier overhead: DC {enc.barrier_overhead_for(0):.4%}, "
      f"AC {enc.barrier_overhead_for(1):.4%} of image bytes")

# clean channel: decode must be exact
clean = decode_pool(enc.strands, enc.mapping, enc.metadata)
ref = reference_image(image, cfg.quality)
assert np.array_equal(clean.image, ref)
print(f"\nclean decode: identical to reference (ssim {ssim(ref, clean.image):.1f})")

# noisy channel
for rate in (0.001, 0.01):
    noisy = perturb_pool(enc.strands, ChannelConfig(rate=rate), seed=2024,
                         protect=(geom.fwd_len, geom.rev_len))
    dec = decode_pool(noisy, enc.mapping, enc.metadata)
    score = ssim(ref, dec.image)
    print(f"rate {rate:.1%}: ssim {score:.4f}, damaged partitions {dec.damaged_partitions}, "
          f"strands lost {dec.missing_strands}")
    write_pgm(out_dir / f"decoded_{rate:.3%}.pgm", dec.image)

write_pgm(out_dir / "original.pgm", image)
write_pgm(out_dir / "reference.pgm", ref)
print(f"\nimages written to {out_dir}/")
