"""Robustness sweep: mean SSIM vs error rate for all three schemes.

Small corpus and trial count so it finishes in a few seconds; the CLI
`imgdna sweep` runs the full-size version.

Run:  python demos/sweep.py [out.csv]
"""

import sys
from dataclasses import replace

from imgdna import DEFAULT_RATES, SCHEMES, ExperimentConfig, build_corpus
from imgdna.pipeline import run_sweep

out = sys.argv[1] if len(sys.argv) > 1 else "sweep_demo.csv"
images = build_corpus(6)
cfg = ExperimentConfig()
points = [(scheme, replace(cfg, scheme=scheme)) for scheme in SCHEMES]

rows = run_sweep(images, points, rates=DEFAULT_RATES, trials=2, out_path=out)

print(f"{'scheme':22s} {'rate':>7s} {'mean ssim':>10s} {'ci90':>7s} {'density':>8s}")
for scheme, rate, mean, ci, density in rows:
    print(f"{scheme:22s} {rate:7.1%} {mean:10.4f} {ci:7.4f} {density:8.4f}")

img = {r[1]: r[2] for r in rows if r[0] == "IMG-DNA"}
raw = {r[1]: r[2] for r in rows if r[0] == "Raw-DNA"}
print("\nIMG-DNA vs Raw-DNA ratio per rate:",
      "  ".join(f"{rate:.1%}: {img[rate] / max(raw[rate], 1e-9):.1f}x" for rate in DEFAULT_RATES))
print(f"rows written to {out}")
