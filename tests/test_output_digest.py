"""Committed output digest: one SHA-256 per case over a fixed grid of outputs.

Each case hashes one output on its own, so a failure names what changed:

  encode/<image>/<scheme>/{strands,mapping,metadata}
      encode_image's strands, and the mapping and metadata sidecars as the
      bytes write_mapping and write_metadata put in a file;
  decode/<image>/<scheme>/rate<r>/copies<c>
      decode_pool's image and its four counters, from a fixed channel seed;
  containment/<scheme>
      run_containment's counts and damage histogram, 500 trials;
  sweep, isolation
      one run_sweep and one run_coefficient_isolation row set, with the
      bytes of the CSV each writes.

Rules:
  - A change that alters outputs on purpose regenerates the file in the
    same change, and lists in CHANGES.md the cases that changed and why.
  - A performance or refactoring change leaves the file alone.
  - The file records the numpy version it was made with. A numpy upgrade
    that moves an RNG stream shows up as a digest failure, and is reported
    as one.

Regenerate with:  PYTHONPATH=src python tests/test_output_digest.py
It prints each case that changed, was added or was removed before it
overwrites the file.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from imgdna.channel import ChannelConfig, perturb_pool
from imgdna.corpus import corpus_image
from imgdna.formats import write_mapping, write_metadata
from imgdna.pipeline import (
    SCHEMES,
    ExperimentConfig,
    decode_pool,
    encode_image,
    run_coefficient_isolation,
    run_containment,
    run_sweep,
)

DIGEST_PATH = Path(__file__).with_name("output_digest.json")

IMAGES = (0, 7)
RATES = (0.0, 0.005, 0.02)
COPIES = (1, 3)
CHANNEL_SEED = 11
CONTAINMENT_TRIALS = 500


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:  # length-prefixed, so part boundaries count
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _file_bytes(write, value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path, value)
        return path.read_bytes()


@lru_cache(maxsize=None)
def _encoded(image: int, scheme: str):
    return encode_image(corpus_image(image), ExperimentConfig(scheme=scheme))


def _decode_case(image: int, scheme: str, rate: float, copies: int) -> str:
    enc = _encoded(image, scheme)
    geom = enc.mapping.geometry
    channel = ChannelConfig(rate=rate, copies=copies)
    pool = perturb_pool(enc.strands, channel, CHANNEL_SEED, protect=(geom.fwd_len, geom.rev_len))
    dec = decode_pool(pool, enc.mapping, enc.metadata)
    counters = (dec.damaged_partitions, dec.missing_strands, dec.quarantined, dec.duplicates)
    return _sha(dec.image.tobytes(), repr(counters).encode())


def _containment_case(scheme: str) -> str:
    stats = run_containment(
        corpus_image(0), ExperimentConfig(scheme=scheme), trials=CONTAINMENT_TRIALS
    )
    counts = (stats.trials, stats.within_two_partitions, stats.confined_to_strand)
    return _sha(repr(counts).encode(), repr(sorted(stats.damage_histogram.items())).encode())


def _rows_case(run) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        rows = run(path)
        return _sha(repr(rows).encode(), path.read_bytes())


def _sweep(path):
    points = [(scheme, ExperimentConfig(scheme=scheme)) for scheme in SCHEMES]
    images = [corpus_image(i) for i in IMAGES]
    return run_sweep(images, points, rates=(0.005, 0.01), trials=2, out_path=path)


def _isolation(path):
    return run_coefficient_isolation([corpus_image(0)], trials=2, out_path=path)


def digest_cases() -> dict:
    """Case name -> zero-argument function returning the case's hash."""
    cases = {}
    for image in IMAGES:
        for scheme in SCHEMES:
            stem = f"encode/{image}/{scheme}"
            cases[f"{stem}/strands"] = lambda i=image, s=scheme: _sha(
                *(strand.tobytes() for strand in _encoded(i, s).strands)
            )
            cases[f"{stem}/mapping"] = lambda i=image, s=scheme: _sha(
                _file_bytes(write_mapping, _encoded(i, s).mapping)
            )
            cases[f"{stem}/metadata"] = lambda i=image, s=scheme: _sha(
                _file_bytes(write_metadata, _encoded(i, s).metadata)
            )
            for rate in RATES:
                for copies in COPIES:
                    cases[f"decode/{image}/{scheme}/rate{rate}/copies{copies}"] = (
                        lambda i=image, s=scheme, r=rate, c=copies: _decode_case(i, s, r, c)
                    )
    for scheme in SCHEMES:
        cases[f"containment/{scheme}"] = lambda s=scheme: _containment_case(s)
    cases["sweep"] = lambda: _rows_case(_sweep)
    cases["isolation"] = lambda: _rows_case(_isolation)
    return cases


def _recorded() -> dict:
    return json.loads(DIGEST_PATH.read_text())


def test_digest_covers_every_case():
    assert sorted(_recorded()["cases"]) == sorted(digest_cases())


@pytest.mark.parametrize("case", sorted(digest_cases()))
def test_output_digest(case):
    recorded = _recorded()
    want = recorded["cases"].get(case)
    got = digest_cases()[case]()
    assert got == want, (
        f"{case}: output changed (digest made with numpy {recorded['numpy']}, "
        f"running numpy {np.__version__})"
    )


def main() -> None:
    cases = {name: run() for name, run in sorted(digest_cases().items())}
    old = _recorded()["cases"] if DIGEST_PATH.exists() else {}
    for name in sorted(old.keys() | cases.keys()):
        if name not in cases:
            print(f"removed  {name}")
        elif name not in old:
            print(f"added    {name}")
        elif old[name] != cases[name]:
            print(f"changed  {name}")
    DIGEST_PATH.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {DIGEST_PATH}")


if __name__ == "__main__":
    main()
