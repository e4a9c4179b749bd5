"""The bench tracer's absent sites, pinned.

bench/spans.py wraps imgdna functions by module attribute and reports each
one it cannot find as absent, so a rename leaves a metric reading 0
without any error. This list pins today's absent sites: renaming a traced
function adds one and fails here, and repointing a site removes one.
The routing hook reads disassemble_pool's result, so its shape is pinned
too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import imgdna.pipeline
from imgdna.channel import ChannelConfig
from imgdna.corpus import corpus_image
from imgdna.pipeline import ExperimentConfig, encode_image, run_pipeline

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

ABSENT = [
    "pipeline.assemble_strand",
    "pipeline.decode_ac_segment",
    "pipeline.decode_dc_segment",
    "pipeline.decode_index",
    "pipeline.decode_interleaved_segment",
    "pipeline.encode_ac_segment",
    "pipeline.encode_dc_segment",
    "pipeline.encode_interleaved_segment",
    "pipeline.insert_barriers",
    "pipeline.resync_decode",
    "pipeline.rotate_decode",
    "pipeline.trits_to_bytes",
    "pipeline.validate_constraints",
    "strands.rotate_decode",
]


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_absent_trace_sites_are_pinned(spans):
    original = imgdna.pipeline.decode_pool
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert imgdna.pipeline.decode_pool is not original
        assert sorted(tracer.absent) == ABSENT
    finally:
        tracer.close()
    assert imgdna.pipeline.decode_pool is original


def test_routing_hook_counts_a_clean_pool(spans):
    image = corpus_image(0)[:32, :32]
    enc = encode_image(image, ExperimentConfig())
    tracer = spans.Tracer()
    try:
        tracer.install()
        run_pipeline(image, ExperimentConfig(), ChannelConfig(rate=0.0), enc=enc)
    finally:
        tracer.close()
    counts = tracer.counts
    assert counts["strands.reads_routed"] == len(enc.strands)
    assert (counts["strands.quarantined"], counts["strands.duplicates"]) == (0, 0)
