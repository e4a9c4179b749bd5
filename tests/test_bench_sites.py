"""The bench tracer's absent sites, pinned.

bench/spans.py wraps imgdna functions by module attribute and reports each
one it cannot find as absent, so a rename leaves a metric reading 0
without any error. This list pins today's absent sites: renaming a traced
function adds one and fails here, and repointing a site removes one.
"""

import importlib.util
import sys
from pathlib import Path

import imgdna.pipeline

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


def test_absent_trace_sites_are_pinned(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = imgdna.pipeline.decode_pool
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert imgdna.pipeline.decode_pool is not original
        assert sorted(tracer.absent) == ABSENT
    finally:
        tracer.close()
    assert imgdna.pipeline.decode_pool is original
