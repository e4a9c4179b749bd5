"""Layer spans recorded from outside the package.

The tracer replaces imgdna's public functions at the module attributes
through which `pipeline`, `strands`, `barriers` and `cli` call them, so
no code inside the package changes. Each call becomes a span (name,
start, end, parent span, operation id) kept in memory; a hook may add
counts from the call's arguments and result. Rotation-code calls are
counted but not timed, because a span costs more than a 6-50 nt call.

A site whose attribute no longer exists is reported as absent and left
alone, so a later change that inlines or renames a function still runs.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict


def _route(counts, args, result):
    counts["strands.reads_routed"] += sum(
        slot is not None for slots in result.streams.values() for slot in slots
    )
    counts["strands.quarantined"] += result.quarantined
    counts["strands.duplicates"] += result.duplicates


def _index_direct(counts, args, result):
    # run_containment routes its single read itself
    if result is None:
        counts["strands.quarantined"] += 1
    else:
        counts["strands.reads_routed"] += 1


def _resync(counts, args, result):
    counts["barriers.partitions"] += len(result.damaged)
    counts["barriers.partitions_damaged"] += result.damaged_count


def _segment(counts, args, result):
    counts["streams.segments_decoded"] += 1
    counts["streams.segments_clean"] += bool(result[1])


def _trits(counts, args, result):
    counts["ternary.trits_decoded"] += len(args[0])


def _reads(counts, args, result):
    counts["channel.reads"] += sum(len(group) for group in result)


def _file_bytes(counts, args, result):
    counts["formats.bytes"] += os.path.getsize(args[0])


def _rotation(counts, args, result):
    counts["rotation.calls"] += 1
    counts["rotation.nt"] += len(args[0])


# span name -> [(module, attribute, hook)]; the module is the caller's
SPAN_SITES = {
    "pipeline.encode": [("pipeline", "encode_image", None), ("cli", "encode_image", None)],
    "pipeline.decode": [("pipeline", "decode_pool", None), ("cli", "decode_pool", None)],
    "pipeline.reference": [
        ("pipeline", "reference_image", None),
        ("cli", "reference_image", None),
    ],
    "jpeg.forward": [("pipeline", "forward_transform", None)],
    "jpeg.inverse": [("pipeline", "inverse_transform", None)],
    "streams.tables": [("pipeline", "build_tables", None)],
    "streams.encode": [
        ("pipeline", "encode_dc_segment", None),
        ("pipeline", "encode_ac_segment", None),
        ("pipeline", "encode_interleaved_segment", None),
    ],
    "streams.decode": [
        ("pipeline", "decode_dc_segment", _segment),
        ("pipeline", "decode_ac_segment", _segment),
        ("pipeline", "decode_interleaved_segment", _segment),
    ],
    "ternary.encode": [("pipeline", "bytes_to_trits", None)],
    "ternary.decode": [("pipeline", "trits_to_bytes", _trits)],
    "barriers.insert": [("pipeline", "insert_barriers", None)],
    "barriers.resync": [("pipeline", "resync_decode", _resync)],
    "strands.assemble": [("pipeline", "assemble_strand", None)],
    "strands.route": [("pipeline", "disassemble_pool", _route)],
    "strands.index": [
        ("strands", "decode_index", None),
        ("pipeline", "decode_index", _index_direct),
    ],
    "strands.validate": [
        ("pipeline", "validate_constraints", None),
        ("cli", "validate_constraints", None),
    ],
    "channel.perturb": [("pipeline", "perturb_pool", _reads), ("cli", "perturb_pool", _reads)],
    "metrics.ssim": [("pipeline", "ssim", None), ("cli", "ssim", None)],
    "formats.write": [
        ("cli", "write_pool", _file_bytes),
        ("cli", "write_mapping", _file_bytes),
        ("cli", "write_metadata", _file_bytes),
    ],
    "formats.read": [
        ("cli", "read_pool", _file_bytes),
        ("cli", "read_mapping", _file_bytes),
        ("cli", "read_metadata", _file_bytes),
    ],
    "pgm.io": [("cli", "read_pgm", None), ("cli", "write_pgm", None)],
    "cli.main": [("cli", "main", None)],
    "corpus.build": [("corpus", "corpus_image", None)],
}

COUNT_SITES = [
    ("pipeline", "rotate_decode"),
    ("strands", "rotate_decode"),
    ("strands", "rotate_encode"),
    ("barriers", "rotate_decode"),
    ("barriers", "rotate_encode"),
]

# per-layer metric -> span whose summed duration it reports
BUSY = {
    "strands.route_s": "strands.route",
    "strands.index_s": "strands.index",
    "strands.assemble_s": "strands.assemble",
    "strands.validate_s": "strands.validate",
    "streams.decode_s": "streams.decode",
    "streams.tables_s": "streams.tables",
    "streams.encode_s": "streams.encode",
    "barriers.resync_s": "barriers.resync",
    "barriers.insert_s": "barriers.insert",
    "ternary.decode_s": "ternary.decode",
    "ternary.encode_s": "ternary.encode",
    "channel.perturb_s": "channel.perturb",
    "metrics.ssim_s": "metrics.ssim",
    "jpeg.forward_s": "jpeg.forward",
    "jpeg.inverse_s": "jpeg.inverse",
    "pipeline.encode_s": "pipeline.encode",
    "pipeline.decode_s": "pipeline.decode",
    "formats.write_s": "formats.write",
    "formats.read_s": "formats.read",
    "pgm.io_s": "pgm.io",
}
SELF = {
    "pipeline.encode_self_s": "pipeline.encode",
    "pipeline.decode_self_s": "pipeline.decode",
    "cli.self_s": "cli.main",
}
CALLS = {
    "strands.index_calls": "strands.index",
    "metrics.ssim_calls": "metrics.ssim",
}
COUNTS = [
    "strands.reads_routed",
    "strands.quarantined",
    "strands.duplicates",
    "streams.segments_decoded",
    "streams.segments_clean",
    "barriers.partitions",
    "barriers.partitions_damaged",
    "ternary.trits_decoded",
    "rotation.calls",
    "rotation.nt",
    "channel.reads",
    "formats.bytes",
]


class Tracer:
    """Spans and counts for one benchmark run; `install` patches, `close` restores."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, operation id]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        # import every caller first: a module imported after a patch would
        # bind the wrapper by name and be wrapped twice
        for sites in SPAN_SITES.values():
            for module, _, _ in sites:
                importlib.import_module(f"imgdna.{module}")
        for name, sites in SPAN_SITES.items():
            for module, attr, hook in sites:
                self._patch(module, attr, lambda fn, n=name, h=hook: self._timed(fn, n, h))
        for module, attr in COUNT_SITES:
            self._patch(module, attr, self._counted)

    def close(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(f"imgdna.{module}")
        original = getattr(mod, attr, None)
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        setattr(mod, attr, make(original))
        self._patched.append((mod, attr, original))

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, fn, name: str, hook):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            _rotation(self.counts, args, None)
            return fn(*args, **kwargs)

        return wrapper

    def layer_metrics(
        self, rounds: int, setups: int, op_scale: list[float], setup_scale: float
    ) -> dict[str, dict]:
        """Busy time, self time and counts per measured round.

        Measured spans carry an int operation id; their times are scaled
        by that operation's machine-speed factor. Set-up spans carry a
        string id. corpus.build runs in set-up only, so it is reported per
        set-up repetition and scaled by the run's factor. Counts are
        cleared when measuring starts.
        """
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        corpus = 0.0
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if isinstance(op, int):
                busy[name] += (end - start) * op_scale[op]
                own[name] += (end - start - child[sid]) * op_scale[op]
                calls[name] += 1
            elif name == "corpus.build":
                corpus += (end - start) * setup_scale
        out = {m: (busy[name] / rounds, "s/round") for m, name in BUSY.items()}
        out.update({m: (own[name] / rounds, "s/round") for m, name in SELF.items()})
        out.update({m: (calls[name] / rounds, "count/round") for m, name in CALLS.items()})
        out.update({m: (self.counts[m] / rounds, "count/round") for m in COUNTS})
        decoded = self.counts["streams.segments_decoded"]
        clean = self.counts["streams.segments_clean"] / decoded if decoded else 0.0
        out["streams.clean_ratio"] = (clean, "ratio")
        out["corpus.build_s"] = (corpus / setups, "s/setup")
        return {m: {"value": v, "unit": unit} for m, (v, unit) in out.items()}

    def write(self, path) -> None:
        """Spans as one JSON array per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "absent": self.absent}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
