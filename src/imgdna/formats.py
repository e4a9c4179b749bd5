"""Persistent file formats.

Three artifacts travel together:
  * pool file      - FASTA-like text, one record per read
  * mapping table  - binary sidecar: geometry plus per-stream layout
  * image metadata - binary sidecar: dimensions, quant table, code lengths

The sidecars model the error-free side channel; the pool file is the part
exposed to the noisy channel. All binary fields are little-endian and
length-prefixed so the files stay self-describing. A sidecar stores each
fact once and nothing the decoder derives: trit totals, block starts,
strand counts and ids, and the image's block count.

The mapping owns the strand layout: encode_image and every reader take the
geometry and each stream's strands from MappingTable.layouts(), which
read_mapping also runs, so a file no strand layout fits is a FormatError.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .barriers import BarrierConfig, strand_trits
from .jpeg import ImageMetadata
from .rotation import seq_to_string, string_to_seq
from .strands import StrandGeometry
from .streams import HuffmanTable

MAPPING_MAGIC = b"IDNM"
METADATA_MAGIC = b"IDNI"
FORMAT_VERSION = 2


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------- pool file

_HEADER_RE = re.compile(r"^>s(\d+)(?:\s+copy=(\d+))?\s*$")


def write_pool(path, reads, copies: int = 1) -> None:
    """Write reads as FASTA-like records, read i labelled
    >s{i // copies} copy={i % copies}. The labels are provenance only: the
    decoder routes every read by its own index."""
    with open(path, "w", encoding="ascii") as fh:
        for i, seq in enumerate(reads):
            fh.write(f">s{i // copies} copy={i % copies}\n")
            text = seq_to_string(seq)
            for at in range(0, len(text), 80):
                fh.write(text[at : at + 80] + "\n")


def read_pool(path) -> dict[int, list[np.ndarray]]:
    """Read a pool file back into {strand id: [copies in copy order]}; a
    record with no sequence lines is a zero-length read."""
    groups: dict[int, dict[int, np.ndarray]] = {}
    uid = copy_idx = None
    chunks: list[str] = []

    def flush():
        if uid is None:
            return
        seq = string_to_seq("".join(chunks))
        slot = groups.setdefault(uid, {})
        if copy_idx in slot:
            raise FormatError(f"duplicate record for s{uid} copy={copy_idx}")
        slot[copy_idx] = seq

    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                flush()
                m = _HEADER_RE.match(line)
                if not m:
                    raise FormatError(f"line {line_no}: bad record header {line!r}")
                uid = int(m.group(1))
                copy_idx = int(m.group(2) or 0)
                chunks = []
            else:
                if uid is None:
                    raise FormatError(f"line {line_no}: sequence before any header")
                chunks.append(line.strip())
    flush()
    return {u: [seqs[k] for k in sorted(seqs)] for u, seqs in groups.items()}


# ------------------------------------------------------------ mapping table


@dataclass
class SegmentRecord:
    """One independently decodable byte segment inside a stream. It covers
    the next block_count blocks after the segment before it."""

    block_count: int
    trit_count: int


@dataclass
class StreamMap:
    stream_id: int  # 0 = DC (or the single interleaved stream), 1 = AC
    partition_len: int | None  # None: no barriers, and no markers
    window: int
    segments: list[SegmentRecord] = field(default_factory=list)

    @property
    def total_trits(self) -> int:
        return sum(seg.trit_count for seg in self.segments)


@dataclass
class MappingTable:
    scheme: str
    quality: int
    strand_len: int
    index_width: int
    fwd_primer: str
    rev_primer: str
    streams: list[StreamMap] = field(default_factory=list)

    @property
    def geometry(self) -> StrandGeometry:
        """FormatError for primers, a length or an index width no strand can use."""
        try:
            fwd, rev = string_to_seq(self.fwd_primer), string_to_seq(self.rev_primer)
            return StrandGeometry(self.strand_len, fwd, rev, self.index_width)
        except ValueError as exc:
            raise FormatError(f"strand geometry: {exc}") from None

    def layouts(self) -> tuple[StrandGeometry, dict[int, tuple[BarrierConfig, int, range]]]:
        """(geometry, {stream id: (barrier layout, trits per strand, pool
        uids)}). Each stream's strands, ceil(trits / trits per strand) of
        them, follow the previous stream's in mapping order. FormatError for
        a barrier layout or a partition no strand can hold."""
        geom = self.geometry
        layouts, first = {}, 0
        for sm in self.streams:
            try:
                bc = BarrierConfig(partition_len=sm.partition_len, window=sm.window)
                per = strand_trits(bc, geom.capacity)
            except ValueError as exc:
                raise FormatError(f"stream {sm.stream_id}: {exc}") from None
            count = -(-sm.total_trits // per)
            layouts[sm.stream_id] = (bc, per, range(first, first + count))
            first += count
        return geom, layouts


def _pack_str(value: str) -> bytes:
    raw = value.encode("ascii")
    if len(raw) > 255:
        raise FormatError("string field too long")
    return struct.pack("<B", len(raw)) + raw


class _Cursor:
    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError(f"{self.label}: truncated file")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos = size + self.pos
        return out if len(out) > 1 else out[0]

    def take_str(self) -> str:
        n = self.take("<B")
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.label}: truncated string")
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"{self.label}: string field is not ASCII") from None

    def done(self):
        if self.pos != len(self.data):
            raise FormatError(f"{self.label}: {len(self.data) - self.pos} trailing bytes")


def write_mapping(path, table: MappingTable) -> None:
    out = bytearray()
    out += MAPPING_MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    out += _pack_str(table.scheme)
    out += struct.pack(
        "<HIH", table.quality, table.strand_len, table.index_width
    )
    out += _pack_str(table.fwd_primer)
    out += _pack_str(table.rev_primer)
    out += struct.pack("<B", len(table.streams))
    for sm in table.streams:
        out += struct.pack(
            "<BIII", sm.stream_id, sm.partition_len or 0, sm.window, len(sm.segments)
        )
        for seg in sm.segments:
            out += struct.pack("<II", seg.block_count, seg.trit_count)
    with open(path, "wb") as fh:
        fh.write(out)


def read_mapping(path) -> MappingTable:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAPPING_MAGIC:
        raise FormatError("not a mapping table file")
    cur = _Cursor(data[4:], "mapping table")
    version = cur.take("<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported mapping version {version}")
    scheme = cur.take_str()
    quality, strand_len, index_width = cur.take("<HIH")
    fwd = cur.take_str()
    rev = cur.take_str()
    table = MappingTable(scheme, quality, strand_len, index_width, fwd, rev)
    for _ in range(cur.take("<B")):
        sid, pl, window, n_segments = cur.take("<BIII")
        segments = [SegmentRecord(*cur.take("<II")) for _ in range(n_segments)]
        table.streams.append(StreamMap(sid, pl or None, window, segments))
    cur.done()
    table.layouts()  # fail here, not at decode
    return table


# ------------------------------------------------------------ image metadata


def _pack_lengths(lengths: dict[int, int]) -> bytes:
    out = struct.pack("<H", len(lengths))
    for sym in sorted(lengths):
        out += struct.pack("<HB", sym, lengths[sym])
    return out


def write_metadata(path, meta: ImageMetadata) -> None:
    if meta.dc_code_lengths is None or meta.ac_code_lengths is None:
        raise FormatError("metadata is missing entropy code lengths")
    out = bytearray()
    out += METADATA_MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    out += struct.pack("<II", meta.width, meta.height)
    out += struct.pack("<64H", *meta.quant_table.ravel().tolist())
    out += _pack_lengths(meta.dc_code_lengths)
    out += _pack_lengths(meta.ac_code_lengths)
    with open(path, "wb") as fh:
        fh.write(out)


def read_metadata(path) -> ImageMetadata:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != METADATA_MAGIC:
        raise FormatError("not an image metadata file")
    cur = _Cursor(data[4:], "image metadata")
    version = cur.take("<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported metadata version {version}")
    width, height = cur.take("<II")
    quant = np.array(cur.take("<64H"), dtype=np.int64).reshape(8, 8)

    def lengths() -> dict[int, int]:
        return dict(cur.take("<HB") for _ in range(cur.take("<H")))

    dc = lengths()
    ac = lengths()
    cur.done()
    try:
        # fail here, not at decode: every table decode_pool builds must build
        HuffmanTable(dc)
        HuffmanTable(ac)
        return ImageMetadata(width, height, quant, dc, ac)
    except ValueError as exc:
        raise FormatError(f"image metadata: {exc}") from None
