"""Persistent file formats.

Three artifacts travel together:
  * pool file      - FASTA-like text, one record per read
  * mapping table  - binary sidecar: geometry plus per-stream layout
  * image metadata - binary sidecar: dimensions, quant table, code lengths

The sidecars model the error-free side channel; the pool file is the part
exposed to the noisy channel. All binary fields are little-endian and
length-prefixed so the files stay self-describing. A sidecar stores each
fact once and nothing the decoder derives: trit totals, segment block
ranges, strand counts and ids, and the image's block count.

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
FORMAT_VERSION = 3


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------- pool file

_HEADER_RE = re.compile(r"s(\d+)(?:\s+copy=(\d+))?")
_NOT_NUCLEOTIDE = re.compile(r"[^ACGT]")


def _parse_header(head: str) -> tuple[int, int] | None:
    """(id, copy) of a header line after its '>', stripped; None for a bad one."""
    match = _HEADER_RE.fullmatch(head)
    try:
        return match and (int(match[1]), int(match[2] or 0))
    except ValueError:  # more digits than int() converts
        return None


def write_pool(path, reads, copies: int = 1) -> None:
    """Write a sequence of reads as FASTA-like records, read i labelled
    >s{i // copies} copy={i % copies}, its sequence wrapped at 80 columns
    and a zero-length read written as its header line alone. The labels
    are provenance only: the decoder routes every read by its own index.

    The file is laid out in one buffer and written at once: the label bytes
    and each line's newline go where the read lengths put them, and the
    pool's nucleotides, converted to characters in one pass, fill the rest.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    labels = [f">s{i // copies} copy={i % copies}\n" for i in range(len(reads))]
    label_len = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    size = np.fromiter((read.size for read in reads), dtype=np.int64, count=len(reads))
    lines = -(-size // 80)
    record = label_len + size + lines
    body = np.cumsum(record) - record + label_len  # where each read's first line starts
    out = np.empty(int(record.sum()), dtype=np.uint8)
    is_nt = np.ones(out.size, dtype=bool)
    at = np.repeat(body - np.cumsum(label_len), label_len) + np.arange(label_len.sum())
    out[at] = np.frombuffer("".join(labels).encode("ascii"), dtype=np.uint8)
    is_nt[at] = False
    # line k of a read ends after min(80 (k + 1), size) nucleotides and k newlines
    k = np.arange(lines.sum()) - np.repeat(np.cumsum(lines) - lines, lines)
    at = np.repeat(body, lines) + k + np.minimum(80 * (k + 1), np.repeat(size, lines))
    out[at] = ord("\n")
    is_nt[at] = False
    if len(reads):
        text = seq_to_string(np.concatenate(reads)).encode("ascii")
        out[is_nt] = np.frombuffer(text, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(out)


def read_pool(path) -> dict[int, list[np.ndarray]]:
    """Read a pool file back into {strand id: [copies in copy order]}.

    The grammar, line by line: '\\n', '\\r\\n' and '\\r' all end a line; blank
    lines are skipped; a line starting with '>' is a header, >s{id} with an
    optional copy={k} (0 when absent) and trailing whitespace; every other
    line belongs to the header above it and, stripped of the whitespace
    around it, must be ACGT only. A record with no sequence lines is a
    zero-length read. A bad character or header, a non-blank line before
    the first header, or a repeated (id, copy) is a FormatError, which
    names the line of all but the last.

    The lines are stripped and split into records by whole-text string
    operations, and all records go through one string_to_seq; each read
    is a view of its stretch of the result.
    """
    # a non-ASCII byte reads as U+FFFD, an invalid nucleotide like any other
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    first = next((n for n, line in enumerate(lines) if line.startswith(">")), len(lines))
    stray = next((n for n, line in enumerate(lines[:first]) if line), None)
    if stray is not None:
        raise FormatError(f"line {stray + 1}: sequence before any header")
    if first == len(lines):
        return {}
    records = "\n".join(map(str.strip, lines[first:]))[1:].split("\n>")
    heads, seqs = [], []
    for record in records:
        head, _, seq = record.partition("\n")
        heads.append(_parse_header(head))
        seqs.append(seq.replace("\n", ""))
    # a line that only stripping made a header, a bad header, a bad nucleotide
    fault = len(records) != raw.count("\n>") + raw.startswith(">") or not all(heads)
    try:
        nts = string_to_seq("".join(seqs))
    except ValueError:
        fault = True
    if fault:
        raise _first_bad_line(lines, first)

    groups: dict[int, dict[int, np.ndarray]] = {}
    end = 0
    for (uid, copy_idx), seq in zip(heads, seqs):
        start, end = end, end + len(seq)
        slot = groups.setdefault(uid, {})
        if copy_idx in slot:
            raise FormatError(f"duplicate record for s{uid} copy={copy_idx}")
        slot[copy_idx] = nts[start:end]
    return {u: [copies[k] for k in sorted(copies)] for u, copies in groups.items()}


def _first_bad_line(lines: list[str], first: int) -> FormatError:
    """The error for the first bad header or sequence line from line index
    first on, which read_pool found somewhere."""
    for n, line in enumerate(lines[first:], first + 1):
        if line.startswith(">"):
            if not _parse_header(line[1:].rstrip()):
                return FormatError(f"line {n}: bad record header {line!r}")
        elif bad := _NOT_NUCLEOTIDE.search(line.strip()):
            return FormatError(f"line {n}: invalid nucleotide {bad.group()!r}")


# ------------------------------------------------------------ mapping table


def segment_bounds(segment_blocks: int, block_count: int) -> list[tuple[int, int]]:
    """The [start, end) block range of each segment of a stream: the image's
    blocks in order, segment_blocks of them per segment and fewer in the last."""
    starts = range(0, block_count, segment_blocks)
    return [(b, min(b + segment_blocks, block_count)) for b in starts]


@dataclass
class StreamMap:
    stream_id: int  # 0 = DC (or the single interleaved stream), 1 = AC
    partition_len: int | None  # None: no barriers, and no markers
    window: int
    segment_blocks: int  # blocks per segment; see segment_bounds
    trit_counts: list[int]  # one per segment


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
            count = -(-sum(sm.trit_counts) // per)
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

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError(f"{self.label}: truncated file")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos = size + self.pos
        return out

    def take_str(self) -> str:
        (n,) = self.take("<B")
        (raw,) = self.take(f"<{n}s")
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
        n = len(sm.trit_counts)
        record = (sm.stream_id, sm.partition_len or 0, sm.window, sm.segment_blocks, n)
        out += struct.pack(f"<BIIII{n}I", *record, *sm.trit_counts)
    with open(path, "wb") as fh:
        fh.write(out)


def read_mapping(path) -> MappingTable:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAPPING_MAGIC:
        raise FormatError("not a mapping table file")
    cur = _Cursor(data[4:], "mapping table")
    (version,) = cur.take("<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported mapping version {version}")
    scheme = cur.take_str()
    quality, strand_len, index_width = cur.take("<HIH")
    fwd = cur.take_str()
    rev = cur.take_str()
    table = MappingTable(scheme, quality, strand_len, index_width, fwd, rev)
    for _ in range(*cur.take("<B")):
        sid, pl, window, step, n = cur.take("<BIIII")
        table.streams.append(StreamMap(sid, pl or None, window, step, list(cur.take(f"<{n}I"))))
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
    (version,) = cur.take("<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported metadata version {version}")
    width, height = cur.take("<II")
    quant = np.array(cur.take("<64H"), dtype=np.int64).reshape(8, 8)

    def lengths(label: str) -> dict[int, int]:
        pairs = [cur.take("<HB") for _ in range(*cur.take("<H"))]
        if len(table := dict(pairs)) < len(pairs):
            raise FormatError(f"image metadata: the {label} code lengths repeat a symbol")
        return table

    dc = lengths("DC")
    ac = lengths("AC")
    cur.done()
    try:
        # fail here, not at decode: every table decode_pool builds must build
        HuffmanTable(dc)
        HuffmanTable(ac)
        return ImageMetadata(width, height, quant, dc, ac)
    except ValueError as exc:
        raise FormatError(f"image metadata: {exc}") from None
