import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imgdna.formats import (
    FormatError,
    MappingTable,
    StreamMap,
    read_mapping,
    read_metadata,
    read_pool,
    write_mapping,
    write_metadata,
    write_pool,
)
from imgdna.jpeg import ImageMetadata, quality_scaled_table
from imgdna.pipeline import decode_pool
from imgdna.rotation import seq_to_string


def test_pool_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    strands = [rng.integers(0, 4, size=n).astype(np.uint8) for n in (250, 250, 91, 300)]
    path = tmp_path / "pool.fasta"
    write_pool(path, strands)
    back = read_pool(path)
    assert sorted(back) == [0, 1, 2, 3]
    for uid, seq in enumerate(strands):
        assert len(back[uid]) == 1
        assert np.array_equal(back[uid][0], seq)


def test_pool_with_copies(tmp_path):
    # reads in (uid, copy) order are labelled s{i // copies} copy={i % copies}
    rng = np.random.default_rng(2)
    reads = [rng.integers(0, 4, size=int(n)).astype(np.uint8) for n in (50, 50, 50, 48, 0, 49)]
    path = tmp_path / "pool.fasta"
    write_pool(path, reads, copies=3)
    headers = [line for line in path.read_text().splitlines() if line.startswith(">")]
    assert headers == [f">s{i // 3} copy={i % 3}" for i in range(6)]
    back = read_pool(path)
    assert len(back[0]) == 3 and len(back[1]) == 3
    for i, seq in enumerate(reads):
        assert np.array_equal(back[i // 3][i % 3], seq)


def test_pool_line_wrap_and_order(tmp_path):
    # readers must not care about line width or record order
    path = tmp_path / "pool.fasta"
    path.write_text(">s1 copy=0\nACGT\nACGT\n>s0\nTTGA\n")
    back = read_pool(path)
    assert np.array_equal(back[1][0], np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint8))
    assert back[0][0].size == 4


def test_pool_rejects_garbage(tmp_path):
    path = tmp_path / "pool.fasta"
    path.write_text("ACGT\n")
    with pytest.raises(FormatError):
        read_pool(path)
    path.write_text(">strand zero\nACGT\n")
    with pytest.raises(FormatError):
        read_pool(path)
    # a header with no sequence is an empty read, as a channel can leave one
    path.write_text(">s0\n>s1\nACGT\n")
    back = read_pool(path)
    assert back[0][0].size == 0 and back[1][0].size == 4


def test_pool_rejects_copies_below_one(tmp_path):
    # copies=0 divided by zero and copies=-1 wrote labels read_pool rejects
    path = tmp_path / "pool.fasta"
    for copies in (0, -1):
        with pytest.raises(ValueError, match="copies must be >= 1"):
            write_pool(path, [np.zeros(4, dtype=np.uint8)], copies=copies)
    assert not path.exists()


def _pool_text_per_record(reads, copies):
    """write_pool written record by record."""
    out = []
    for i, read in enumerate(reads):
        out.append(f">s{i // copies} copy={i % copies}\n")
        text = "".join("ACGT"[nt] for nt in read.tolist())
        out += [text[at : at + 80] + "\n" for at in range(0, len(text), 80)]
    return "".join(out).encode("ascii")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 250), max_size=9), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example([0, 79, 80, 81, 160, 250, 0], 3, 0)
@example([], 1, 0)
def test_pool_file_bytes_equal_per_record_writer(tmp_path_factory, sizes, copies, seed):
    rng = np.random.default_rng(seed)
    reads = [rng.integers(0, 4, size=n).astype(np.uint8) for n in sizes]
    path = tmp_path_factory.mktemp("pool") / "pool.fasta"
    write_pool(path, reads, copies=copies)
    assert path.read_bytes() == _pool_text_per_record(reads, copies)
    back = read_pool(path)
    assert sum(map(len, back.values())) == len(reads)
    for i, read in enumerate(reads):
        assert np.array_equal(back[i // copies][i % copies], read)


@pytest.mark.parametrize(
    "text",
    [
        ">s0 copy=0\r\nACGT\r\nAC\r\n>s1\r\nT\r\n",
        ">s0 copy=0\rACGT\rAC\r>s1\rT",
        "\n\n>s0 copy=0\n\nACGT\n\n\nAC\n>s1\n\nT\n\n",
        ">s0 copy=0 \t\n  ACGT \n\tAC\n   \n>s1\n T\t\n",
    ],
    ids=["crlf", "cr", "blank-lines", "spaces-around"],
)
def test_pool_grammar_accepts(tmp_path, text):
    path = tmp_path / "pool.fasta"
    path.write_bytes(text.encode("ascii"))
    back = read_pool(path)
    assert list(back) == [0, 1] and [len(v) for v in back.values()] == [1, 1]
    assert seq_to_string(back[0][0]) == "ACGTAC" and seq_to_string(back[1][0]) == "T"


@pytest.mark.parametrize(
    "text, message",
    [
        (">s0\nACGX\n", "line 2: invalid nucleotide 'X'"),
        (">s0\nAC\n>s1\nACGT\nAC GT\n", "line 5: invalid nucleotide ' '"),
        (">s0\nAC\n\nAC>GT\n", "line 4: invalid nucleotide '>'"),
        (">s0\nACGT\n >s1\nACGT\n", "line 3: invalid nucleotide '>'"),
        (">s0\nACGT\n>s1\nacgt\n", "line 4: invalid nucleotide 'a'"),
        (">s0\nAC\xc3\xa9\n", "line 2: invalid nucleotide"),
        (">s0\nACGT\n>s1 copy=x\nACGT\n", "line 3: bad record header '>s1 copy=x'"),
        (">s0\nACGX\n>s1 copy=x\n", "line 2: invalid nucleotide 'X'"),
        ("\n  \n>s0\nACGT\n", "line 2: sequence before any header"),
    ],
    ids=[
        "letter", "inner-space", "inner-gt", "spaced-header", "lower-case", "non-ascii",
        "header", "first-bad-line", "before-header",
    ],
)
def test_pool_grammar_rejects_with_the_line(tmp_path, text, message):
    path = tmp_path / "pool.fasta"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        read_pool(path)


@pytest.mark.parametrize(
    "header", [">s" + "1" * 5000, ">s0 copy=" + "1" * 5000], ids=["id", "copy"]
)
def test_pool_header_ids_too_long_to_convert_are_bad_headers(tmp_path, header):
    # int() refuses more than 4,300 digits; the header is bad, with its line
    path = tmp_path / "pool.fasta"
    path.write_text(f"{header}\nACGT\n")
    with pytest.raises(FormatError, match="^line 1: bad record header '>s"):
        read_pool(path)
    path.write_text(f">s0\nACGT\n\n{header}\nACGT\n")
    with pytest.raises(FormatError, match="^line 4: bad record header '>s"):
        read_pool(path)


def test_mapping_round_trip(tmp_path):
    table = MappingTable(
        scheme="IMG-DNA",
        quality=75,
        strand_len=250,
        index_width=6,
        fwd_primer="ACGTACGTACGTACGTACGT",
        rev_primer="TGCATGCATGCATGCATGCA",
        streams=[
            StreamMap(stream_id=0, partition_len=20, window=12, segment_blocks=4,
                      trit_counts=[31, 26]),
            # one segment: its trit count is the only value of its unpack
            StreamMap(stream_id=1, partition_len=None, window=12, segment_blocks=1,
                      trit_counts=[168]),
        ],
    )
    path = tmp_path / "img.map"
    write_mapping(path, table)
    back = read_mapping(path)
    assert table == back
    assert [sm.trit_counts for sm in back.streams] == [[31, 26], [168]]
    # magic, version, strings and fields, then per stream <BIIII and its counts
    assert path.stat().st_size == 4 + 2 + 8 + 8 + 2 * 21 + 1 + (17 + 8) + (17 + 4)


def _raw_dna(trit_counts):
    # a Raw-DNA table for a 16x16 image: one stream of one 4-block segment
    return MappingTable(
        "Raw-DNA", 75, 250, 6, "A" * 20, "C" * 20, [StreamMap(0, None, 12, 4, trit_counts)]
    )


_META_16 = ImageMetadata(16, 16, np.ones((8, 8)), {0: 1, 1: 1}, {0: 1, 1: 1})


def test_mapping_claiming_no_segments_is_a_format_error(tmp_path):
    # the empty trit-count list reads back, and decode_pool refuses it
    path = tmp_path / "img.map"
    write_mapping(path, _raw_dna([]))
    mapping = read_mapping(path)
    assert mapping.streams[0].trit_counts == []
    with pytest.raises(FormatError, match="stream 0: segment trit counts"):
        decode_pool([], mapping, _META_16)
    write_mapping(path, _raw_dna([40]))
    assert decode_pool([], read_mapping(path), _META_16).missing_strands == 1


def test_mapping_with_a_truncated_trit_count_list_is_a_format_error(tmp_path):
    path = tmp_path / "img.map"
    write_mapping(path, _raw_dna([40, 7, 9]))
    data = path.read_bytes()
    for cut in (1, 4, 5, 11):  # inside the last count, and whole counts missing
        path.write_bytes(data[:-cut])
        with pytest.raises(FormatError, match="mapping table: truncated file"):
            read_mapping(path)


def test_mapping_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.map"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_mapping(path)
    path.write_bytes(b"IDNM\x63\x00")
    with pytest.raises(FormatError):
        read_mapping(path)


def test_mapping_rejects_barrier_parameters_the_decoder_cannot_use(tmp_path):
    # a sidecar that BarrierConfig rejects fails on read, not later in decode
    head = MappingTable("IMG-DNA", 75, 250, 6, "A" * 20, "C" * 20)
    path = tmp_path / "img.map"
    for pl, window, message in (
        (20, 3, "even number"),
        (20, 2, "even number"),
        (None, 0, "even number"),
        (1, 4, "partition_len must be >= 2"),
        (5, 10, "smaller than two partitions"),
    ):
        sm = StreamMap(0, pl, window, 1, [40])
        write_mapping(path, replace(head, streams=[sm]))
        with pytest.raises(FormatError, match=f"stream 0: .*{message}"):
            read_mapping(path)


def _scheme_byte(data: bytes) -> bytes:
    # the scheme string follows the magic, the version and its length byte
    return data[:7] + b"\xff" + data[8:]


@pytest.mark.parametrize(
    "edit, patch, message",
    [
        ({"fwd_primer": "X" * 20}, None, "strand geometry: invalid nucleotide 'X'"),
        ({"strand_len": 40}, None, "strand geometry: strand too short"),
        ({"index_width": 0}, None, "strand geometry: index width must be >= 1"),
        ({}, _scheme_byte, "mapping table: string field is not ASCII"),
    ],
    ids=["primer", "strand_len", "index_width", "scheme"],
)
def test_mapping_the_decoder_cannot_use_is_a_format_error_when_read(tmp_path, edit, patch, message):
    table = MappingTable(
        "IMG-DNA", 75, 250, 6, "A" * 20, "C" * 20, [StreamMap(0, 20, 12, 1, [40])]
    )
    path = tmp_path / "img.map"
    write_mapping(path, replace(table, **edit))
    if patch is not None:
        path.write_bytes(patch(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        read_mapping(path)


def test_mapping_rejects_truncation(tmp_path):
    table = MappingTable("Raw-DNA", 75, 250, 6, "A" * 20, "C" * 20)
    path = tmp_path / "img.map"
    write_mapping(path, table)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FormatError):
        read_mapping(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(FormatError):
        read_mapping(path)


def test_metadata_round_trip(tmp_path):
    meta = ImageMetadata(
        width=130,
        height=140,
        quant_table=quality_scaled_table(75),
        dc_code_lengths={0: 2, 1: 2, 5: 3, 15: 9},
        ac_code_lengths={0x00: 1, 0xF0: 4, 0x23: 5},
    )
    path = tmp_path / "img.meta"
    write_metadata(path, meta)
    back = read_metadata(path)
    assert back.width == 130 and back.height == 140
    assert np.array_equal(back.quant_table, meta.quant_table)
    assert back.block_count == 306
    assert back.dc_code_lengths == meta.dc_code_lengths
    assert back.ac_code_lengths == meta.ac_code_lengths


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.dc_code_lengths.update({0: 17}), "code length"),
        (lambda m: m.ac_code_lengths.update({0x23: 0}), "code length"),
        (lambda m: setattr(m, "ac_code_lengths", {0: 0}), "code length"),
        (lambda m: m.ac_code_lengths.update({300: 9}), "symbol"),
        (lambda m: m.dc_code_lengths.clear(), "empty"),
        (lambda m: m.quant_table.__setitem__((3, 4), 0), "quant"),
    ],
    ids=["length-17", "length-0", "lone-length-0", "symbol-300", "empty", "quant-0"],
)
def test_bad_metadata_is_a_format_error_when_read(tmp_path, edit, message):
    meta = ImageMetadata(
        width=130,
        height=140,
        quant_table=quality_scaled_table(75),
        dc_code_lengths={0: 2, 1: 2, 5: 3, 15: 9},
        ac_code_lengths={0x00: 1, 0xF0: 4, 0x23: 5},
    )
    edit(meta)  # after the checks ImageMetadata makes itself
    path = tmp_path / "img.meta"
    write_metadata(path, meta)
    with pytest.raises(FormatError, match=f"image metadata: .*{message}"):
        read_metadata(path)


@pytest.mark.parametrize("table, at", [("DC", 142), ("AC", 142 + 2 + 4 * 3)])
def test_metadata_listing_a_symbol_twice_is_a_format_error(tmp_path, table, at):
    # each table is a <H count and sorted <HB entries; the third entry's
    # symbol becomes the second's, which the last entry would overwrite
    meta = ImageMetadata(
        width=130,
        height=140,
        quant_table=quality_scaled_table(75),
        dc_code_lengths={0: 2, 1: 2, 5: 3, 15: 9},
        ac_code_lengths={0x00: 1, 0x23: 5, 0x31: 5, 0xF0: 4},
    )
    path = tmp_path / "img.meta"
    write_metadata(path, meta)
    data = bytearray(path.read_bytes())
    assert data[at : at + 2] == b"\x04\x00"
    second, third = at + 2 + 3, at + 2 + 6
    data[third : third + 2] = data[second : second + 2]
    path.write_bytes(bytes(data))
    message = f"image metadata: the {table} code lengths repeat a symbol"
    with pytest.raises(FormatError, match=message):
        read_metadata(path)


def test_metadata_requires_code_lengths(tmp_path):
    meta = ImageMetadata(width=16, height=16, quant_table=np.ones((8, 8)))
    with pytest.raises(FormatError):
        write_metadata(tmp_path / "img.meta", meta)


@pytest.mark.parametrize("old", [1, 2])
def test_sidecars_of_an_older_format_version_are_rejected(tmp_path, old):
    # a version 1 or 2 file lays its fields out differently: it is refused,
    # not misread, and must be re-encoded
    table = MappingTable("Raw-DNA", 75, 250, 6, "A" * 20, "C" * 20)
    meta = ImageMetadata(16, 16, np.ones((8, 8)), {0: 1, 1: 1}, {0: 1, 1: 1})
    for write, read, value, label in (
        (write_mapping, read_mapping, table, "mapping"),
        (write_metadata, read_metadata, meta, "metadata"),
    ):
        path = tmp_path / label
        write(path, value)
        data = bytearray(path.read_bytes())
        assert data[4:6] == b"\x03\x00"
        data[4:6] = old.to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"unsupported {label} version {old}"):
            read(path)
