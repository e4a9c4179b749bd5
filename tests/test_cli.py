import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from imgdna import cli
from imgdna.cli import main
from imgdna.corpus import corpus_image
from imgdna.formats import read_pool, write_pool
from imgdna.pgm import read_pgm, write_pgm
from imgdna.channel import ChannelConfig, perturb_pool
from imgdna.pipeline import SCHEMES, ExperimentConfig, decode_pool, encode_image, reference_image
from imgdna.rotation import seq_to_string

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def encoded(tmp_path):
    prefix = tmp_path / "img"
    assert run(["encode", "--builtin-index", 1, "--out", prefix]) == 0
    return prefix


def test_encode_writes_sidecars(encoded):
    for ext in (".pool.fa", ".map", ".meta"):
        assert (encoded.parent / (encoded.name + ext)).exists()


def test_clean_decode_round_trip(encoded, tmp_path, capsys):
    out = tmp_path / "back.pgm"
    code = run([
        "decode",
        "--pool", f"{encoded}.pool.fa",
        "--mapping", f"{encoded}.map",
        "--metadata", f"{encoded}.meta",
        "--out", out,
    ])
    assert code == 0
    assert "damaged partitions 0  failed segments 0" in capsys.readouterr().out
    decoded = read_pgm(out)
    expect = reference_image(corpus_image(1), ExperimentConfig().quality)
    assert np.array_equal(decoded, expect)


def test_decode_reports_ssim_against_original(encoded, tmp_path, capsys):
    original = tmp_path / "orig.pgm"
    write_pgm(original, corpus_image(1))
    out = tmp_path / "back.pgm"
    code = run([
        "decode",
        "--pool", f"{encoded}.pool.fa",
        "--mapping", f"{encoded}.map",
        "--metadata", f"{encoded}.meta",
        "--out", out,
        "--image", original,
    ])
    assert code == 0
    assert "ssim vs clean reconstruction 1.0000" in capsys.readouterr().out


def test_channel_flag_and_file_forms_match(encoded, tmp_path):
    """The same channel settings through flags or a config file give the same pool."""
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("rate = 0.01\nsub_weight = 2\nins_weight = 1\ndel_weight = 1\n")
    a, b = tmp_path / "a.fa", tmp_path / "b.fa"
    common = ["perturb", "--pool", f"{encoded}.pool.fa", "--mapping", f"{encoded}.map",
              "--channel-seed", 9]
    assert run(common + ["--channel-config", cfg, "--out", a]) == 0
    assert run(common + ["--rate", 0.01, "--sub-weight", 2, "--ins-weight", 1,
                         "--del-weight", 1, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flags_override_config_file(encoded, tmp_path):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("rate = 0.5\n")
    a, b = tmp_path / "a.fa", tmp_path / "b.fa"
    base = ["perturb", "--pool", f"{encoded}.pool.fa", "--mapping", f"{encoded}.map",
            "--channel-seed", 3]
    assert run(base + ["--channel-config", cfg, "--rate", 0.0, "--out", a]) == 0
    assert run(base + ["--rate", 0.0, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()  # override made the file's 0.5 irrelevant


def test_perturb_requires_rate_or_config(encoded, tmp_path, capsys):
    code = run(["perturb", "--pool", f"{encoded}.pool.fa", "--mapping", f"{encoded}.map",
                "--out", tmp_path / "x.fa"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "rate" in err["message"]


@pytest.mark.parametrize("flag", [["--sub-weight", "nan"], ["--ins-weight", "inf"]])
def test_perturb_rejects_non_finite_weights(encoded, tmp_path, capsys, flag):
    code = run(["perturb", "--pool", f"{encoded}.pool.fa", "--mapping", f"{encoded}.map",
                "--rate", 0.01, *flag, "--out", tmp_path / "x.fa"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "finite" in err["message"]
    assert not (tmp_path / "x.fa").exists()


def _reshaped_pool(encoded, tmp_path, shape):
    """The encoded pool with two reads per strand, or without strand s1."""
    pool = read_pool(f"{encoded}.pool.fa")
    path = tmp_path / f"{shape}.fa"
    if shape == "copies":
        write_pool(path, [read for uid in sorted(pool) for read in pool[uid] * 2], copies=2)
    else:
        path.write_text("".join(
            f">s{uid} copy=0\n{seq_to_string(reads[0])}\n" for uid, reads in pool.items() if uid != 1
        ))
    return path


@pytest.mark.parametrize("shape", ["copies", "gap"])
def test_perturb_needs_one_read_per_strand(encoded, tmp_path, capsys, shape):
    out = tmp_path / "x.fa"
    code = run(["perturb", "--pool", _reshaped_pool(encoded, tmp_path, shape),
                "--mapping", f"{encoded}.map", "--rate", 0.01, "--out", out])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "one read per strand" in err["message"]
    assert not out.exists()


def test_decode_counts_reads(encoded, tmp_path, capsys):
    strands = len(read_pool(f"{encoded}.pool.fa"))
    code = run(["decode", "--pool", _reshaped_pool(encoded, tmp_path, "copies"),
                "--mapping", f"{encoded}.map", "--metadata", f"{encoded}.meta",
                "--out", tmp_path / "back.pgm"])
    assert code == 0
    assert f"from {2 * strands} reads" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, channel",
    [
        # every read loses every nucleotide, so every record is empty
        (
            ["--rate", 1, "--sub-weight", 0, "--ins-weight", 0, "--corrupt-primers"],
            ChannelConfig(rate=1, sub_weight=0, ins_weight=0, corrupt_primers=True),
        ),
        (["--rate", 0.01, "--copies", 3], ChannelConfig(rate=0.01, copies=3)),
    ],
)
def test_perturbed_pool_file_decodes_as_in_memory(encoded, tmp_path, capsys, flags, channel):
    noisy, out = tmp_path / "noisy.fa", tmp_path / "back.pgm"
    assert run(["perturb", "--pool", f"{encoded}.pool.fa", "--mapping", f"{encoded}.map",
                "--out", noisy, *flags]) == 0
    assert run(["decode", "--pool", noisy, "--mapping", f"{encoded}.map",
                "--metadata", f"{encoded}.meta", "--out", out]) == 0
    capsys.readouterr()
    run(["validate", "--pool", noisy, "--json"])  # exits 1 on a homopolymer the noise made
    enc = encode_image(corpus_image(1), ExperimentConfig())
    reads = perturb_pool(enc.strands, channel, 0,
                         protect=(len(enc.mapping.fwd_primer), len(enc.mapping.rev_primer)))
    assert json.loads(capsys.readouterr().out)["strand_count"] == len(reads)
    assert np.array_equal(read_pgm(out), decode_pool(reads, enc.mapping, enc.metadata).image)


@pytest.mark.parametrize("verb", ["validate", "sweep", "isolate"])
def test_bad_trial_counts_exit_1(encoded, tmp_path, capsys, verb):
    argv = {
        "validate": ["validate", "--pool", f"{encoded}.pool.fa", "--containment", -3],
        "sweep": ["sweep", "--builtin-corpus", 1, "--trials", 0, "--out", tmp_path / "s.csv"],
        "isolate": ["isolate", "--builtin-corpus", 1, "--trials", 0, "--out", tmp_path / "i.csv"],
    }[verb]
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PipelineError"
    assert "trials" in err["message"]


def test_isolate_rejects_a_rate_outside_unit_interval(tmp_path, capsys):
    out = tmp_path / "i.csv"
    assert run(["isolate", "--builtin-corpus", 1, "--rates", -0.5, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PipelineError"
    assert "rates must be in [0, 1]" in err["message"]
    assert not out.exists()


def test_bad_nucleotide_in_a_pool_is_a_format_error_with_its_line(tmp_path, capsys):
    pool = tmp_path / "bad.fa"
    pool.write_text(">s0\nACGT\nACGX\n")
    assert run(["validate", "--pool", pool]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "FormatError", "message": "line 3: invalid nucleotide 'X'"}


def test_machine_readable_error_on_missing_file(tmp_path, capsys):
    code = run(["decode", "--pool", tmp_path / "nope.fa", "--mapping", tmp_path / "m",
                "--metadata", tmp_path / "t", "--out", tmp_path / "o.pgm"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}


def test_bad_scheme_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["encode", "--scheme", "bogus", "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_sweep_csv_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--builtin-corpus", 2, "--schemes", "IMG-DNA",
            "--rates", "0.001", "--trials", 1]
    assert run(argv + ["--out", a]) == 0
    assert run(argv + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "scheme,error_rate,mean_ssim,ci90_half_width,density"
    assert len(lines) == 2


def test_isolate_csv(tmp_path):
    out = tmp_path / "iso.csv"
    code = run(["isolate", "--builtin-corpus", 2, "--schemes", "IMG-DNA,Raw-DNA",
                "--rates", "0.0005", "--trials", 1, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,target,error_rate,mean_ssim,ci90_half_width"
    assert len(lines) == 1 + 2 * 2  # schemes x targets


def test_validate_json(encoded, capsys):
    assert run(["validate", "--pool", f"{encoded}.pool.fa", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["max_homopolymer"] <= 3
    assert 0.4 <= payload["gc_mean"] <= 0.6


def test_validate_json_with_containment_is_one_document(encoded, capsys):
    argv = ["validate", "--pool", f"{encoded}.pool.fa", "--containment", 40]
    assert run(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    stats = payload["containment"]
    assert set(stats) == {"trials", "within_two_partitions", "confined_to_strand", "damage_histogram"}
    assert stats["trials"] == sum(stats["damage_histogram"].values()) == 40
    assert stats["confined_to_strand"] == 40
    assert run(argv) == 0  # the text report keeps its one containment line
    assert capsys.readouterr().out.splitlines()[-1].startswith("containment: ")


def test_corpus_directory_input(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        write_pgm(corpus / f"img{i}.pgm", corpus_image(i))
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--corpus", corpus, "--schemes", "IMG-DNA",
                "--rates", "0.001", "--trials", 1, "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("verb", ["encode", "sweep", "isolate"])
def test_every_experiment_field_has_a_flag_that_reaches_the_config(verb):
    default = ExperimentConfig()
    values = {
        f.name: SCHEMES[1] if f.name == "scheme" else getattr(default, f.name) + 2
        for f in fields(ExperimentConfig)
    }
    argv = [verb, "--out", "x"]
    for name, value in values.items():
        assert value != getattr(default, name)
        argv += [f"--{name.replace('_', '-')}", str(value)]
    assert cli._config_from(cli.build_parser().parse_args(argv)) == ExperimentConfig(**values)


def test_one_parser_serves_every_call():
    assert cli.build_parser() is cli.build_parser()


def test_a_parse_carries_no_flag_into_the_next():
    base = ["perturb", "--pool", "p.fa", "--mapping", "m", "--out", "o.fa", "--rate", "0.01"]
    parser = cli.build_parser()
    first = parser.parse_args(base + ["--corrupt-primers", "--copies", "2", "--sub-weight", "3"])
    assert cli._channel_from(first) == ChannelConfig(
        rate=0.01, corrupt_primers=True, copies=2, sub_weight=3.0
    )
    assert cli._channel_from(parser.parse_args(base)) == ChannelConfig(rate=0.01)


def test_a_usage_error_leaves_the_next_call_whole(encoded, tmp_path, capsys):
    argv = ["validate", "--pool", f"{encoded}.pool.fa", "--json"]
    assert run(argv) == 0
    expect = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["encode", "--scheme", "bogus", "--out", tmp_path / "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == expect


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "imgdna", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    for verb in ("encode", "perturb", "decode", "sweep", "isolate", "validate"):
        assert verb in proc.stdout
