"""End-to-end CLI tests: output schemas, exit codes, determinism, rendering.

Exit-code contract: 0 success, 1 usage or invalid input, 2 validation failure
(cross-method disagreement or a failed self-check criterion).
"""

from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest

from barreldimer import bethe, cli, graph, render, transfer, validate

SVG_NS = "{http://www.w3.org/2000/svg}"

# The output schema of each JSON-emitting subcommand.  The CLI writes its
# JSON without checking it; test_json_output_matches_its_schema checks the
# real output of every such subcommand against these.

_COUNT_SCHEMA = {
    "type": "object",
    "required": ["m", "k", "counts", "agree"],
    "properties": {
        "m": {"type": "integer"},
        "k": {"type": "integer"},
        "counts": {"type": "object",
                   "additionalProperties": {"type": "string", "pattern": "^[0-9]+$"}},
        "agree": {"type": "boolean"},
    },
}

_GROWTH_SCHEMA = {
    "type": "object",
    "required": ["m", "rho", "p0", "n0", "entropy", "entropy_gap_to_limit"],
    "properties": {
        "m": {"type": "integer"},
        "rho": {"type": "number"},
        "p0": {"type": "integer"},
        "n0": {"type": "integer"},
        "entropy": {"type": "number"},
        "entropy_gap_to_limit": {"type": "number"},
    },
}

_SPECTRUM_SCHEMA = {
    "type": "object",
    "required": ["m", "p", "b", "c", "dimension", "rank", "entries"],
    "properties": {
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["selection", "roots", "eigenvalue", "residual"],
                "properties": {
                    "selection": {"type": "array", "items": {"type": "integer"}},
                    "roots": {"type": "array",
                              "items": {"type": "array", "items": {"type": "number"},
                                        "minItems": 2, "maxItems": 2}},
                    "eigenvalue": {"type": "array", "items": {"type": "number"},
                                   "minItems": 2, "maxItems": 2},
                    "residual": {"type": "number"},
                    "omega_overlap": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
    },
}

_ASYMPTOTIC_SCHEMA = {
    "type": "object",
    "required": ["m", "k", "n", "estimate"],
    "properties": {
        "m": {"type": "integer"},
        "k": {"type": "integer"},
        "n": {"type": "integer"},
        "estimate": {"type": "number"},
        "base": {"type": "number"},
        "coefficient_on_base_pow_k": {"type": "number"},
        "coefficient_on_base_pow_k1": {"type": "number"},
        "exact_sector": {"type": "string", "pattern": "^[0-9]+$"},
        "estimate_over_exact": {"type": "number"},
    },
}

_VALIDATE_SCHEMA = {
    "type": "object",
    "required": ["level", "passed", "criteria"],
    "properties": {
        "criteria": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "name", "passed", "detail", "seconds"],
            },
        },
    },
}

# The ids inside each sample are type-checked in cmd_sample, in one pass.
_SAMPLE_SCHEMA = {
    "type": "object",
    "required": ["m", "k", "seed", "samples"],
    "properties": {
        "samples": {"type": "array", "items": {"type": "array"}},
    },
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "barreldimer.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ),
        timeout=300,
    )


# ---------------------------------------------------------------------------
# output schemas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv,schema", [
    (["count", "--m", "4", "--k", "1", "--method", "all"], _COUNT_SCHEMA),
    (["growth", "--m", "7"], _GROWTH_SCHEMA),
    (["spectrum", "--m", "5", "--p", "3", "--b", "2", "--c", "0.5"], _SPECTRUM_SCHEMA),
    (["asymptotic", "--m", "3", "--k", "4", "--aggregate"], _ASYMPTOTIC_SCHEMA),
    (["asymptotic", "--m", "4", "--k", "3", "--eta", "1,0", "--lambda", "1,0"],
     _ASYMPTOTIC_SCHEMA),
    (["validate", "--level", "fast"], _VALIDATE_SCHEMA),
    (["sample", "--m", "4", "--k", "2", "--samples", "5", "--seed", "33"], _SAMPLE_SCHEMA),
], ids=["count", "growth", "spectrum", "asymptotic-aggregate", "asymptotic-single",
        "validate", "sample"])
def test_json_output_matches_its_schema(tmp_path, argv, schema):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), schema)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_all_methods_agree(tmp_path):
    out = tmp_path / "count.json"
    rc = cli.main(["count", "--m", "4", "--k", "1", "--method", "all", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["agree"] is True
    assert doc["counts"] == {"brute": "41", "paths": "41", "transfer": "41"}


def test_count_transfer_large_k(tmp_path):
    out = tmp_path / "count.json"
    rc = cli.main(["count", "--m", "3", "--k", "40", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["counts"]["transfer"] == str(3 ** 42 + 1)


def test_count_counts_are_decimal_strings(tmp_path):
    out = tmp_path / "count.json"
    assert cli.main(["count", "--m", "5", "--k", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    val = doc["counts"]["transfer"]
    assert isinstance(val, str) and val.isdigit()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_count_prints_more_digits_than_the_int_str_limit(capsys, fmt):
    """Phi(14, 400) has 788 decimal digits, above a digit limit of 640."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc = cli.main(["count", "--m", "14", "--k", "400", "--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    want = str(transfer.count_matchings_transfer(14, 400))
    assert rc == 0 and len(want) == 788
    if fmt == "json":
        assert json.loads(out)["counts"] == {"transfer": want}
    else:
        assert out == f"transfer: {want}\nagree: True\n"


def test_failed_stdout_write_exits_one_without_a_traceback(monkeypatch, capsys):
    class FullDevice(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert cli.main(["count", "--m", "3", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv, module, work", [
    (["count", "--m", "3", "--k", "1"], transfer, "count_matchings_transfer"),
    (["sample", "--m", "3", "--k", "1", "--samples", "2"], transfer, "UniformSampler"),
    (["validate"], validate, "run_criteria"),
], ids=["count", "sample", "validate"])
def test_out_in_a_missing_directory_exits_one(monkeypatch, capsys, tmp_path, argv, module, work):
    """An --out in a missing directory, or naming one, exits 1 before any work."""
    def unreachable(*args):
        raise AssertionError(f"{work} ran despite an unusable --out")

    monkeypatch.setattr(module, work, unreachable)
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        assert cli.main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert f"cannot write {out}: " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_count_invalid_m_exits_one():
    proc = run_cli("count", "--m", "2", "--k", "0")
    assert proc.returncode == 1


def test_unknown_subcommand_exits_one():
    """Refused by the parser's error path, like a negative --samples or --index."""
    for argv, message in [
        (["frobnicate"], "invalid choice"),
        (["sample", "--m", "3", "--k", "0", "--samples", "-1"], "--samples must be >= 0"),
        (["render", "--m", "3", "--k", "0", "--what", "tiling", "--index", "-1"],
         "--index must be >= 0"),
    ]:
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert "error: " in proc.stderr and message in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stdout == "", argv


def test_count_disagreement_exits_two(monkeypatch):
    real = transfer.count_matchings_transfer

    def skewed(m, k, **kw):
        return real(m, k, **kw) + 1

    monkeypatch.setattr(transfer, "count_matchings_transfer", skewed)
    monkeypatch.setattr(cli.transfer, "count_matchings_transfer", skewed)
    rc = cli.main(["count", "--m", "3", "--k", "1", "--method", "all", "--format", "text"])
    assert rc == 2


# ---------------------------------------------------------------------------
# growth / spectrum / asymptotic
# ---------------------------------------------------------------------------


def test_growth_json_fields(tmp_path):
    out = tmp_path / "growth.json"
    assert cli.main(["growth", "--m", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rho"] == pytest.approx(3.414213562373095, rel=1e-12)
    assert doc["p0"] == 2 and doc["n0"] == 2
    assert doc["entropy"] == pytest.approx(doc["entropy_gap_to_limit"] + 0.1615329736, abs=1e-8)


@pytest.mark.parametrize("m,rc", [(2197, 0), (2198, 1), (2432, 1)])
def test_growth_past_the_float_range_exits_one(capsys, m, rc):
    """rho(2197) is the last one below the float maximum; from 2198 both routes
    overflow, and from 2432 the sector denominator underflows to zero."""
    assert cli.main(["growth", "--m", str(m)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.err.startswith("error: ") and "float range" in captured.err
        assert captured.out == ""
    else:
        assert json.loads(captured.out)["rho"] == pytest.approx(1.7853392879605359e308)


def test_spectrum_json_shape(tmp_path):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--m", "4", "--p", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 6 and doc["rank"] == 6
    assert doc["max_residual"] <= 1e-9
    assert len(doc["entries"]) == 6
    entry = doc["entries"][0]
    assert set(entry) == {"eigenvalue", "omega_overlap", "residual", "roots", "selection"}
    assert all(len(z) == 2 for z in entry["roots"])
    top = max(doc["entries"], key=lambda e: e["eigenvalue"][0])
    assert top["eigenvalue"][0] == pytest.approx(3.414213562373095, rel=1e-9)


@pytest.mark.parametrize("m,p,digest", [
    (5, 3, "8dbba0b3d992aceb8953849ae2536f8fad83000027f721fe046a997511c290b1"),
    (6, 2, "4d7906efd054174c578130887875f1f259eb6063e29f5d54f8e241485cd687d8"),
])
def test_spectrum_bytes_are_pinned(tmp_path, m, p, digest):
    """JSON at the default weights; the omega overlaps move in their last bits
    if the amplitude rows are read with a stride."""
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--m", str(m), "--p", str(p), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_asymptotic_aggregate_m3(tmp_path):
    out = tmp_path / "agg.json"
    assert cli.main(["asymptotic", "--m", "3", "--k", "4", "--aggregate", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["coefficient_on_base_pow_k"] == pytest.approx(9.0, rel=1e-12)
    assert doc["exact_sector"] == "729"
    assert doc["estimate_over_exact"] == pytest.approx(1.0, rel=1e-9)


def test_asymptotic_single_estimate(tmp_path):
    out = tmp_path / "single.json"
    rc = cli.main(
        ["asymptotic", "--m", "4", "--k", "3", "--eta", "1,0", "--lambda", "1,0", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"] == pytest.approx(8.492640687119282, rel=1e-12)
    assert doc["n"] == 2


@pytest.mark.parametrize("m,k", [(4, 5000), (20, 300)])
def test_asymptotic_aggregate_overflow_exits_one(m, k):
    proc = run_cli("asymptotic", "--m", str(m), "--k", str(k), "--aggregate")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_asymptotic_aggregate_above_boundary_cap_exits_one():
    proc = run_cli("asymptotic", "--m", "30", "--k", "1", "--aggregate")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "boundary scan cap" in proc.stderr
    assert proc.stdout == ""


def test_asymptotic_bad_ordering_exits_one():
    proc = run_cli("asymptotic", "--m", "4", "--k", "3", "--eta", "0,1", "--lambda", "1,0")
    assert proc.returncode == 1
    assert "eta [0.0, 1.0] not strictly decreasing" in proc.stderr


def test_asymptotic_reads_the_shift_class_off_lambda():
    """There is no --s: a rotated --lambda gives the same estimate, and --s is refused."""
    base = ["asymptotic", "--m", "4", "--k", "3", "--eta", "1,0"]
    rotated = run_cli(*base, "--lambda", "0,1")
    assert rotated.returncode == 0, rotated.stderr
    assert rotated.stdout == run_cli(*base, "--lambda", "1,0").stdout
    proc = run_cli(*base, "--lambda", "1,0", "--s", "0")
    assert proc.returncode == 1
    assert "unrecognized arguments: --s 0" in proc.stderr


@pytest.mark.parametrize("eta", ["inf", "nan", "1e308", "x"])
def test_asymptotic_bad_coordinate_exits_one(eta):
    proc = run_cli("asymptotic", "--m", "4", "--k", "3", "--eta", eta, "--lambda", "1")
    assert proc.returncode == 1
    assert "error: " in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("weight", [["--b", "nan"], ["--b", "inf"], ["--c=-inf"]])
def test_spectrum_non_finite_weight_exits_one(weight):
    proc = run_cli("spectrum", "--m", "4", "--p", "2", *weight)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("weight", ["--b", "--c"])
def test_spectrum_overflowing_weight_exits_one(weight):
    proc = run_cli("spectrum", "--m", "4", "--p", "2", weight, "1e200")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_spectrum_rank_deficiency_exits_one(monkeypatch, capsys):
    real = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a, *args: real(a, *args) - 1)
    bethe._block_structure.cache_clear()
    assert cli.main(["spectrum", "--m", "4", "--p", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "rank 5 < 6" in captured.err
    assert captured.out == ""


def test_bare_value_error_escapes_main(monkeypatch):
    """Only BarrelErrors map to exit 1; any other ValueError is a bug and propagates."""
    def broken(args):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "cmd_growth", broken)
    with pytest.raises(ValueError, match="bug"):
        cli.main(["growth", "--m", "4"])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_fast_passes(tmp_path):
    out = tmp_path / "validate.json"
    rc = cli.main(["validate", "--level", "fast", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["level"] == "fast"
    assert len(doc["criteria"]) == 13
    assert all(c["passed"] for c in doc["criteria"])
    assert [c["index"] for c in doc["criteria"]] == list(range(1, 14))


def test_validate_detects_corrupted_transfer_row(monkeypatch, tmp_path):
    """Corrupting a single cached transfer row must flip validate to exit 2."""
    real = transfer._count_row

    def corrupted(m, s_mask):
        row = real(m, s_mask)
        if (m, s_mask) != (3, 0b001):
            return row
        (t0, cnt0), *more = row
        return ((t0, cnt0 + 1), *more)

    monkeypatch.setattr(transfer, "_count_row", corrupted)
    out = tmp_path / "validate.json"
    transfer._sampler.cache_clear()
    try:
        rc = cli.main(["validate", "--level", "fast", "--format", "json", "--out", str(out)])
    finally:
        # drop any sampler tables built from the corrupted rows
        transfer._sampler.cache_clear()
    assert rc == 2
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    failed = {c["name"] for c in doc["criteria"] if not c["passed"]}
    assert {"golden-closed-forms", "brute-vs-transfer", "paths-vs-transfer"} <= failed


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_text_is_sorted_edge_ids(tmp_path):
    out = tmp_path / "s.txt"
    assert cli.main(["sample", "--m", "3", "--k", "0", "--samples", "2", "--seed", "1", "--format", "text", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        ids = [int(x) for x in line.split()]
        assert ids == sorted(ids)
        assert len(ids) == 6


def test_sample_csv_frequency_table(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["sample", "--m", "3", "--k", "0", "--samples", "50", "--seed", "9", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "matching_edges,count"
    total = sum(int(ln.rsplit(",", 1)[1]) for ln in lines[1:])
    assert total == 50


def test_sample_bytes_are_pinned(tmp_path):
    """The sampler's RNG stream and output bytes, pinned to a fixed digest."""
    out = tmp_path / "s.json"
    rc = cli.main(["sample", "--m", "8", "--k", "30", "--samples", "50", "--seed", "3",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a871967d76e0e9bd35b2b6eab2f08d6660fc2e3def2beb52785cd9cdf2413ba8"


def test_sample_mid_size_bytes_are_pinned(tmp_path):
    """A mid-size run at m = 12, pinned to the digest of the list-and-sum draw."""
    out = tmp_path / "s.json"
    rc = cli.main(["sample", "--m", "12", "--k", "40", "--samples", "20", "--seed", "1",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "710694767a255c8801be8ab26bd72eb2d6264b3f8fce9ffa0d6b045ea09ed5d0"


@pytest.mark.parametrize("bad", [True, 1.5, "3", None])
def test_sample_rejects_non_int_ids(monkeypatch, capsys, tmp_path, bad):
    """Every id must be exactly an int; a bad one exits 1 before anything is written."""
    monkeypatch.setattr(graph.Matching, "sorted_ids", lambda self: (0, bad, 7))
    argv = ["sample", "--m", "3", "--k", "1", "--samples", "3", "--format", "json"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    out = tmp_path / "s.json"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("bad", [True, 1.5, "3", None])
def test_sample_rejects_a_non_int_id_in_the_last_draw_only(monkeypatch, capsys, tmp_path, bad):
    """The draws before it were encoded already; still nothing is written."""
    real = graph.Matching.sorted_ids
    calls = []

    def last_is_bad(self):
        calls.append(None)
        return (0, bad, 7) if len(calls) % 3 == 0 else real(self)

    monkeypatch.setattr(graph.Matching, "sorted_ids", last_is_bad)
    for fmt in ("json", "text", "csv"):
        argv = ["sample", "--m", "3", "--k", "1", "--samples", "3", "--format", fmt]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        out = tmp_path / f"s.{fmt}"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
    assert len(calls) == 6 * 3


def _reference_sample_output(m, k, samples, seed, fmt):
    """sample's bytes as the whole-document writers made them: every draw kept
    in a list, then one json.dumps of the document, one join of the text lines,
    or the csv frequency table."""
    sampler = transfer.UniformSampler(m, k)
    rng = random.Random(seed)
    draws = [sampler.draw(rng).sorted_ids() for _ in range(samples)]
    if fmt == "json":
        obj = {"m": m, "k": k, "seed": seed, "samples": draws}
        return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"
    if fmt == "text":
        return "".join(" ".join(map(str, ids)) + "\n" for ids in draws)
    freqs = {}
    for ids in draws:
        freqs[ids] = freqs.get(ids, 0) + 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["matching_edges", "count"])
    for ids, cnt in sorted(freqs.items()):
        writer.writerow([";".join(map(str, ids)), cnt])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("samples", [0, 1, 20])
@pytest.mark.parametrize("m", [3, 4, 8, 12])  # an even m draws cap coins
def test_sample_bytes_match_the_whole_document_writers(capsys, tmp_path, m, samples, fmt):
    want = _reference_sample_output(m, 3, samples, 5, fmt)
    argv = ["sample", "--m", str(m), "--k", "3", "--samples", str(samples), "--seed", "5",
            "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "s.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("fmt,digest", [
    ("text", "73be0c59e029ab68689360fd424c34697f8b00a5d81afe0b3669cf8044de903d"),
    ("csv", "26ae48c8e9cc4bb83d947401752304c520fc5b71994bdcf45ade5e0413466c30"),
])
def test_sample_mid_size_text_and_csv_bytes_are_pinned(tmp_path, fmt, digest):
    """The run of test_sample_mid_size_bytes_are_pinned in the other two formats."""
    out = tmp_path / f"s.{fmt}"
    rc = cli.main(["sample", "--m", "12", "--k", "40", "--samples", "20", "--seed", "1",
                   "--format", fmt, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt,limit_mb", [("json", 10), ("text", 9)])
def test_sample_holds_its_encoded_output_not_its_draws(fmt, limit_mb):
    """200 draws of F(12, 200) print 2.8 MB of JSON.  Kept as id tuples, then
    encoded as one document, they peaked at 14.4 MB (text about 13 MB);
    encoded as drawn, at 7.4 MB (text 7.0 MB)."""
    argv = ["sample", "--m", "12", "--k", "200", "--samples", "200", "--format", fmt]
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buf.getvalue().count("\n") == (1 if fmt == "json" else 200)
    assert peak < limit_mb * 1_000_000


def test_sample_refuses_more_ids_than_the_cap(monkeypatch, capsys):
    """samples x m(k+2) over SAMPLE_IDS_CAP exits 1 before the sampler is built."""
    def unreachable(*args):
        raise AssertionError("sampler built despite the cap")

    monkeypatch.setattr(transfer, "UniformSampler", unreachable)
    samples = cli.SAMPLE_IDS_CAP // (12 * 202) + 1
    argv = ["sample", "--m", "12", "--k", "200", "--samples", str(samples)]
    assert cli.main(argv) == 1
    assert "edge ids" in capsys.readouterr().err


def test_sample_at_the_benchmark_size_is_under_the_cap():
    assert 200 * 12 * 202 <= cli.SAMPLE_IDS_CAP


@pytest.mark.parametrize("command", [
    ["sample", "--samples", "1"],
    ["render", "--what", "tiling", "--seed", "0"],
])
def test_sampler_memory_cap_exits_one(command):
    """k = 10^5 at m = 16 would keep terabytes of suffix weights; refused at once.

    A seeded render meets the vertex cap, which is far tighter, before the sampler's.
    """
    proc = run_cli(*command, "--m", "16", "--k", "100000")
    message = "MiB" if command[0] == "sample" else "3200064 vertices exceeds render cap"
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("method", ["brute", "all"])
def test_count_brute_cap_exits_one_before_the_graph_is_built(monkeypatch, capsys, method):
    def unreachable(*args):
        raise AssertionError("graph built despite the brute-force cap")

    monkeypatch.setattr(cli, "build_graph", unreachable)
    assert cli.main(["count", "--m", "3", "--k", "20", "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert "132 vertices exceeds brute-force cap 72" in captured.err


@pytest.mark.parametrize("method", ["transfer", "paths"])
def test_count_k_cap_exits_one(method):
    proc = run_cli("count", "--m", "3", "--k", "100000000", "--method", method)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "exceeds" in proc.stderr


def test_json_output_is_not_copied_to_append_its_newline(monkeypatch, capsys):
    """sample's JSON runs to megabytes; text + "\n" would hold it twice at the peak."""
    real = cli.json.dumps

    class Whole(str):
        def __add__(self, other):
            raise AssertionError("JSON output copied to append its newline")

    monkeypatch.setattr(cli.json, "dumps", lambda *args, **kw: Whole(real(*args, **kw)))
    assert cli.main(["sample", "--m", "3", "--k", "1", "--samples", "2", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) == 2


def test_sample_schema_keeps_its_envelope():
    good = {"m": 3, "k": 1, "seed": 0, "samples": [[0, 1], []]}
    jsonschema.validate(good, _SAMPLE_SCHEMA)
    missing = {key: v for key, v in good.items() if key != "samples"}
    for bad in (missing, {**good, "samples": [[0, 1], 5]}, {**good, "samples": 5}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, _SAMPLE_SCHEMA)


def test_sample_byte_determinism():
    a = run_cli("sample", "--m", "4", "--k", "2", "--samples", "5", "--seed", "33", "--format", "json")
    b = run_cli("sample", "--m", "4", "--k", "2", "--samples", "5", "--seed", "33", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert len(doc["samples"]) == 5


def test_sample_builds_no_graph(monkeypatch, capsys):
    """The sampler reads graph.edge_block; the output bytes stay the same without build_graph."""
    argv = ["sample", "--m", "12", "--k", "10", "--samples", "3", "--format", "json"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out

    def unavailable(params):
        raise AssertionError("sample built the graph")

    monkeypatch.setattr(graph, "build_graph", unavailable)
    monkeypatch.setattr(cli, "build_graph", unavailable)
    monkeypatch.setattr(transfer, "build_graph", unavailable, raising=False)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def svg_counts(text: str) -> dict[str, int]:
    root = ET.fromstring(text)
    return {
        tag: len(root.findall(f".//{SVG_NS}{tag}"))
        for tag in ("circle", "line", "polygon", "polyline")
    }


def test_render_graph_f30(tmp_path):
    out = tmp_path / "g.svg"
    assert cli.main(["render", "--m", "3", "--k", "0", "--what", "graph", "--out", str(out)]) == 0
    counts = svg_counts(out.read_text())
    assert counts["circle"] == 12
    assert counts["line"] == 21  # 18 edges, 3 of them wrapping into two stubs
    assert counts["polygon"] == 0


def test_render_tiling_rhombus_count(tmp_path):
    out = tmp_path / "t.svg"
    assert cli.main(["render", "--m", "6", "--k", "5", "--what", "tiling", "--seed", "42", "--out", str(out)]) == 0
    counts = svg_counts(out.read_text())
    assert counts["polygon"] == 42  # one rhombus per matched edge: 84 vertices / 2


def test_render_paths_walker_polylines(tmp_path):
    out = tmp_path / "p.svg"
    assert cli.main(["render", "--m", "3", "--k", "0", "--what", "paths", "--index", "2", "--out", str(out)]) == 0
    counts = svg_counts(out.read_text())
    assert counts["polyline"] >= 2  # 2 walkers; wrapping may split a trajectory


def test_render_index_is_bounded_by_the_matching_count(capsys):
    """F(3, 0) has 10 matchings: --index 9 draws the last one, --index 10 is out of range."""
    g = graph.build_graph(graph.BarrelParams(3, 0))
    matchings = list(graph.enumerate_matchings(g))
    assert len(matchings) == 10
    assert cli.main(["render", "--m", "3", "--k", "0", "--what", "tiling", "--index", "9"]) == 0
    assert capsys.readouterr().out == render.render_view(g, "tiling", matchings[9])
    assert cli.main(["render", "--m", "3", "--k", "0", "--what", "tiling", "--index", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: matching index 10 out of range\n"
    assert captured.out == ""


@pytest.mark.parametrize("view", [
    ["--what", "graph"], ["--what", "graph", "--seed", "0"], ["--what", "tiling"],
    ["--what", "paths", "--index", "3"], ["--what", "tiling", "--seed", "0"],
])
def test_render_vertex_cap_exits_one_before_the_graph_is_built(monkeypatch, capsys, view):
    """Seeded or not, the cap is met before the sampler or the graph is built."""
    def unreachable(*args):
        raise AssertionError("graph built or sampled despite the render cap")

    monkeypatch.setattr(cli, "build_graph", unreachable)
    monkeypatch.setattr(transfer, "sample_uniform", unreachable)
    assert cli.main(["render", "--m", "3", "--k", "249", *view]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert f"1506 vertices exceeds render cap {cli.RENDER_VERTEX_CAP}" in captured.err


def test_seeded_render_at_the_vertex_cap(tmp_path):
    """A seeded view at the cap is sampled and drawn, one rhombus per matched edge."""
    m = 3
    k = cli.RENDER_VERTEX_CAP // (2 * m) - 2
    assert graph.BarrelParams(m, k).n_vertices == cli.RENDER_VERTEX_CAP
    out = tmp_path / "t.svg"
    assert cli.main(["render", "--m", str(m), "--k", str(k), "--what", "tiling", "--seed", "0",
                     "--out", str(out)]) == 0
    assert svg_counts(out.read_text())["polygon"] == cli.RENDER_VERTEX_CAP // 2


def test_render_enumerates_at_the_vertex_cap(tmp_path):
    """A view at the cap is drawn from the first enumerated matching."""
    m = 3
    k = cli.RENDER_VERTEX_CAP // (2 * m) - 2
    assert graph.BarrelParams(m, k).n_vertices == cli.RENDER_VERTEX_CAP
    out = tmp_path / "p.svg"
    assert cli.main(["render", "--m", str(m), "--k", str(k), "--what", "paths", "--out", str(out)]) == 0
    assert svg_counts(out.read_text())["polyline"] >= 2


@pytest.mark.parametrize("view,digest", [
    (["graph"], "14304e9b0ba59fb36418c05075e2c721bbd01f1aa8bfa80fe8cc11a81e23b221"),
    (["tiling", "--seed", "3"], "4e2c0e1672352001f6ed7c0469ce3e20c92a41519a87212d3ad810480fafd357"),
    (["paths", "--index", "1"], "e7ba371366368ff5a3d55d93632e7b877146f797cb8ae11361eb2d6d520e1ee2"),
])
def test_render_bytes_are_pinned(tmp_path, view, digest):
    """The vertex grid and the wrap rule of F(4, 2), drawn three ways."""
    out = tmp_path / "r.svg"
    assert cli.main(["render", "--m", "4", "--k", "2", "--what", *view, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_render_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out1, out2):
        assert cli.main(["render", "--m", "4", "--k", "1", "--what", "tiling", "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
