"""End-to-end CLI tests: output schemas, exit codes, determinism, rendering.

Exit-code contract: 0 success, 1 usage or invalid input, 2 validation failure
(cross-method disagreement or a failed self-check criterion).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import jsonschema
import pytest

from barreldimer import cli, graph, transfer

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "barreldimer.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ),
        timeout=300,
    )


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


def test_count_invalid_m_exits_one():
    proc = run_cli("count", "--m", "2", "--k", "0")
    assert proc.returncode == 1


def test_unknown_subcommand_exits_one():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


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
        ["asymptotic", "--m", "4", "--k", "3", "--eta", "1,0", "--lambda", "1,0", "--s", "0", "--out", str(out)]
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
    proc = run_cli("asymptotic", "--m", "4", "--k", "3", "--eta", "0,1", "--lambda", "1,0", "--s", "0")
    assert proc.returncode == 1


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


def test_sample_schema_keeps_its_envelope():
    good = {"m": 3, "k": 1, "seed": 0, "samples": [[0, 1], []]}
    jsonschema.validate(good, cli._SAMPLE_SCHEMA)
    missing = {key: v for key, v in good.items() if key != "samples"}
    for bad in (missing, {**good, "samples": [[0, 1], 5]}, {**good, "samples": 5}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, cli._SAMPLE_SCHEMA)


def test_sample_byte_determinism():
    a = run_cli("sample", "--m", "4", "--k", "2", "--samples", "5", "--seed", "33", "--format", "json")
    b = run_cli("sample", "--m", "4", "--k", "2", "--samples", "5", "--seed", "33", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert len(doc["samples"]) == 5


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


def test_render_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out1, out2):
        assert cli.main(["render", "--m", "4", "--k", "1", "--what", "tiling", "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
