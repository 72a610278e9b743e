"""Tests of the benchmark's own gates, tracer and metric names.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def count_text(method, value):
    return json.dumps({"agree": True, "counts": {method: value}, "k": 0, "m": 0})


def test_metric_names_match_benchmark_json():
    bench = benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(workloads.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS
    names = ([m["name"] for m in bench["per_layer"] + bench["end_to_end"]]
             + list(workloads.WORKLOADS))
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]


def test_criteria_match_the_package():
    package = worker.import_package()
    assert tuple(name for _, name, _ in package.validate.CRITERIA) == workloads.CRITERIA


def test_count_gate_rejects_a_corrupted_reference():
    check = workloads.spec("count-transfer", 0)["check"]
    assert workloads.check_output(check, 0, count_text("transfer", workloads.PHI_14_100)) is None
    wrong = dict(check, reference=workloads.PHI_14_100[:-1] + "0")
    assert "reference" in workloads.check_output(
        wrong, 0, count_text("transfer", workloads.PHI_14_100))
    assert workloads.check_output(check, 1, "") == "exit code 1"


def test_sample_gate_rejects_a_corrupted_digest_and_bad_samples():
    check = workloads.spec("sample", workloads.SAMPLE_DEFAULT_SEED)["check"]
    text = json.dumps({"k": 200, "m": 12, "seed": 0, "samples": [[1, 2]] * 200})
    assert "SHA-256" in workloads.check_output(check, 0, text, lambda m, k, ids: True)
    unpinned = dict(check, sha256=None)
    assert workloads.check_output(unpinned, 0, text, lambda m, k, ids: True) is None
    assert "not a perfect" in workloads.check_output(unpinned, 0, text, lambda m, k, ids: False)
    dup = json.dumps({"k": 200, "m": 12, "seed": 0, "samples": [[1, 1]] * 200})
    assert "not a perfect" in workloads.check_output(unpinned, 0, dup, lambda m, k, ids: True)
    assert workloads.spec("sample", 1)["check"]["sha256"] is None


def test_validate_gate():
    check = workloads.spec("validate-full", 0)["check"]
    assert workloads.check_output(check, 0, json.dumps({"passed": True})) is None
    assert workloads.check_output(check, 0, json.dumps({"passed": False})) is not None
    assert workloads.check_output(check, 2, json.dumps({"passed": True})) == "exit code 2"


def test_corrupted_reference_gives_fail_frac_one(monkeypatch):
    monkeypatch.setattr(workloads, "PHI_12_20", "1" + workloads.PHI_12_20)
    report, result = run.run("count-paths", 0, 0.0, trace=False)
    assert report["fail_frac"] == 1.0
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert all(c["threads"] == 1 for c in report["commands"])


def test_span_self_times_sum_to_parent():
    package = worker.import_package()
    original = package.transfer.count_matchings_transfer
    tracer = worker.Tracer()
    tracer.install(package)
    try:
        for argv in (["count", "--m", "5", "--k", "2", "--method", "all"],
                     ["sample", "--m", "4", "--k", "3", "--samples", "5", "--format", "text"]):
            tracer.run("cli.main", package.cli.main, argv)
    finally:
        tracer.uninstall()
    assert package.transfer.count_matchings_transfer is original
    assert package.validate.build_graph is package.graph.build_graph
    names = {span[0] for span in tracer.spans}
    assert {"transfer.count_matchings_transfer", "transfer.boundary_vector", "graph.build_graph",
            "graph.count_matchings_brute", "paths.total_via_paths",
            "paths.admissible_boundaries", "transfer.UniformSampler.__init__",
            "transfer.UniformSampler.draw"} <= names
    assert tracer.check_nesting() <= worker.SELF_TIME_TOLERANCE_S
    roots = [i for i, span in enumerate(tracer.spans) if span[3] is None]
    assert len(roots) == 2
    root_total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    assert sum(tracer.self_times()) == pytest.approx(root_total, abs=worker.SELF_TIME_TOLERANCE_S)
    metrics = worker.layer_metrics(tracer, None, True, 0, workloads.CRITERIA)
    assert list(metrics) == [name for name, _ in workloads.PER_LAYER]
    phi = package.transfer.closed_form_345
    assert metrics["transfer.result_bits"] == max(phi(5, 2), phi(4, 3)).bit_length()
    assert metrics["transfer.draw_calls"] == 5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count-paths",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
