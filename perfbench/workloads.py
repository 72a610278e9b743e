"""Workload definitions, pinned references and output gates of the benchmark.

A workload is one real `barreldimer` CLI command.  Its spec is plain JSON
so that `run.py` can hand it to a fresh worker interpreter, and so that a
test can hand over a deliberately wrong reference and watch the gate fail.
"""

from __future__ import annotations

import hashlib
import json

# Phi(14, 100) by the transfer operator; confirmed equal to
# paths.total_via_paths(14, 100) by confirm_refs.py.
PHI_14_100 = (
    "14902866047618379335838678885897748755322054354623074982919541288036614115899"
    "25930365782510491586908406388381264278092637644103733848248981560305579873155"
    "4443578650205911191518017498919829208221166369"
)
# Phi(12, 20) by the walker-path DP; confirmed equal to
# transfer.count_matchings_transfer(12, 20) by confirm_refs.py.
PHI_12_20 = "3711602087924048824604833260064630126"

# The CLI's default sample seed; its output bytes are pinned because the
# README promises byte-deterministic sampling.
SAMPLE_DEFAULT_SEED = 0
SAMPLE_M, SAMPLE_K, SAMPLE_N = 12, 200, 200
SAMPLE_SHA256_SEED0 = "9e7df121c8a34a385cbf66757b104262b96475024509af2b12bd115972fc4d08"

WORKLOADS = ("count-transfer", "count-paths", "sample", "validate-full")

CRITERIA = (
    "golden-closed-forms", "brute-vs-transfer", "paths-vs-transfer",
    "bethe-residuals", "roots-identity", "growth-constants", "empirical-growth",
    "sector-concentration", "leading-eigenterm", "aggregate-coefficients",
    "dp-estimate-cauchy", "entropy-limit", "sampler-uniformity",
)

# Per-layer metrics of a traced command, (name, unit), all "better": "lower".
# perfbench/README.md maps each to the end-to-end metric it should move.
PER_LAYER = (
    [("transfer.rows_s", "s"), ("transfer.rows_full_s", "s"), ("transfer.states", "count"),
     ("transfer.nnz", "count"), ("transfer.boundary_s", "s"), ("transfer.count_s", "s"),
     ("transfer.count_calls", "count"), ("transfer.result_bits", "bits"),
     ("transfer.sampler_init_s", "s"), ("transfer.draws_s", "s"),
     ("transfer.draw_calls", "count"), ("transfer.draw_p50_ms", "ms"),
     ("transfer.draw_p95_ms", "ms"), ("graph.build_s", "s"), ("graph.brute_s", "s"),
     ("paths.boundaries_s", "s"), ("paths.total_s", "s"), ("bethe.verify_sector_s", "s"),
     ("bethe.verify_sector_calls", "count")]
    + [(f"validate.{name}_s", "s") for name in CRITERIA]
    + [("cli.self_s", "s"), ("cli.out_bytes", "bytes")]
)


def spec(workload: str, seed: int) -> dict:
    """The command, the traced warm-up and the output gate of one workload.

    `warmup` names the row table the command itself reads: the traced run
    builds it cold before `cli.main`, so the span on the counting routine
    sees warm rows.  It is the only warm-up the traced run does.
    """
    if workload == "count-transfer":
        return {"argv": ["count", "--m", "14", "--k", "100", "--method", "transfer",
                         "--format", "json"],
                "warmup": {"m": 14, "parity_only": True},
                "check": {"kind": "count", "method": "transfer", "reference": PHI_14_100}}
    if workload == "count-paths":
        return {"argv": ["count", "--m", "12", "--k", "20", "--method", "paths",
                         "--format", "json"],
                "warmup": {"m": 12, "parity_only": False},
                "check": {"kind": "count", "method": "paths", "reference": PHI_12_20}}
    if workload == "sample":
        digest = SAMPLE_SHA256_SEED0 if seed == SAMPLE_DEFAULT_SEED else None
        return {"argv": ["sample", "--m", str(SAMPLE_M), "--k", str(SAMPLE_K),
                         "--samples", str(SAMPLE_N), "--seed", str(seed), "--format", "json"],
                "warmup": {"m": SAMPLE_M, "parity_only": True},
                "check": {"kind": "sample", "m": SAMPLE_M, "k": SAMPLE_K, "seed": seed,
                          "samples": SAMPLE_N, "sha256": digest}}
    if workload == "validate-full":
        return {"argv": ["validate", "--level", "full", "--format", "json"],
                "warmup": None,
                "check": {"kind": "validate"}}
    raise ValueError(f"unknown workload {workload!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(check: dict, rc: int, text: str, is_perfect=None) -> str | None:
    """None when the command's output passes its gate, else the reason.

    `is_perfect(m, k, ids)` tests one sampled matching; the worker passes
    the package's `graph.is_perfect` on a graph it builds after timing.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    kind = check["kind"]
    if kind == "count":
        got = obj.get("counts", {}).get(check["method"])
        if got != check["reference"]:
            return f"count {got!r} != reference {check['reference']!r}"
        if obj.get("agree") is not True:
            return "agree is not true"
        return None
    if kind == "validate":
        return None if obj.get("passed") is True else "validate reports passed != true"
    if kind == "sample":
        if check["sha256"] is not None and sha256(text) != check["sha256"]:
            return f"output SHA-256 {sha256(text)} != pinned {check['sha256']}"
        head = (obj.get("m"), obj.get("k"), obj.get("seed"))
        if head != (check["m"], check["k"], check["seed"]):
            return f"(m, k, seed) = {head} != {(check['m'], check['k'], check['seed'])}"
        samples = obj.get("samples", [])
        if len(samples) != check["samples"]:
            return f"{len(samples)} samples != {check['samples']}"
        for i, ids in enumerate(samples):
            if len(set(ids)) != len(ids) or not is_perfect(check["m"], check["k"], ids):
                return f"sample {i} is not a perfect matching of F({check['m']},{check['k']})"
        return None
    raise ValueError(f"unknown check kind {kind!r}")
