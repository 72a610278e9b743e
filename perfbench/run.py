"""Benchmark of the barreldimer CLI at the size caps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command runs as `cli.main(argv)`
in a fresh interpreter (perfbench/worker.py), one at a time, so caches
start cold as in a user's invocation.  Commands repeat while the slowest
so far would still end within --seconds.  With --trace 0 the last line of stdout carries the
end-to-end metrics (medians over the run's commands); with --trace 1,
untraced and traced commands alternate and it carries the per-layer
metrics of the traced ones.  The line before it is a report with the
environment stamp, every command's figures, fail_frac, span summaries
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# Import-only interpreters per untraced run, on top of one import per command.
SETUP_PROBES = 2
# A run must exit within 180 s; no command starts or runs past this.
RUN_LIMIT_S = 170.0
# One process, no threads: numerical libraries get a single thread, and
# string hashing is fixed so dict layouts repeat between commands.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def run_worker(spec: dict, deadline: float) -> dict:
    """Run one worker interpreter; a crash or timeout becomes a failed record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"failure": "run time limit reached before the command started"}
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT,
                              env=dict(os.environ, **WORKER_ENV), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failure": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failure": f"worker exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"commit": git_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu_model": cpu_model()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(report, result) of one benchmark run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = workloads.spec(workload, seed)
    env = environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]

    probes = [] if trace else [run_worker({"import_only": True}, deadline)
                               for _ in range(SETUP_PROBES)]
    # Start another command only while the slowest one so far would still
    # end within --seconds, so a run's length does not depend on how far
    # the last command overshoots.  A traced run needs one command of each kind.
    commands = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(commands) % 2 == 1
        t0 = time.monotonic()
        commands.append(run_worker(dict(spec, trace=traced), deadline))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + longest > seconds and (not trace or len(commands) >= 2):
            break
        if time.monotonic() >= deadline:
            break

    if spec["check"]["kind"] == "sample":
        digests = [c.get("sha256") for c in commands]
        for c in commands:
            if c.get("failure") is None and c.get("sha256") != digests[0]:
                c["failure"] = "output bytes differ between identical commands"
    env["loadavg_1m_end"] = os.getloadavg()[0]

    failed = sum(c.get("failure") is not None for c in commands)
    measured = [c for c in commands if "wall_s" in c]
    untraced = [c for c in measured if not c["traced"]]
    traced = [c for c in measured if c["traced"]]
    bad_probes = [p["failure"] for p in probes if "import_s" not in p]
    if not untraced or (trace and not traced) or bad_probes:
        reasons = bad_probes + [c["failure"] for c in commands if c.get("failure")]
        raise RuntimeError("no measurement: " + "; ".join(reasons[:3]))

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "argv": spec["argv"], "env": env, "fail_frac": failed / len(commands),
              "setup_probes_s": [p["import_s"] for p in probes],
              "commands": [{k: c.get(k) for k in ("traced", "import_s", "wall_s",
                                                  "traced_wall_s", "peak_rss_mb", "out_bytes",
                                                  "rc", "threads", "failure")}
                           for c in commands]}
    if trace:
        untraced_wall = statistics.median(c["wall_s"] for c in untraced)
        traced_wall = statistics.median(c["traced_wall_s"] for c in traced)
        report["trace_overhead_s"] = traced_wall - untraced_wall
        report["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        report["nesting_error_s"] = max(c["nesting_error_s"] for c in traced)
        report["spans"] = [c["spans"] for c in traced]
        metrics = {name: {"value": statistics.median(c["layers"][name] for c in traced),
                          "unit": unit}
                   for name, unit in workloads.PER_LAYER}
    else:
        setup = [p["import_s"] for p in probes] + [c["import_s"] for c in measured]
        metrics = {
            "wall_s": {"value": statistics.median(c["wall_s"] for c in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in untraced),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "barreldimer", "cli.py")):
        sys.stderr.write(f"error: no barreldimer sources under {SRC}\n")
        return 2
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(json.dumps({"report": report}) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
