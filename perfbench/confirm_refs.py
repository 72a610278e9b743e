"""Re-derive the benchmark's pinned references, each by the route the gate does not use.

    python3 perfbench/confirm_refs.py

Phi(14, 100) is pinned from the transfer operator and confirmed here by the
walker-path DP (several minutes on 2 cores); Phi(12, 20) is pinned from the
path DP and confirmed by the transfer operator.  The sample digest is
recomputed from `cli.main` for the CLI's default seed.  Exits 1 on any
mismatch.
"""

import contextlib
import io
import sys

import worker
import workloads


def main() -> int:
    package = worker.import_package()
    transfer, paths, cli = package.transfer, package.paths, package.cli
    buf = io.StringIO()
    spec = workloads.spec("sample", workloads.SAMPLE_DEFAULT_SEED)
    with contextlib.redirect_stdout(buf):
        cli.main(spec["argv"])
    checks = [
        ("Phi(12, 20) by transfer", str(transfer.count_matchings_transfer(12, 20)),
         workloads.PHI_12_20),
        ("sample seed 0 SHA-256", workloads.sha256(buf.getvalue()),
         workloads.SAMPLE_SHA256_SEED0),
        ("Phi(14, 100) by paths", str(paths.total_via_paths(14, 100)), workloads.PHI_14_100),
    ]
    ok = True
    for label, got, pinned in checks:
        print(f"{label}: {'ok' if got == pinned else 'MISMATCH ' + got}")
        ok = ok and got == pinned
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
