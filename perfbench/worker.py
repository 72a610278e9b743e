"""One benchmark command in a fresh interpreter, so every cache starts cold.

    python3 perfbench/worker.py '<spec json>'

The spec is {"argv": [...], "check": {...}, "warmup": {...} | null,
"trace": bool}, or {"import_only": true} to time the import alone.  The
worker times `import barreldimer`, then `cli.main(argv)` with stdout
captured, then checks the output outside the timed window, and prints
one JSON record as its last line.  With "trace" it first wraps the
public functions that the package's modules call across module
boundaries (module attributes only, no source change) and records one
span per call.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Every span's children lie inside it; self times of a subtree must sum
# to the root's duration within this many seconds.
SELF_TIME_TOLERANCE_S = 1e-6

# (module, attribute) of each traced function.  Private helpers such as
# transfer._count_rows, transfer._apply_rows and paths._step_vec are not
# wrapped: their time shows as self time of the public caller.
TRACED = (
    ("transfer", "boundary_vector"),
    ("transfer", "count_matchings_transfer"),
    ("graph", "build_graph"),
    ("graph", "count_matchings_brute"),
    ("paths", "admissible_boundaries"),
    ("paths", "total_via_paths"),
    ("bethe", "verify_sector"),
    ("validate", "run_criteria"),
)


def import_package():
    sys.path.insert(0, SRC)
    import barreldimer
    from barreldimer import cli  # noqa: F401
    if not os.path.abspath(barreldimer.__file__).startswith(SRC + os.sep):
        raise ImportError(f"barreldimer imported from {barreldimer.__file__}, not {SRC}")
    return barreldimer


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, note=None):
        """`fn` with a span per call; `note(args, result)` fills the span's info."""
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[4] = note(args, result)
            return result
        return traced

    def run(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, package):
        """Replace every module attribute bound to a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]

        def bits(args, result):
            return result.bit_length()

        notes = {"count_matchings_transfer": bits, "total_via_paths": bits,
                 "run_criteria": lambda args, result: {r.name: r.seconds for r in result}}
        for mod_name, attr in TRACED:
            original = getattr(getattr(package, mod_name), attr)
            traced = self.wrap(f"{mod_name}.{attr}", original, notes.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)
        sampler = package.transfer.UniformSampler
        for attr, note in (("__init__", lambda args, result: args[0].total.bit_length()),
                           ("draw", None)):
            original = vars(sampler)[attr]
            self._patched.append((sampler, attr, original))
            setattr(sampler, attr, self.wrap(f"transfer.UniformSampler.{attr}", original, note))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def check_nesting(self):
        """Largest violation of: children inside parents, subtree self times sum to root."""
        selfs = self.self_times()
        subtree = list(selfs)
        worst = 0.0
        for i in range(len(self.spans) - 1, -1, -1):
            _, start, end, parent, _ = self.spans[i]
            if parent is not None:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                worst = max(worst, p_start - start, end - p_end)
                subtree[parent] += subtree[i]
            worst = max(worst, -selfs[i])
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                worst = max(worst, abs(subtree[i] - (end - start)))
        return worst

    def summary(self):
        """Per span name: calls, total seconds, self seconds."""
        out = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out


def _percentile(values, p):
    """p-th percentile, interpolated; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    import statistics
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer, warm_op, parity_only, out_bytes, criteria):
    """Per-layer metrics from one traced command, every name present."""
    summary = tracer.summary()

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    draws_ms = [(end - start) * 1e3 for name, start, end, _, _ in tracer.spans
                if name == "transfer.UniformSampler.draw"]
    bits = [info for name, _, _, _, info in tracer.spans
            if name in ("transfer.count_matchings_transfer", "paths.total_via_paths",
                        "transfer.UniformSampler.__init__") and isinstance(info, int)]
    seconds = {}
    for name, _, _, _, info in tracer.spans:
        if name == "validate.run_criteria":
            seconds.update(info)
    rows = warm_op.rows if warm_op is not None else ()
    metrics = {
        "transfer.rows_s": self_s("transfer.build_transfer") if parity_only else 0.0,
        "transfer.rows_full_s": 0.0 if parity_only else self_s("transfer.build_transfer"),
        "transfer.states": len(rows),
        "transfer.nnz": sum(len(targets) for _, targets in rows),
        "transfer.boundary_s": self_s("transfer.boundary_vector"),
        "transfer.count_s": self_s("transfer.count_matchings_transfer"),
        "transfer.count_calls": calls("transfer.count_matchings_transfer"),
        "transfer.result_bits": max(bits, default=0),
        "transfer.sampler_init_s": self_s("transfer.UniformSampler.__init__"),
        "transfer.draws_s": self_s("transfer.UniformSampler.draw"),
        "transfer.draw_calls": len(draws_ms),
        "transfer.draw_p50_ms": _percentile(draws_ms, 50),
        "transfer.draw_p95_ms": _percentile(draws_ms, 95),
        "graph.build_s": self_s("graph.build_graph"),
        "graph.brute_s": self_s("graph.count_matchings_brute"),
        "paths.boundaries_s": self_s("paths.admissible_boundaries"),
        "paths.total_s": self_s("paths.total_via_paths"),
        "bethe.verify_sector_s": self_s("bethe.verify_sector"),
        "bethe.verify_sector_calls": calls("bethe.verify_sector"),
    }
    for name in criteria:
        metrics[f"validate.{name}_s"] = seconds.get(name, 0.0)
    metrics["cli.self_s"] = self_s("cli.main")
    metrics["cli.out_bytes"] = out_bytes
    return metrics


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _os_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_command(spec, package, import_s):
    import contextlib
    import io

    import workloads

    cli, transfer = package.cli, package.transfer
    tracer = Tracer() if spec.get("trace") else None
    warm_op = None
    warm_s = 0.0
    warmup = spec.get("warmup")
    if tracer is not None:
        tracer.install(package)
        if warmup is not None:
            t0 = time.perf_counter()
            warm_op = tracer.run("transfer.build_transfer", transfer.build_transfer,
                                 warmup["m"], "count", parity_only=warmup["parity_only"])
            warm_s = time.perf_counter() - t0

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(spec["argv"])
        else:
            rc = tracer.run("cli.main", cli.main, spec["argv"])
        wall_s = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()
    threads = _os_threads()
    text = buf.getvalue()
    out_bytes = len(text.encode("utf-8"))

    record = {"import_s": import_s, "rc": rc, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "out_bytes": out_bytes, "sha256": workloads.sha256(text), "threads": threads,
              "traced": tracer is not None}
    if tracer is not None:
        tracer.uninstall()
        record["traced_wall_s"] = warm_s + wall_s
        record["nesting_error_s"] = tracer.check_nesting()
        record["spans"] = tracer.summary()
        parity_only = warmup is None or warmup["parity_only"]
        record["layers"] = layer_metrics(tracer, warm_op, parity_only, out_bytes,
                                         workloads.CRITERIA)

    graphs = {}

    def is_perfect(m, k, ids):
        if (m, k) not in graphs:
            graphs[m, k] = package.graph.build_graph(package.graph.BarrelParams(m, k))
        return package.graph.is_perfect(graphs[m, k], package.graph.Matching(frozenset(ids)))

    record["failure"] = workloads.check_output(spec["check"], rc, text, is_perfect)
    return record


def main(argv):
    t0 = time.perf_counter()
    package = import_package()
    import_s = time.perf_counter() - t0
    import json

    spec = json.loads(argv[0])
    if spec.get("import_only"):
        record = {"import_s": import_s}
    else:
        record = run_command(spec, package, import_s)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
