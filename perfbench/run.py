"""rankpit benchmark: one command, four workloads, exact checks.

    python3 perfbench/run.py --workload pit_corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a rankpit checkout; rankpit is imported from `src/`
there and nowhere else.  The harness generates the workload's inputs from
the seed (outside every metric), then times set-up and one pass over the
batch in each of five fresh interpreters, and checks every result exactly.
It prints each metric by name with its unit, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.  The
exit code is 1 if any operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("pit_corpus", "dependence_q", "certify_fp", "measure_nw")
PASSES = 5  # fresh interpreters, each timing its set-up and one pass
PROBE_S = 1e-3    # a time of one speed probe is reported as this many seconds
PROBE_WINDOW = 3  # probes on each side of an operation that set its scale
RUN_BUDGET_S = 170  # all workers of one workload; a run must end in 180 s

UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that do not come from the tracer's spans and counters
LAYER_EXTRAS = ("trace.overhead_s", "cli.import_s", "pit.zero_verdict_p50_ms",
                "pit.witness_verdict_p50_ms")


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".busy_s", ".self_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_call", "_per_enumerated")):
        return "ratio"
    return "count"


def tail_percentile(n: int) -> int:
    """The highest whole percentile p with p% of n samples at most n - 10.

    At least ten samples lie beyond it.  Never below the median: a batch of
    twenty or fewer has no such tail.
    """
    return max(50, 100 * (n - 10) // n)


def in_probe_time(latencies: list, probes: list) -> list:
    """Each latency in probe time: divided by the median speed probe around
    it (probe i runs just before operation i) and multiplied by PROBE_S.

    The shared machine runs whole stretches of seconds to minutes about 1.5x
    slower; the probe slows down with the program, so the ratio stays put.
    """
    return [lat * PROBE_S / statistics.median(
                probes[max(0, i - PROBE_WINDOW):i + 2 + PROBE_WINDOW])
            for i, lat in enumerate(latencies)]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Checkout:
    """The rankpit source tree the benchmark runs against (the cwd)."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.scratch = root / ".perfbench"

    def valid(self) -> bool:
        return (self.src / "rankpit" / "__init__.py").is_file()

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env.pop("PYTHONSTARTUP", None)
        return env

    def worker(self, args, deadline: float) -> dict:
        """Run worker.py to the end, killed at `deadline`; its result."""
        out = args[2]
        subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                       cwd=self.root, env=self.env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        return json.loads(out.read_text())


def measure_workload(checkout: Checkout, workload: str, seed: int,
                     seconds: float, trace: bool) -> dict:
    """Generate, set up, run and check one workload; return the result object."""
    import gen

    deadline = time.monotonic() + RUN_BUDGET_S
    work = checkout.scratch / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = gen.generate(workload, seed, seconds, work / "inputs")
        if trace:
            spans = checkout.scratch / "traces" / f"{workload}-s{seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            res = checkout.worker(["trace", manifest, work / "trace.json", spans],
                                  deadline)
        else:
            # the first pass runs the exact checks; the later ones must give
            # the same outputs
            passes = [checkout.worker(["run", manifest, work / f"pass{r}.json"]
                                      + (["check"] if r == 0 else []), deadline)
                      for r in range(PASSES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        lat = res["latencies"]
        failed = res["failed"]
        values = dict(res["layers"])
        for outcome in ("zero", "witness"):
            sel = [x for x, o in zip(lat, res["outcomes"]) if o == outcome]
            values[f"pit.{outcome}_verdict_p50_ms"] = (
                statistics.median(sel) * 1000 if sel else 0.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        attempted = res["attempted"]
    else:
        # each operation's latency is its fastest pass in probe time: the
        # same input, timed in five processes seconds apart
        lat = [min(xs) for xs in zip(*(in_probe_time(p["latencies"], p["probes"])
                                        for p in passes))]
        wall = [min(xs) for xs in zip(*(p["latencies"] for p in passes))]
        failed = {}
        for r, p in enumerate(passes):
            for i, why in p["failed"].items():
                failed[f"pass {r} op {i}"] = why
            for i, (a, b) in enumerate(zip(passes[0]["digests"], p["digests"])):
                if a != b and a is not None and b is not None:
                    failed[f"pass {r} op {i}"] = "output differs from pass 0"
        pct = tail_percentile(len(lat))
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_tail_ms": statistics.quantiles(
                lat, n=100, method="inclusive")[pct - 1] * 1000,
            "setup_s": min(p["setup_s"] * PROBE_S / statistics.median(p["setup_probes"])
                           for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        attempted = PASSES * len(lat)
        probe_ms = statistics.median(x for p in passes for x in p["probes"]) * 1000
        print(f"{workload}: {attempted} ops in "
              f"{sum(p['wall_s'] for p in passes):.2f} s, "
              f"latency_tail_ms is p{pct} of {len(lat)} "
              f"({len(lat) - (len(lat) * pct) // 100} operations beyond it)")
        print(f"{workload}: wall clock, fastest pass per operation: "
              f"{len(wall) / sum(wall):.4g} ops/s, "
              f"p50 {statistics.median(wall) * 1000:.4g} ms; "
              f"median speed probe {probe_ms:.4g} ms")
    for where, reason in list(failed.items())[:10]:
        print(f"{workload}: {where} failed: {reason}")
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; hold out 90001 for claims)")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checkout = Checkout(Path.cwd())
    if not checkout.valid():
        return fail(f"no rankpit sources at {checkout.src}; run from a checkout root")
    sys.path[:0] = [str(checkout.src), str(HERE)]
    import rankpit
    if Path(rankpit.__file__).resolve().parent != (checkout.src / "rankpit").resolve():
        return fail(f"imported rankpit from {rankpit.__file__}, not {checkout.src}")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure_workload(checkout, name, args.seed,
                                             args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        return fail(f"worker exited with {exc.returncode}")
    except subprocess.TimeoutExpired:
        return fail("worker timed out")

    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<13} {metric:<44} {m['value']:>14.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
