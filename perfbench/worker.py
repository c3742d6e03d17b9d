"""One fresh interpreter per measurement: a timed pass and its set-up, or a trace.

    python3 perfbench/worker.py run   MANIFEST OUT [check]
    python3 perfbench/worker.py trace MANIFEST OUT SPANS

`run` sets up (times `import rankpit.cli` plus loading the generated inputs
with rankpit's own loaders), runs one discarded warm-up operation (group),
then one timed pass over the batch in a closed loop (one operation in
flight, `workers=1`), records peak RSS, and reports the set-up time, each
operation's latency and a digest of its output; with `check` it then runs
the exact checks.  A speed probe runs before set-up, after it, and before
and after every timed operation (never inside a timed region); the harness
divides the times by it.  The harness starts one `run` worker per pass, so
no pass can reuse what an earlier pass left in the process.  `trace` runs
the batch untraced, traced, and untraced again; the tracing overhead is the
traced wall time minus the untraced mean.
Results go to OUT as JSON.  rankpit comes from PYTHONPATH; the harness sets
it to the checkout's `src`.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
PROBE_LOOPS = 5000     # about 1 ms on a 2-vCPU Xeon VM
SETUP_PROBES = 5       # before set-up, and again after it


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work: int arithmetic and
    dict stores, the staple of rankpit's sparse polynomials.  On a shared
    machine it slows down with the program, so times divided by it hold
    still while the machine's speed drifts."""
    t0 = perf_counter()
    x, d = 1, {}
    for i in range(PROBE_LOOPS):
        x = x * 48271 % 2147483647
        d[x & 255] = i
    return perf_counter() - t0


def set_up(manifest_path: Path):
    """(workload, warm-up ops, batch ops, import s, set-up s)."""
    t0 = perf_counter()
    import rankpit.cli  # noqa: F401  (the import is what is timed)
    t_import = perf_counter() - t0
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    manifest = json.loads(manifest_path.read_text())
    wl = WORKLOADS[manifest["workload"]]
    warmup, batch = wl.load(manifest, manifest_path.parent)
    return wl, warmup, batch, t_import, perf_counter() - t0


def timed_pass(wl, ops, tracer=None, probes=None):
    """Closed loop over ops in order: (latencies, outputs, errors, wall s).

    An operation that raises has output None and its error recorded.  With
    a `probes` list, a speed probe runs before each operation and after the
    last, and its times are appended there.
    """
    latencies, outputs, errors = [], [], {}
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if probes is not None:
            probes.append(speed_probe())
        t0 = perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    if probes is not None:
        probes.append(speed_probe())
    return latencies, outputs, errors, perf_counter() - start


def checked(wl, ops, outputs, errors) -> dict:
    """Positions that raised or failed an exact check, with a reason each."""
    failed = dict(errors)
    # whole groups whose operations all returned go to the exact checks
    usable = [g for g in range(0, len(ops), wl.group)
              if not any(i in errors for i in range(g, g + wl.group))]
    pos = [i for g in usable for i in range(g, g + wl.group)]
    for j in wl.check([ops[i] for i in pos], [outputs[i] for i in pos]):
        failed.setdefault(pos[j], "exact check failed")
    return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(wl, out) -> str | None:
    """A short fingerprint of an operation's output, compared across passes."""
    if out is None:
        return None
    return hashlib.sha256(repr(wl.key(out)).encode()).hexdigest()[:16]


def main(argv) -> int:
    mode, manifest_path, out_path = argv[0], Path(argv[1]), Path(argv[2])
    if mode == "run":
        setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
        wl, warmup, batch, _, t_setup = set_up(manifest_path)
        setup_probes += [speed_probe() for _ in range(SETUP_PROBES)]
        for op in warmup:
            wl.run(op)
        probes = []
        latencies, outputs, errors, wall = timed_pass(wl, batch, probes=probes)
        rss = peak_rss_mb()
        failed = dict(errors)
        if argv[3:] == ["check"]:
            failed = checked(wl, batch, outputs, errors)
        result = {"setup_s": t_setup, "setup_probes": setup_probes,
                  "latencies": latencies, "probes": probes,
                  "peak_rss_mb": rss, "wall_s": wall,
                  "digests": [digest(wl, out) for out in outputs],
                  "failed": {str(i): why for i, why in sorted(failed.items())}}
    elif mode == "trace":
        result = _trace(manifest_path, Path(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out_path.write_text(json.dumps(result))
    return 0


def _outcomes(wl, outputs) -> list:
    outcome = getattr(wl, "outcome", None)
    return [None if outcome is None or out is None else outcome(out)
            for out in outputs]


def _trace(manifest_path: Path, spans_path: Path) -> dict:
    # import everything first: a module imported while the tracer is
    # installed would keep references to the wrappers
    t0 = perf_counter()
    import rankpit.cli  # noqa: F401
    t_import = perf_counter() - t0
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()  # loading is traced too: circuit.parse is a set-up cost
    try:
        wl, warmup, batch, _, _ = set_up(manifest_path)
    finally:
        tracer.uninstall()
    for op in warmup:
        wl.run(op)
    # untraced, traced, untraced again: the two untraced passes bracket the
    # traced one, so a machine that drifts faster or slower cancels out
    lat, outs, errors, wall = timed_pass(wl, batch)
    tracer.install()
    try:
        _, t_outs, t_errors, t_wall = timed_pass(wl, batch, tracer=tracer)
    finally:
        tracer.uninstall()
    lat_after, _, _, wall_after = timed_pass(wl, batch)
    failed = {f"op {i}": why for i, why in checked(wl, batch, outs, errors).items()}
    for i, (a, b) in enumerate(zip(outs, t_outs)):
        if i in t_errors or (i not in errors and wl.key(a) != wl.key(b)):
            failed.setdefault(f"op {i}", "traced output differs from untraced")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = t_wall - (wall + wall_after) / 2
    metrics["cli.import_s"] = t_import
    tracer.save(spans_path)
    return {"latencies": [min(pair) for pair in zip(lat, lat_after)],
            "outcomes": _outcomes(wl, outs), "attempted": 3 * len(lat),
            "wall_s": wall + t_wall + wall_after, "failed": failed,
            "layers": metrics}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
