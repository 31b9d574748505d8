"""End-to-end and per-layer benchmark of the eqcohom CLI.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with a single client: every request is an
in-process `eqcohom.cli.main([...])` call on input files written during
set-up, with stdout and stderr captured, and the next request starts when
the previous one has returned. Every answer is checked against the value
the generator built the input to have (see workloads.py).

Timings are reported at a reference machine speed. On a shared 2-core
x86-64 host (Python 3.11.7) the wall time of one fixed loop drifted by
20-45% over seconds to minutes, which no run length averages away. So a
fixed exact elimination written in this file (`probe`) runs after every
request, and each request has a speed sample taken right before and right
after it. A request's scaled latency is its wall time times
PROBE_REFERENCE_S divided by the mean of its two probe times: its wall time
on a machine where the probe takes PROBE_REFERENCE_S. Raw wall times and
probe times are kept in the report.

`--trace 0` measures the end-to-end metrics. `--trace 1` runs the loop
untraced for half the time, replays the same requests with every public
eqcohom function wrapped in spans (see tracer.py), and reports per-layer
metrics and the tracing overhead. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. A fuller
report, with the spans of a traced run, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP = 8  # untimed requests before the measured phase
SETUP_SPAWNS = 15  # fresh interpreters timed for setup_s
# The tail percentile is fixed rather than "the 11th largest": that order
# statistic moves with the request count, so a change that completes more
# requests in the same time would push it to a higher percentile and read as
# a slower tail. p90 is the highest of p90/p95/p99 that leaves at least
# TAIL_BEYOND samples beyond it on every workload in a 35-second run.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
# A percentile p is estimated as the mean of the percentiles p-5 through p+5.
# A single order statistic moved by about as much as one request's ~15%
# run-to-run noise, since at p90 it lies on the steep side of the latency
# distribution, and at p50 of periodic between requests of unlike cost.
PERCENTILE_HALF_WIDTH = 5
# The probe's time on the host above when it was least loaded.
PROBE_REFERENCE_S = 0.0025


@dataclass(slots=True)
class Outcome:
    request: workloads.Request
    latency: float
    code: object
    failure: object  # failure class, or None when the answer is right
    stderr: str  # kept only for a failure
    probe: float = 0.0  # mean probe time around the request

    @property
    def scaled(self) -> float:
        """Latency at the reference machine speed."""
        return self.latency * PROBE_REFERENCE_S / self.probe


def probe() -> float:
    """Wall time of a fixed exact Gauss-Jordan elimination on a 9x9 integer
    matrix: a sample of the machine's current speed at the kind of work
    eqcohom does, independent of the code under test."""
    gc.disable()
    try:
        start = time.perf_counter()
        n = 9
        a = [[Fraction((i * 7 + j * 13) % 11 - 5 + 9 * (i == j)) for j in range(n)]
             for i in range(n)]
        for c in range(n):
            p = next(i for i in range(c, n) if a[i][c] != 0)
            a[c], a[p] = a[p], a[c]
            a[c] = [x / a[c][c] for x in a[c]]
            for i in range(n):
                if i != c and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter that imports eqcohom.cli, scaled
    like a request latency by probes right before and after each spawn;
    and the raw median wall time."""
    cmd = [
        sys.executable, "-I", "-c",
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import eqcohom.cli",
    ]
    subprocess.run(cmd, check=True)  # writes bytecode caches; not timed
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        raw.append(time.perf_counter() - start)
        after = probe()
        scaled.append(raw[-1] * PROBE_REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def call(cli, workload: str, req: workloads.Request) -> tuple[Outcome, str]:
    """One request; returns its outcome and the digest of its exit code and
    stdout."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(req.argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a traceback is a failure, not a crash
            code, failure = None, f"exception:{type(exc).__name__}"
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    if failure is None:
        failure = workloads.check(workload, req, code, stdout, stderr)
    digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
    return Outcome(req, latency, code, failure, stderr if failure else ""), digest


def closed_loop(cli, workload, requests, digests, minimum, seconds=0.0,
                tracer=None) -> list[Outcome]:
    """Run requests back to back, cycling through `requests`, each followed
    by a probe: `minimum` of them, then on until `seconds` have passed.
    `digests` maps a request index to the digest of its first run; a later
    run of the same request with other output is the failure
    `unstable-output`."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    before = probe()
    while len(outcomes) < minimum or time.perf_counter() < deadline:
        req = requests[len(outcomes) % len(requests)]
        if tracer:
            tracer.request = req.index
        o, digest = call(cli, workload, req)
        if digests.setdefault(req.index, digest) != digest and o.failure is None:
            o.failure = "unstable-output"
        after = probe()
        o.probe = (before + after) / 2
        before = after
        outcomes.append(o)
    return outcomes


def end_to_end(outcomes: list[Outcome]) -> tuple[dict, dict]:
    """Throughput counts correct requests per second of scaled busy time."""
    busy = sum(o.scaled for o in outcomes)
    good = sorted(o.scaled for o in outcomes if o.failure is None)
    lat = good or sorted(o.scaled for o in outcomes)
    percentiles = statistics.quantiles(lat, n=100, method="inclusive")

    def percentile(p):
        h = PERCENTILE_HALF_WIDTH
        return statistics.fmean(percentiles[p - h - 1 : p + h])

    value = percentile(TAIL_PERCENTILE)
    tail = {
        "percentile": TAIL_PERCENTILE,
        "samples": len(lat),
        "beyond": sum(x > value for x in lat),
    }
    metrics = {
        "throughput_ops_s": (len(good) / busy, "req/s"),
        "latency_p50_s": (percentile(50), "s"),
        "latency_tail_s": (value, "s"),
        "correct_frac": (len(good) / len(outcomes), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tail


def size_sweep(outcomes: list[Outcome]) -> list[dict]:
    """Latency by input size: n per family for graph, vertices x d for
    periodic. A diagnostic of the polynomial cliffs; not a gated metric."""
    groups = defaultdict(list)
    for o in outcomes:
        t = o.request.tags
        groups[t.get("family", ""), t.get("n", 0), t.get("d", 0), t.get("count", 0)].append(o)
    rows = []
    for (family, n, d, count), group in sorted(groups.items()):
        lat = [o.scaled for o in group]
        rows.append({
            "size": f"{family} n={n}" if family else f"{n}x{d}" if d else f"count={count}",
            "requests": len(group),
            "failed": sum(o.failure is not None for o in group),
            "median_s": statistics.median(lat),
            "max_s": max(lat),
        })
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the full report."""
    setup_s, setup_raw_s = (None, None) if trace else measure_setup()
    import eqcohom.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the copy under {SRC}")
    stream = workloads.generate(workload, seed, tiny)
    warm = [workloads.materialize(next(stream), workdir) for _ in range(WARMUP)]
    warm_out = [call(cli, workload, r)[0] for r in warm]
    size = workloads.TINY_POOL_SIZE if tiny else workloads.POOL_SIZE[workload]
    pool = [workloads.materialize(next(stream), workdir) for _ in range(size)]
    digested = pool[: workloads.TINY_POOL_SIZE if tiny else workloads.DIGEST_REQUESTS[workload]]

    digests: dict[int, str] = {}
    start = time.perf_counter()
    outcomes = closed_loop(cli, workload, pool, digests, len(digested),
                           seconds / 2 if trace else seconds)
    wall = time.perf_counter() - start
    # Read before the report is built: the report's per-request rows grow
    # with the number of requests, which is no property of eqcohom.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    replay: list[Outcome] = []
    unwrapped: list[str] = []
    if trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            unwrapped = tr.unwrapped()
            replay = closed_loop(cli, workload, [o.request for o in outcomes],
                                 digests, len(outcomes), tracer=tr)
            unwrapped += tr.unwrapped()
        finally:
            tr.uninstall()
    done = outcomes + replay
    failures = Counter(o.failure for o in done if o.failure)
    warm_failures = {o.failure for o in warm_out if o.failure}
    metrics, tail = end_to_end(outcomes)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "machine": platform.machine(),
        "digest": hashlib.sha256(
            "".join(digests[r.index] for r in digested).encode()
        ).hexdigest(),
        "digested_requests": len(digested),
        "failures": dict(failures),
        "tail": tail,
        "end_to_end": metrics,
        "raw_wall_s": wall,
        "raw_throughput_ops_s": sum(o.failure is None for o in outcomes) / wall,
        "raw_setup_s": setup_raw_s,
        "probe_reference_s": PROBE_REFERENCE_S,
        "size_sweep": size_sweep(outcomes),
        "requests": [
            {"index": o.request.index, "tags": o.request.tags,
             "latency_s": o.latency, "probe_s": o.probe, "scaled_s": o.scaled,
             "exit": o.code, "failure": o.failure,
             "stdout_sha256": digests[o.request.index],
             **({"stderr": o.stderr} if o.failure else {})}
            for o in outcomes
        ],
    }
    if not trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    else:
        metrics, report["errors_by_code"] = tr.layer_metrics(len(replay))
        overhead = sum(o.scaled for o in replay) / sum(o.scaled for o in outcomes) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        report["unwrapped"] = unwrapped
        report["spans"] = {"fields": tracing.FIELDS, "rows": tr.spans}
    report["metrics"] = metrics
    correct = not unwrapped and not warm_failures and not failures
    result = {
        "correct": correct,
        "attempted": len(done),
        "failed": sum(o.failure is not None for o in done),
        "metrics": metrics,
    }
    return result, report


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eqcohom" / "cli.py").is_file():
        print(f"bench: no eqcohom sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"failures by class {report['failures']}")
    for row in report["size_sweep"]:
        print(f"  size {row['size']:<20} {row['requests']:4d} req  "
              f"{row['failed']:3d} failed  median {row['median_s']:.4f} s  "
              f"max {row['max_s']:.4f} s")
    tail = report["tail"]
    if not args.trace:
        print(f"latency_tail_s is p{tail['percentile']}: {tail['beyond']} of "
              f"{tail['samples']} correct-request samples lie beyond it")
        if tail["beyond"] < TAIL_BEYOND:
            print(f"warning: fewer than {TAIL_BEYOND} samples beyond the tail percentile")
    if report.get("unwrapped"):
        print(f"tracer coverage check FAILED, unwrapped: {report['unwrapped']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"stdout digest (first {report['digested_requests']} requests) {report['digest']}")
    print(f"report written to {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
