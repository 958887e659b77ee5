"""Benchmark of equifd: one workload per run, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): ``table2`` (45-cell adaptive sweep at N=20),
``ladder`` (table1 extended to N=81920) and ``smooth_equidist`` (numerical
equidistribution of (u_x)^beta at N up to 5120).  The seed only permutes
the order in which each pass visits its operations.

With ``--trace 0`` the run repeats untraced passes as long as another one
fits in ``--seconds`` (at least one) and reports the end-to-end metrics of
BENCHMARK.json.  While a pass runs, a SIGALRM handler in the same
thread runs a fixed reference loop (a frozen pure-Python Thomas solve
that does not use equifd) every 50 ms and times it; ``wall_rel`` is the
median over passes of the pass's wall time, less the sampler's, divided
by the mean reference time during that pass.  The host's speed drifts
by tens of percent within seconds to minutes and moves pass and
reference alike, so the ratio holds steady where the raw wall time does
not; the raw median ``wall_s`` is printed beside it.  The fresh
interpreters behind ``setup_s`` are started one after each pass, so that
they too are spread over the run.

With ``--trace 1`` it alternates untraced (sampled) and traced passes the
same way (at least two of each) and reports the per-layer metrics; it
checks that every work count repeats exactly between traced passes and
that traced and untraced passes give the same results.  Either way every
operation's output is checked, the last stdout line is one JSON object,
and files go to ``.perfbench_out/``.

The run is one process on one thread.  It imports equifd from ``src/``
next to this directory and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread: keep any BLAS pool numpy loads from starting workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh interpreters timed for setup_s (after one untimed run that
# compiles the bytecode cache)
SETUP_RUNS = 9

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import random
import equifd, equifd.cli
import workloads
workloads.make_spec()
workloads.WORKLOADS[{name!r}].order(random.Random({seed}))
print(time.perf_counter() - t0)
"""


# reference loop: unknowns of the system it solves (about 2 ms on a
# 2.1 GHz Xeon vCPU), and how often the sampler runs it during a pass
REF_N = 1024
REF_INTERVAL_S = 0.05


def _reference_thomas(lower, diag, upper, rhs):
    """Thomas algorithm as equifd.tridiag had it when this benchmark was
    defined, kept here unchanged so that the reference does the same work
    on every commit."""
    import numpy as np

    n = diag.size
    c = np.empty(n - 1)
    d = np.empty(n)
    piv = diag[0]
    c[0] = upper[0] / piv
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


class SpeedSampler:
    """Runs the reference loop from a SIGALRM handler every REF_INTERVAL_S
    seconds while a pass runs, in the same thread, and keeps each run's
    wall time.  Their mean is the host's speed during the pass; their sum
    is taken off the pass's wall time."""

    def __init__(self):
        import numpy as np

        n = REF_N
        self.system = (np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0), np.ones(n))
        self.samples = []
        self._busy = False

    def sample(self):
        t0 = time.perf_counter()
        _reference_thomas(*self.system)
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        if self._busy:  # a slow tick outlasted the interval
            return
        self._busy = True
        self.sample()
        self._busy = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _import_equifd():
    if not (SRC / "equifd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no equifd sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import equifd

    if Path(equifd.__file__).resolve().parent != SRC / "equifd":
        sys.exit(f"perfbench: imported equifd from {equifd.__file__}, not from {SRC}")


def time_setup(name: str, seed: int) -> float:
    """Time of a fresh interpreter to import equifd and build the inputs."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(workload, spec, order, out_dir):
    """(wall seconds, results); a pass that raises returns no results."""
    t0 = time.perf_counter()
    try:
        results = workload.run_pass(spec, order, out_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        results = {}
    return time.perf_counter() - t0, results


def run_sampled_pass(workload, spec, order, out_dir, sampler):
    """(pass wall seconds without the sampler's time, mean reference time,
    results)."""
    with sampler:
        wall, results = run_pass(workload, spec, order, out_dir)
    wall -= sum(sampler.samples)
    if not sampler.samples:  # a pass shorter than one interval
        sampler.sample()
    return wall, statistics.fmean(sampler.samples), results


class Tally:
    """Operations attempted and failed; a result that differs from the
    first pass's (another visiting order) fails as well."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failed = 0

    def add(self, results: dict) -> None:
        if self.first is None:
            self.first = results
        bad = self.workload.failures(results)
        bad |= {k for k, v in self.first.items() if results.get(k) != v}
        self.attempted += self.workload.operations
        self.failed += len(bad)


def tail_percentile(values):
    """(p, value) for the highest of p50/p90/p99/p99.9 with >= 10 samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return None


def _time_left(start, seconds, walls) -> bool:
    """True while one more pass of median length still ends within the run."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def run_plain(workload, spec, rng, seconds, out_dir, setup):
    """Untraced passes under the speed sampler, each followed by one timed
    ``setup()`` until SETUP_RUNS are done, so that set-up is sampled across
    the run: (tally, pass walls, mean reference time of each pass, set-up
    times)."""
    tally = Tally(workload)
    sampler = SpeedSampler()
    walls, refs, setups, rounds = [], [], [], []
    setup()  # untimed: compiles the bytecode cache
    start = time.perf_counter()
    while not rounds or _time_left(start, seconds, rounds):
        t0 = time.perf_counter()
        wall, ref, results = run_sampled_pass(workload, spec, workload.order(rng), out_dir,
                                              sampler)
        walls.append(wall)
        refs.append(ref)
        tally.add(results)
        if len(setups) < SETUP_RUNS:
            setups.append(setup())
        rounds.append(time.perf_counter() - t0)
    while len(setups) < SETUP_RUNS:
        setups.append(setup())
    return tally, walls, refs, setups


def run_traced(workload, spec, rng, seconds, out_dir):
    import tracer

    tally = Tally(workload)
    sampler = SpeedSampler()
    plain, traced, refs, summaries = [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or _time_left(start, seconds, [p + t for p, t in zip(plain, traced)]):
        wall, ref, results = run_sampled_pass(workload, spec, workload.order(rng), out_dir,
                                              sampler)
        plain.append(wall)
        refs.append(ref)
        tally.add(results)
        with tracer.Tracer() as tr:
            wall, results = run_pass(workload, spec, workload.order(rng), out_dir)
        spans = tr.spans
        traced.append(wall)
        tally.add(results)
        summaries.append(tracer.summarize(spans))
    tracer.write_spans(out_dir / "spans.csv", spans)
    counts = summaries[0][0]
    repeat = all(c == counts for c, _ in summaries)
    values = dict(counts)
    for key in summaries[0][1]:
        values[key] = statistics.median(s[key] for _, s in summaries)
    # each traced pass against the untraced pass just before it, so that
    # drift of the host's speed between them stays small
    values["trace.overhead_ratio"] = statistics.median(t / p for p, t in zip(plain, traced))
    values["run.wall_s"] = statistics.median(plain)
    values["run.ref_s"] = statistics.median(refs)
    return tally, values, repeat, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_equifd()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    problem = workloads.make_spec()
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{workload.operations} operations per pass  trace {args.trace}")

    baseline = {}
    if args.trace:
        tally, values, repeat, summaries = run_traced(workload, problem, rng, args.seconds,
                                                      out_dir)
        wanted = bench["per_layer"]
        baseline = json.loads((HERE / "baseline.json").read_text())["counts"][workload.name]
        print(f"  {'traced passes':28s} {len(summaries)}  (work counts repeat exactly: {repeat})")
        correct = repeat
    else:
        tally, walls, refs, setups = run_plain(workload, problem, rng, args.seconds, out_dir,
                                               lambda: time_setup(workload.name, args.seed))
        values = {
            "setup_s": statistics.median(setups),
            "wall_rel": statistics.median(w / r for w, r in zip(walls, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = bench["end_to_end"]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:g} {tail[1]:.6f} s" if tail
                     else "no percentile has 10 passes beyond it")
        print(f"  {'passes':28s} {len(walls)}  (wall_s is their median; {tail_text})")
        print(f"  {'wall_s':28s} {statistics.median(walls):.6g} s")
        print(f"  {'reference loop':28s} {statistics.median(refs):.6g} s  "
              f"(median over passes of their mean sample)")
        correct = True
    print(f"  {'failed_frac':28s} {tally.failed / tally.attempted:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} operations failed)")

    metrics = {}
    for m in wanted:
        name, value = m["name"], values[m["name"]]
        metrics[name] = {"value": value, "unit": m["unit"]}
        note = f"  (baseline {baseline[name]})" if baseline.get(name, value) != value else ""
        print(f"  {name:28s} {value:.6g} {m['unit']}{note}")
    correct = correct and tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
