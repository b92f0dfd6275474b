"""medgraph benchmark: p(G), the oracle cross-check and class recognition.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next job starts only when the
previous one has returned and its answer has been checked.  No threads
are started, and numpy/BLAS are pinned to one thread.

--trace 0 runs max(1, round(S / pass_s)) passes of the workload and
prints the end-to-end metrics.  --trace 1 runs one pass untraced, then
the same pass with every public medgraph function wrapped, and prints the
per-layer metrics; the traced pvalue-families run also prints the
baseline table (time, LP solves, distinct pairs and matrices per graph).

End-to-end times are reported in reference seconds (see RefClock): the
host's speed can change by a factor of two within seconds when other
tenants load it, so each measured interval is scaled by the speed of a
fixed calibration slice sampled while it ran.  Raw times are kept in the
run record.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A full record of the run (environment, per-job
latencies, tail percentile) goes to bench/out/, and the traced run writes
its spans there too.  Exit code: 0 when every answer checked out, 1 when
some job failed, 2 when the program cannot be found or the arguments are
bad.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
CONFIRM_SEED = 7919     # held back: use only to confirm a claimed gain
SETUP_REPS = 3
SLICE_OPS = 150         # Fraction additions in one calibration slice
REF_SLICE_S = 0.0006    # slice time at which a measured second is a reference second
SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
# workloads.WORKLOADS, named here so that bad arguments fail before the
# import that setup_s measures
WORKLOAD_NAMES = ("pvalue-families", "pvalue-random", "oracle-atlas",
                  "classify")

RECOGNIZERS = ("is_modular", "is_weakly_modular", "is_bridged",
               "is_weakly_bridged", "has_convex_balls", "satisfies_PC",
               "satisfies_TPC", "satisfies_ICm", "detect_alpha_configuration",
               "detect_beta_configuration")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# ------------------------------------------------------ reference clock

def _slice() -> None:
    acc = Fraction(0)
    for i in range(1, SLICE_OPS):
        acc += Fraction(i % 89 + 1, i % 97 + 1)


class RefClock:
    """Converts measured intervals to reference seconds.

    While running, a SIGALRM every SAMPLE_EVERY_S of wall time runs a fixed
    calibration slice and records how long it took.  An interval is
    scaled by the mean of REF_SLICE_S / slice time over the samples taken
    during it (widened by WINDOW_S on each side, so that short jobs get
    samples too), after the time spent in samples is taken out.  Signals
    run in the main thread between bytecodes, so no thread is started.
    """

    def __init__(self):
        self.at: list[float] = []      # sample start times
        self.cost: list[float] = []    # sample durations
        self.spent = 0.0               # total time inside samples

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _slice()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.cost.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def since(self, start: tuple[float, float]) -> tuple[float, float]:
        """(reference seconds, raw seconds) since `start`, samples excluded."""
        t1, spent1 = self.mark()
        t0, spent0 = start
        raw = (t1 - t0) - (spent1 - spent0)
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        costs = self.cost[lo:hi] or self.cost[-1:]
        if not costs:
            return raw, raw
        return raw * statistics.fmean(REF_SLICE_S / c for c in costs), raw


# ------------------------------------------------------------ job loop

def _root(tracer, kind: str, label: str):
    return tracer.root(kind, label) if tracer else contextlib.nullcontext()


def run_jobs(jobs, clock: RefClock, tracer=None) -> dict:
    """Run jobs back to back; time each `run`, then check its answer."""
    latencies, failures = [], []
    wall = raw_wall = 0.0
    for job in jobs:
        start = clock.mark()
        dt = err = None
        try:
            with _root(tracer, "job", job.label):
                out = job.run()
            dt = clock.since(start)[0]
            with _root(tracer, "check", job.label):
                err = job.check(out)
        except Exception:  # a crashing job is a failed job, not a dead run
            err = traceback.format_exc()
        ref, raw = clock.since(start)
        wall += ref
        raw_wall += raw
        latencies.append((job.label, ref if dt is None else dt))
        if err is not None:
            failures.append((job.label, err))
    return {"wall_s": wall, "raw_wall_s": raw_wall, "latencies": latencies,
            "failures": failures}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


# ------------------------------------------------------- per-layer view

def distinct_matrices(tracer) -> dict[int, int]:
    """Per root span: LP matrices distinct up to row/column permutation."""
    from tracer import MatrixClasses
    out = {}
    for root, rec in tracer.per_root.items():
        classes = MatrixClasses()
        for entries in rec["matrices"]:
            classes.add(entries)
        out[root] = classes.count
    return out


def profile_budget(tracer) -> int:
    """Sum over oracle calls and band pairs of (w+1)^|J(u,v)| - 1."""
    j_set = tracer.originals["metric.J_set"]
    budget = 0
    for g, d, p, w in tracer.oracle_calls:
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if p + 1 <= d(a, b) <= 2 * p:
                    budget += (w + 1) ** len(j_set(g, d, a, b)) - 1
    return budget


def layer_metrics(tracer, distinct: dict[int, int], untraced_wall: float,
                  traced_wall: float) -> dict:
    v = tracer.value
    c = tracer.counters
    solves = v("lp.lp_feasible_strict", "calls")
    pairs = sum(len(rec["pairs"]) for rec in tracer.per_root.values())
    mats = sum(distinct.values())
    budget = profile_budget(tracer)
    job_s = tracer.root_time("job")
    oracle_calls = v("oracle.brute_force_oracle", "calls")
    m = {
        "graph.read_graph.s": (v("graph.read_graph", "s"), "s"),
        "graph.all_pairs_distances.calls": (v("graph.all_pairs_distances", "calls"), "count"),
        "graph.all_pairs_distances.s": (v("graph.all_pairs_distances", "s"), "s"),
        "metric.interval.calls": (v("metric.interval", "calls"), "count"),
        "metric.interval.self_s": (v("metric.interval", "self_s"), "s"),
        "metric.J_set.calls": (v("metric.J_set", "calls"), "count"),
        "metric.J_set.self_s": (v("metric.J_set", "self_s"), "s"),
        "metric.interior_interval.calls": (v("metric.interior_interval", "calls"), "count"),
        "lp.compute_p.s": (v("lp.compute_p", "s"), "s"),
        "lp.has_Gp_connected_medians.s": (v("lp.has_Gp_connected_medians", "s"), "s"),
        "lp.build_Duv.calls": (v("lp.build_Duv", "calls"), "count"),
        "lp.build_Duv.self_s": (v("lp.build_Duv", "self_s"), "s"),
        "lp.matrix_entries": (c["lp.matrix_entries"], "count"),
        "lp.lp_feasible_strict.calls": (v("lp.lp_feasible_strict", "calls"), "count"),
        "lp.lp_feasible_strict.self_s": (v("lp.lp_feasible_strict", "self_s"), "s"),
        "lp.lp_feasible_strict.share": (
            v("lp.lp_feasible_strict", "s") / job_s if job_s else 0.0, "ratio"),
        "lp.feasible_ratio": (c["lp.feasible"] / solves if solves else 0.0, "ratio"),
        "lp.distinct_pairs_per_solve": (pairs / solves if solves else 0.0, "ratio"),
        "lp.distinct_matrices_per_solve": (mats / solves if solves else 0.0, "ratio"),
        "lp.verify_feasibility_result.s": (v("lp.verify_feasibility_result", "s"), "s"),
        "medians.median_set.calls": (v("medians.median_set", "calls"), "count"),
        "medians.median_set.self_s": (v("medians.median_set", "self_s"), "s"),
        "medians.is_p_connected.calls": (v("medians.is_p_connected", "calls"), "count"),
        "oracle.brute_force_oracle.calls": (oracle_calls, "count"),
        "oracle.brute_force_oracle.self_s": (v("oracle.brute_force_oracle", "self_s"), "s"),
        "oracle.hit_ratio": (c["oracle.hits"] / oracle_calls if oracle_calls else 0.0, "ratio"),
        "oracle.profile_budget": (budget, "computed_count"),
    }
    for fn in RECOGNIZERS:
        m[f"recognizers.{fn}.s"] = (v(f"recognizers.{fn}", "s"), "s")
    m.update({
        "recognizers.total.s": (tracer.outer_s["recognizers"], "s"),
        "families.generate.s": (v("families.generate", "s"), "s"),
        "benzenoid.benzenoid.s": (v("benzenoid.benzenoid", "s"), "s"),
        "cli.main.self_s": (v("cli.main", "self_s"), "s"),
        "trace.job_s": (job_s, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return m


def baseline_table(tracer, distinct: dict[int, int],
                   untraced: dict) -> list[dict]:
    """Per-graph rows of the ROADMAP baseline table: untraced job time,
    and LP work counted in the traced pass over the same graphs."""
    latency = dict(untraced["latencies"])
    rows = []
    for root, rec in tracer.per_root.items():
        label = tracer.root_labels.get(root)
        if label in latency:
            rows.append({"graph": label, "time_s": latency[label],
                         "lp_solves": rec["solves"],
                         "distinct_pairs": len(rec["pairs"]),
                         "distinct_matrices": distinct[root]})
    return sorted(rows, key=lambda r: -r["time_s"])


def print_table(rows: list[dict]) -> None:
    print("| graph | time | LP solves | distinct pairs | distinct matrices |")
    print("|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['graph']} | {r['time_s']:.3f} s | {r['lp_solves']} | "
              f"{r['distinct_pairs']} | {r['distinct_matrices']} |")


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "medgraph" / "__init__.py").is_file():
        print(f"error: medgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    with RefClock() as clock:
        return measure(args, clock)


def measure(args, clock: RefClock) -> int:
    start = clock.mark()
    sys.path.insert(0, str(SRC))
    import medgraph
    import numpy
    import networkx
    import workloads
    import_s, import_raw = clock.since(start)
    if Path(medgraph.__file__).resolve().parent != (SRC / "medgraph").resolve():
        print(f"error: imported medgraph from {medgraph.__file__}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    passes = 1 if args.trace else max(1, round(args.seconds / wl.pass_s))
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    graphs_dir = out_dir / "graphs"
    graphs_dir.mkdir(parents=True, exist_ok=True)

    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPS):
        start = clock.mark()
        jobs = wl.setup(args.seed, passes, graphs_dir)
        ref, raw = clock.since(start)
        setup_times.append(ref)
        setup_raw.append(raw)
    setup_s = import_s + statistics.median(setup_times)

    order = f"order/{args.workload}/{args.seed}"
    random.Random(order).shuffle(jobs)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "passes": passes,
              "env": {"python": platform.python_version(),
                      "numpy": numpy.__version__,
                      "networkx": networkx.__version__,
                      "nproc": os.cpu_count(),
                      "blas_threads_pinned_to_1": {v: os.environ[v]
                                                   for v in THREAD_VARS},
                      "default_seed": DEFAULT_SEED,
                      "confirm_seed": CONFIRM_SEED},
              "ref_slice_s": REF_SLICE_S,
              "import_s": import_s, "import_raw_s": import_raw,
              "setup_reps_s": setup_times, "setup_reps_raw_s": setup_raw}
    print(json.dumps({"env": record["env"]}))

    res = run_jobs(jobs, clock)
    lat = [dt for _, dt in res["latencies"]]
    failures = list(res["failures"])
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_jobs = wl.setup(args.seed, 1, graphs_dir)
            random.Random(order).shuffle(traced_jobs)
            traced = run_jobs(traced_jobs, clock, tracer)
        finally:
            tracer.uninstall()
        failures += traced["failures"]
        distinct = distinct_matrices(tracer)
        layers = layer_metrics(tracer, distinct, res["wall_s"],
                               traced["wall_s"])
        metrics = {k: {"value": val, "unit": unit}
                   for k, (val, unit) in layers.items()}
        tracer.write_spans(out_dir / "spans.json")
        if args.workload == "pvalue-families":
            rows = baseline_table(tracer, distinct, res)
            record["baseline_table"] = rows
            print_table(rows)
        attempted = len(jobs) + len(traced_jobs)
    else:
        pct, tail_value = tail(lat)
        record["job_s_tail"] = {"percentile": pct, "samples": len(lat)}
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "job_s.p50": {"value": statistics.median(lat), "unit": "s"},
            "job_s.tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        attempted = len(jobs)

    for label, err in failures[:5]:
        print(f"FAILED {label}: {err}", file=sys.stderr)
    record.update({"raw_wall_s": res["raw_wall_s"],
                   "slice_s": {"count": len(clock.cost),
                               "median": statistics.median(clock.cost),
                               "spent": clock.spent},
                   "latencies": res["latencies"], "failures": failures,
                   "fail_ratio": len(failures) / attempted,
                   "metrics": metrics})
    with open(out_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
