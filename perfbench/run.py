"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it traces every
other operation and prints the per-layer metrics (README.md lists both).
The last line of standard output is the result object; the lines before
it summarise the run, including the reason of every failed operation.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s: from here until the workload is built

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("search-synth", "search-scalefree", "eql")
COUNTERS = ("built", "kept", "pruned", "grows", "merges_tried", "merges_done")

# Operations that fail on every run because of a named fault in the
# program. Any other failed check makes the run incorrect.
KNOWN_FAULTS = {
    ("eql", "distributed J1"): "core/distributed.py applies LIMIT per chunk and never "
                               "after the union",
    ("eql", "distributed J2"): "core/distributed.py spends chunk LIMIT slots on trees "
                               "its post-filter on the union then drops",
}


def prepare_env() -> None:
    """Point the program, Spark, the JVM and Spark's Python workers at the
    checkout: ``src`` goes on PYTHONPATH (the ``mapInPandas`` workers
    import ``repro``), scratch files go under ``perfbench/out``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program at {src}/repro; run from a checkout root")
    sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def jvm_peak_rss_mb(spark) -> float:
    pid = spark._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            if proc.stdin:
                proc.stdin.close()
            proc.wait(timeout=60)


class Runner:
    """Runs whole passes over a workload's operations. In a traced run,
    pass ``n`` traces the operations whose index has the parity of ``n``,
    so two passes trace each operation once and time it once untraced."""

    def __init__(self, wl, tracer=None) -> None:
        self.wl = wl
        self.tracer = tracer

    def run_pass(self, pass_no: int) -> list[dict]:
        return [self._run_op(pass_no, i, op) for i, op in enumerate(self.wl.ops)]

    def _run_op(self, pass_no: int, i: int, op) -> dict:
        import workloads

        spark = self.wl.spark
        if spark is not None:
            # Every query computes its own BGP tables: none reuses a table
            # that an earlier query cached (README, "Work the EQL queries share").
            spark.catalog.clearCache()
        tr = self.tracer if self.tracer and i % 2 == pass_no % 2 else None
        rec = {"key": op.key, "op": op, "traced": tr is not None,
               "jobs": (0, 0, 0, 0), "spans": []}
        if tr:
            group = tr.query = f"{pass_no}:{i}"
            first = len(tr.spans)
            tr.install_query(() if spark is None else (type(spark), type(spark.range(1))),
                             algorithms=op.kind != "eql-distributed")
            if spark is not None:
                spark.sparkContext.setJobGroup(group, op.key)
                mat = workloads.materialize

                def grouped(rep):  # step C's jobs get their own group
                    spark.sparkContext.setJobGroup(group + "/C", op.key)
                    return mat(rep)
                workloads.materialize = tr.wrap(grouped, "materialize")
            span = tr.begin("op", op.key)
        try:
            t = time.perf_counter()
            rec["out"] = op.run()
            rec["s"] = time.perf_counter() - t
        finally:
            if tr:
                tr.end(span)
                tr.uninstall()
                if spark is not None:
                    workloads.materialize = mat
        if tr:
            rec["spans"] = tr.spans[first:]
            if spark is not None:
                rec["jobs"] = self._jobs(group)
        return rec

    def _jobs(self, group: str) -> tuple[int, int, int, int]:
        """Jobs and completed tasks of one operation: in ``evaluate`` and
        in step C."""
        sc = self.wl.spark.sparkContext
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = sc.statusTracker()
        out = []
        for g in (group, group + "/C"):
            jobs = st.getJobIdsForGroup(g)
            tasks = 0
            for j in jobs:
                info = st.getJobInfo(j)
                for s in info.stageIds if info else ():
                    si = st.getStageInfo(s)
                    tasks += si.numCompletedTasks if si else 0
            out += [len(jobs), tasks]
        return tuple(out)


def check_outputs(wl, recs) -> tuple[int, bool]:
    """Check every output, mark failed records and print each reason.
    Returns (failed, correct): a failure other than a known fault makes
    the run incorrect."""
    failures: dict[str, Counter] = defaultdict(Counter)
    for r in recs:
        why = r["op"].check(r["out"])
        r["failed"] = why is not None
        if why:
            failures[r["key"]][why] += 1
    failed = sum(r["failed"] for r in recs)
    print(f"{wl.name}: {len(recs)} operations attempted, {failed} failed")
    for key, reasons in failures.items():
        fault = KNOWN_FAULTS.get((wl.name, key))
        for why, n in reasons.items():
            print(f"  FAILED {key} x{n}: {why}"
                  + (f" [known fault: {fault}]" if fault else " [UNEXPECTED]"))
    return failed, all((wl.name, key) in KNOWN_FAULTS for key in failures)


# ---- metrics ---------------------------------------------------------------

def end_to_end(recs, wall: float, setup_s: float) -> dict:
    per_op = defaultdict(list)
    for r in recs:
        per_op[r["key"]].append(r["s"])
    print("  median latency (s): " + ", ".join(
        f"{k} {statistics.median(v):.3f}" for k, v in per_op.items()))
    lat = [r["s"] for r in recs if not r["failed"]]
    if len(lat) >= 40:  # the highest percentile with 10 samples beyond it
        print(f"  query_s tail: p{100 * (1 - 10 / len(lat)):.1f} = "
              f"{sorted(lat)[-11]:.4f} s over {len(lat)} operations")
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(lat) / wall, "1/s"),
        "query_s_p50": (statistics.median(lat), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(tracer, recs: list[dict]) -> dict[str, float]:
    """Per-layer sums over traced records that hold each operation once."""
    import workloads

    spans = [s for r in recs for s in r["spans"]]
    dur = Counter()
    for s in spans:
        dur[s["name"]] += s["end"] - s["start"]
    m = {
        "lang.parse_s": dur["parse"],
        "eql.evaluate_s": dur["EQLEngine.evaluate"],
        "eql.seed_s": dur["evaluate.collect"],
        "eql.ctp_table_s": dur["evaluate.createDataFrame"],
        "eql.materialize_s": dur["materialize"],
        "core.search_s": dur["search"],
        "dist.ctp_s": dur["distributed_ctp"],
    }
    jobs = [sum(r["jobs"][k] for r in recs) for k in range(4)]
    m.update({"eql.spark_jobs.evaluate": jobs[0], "eql.spark_tasks.evaluate": jobs[1],
              "eql.spark_jobs.materialize": jobs[2],
              "eql.spark_tasks.materialize": jobs[3]})
    stats = []
    seed_nodes = trees = rows = results = dist_trees = 0
    for r in recs:
        out = r["out"]
        if not isinstance(out, workloads.EQLOutput):  # a search outcome
            stats.append(out.stats)
            results += len(out.results)
            continue
        stats += out.stats
        seed_nodes += sum(len(s) for ss in out.seed_sets for s in ss
                          if not isinstance(s, str))
        n_trees = sum(len(t) for t in out.ctp_results)
        trees += n_trees
        if out.distributed:
            dist_trees += n_trees
        else:
            results += n_trees
        rows += len(out.rows or ())
    for c in COUNTERS:
        m[f"core.{c}"] = sum(getattr(s, c) for s in stats)
    m["core.results"] = results
    m["core.merge_yield"] = (m["core.merges_done"] / m["core.merges_tried"]
                             if m["core.merges_tried"] else 0.0)
    m["core.built_per_s"] = (m["core.built"] / m["core.search_s"]
                             if m["core.search_s"] else 0.0)
    m.update({"eql.seed_nodes": seed_nodes, "eql.ctp_trees": trees,
              "eql.result_rows": rows, "dist.trees": dist_trees})
    # The spans of the other layers have no child spans, so their self time
    # is a metric above: lang.parse_s, core.search_s, dist.ctp_s.
    self_s = tracer.self_times(spans)
    for layer in SELF_TIMED:
        m[f"pass_self_s.{layer}"] = self_s[layer]
    m["trace.spans"] = len(spans)
    return m


UNITS = (("_per_s", "1/s"), ("_bytes", "bytes"), ("_mb", "MB"), ("_pct", "%"),
         ("_yield", "ratio"), ("_s", "s"))
# Layers whose self time in the passes is no other metric.
SELF_TIMED = ("eql", "spark", "bench")


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def per_layer(wl, tracer, recs, setup_spans) -> dict:
    """Timings are medians over groups of traced records that hold each
    operation once; counts come from the first group and must repeat."""
    n_ops = len(wl.ops)
    traced = [r for r in recs if r["traced"]]
    groups = [traced[k:k + n_ops] for k in range(0, len(traced) - n_ops + 1, n_ops)]
    per_group = [layer_metrics(tracer, g) for g in groups]
    metrics = {}
    for name in per_group[0]:
        vals = [m[name] for m in per_group]
        timing = unit_of(name) in ("s", "1/s")
        if not timing and len(set(vals)) > 1:
            print(f"  counter {name} differs between traced passes: {vals}")
        metrics[name] = statistics.median(vals) if timing else vals[0]
    setup = Counter()
    for s in setup_spans:
        setup[s["name"]] += s["end"] - s["start"]
    metrics["graph.build_s"] = setup["generator"]
    metrics["graph.edges"] = sum(g.n_edges for g in wl.graphs.values())
    metrics["graph.pickle_bytes"] = sum(len(pickle.dumps(g)) for g in wl.graphs.values())
    # Set-up spans do not nest, so these are the set-up self times of the
    # graph, eql and spark layers.
    metrics["eql.load_s"] = setup["EQLEngine.__init__"]
    metrics["spark.start_s"] = setup["spark.start"]
    # Overhead: median over operations of traced / untraced latency.
    t_lat, u_lat = defaultdict(list), defaultdict(list)
    for r in recs:
        (t_lat if r["traced"] else u_lat)[r["key"]].append(r["s"])
    ratios = [statistics.median(t_lat[k]) / statistics.median(u_lat[k])
              for k in t_lat if statistics.median(u_lat[k]) > 0]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    metrics["spark.jvm_peak_rss_mb"] = (jvm_peak_rss_mb(wl.spark)
                                        if wl.spark is not None else 0.0)
    return {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}


def setup_probe_s(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes (run after the measured loop)."""
    out = []
    for _ in range(n):
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)
    prepare_env()
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install_setup()
        tracer.patch(workloads, "start_spark", "spark.start")
    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if tracer:
        tracer.uninstall()
        setup_spans = list(tracer.spans)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        t = time.perf_counter()
        for op in wl.warmup:
            wl.spark.catalog.clearCache()
            op.run()
        if wl.warmup:
            print(f"warm-up: {len(wl.warmup)} operations in "
                  f"{time.perf_counter() - t:.1f} s")
        runner = Runner(wl, tracer)
        recs, passes = [], 0
        start = time.perf_counter()
        # Whole passes only, and in a traced run whole pairs of passes.
        while (passes < wl.min_passes or time.perf_counter() - start < args.seconds
               or tracer and passes % 2):
            recs += runner.run_pass(passes)
            passes += 1
        wall = time.perf_counter() - start
        print(f"{passes} passes in {wall:.1f} s")
        failed, correct = check_outputs(wl, recs)
        if tracer:
            metrics = per_layer(wl, tracer, recs, setup_spans)
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        else:
            metrics = end_to_end(recs, wall, setup_s)
    finally:
        if wl.spark is not None:
            stop_spark(wl.spark)
    if not tracer and wl.setup_samples > 1:
        samples = [setup_s] + setup_probe_s(args, wl.setup_samples - 1)
        metrics["setup_s"] = (statistics.median(samples), "s")
        print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in samples)}")
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
