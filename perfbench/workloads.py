"""The three benchmark workloads: their inputs, operations and checkers.

An operation is one CTP search call or one EQL query. ``build(name, seed)``
makes a workload's inputs and returns a :class:`Workload`; every pass runs
all of its operations once. The program is only reached through its
public entry points, looked up at call time so that the tracer's wrappers
(see ``tracing.py``) see every call: ``repro.core.ALGORITHMS[...]`` for
search, ``EQLEngine``, ``EQLEngine.evaluate`` and
``report.result.collect()`` for EQL.
"""
from __future__ import annotations

import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import checks

SEARCH_TIMEOUT_S = 60.0  # far above the slowest operation (about 4.6 s)

# The Fig 13/14 CDF queries (repro.experiments.cdf_eql) and Table 1's
# J1-J3 (repro.experiments.table1_yago), copied so that a change to the
# experiment modules cannot change the benchmark.
Q_M2 = '''
SELECT tl, bl, l
WHERE (x, "c", tl)
AND (v, "g", bl)
AND CTP(tl, bl, *l)
'''
Q_M3 = '''
SELECT tl, bl1, bl2, l
WHERE (x, "c", tl)
AND (v, "g", bl1)
AND (v, "h", bl2)
AND CTP(tl, bl1, bl2, *l)
'''
J1 = '''
SELECT x, o, t1, t2
WHERE (x{type="person"}, "knows", y)
AND (o{type="organization"}, "locatedIn", c)
AND (p{type="place"}, "partOf", q)
AND CTP(x, o, *t1) MAX 2 LIMIT 200
AND CTP(o, p, *t2) MAX 2 LIMIT 200
'''
J2 = '''
SELECT y, z, t
WHERE (x{type="person"}, "knows", y)
AND (z{type="organization"}, "locatedIn", p)
AND CTP(y, z, *t) MAX 2 LIMIT 200
'''
J3 = '''
SELECT a, n, t
WHERE CTP(a{label="e0"}, n, *t) MAX 2 UNI LIMIT 500
'''

CDF_SIZE = dict(n_t=32, n_l=64, s_l=3)  # the smallest Fig 13/14 instance
YAGO_SCALE, YAGO_SEED = 0.1, 11          # Table 1's graph, at 4k edges
DBPEDIA_SCALE, DBPEDIA_SEED = 1.0, 7     # Fig 12's graph: 50k edges
# Distributed mode runs a subset: the benchmark's time budget (every run
# of every workload within one hour) does not hold all seven twice.
DISTRIBUTED = ("CDF m=2", "J1", "J2", "J3")
SCALEFREE_SEED_DEGREE = (100, 500)  # the busiest seed of a query, see below
# Fig 12's m=3 query 0: its busiest seed has degree 2,175 (a hub); 1,417
# trees are built before the first result, in 3.4-4.6 s here.
SCALEFREE_HUB = (3, 0)


@dataclass
class Op:
    key: str                              # stable across runs and seeds
    run: Callable[[], object]             # timed; returns the output
    check: Callable[[object], str | None]  # after the run: None or why wrong
    kind: str = "search"


@dataclass
class Workload:
    name: str
    ops: list[Op]
    graphs: dict = field(default_factory=dict)   # name -> LocalGraph
    spark: object = None
    setup_samples: int = 1  # set-ups per run that ``setup_s`` is the median of
    # Passes per run at the least. A search pass takes 6-10.5 s here: at
    # run_seconds 10 a run would make one or two passes as the machine's
    # speed drifts, and its figures would then jump with the pass count.
    min_passes: int = 1
    # Run once, untimed and unchecked, after set-up and before the passes.
    warmup: list[Op] = field(default_factory=list)


# ---- search ----------------------------------------------------------------

def _search_op(key, g, seed_sets, algo, filters, check) -> Op:
    from repro import core

    def run():
        return core.ALGORITHMS[algo](g, seed_sets, filters=filters)

    def checked(outcome):
        if outcome.timed_out or not outcome.completed and not outcome.limit_hit:
            return f"search stopped early (timed_out={outcome.timed_out})"
        return check(outcome)

    return Op(key, run, checked)


def search_synth(seed: int) -> Workload:
    from repro.core.filters import CTPFilters
    from repro.graph import generators as gen

    f = CTPFilters(timeout_s=SEARCH_TIMEOUT_S)
    ops, graphs = [], {}
    big = {"Line(10,8)": gen.line(10, 8), "Comb(6,1,2,2)": gen.comb(6, 1, 2, 2),
           "Star(9,3)": gen.star(9, 3), "chain(10)": gen.chain(10)}
    small = {"Line(10,2)": gen.line(10, 2), "Comb(4,1,2,2)": gen.comb(4, 1, 2, 2)}
    for algos, instances in ((("GAM", "MoLESP"), big),
                             (("BFT", "BFT-M", "BFT-AM"), small)):
        for name, b in instances.items():
            graphs[name] = b.graph
            if name.startswith("chain"):
                def check(o, b=b):
                    return checks.check_chain(o, b.graph, b.seed_sets, 10)
            else:
                def check(o, b=b):
                    return checks.check_whole_graph(o, b.graph, b.seed_sets)
            for algo in algos:
                ops.append(_search_op(f"{algo} {name}", b.graph, b.seed_sets,
                                      algo, f, check))
    random.Random(seed).shuffle(ops)
    return Workload("search-synth", ops, graphs, setup_samples=3, min_passes=2)


def scalefree_queries(g) -> dict[str, list[list[int]]]:
    """Fig 12's directed one-hop workloads (sampler seed m): for each m,
    the first whose busiest seed has a degree in ``SCALEFREE_SEED_DEGREE``,
    and the hub query ``SCALEFREE_HUB``. Below degree 100 most searches end
    within a few milliseconds, too short to time steadily. Above 500 (the
    top 1% of nodes) single searches take from 0.04 s to past 12 s; the hub
    query is one of the slow ones that still ends well within its timeout."""
    from repro.graph.random_graphs import sample_ctp_workload

    lo, hi = SCALEFREE_SEED_DEGREE
    out = {}
    for m in range(2, 7):
        sampled = sample_ctp_workload(g, m=m, n_queries=16, seed=m,
                                      mode="directed", max_hops=1)
        busiest = [max(g.degree[s[0]] for s in q) for q in sampled]
        qi = next(i for i, d in enumerate(busiest) if lo <= d <= hi)
        out[f"m={m} q{qi}"] = sampled[qi]
        if m == SCALEFREE_HUB[0]:
            qi = SCALEFREE_HUB[1]
            assert busiest[qi] > hi, busiest[qi]
            out[f"m={m} q{qi} hub"] = sampled[qi]
    return out


def search_scalefree(seed: int) -> Workload:
    from repro.core.filters import CTPFilters
    from repro.graph.random_graphs import dbpedia_lite

    g = dbpedia_lite(scale=DBPEDIA_SCALE, seed=DBPEDIA_SEED)
    f = CTPFilters(uni=True, limit=1, timeout_s=SEARCH_TIMEOUT_S)
    ops = []
    for name, seed_sets in scalefree_queries(g).items():
        # The hub query takes 3.4-4.6 s per algorithm: it runs under MoLESP,
        # the paper's algorithm, only, so that a pass stays near 10 s.
        for algo in ("MoLESP",) if name.endswith("hub") else ("GAM", "MoLESP"):
            ops.append(_search_op(
                f"{algo} {name}", g, seed_sets, algo, f,
                lambda o, s=seed_sets: checks.check_one_uni_tree(o, g, s)))
    random.Random(seed).shuffle(ops)
    return Workload("search-scalefree", ops, {"dbpedia_lite": g}, setup_samples=5,
                    min_passes=2)


# ---- EQL -------------------------------------------------------------------

def start_spark():
    """A SparkSession built as ``jobs/_session.py`` builds it: local mode
    on at most 4 cores, 16 shuffle partitions, broadcast joins off."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["SPARK_MASTER"] = f"local[{min(4, os.cpu_count() or 1)}]"
    os.environ["SPARK_DRIVER_MEM"] = "2g"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = "16"
    sys.path.insert(0, os.path.join(root, "jobs"))
    from _session import get_spark

    return get_spark("perfbench")


@dataclass
class EQLOutput:
    seed_sets: list
    ctp_results: list          # per CTP: list[ResultTree]
    timed_out: bool
    stats: list                # per CTP: SearchStats (empty when distributed)
    distributed: bool
    rows: list | None = None   # None when the query was stopped early
    early_failure: str | None = None


def _eql_op(key, engine, text, mode, kwargs, check) -> Op:
    from repro import lang
    from repro.core.filters import CTPFilters

    defaults = CTPFilters(timeout_s=SEARCH_TIMEOUT_S)

    def run():
        q = lang.parse(text)
        rep = engine.evaluate(q, algo="MoLESP", default_filters=defaults,
                              ctp_mode=mode, **kwargs)
        out = EQLOutput(rep.seed_sets, [o.results for o in rep.ctp_outcomes],
                        any(o.timed_out for o in rep.ctp_outcomes),
                        [o.stats for o in rep.ctp_outcomes], mode == "distributed")
        for i, (c, res) in enumerate(zip(q.ctps, out.ctp_results)):
            # A CTP over its LIMIT is wrong whatever the rest: stop before
            # joining its (possibly large) table.
            if c.filters.limit is not None and len(res) > c.filters.limit:
                out.early_failure = (
                    f"CTP {i} returned {len(res)} trees under LIMIT {c.filters.limit}")
                return out
        out.rows = [tuple(r) for r in materialize(rep)]
        return out

    def checked(out):
        if out.early_failure:
            return out.early_failure
        if out.timed_out:
            return "a CTP search hit its timeout"
        return check(out)

    return Op(key, run, checked, kind=f"eql-{mode}")


def materialize(rep):
    """Step C: run the join and projection (the tracer wraps this)."""
    return rep.result.collect()


def eql(seed: int) -> Workload:
    from repro.eql import EQLEngine
    from repro.graph import generators as gen
    from repro.graph.random_graphs import yago_lite

    spark = start_spark()
    c2 = gen.cdf(2, seed=seed, **CDF_SIZE)
    c3 = gen.cdf(3, seed=seed, **CDF_SIZE)
    y = yago_lite(scale=YAGO_SCALE, seed=YAGO_SEED)
    engines = {"cdf2": EQLEngine(spark, c2.graph), "cdf3": EQLEngine(spark, c3.graph),
               "yago": EQLEngine(spark, y)}
    graphs = {"cdf2": c2.graph, "cdf3": c3.graph, "yago": y}
    expected: dict = {}  # (graph, query text) -> seed sets, computed once
    full: dict = {}      # (query text, CTP index) -> every tree of <= MAX edges

    def seed_sets_of(gname, text):
        from repro import lang

        if (gname, text) not in expected:
            g = graphs[gname]
            expected[gname, text] = checks.expected_seed_sets(
                g, lang.parse(text), g.to_pandas())
        return expected[gname, text]

    def seeds_problem(out, gname, text):
        got = [[s if checks.is_n_set(s) else sorted(s) for s in ss]
               for ss in out.seed_sets]
        if got != seed_sets_of(gname, text):
            return "seed sets differ from DuckDB's evaluation of the BGP SQL"
        return None

    def cdf_check(bundle, gname, text, m, uni, exact):
        links = Counter(map(tuple, bundle.links))
        if m == 3 and uni:
            # k links joining one top leaf to one bottom pair give k * k
            # root-directed trees: each leaf may take its branch from any
            # of the k links (their stems only share the top leaf).
            links = Counter({k: c * c for k, c in links.items()})

        def check(out):
            p = seeds_problem(out, gname, text)
            if p:
                return p
            sets = [set(s) for s in seed_sets_of(gname, text)[0]]
            return checks.check_cdf_rows(out.rows, bundle.graph, links, sets,
                                         m=m, exact=exact, uni=uni)
        return check

    def j_check(text):
        from repro import lang

        q = lang.parse(text)

        def check(out):
            p = seeds_problem(out, "yago", text)
            if p:
                return p
            for i, (c, sets) in enumerate(zip(q.ctps, seed_sets_of("yago", text))):
                if (text, i) not in full:
                    full[text, i] = checks.small_trees(
                        y, [s if checks.is_n_set(s) else set(s) for s in sets],
                        max_edges=c.filters.max_edges, uni=c.filters.uni)
                p = checks.check_ctp_limit(out.ctp_results[i], full[text, i],
                                           c.filters.limit)
                if p:
                    return f"CTP {i}: {p}"
            if not out.rows:
                return "no result rows"
            return None
        return check

    m2_uni, m3_uni = Q_M2.replace("*l)", "*l) UNI"), Q_M3.replace("*l)", "*l) UNI")
    specs = [
        ("CDF m=2", "cdf2", Q_M2, {}, cdf_check(c2, "cdf2", Q_M2, 2, False, True)),
        ("CDF m=2 UNI", "cdf2", m2_uni, {}, cdf_check(c2, "cdf2", m2_uni, 2, True, True)),
        ("CDF m=3", "cdf3", Q_M3, {}, cdf_check(c3, "cdf3", Q_M3, 3, False, False)),
        ("CDF m=3 UNI", "cdf3", m3_uni, {}, cdf_check(c3, "cdf3", m3_uni, 3, True, True)),
        ("J1", "yago", J1, {}, j_check(J1)),
        ("J2", "yago", J2, {"multi_queue": True}, j_check(J2)),
        ("J3", "yago", J3, {}, j_check(J3)),
    ]
    ops = [_eql_op(f"{mode} {key}", engines[gname], text, mode, kw, check)
           for mode in ("local", "distributed")
           for key, gname, text, kw, check in specs
           if mode == "local" or key in DISTRIBUTED]
    # The JVM's first queries run 2-3 times slower. One distributed query,
    # untimed, warms up the Spark calls of both modes and starts Spark's
    # Python workers, which distributed mode reuses.
    warmup = [_eql_op("distributed CDF m=2 UNI", engines["cdf2"], m2_uni,
                      "distributed", {}, None)]
    return Workload("eql", ops, graphs, spark=spark, warmup=warmup)


FACTORIES = {"search-synth": search_synth, "search-scalefree": search_scalefree,
            "eql": eql}


def build(name: str, seed: int) -> Workload:
    return FACTORIES[name](seed)
