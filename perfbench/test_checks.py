"""The benchmark's checkers accept right outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from repro.core import ALGORITHMS  # noqa: E402
from repro.core.tree import ResultTree  # noqa: E402
from repro.graph import generators as gen  # noqa: E402
from repro.graph.model import Edge, LocalGraph  # noqa: E402


def outcome(results):
    return SimpleNamespace(results=list(results))


def drop_edge(rt: ResultTree) -> ResultTree:
    return replace(rt, edges=rt.edges - {min(rt.edges)})


def test_whole_graph_accepts_search_and_rejects_dropped_edge():
    b = gen.comb(3, 1, 2, 2)
    out = ALGORITHMS["MoLESP"](b.graph, b.seed_sets)
    assert checks.check_whole_graph(out, b.graph, b.seed_sets) is None
    (rt,) = out.results
    assert checks.check_whole_graph(outcome([drop_edge(rt)]), b.graph, b.seed_sets)


def test_chain_counts_distinct_paths():
    b = gen.chain(4)
    out = ALGORITHMS["GAM"](b.graph, b.seed_sets)
    assert checks.check_chain(out, b.graph, b.seed_sets, 4) is None
    assert checks.check_chain(outcome(out.results[1:]), b.graph, b.seed_sets, 4)
    doubled = outcome(out.results[:-1] + out.results[:1])
    assert checks.check_chain(doubled, b.graph, b.seed_sets, 4)
    short = outcome([drop_edge(out.results[0])] + out.results[1:])
    assert checks.check_chain(short, b.graph, b.seed_sets, 4)


def test_tree_rejects_second_seed_of_one_set():
    b = gen.line(3, 1)                      # A - 1 - B - 2 - C
    a, bb, c = (s[0] for s in b.seed_sets)
    edges = set(b.graph.edges)
    assert checks.tree_problem(b.graph, edges, b.seed_sets, {0: a, 1: bb, 2: c}) is None
    two_of_set0 = [[a, c], [bb]]
    why = checks.tree_problem(b.graph, edges, two_of_set0, {0: a, 1: bb})
    assert why and "seed set 0" in why


def test_one_uni_tree_rejects_wrong_direction_and_extra_result():
    # r -> x, r -> y: root-directed from r; x -> z <- y is not.
    g = LocalGraph([Edge(0, 0, "p", 1), Edge(1, 0, "p", 2),
                    Edge(2, 1, "p", 3), Edge(3, 2, "p", 3)])
    seeds = [[1], [2]]
    good = ResultTree(frozenset({0, 1}), frozenset({0, 1, 2}),
                      frozenset({(0, 1), (1, 2)}))
    bad = ResultTree(frozenset({2, 3}), frozenset({1, 2, 3}),
                     frozenset({(0, 1), (1, 2)}))
    assert checks.check_one_uni_tree(outcome([good]), g, seeds) is None
    assert "root-directed" in checks.check_one_uni_tree(outcome([bad]), g, seeds)
    assert checks.check_one_uni_tree(outcome([good, good]), g, seeds)


def small_graph():
    #   0 -a-> 1 -b-> 2 ,  0 -c-> 3 -d-> 2 ,  0 -e-> 2 ,  4 -f-> 0
    return LocalGraph([Edge(0, 0, "a", 1), Edge(1, 1, "b", 2), Edge(2, 0, "c", 3),
                       Edge(3, 3, "d", 2), Edge(4, 0, "e", 2), Edge(5, 4, "f", 0)])


def test_small_trees_enumerates_paths_between_two_sets():
    g = small_graph()
    full = checks.small_trees(g, [{0}, {2}], max_edges=2, uni=False)
    keys = {tuple(sorted(e)) for e, _ in full}
    assert keys == {(4,), (0, 1), (2, 3)}
    uni = checks.small_trees(g, [{2}, {4}], max_edges=2, uni=True)
    assert {tuple(sorted(e)) for e, _ in uni} == {(4, 5)}   # 4 -> 0 -> 2


def test_small_trees_with_an_n_set():
    g = small_graph()
    full = checks.small_trees(g, [{2}, checks.ALL], max_edges=1, uni=False)
    assert {tuple(sorted(e)) for e, _ in full} == {(), (1,), (3,), (4,)}


def test_limit_check_rejects_over_limit_and_foreign_trees():
    g = small_graph()
    sets = [{0}, {2}]
    full = checks.small_trees(g, sets, max_edges=2, uni=False)
    trees = [ResultTree(e, frozenset(), s) for e, s in sorted(full, key=str)]
    assert checks.check_ctp_limit(trees[:2], full, 2) is None
    assert checks.check_ctp_limit(trees, full, 5) is None
    assert "expected" in checks.check_ctp_limit(trees, full, 2)       # over LIMIT
    assert "expected" in checks.check_ctp_limit(trees[:1], full, 2)   # too few
    foreign = ResultTree(frozenset({5}), frozenset(), frozenset({(0, 0), (1, 2)}))
    assert "outside" in checks.check_ctp_limit(trees[:1] + [foreign], full, 2)


def test_cdf_rows_need_every_link_once():
    b = gen.cdf(2, n_t=2, n_l=3, s_l=2, seed=1)
    g = b.graph
    tops = {l[0] for l in b.links}
    bottoms = {l[1] for l in b.links}
    rows = []
    for tl, bl in b.links:
        path, cur = [], tl
        while cur != bl:  # the link is the only "L" path out of tl towards bl
            a = next(a for a in g.adj_of(cur)
                     if a.outgoing and g.edges[a.eid].label == "L"
                     and a.eid not in path)
            path.append(a.eid)
            cur = a.other
        rows.append((tl, bl, json.dumps(sorted(path)), len(path)))
    want = Counter(map(tuple, b.links))
    sets = [set(g.nodes) & tops, set(g.nodes) & bottoms]
    assert len(b.links) == len(set(b.links)), "distinct links keep this test simple"
    assert checks.check_cdf_rows(rows, g, want, sets, m=2, exact=True, uni=True) is None
    assert checks.check_cdf_rows(rows[1:], g, want, sets, m=2, exact=True, uni=True)
    assert checks.check_cdf_rows(rows + rows[:1], g, want, sets, m=2, exact=True,
                                 uni=True)
    assert checks.check_cdf_rows(rows + rows[:1], g, want, sets, m=2, exact=False,
                                 uni=True) is None
    broken = [(tl, bl, json.dumps(sorted(json.loads(t))[1:]), n - 1)
              for tl, bl, t, n in rows]
    assert checks.check_cdf_rows(broken, g, want, sets, m=2, exact=True, uni=True)
