"""Output checkers, independent of the search engines under test.

Every checker returns ``None`` when the output is right and a one-line
reason when it is wrong. None of them calls the §4 search: they test
properties of the output against the graph (is it a tree, are its leaves
seeds, is it root-directed) or compare it with a computation of their own
(the generator's recorded links, DuckDB's evaluation of the compiled BGP
SQL, and an enumeration of every connecting tree of at most two edges).
"""
from __future__ import annotations

import json
from collections import Counter

ALL = "ALL_NODES"  # the program's N-set sentinel (compared by value)


def is_n_set(s) -> bool:
    return isinstance(s, str) and s == ALL


# ---- single trees ---------------------------------------------------------

def tree_problem(g, edges, seed_sets, binding, *, uni=False, max_edges=None,
                 nodes=None) -> str | None:
    """Check one connecting tree of ``g``.

    ``edges``: edge ids; ``binding``: {seed-set index: bound node} for the
    concrete seed sets; ``nodes``: the node set the program reported (for a
    0-edge tree it names the single node). The tree must use real edges,
    be connected and acyclic, hold exactly one node of each concrete seed
    set (the bound one), have only seeds as leaves unless an N set is
    present, and be root-directed under UNI.
    """
    edges = set(edges)
    if max_edges is not None and len(edges) > max_edges:
        return f"{len(edges)} edges over MAX {max_edges}"
    ends = []
    for e in edges:
        if e not in g.edges:
            return f"edge {e} is not in the graph"
        ends.append((g.edges[e].src, g.edges[e].dst))
    if edges:
        tree_nodes = {n for pair in ends for n in pair}
    else:
        tree_nodes = set(nodes or binding.values())
        if len(tree_nodes) != 1:
            return f"0-edge tree with {len(tree_nodes)} nodes"
    if nodes is not None and set(nodes) != tree_nodes:
        return "reported nodes differ from the edges' endpoints"
    if len(tree_nodes) != len(edges) + 1:
        return f"{len(edges)} edges on {len(tree_nodes)} nodes is not a tree"
    parent = {n: n for n in tree_nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for s, d in ends:
        rs, rd = find(s), find(d)
        if rs == rd:
            return "edges form a cycle"
        parent[rs] = rd
    seed_nodes = set()
    has_n = False
    for i, s in enumerate(seed_sets):
        if is_n_set(s):
            has_n = True
            continue
        inside = {n for n in tree_nodes if n in s}
        if len(inside) != 1:
            return f"{len(inside)} nodes of seed set {i} in the tree"
        (only,) = inside
        if binding.get(i) != only:
            return f"seed set {i} bound to {binding.get(i)}, tree holds {only}"
        seed_nodes.add(only)
    degree = Counter(n for pair in ends for n in pair)
    if not has_n:
        leaves = {n for n, d in degree.items() if d == 1}
        if not leaves <= seed_nodes:
            return f"non-seed leaves {sorted(leaves - seed_nodes)}"
    if uni:
        indeg = Counter(d for _, d in ends)
        if any(c > 1 for c in indeg.values()):
            return "not root-directed (a node has two incoming tree edges)"
    return None


def _binding(result_tree) -> dict[int, int]:
    return {i: n for i, n in result_tree.seeds}


def results_problem(outcome, g, seed_sets, *, uni=False) -> str | None:
    for rt in outcome.results:
        p = tree_problem(g, rt.edges, seed_sets, _binding(rt), uni=uni,
                         nodes=rt.nodes)
        if p:
            return p
    return None


# ---- search workloads -----------------------------------------------------

def check_whole_graph(outcome, g, seed_sets) -> str | None:
    """Line, Comb and Star: one result, made of every edge of the graph."""
    if len(outcome.results) != 1:
        return f"{len(outcome.results)} results, expected 1"
    if set(outcome.results[0].edges) != set(g.edges):
        return "the result does not hold every edge of the instance"
    return results_problem(outcome, g, seed_sets)


def check_chain(outcome, g, seed_sets, n: int) -> str | None:
    """chain(n): exactly 2^n distinct results, each a path of n edges."""
    distinct = {frozenset(rt.edges) for rt in outcome.results}
    if len(distinct) != len(outcome.results) or len(distinct) != 2 ** n:
        return f"{len(distinct)} distinct of {len(outcome.results)} results, expected {2 ** n}"
    if any(len(rt.edges) != n for rt in outcome.results):
        return f"a result is not a path of {n} edges"
    # With two seed sets, a tree whose leaves are seeds is a seed-to-seed path.
    return results_problem(outcome, g, seed_sets)


def check_one_uni_tree(outcome, g, seed_sets) -> str | None:
    """UNI LIMIT 1: one root-directed tree holding one node per seed set."""
    if len(outcome.results) != 1:
        return f"{len(outcome.results)} results, expected 1"
    return results_problem(outcome, g, seed_sets, uni=True)


# ---- EQL workloads --------------------------------------------------------

def node_matches(g, n: int, conds) -> bool:
    """The benchmark's own evaluation of an EQL node predicate (``=`` on
    ``label`` and ``type``, the only forms the workload queries use)."""
    for c in conds:
        if c.op != "=":
            raise NotImplementedError(f"checker has no {c.op!r} predicate")
        if c.prop == "label" and g.label(n) != c.value:
            return False
        if c.prop == "type" and c.value not in g.types(n):
            return False
    return True


def expected_seed_sets(g, query, tables) -> list[list]:
    """Seed sets of every CTP of ``query``: DuckDB evaluates each BGP's
    compiled SQL over ``tables`` (the graph's pandas tables); a variable
    bound by no BGP takes every node satisfying its predicate, or N."""
    import duckdb

    from repro.eql.bgp import to_sql

    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        bgp_rows = [(set(b.variables()), con.execute(to_sql(b)).fetchdf())
                    for b in query.bgps]
    finally:
        con.close()
    out = []
    for ctp in query.ctps:
        sets = []
        for p in ctp.preds:
            bound = None
            for vs, df in bgp_rows:
                if p.var in vs:
                    vals = {int(v) for v in df[p.var]}
                    bound = vals if bound is None else bound & vals
            if bound is None:
                sets.append(ALL if not p.conds else
                            sorted(n for n in g.nodes if node_matches(g, n, p.conds)))
            else:
                sets.append(sorted(n for n in bound if node_matches(g, n, p.conds)))
        out.append(sets)
    return out


def small_trees(g, seed_sets, *, max_edges: int, uni: bool) -> set:
    """Every connecting tree of at most ``max_edges`` <= 2 edges for a
    two-set CTP, as keys ``(edges, {(set index, seed)})``.

    A tree of at most two edges is a path; it is enumerated from the
    concrete set's node (set 0 or 1) it must hold, then kept only if
    :func:`tree_problem` accepts it. With two concrete sets a 2-edge path
    has both ends as seeds, so only middles outside both sets are tried.
    """
    if len(seed_sets) != 2 or max_edges > 2:
        raise NotImplementedError("small_trees handles m=2, MAX <= 2")
    anchor_idx = 0 if not is_n_set(seed_sets[0]) else 1
    other_idx = 1 - anchor_idx
    anchors = set(seed_sets[anchor_idx])
    other = None if is_n_set(seed_sets[other_idx]) else set(seed_sets[other_idx])
    seeds = anchors | (other or set())
    paths: set = set()  # (edge ids tuple, node tuple)
    for a in anchors:
        paths.add(((), (a,)))
        for x in g.adj_of(a):
            if x.other == a:
                continue
            paths.add(((x.eid,), (a, x.other)))
            if max_edges < 2:
                continue
            w = x.other
            if other is not None and w in seeds:
                continue
            for y in g.adj_of(w):
                if y.eid != x.eid and y.other not in (a, w):
                    if other is None or y.other in other:
                        paths.add(((x.eid, y.eid), (a, w, y.other)))
            if other is None:
                for y in g.adj_of(a):
                    if y.eid > x.eid and y.other not in (a, w):
                        paths.add(((x.eid, y.eid), (w, a, y.other)))
    sets = {anchor_idx: anchors}
    if other is not None:
        sets[other_idx] = other
    as_sets = [sets.get(i, ALL) for i in range(2)]
    out = set()
    for eids, nodes in paths:
        binding = {}
        for i, s in sets.items():
            hit = [n for n in nodes if n in s]
            if len(hit) != 1:
                break
            binding[i] = hit[0]
        else:
            if tree_problem(g, eids, as_sets, binding, uni=uni,
                            max_edges=max_edges, nodes=set(nodes)) is None:
                out.add((frozenset(eids), frozenset(binding.items())))
    return out


def check_ctp_limit(results, full: set, limit: int | None) -> str | None:
    """A LIMIT-ed CTP returns min(LIMIT, |full|) distinct trees, all in
    ``full``."""
    keys = {(frozenset(rt.edges), frozenset(rt.seeds)) for rt in results}
    want = len(full) if limit is None else min(limit, len(full))
    if len(results) != want or len(keys) != want:
        return (f"{len(results)} trees ({len(keys)} distinct), expected "
                f"min(LIMIT {limit}, {len(full)} in the full set) = {want}")
    stray = keys - full
    if stray:
        return f"{len(stray)} trees outside the full set of small trees"
    return None


def check_cdf_rows(rows, g, want: Counter, seed_sets, *, m: int, exact: bool,
                   uni: bool) -> str | None:
    """CDF query rows ``(tl, bl[, bl2], l, l_size)``: the seed tuples occur
    exactly ``want`` times each (``exact``) or at least that often, and
    every ``l`` is a valid tree binding its row's seeds."""
    got = Counter(tuple(r[:m]) for r in rows)
    if exact and got != want:
        return f"{sum(got.values())} rows, expected {sum(want.values())} from the links"
    if not exact and any(got[k] < c for k, c in want.items()):
        return f"rows miss some of the {sum(want.values())} links"
    for r in rows:
        edges = json.loads(r[m])
        if len(edges) != r[m + 1]:
            return "tree size column disagrees with the tree"
        p = tree_problem(g, edges, seed_sets, dict(enumerate(r[:m])), uni=uni)
        if p:
            return p
    return None
