"""Spans around the program's public calls, recorded from outside it.

:class:`Tracer` wraps, for the length of a traced pass, the calls each
layer is entered through (``LAYERS`` below names the layer of each span):
the graph generators, ``parse``, ``EQLEngine.__init__``/``evaluate``, the
entries of ``core.ALGORITHMS`` (which ``evaluate`` looks up at call time),
``core.distributed.distributed_ctp``, and ``DataFrame.collect`` /
``SparkSession.createDataFrame`` when called directly by ``evaluate``.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = {
    "generator": "graph",
    "parse": "lang",
    "EQLEngine.__init__": "eql",
    "EQLEngine.evaluate": "eql",
    "search": "core",
    "distributed_ctp": "core.distributed",
    "spark.start": "spark",
    "evaluate.collect": "spark",        # steps A + B1: seed sets
    "evaluate.createDataFrame": "spark",  # step B3: CTP tables
    "materialize": "spark",             # step C: join + projection
    "op": "bench",
}
LAYER_NAMES = ("graph", "lang", "eql", "core", "core.distributed", "spark", "bench")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.query: str | None = None
        self._undo: list = []

    # ---- spans -----------------------------------------------------------
    def begin(self, name: str, detail: str = "") -> dict:
        s = {"name": name, "layer": LAYERS[name], "detail": detail,
             "query": self.query, "start": time.perf_counter(), "end": None,
             "parent": self._stack[-1]["id"] if self._stack else None,
             "id": len(self.spans)}
        self.spans.append(s)
        self._stack.append(s)
        return s

    def end(self, s: dict) -> None:
        s["end"] = time.perf_counter()
        popped = self._stack.pop()
        assert popped is s, "spans must nest"

    def innermost(self) -> str | None:
        return self._stack[-1]["name"] if self._stack else None

    def wrap(self, fn, name: str, detail: str = "", when=None):
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            s = self.begin(name, detail)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(s)
        wrapper.__wrapped__ = fn
        return wrapper

    # ---- patching --------------------------------------------------------
    def patch(self, owner, attr, name, detail="", when=None):
        orig = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = self.wrap(orig, name, detail, when)
        if isinstance(owner, dict):
            owner[attr] = wrapped
            self._undo.append(lambda: owner.__setitem__(attr, orig))
        else:
            setattr(owner, attr, wrapped)
            self._undo.append(lambda: setattr(owner, attr, orig))

    def install_setup(self) -> None:
        """Wrap the generators (called only while setting up)."""
        from repro.graph import generators, random_graphs

        for mod, names in ((generators, ("line", "comb", "star", "chain", "cdf")),
                           (random_graphs, ("dbpedia_lite", "yago_lite",
                                            "sample_ctp_workload"))):
            for n in names:
                self.patch(mod, n, "generator", n)
        from repro.eql import engine as eql_engine

        self.patch(eql_engine.EQLEngine, "__init__", "EQLEngine.__init__")

    def install_query(self, spark_classes=(), algorithms=True) -> None:
        """Wrap the calls an operation makes. ``algorithms=False`` leaves
        ``core.ALGORITHMS`` alone: ``distributed_ctp`` ships that dict to
        Spark's workers, which must get the program's own functions."""
        from repro import core, lang
        from repro.core import distributed
        from repro.eql import engine as eql_engine

        self.patch(lang, "parse", "parse")
        self.patch(eql_engine.EQLEngine, "evaluate", "EQLEngine.evaluate")
        for algo in list(core.ALGORITHMS) if algorithms else ():
            self.patch(core.ALGORITHMS, algo, "search", algo)
        self.patch(distributed, "distributed_ctp", "distributed_ctp")
        in_evaluate = lambda: self.innermost() == "EQLEngine.evaluate"  # noqa: E731
        for cls in spark_classes:
            if hasattr(cls, "collect"):
                self.patch(cls, "collect", "evaluate.collect", when=in_evaluate)
            if hasattr(cls, "createDataFrame"):
                self.patch(cls, "createDataFrame", "evaluate.createDataFrame",
                            when=in_evaluate)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ---- summaries -------------------------------------------------------
    def self_times(self, spans: list[dict]) -> dict[str, float]:
        """Per layer: span durations minus the part their children cover."""
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for s in spans:
            out[s["layer"]] += (s["end"] - s["start"]) - child[s["id"]]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
