"""Span tracing of cubenet's layers, installed from outside the package.

Every public function of the package modules is replaced, wherever a
package module binds it, by a wrapper that records one span: name,
start, end, parent span and phase ("setup" or "pass").  `UnionFind` is
replaced, where `reliability` and `topology` import it, by a subclass
that counts and times each pass (construction to the component query)
without a span, because a pass costs only tens of microseconds and is
run hundreds of thousands of times.  Nothing in the package is edited;
`uninstall()` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

import cubenet
from cubenet import cli, consensus, gossip, reliability, topology, unionfind

MODULES = (cli, topology, reliability, gossip, consensus)
BINDERS = (cubenet, cli, topology, reliability, gossip, consensus, unionfind)
UNIONFIND_IMPORTERS = (reliability, topology)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, phase, command]
        self.phase = "setup"
        self.command = ""
        self.counters: Counter = Counter()
        self.uf_passes = 0
        self.uf_seconds = 0.0
        self.multiclass_spans: set[int] = set()
        self.gossip_runs: list[tuple[str, float, int]] = []  # (command, seconds, cycles)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.phase, self.command]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_return is not None and self.phase == "pass":
                on_return(idx, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in BINDERS:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    # -- hooks reading work counters from results ------------------------

    def _on_partition(self, idx, args, kwargs, report) -> None:
        topo = args[0] if args else kwargs["topology"]
        if len({lk.class_id for lk in topo.links}) > 1:
            self.multiclass_spans.add(idx)
        c = self.counters
        for e in report.per_state:
            if e.method == "sampled":
                c["reliability.samples"] += e.n_samples
                c["reliability.states_sampled"] += 1
            elif e.method == "exact":
                c["reliability.subsets_enumerated"] += e.n_samples
                c["reliability.states_exact"] += 1
            elif e.method == "skipped":
                c["reliability.states_skipped"] += 1
                c["reliability.skipped_mass"] += e.pi_i

    def _on_gossip(self, idx, args, kwargs, metrics) -> None:
        config = args[1] if len(args) > 1 else kwargs["config"]
        start, end = self.spans[idx][1:3]
        self.gossip_runs.append((self.command, end - start, config.cycles))
        self.counters["gossip.exchanges"] += metrics.total_forwarded // 2

    def _on_consensus(self, idx, args, kwargs, report) -> None:
        self.counters["consensus.distinct_leaders"] += len(set(report.leader_history))

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        hooks = {
            "reliability.partition_tolerance": self._on_partition,
            "gossip.run_gossip": self._on_gossip,
            "consensus.run_consensus": self._on_consensus,
        }
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._replace_everywhere(fn, self._wrap(name, fn, hooks.get(name)))

        from_json = topology.Topology.__dict__["from_json"]
        self._patch(topology.Topology, "from_json",
                    classmethod(self._wrap("topology.from_json", from_json.__func__)))

        tracer = self
        base = unionfind.UnionFind

        class CountingUnionFind(base):
            __slots__ = ("_t0",)

            def __init__(self, n):
                self._t0 = perf_counter()
                base.__init__(self, n)

            def max_component_size(self):
                result = base.max_component_size(self)
                tracer._pass_done(self._t0)
                return result

            def components(self):
                result = base.components(self)
                tracer._pass_done(self._t0)
                return result

        for mod in UNIONFIND_IMPORTERS:
            self._patch(mod, "UnionFind", CountingUnionFind)

    def _pass_done(self, t0: float) -> None:
        if self.phase == "pass":
            self.uf_passes += 1
            self.uf_seconds += perf_counter() - t0

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def inclusive(self, name: str, phases=("pass",)) -> float:
        return sum(e - s for n, s, e, _, ph, _ in self.spans if n == name and ph in phases)

    def calls(self, name: str) -> int:
        return sum(1 for n, _, _, _, ph, _ in self.spans if n == name and ph == "pass")
