"""What the span tracer in perfbench/ relies on.

The tracer patches the package from outside: every public function
where a package module binds it, `Topology.from_json`, and `UnionFind`
where `topology` and `reliability` import it.  These tests install it
around a small traced workload and check that it recorded spans and
that `uninstall()` puts every original back.
"""
import sys
from pathlib import Path

import cubenet
from cubenet import RecursionSpec, reliability, topology, unionfind

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer as perf_tracer  # noqa: E402


def _bindings() -> dict:
    """Identity of every name the tracer may patch."""
    out = {(mod.__name__, attr): id(value)
           for mod in perf_tracer.BINDERS for attr, value in vars(mod).items()}
    out["Topology.from_json"] = id(topology.Topology.__dict__["from_json"])
    return out


def test_names_the_tracer_patches():
    assert isinstance(topology.Topology.__dict__["from_json"], classmethod)
    for mod in perf_tracer.UNIONFIND_IMPORTERS:
        assert mod.UnionFind is unionfind.UnionFind


def test_install_records_spans_and_uninstall_restores():
    before = _bindings()
    tracer = perf_tracer.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        tracer.phase = "pass"
        built = cubenet.build_recursive(RecursionSpec.symmetric(2, 2))
        loaded = topology.Topology.from_json(built.to_json())
        report = reliability.partition_tolerance(loaded, budget=200, seed=0)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = [span[0] for span in tracer.spans]
    for name in ("topology.build_recursive", "topology.from_json",
                 "reliability.partition_tolerance"):
        assert name in names
    assert report.method == "sampled"  # two link classes: the multi-class sampler
    assert len(tracer.multiclass_spans) == 1
    assert tracer.counters["reliability.states_sampled"] == len(report.per_state)


def test_forest_analysis_adds_no_state_counters():
    """A forest goes to the exact DP: its report has no per-state rows,
    so the tracer counts no states and no samples, and one link class
    marks no multi-class span."""
    tracer = perf_tracer.Tracer()
    tracer.install()
    try:
        tracer.phase = "pass"
        report = reliability.partition_tolerance(cubenet.build_rooted_tree(64, 6))
    finally:
        tracer.uninstall()
    assert (report.method, report.per_state) == ("exact-tree", [])
    assert "reliability.partition_tolerance" in [span[0] for span in tracer.spans]
    assert tracer.multiclass_spans == set()
    for name in ("samples", "states_sampled", "subsets_enumerated", "states_exact",
                 "states_skipped", "skipped_mass"):
        assert tracer.counters[f"reliability.{name}"] == 0
