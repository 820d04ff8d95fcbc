"""cubenet benchmark: drives the CLI in-process and prints one JSON result line.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

A run is one process and a closed loop: one command at a time, no
threads or pools.  It imports the package from `src/` of the checkout,
sets up the workload's topology files, then repeats passes over the
workload's commands until the next pass would overrun `--seconds`
(always at least one).  Every command's output is checked; a command
that exits nonzero or fails its check counts in `failed`.

`--trace 0` reports the end-to-end metrics (medians over passes).
`--trace 1` runs one untraced pass, then one traced set-up and one
traced pass, then the capability probe, and reports the per-layer
metrics (see README.md).  The last stdout line is the result object;
the line before it holds information that is not gated (environment,
code size, per-command times, set-up repetitions).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 3
PROBE_BUDGET = 50
TX_RATE = 60000.0
# Link class of every single-class graph here (5000 km): MTBF, MTTR in hours.
MTBF_5000, MTTR_5000 = 2190.0, 24.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = (
    "tables3", "analyze_large", "analyze_multiclass", "analyze_cycle",
    "gossip_small", "gossip_large", "consensus_random", "consensus_rotate",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in COMMAND_METRICS},
    "topology.build_recursive_s": "s",
    "topology.from_json_s": "s",
    "topology.max_component_size_calls": "count",
    "topology.max_component_size_s": "s",
    "topology.self_s": "s",
    "unionfind.passes": "count",
    "unionfind.pass_us": "us",
    "reliability.stationary_s": "s",
    "reliability.conditional_wrong_prob_s": "s",
    "reliability.samples": "count",
    "reliability.subsets_enumerated": "count",
    "reliability.states_exact": "count",
    "reliability.states_sampled": "count",
    "reliability.states_skipped": "count",
    "reliability.skipped_mass": "prob",
    "reliability.multiclass_s": "s",
    "reliability.analyze_hierarchical_s": "s",
    "reliability.self_s": "s",
    "gossip.cycle_us.n64": "us",
    "gossip.cycle_us.n4096": "us",
    "gossip.exchanges": "count",
    "gossip.self_s": "s",
    "consensus.broadcast_time_s": "s",
    "consensus.gather_time_s": "s",
    "consensus.calls": "count",
    "consensus.distinct_leaders": "count",
    "consensus.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "probe.cube12_exit": "code",
    "probe.cube12_s": "s",
    "src.lines": "lines",
}
GOSSIP_CYCLE_METRIC = {"gossip_small": "gossip.cycle_us.n64", "gossip_large": "gossip.cycle_us.n4096"}


def import_package():
    """Import cubenet from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cubenet

    if Path(cubenet.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cubenet imported from {cubenet.__file__}, not from {SRC}")
    import networkx  # noqa: F401  imported lazily by the package's first analysis


@dataclass
class Command:
    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    """`setup(work)` builds and writes the inputs and returns a context;
    `commands(ctx, work, seed)` lists one pass's commands in order."""

    setup: Callable
    commands: Callable
    probe: bool = False


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    from cubenet import cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def topo_build(work: Path, name: str, spec: dict) -> Path:
    """Write a spec file and build it with `cubenet topo build`."""
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = work / f"{name}.topology.json"
    code, err = cli_call(["topo", "build", "--spec", str(spec_path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"topo build {name} exited {code}: {err}")
    return out


# -- workloads ----------------------------------------------------------


def table3_workload(toy: bool) -> Workload:
    """The paper-reproduction job: tables 1 to 3, with Table 3's
    reliability columns (per-state estimation dominates)."""
    import cubenet
    from cubenet import RecursionSpec

    budget = 20 if toy else 4000
    blocks = (
        (64, 6, [RecursionSpec.symmetric(6, 1), RecursionSpec.symmetric(3, 2),
                 RecursionSpec.symmetric(2, 3), RecursionSpec.semi((4, 2))]),
        (4096, 12, [RecursionSpec.symmetric(12, 1), RecursionSpec.symmetric(6, 2),
                    RecursionSpec.symmetric(4, 3), RecursionSpec.semi((5, 4, 3))]),
    )

    def setup(work: Path):
        # Table 3's rows in order: rooted tree, ring lattice, then the
        # cube rows; the census check compares against these graphs.
        # Builders are looked up at call time, so a traced set-up sees them.
        reference = []
        for n, degree, specs in blocks:
            graphs = [cubenet.build_rooted_tree(n, degree), cubenet.build_ring_lattice(n, degree)]
            graphs += [cubenet.build_recursive(spec) for spec in specs]
            for g in graphs:
                by_km = {g.classes[c].distance_km: k for c, k in g.class_census().items()}
                reference.append((n, tuple(by_km.get(d, 0) for d in (5000.0, 3000.0, 420.0))))
        return reference

    def commands(reference, work: Path, seed: int) -> list[Command]:
        t1, t2, t3 = (work / f"table{i}.csv" for i in (1, 2, 3))
        s = ["--seed", str(seed)]
        return [
            Command("tables1", ["tables", "1", "--out", str(t1), *s], t1, checks.check_table1),
            Command("tables2", ["tables", "2", "--out", str(t2), *s], t2, checks.check_table2),
            Command("tables3", ["tables", "3", "--reliability", "--budget", str(budget),
                                "--out", str(t3), *s], t3,
                    lambda p: checks.check_table3(p, reference)),
        ]

    return Workload(setup, commands)


def analyze_workload(toy: bool) -> Workload:
    """`analyze` on three graphs that stress the stationary solve
    (large single-class L), the multi-class sampler, and exact
    enumeration plus the repair-threshold search."""
    ring_n, ring_budget = (48, 20) if toy else (768, 50)
    multi_dim, multi_budget = (2, 500) if toy else (4, 10000)
    cycle_n, cycle_budget, cycle_cap = (16, 500, 1000) if toy else (64, 4000, 100000)
    q = checks.down_prob(MTBF_5000, MTTR_5000)

    def setup(work: Path):
        return {
            "ring": topo_build(work, "ring", {"kind": "ring", "n": ring_n, "degree": 4}),
            "multi": topo_build(work, "multi", {"kind": "recursive", "mode": "symmetric",
                                                "dims": [multi_dim, multi_dim]}),
            "cycle": topo_build(work, "cycle", {"kind": "ring", "n": cycle_n, "degree": 2}),
        }

    def commands(files, work: Path, seed: int) -> list[Command]:
        outs = {name: work / f"{name}.csv" for name in ("large", "multi", "cycle")}
        s = ["--seed", str(seed)]
        multi_n = 2 ** (2 * multi_dim)
        return [
            Command("analyze_large",
                    ["analyze", "partition", "--topology", str(files["ring"]),
                     "--budget", str(ring_budget), "--out", str(outs["large"]), *s],
                    outs["large"], lambda p: checks.check_analyze(p, ring_n, 2 * ring_n, q)),
            Command("analyze_multiclass",
                    ["analyze", "partition", "--topology", str(files["multi"]),
                     "--budget", str(multi_budget), "--out", str(outs["multi"]), *s],
                    outs["multi"],
                    lambda p: checks.check_analyze(p, multi_n, multi_n * multi_dim, None)),
            Command("analyze_cycle",
                    ["analyze", "repair", "--topology", str(files["cycle"]),
                     "--budget", str(cycle_budget), "--enum-cap", str(cycle_cap),
                     "--out", str(outs["cycle"]), *s],
                    outs["cycle"],
                    lambda p: checks.check_cycle(p, cycle_n, MTBF_5000, MTTR_5000)),
        ]

    return Workload(setup, commands, probe=True)


def protocols_workload(toy: bool) -> Workload:
    """Gossip and consensus only; the reliability layer does no work."""
    small_dims, small_cycles = (2, 2, 2), (200 if toy else 5000)
    large_dims, large_cycles = ((3, 3), 20) if toy else ((4, 4, 4), 50)
    rounds, period = (20, 5) if toy else (200, 50)
    fanout = 4  # the CLI default

    def size(dims) -> tuple[int, int]:
        # a recursive hypercube graph is regular with degree sum(dims)
        return 2 ** sum(dims), min(fanout, sum(dims))

    def setup(work: Path):
        return {
            name: topo_build(work, name, {"kind": "recursive", "mode": "symmetric",
                                          "dims": list(dims)})
            for name, dims in (("small", small_dims), ("large", large_dims))
        }

    def commands(files, work: Path, seed: int) -> list[Command]:
        s = ["--seed", str(seed)]
        n_small, f_small = size(small_dims)
        n_large, f_large = size(large_dims)
        outs = {name: work / f"{name}.csv" for name in
                ("gossip_small", "gossip_large", "consensus_random", "consensus_rotate")}
        consensus = ["consensus", "run", "--topology", str(files["large"]),
                     "--rounds", str(rounds), "--tx-rate", repr(TX_RATE), *s]
        return [
            Command("gossip_small",
                    ["gossip", "run", "--topology", str(files["small"]), "--cycles",
                     str(small_cycles), "--delay", "0.5", "--out", str(outs["gossip_small"]), *s],
                    outs["gossip_small"],
                    lambda p: checks.check_gossip(p, small_cycles, n_small * f_small, 0.5)),
            Command("gossip_large",
                    ["gossip", "run", "--topology", str(files["large"]), "--cycles",
                     str(large_cycles), "--out", str(outs["gossip_large"]), *s],
                    outs["gossip_large"],
                    lambda p: checks.check_gossip(p, large_cycles, n_large * f_large, 0.0)),
            Command("consensus_random", [*consensus, "--out", str(outs["consensus_random"])],
                    outs["consensus_random"],
                    lambda p: checks.check_consensus(p, rounds, n_large, TX_RATE, None)),
            Command("consensus_rotate",
                    [*consensus, "--leader-policy", f"rotate:{period}",
                     "--out", str(outs["consensus_rotate"])],
                    outs["consensus_rotate"],
                    lambda p: checks.check_consensus(p, rounds, n_large, TX_RATE, period)),
        ]

    return Workload(setup, commands)


WORKLOADS = {"table3": table3_workload, "analyze": analyze_workload,
             "protocols": protocols_workload}


# -- passes -------------------------------------------------------------


@dataclass
class PassResult:
    times: dict[str, float]
    failed: int
    bytes_out: int

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_pass(commands: list[Command], tracer=None) -> PassResult:
    times: dict[str, float] = {}
    failed = 0
    bytes_out = 0
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd.name
        gc.collect()
        start = perf_counter()
        try:
            code, err = cli_call(cmd.argv)
            times[cmd.name] = perf_counter() - start
            if code:
                problems = [f"exit code {code}: {err.strip()}"]
            else:
                problems = cmd.check(cmd.out)
                bytes_out += cmd.out.stat().st_size
        except Exception:  # a crashing command is a failed operation, not a benchmark crash
            times.setdefault(cmd.name, perf_counter() - start)
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"FAILED {cmd.name}: " + "; ".join(problems), file=sys.stderr)
    return PassResult(times, failed, bytes_out)


def run_probe(work: Path, seed: int) -> tuple[int, float]:
    """`analyze partition` on the 12-cube (N=4096, one link class); not gated."""
    path = topo_build(work, "cube12", {"kind": "hypercube", "dim": 12})
    gc.collect()
    start = perf_counter()
    try:
        code, _ = cli_call(["analyze", "partition", "--topology", str(path), "--budget",
                            str(PROBE_BUDGET), "--seed", str(seed),
                            "--out", str(work / "probe.csv")])
    except Exception:
        traceback.print_exc()
        code = 1
    return code, perf_counter() - start


# -- metrics ------------------------------------------------------------


def layer_metrics(tracer, reference: PassResult, traced: PassResult, probe) -> dict[str, float]:
    spans = tracer.spans
    own = tracer.self_times()
    in_pass = [i for i, s in enumerate(spans) if s[4] == "pass"]

    def layer_self(layer: str) -> float:
        return sum(own[i] for i in in_pass if spans[i][0].startswith(layer + "."))

    c = tracer.counters
    m: dict[str, float] = {f"{name}_s": reference.times.get(name, 0.0) for name in COMMAND_METRICS}
    m.update({
        "topology.build_recursive_s": tracer.inclusive("topology.build_recursive",
                                                       ("setup", "pass")),
        "topology.from_json_s": tracer.inclusive("topology.from_json"),
        "topology.max_component_size_calls": tracer.calls("topology.max_component_size"),
        "topology.max_component_size_s": tracer.inclusive("topology.max_component_size"),
        "topology.self_s": layer_self("topology"),
        "unionfind.passes": tracer.uf_passes,
        "unionfind.pass_us": 1e6 * tracer.uf_seconds / tracer.uf_passes if tracer.uf_passes else 0.0,
        "reliability.stationary_s": tracer.inclusive("reliability.stationary"),
        "reliability.conditional_wrong_prob_s": tracer.inclusive("reliability.conditional_wrong_prob"),
        "reliability.multiclass_s": sum(own[i] for i in tracer.multiclass_spans),
        "reliability.analyze_hierarchical_s": tracer.inclusive("reliability.analyze_hierarchical"),
        "reliability.self_s": layer_self("reliability"),
        "gossip.self_s": layer_self("gossip"),
        "consensus.broadcast_time_s": tracer.inclusive("consensus.broadcast_time"),
        "consensus.gather_time_s": tracer.inclusive("consensus.gather_time"),
        "consensus.calls": tracer.calls("consensus.broadcast_time")
        + tracer.calls("consensus.gather_time"),
        "consensus.self_s": layer_self("consensus"),
        "cli.self_s": layer_self("cli"),
        "cli.bytes_out": traced.bytes_out,
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - reference.wall,
        "probe.cube12_exit": probe[0],
        "probe.cube12_s": probe[1],
        "src.lines": source_lines(),
    })
    for name in ("samples", "subsets_enumerated", "states_exact", "states_sampled",
                 "states_skipped", "skipped_mass"):
        m[f"reliability.{name}"] = c[f"reliability.{name}"]
    for key in ("gossip.exchanges", "consensus.distinct_leaders"):
        m[key] = c[key]
    for metric in GOSSIP_CYCLE_METRIC.values():
        m[metric] = 0.0
    for command, seconds, cycles in tracer.gossip_runs:
        m[GOSSIP_CYCLE_METRIC[command]] = 1e6 * seconds / cycles
    return m


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "cubenet").glob("*.py")))


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": source_lines(),
    }


def measure(args) -> dict:
    t0 = perf_counter()
    import_package()
    import_s = perf_counter() - t0

    workload = WORKLOADS[args.workload](args.toy)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            gc.collect()
            start = perf_counter()
            ctx = workload.setup(work)
            setup_times.append(perf_counter() - start)
        commands = workload.commands(ctx, work, args.seed)

        start = perf_counter()
        passes = [run_pass(commands)]
        while not args.trace and (perf_counter() - start + statistics.median(p.wall for p in passes)
                                  <= args.seconds):
            passes.append(run_pass(commands))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info = {"workload": args.workload, "seed": args.seed, "import_s": import_s,
                "setup_reps_s": setup_times, **environment(), "passes": len(passes),
                "command_s": {c.name: statistics.median(p.times.get(c.name, 0.0) for p in passes)
                              for c in commands}}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                workload.setup(work)
                tracer.phase = "pass"
                traced = run_pass(commands, tracer)
            finally:
                tracer.uninstall()
            probe = run_probe(work, args.seed) if workload.probe else (-1, 0.0)
            values = layer_metrics(tracer, passes[0], traced, probe)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
            passes.append(traced)
        else:
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "wall_s": statistics.median(p.wall for p in passes),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"info": info}))
    return {
        "correct": failed == 0,
        "attempted": len(commands) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except ImportError as exc:
        print(f"cannot import cubenet from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
