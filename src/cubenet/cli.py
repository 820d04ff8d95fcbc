"""Command-line front end.

Subcommands: `topo build|stats`, `tables 1|2|3`, `analyze
partition|repair`, `gossip run|sweep`, `consensus run|sweep`.  Tabular
output is RFC-4180-style CSV with a header row; topologies and run
manifests are JSON.  Every output file gets a manifest sidecar naming
the command, parameters, and seed; output to stdout (no `--out`, or
`--out -`) gets none.  Exit codes: 0 ok, 2 usage/spec error, 3 numeric
failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from contextlib import nullcontext

from . import __version__
from .consensus import ConsensusConfig, cross_size_std, run_consensus, sweep_consensus
from .errors import CubenetError, NumericError, SpecError
from .gossip import GossipConfig, run_gossip, sweep_sizes
from .reliability import ENUM_CAP_DEFAULT, _single_class_id, analyze_hierarchical, partition_tolerance
from .topology import (
    RecursionSpec,
    Topology,
    build_complete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_rooted_tree,
    build_star,
    closed_form_link_count,
)

EXIT_USAGE = 2
EXIT_NUMERIC = 3


def read_spec_file(path: str) -> dict:
    """Topology spec as JSON or key=value lines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    spec: dict = {}
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"bad spec line {line!r}; expected key=value")
        key, value = line.split("=", 1)
        spec[key.strip()] = value.strip()
    return spec


def _parse_list(value, kind) -> list:
    """A JSON list or a comma-separated string, each element converted by `kind`."""
    if isinstance(value, list):
        return [kind(v) for v in value]
    return [kind(v) for v in str(value).split(",") if v != ""]


def _parse_sizes(value) -> list[int]:
    """The node counts of a sweep's --sizes: at least one, each a power of two."""
    sizes = _parse_list(value, int)
    if not sizes:
        raise SpecError("--sizes needs at least one size")
    for n in sizes:
        if 2 ** (n.bit_length() - 1) != n:
            raise SpecError(f"sweep sizes must be powers of two, got {n}")
    return sizes


def _spec_number(value, key: str, kind=int):
    """A spec's number of type `kind`: a number that is not a bool, or its
    string.  str() of a bool, None, a list or an object is no number
    literal, and str() of a float is no integer literal, so kind() of it
    refuses them all."""
    try:
        return kind(str(value))
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise SpecError(f"spec {key} must be {what}, got {value!r}") from None


def topology_from_spec(spec: dict) -> Topology:
    kind = spec.get("kind", "recursive" if "mode" in spec or "dims" in spec else None)
    if kind is None:
        raise SpecError("spec needs a 'kind' (or 'mode'/'dims' for recursive)")
    if kind == "hypercube":
        return build_complete_hypercube(_spec_number(spec["dim"], "dim"))
    if kind == "tree":
        return build_rooted_tree(_spec_number(spec["n"], "n"),
                                 _spec_number(spec.get("degree", 3), "degree"))
    if kind == "ring":
        return build_ring_lattice(_spec_number(spec["n"], "n"), _spec_number(spec["degree"], "degree"))
    if kind == "star":
        return build_star(_spec_number(spec["n"], "n"))
    if kind == "recursive":
        return build_recursive(recursion_spec_from_dict(spec))
    raise SpecError(f"unknown topology kind {kind!r}")


def recursion_spec_from_dict(spec: dict) -> RecursionSpec:
    mode = str(spec.get("mode", "symmetric"))
    dims = _parse_list(spec["dims"], lambda d: _spec_number(d, "dims"))
    distances = (_parse_list(spec["classes"], lambda d: _spec_number(d, "classes", float))
                 if "classes" in spec else None)
    if mode in ("symmetric", "sym", "completely-symmetric"):
        if len(set(dims)) != 1:
            raise SpecError("symmetric mode needs one repeated dimension")
        return RecursionSpec.symmetric(dims[0], len(dims), distances)
    if mode in ("semi", "semi-symmetric"):
        return RecursionSpec.semi(dims, distances)
    raise SpecError(f"unsupported recursion mode {mode!r} in spec files")


def write_manifest(out_path: str, command: str, params: dict, seed, wall_clock_s: float) -> None:
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "artifact_version": __version__,
        "outputs": [out_path],
        "wall_clock_s": wall_clock_s,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(out, header: list[str], rows: list[list]) -> None:
    to_file = out not in (None, "-")
    with open(out, "w", newline="", encoding="utf-8") if to_file else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    """CSV cell text: repr of every float, numpy scalars as plain Python floats."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


# -- subcommands --------------------------------------------------------


def cmd_topo(args) -> int:
    if args.action == "build":
        spec = read_spec_file(args.spec)
        start = time.perf_counter()
        topo = topology_from_spec(spec)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(topo.to_json())
                fh.write("\n")
            write_manifest(args.out, "topo build", spec, None, time.perf_counter() - start)
    else:  # stats
        topo = _load_topology(args.topology)
    census = topo.class_census()
    census_str = "/".join(str(census[cid]) for cid in sorted(census))
    degrees = topo.degrees()
    print(
        f"N={topo.n_nodes} L={topo.n_links} "
        f"degree={min(degrees)}..{max(degrees)} census={census_str}"
    )
    return 0


def _load_topology(path: str) -> Topology:
    with open(path, encoding="utf-8") as fh:
        return Topology.from_json(fh.read())


TABLE1_DIMS = (2, 3, 4, 5)
TABLE3_N64 = [
    ("tree", "regular rooted tree", None),
    ("ring", "ring lattice", None),
    ("cube", "0 recursion (6)", RecursionSpec.symmetric(6, 1)),
    ("cube", "1 completely symmetric recursion (3-3)", RecursionSpec.symmetric(3, 2)),
    ("cube", "2 completely symmetric recursions (2-2-2)", RecursionSpec.symmetric(2, 3)),
    ("cube", "1 semi-symmetric recursion (4-2)", RecursionSpec.semi((4, 2))),
]
TABLE3_N4096 = [
    ("tree", "regular rooted tree", None),
    ("ring", "ring lattice", None),
    ("cube", "0 recursion (12)", RecursionSpec.symmetric(12, 1)),
    ("cube", "1 completely symmetric recursion (6-6)", RecursionSpec.symmetric(6, 2)),
    ("cube", "2 completely symmetric recursions (4-4-4)", RecursionSpec.symmetric(4, 3)),
    ("cube", "2 semi-symmetric recursions (5-4-3)", RecursionSpec.semi((5, 4, 3))),
]


def table1_rows() -> list[list]:
    rows = []
    for recursions in (0, 1, 2):
        for dim in TABLE1_DIMS:
            n, links = closed_form_link_count(RecursionSpec.symmetric(dim, recursions + 1))
            rows.append([recursions, dim, n, links])
    return rows


def table2_rows() -> list[list]:
    rows = []
    for recursions, dims in ((0, (4,)), (1, (4, 3)), (2, (4, 3, 2))):
        n, links = closed_form_link_count(RecursionSpec.semi(dims))
        rows.append([recursions, "-".join(map(str, dims)), n, links])
    return rows


def _table3_graph(kind: str, n: int, degree: int, spec) -> Topology:
    """The graph a Table 3 row describes."""
    if kind == "tree":
        return build_rooted_tree(n, degree)
    if kind == "ring":
        return build_ring_lattice(n, degree)
    return build_recursive(spec)


def _table3_census(kind: str, n: int, degree: int, spec) -> dict[float, int]:
    """Links per distance class, from the closed forms.

    Trees have n - 1 links and ring lattices n * degree / 2, all in the
    5000 km class.  Recursion level m has 2^(sum(dims) - 1) * d_m links:
    each of the 2^sum(dims) nodes has d_m of them.
    """
    if kind == "tree":
        return {5000.0: n - 1}
    if kind == "ring":
        return {5000.0: n * degree // 2}
    n_nodes, _ = closed_form_link_count(spec)
    census: dict[float, int] = {}
    for dim, cls in zip(spec.dims, spec.classes):
        census[cls.distance_km] = census.get(cls.distance_km, 0) + n_nodes // 2 * dim
    return census


def table3_rows(with_reliability=False, budget=4000, seed=0) -> list[list]:
    rows = []
    for n, entries in ((64, TABLE3_N64), (4096, TABLE3_N4096)):
        # baseline degree matches the single-level hypercube of the same size
        degree = {64: 6, 4096: 12}[n]
        for kind, label, spec in entries:
            census = _table3_census(kind, n, degree, spec)
            row = [n, label, *(census.get(d, 0) for d in (5000.0, 3000.0, 420.0))]
            if with_reliability and n == 64:
                row.extend(_reliability_columns(kind, n, degree, spec, budget, seed))
            rows.append(row)
    return rows


def _reliability_columns(kind, n, degree, spec, budget, seed):
    if spec is not None and spec.r > 1:
        agg = analyze_hierarchical(spec, budget=budget, seed=seed)
        p, t, method = agg.p, agg.t, "aggregated"
    else:
        topo = _table3_graph(kind, n, degree, spec)
        report = partition_tolerance(topo, budget=budget, seed=seed)
        p, t, method = report.p, report.t, report.method
    neglog = math.inf if p >= 1.0 else -math.log10(1.0 - p)
    return [_fmt(p), _fmt(neglog), _fmt(t) if t is not None else "", method]


def cmd_tables(args):
    if args.table == 1:
        header = ["recursions", "dim", "nodes", "links"]
        rows = table1_rows()
    elif args.table == 2:
        header = ["recursions", "dims", "nodes", "links"]
        rows = table2_rows()
    else:
        header = ["nodes", "method", "links_5000km", "links_3000km", "links_420km"]
        if args.reliability:
            header += ["p", "neg_lg_1mp", "avg_min_repair_h", "method_tag"]
        rows = table3_rows(with_reliability=args.reliability, budget=args.budget, seed=args.seed)
    return header, rows, {"reliability": args.reliability, "budget": args.budget}


def cmd_analyze(args):
    topo = _load_topology(args.topology)
    report = partition_tolerance(
        topo,
        args.k,
        budget=args.budget,
        seed=args.seed,
        enum_cap=args.enum_cap,
    )
    header = [
        "topology_id", "N", "L", "k", "lambda", "mu", "i",
        "pi_i", "p_wrong_i", "stderr", "method",
    ]
    topo_id = topo.kind
    cid = _single_class_id(topo)
    if cid is not None:
        lam, mu = topo.classes[cid].lam, topo.classes[cid].mu
    else:
        lam = mu = float("nan")
    rows = [
        [
            topo_id, topo.n_nodes, topo.n_links, report.k, _fmt(lam), _fmt(mu),
            e.i, _fmt(e.pi_i), _fmt(e.p_wrong), _fmt(e.stderr), e.method,
        ]
        for e in report.per_state
    ]
    rows.append(
        [
            topo_id, topo.n_nodes, topo.n_links, report.k, _fmt(lam), _fmt(mu),
            "summary", _fmt(report.p), _fmt(report.t) if report.t is not None else "",
            _fmt(report.stderr), report.method,
        ]
    )
    if args.action == "repair":
        t_str = "none" if report.t is None else f"{report.t:.6g}"
        print(f"p={report.p:.12g} avg_min_repair_h={t_str}", file=sys.stderr)
    params = {"topology": args.topology, "k": args.k, "budget": args.budget,
              "enum_cap": args.enum_cap}
    return header, rows, params


def cmd_gossip(args):
    config = GossipConfig(
        cycles=args.cycles, fanout=args.fanout, delay_prob=args.delay, seed=args.seed
    )
    if args.action == "run":
        topo = _load_topology(args.topology)
        metrics = run_gossip(topo, config)
        header = ["cycle", "forwarded"]
        rows = [[c, int(v)] for c, v in enumerate(metrics.forwarded_per_cycle)]
        rows.append(["total", metrics.total_forwarded])
        params = {"topology": args.topology}
    else:  # sweep
        sizes = _parse_sizes(args.sizes)
        topos = [(f"hypercube-{n}", build_complete_hypercube(n.bit_length() - 1)) for n in sizes]
        rows_out = sweep_sizes(topos, config, seeds=tuple(range(args.seed, args.seed + 3)))
        header = ["label", "N", "mean_total"]
        rows = [[r.label, r.n_nodes, _fmt(r.mean_total)] for r in rows_out]
        params = {"sizes": sizes}
    params.update({"cycles": args.cycles, "fanout": args.fanout, "delay": args.delay})
    return header, rows, params


def cmd_consensus(args):
    config = ConsensusConfig(
        tx_rate=args.tx_rate,
        link_bandwidth=args.bandwidth,
        link_latency=args.latency,
        leader_policy=args.leader_policy,
        rounds=args.rounds,
        seed=args.seed,
    )
    if args.action == "run":
        topo = _load_topology(args.topology)
        report = run_consensus(topo, config)
        header = ["round", "leader", "round_time_s", "committed_tx", "throughput_tps"]
        rows = [
            [r, leader, _fmt(t), c, _fmt(c / t)]
            for r, (leader, t, c) in enumerate(
                zip(report.leader_history, report.per_round_time, report.per_round_committed)
            )
        ]
        rows.append(["summary", "", _fmt(report.elapsed_s), sum(report.per_round_committed),
                     _fmt(report.tx_per_second)])
        params = {"topology": args.topology}
    else:  # sweep
        sizes = _parse_sizes(args.sizes)
        topos = []
        for n in sizes:
            topos.append(("hypercube", build_complete_hypercube(n.bit_length() - 1)))
            topos.append(("star", build_star(n)))
        rows_out = sweep_consensus(topos, config)
        header = ["kind", "N", "throughput_tps"]
        rows = [[r.kind, r.n_nodes, _fmt(r.tx_per_second)] for r in rows_out]
        rows.append(["std:hypercube", "", _fmt(cross_size_std(rows_out, "hypercube"))])
        rows.append(["std:star", "", _fmt(cross_size_std(rows_out, "star"))])
        params = {"sizes": sizes}
    params.update(
        {"rounds": args.rounds, "leader_policy": args.leader_policy,
         "bandwidth": args.bandwidth, "latency": args.latency, "tx_rate": args.tx_rate}
    )
    return header, rows, params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubenet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p_topo = sub.add_parser("topo", help="build or inspect topologies")
    topo_sub = p_topo.add_subparsers(dest="action", required=True)
    p_build = topo_sub.add_parser("build")
    p_build.add_argument("--spec", required=True, help="JSON or key=value spec file")
    common(p_build, seed=False)
    p_stats = topo_sub.add_parser("stats")
    p_stats.add_argument("--topology", required=True)

    p_tables = sub.add_parser("tables", help="regenerate the construction tables")
    p_tables.add_argument("table", type=int, choices=(1, 2, 3))
    p_tables.add_argument("--reliability", action="store_true",
                          help="add reliability columns to the N=64 block of table 3")
    p_tables.add_argument("--budget", type=int, default=4000)
    common(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_analyze = sub.add_parser("analyze", help="partition tolerance analysis")
    p_analyze.add_argument("action", choices=("partition", "repair"))
    p_analyze.add_argument("--topology", required=True)
    p_analyze.add_argument("--k", type=int, default=None)
    p_analyze.add_argument("--budget", type=int, default=20000)
    p_analyze.add_argument("--enum-cap", type=int, default=ENUM_CAP_DEFAULT)
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_gossip = sub.add_parser("gossip", help="gossip simulation")
    p_gossip.add_argument("action", choices=("run", "sweep"))
    p_gossip.add_argument("--topology")
    p_gossip.add_argument("--sizes", default="16,32,64,128")
    p_gossip.add_argument("--cycles", type=int, default=5000)
    p_gossip.add_argument("--fanout", type=int, default=4)
    p_gossip.add_argument("--delay", type=float, default=0.0)
    common(p_gossip)
    p_gossip.set_defaults(func=cmd_gossip)

    p_cons = sub.add_parser("consensus", help="consensus round simulation")
    p_cons.add_argument("action", choices=("run", "sweep"))
    p_cons.add_argument("--topology")
    p_cons.add_argument("--sizes", default="4,16,64")
    p_cons.add_argument("--rounds", type=int, default=200)
    p_cons.add_argument("--leader-policy", default="random")
    p_cons.add_argument("--bandwidth", type=float, default=10e9)
    p_cons.add_argument("--latency", type=float, default=0.0)
    p_cons.add_argument("--tx-rate", type=float, default=60000.0)
    common(p_cons)
    p_cons.set_defaults(func=cmd_consensus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gossip" and args.action == "run" and not args.topology:
        parser.error("gossip run requires --topology")
    if args.command == "consensus" and args.action == "run" and not args.topology:
        parser.error("consensus run requires --topology")
    if args.command == "topo" and args.action == "build" and args.out == "-":
        parser.error("topo build --out must name a file")
    try:
        if args.command == "topo":
            return cmd_topo(args)
        start = time.perf_counter()
        header, rows, params = args.func(args)
        _write_rows(args.out, header, rows)
        if args.out not in (None, "-"):
            what = args.table if args.command == "tables" else args.action
            write_manifest(args.out, f"{args.command} {what}", params, args.seed,
                           time.perf_counter() - start)
        return 0
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CubenetError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
