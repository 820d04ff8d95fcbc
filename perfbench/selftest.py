"""Fast self-test of the benchmark: every workload at toy size, in both modes.

    python3 perfbench/selftest.py

It checks that every run prints a result line holding exactly the
metrics BENCHMARK.json declares, with their units, and every metric
the benchmark's design names; that no operation fails; that work
counters repeat exactly for a fixed seed; that the exact 64-cycle
reference used by the `analyze_cycle` check is right; and that the
benchmark exits nonzero, printing no result, where the package source
is missing.  Exits 0 when all hold.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

TIMEOUT_S = 180
DETERMINISTIC_UNITS = {"count", "bytes", "prob", "code", "lines"}
# Every metric the benchmark is specified to report, with its unit.
# Operations attempted and failed are the result line's own keys.
NAMED_END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
NAMED_PER_LAYER = {
    **{f"{c}_s": "s" for c in ("tables3", "analyze_large", "analyze_multiclass", "analyze_cycle",
                               "gossip_small", "gossip_large", "consensus_random",
                               "consensus_rotate")},
    **{f"topology.{m}_s": "s" for m in ("build_recursive", "from_json", "max_component_size")},
    "topology.max_component_size_calls": "count",
    "unionfind.passes": "count",
    "unionfind.pass_us": "us",
    **{f"reliability.{m}_s": "s" for m in ("stationary", "conditional_wrong_prob", "multiclass",
                                           "analyze_hierarchical")},
    **{f"reliability.{m}": "count" for m in ("samples", "subsets_enumerated", "states_exact",
                                             "states_sampled", "states_skipped")},
    "reliability.skipped_mass": "prob",
    "gossip.cycle_us.n64": "us",
    "gossip.cycle_us.n4096": "us",
    "gossip.exchanges": "count",
    "consensus.broadcast_time_s": "s",
    "consensus.gather_time_s": "s",
    "consensus.calls": "count",
    "consensus.distinct_leaders": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
    "probe.cube12_exit": "code",
    "probe.cube12_s": "s",
    "src.lines": "lines",
}


def run(workload: str, trace: int, cwd: Path = ROOT, toy: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)] + (["--toy"] if toy else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: dict[str, str], named: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"emitted {sorted(emitted.items())} != declared {sorted(declared.items())}")
    for name, unit in named.items():
        if emitted.get(name) != unit:
            problems.append(f"{name}: unit {emitted.get(name)!r}, expected {unit!r}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: value {m['value']!r} is not a number")
    return problems


def check_cycle_reference() -> list[str]:
    problems = []
    for n in (6, 7, 12):
        for i in range(n + 1):
            brute = 0
            for cut in itertools.combinations(range(n), i):
                gaps = [(cut[(j + 1) % i] - cut[j]) % n or n for j in range(i)] if i else [n]
                brute += all(g <= n // 2 for g in gaps)
            if brute != checks.cycle_wrong_subsets(n, i, n // 2):
                problems.append(f"{n}-cycle, {i} cuts: formula disagrees with enumeration")
    wrong = 1.0 - checks.cycle_exact_p(64, 2190.0, 24.0)
    if abs(wrong - 0.0127114) > 1e-7:
        problems.append(f"64-cycle 1-p = {wrong}, expected 0.0127114")
    return problems


def check_bare_directory() -> list[str]:
    """The benchmark must refuse to run where only its own files exist."""
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run("table3", 0, cwd=bare, toy=False)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = check_cycle_reference() + check_bare_directory()
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = result_of(run(workload, 0))
        problems += [f"{workload} trace 0: {p}"
                     for p in check_result(untraced, end_to_end, NAMED_END_TO_END)]
        first, second = (result_of(run(workload, 1)) for _ in range(2))
        problems += [f"{workload} trace 1: {p}"
                     for p in check_result(first, per_layer, NAMED_PER_LAYER)]
        for name, m in first["metrics"].items():
            if m["unit"] in DETERMINISTIC_UNITS and m["value"] != second["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} differs between runs with one seed: "
                                f"{m['value']} vs {second['metrics'][name]['value']}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
