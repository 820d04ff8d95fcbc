"""Output checks for every benchmarked command.

Each check reads the CSV a command wrote and returns a list of
problems (empty when the output is right).  Tolerances are statistical
or structural, so they keep holding when a later estimator or RNG
stream changes the per-seed values.  Reference values are derived here,
independently of the package, except where the check is that the
package agrees with itself (closed-form link counts, built graphs).
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

STDERR_TOLERANCE = 4.0  # reported p within this many reported stderr of the exact value
GOSSIP_SIGMAS = 6.0
REL_EPS = 1e-9


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def binomial_pmf(n: int, q: float, i: int) -> float:
    log = (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
           + i * math.log(q) + (n - i) * math.log1p(-q))
    return math.exp(log)


def down_prob(mtbf_h: float, mttr_h: float) -> float:
    """Steady-state down probability lambda/(lambda+mu) of one link."""
    lam, mu = 1.0 / mtbf_h, 1.0 / mttr_h
    return lam / (lam + mu)


def cycle_wrong_subsets(n: int, i: int, max_gap: int) -> int:
    """Number of i-subsets of the n links of an n-cycle whose removal
    leaves only paths of at most `max_gap` nodes.

    Removing i >= 1 links splits the cycle into i paths whose sizes are
    the cyclic gaps between removed links.  Marking one removed link as
    the start turns a subset into a composition of n into i parts, and
    each subset has i starts, so the count is n * compositions / i.
    """
    if i == 0:
        return 1 if n <= max_gap else 0
    ways = [1] + [0] * n  # ways[s]: compositions of s into the parts placed so far
    for _ in range(i):
        nxt = [0] * (n + 1)
        for s, w in enumerate(ways):
            if w:
                for part in range(1, min(max_gap, n - s) + 1):
                    nxt[s + part] += w
        ways = nxt
    count, rem = divmod(n * ways[n], i)
    if rem:
        raise ArithmeticError("composition count not divisible by the subset size")
    return count


def cycle_exact_p(n: int, mtbf_h: float, mttr_h: float) -> float:
    """Exact partition tolerance of the n-cycle with default quorum
    floor(n/2)+1: each link is down with probability lambda/(lambda+mu),
    and a state is wrong when every remaining path has <= floor(n/2) nodes."""
    q = down_prob(mtbf_h, mttr_h)
    max_gap = n // 2
    wrong = sum(
        binomial_pmf(n, q, i) * cycle_wrong_subsets(n, i, max_gap) / math.comb(n, i)
        for i in range(1, n + 1)
    )
    return 1.0 - wrong


def _close(a: float, b: float, eps: float = REL_EPS) -> bool:
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


# -- tables -------------------------------------------------------------


def check_table1(path: Path) -> list[str]:
    from cubenet import RecursionSpec, closed_form_link_count

    rows = read_rows(path)
    problems = []
    seen = set()
    for row in rows:
        rec, dim = int(row["recursions"]), int(row["dim"])
        seen.add((rec, dim))
        expected = closed_form_link_count(RecursionSpec.symmetric(dim, rec + 1))
        got = (int(row["nodes"]), int(row["links"]))
        if got != expected:
            problems.append(f"table 1 row {rec},{dim}: {got} != closed form {expected}")
    want = {(r, d) for r in (0, 1, 2) for d in (2, 3, 4, 5)}
    if seen != want or len(rows) != len(want):
        problems.append(f"table 1 has rows {sorted(seen)}, expected {sorted(want)}")
    return problems


def check_table2(path: Path) -> list[str]:
    from cubenet import RecursionSpec, closed_form_link_count

    rows = read_rows(path)
    problems = []
    for row in rows:
        dims = tuple(int(d) for d in row["dims"].split("-"))
        expected = closed_form_link_count(RecursionSpec.semi(dims))
        got = (int(row["nodes"]), int(row["links"]))
        if got != expected:
            problems.append(f"table 2 row {row['dims']}: {got} != closed form {expected}")
    if [r["dims"] for r in rows] != ["4", "4-3", "4-3-2"]:
        problems.append(f"table 2 rows {[r['dims'] for r in rows]}")
    return problems


def check_table3(path: Path, reference: list[tuple[int, tuple[int, int, int]]]) -> list[str]:
    """`reference` holds (N, census by 5000/3000/420 km) of the built graphs, in row order."""
    rows = read_rows(path)
    problems = []
    if len(rows) != len(reference):
        return [f"table 3 has {len(rows)} rows, expected {len(reference)}"]
    for idx, (row, (n, census)) in enumerate(zip(rows, reference)):
        got = (int(row["links_5000km"]), int(row["links_3000km"]), int(row["links_420km"]))
        if int(row["nodes"]) != n or got != census:
            problems.append(f"table 3 row {idx}: N={row['nodes']} census {got}, built {n} {census}")
        if n == 64:
            problems += _check_reliability_columns(idx, row)
    return problems


def _check_reliability_columns(idx: int, row: dict) -> list[str]:
    p = float(row["p"])
    if not 0.0 <= p <= 1.0:
        return [f"table 3 row {idx}: p={p} outside [0,1]"]
    neglog = float(row["neg_lg_1mp"])
    expected = math.inf if p >= 1.0 else -math.log10(1.0 - p)
    if not (neglog == expected or _close(neglog, expected)):
        return [f"table 3 row {idx}: -lg(1-p)={neglog} but p={p}"]
    if row["avg_min_repair_h"] and float(row["avg_min_repair_h"]) < 0:
        return [f"table 3 row {idx}: negative repair time"]
    if not row["method_tag"]:
        return [f"table 3 row {idx}: empty method tag"]
    return []


# -- analyze ------------------------------------------------------------


def check_analyze(path: Path, n: int, links: int, q: float | None) -> list[str]:
    """Structure and self-consistency of an `analyze` CSV.

    The summary p must equal 1 - sum pi_i * p_wrong_i over the estimated
    states.  For a single-class graph (`q` given) every pi_i must equal
    the Binomial(L, q) pmf, the independent-link steady state.
    """
    rows = read_rows(path)
    if not rows or rows[-1]["i"] != "summary":
        return ["analyze output has no summary row"]
    problems = []
    summary, states = rows[-1], rows[:-1]
    for row in rows:
        if int(row["N"]) != n or int(row["L"]) != links:
            return [f"analyze row reports N={row['N']} L={row['L']}, graph has {n}/{links}"]
    p = float(summary["pi_i"])
    if not 0.0 <= p <= 1.0:
        problems.append(f"summary p={p} outside [0,1]")
    wrong = sum(float(r["pi_i"]) * float(r["p_wrong_i"]) for r in states if r["method"] != "skipped")
    if not _close(p, min(max(1.0 - wrong, 0.0), 1.0)):
        problems.append(f"summary p={p} but per-state rows give {1.0 - wrong}")
    if q is not None:
        if [int(r["i"]) for r in states] != list(range(1, links + 1)):
            problems.append("single-class analysis does not list states 1..L")
        for r in states:
            i, pi = int(r["i"]), float(r["pi_i"])
            if abs(pi - binomial_pmf(links, q, i)) > 1e-10:
                problems.append(f"pi_{i}={pi} differs from the binomial steady state")
                break
    return problems


def check_cycle(path: Path, n: int, mtbf_h: float, mttr_h: float) -> list[str]:
    problems = check_analyze(path, n, n, down_prob(mtbf_h, mttr_h))
    summary = read_rows(path)[-1]
    p, se = float(summary["pi_i"]), float(summary["stderr"])
    exact = cycle_exact_p(n, mtbf_h, mttr_h)
    if abs(p - exact) > max(STDERR_TOLERANCE * se, 1e-12):
        problems.append(f"cycle p={p} is {abs(p - exact) / se if se else math.inf:.1f} stderr "
                        f"from the exact {exact}")
    return problems


# -- protocols ----------------------------------------------------------


def check_gossip(path: Path, cycles: int, attempts: int, delay: float) -> list[str]:
    """`attempts` is sum over nodes of min(fanout, degree): the exchanges
    a cycle starts before suppression.  Each row counts two messages per
    exchange, so rows are even and at most 2 * attempts; without delay
    they equal it, with delay the total is Binomial(cycles * attempts,
    1 - delay) and must fall within GOSSIP_SIGMAS of its mean."""
    rows = read_rows(path)
    if not rows or rows[-1]["cycle"] != "total":
        return ["gossip output has no total row"]
    body = [int(r["forwarded"]) for r in rows[:-1]]
    total = int(rows[-1]["forwarded"])
    problems = []
    if [r["cycle"] for r in rows[:-1]] != [str(c) for c in range(cycles)]:
        problems.append(f"gossip output does not list cycles 0..{cycles - 1}")
    if sum(body) != total:
        problems.append(f"gossip rows sum to {sum(body)}, total row says {total}")
    if any(v % 2 or not 0 <= v <= 2 * attempts for v in body):
        problems.append("gossip row outside [0, 2 * attempts] or odd")
    trials = cycles * attempts
    mean = trials * (1.0 - delay)
    sd = math.sqrt(trials * delay * (1.0 - delay))
    if abs(total / 2 - mean) > GOSSIP_SIGMAS * sd:
        problems.append(f"gossip exchanges {total / 2} far from the expected {mean}")
    return problems


def check_consensus(path: Path, rounds: int, n: int, tx_rate: float, period: int | None) -> list[str]:
    """Throughput must not exceed the arrival rate; with a rotation
    period the leader of round r is (r // period) % n."""
    rows = read_rows(path)
    if not rows or rows[-1]["round"] != "summary":
        return ["consensus output has no summary row"]
    body, summary = rows[:-1], rows[-1]
    problems = []
    if [r["round"] for r in body] != [str(r) for r in range(rounds)]:
        problems.append(f"consensus output does not list rounds 0..{rounds - 1}")
    for r, row in enumerate(body):
        leader, t, c = int(row["leader"]), float(row["round_time_s"]), int(row["committed_tx"])
        if not 0 <= leader < n or t <= 0 or c < 0:
            problems.append(f"round {r}: leader {leader}, time {t}, committed {c}")
            break
        if period is not None and leader != (r // period) % n:
            problems.append(f"round {r}: leader {leader} breaks rotate:{period}")
            break
    if int(summary["committed_tx"]) != sum(int(row["committed_tx"]) for row in body):
        problems.append("consensus summary does not sum the rounds")
    if float(summary["throughput_tps"]) > tx_rate * (1.0 + REL_EPS):
        problems.append(f"throughput {summary['throughput_tps']} exceeds tx_rate {tx_rate}")
    return problems
