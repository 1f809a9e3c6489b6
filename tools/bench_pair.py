"""Paired benchmark runs of two source checkouts, written as one BENCH file.

    python3 tools/bench_pair.py PARENT_ROOT CHANGE_ROOT --workloads sweep,certify \\
        --pairs 10 --seed 9100 --out BENCH_9.json

Each root is a checkout with ``perfbench/`` and ``src/`` (a ``git archive``
of the parent commit will do).  A root that holds ``__pycache__`` under
either is refused: bytecode that only one side starts with moves its
set-up and start-up times, whatever the change.  For every workload, pair
i runs ``perfbench/run.py --seed SEED+i --trace 0`` once in each root, for the
``run_seconds`` that ``BENCHMARK.json`` fixes and at perfbench's default
size, the parent first on even i and the change first on odd i, so slow
drift of the host falls on both sides alike.  Then one ``--trace 1`` run per
side, at seed SEED+pairs, gives the per-layer metrics.  The runs are serial.

The output holds, per workload and side, the median and quartiles of every
end-to-end metric that ``BENCHMARK.json`` declares, each pair's values and
which side won it, the median over the pairs of ln(change / parent) and the
exact two-sided sign test's p of the wins against the losses (ties
dropped), ``failed_frac`` and ``correct`` of every run, and the traced
per-layer metrics; plus the seeds, each side's git sha and source digest as
perfbench records them (``--parent-sha`` and ``--change-sha`` name the
commit of a root without git) and the line count of its ``src/`` Python
files, the Python version and nproc.  The file is
rewritten after every run, with ``"complete": false`` until the last one.

When ``BENCH_AA.json``, a run of one commit on both sides, sits in the
repository root beside ``tools/``, each metric of a workload it covers also
holds ``aa_pair_ratios``, the lowest and highest change / parent pair ratio
of that A/A run, and ``inside_aa``, true when the metric's own median ratio
lies within them: a move that the A/A run shows with no change at all.  The
summary line marks such a metric.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
AA_FILE = Path(__file__).resolve().parents[1] / "BENCH_AA.json"


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``root``: its JSON line plus the run metadata."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((root / "perfbench" / "_runs" / f"{workload}-full-seed{seed}-trace{trace}.json").read_text())
    out = {name: m["value"] for name, m in line["metrics"].items()}
    out["correct"] = line["correct"]
    if not trace:
        out["failed_frac"] = record["end_to_end"]["failed_frac"]
    out["_meta"] = {k: record[k] for k in ("git_sha", "src_sha256", "python", "implementation", "nproc")}
    return out


def bytecode_dirs(root: Path) -> list[str]:
    """The ``__pycache__`` directories under ``root``'s ``src/`` and
    ``perfbench/``, relative to ``root``."""
    return sorted(str(d.relative_to(root)) for top in ("src", "perfbench")
                  for d in (root / top).rglob("__pycache__"))


def src_lines(root: Path) -> int:
    """The lines of the ``.py`` files under ``root``'s ``src/``, as
    ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided binomial p of ``wins`` against ``losses`` at even odds
    (ties are dropped before): the chance of a split at least this uneven."""
    n, k = wins + losses, min(wins, losses)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


def aa_ranges(path: Path) -> dict:
    """{workload: {metric: (lowest, highest) change / parent pair ratio}}
    of the A/A file at ``path``, or {} when there is no such file."""
    if not path.exists():
        return {}
    out = {}
    for workload, entry in json.loads(path.read_text())["workloads"].items():
        out[workload] = {}
        for name in entry["end_to_end"]:
            ratios = [r["change"][name] / r["parent"][name] for r in entry["runs"]]
            out[workload][name] = (min(ratios), max(ratios))
    return out


def summarize(runs: list[dict], declared: list[dict], aa: dict | None = None) -> dict:
    """Medians, quartiles and wins of each end-to-end metric over the pairs,
    the median of ln(change / parent) over the pairs and the sign test's p
    of the wins against the losses; with ``aa``, one workload's entry of
    :func:`aa_ranges`, also each metric's A/A pair-ratio range and whether
    its change / parent median ratio lies inside it."""
    out = {}
    for m in declared:
        name = m["name"]
        per_side = {side: [r[side][name] for r in runs] for side in SIDES}
        better = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
        stats = {side: summary(vals) for side, vals in per_side.items()}
        paired = list(zip(per_side["change"], per_side["parent"]))
        wins, losses = sum(better(c, p) for c, p in paired), sum(better(p, c) for c, p in paired)
        out[name] = {
            "unit": m["unit"], "better": m["better"], **stats,
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "log_ratio_median": statistics.median(math.log(c / p) for c, p in paired),
            "change_wins": wins,
            "sign_test_p": sign_test_p(wins, losses),
            "pairs": len(runs),
        }
        if aa and name in aa:
            lo, hi = aa[name]
            out[name]["aa_pair_ratios"] = [lo, hi]
            out[name]["inside_aa"] = lo <= out[name]["change_over_parent"] <= hi
    return out


def summary_line(workload: str, name: str, s: dict) -> str:
    """One metric's summary, marked when its median ratio lies inside the A/A range."""
    line = (f"{workload} {name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
            f"({s['change_over_parent']:.3f}x, change better in {s['change_wins']}/{s['pairs']}, "
            f"median ln(change/parent) {s['log_ratio_median']:+.4f}, sign test p {s['sign_test_p']:.4g})")
    if s.get("inside_aa"):
        lo, hi = s["aa_pair_ratios"]
        line += f" [inside A/A pair ratios {lo:.3f}-{hi:.3f}]"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workloads", default="sweep,certify,hjb,cli", help="comma-separated")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9100, help="pair i runs seed SEED+i")
    ap.add_argument("--out", type=Path, required=True)
    for side in SIDES:
        ap.add_argument(f"--{side}-sha", help=f"the {side}'s commit, when its root is not a git checkout")
    opts = ap.parse_args(argv)
    if opts.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": opts.parent_root.resolve(), "change": opts.change_root.resolve()}
    for side, root in roots.items():
        cached = bytecode_dirs(root)
        if cached:
            ap.error(f"the {side} root {root} holds bytecode: {', '.join(cached)}; "
                     "compare fresh checkouts, such as git archive copies")
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"]
    aa = aa_ranges(AA_FILE)
    workloads = [w for w in opts.workloads.split(",") if w]

    result = {
        "complete": False,
        "command": ["tools/bench_pair.py", "PARENT_ROOT", "CHANGE_ROOT", "--workloads", ",".join(workloads),
                    "--pairs", str(opts.pairs), "--seed", str(opts.seed)],
        "run_seconds": bench["run_seconds"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "sides": {},
        "workloads": {},
    }

    def save():
        opts.out.write_text(json.dumps(result, indent=1) + "\n")

    def measure(side: str, workload: str, seed: int, trace: int) -> dict:
        print(f"{workload} seed {seed} trace {trace}: {side}", file=sys.stderr, flush=True)
        run = run_once(roots[side], workload, seed, bench["run_seconds"], trace)
        meta = run.pop("_meta")
        result["nproc"] = meta.pop("nproc")
        sha = meta["git_sha"] or getattr(opts, f"{side}_sha")
        result["sides"][side] = {"git_sha": sha, "src_sha256": meta["src_sha256"],
                                 "src_lines": src_lines(roots[side])}
        return run

    for workload in workloads:
        entry = result["workloads"][workload] = {"seeds": [], "runs": []}
        for i in range(opts.pairs):
            seed = opts.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = measure(side, workload, seed, 0)
            entry["seeds"].append(seed)
            entry["runs"].append(pair)
            entry["end_to_end"] = summarize(entry["runs"], declared, aa.get(workload))
            save()
        trace_seed = opts.seed + opts.pairs
        traced = {side: measure(side, workload, trace_seed, 1) for side in SIDES}
        entry["trace_seed"] = trace_seed
        entry["per_layer"] = {
            name: {side: traced[side][name] for side in SIDES}
            for name in (m["name"] for m in bench["per_layer"])
        }
        entry["correct"] = all(r[side]["correct"] for r in entry["runs"] for side in SIDES) and all(
            t["correct"] for t in traced.values())
        save()
    result["complete"] = True
    save()
    for workload, entry in result["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(summary_line(workload, name, s))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
