"""Paired benchmark runs of two source checkouts, written as one BENCH file.

    python3 tools/bench_pair.py PARENT_ROOT CHANGE_ROOT --workloads sweep,certify \\
        --pairs 10 --seed 9100 --out BENCH_9.json

Each root is a checkout with ``perfbench/`` and ``src/`` (a ``git archive``
of the parent commit will do).  For every workload, pair i runs
``perfbench/run.py --seed SEED+i --trace 0`` once in each root, for the
``run_seconds`` that ``BENCHMARK.json`` fixes and at perfbench's default
size, the parent first on even i and the change first on odd i, so slow
drift of the host falls on both sides alike.  Then one ``--trace 1`` run per
side, at seed SEED+pairs, gives the per-layer metrics.  The runs are serial.

The output holds, per workload and side, the median and quartiles of every
end-to-end metric that ``BENCHMARK.json`` declares, each pair's values and
which side won it, ``failed_frac`` and ``correct`` of every run, and the
traced per-layer metrics; plus the seeds, each side's git sha and source
digest as perfbench records them (``--parent-sha`` and ``--change-sha`` name
the commit of a root without git), the Python version and nproc.  The file is
rewritten after every run, with ``"complete": false`` until the last one.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Medians, quartiles and wins of each end-to-end metric over the pairs."""
    out = {}
    for m in declared:
        name = m["name"]
        per_side = {side: [r[side][name] for r in runs] for side in SIDES}
        better = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
        stats = {side: summary(vals) for side, vals in per_side.items()}
        out[name] = {
            "unit": m["unit"], "better": m["better"], **stats,
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "change_wins": sum(better(c, p) for c, p in zip(per_side["change"], per_side["parent"])),
            "pairs": len(runs),
        }
    return out


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
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"]
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
        result["sides"][side] = {"git_sha": sha, "src_sha256": meta["src_sha256"]}
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
            entry["end_to_end"] = summarize(entry["runs"], declared)
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
            print(f"{workload} {name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
                  f"({s['change_over_parent']:.3f}x, change better in {s['change_wins']}/{s['pairs']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
