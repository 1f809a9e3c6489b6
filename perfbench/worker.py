"""One workload process: set-up, timed steps, gate, and (traced) probes.

Started by run.py; prints one JSON line with its raw figures.  Set-up ends,
and the line's ``setup_end`` (a CLOCK_MONOTONIC reading, comparable across
processes) is taken, just before the first timed step.  The calibration
sampler (calibrate.py) runs from the start of ``main``, for ``cli`` only
until set-up ends (its commands sample themselves); the line's
``setup_samples`` and per-step ``scale`` turn set-up and step wall times
into seconds at reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def peak_rss_kb(who: int) -> int:
    rss = resource.getrusage(who).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss  # bytes on macOS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True, help="0: set up and stop")
    ap.add_argument("--max-seconds", type=float, required=True,
                    help="stop after this much timed work even if steps remain")
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so a running command's child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        result = run(args, sampler)
    finally:
        sampler.stop()
    print(json.dumps(result))
    return 0


SETUP_CALIBRATION = 5  # at least this many calibration samples per set-up


def run(args, sampler) -> dict:
    started = time.perf_counter()
    from workloads import WORKLOADS  # imported here, so the sampler covers `import eikograph`

    tr = Tracer() if args.trace else NullTracer()
    w = WORKLOADS[args.workload](args.size, args.seed, tr, Path(args.workdir))
    inputs = w.prepare(0)
    setup_end = time.monotonic()
    # a set-up holds few samples; run.py pools those of all a run's set-ups
    setup_samples = sampler.during(started, time.perf_counter(), at_least=SETUP_CALIBRATION)
    if args.steps == 0:
        return {"setup_end": setup_end, "setup_samples": setup_samples}
    if w.child_samples is not None:
        # the steps' work runs in child processes that sample themselves;
        # sampling here too would compete with them for the cores
        sampler.stop()

    step_s: list[float] = []
    scale: list[float] = []  # per step: wall seconds -> seconds at reference speed
    calls = []
    for i in range(args.steps):
        if sum(step_s) >= args.max_seconds:
            break
        if i:
            inputs = w.prepare(i)
        tr.step = i
        t0 = time.perf_counter()
        done = tr.call("step", w.step, i, inputs)
        t1 = time.perf_counter()
        step_s.append(t1 - t0)
        if w.child_samples is not None:
            scale.append(calibrate.scale(w.child_samples))
            w.child_samples.clear()
        else:
            scale.append(calibrate.scale(sampler.during(t0, t1)))
        w.check(i, inputs, done)
        if tr.enabled:
            w.probe(i, inputs, done)
        for call in done:  # keep only the verdicts, so memory stays flat
            call.output = call.ctx = None
        calls += done
    tr.step = None

    errors = [f"{c.name}: {c.mismatch or f'{type(c.error).__name__}: {c.error}'}"
              for c in calls if c.mismatch or (c.error is not None and not c.known_defect)]
    result = {
        "setup_end": setup_end,
        "setup_samples": setup_samples,
        "step_s": step_s,
        "scale": scale,
        "attempted": len(calls),
        "raised": sum(c.error is not None for c in calls),
        "known_defects": sum(c.known_defect for c in calls),
        "mismatched": sum(c.mismatch is not None for c in calls),
        "vertices_ok": sum(c.vertices for c in calls if c.error is None and c.mismatch is None),
        "errors": errors[:5],
        "rss_self_kb": peak_rss_kb(resource.RUSAGE_SELF),
        "rss_children_kb": peak_rss_kb(resource.RUSAGE_CHILDREN),
        "counts": {k: v / len(step_s) for k, v in w.counts.items()},
        "self_times": tr.self_times(len(step_s)) if tr.enabled else {},
        "instances": w.instances,
    }
    if tr.enabled and args.spans:
        tr.dump(args.spans)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
