"""Run one eikograph command with the calibration sampler on.

    python3 perfbench/launch.py SAMPLES_FILE ARG...

does what ``python3 -m eikograph.cli ARG...`` does, exit code included,
and writes the durations of the kernel samples taken while it ran to
SAMPLES_FILE as a JSON list.  The cli workload starts every command this
way, so each command's time is scaled by its own process's samples
(calibrate.py).
"""

import json
import runpy
import sys

import calibrate


def main() -> None:
    out, sys.argv[1:] = sys.argv[1], sys.argv[2:]
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        runpy.run_module("eikograph.cli", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        if not sampler.samples:  # a command shorter than one interval
            sampler.sample()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump([s for _, s in sampler.samples], fh)


if __name__ == "__main__":
    main()
