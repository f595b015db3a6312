"""One set-up of the benchmark, timed inside a fresh interpreter.

bench/run.py starts this file once per set-up sample:

    python3 bench/setup_probe.py <workload> <seed> <smoke 0|1>

The timed part is the import of every ofbic layer, with the standard-library
modules they pull in, plus the generation of the workload's inputs.  Only
``os``, ``sys`` and ``time`` are imported before the clock starts; the
interpreter has the first two loaded already and the third is built in.  The
rest of the benchmark is imported between the two timed parts, so its own
imports are not counted.  One sample
of the host speed reference follows at once.  The last line of standard
output is ``{"setup_s": ..., "reference_s": ...}``.
"""

import os
import sys
import time

# run.LAYERS; run.py itself cannot be imported before the clock starts.
LAYERS = ("channel", "rates", "allocation", "midcode", "pipeline", "sweep", "cli")


def main() -> int:
    workload, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    start = time.perf_counter()
    for name in LAYERS:
        __import__(f"ofbic.{name}")
    imported = time.perf_counter() - start

    import run  # bench/run.py, for make_inputs and the reference

    mods = run.layer_modules()
    start = time.perf_counter()
    run.make_inputs(mods, workload, seed, run.SMOKE if smoke else run.FULL)
    generated = time.perf_counter() - start
    reference = run.time_reference()
    print(run.json.dumps({"setup_s": imported + generated, "reference_s": reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
