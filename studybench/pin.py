"""Re-pin the benchmark's expected outputs (``pins.json``).

Run from the root of a checkout, only when a change to the program's
simulated results is intended::

    python3 studybench/pin.py

Pins one sweep per workload for the default seed and one held-out seed
at the benchmark's scale: every pair run's trace, stats and metadata
digests and the scorecard verdicts.  ``run.py`` fails any run of a
pinned seed whose outputs differ.
"""

from __future__ import annotations

import json
import sys

import run

#: The study's default seed and a seed held out from tuning.
SEEDS = (run.DEFAULT_SEED, 77)


def main() -> int:
    pins = {"scale": run.SCALE, "workloads": {}}
    api, library = run.setup()
    for workload in run.CONFIGS:
        for seed in SEEDS:
            kwargs = run.study_kwargs(api, workload, seed)
            sweep = run.run_sweep(api, library, seed, kwargs, None)
            pins["workloads"].setdefault(workload, {})[str(seed)] = (
                run.outputs(api, sweep.study, sweep.verdicts))
            passed = sum(check.passed for check in sweep.verdicts)
            print(f"{workload} seed {seed}: {passed}/{len(sweep.verdicts)} "
                  f"claims pass", file=sys.stderr)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
