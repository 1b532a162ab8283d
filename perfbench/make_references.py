"""Record the reference summaries the correctness gate compares against.

    python3 perfbench/make_references.py

Run once, from the root of a checkout of the commit whose outputs are
the reference (the commit that introduced this benchmark).  Rerunning
it on later code would make the gate compare that code with itself.
"""

from __future__ import annotations

import json
import os

import check
import run

KEYS = check.EXACT_KEYS + check.CLOSE_KEYS
# Seeds 0 .. REFERENCE_SEEDS - 1 of every workload get a reference.
REFERENCE_SEEDS = 24


def main() -> None:
    root = os.getcwd()
    src = os.path.join(root, "src")
    out: dict = {}
    for name in run.gen.WORKLOADS:
        out[name] = {}
        for seed in range(REFERENCE_SEEDS):
            w = run.Workload(name, seed, root, {})
            record = w.run_once(src, traced=False)
            if not all(record["passed"]) or any(w.first_errors):
                raise SystemExit(f"{name} seed {seed}: run failed: {w.first_errors}")
            out[name][str(seed)] = [
                {k: v for k, v in check.read_summary(os.path.join(w.first_out, n)).items() if k in KEYS}
                for n in w.config_names()
            ]
            print(name, seed, out[name][str(seed)][0])
    with open(check.REFERENCES, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
