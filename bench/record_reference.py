"""Record reference.json from the program as it stands.

    python3 bench/record_reference.py

Stores, for every workload command the benchmark can issue (each CLI seed,
full and smoke size), the sha256 of the CSV it writes, plus the example1
values and heisenberg rows that workloads.py compares against. Run it only
on the commit whose outputs are the reference.
"""

import hashlib
import json
import os
import sys

import run
import workloads


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    ref = {"digests": {}, "example1": {}, "heisenberg": {}}
    for smoke in (False, True):
        for cls in workloads.WORKLOADS.values():
            seeds = (range(workloads.CLI_SEEDS)
                     if cls in (workloads.Fig56, workloads.Example1) else (0,))
            for seed in seeds:
                wl = cls(seed, smoke=smoke)
                doc, text = run.run_child(wl.argv(), False, "reference")
                if doc["rc"] != 0 or text is None:
                    print(f"{' '.join(wl.argv())} failed", file=sys.stderr)
                    return 1
                ref["digests"][" ".join(wl.argv())] = hashlib.sha256(text.encode()).hexdigest()
                _, rows = workloads.parse_csv(text)
                if cls is workloads.Example1:
                    ref["example1"].update({f"{q},{n},{c}": float(v) for q, n, c, v in rows})
                if cls is workloads.Heisenberg:
                    ref["heisenberg"].update({r[0]: [float(x) for x in r] for r in rows})
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
