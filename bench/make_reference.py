"""Write the reference verdicts the benchmark gates every run against.

Usage, from the root of a checkout: python3 bench/make_reference.py

Runs every sub-run of every workload once, untimed, in weight-lex basis
order, and stores its timing-free records (or its Jordan JSON) under
bench/reference/. Run it only on an engine whose verdicts are trusted: the
files define what the benchmark accepts as correct.
"""

from __future__ import annotations

import json

from run import run_child
from workloads import WORKLOADS, reference_path, verdict_of


def main():
    for workload, subruns in WORKLOADS.items():
        ref = {}
        for sub in subruns:
            ref[sub["id"]] = verdict_of(
                run_child(dict(sub, order="weight-lex")))
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
