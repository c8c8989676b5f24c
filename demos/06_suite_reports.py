#!/usr/bin/env python3
# Batch verification: suites over basis sweeps, deterministic JSON reports.
# The same functionality is exposed on the command line, e.g.
#
#   vertextwist run --model ramond --suite twisted-jacobi --max-weight 1 \
#       --window 3 --report report.json
#   vertextwist expand ramond "Ytw(vac,x) psi" --window 2
#   vertextwist decompose heis3 unipotent
#   vertextwist dump-basis fermion --max-weight 2

import json

from vertextwist.harness import SuiteConfig, run_suite
from vertextwist.models import Registry

reg = Registry()

cfg = SuiteConfig(model="ramond", suite="equivariance", max_weight=1,
                  halfwidth=3)
report = run_suite(cfg, reg)
doc = report.to_json(with_timing=False)
print("suite:", doc["config"]["suite"], "on", doc["config"]["model"])
print("summary:", doc["summary"])
print("first record:", json.dumps(doc["records"][0], sort_keys=True))

cfg = SuiteConfig(model="z2boson", suite="commutator", max_weight=1,
                  halfwidth=3)
print("commutator suite all pass:", run_suite(cfg, reg).ok)

# reports are byte-identical across runs once timing fields are stripped
a = run_suite(SuiteConfig("ramond", "weak-comm", 1, 3), Registry()).dumps(
    with_timing=False)
b = run_suite(SuiteConfig("ramond", "weak-comm", 1, 3), Registry()).dumps(
    with_timing=False)
print("deterministic report:", a == b)
