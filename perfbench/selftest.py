"""Self-test of the benchmark's tracing and correctness gate.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default), run from the root of a checkout:
  - two traced samples: both pass the correctness gate, every per-layer
    metric the workload lists reads nonzero in both, and every count
    (`calls`, `madds`, `cyclotomic.mul.*`, ...) is identical in both;
  - the gate rejects a correct report when the expected report is corrupted,
    and rejects a wrong exit code.
For classify-kz5 it also runs the CLI's own default sweep (the corpus file
without candidates) and gates it against the expected report of seed 0, so
seed 0 is shown to reproduce that sweep.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads
from layertrace import COUNTS
from workloads import WORKLOADS

SEED = 0


def check(ok: bool, what: str, failures: list) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def trace_checks(w, failures) -> None:
    input_path = workloads.write_input(w, SEED, run.SRC / "braidedforms" / "data", run.WORK)
    worker = run.Worker(w, SEED, input_path, time.perf_counter())
    first, second = worker.run("traced"), worker.run("traced")
    for label, r in (("first", first), ("second", second)):
        check(not r["problems"], f"{label} traced command is correct {r['problems'] or ''}",
              failures)
    if first["problems"] or second["problems"]:
        return
    a, b = first["layers"], second["layers"]
    zero = [m for m in w.moves if not (a[m] and b[m])]
    check(not zero, f"{len(w.moves)} listed per-layer metrics are nonzero {zero or ''}",
          failures)
    differ = {m: (a[m], b[m]) for m in COUNTS if a[m] != b[m]}
    check(not differ, f"{len(COUNTS)} counts repeat exactly {differ or ''}", failures)
    shown = {m: a[m] for m in w.moves if m in COUNTS}
    print(f"  counts: {json.dumps(shown)}")


def gate_checks(w, failures) -> None:
    good = workloads.expected_for_seed(w, SEED)
    check(not workloads.gate(w, SEED, 0, good), "gate accepts the expected report", failures)
    check(bool(workloads.gate(w, SEED, 1, good)), "gate rejects exit code 1", failures)
    original = workloads.EXPECTED
    corrupt_dir = run.WORK / "corrupt-expected"
    corrupt_dir.mkdir(parents=True, exist_ok=True)
    corrupted = json.loads(json.dumps(good))
    corrupted["schema_version"] += 1
    with open(corrupt_dir / f"{w.name}.json", "w", encoding="utf-8") as f:
        json.dump(corrupted, f)
    workloads.EXPECTED = corrupt_dir
    try:
        check(bool(workloads.gate(w, SEED, 0, good)),
              "gate rejects a correct report against a corrupted expected report", failures)
    finally:
        workloads.EXPECTED = original


def default_sweep_check(w, failures) -> None:
    data = run.SRC / "braidedforms" / "data"
    worker = run.Worker(w, SEED, data / w.bundle, time.perf_counter())
    r = worker.run("sample")
    check(not r["problems"], f"CLI default sweep on {w.bundle} equals the seed-{SEED} "
          f"expected report {r['problems'] or ''}", failures)


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    run.WORK.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in names:
        w = WORKLOADS[name]
        print(name, flush=True)
        trace_checks(w, failures)
        gate_checks(w, failures)
        if w.seeded:
            default_sweep_check(w, failures)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
