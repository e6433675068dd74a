"""Benchmark of the braidedforms CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. A closed loop with one caller: each sample
is one `braidedforms.cli.main(argv)` call in a fresh worker process
(perfbench/worker.py), started only after the previous one has ended, so
every sample starts from cold module state. Each command's exit code and
`--out` report are checked against perfbench/expected/ and the workload's
invariants; a failed command counts in `failed` and its timing is dropped.

--trace 0 measures the end-to-end metrics with tracing off. Samples are
taken until the next one would end after S seconds (at least one). Each time
is rescaled by perfbench/worker.py's HostSpeed to a host on which a fixed
reference loop, timed in the same thread while the region runs, takes
0.4 ms: this shared host's speed changes by up to half within seconds, and
the rescaled times repeat within a few per cent where raw times do not.
  wall_s        median rescaled wall-clock time of the cli.main call
  setup_s       median rescaled time to import braidedforms.cli and parse the
                input once through braidedforms.io (with the stdlib already
                loaded by the worker): one per sample, plus SETUP_PER_SAMPLE
                set-up-only workers before each sample and more at the end up
                to MIN_SETUPS
  peak_rss_mb   median peak resident memory of a worker process
  success_rate  commands whose result was right / commands attempted
                (1 - error_rate; an end-to-end metric must never read 0)
The raw times are printed on the lines before the result.
--trace 1 runs one untraced and one traced sample, whatever S, and reports
the per-layer metrics of perfbench/layertrace.py.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines before it record the samples, the Python version, the
number of CPUs, the hash seed, and whether the seed applies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from layertrace import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, end_to_end_moved, gate, write_input  # noqa: E402

SETUP_PER_SAMPLE = 3    # set-up-only workers before each sample, so that the
MIN_SETUPS = 24         # short, noisy set-up samples spread over the whole run
HASH_SEED = "0"         # fixed so that traced counts repeat exactly
RUN_LIMIT_S = 170       # every worker is stopped by then


class WorkerError(RuntimeError):
    pass


class Worker:
    """Starts worker processes for one workload and input."""

    def __init__(self, workload, seed: int, input_path: Path, start: float):
        self.workload, self.seed, self.input_path = workload, seed, input_path
        self.start = start
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)

    def run(self, mode: str) -> dict:
        """Run one worker; for a command, add `problems` from the correctness gate."""
        out = WORK / f"{self.workload.name}-{os.getpid()}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.workload.name,
               str(self.input_path), str(out)]
        budget = RUN_LIMIT_S - (time.perf_counter() - self.start)
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=max(budget, 1))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            problem = f"{mode} worker exited with {proc.returncode}: {tail[0]}"
            if mode == "setup":
                raise WorkerError(problem)
            out.unlink(missing_ok=True)
            return {"problems": [problem]}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode != "setup":
            report = None
            if out.exists():
                with open(out, encoding="utf-8") as f:
                    report = json.load(f)
                out.unlink()
            result["problems"] = gate(self.workload, self.seed, result["exit_code"], report)
        return result


def _median(values):
    return statistics.median(values) if values else None


def run_timed(worker: Worker, seconds: float, log):
    setups, good, attempted = [], [], 0
    while True:
        t0 = time.perf_counter()
        setups += [worker.run("setup") for _ in range(SETUP_PER_SAMPLE)]
        r = worker.run("sample")
        attempted += 1
        if r["problems"]:
            log(f"# sample {attempted} FAILED: {'; '.join(r['problems'])}")
        else:
            good.append(r)
            setups.append(r)
            log(f"# sample {attempted}: wall_s={r['wall_s']:.4f} (raw {r['wall_raw_s']:.4f}) "
                f"cpu_s={r['cpu_s']:.4f} setup_s={r['setup_s']:.4f} "
                f"(raw {r['setup_raw_s']:.4f}) peak_rss_mb={r['peak_rss_mb']:.1f}")
        now = time.perf_counter()
        if now - worker.start + (now - t0) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(worker.run("setup"))
    failed = attempted - len(good)
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in good]), "s"),
        "setup_s": (_median([r["setup_s"] for r in setups]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in good]), "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    for key in ("setup_s", "setup_raw_s"):
        log(f"# {key} samples: {' '.join(f'{r[key]:.4f}' for r in setups)}")
    log(f"# error_rate {failed / attempted} ({failed} of {attempted} commands failed)")
    return attempted, failed, metrics


def run_traced(worker: Worker, log):
    plain = worker.run("sample")
    traced = worker.run("traced")
    failed = 0
    for label, r in (("untraced", plain), ("traced", traced)):
        if r["problems"]:
            failed += 1
            log(f"# {label} sample FAILED: {'; '.join(r['problems'])}")
    values = {}
    if not failed:
        values = dict(traced["layers"])
        values["cli.cpu_s"] = plain["cpu_s"]
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        log(f"# untraced wall_s={plain['wall_s']:.4f}  traced wall_s={traced['wall_s']:.4f}")
        for name in worker.workload.moves:
            if not values[name]:
                log(f"# WARNING: {name} reads 0 on {worker.workload.name}, which lists it")
    metrics = {name: (values.get(name), unit) for name, unit in LAYER_METRICS.items()}
    return 2, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, raise SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "braidedforms" / "cli.py").is_file():
        print(f"error: no braidedforms sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    input_path = write_input(workload, args.seed, SRC / "braidedforms" / "data", WORK)
    worker = Worker(workload, args.seed, input_path, start)

    def log(line):
        print(line, flush=True)

    log(f"# workload={workload.name} seed={args.seed} "
        + ("(draws the candidate sets)" if workload.seeded
           else "(does not apply: fixed corpus input)")
        + f" python={platform.python_version()} nproc={os.cpu_count()} "
        f"PYTHONHASHSEED={HASH_SEED} trace={args.trace}")
    log(f"# loads {' '.join(workload.loads)}; bypasses {' '.join(workload.bypasses) or '-'}")
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(worker, log)
        else:
            attempted, failed, metrics = run_timed(worker, args.seconds, log)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if workload.seeded:
            input_path.unlink(missing_ok=True)
    for name, (value, unit) in metrics.items():
        if value is None:
            continue
        if not args.trace:
            log(f"{name} {value:.6g} {unit}")
        elif name in workload.moves or not end_to_end_moved(name):
            moved = end_to_end_moved(name)
            log(f"{name} {value:.6g} {unit}  ({'moves ' + ', '.join(moved) if moved else 'context'})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed < attempted else 1


if __name__ == "__main__":
    sys.exit(main())
