"""One benchmark sample, in a fresh process.

    python3 perfbench/worker.py {setup|sample|traced} WORKLOAD INPUT [OUT]

Every mode first times the set-up: importing braidedforms.cli and one parse
of the input bundle through braidedforms.io. `sample` and `traced` then reset
the module caches (so the command starts from the cold state a CLI
invocation has), run `braidedforms.cli.main` in this process with
`--out OUT`, and time it; `traced` installs the per-layer tracer first.
The last line of stdout is one JSON object with the measurements.

Each time is reported twice: `*_raw_s` as measured, and `setup_s`/`wall_s`
rescaled by HostSpeed to a host of fixed speed.
"""

from __future__ import annotations

import contextlib
import gc
import io as _stdio
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_EVERY_S = 0.02     # the reference loop takes ~2 % of a measured region
REFERENCE_S = 0.0004     # the loop's time on the host that times are scaled to
EDGE_PROBES = 3          # probes just before and after a region; they carry the
                         # speed of a set-up, which lasts about one PROBE_EVERY_S


def _reference_loop() -> dict:
    """A fixed piece of rational arithmetic, like the program's own work."""
    total, table = Fraction(1, 3), {}
    for i in range(50):
        total = total * Fraction(i + 1, i + 2) + Fraction(1, 7)
        table[i] = total
    return table


class HostSpeed:
    """Rescales the time of a region to a host of fixed speed.

    A shared host changes speed by up to half within seconds, in CPU time as
    much as in wall time, so raw times of the same command differ by more
    than a regression worth catching. While a region runs, SIGALRM times
    _reference_loop every PROBE_EVERY_S, in this thread, so each probe runs
    at the region's speed of that moment; EDGE_PROBES more run just before
    and after it. The region's time less the probes' own, times the mean
    probe speed (1 / probe time), times REFERENCE_S, is the time the region
    would take where the loop takes REFERENCE_S.
    """

    def __init__(self):
        self.probes = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
        _reference_loop()   # warm up

    def _probe(self) -> None:
        gc_on = gc.isenabled()
        gc.disable()        # collecting the program's garbage is not the loop's time
        t0 = time.perf_counter()
        _reference_loop()
        self.probes.append(time.perf_counter() - t0)
        if gc_on:
            gc.enable()

    def time(self, fn):
        """Run fn(); return its value, the raw wall and CPU seconds less the
        probes', and the rescaled seconds."""
        self.probes = []
        for _ in range(EDGE_PROBES):
            self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        inside = sum(self.probes[EDGE_PROBES:])
        for _ in range(EDGE_PROBES):
            self._probe()
        speed = statistics.fmean(1 / p for p in self.probes)
        return value, wall - inside, cpu - inside, (wall - inside) * speed * REFERENCE_S


def _setup(workload, input_path: Path) -> None:
    from braidedforms import cli, io  # noqa: F401
    workload.parse(io, io.load_json(input_path), input_path.parent)


def _cold_state() -> None:
    """Drop what the set-up parse left in module-level caches.

    `BraidedSpace._rep_cache` lives on each instance and the command builds
    its own instances, so it starts empty without help.
    """
    from braidedforms import cyclotomic
    cyclotomic._CYCLO_CACHE.clear()
    cyclotomic._TABLE_CACHE.clear()
    gc.collect()


def main(argv) -> int:
    mode, name, input_path = argv[0], argv[1], Path(argv[2])
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    speed = HostSpeed()
    _, raw, _, scaled = speed.time(lambda: _setup(workload, input_path))
    result = {"setup_raw_s": raw, "setup_s": scaled}
    import braidedforms
    if Path(braidedforms.__file__).resolve().parent != (SRC / "braidedforms").resolve():
        raise SystemExit(f"braidedforms imported from {braidedforms.__file__}, not {SRC}")
    if mode != "setup":
        from braidedforms import cli
        _cold_state()
        tracer = None
        if mode == "traced":
            import layertrace
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        argv_cli = workload.argv(str(input_path)) + ["--out", argv[3]]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            result["exit_code"], result["wall_raw_s"], result["cpu_s"], result["wall_s"] = \
                speed.time(lambda: cli.main(argv_cli))
        if tracer is not None:
            result["layers"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
