"""The benchmark's workloads: one fixed `braidedforms` CLI command each.

Every workload records the layers (modules of src/braidedforms) it loads
and bypasses, and the per-layer metrics that should move its end-to-end
metrics on it. The traced run warns, and perfbench/selftest.py fails, when
one of those metrics reads zero on the workload that lists it, so a mapping
that stops holding is noticed. Why each workload was chosen is in
BENCHMARK.json.

Only `classify-kz5` takes its input from the seed. The other workloads run
a fixed corpus file: their seed is recorded as not applying.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

LAYERS = ("cyclotomic", "matrix", "permutations", "braiding", "graded",
          "tensor_hopf", "hopf", "bimodules", "bosonization", "calculus",
          "io", "cli")

# The end-to-end metrics a per-layer metric should move, by metric prefix;
# every other per-layer metric should move wall_s. Where it should move them
# is each workload's `moves`.
END_TO_END_MOVED = {
    "matrix.compose.": ("wall_s", "peak_rss_mb"),
    "matrix.kron.": ("wall_s", "peak_rss_mb"),
    "matrix.eq.": ("wall_s", "peak_rss_mb"),
    "io.": ("setup_s",),
    "cli.": (),            # context only
    "trace.": (),
}


def end_to_end_moved(metric: str) -> tuple:
    for prefix, moved in END_TO_END_MOVED.items():
        if metric.startswith(prefix):
            return moved
    return ("wall_s",)


@dataclass(frozen=True)
class Workload:
    name: str
    bundle: str              # corpus file under src/braidedforms/data
    args: tuple              # CLI command; the input file goes after args[0]
    parse: object            # (io module, bundle obj, base dir) -> parsed input
    loads: tuple
    bypasses: tuple
    moves: tuple             # per-layer metrics that should move an end-to-end
                             # metric on this workload, so read nonzero here
    seeded: bool = False
    invariants: tuple = ()

    def argv(self, input_path: str) -> list:
        return [self.args[0], input_path, *self.args[1:]]


def _all_checks_pass(checks: dict) -> bool:
    return bool(checks) and all(v["pass"] for v in checks.values())


def _hopf_checks_pass(report):
    return _all_checks_pass(report["checks"]), "every check_hopf check passes"


def _wedge_dims(report):
    return report["dims"] == [1, 2, 4, 8, 16, 30], "wedge dims are 1,2,4,8,16,30"


def _roundtrips(report):
    entries = report["entries"]
    return bool(entries) and all(e["roundtrip"] for e in entries), \
        "every classify roundtrip is true"


def _routes_agree(report):
    ok = (report["routes_agree"] is True
          and _all_checks_pass(report["fodc_checks"])
          and all(_all_checks_pass(r["checks"]) for r in report["routes"].values()))
    return ok, "routes_agree is true and every check passes"


_CYCLO = ("cyclotomic.mul.calls", "cyclotomic.mul.c1", "cyclotomic.mul.cN",
          "cyclotomic.mul.mixed", "cyclotomic.add.calls")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="check-taft3",
        bundle="taft3.json",
        args=("check", "--kind", "hopf"),
        parse=lambda io, obj, base: io.hopf_from_obj(obj),
        loads=("cyclotomic", "matrix", "hopf", "io", "cli"),
        bypasses=("permutations", "graded", "tensor_hopf", "bimodules",
                  "bosonization", "calculus"),
        moves=_CYCLO + (
            "matrix.compose.calls", "matrix.compose.self_s", "matrix.compose.madds",
            "matrix.compose.nnz_frac", "matrix.kron.calls", "matrix.kron.self_s",
            "matrix.kron.out_entries", "matrix.eq.calls", "matrix.eq.self_s",
            "hopf.check_hopf.incl_s", "io.load.incl_s", "io.emit.incl_s"),
        invariants=(_hopf_checks_pass,),
    ),
    Workload(
        name="wedge-zeta5",
        bundle="diagonal_zeta5.json",
        args=("wedge-dims", "--max-degree", "5"),
        parse=lambda io, obj, base: io.braiding_from_obj(obj),
        loads=("cyclotomic", "matrix", "permutations", "braiding", "graded",
               "tensor_hopf", "io", "cli"),
        bypasses=("hopf", "bimodules", "bosonization", "calculus"),
        moves=_CYCLO + (
            "cyclotomic.inv.calls",
            "matrix.rref.calls", "matrix.rref.self_s", "matrix.rref.entries",
            "matrix.solve.calls", "matrix.solve.self_s",
            "permutations.shuffle_set.calls", "permutations.shuffle_set.self_s",
            "braiding.rep.calls", "braiding.rep.self_s",
            "braiding.multinomial.calls", "braiding.multinomial.self_s",
            "braiding.braided_factorial.calls", "braiding.braided_factorial.self_s",
            "tensor_hopf.build_wedge.incl_s", "tensor_hopf.build_wedge.self_s",
            "tensor_hopf.build_tensor_hopf.incl_s"),
        invariants=(_wedge_dims,),
    ),
    Workload(
        name="classify-kz5",
        bundle="kz5.json",
        args=("classify",),
        parse=lambda io, obj, base: io.load_hopf_ref(obj.get("hopf", obj), base),
        loads=("cyclotomic", "matrix", "permutations", "braiding", "hopf",
               "bimodules", "calculus", "io", "cli"),
        bypasses=("graded", "tensor_hopf", "bosonization"),
        moves=("cyclotomic.mul.calls", "cyclotomic.mul.c1", "cyclotomic.add.calls",
               "cyclotomic.inv.calls",
               "matrix.rref.calls", "matrix.rref.self_s", "matrix.rref.entries",
               "matrix.solve.calls", "matrix.solve.self_s",
               "calculus.universal_fodc.calls", "calculus.universal_fodc.incl_s",
               "calculus.fodc_from_submodule.calls", "calculus.fodc_from_submodule.incl_s",
               "calculus.read_off_submodule.calls", "calculus.read_off_submodule.incl_s",
               "calculus.kernel_counit_crossed.calls",
               "calculus.kernel_counit_crossed.incl_s"),
        seeded=True,
        invariants=(_roundtrips,),
    ),
    Workload(
        name="calculus-sweedler",
        bundle="sweedler_universal_calculus.json",
        args=("build-calculus", "--max-degree", "2", "--route", "both"),
        parse=lambda io, obj, base: io.calculus_from_obj(obj, base),
        loads=LAYERS,
        bypasses=(),
        moves=("cyclotomic.mul.calls", "cyclotomic.mul.c1", "cyclotomic.add.calls",
               "matrix.compose.calls", "matrix.compose.self_s", "matrix.compose.madds",
               "matrix.compose.nnz_frac",
               "graded.check_graded_structure.calls",
               "graded.check_graded_structure.incl_s",
               "graded.check_graded_structure.self_s",
               "bimodules.tensor_over_H.calls", "bimodules.tensor_over_H.incl_s",
               "bimodules.yd_braiding.calls", "bimodules.yd_braiding.incl_s",
               "bimodules.hopf_bimodule_braiding.calls",
               "bimodules.hopf_bimodule_braiding.incl_s",
               "bimodules.square_bimodule.calls", "bimodules.square_bimodule.incl_s",
               "bosonization.wedge_over_H.incl_s",
               "calculus.maximal_calculus.incl_s", "calculus.exterior_calculus.incl_s",
               "calculus.exterior_calculus_via_comma.incl_s",
               "calculus.verify_calculus.incl_s"),
        invariants=(_routes_agree,),
    ),
)}


def expected_report(workload: Workload) -> dict:
    with open(EXPECTED / f"{workload.name}.json", encoding="utf-8") as f:
        return json.load(f)


# --- classify-kz5 input ------------------------------------------------------

KZ5_KER_COUNIT_DIM = 4
DEFAULT_SWEEP_SIZES = (0, 1, 1, 1, 1, 4)


def classify_candidates(seed: int):
    """The 6 candidate generator sets for `seed`, and for each the index of
    the default-sweep candidate of the same size.

    The CLI's default sweep is: no generators, each coordinate vector of
    Ker(eps), all of them. Seed 0 is exactly that sweep. Any other seed draws
    the order of the candidates and random nonzero rational vectors with the
    same set sizes. Over Q, Ker(eps) of kZ_5 is a simple crossed module
    (every coordinate vector closes to all of it in the default sweep), so
    every nonempty set closes to the whole space and each seed costs the
    same work; only the generators the CLI starts from change.
    """
    dim = KZ5_KER_COUNIT_DIM
    order = list(range(len(DEFAULT_SWEEP_SIZES)))
    if seed == 0:
        eye = [[1 if r == c else 0 for r in range(dim)] for c in range(dim)]
        return [[]] + [[v] for v in eye] + [eye], order
    rng = random.Random(seed)
    rng.shuffle(order)

    def vector():
        while True:
            v = [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(dim)]
            if any(not x.startswith("0/") for x in v):
                return v

    return [[vector() for _ in range(DEFAULT_SWEEP_SIZES[k])] for k in order], order


def write_input(workload: Workload, seed: int, src_data: Path, work: Path) -> Path:
    """Path of the CLI input for this workload and seed."""
    if not workload.seeded:
        return src_data / workload.bundle
    candidates, _ = classify_candidates(seed)
    bundle = {"hopf": f"bundled:{workload.bundle}", "candidates": candidates}
    path = work / f"{workload.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bundle, f, indent=1)
    return path


def expected_for_seed(workload: Workload, seed: int) -> dict:
    report = expected_report(workload)
    if workload.seeded:
        _, order = classify_candidates(seed)
        report = dict(report, entries=[report["entries"][k] for k in order])
    return report


def gate(workload: Workload, seed: int, exit_code: int, report) -> list:
    """Reasons a command's result is wrong; empty when it is right."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if report is None:
        return problems + ["no --out report written"]
    if report != expected_for_seed(workload, seed):
        problems.append("report differs from the expected report")
    for check in workload.invariants:
        try:
            ok, what = check(report)
        except (KeyError, TypeError, AttributeError) as exc:
            ok, what = False, f"report lacks a field: {exc!r}"
        if not ok:
            problems.append(f"invariant broken: {what}")
    return problems
