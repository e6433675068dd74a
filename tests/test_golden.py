"""The CLI `--out` reports are byte-identical to committed reports.

The four benchmark workloads are compared with `perfbench/expected/` (read,
never written). The reports under `tests/golden/` come from commands that
run the Hopf bimodule and crossed module leg swaps, square bimodules,
classification over Q and Q(zeta_n) for n = 3, 4, 5, both exterior-calculus
routes over Q and over Q(zeta_3), and the wedge dimensions with and without
the quadratic comparison, up to conductor 97; the 4.6 MB taft3 universal
calculus report is pinned by its SHA-256. The report writer gives back
every committed report from its parsed form, and it writes what
`json.JSONEncoder(indent=2, sort_keys=True)` writes.  Each bundled Hopf
algebra is what its builder in `hopf` writes.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms import hopf, io
from braidedforms.cli import main
from braidedforms.cyclotomic import MINUS_ONE, Scalar
from braidedforms.matrix import Matrix

TESTS = Path(__file__).resolve().parent
EXPECTED = TESTS.parent / "perfbench" / "expected"
GOLDEN = TESTS / "golden"

# (committed report, command, bundled input, further arguments)
REPORTS = [
    (EXPECTED / "check-taft3.json", "check", "taft3", ["--kind", "hopf"]),
    (EXPECTED / "wedge-zeta5.json", "wedge-dims", "diagonal_zeta5", ["--max-degree", "5"]),
    (EXPECTED / "classify-kz5.json", "classify", "kz5", []),
    (EXPECTED / "calculus-sweedler.json", "build-calculus", "sweedler_universal_calculus",
     ["--max-degree", "2", "--route", "both"]),
    (GOLDEN / "build-calculus-kz3_universal_calculus.json", "build-calculus",
     "kz3_universal_calculus", ["--max-degree", "3", "--route", "both"]),
    (GOLDEN / "build-calculus-kz2_universal_calculus.json", "build-calculus",
     "kz2_universal_calculus", ["--max-degree", "3", "--route", "both"]),
    (GOLDEN / "build-calculus-kz2_universal_calculus-12.json", "build-calculus",
     "kz2_universal_calculus", ["--max-degree", "12"]),
    (GOLDEN / "build-calculus-taft3_quotient_calculus.json", "build-calculus",
     "taft3_quotient_calculus", ["--max-degree", "2", "--route", "both"]),
    (GOLDEN / "check-bimodule-kz3_square_bimodule.json", "check", "kz3_square_bimodule",
     ["--kind", "bimodule"]),
    (GOLDEN / "check-crossed-sweedler_coadjoint_crossed.json", "check",
     "sweedler_coadjoint_crossed", ["--kind", "crossed"]),
    (GOLDEN / "classify-sweedler.json", "classify", "sweedler", []),
    (GOLDEN / "classify-taft3.json", "classify", "taft3", []),
    (GOLDEN / "classify-ks3.json", "classify", "ks3", []),
    *[(GOLDEN / f"wedge-dims-{name}-compare-quadratic.json", "wedge-dims", name,
       ["--max-degree", "5", "--compare-quadratic"])
      for name in ("swap2", "swap3", "braided_line_zeta3", "diagonal_zeta5")],
    (GOLDEN / "wedge-dims-braided_line_zeta3-7.json", "wedge-dims", "braided_line_zeta3",
     ["--max-degree", "7"]),
]


@pytest.mark.parametrize("expected, command, name, rest", REPORTS,
                         ids=[r[0].stem for r in REPORTS])
def test_report_bytes(tmp_path, expected, command, name, rest):
    out = tmp_path / "report.json"
    assert main([command, str(io.bundled_path(name)), *rest, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


# each bundled Hopf algebra and the builder that writes it
HOPF_BUILDERS = {
    **{f"kz{n}": lambda n=n: hopf.cyclic_group_algebra(n) for n in range(2, 7)},
    "ks3": hopf.symmetric_group_algebra_s3,
    "sweedler": hopf.sweedler_algebra,
    "taft3": lambda: hopf.taft_algebra(3),
}


@pytest.mark.parametrize("name", sorted(HOPF_BUILDERS))
def test_bundled_hopf_is_its_builder(name):
    # the file holds exactly the builder's structure maps, plus its metadata
    obj = io.load_json(io.bundled_path(name))
    built = HOPF_BUILDERS[name]().to_obj()
    assert {key: obj[key] for key in built} == built
    assert set(obj) - set(built) == {"kind", "name", "schema_version"}


def _classify_taft(tmp_path, n):
    # the Taft algebra of dim n^2 at a primitive nth root of unity, not
    # bundled (taft5 is 4 MB as JSON): written from hopf.taft_algebra(n)
    path = tmp_path / f"taft{n}.json"
    io.save_json(hopf.taft_algebra(n).to_obj(), path)
    out = tmp_path / "report.json"
    assert main(["classify", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"classify-taft{n}.json").read_bytes()


def test_classify_taft4_report_bytes(tmp_path):
    # the default sweep of 17 candidates over Ker eps of dim 15
    _classify_taft(tmp_path, 4)


def test_classify_taft5_report_bytes(tmp_path):
    # the default sweep of 26 candidates over Ker eps of dim 24; the golden
    # was written by the quotient-of-Ker-m classifier
    _classify_taft(tmp_path, 5)


def test_classify_taft6_report_bytes(tmp_path):
    # the default sweep of 37 candidates over Ker eps of dim 35; the golden
    # was written while every smash calculus still built its right structure
    _classify_taft(tmp_path, 6)


@pytest.mark.parametrize("expected, name", [(EXPECTED / "classify-kz5.json", "kz5"),
                                            (GOLDEN / "classify-taft3.json", "taft3")],
                         ids=["kz5", "taft3"])
def test_classify_never_builds_right_structure(tmp_path, monkeypatch, expected, name):
    # classify reads only the left action of each smash calculus, so its
    # diagonal right action and coaction are never built
    from braidedforms import bimodules

    calls = []
    diagonal_structures = bimodules.diagonal_structures

    def counting(x, m):
        calls.append(m.name)
        return diagonal_structures(x, m)

    monkeypatch.setattr(bimodules, "diagonal_structures", counting)
    out = tmp_path / "report.json"
    assert main(["classify", str(io.bundled_path(name)), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert calls == []


def test_build_calculus_taft3_universal_report_hash(tmp_path):
    # the frontier: taft3's universal calculus, dims 9, 72, 441 up to N = 2;
    # its 4.6 MB report is pinned by its SHA-256, not committed
    path = tmp_path / "taft3_universal.json"
    io.save_json({"hopf": "bundled:taft3",
                  "submodule": {"ambient": "ker_counit", "generators": []}}, path)
    out = tmp_path / "report.json"
    assert main(["build-calculus", str(path), "--max-degree", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "05a8b94c693f7a84bdb8b922a5875ea288dd67b3a2e022e66d3a977919c67ced")


def _wedge_dims_conductor97_line(tmp_path, max_degree):
    # a braided line over Q(zeta_97), psi = zeta + zeta^2 and lambda = -1, not
    # bundled: each degree's braided factorial is a 1 x 1 matrix whose entry
    # has phi(97) = 96 coordinates
    psi = Scalar.zeta(97) + Scalar.zeta(97, 2)
    path = tmp_path / "line97.json"
    io.save_json({"dim": 1, "kind": "braiding", "lambda": MINUS_ONE.to_obj(),
                  "psi": Matrix(1, 1, [psi]).to_obj(), "schema_version": 1}, path)
    out = tmp_path / "report.json"
    assert main(["wedge-dims", str(path), "--max-degree", str(max_degree),
                 "--out", str(out)]) == 0
    golden = GOLDEN / f"wedge-dims-braided_line_zeta97-{max_degree}.json"
    assert out.read_bytes() == golden.read_bytes()


def test_wedge_dims_conductor97_line_report_bytes(tmp_path):
    _wedge_dims_conductor97_line(tmp_path, 6)


def test_wedge_dims_conductor97_line_degree12_report_bytes(tmp_path):
    # degrees 7-12, where the factorial's entry has the largest coordinates
    _wedge_dims_conductor97_line(tmp_path, 12)


SOLVERS = {"solve_mono", "solve_epi", "solve_factor", "particular_solution", "inverse"}


def test_classify_eliminates_only_to_find_bases(tmp_path, monkeypatch):
    # every solve of classify runs against a kernel or echelon basis (or a
    # Kronecker product of one with an identity), so it reads its answer off
    # unit rows: rref runs to find bases and the counit's rank, never in a
    # solver
    callers, in_solver = [], []
    rref = Matrix.rref

    def recording(self):
        frame = sys._getframe(1)
        callers.append(frame.f_code.co_name)
        while frame is not None:
            if frame.f_code.co_name in SOLVERS:
                in_solver.append(frame.f_code.co_name)
            frame = frame.f_back
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", recording)
    out = tmp_path / "report.json"
    assert main(["classify", str(io.bundled_path("kz5")), "--out", str(out)]) == 0
    assert out.read_bytes() == (EXPECTED / "classify-kz5.json").read_bytes()
    assert callers and set(callers) <= {"kernel_basis", "column_echelon_basis", "rank"}
    assert in_solver == []


COMMITTED = sorted([*GOLDEN.glob("*.json"), *EXPECTED.glob("*.json")])


@pytest.mark.parametrize("path", COMMITTED, ids=[f"{p.parent.name}/{p.stem}" for p in COMMITTED])
def test_committed_report_round_trip(path):
    text = path.read_text(encoding="utf-8")
    assert io.dumps(json.loads(text)) == text


_STRINGS = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€😀\ud800') | st.characters(),
                   max_size=8)
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
           | _STRINGS)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_STRINGS, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=60, deadline=None)
@given(_TREES)
def test_writer_matches_stdlib_indent_encoder(obj):
    # empty containers, tuples, big and negative ints, bools, None and
    # strings with escapes at every depth, streamed levels and below;
    # save_json writes the pieces dumps joins
    expected = json.JSONEncoder(indent=2, sort_keys=True).encode(obj) + "\n"
    assert io.dumps(obj) == expected


@pytest.mark.parametrize("obj", [1.5, {"a": [[1, 0.5]]}, {1: "x"}, {"a": {"b": {None: 1}}},
                                 {"a": 1, 2: 3}, object(), [[[[object()]]]]],
                         ids=["float", "nested-float", "int-key", "deep-none-key",
                              "mixed-keys", "object", "deep-object"])
def test_writer_refuses_what_no_report_holds(tmp_path, obj):
    with pytest.raises(TypeError):
        io.dumps(obj)
    with pytest.raises(TypeError):
        io.save_json(obj, tmp_path / "report.json")
