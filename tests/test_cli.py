import contextlib
import io as stdio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms import calculus, cli, io, tensor_hopf
from braidedforms.bimodules import regular_bimodule
from braidedforms.calculus import universal_fodc
from braidedforms.cli import main
from braidedforms.cyclotomic import ZERO, Scalar
from braidedforms.matrix import Matrix


def run(args):
    return main(args)


def _bundled_object(name):
    """A bundled file's object, its "hopf" member made a bundled: reference,
    so that it reads from any directory."""
    obj = io.load_json(io.bundled_path(name))
    if "hopf" in obj:
        obj["hopf"] = "bundled:" + obj["hopf"]
    return obj


def bundle(tmp_path, name, obj):
    path = tmp_path / name
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def _counting(calls, fn):
    """fn, counting its calls by name in calls."""
    def wrapper(*args):
        calls[fn.__name__] += 1
        return fn(*args)
    return wrapper


@pytest.fixture
def data(name=None):
    return io.bundled_path


class TestCheck:
    def test_hopf_pass(self, capsys):
        assert run(["check", "--kind", "hopf", str(io.bundled_path("sweedler"))]) == 0
        out = capsys.readouterr().out
        assert "antipode_left" in out and "FAIL" not in out

    def test_bimodule_and_crossed_pass(self):
        assert run(["check", "--kind", "bimodule",
                    str(io.bundled_path("sweedler_regular_bimodule"))]) == 0
        assert run(["check", "--kind", "crossed",
                    str(io.bundled_path("sweedler_coadjoint_crossed"))]) == 0

    def test_calculus_pass(self):
        assert run(["check", "--kind", "calculus",
                    str(io.bundled_path("kz2_universal_calculus"))]) == 0

    def test_braiding_pass_and_fail(self, tmp_path, capsys):
        assert run(["check", "--kind", "braiding",
                    str(io.bundled_path("diagonal_zeta5"))]) == 0
        ok = json.load(open(io.bundled_path("swap2")))
        bad = dict(ok)
        # corrupt one entry so the braid equation fails
        bad["psi"] = json.loads(json.dumps(ok["psi"]))
        bad["psi"]["entries"][1] = {"conductor": 1, "coeffs": [[1, 1]]}
        out = tmp_path / "report.json"
        code = run(["check", "--kind", "braiding", bundle(tmp_path, "bad.json", bad),
                    "--out", str(out)])
        assert code == 1
        report = json.load(open(out))
        assert report["checks"]["yang_baxter"] == {"first_failure": "3", "pass": False}
        # lambda = 0 is rejected when the file is read, so there is no check for it
        assert "lambda_invertible" not in report["checks"]

    def test_malformed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        assert run(["check", "--kind", "hopf", str(path)]) == 2
        assert run(["check", "--kind", "hopf", str(tmp_path / "missing.json")]) == 2
        # schema violation: missing keys
        assert run(["check", "--kind", "hopf", bundle(tmp_path, "bad2.json", {"dim": 2})]) == 2

    def test_axiom_failure_exit_1(self, tmp_path):
        obj = json.load(open(io.bundled_path("kz2")))
        obj["antipode"] = obj["unit"] | {}  # wrong shape is parse error...
        obj["antipode"] = json.loads(json.dumps(obj["comult"]))  # wrong shape
        assert run(["check", "--kind", "hopf", bundle(tmp_path, "b.json", obj)]) == 2
        obj = json.load(open(io.bundled_path("kz2")))
        # the zero antipode breaks the antipode axioms but parses fine
        obj["antipode"]["entries"] = [0 for _ in obj["antipode"]["entries"]]
        assert run(["check", "--kind", "hopf", bundle(tmp_path, "c.json", obj)]) == 1

    @pytest.mark.parametrize("legacy", ["inverse", "zero", "string"])
    def test_legacy_antipode_inv_is_ignored(self, tmp_path, legacy):
        # a Hopf file states S alone; an antipode_inv member, right or wrong,
        # changes no byte of the report
        obj = io.load_json(io.bundled_path("taft3"))
        s = io.matrix_from_obj(obj["antipode"])
        obj["antipode_inv"] = {"inverse": s.inverse().to_obj(),
                               "zero": Matrix.zero(s.rows, s.cols).to_obj(),
                               "string": "garbage"}[legacy]
        reports = []
        for path in (str(io.bundled_path("taft3")), bundle(tmp_path, "t.json", obj)):
            out = tmp_path / "report.json"
            code, stdout, err = _main(["check", "--kind", "hopf", path, "--out", str(out)])
            reports.append((code, stdout.split("\n", 1)[1], err, out.read_bytes()))
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_hopf_failure_report_bytes(self, tmp_path):
        obj = json.load(open(io.bundled_path("kz2")))
        obj["mult"]["entries"][0] = 2
        out = tmp_path / "report.json"
        assert run(["check", "--kind", "hopf", bundle(tmp_path, "m.json", obj),
                    "--out", str(out)]) == 1
        checks = json.load(open(out))["checks"]
        failed = {"antipode_left", "antipode_right", "associativity", "bialgebra",
                  "unit", "unit_counit"}
        assert {name for name, v in checks.items() if not v["pass"]} == failed
        for name, v in checks.items():
            assert v["first_failure"] == (repr(name) if name in failed else None)


class TestWedgeDims:
    def test_braided_line(self, capsys):
        assert run(["wedge-dims", str(io.bundled_path("braided_line_zeta3")),
                    "--max-degree", "4", "--compare-quadratic"]) == 0
        out = capsys.readouterr().out
        assert "1,1,1,0,0" in out and "1,1,1,1,1" in out
        assert "UNEQUAL from degree 3" in out

    def test_swap(self, capsys):
        assert run(["wedge-dims", str(io.bundled_path("swap2")), "--max-degree", "4"]) == 0
        assert "1,2,1,0,0" in capsys.readouterr().out

    def test_too_large_exit_3(self):
        assert run(["wedge-dims", str(io.bundled_path("swap3")), "--max-degree", "9"]) == 3

    def test_braided_line_high_degree(self, tmp_path):
        # the resource bound never limits a 1-dimensional space, so [9]! must
        # not cost 9! braid representations, and no degree past [3]! = 0
        # builds a shuffle factor
        out = tmp_path / "report.json"
        for N in (9, 10000):
            assert run(["wedge-dims", str(io.bundled_path("braided_line_zeta3")),
                        "--max-degree", str(N), "--out", str(out)]) == 0
            assert json.loads(out.read_text())["dims"] == [1, 1, 1] + [0] * (N - 2)

    def test_dims_do_not_build_the_wedge_algebra(self, monkeypatch, capsys):
        def refuse(*args):
            raise RuntimeError("wedge-dims built T°(X)")

        monkeypatch.setattr(tensor_hopf, "build_tensor_hopf", refuse)
        assert run(["wedge-dims", str(io.bundled_path("diagonal_zeta5")),
                    "--max-degree", "3"]) == 0
        assert "1,2,4,8" in capsys.readouterr().out


class TestBuildCalculus:
    def test_kz2_both_routes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["build-calculus", str(io.bundled_path("kz2_universal_calculus")),
                    "--max-degree", "3", "--route", "both", "--out", str(out)])
        assert code == 0
        report = json.load(open(out))
        assert report["routes"]["biproduct"]["dims"] == [2, 2, 0, 0]
        assert report["routes"]["maximal"]["dims"] == [2, 2, 0, 0]
        assert report["routes_agree"] is True
        assert report["schema_version"] == 1

    def test_unrun_check_has_no_entry(self, tmp_path):
        # below degree 2 nothing tests d^2 = 0, so the report has no d_squared
        out = tmp_path / "report.json"
        assert run(["build-calculus", str(io.bundled_path("kz2_universal_calculus")),
                    "--max-degree", "1", "--out", str(out)]) == 0
        assert sorted(json.load(open(out))["checks"]) == [
            "antipode", "antipode_diff", "associativity", "bialgebra", "coassociativity",
            "comult_diff", "counit", "leibniz", "unit", "unit_counit_compat"]

    def test_unstable_generators_exit_1(self, tmp_path, capsys):
        obj = {"hopf": "bundled:kz3",
               "submodule": {"ambient": "ker_counit", "generators": [[1, 0]]}}
        code = run(["build-calculus", bundle(tmp_path, "u.json", obj), "--max-degree", "2"])
        assert code == 1
        assert "closed under the action" in capsys.readouterr().err

    def test_too_large_exit_3(self):
        assert run(["build-calculus", str(io.bundled_path("sweedler_universal_calculus")),
                    "--max-degree", "9"]) == 3

    def test_one_dimensional_coinvariants_high_degree(self, tmp_path):
        # the resource bound never limits kz2's 1-dimensional coinvariants, so
        # degree 30 must cost neither 2^31 shuffles nor H^(x)31 words
        out = tmp_path / "report.json"
        assert run(["build-calculus", str(io.bundled_path("kz2_universal_calculus")),
                    "--max-degree", "30", "--out", str(out)]) == 0
        assert json.load(open(out))["dims"] == [2, 2] + [0] * 29

    def test_explicit_bimodule_form(self, tmp_path, kz2):
        univ = universal_fodc(kz2)
        obj = {"hopf": "bundled:kz2", "X": univ.x.to_obj(), "d": univ.d.to_obj()}
        assert run(["build-calculus", bundle(tmp_path, "e.json", obj),
                    "--max-degree", "2"]) == 0

    @pytest.mark.parametrize("field, index", [("mu_l", 5), ("mu_r", 6), ("nu_r", 5)])
    def test_broken_first_order_calculus_exit_1(self, tmp_path, capsys, kz2, field, index):
        # a zeroed entry here left the coinvariants unsplit or the derived
        # braiding singular, which ended in a traceback; the forms are now
        # built only over a calculus that passes its first-order checks
        univ = universal_fodc(kz2)
        obj = {"hopf": "bundled:kz2", "X": univ.x.to_obj(), "d": univ.d.to_obj()}
        obj["X"][field]["entries"][index] = 0
        out = tmp_path / "r.json"
        assert run(["build-calculus", bundle(tmp_path, "b.json", obj), "--max-degree", "1",
                    "--out", str(out)]) == 1
        assert "first-order calculus: CHECKS FAILED" in capsys.readouterr().out
        report = json.load(open(out))
        assert "routes" not in report and "dims" not in report
        assert not all(v["pass"] for v in report["fodc_checks"].values())


def _counting_checks(monkeypatch):
    """Calls of check_graded_structure from now on, by name."""
    calls = Counter()
    monkeypatch.setattr(calculus, "check_graded_structure",
                        _counting(calls, calculus.check_graded_structure))
    return calls


class TestVerifyOnce:
    """--route both builds both routes and verifies an algebra they share once."""

    @pytest.mark.parametrize("name, N", [("kz2_universal_calculus", "3"),
                                         ("kz3_universal_calculus", "3"),
                                         ("sweedler_universal_calculus", "2"),
                                         ("taft3_quotient_calculus", "2")])
    def test_shared_algebra_verified_once(self, tmp_path, monkeypatch, name, N):
        calls = _counting_checks(monkeypatch)
        out = tmp_path / "report.json"
        assert run(["build-calculus", str(io.bundled_path(name)), "--max-degree", N,
                    "--route", "both", "--out", str(out)]) == 0
        assert calls["check_graded_structure"] == 1
        routes = json.load(open(out))["routes"]
        assert routes["maximal"]["checks"] == routes["biproduct"]["checks"]

    def test_different_algebras_verified_each(self, tmp_path, monkeypatch, capsys):
        # the biproduct route's d_0 doubled: its blocks differ from the
        # maximal route's, so it is verified on its own and fails there
        build = cli.exterior_calculus

        def doubled(calc, N):
            alg = build(calc, N)
            alg.differential[0] = alg.differential[0].scale(Scalar.rational(2))
            return alg

        monkeypatch.setattr(cli, "exterior_calculus", doubled)
        calls = _counting_checks(monkeypatch)
        assert run(["build-calculus", str(io.bundled_path("sweedler_universal_calculus")),
                    "--max-degree", "2", "--route", "both",
                    "--out", str(tmp_path / "report.json")]) == 1
        assert calls["check_graded_structure"] == 2
        assert capsys.readouterr().out == (
            "route maximal: dims 4,12,24  all checks pass\n"
            "route biproduct: dims 4,12,24  CHECKS FAILED\n"
            "  comult_diff              FAIL ((1, 1))\n"
            "  leibniz                  FAIL ((0, 1))\n"
            "routes agree on dims\n")


class TestRouteBuilders:
    def test_each_route_builder_runs_once_through_cli_names(self, monkeypatch, tmp_path):
        # perfbench/layertrace.py traces a function by rebinding the module
        # names that hold it; the CLI must call the route builders through
        # its own names, once each, for the trace to see them
        calls = Counter()
        for name in ("exterior_calculus", "exterior_calculus_via_comma"):
            monkeypatch.setattr(cli, name, _counting(calls, getattr(cli, name)))
        assert run(["build-calculus", str(io.bundled_path("sweedler_universal_calculus")),
                    "--max-degree", "2", "--route", "both",
                    "--out", str(tmp_path / "report.json")]) == 0
        assert calls == {"exterior_calculus": 1, "exterior_calculus_via_comma": 1}


class TestClassify:
    def test_kz3_default_sweep(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["classify", str(io.bundled_path("kz3")), "--out", str(out)]) == 0
        report = json.load(open(out))
        dims = {(e["closure_dim"], e["calculus_dim"]) for e in report["entries"]}
        assert (0, 6) in dims  # no generators -> universal calculus
        assert (2, 0) in dims  # full Ker eps -> zero calculus
        assert all(e["roundtrip"] for e in report["entries"])

    def test_builds_universal_calculus_once(self, monkeypatch):
        # the calculi are smash products over Ker eps: the universal
        # calculus is not built at all, and Ker eps once
        from braidedforms import calculus, cli

        calls = Counter()
        counted = {name: _counting(calls, getattr(calculus, name))
                   for name in ("universal_fodc", "fodc_from_submodule", "kernel_counit_crossed")}
        for name, fn in counted.items():
            monkeypatch.setattr(calculus, name, fn)
        monkeypatch.setattr(cli, "kernel_counit_crossed", counted["kernel_counit_crossed"])
        assert run(["classify", str(io.bundled_path("kz3"))]) == 0
        # the default sweep has 4 candidates, and every one reuses Ker eps
        assert calls == {"kernel_counit_crossed": 1}

    def test_builds_each_quotient_once(self, monkeypatch, tmp_path):
        from braidedforms import cli

        calls = Counter()
        for name in ("smash_calculus", "read_off_submodule"):
            monkeypatch.setattr(cli, name, _counting(calls, getattr(cli, name)))
        out = tmp_path / "report.json"
        assert run(["classify", str(io.bundled_path("kz5")), "--out", str(out)]) == 0
        entries = json.load(open(out))["entries"]
        # six candidates, but every nonempty one closes to all of Ker eps
        assert [e["closure_dim"] for e in entries] == [0, 4, 4, 4, 4, 4]
        assert all(e["roundtrip"] for e in entries)
        assert calls == {"smash_calculus": 2, "read_off_submodule": 2}

    def test_bad_candidates_fail_before_universal_build(self, monkeypatch, tmp_path, capsys):
        from braidedforms import calculus, cli

        calls = Counter()
        for module, name in ((calculus, "universal_fodc"), (calculus, "fodc_from_submodule"),
                             (cli, "kernel_counit_crossed"), (cli, "smash_calculus")):
            monkeypatch.setattr(module, name, _counting(calls, getattr(module, name)))
        path = bundle(tmp_path, "c.json", {"hopf": "bundled:kz5", "candidates": [[5]]})
        assert run(["classify", path]) == 2
        assert "error: " in capsys.readouterr().err
        # neither Ker eps nor any calculus is built
        assert calls == {}

    def test_inline_hopf_beside_candidates(self, tmp_path):
        # "candidates" belongs to the classify file, not to the Hopf object
        # inline in it, whose keys are checked
        obj = {**io.load_json(io.bundled_path("kz2")), "candidates": [[[1]]]}
        assert run(["classify", bundle(tmp_path, "c.json", obj)]) == 0

    def test_referenced_hopf_beside_candidates(self, tmp_path):
        # the benchmark's form of a classify file
        obj = {"hopf": "bundled:kz2", "candidates": [[[1]]], "kind": "classify"}
        assert run(["classify", bundle(tmp_path, "c.json", obj)]) == 0

    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys):
        # a misspelled "candidates" is refused, not read as the default sweep
        obj = {"hopf": "bundled:kz2", "candidats": [[[1]]]}
        assert run(["classify", bundle(tmp_path, "c.json", obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'candidats'" in err and err.count("\n") == 1

    def test_calculus_bundle_exit_2(self, tmp_path, capsys, kz2):
        # classify would read only the base of a calculus, never its
        # "submodule" or "X" and "d"
        univ = universal_fodc(kz2)
        explicit = {"hopf": "bundled:kz2", "X": univ.x.to_obj(), "d": univ.d.to_obj()}
        for path, key in ((str(io.bundled_path("kz3_universal_calculus")), "submodule"),
                          (bundle(tmp_path, "e.json", explicit), "X")):
            assert run(["classify", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{key!r}" in err and err.count("\n") == 1


class TestDeterminism:
    def test_reports_bit_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["build-calculus", str(io.bundled_path("kz2_universal_calculus")),
                        "--max-degree", "3", "--route", "both", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_check_reports_bit_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["check", "--kind", "hopf", str(io.bundled_path("ks3")),
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_report_is_the_out_report(self, tmp_path, capsys):
        # without --out the same JSON bytes follow the table lines on stdout
        path = str(io.bundled_path("sweedler"))
        out = tmp_path / "report.json"
        assert run(["check", "--kind", "hopf", path, "--out", str(out)]) == 0
        tables = capsys.readouterr().out
        assert run(["check", "--kind", "hopf", path]) == 0
        stdout = capsys.readouterr().out
        assert "antipode_left" in tables
        assert stdout.encode() == tables.encode() + out.read_bytes()


class TestExitCodes:
    """Bad input, failed factorizations and oversized requests end in an exit
    code, never in a traceback."""

    def test_bad_scalars_exit_2(self, tmp_path):
        obj = json.load(open(io.bundled_path("swap2")))
        for bad in ({"conductor": 0, "coeffs": [[1, 1]]},
                    {"conductor": -3, "coeffs": [[1, 1]]},
                    {"conductor": 1, "coeffs": [[1, 0]]}, "1/0", [1, 0],
                    {"conductor": 3, "coeffs": [[1, 1], [2, 0]]},
                    {"conductor": 3, "coeffs": [[1, 1], ["x", 1]]},
                    {"conductor": 3, "coeffs": [[1]]},
                    # JSON numbers that are not integers, which int() would
                    # truncate or read as 1
                    {"conductor": 1, "coeffs": [[1, 1.5]]},
                    {"conductor": 1, "coeffs": [[2.7, 1]]},
                    {"conductor": 2.7, "coeffs": [[1, 1]]},
                    {"conductor": True, "coeffs": [[1, 1]]},
                    {"conductor": 1, "coeffs": [[True, 1]]},
                    [3, 2.9], [-1.0, 1], [True, 1]):
            obj["lambda"] = bad
            path = bundle(tmp_path, "l.json", obj)
            assert run(["check", "--kind", "braiding", path]) == 2, bad
        obj = json.load(open(io.bundled_path("swap2")))
        for key, bad in (("rows", 4.0), ("rows", 4.5), ("cols", True), ("dim", 2.0)):
            broken = dict(obj, psi=dict(obj["psi"]))
            if key == "dim":
                broken["dim"] = bad
            else:
                broken["psi"][key] = bad
            path = bundle(tmp_path, "p.json", broken)
            assert run(["check", "--kind", "braiding", path]) == 2, (key, bad)
        cand = {"hopf": "bundled:kz2", "candidates": [[["1/0"]]]}
        assert run(["classify", bundle(tmp_path, "c.json", cand)]) == 2

    @pytest.mark.parametrize("command", [
        ["check", "kz2", "--kind", "hopf"], ["wedge-dims", "swap2", "--max-degree", "2"],
        ["build-calculus", "kz2_universal_calculus", "--max-degree", "1"],
        ["classify", "kz2"]], ids=lambda c: c[0])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        # a report path in a missing directory, or one that is a directory
        name, file, *rest = command
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            capsys.readouterr()
            assert run([name, str(io.bundled_path(file)), *rest, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write the report") and err.count("\n") == 1
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["check", "--kind", "braiding"], ["wedge-dims", "--max-degree", "3"]],
        ids=["check", "wedge-dims"])
    @pytest.mark.parametrize("dim, psi", [
        (2, {"rows": 4, "cols": 4, "entries": "1000001001000001"}),
        (1, {"rows": 1, "cols": 1, "entries": {"5": 0}})], ids=["string", "object"])
    def test_entries_not_a_list_exit_2(self, tmp_path, capsys, command, dim, psi):
        # a string of digits has the length of the 4 x 4 swap, and an object
        # one key; neither is a list of entries
        path = bundle(tmp_path, "e.json", {"dim": dim, "psi": psi})
        assert run([command[0], path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith('error: matrix "entries" must be a list')
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
    def test_unwritable_stdout_exit_2(self, stdout):
        # a write to stdout that fails ends like an --out that cannot be
        # written; the interpreter's flush at exit reports nothing more
        if stdout == "closed pipe":
            read_end, sink = os.pipe()
            os.close(read_end)
        elif os.path.exists(stdout):
            sink = os.open(stdout, os.O_WRONLY)
        else:
            pytest.skip(f"no {stdout}")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "braidedforms.cli", "check",
                 str(io.bundled_path("sweedler")), "--kind", "hopf"],
                env=env, stdout=sink, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(sink)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write to stdout")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_zero_lambda_exit_2(self, tmp_path, capsys):
        obj = json.load(open(io.bundled_path("swap2")))
        obj["lambda"] = 0
        assert run(["check", "--kind", "braiding", bundle(tmp_path, "l.json", obj)]) == 2
        assert "lambda must be invertible" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["check", "--kind", "braiding"], ["wedge-dims", "--max-degree", "2"]],
        ids=["check", "wedge-dims"])
    def test_singular_psi_exit_2(self, tmp_path, capsys, command):
        # the zero psi satisfies the braid equation but is not invertible
        obj = json.load(open(io.bundled_path("swap2")))
        obj["psi"]["entries"] = [0] * len(obj["psi"]["entries"])
        path = bundle(tmp_path, "p.json", obj)
        assert run([command[0], path, *command[1:]]) == 2
        assert "psi must be invertible" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("classify", {"hopf": "bundled:kz2", "candidates": [[5]]}),
        ("classify", {"hopf": "bundled:kz2", "candidates": [5]}),
        ("classify", {"hopf": "bundled:kz2", "candidates": 5}),
        ("build-calculus", {"hopf": "bundled:kz2",
                            "submodule": {"ambient": "ker_counit", "generators": 5}}),
    ])
    def test_bad_generators_exit_2(self, tmp_path, capsys, command, bad):
        assert run([command, bundle(tmp_path, "g.json", bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("extra", [{"X": 5}, {"d": "nonsense"}, {"X": 5, "d": "nonsense"}])
    @pytest.mark.parametrize("command", [["build-calculus"], ["check", "--kind", "calculus"]])
    def test_submodule_beside_explicit_form_exit_2(self, tmp_path, capsys, command, extra):
        # a calculus bundle has one form: "submodule", or "X" and "d"
        obj = {**_bundled_object("kz2_universal_calculus"), **extra}
        assert run([*command, bundle(tmp_path, "b.json", obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not both" in err

    @pytest.mark.parametrize("x", [5, [1, 2]])
    def test_bimodule_not_an_object_exit_2(self, tmp_path, capsys, x):
        obj = {"hopf": "bundled:kz2", "X": x, "d": {}}
        assert run(["check", "--kind", "calculus", bundle(tmp_path, "x.json", obj)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_wrong_shaped_differential_exit_2(self, tmp_path, capsys, kz2, shape):
        # d: H -> X must be X.dim x H.dim, here 2x2
        obj = {"hopf": "bundled:kz2", "X": regular_bimodule(kz2).to_obj(),
               "d": Matrix.zero(*shape).to_obj()}
        path = bundle(tmp_path, "d.json", obj)
        assert run(["check", "--kind", "calculus", path]) == 2
        assert run(["build-calculus", path, "--max-degree", "1"]) == 2
        assert capsys.readouterr().err.count('error: "d" must be 2x2') == 2

    def test_non_yang_baxter_wedge_exit_1(self, tmp_path, capsys):
        obj = json.load(open(io.bundled_path("swap2")))
        obj["psi"]["entries"][1] = {"conductor": 1, "coeffs": [[1, 1]]}
        assert run(["wedge-dims", bundle(tmp_path, "b.json", obj)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_non_yang_baxter_wedge_low_degree_exit_1(self, tmp_path, capsys, degree):
        # below degree 3 no structure block fails to factor: the braid
        # equation itself is checked
        obj = json.load(open(io.bundled_path("swap2")))
        obj["psi"]["entries"][1] = {"conductor": 1, "coeffs": [[1, 1]]}
        assert run(["wedge-dims", bundle(tmp_path, "b.json", obj),
                    "--max-degree", degree]) == 1
        assert "braid equation at basis index 3" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["mult", "comult"])
    def test_non_hopf_algebra_exit_1(self, tmp_path, capsys, key):
        obj = json.load(open(io.bundled_path("kz2")))
        obj[key]["entries"][0] = 2
        path = bundle(tmp_path, "h.json", obj)
        assert run(["classify", path]) == 1
        calc = {"hopf": "h.json", "submodule": {"ambient": "ker_counit", "generators": []}}
        assert run(["build-calculus", bundle(tmp_path, "c.json", calc),
                    "--max-degree", "1"]) == 1
        assert capsys.readouterr().err.count("error: ") == 2

    def test_huge_conductor_exit_3(self, tmp_path):
        obj = json.load(open(io.bundled_path("kz2")))
        obj["mult"]["entries"][0] = {"conductor": 20000, "coeffs": [[1, 1], [1, 1]]}
        start = time.perf_counter()
        assert run(["check", "--kind", "hopf", bundle(tmp_path, "h.json", obj)]) == 3
        assert time.perf_counter() - start < 5

    def test_out_of_memory_exit_3(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, "check", (exhausted, cli.COMMANDS["check"][1]))
        assert run(["check", "--kind", "hopf", str(io.bundled_path("kz2"))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_degree_exit_3(self):
        assert run(["wedge-dims", str(io.bundled_path("swap2")),
                    "--max-degree", "100000"]) == 3


    @pytest.mark.parametrize("entry", [
        {"conductor": 1.0, "coeffs": [[0, 1]]}, {"conductor": True, "coeffs": [[0, 1]]},
        {"conductor": 1, "coeffs": [[0.0, 1]]}, {"conductor": 1, "coeffs": [[False, 1]]},
        {"conductor": 1, "coeffs": [[0, 1.0]]}, {"conductor": 1, "coeffs": [[0, True]]},
        False, 0.0])
    def test_zero_with_a_non_integer_exit_2(self, tmp_path, capsys, entry):
        # each of these equals the serialized zero under ==, but the parser
        # refuses a JSON float or bool wherever it reads an integer
        obj = json.load(open(io.bundled_path("swap2")))
        obj["psi"]["entries"][1] = entry
        assert run(["check", "--kind", "braiding", bundle(tmp_path, "z.json", obj)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("where, value", [
        (("dim",), " ٢ "), (("psi", "rows"), "0_4"),
        (("lambda",), {"conductor": " 1 ", "coeffs": [[-1, 1]]}),
        (("lambda",), ["1_0", 1]),
        (("lambda",), {"conductor": 1, "coeffs": [["-1", 1]]})],
        ids=["dim", "rows", "conductor", "pair", "coeffs"])
    def test_integer_field_as_string_exit_2(self, tmp_path, capsys, where, value):
        # an integer field is a JSON integer: int() would read the
        # Arabic-Indic digit, the "_" and the spaces of these strings
        obj = json.load(open(io.bundled_path("swap2")))
        *path, key = where
        target = obj
        for step in path:
            target = target[step]
        target[key] = value
        assert run(["check", "--kind", "braiding", bundle(tmp_path, "i.json", obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["check", "--kind", "braiding"], ["wedge-dims"], ["wedge-dims", "--compare-quadratic"]],
        ids=["check", "wedge-dims", "compare-quadratic"])
    @pytest.mark.parametrize("dim, psi", [
        (-1, {"rows": 1, "cols": 1, "entries": [1]}),
        (1, {"rows": -1, "cols": -1, "entries": [1]}),
        (0, {"rows": 0, "cols": -1, "entries": []})],
        ids=["dim", "rows-cols", "cols"])
    def test_negative_count_exit_2(self, tmp_path, capsys, command, dim, psi):
        # a dim, rows or cols is a non-negative JSON integer; -1 x -1 would
        # hold one entry, and a braiding of dim -1 would pass its checks
        path = bundle(tmp_path, "n.json", {"dim": dim, "psi": psi})
        assert run([*command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected a non-negative integer, got -1\n"

    @pytest.mark.parametrize("kind, name", [
        ("hopf", "sweedler"), ("bimodule", "sweedler_regular_bimodule"),
        ("crossed", "sweedler_coadjoint_crossed")])
    def test_negative_structure_dim_exit_2(self, tmp_path, capsys, kind, name):
        obj = _bundled_object(name)
        obj["dim"] = -1
        assert run(["check", "--kind", kind, bundle(tmp_path, "d.json", obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_dim_is_valid(self, tmp_path):
        path = bundle(tmp_path, "z.json", {"dim": 0, "psi": {"rows": 0, "cols": 0, "entries": []}})
        assert run(["check", "--kind", "braiding", path]) == 0
        out = tmp_path / "r.json"
        assert run(["wedge-dims", path, "--max-degree", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dims"] == [1, 0, 0]


    @pytest.mark.parametrize("where", ["lambda", "psi"])
    @pytest.mark.parametrize("entry, key", [
        ({"conductor": 3, "coeffs": [[1, 1]], "coefs": 5}, "coefs"),
        ({"conductor": 1, "coeffs": [[0, 1]], "junk": 5}, "junk"),
        ({"conductor": 1, "coeffs": [[1, 1]], "conductor ": 1}, "conductor "),
        ({"coeffs": [[1, 1]], "n": 1}, "n")])
    def test_unknown_scalar_key_exit_2(self, tmp_path, capsys, entry, key, where):
        # a scalar object holds "conductor" and "coeffs" and nothing else; the
        # error names the first other key
        obj = json.load(open(io.bundled_path("swap2")))
        if where == "lambda":
            obj["lambda"] = entry
        else:
            obj["psi"]["entries"][1] = entry
        assert run(["check", "--kind", "braiding", bundle(tmp_path, "k.json", obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize("command", [
        ["check", "--kind", "braiding"], ["wedge-dims", "--max-degree", "2"]],
        ids=["check", "wedge-dims"])
    @pytest.mark.parametrize("key", ["lamda", "entires", "Lambda", ""])
    def test_unknown_braiding_key_exit_2(self, tmp_path, capsys, command, key):
        # a misspelled "lambda" used to leave lambda at its default -1; a
        # braiding object holds only its schema's keys, and the error names
        # the first other one
        obj = json.load(open(io.bundled_path("swap2")))
        obj[key] = 5
        name, *rest = command
        assert run([name, bundle(tmp_path, "k.json", obj), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unknown key {key!r}" in err

    def test_braiding_schema_keys_are_read(self, tmp_path):
        obj = json.load(open(io.bundled_path("swap2")))
        obj["name"] = "swap2"
        assert run(["check", "--kind", "braiding", bundle(tmp_path, "n.json", obj)]) == 0

    # (check kind, bundled file, the keys down to the object that gets a key)
    OBJECTS = {
        "hopf": ("hopf", "kz2", ()),
        "matrix": ("hopf", "kz2", ("mult",)),
        "bimodule": ("bimodule", "sweedler_regular_bimodule", ()),
        "crossed": ("crossed", "sweedler_coadjoint_crossed", ()),
        "calculus": ("calculus", "kz2_universal_calculus", ()),
        "submodule": ("calculus", "kz2_universal_calculus", ("submodule",)),
    }

    @pytest.mark.parametrize("what", sorted(OBJECTS))
    @pytest.mark.parametrize("key", ["lamda", "Name", ""])
    def test_unknown_object_key_exit_2(self, tmp_path, capsys, what, key):
        # every object holds only its schema's keys and kind, name and
        # schema_version; the error names the first other one
        kind, name, path = self.OBJECTS[what]
        obj = _bundled_object(name)
        inner = obj
        for k in path:
            inner = inner[k]
        inner[key] = 5
        assert run(["check", "--kind", kind, bundle(tmp_path, "k.json", obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize("what", sorted(OBJECTS))
    def test_object_schema_keys_are_read(self, tmp_path, what):
        kind, name, path = self.OBJECTS[what]
        obj = _bundled_object(name)
        inner = obj
        for k in path:
            inner = inner[k]
        inner.update(kind=kind, name="n", schema_version=1)
        assert run(["check", "--kind", kind, bundle(tmp_path, "n.json", obj)]) == 0

    def test_explicit_bimodule_unknown_key_exit_2(self, tmp_path, capsys):
        # the "X" member of a calculus is a bimodule object
        h = io.hopf_from_obj(io.load_json(io.bundled_path("kz2")))
        calc = universal_fodc(h)
        obj = {"hopf": "bundled:kz2", "X": {**calc.x.to_obj(), "mu": 5},
               "d": calc.d.to_obj()}
        assert run(["check", "--kind", "calculus", bundle(tmp_path, "x.json", obj)]) == 2
        assert "unknown key 'mu'" in capsys.readouterr().err

    def test_bundled_files_hold_schema_keys_only(self):
        readers = {"hopf": io.hopf_from_obj, "braiding": io.braiding_from_obj,
                   "bimodule": io.bimodule_from_obj, "crossed": io.crossed_from_obj,
                   "calculus": io.calculus_from_obj}
        for path in sorted(io.bundled_path("kz2").parent.glob("*.json")):
            obj = _bundled_object(path.stem)
            readers[obj["kind"]](obj)

    @pytest.mark.parametrize("text", ["1e30000000", "1.5", "1_0", " 3 ", "3 ", "+3", "+1/2",
                                      "3/-4", "1/+2", "0x1f", "٣", "1/2/3", "", "/2", "-", "3\n"])
    def test_scalar_string_forms_exit_2(self, tmp_path, capsys, text):
        # a string scalar is "p" or "p/q" in ASCII digits, p with an optional
        # "-": Fraction would take "1e30000000" and build 10**30000000
        obj = json.load(open(io.bundled_path("kz2")))
        obj["mult"]["entries"][0] = text
        start = time.perf_counter()
        assert run(["check", "--kind", "hopf", bundle(tmp_path, "s.json", obj)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, value", [("4/2", 2), ("-3/3", -1), ("12", 12), ("-0", 0),
                                             ("007/14", Scalar.rational(1, 2))])
    def test_scalar_string_forms_read(self, text, value):
        assert io.scalar_from_obj(text) == value


# Files that cannot be read as JSON text, by (file name, content or None for
# no file): a NUL in the path, a missing file with a newline in its name,
# bytes that are not UTF-8, and a nesting deeper than the decoder goes
UNREADABLE = {
    "nul-in-path": ("a\x00b.json", None),
    "newline-in-path": ("a\nb.json", None),
    "invalid-utf8": ("bad.json", b'{"dim": 1\xff}'),
    "deep-nesting": ("bad.json", b"[" * 200_000 + b"]" * 200_000),
}
# the commands that read FILE itself, and those that also read a "hopf" reference in it
READ_DIRECTLY = [*(["check", "--kind", kind] for kind in cli.CHECKERS),
                 ["wedge-dims"], ["build-calculus"], ["classify"]]
READ_BY_REFERENCE = [*(["check", "--kind", kind] for kind in ("bimodule", "crossed", "calculus")),
                     ["build-calculus"], ["classify"]]


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("how, command", [
    *(("directly", c) for c in READ_DIRECTLY), *(("by reference", c) for c in READ_BY_REFERENCE)],
    ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_unreadable_file_exit_2(tmp_path, name, how, command):
    # the error names the path quoted: one line, with no NUL byte
    filename, content = UNREADABLE[name]
    path = tmp_path / filename
    if content is not None:
        path.write_bytes(content)
    if how == "by reference":
        path = Path(bundle(tmp_path, "ref.json", {"hopf": path.name}))
    code, out, err = _main([command[0], str(path), *command[1:]])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "\x00" not in err, err


BRAIDINGS = ["swap2", "swap3", "braided_line_zeta3", "diagonal_zeta5"]
CALCULI = ["kz2_universal_calculus", "kz3_universal_calculus", "sweedler_universal_calculus",
           "taft3_quotient_calculus"]


@pytest.mark.parametrize("argv", [
    *(["wedge-dims", name, *flag] for name in BRAIDINGS for flag in ([], ["--compare-quadratic"])),
    *(["build-calculus", name, "--route", route]
      for name in CALCULI for route in ("maximal", "biproduct", "both")),
], ids=" ".join)
def test_every_command_at_degree_1(tmp_path, argv):
    # the quadratic relations live in degree 2, so at N = 1 they cut nothing
    # from T(X): the quadratic dims are the wedge dims [1, dim X]; each route
    # gives the one block d_0
    command, name, *flags = argv
    out = tmp_path / "report.json"
    code, stdout, err = _main([command, str(io.bundled_path(name)), "--max-degree", "1",
                               *flags, "--out", str(out)])
    assert (code, err) == (0, "")
    report = json.loads(out.read_text())
    if command == "wedge-dims":
        dims = [1, io.load_json(io.bundled_path(name))["dim"]]
        assert report["dims"] == dims
        if flags:
            assert report["quadratic_dims"] == dims and report["equal"]
            assert stdout.endswith("\nEQUAL\n")
    else:
        for sub in report["routes"].values() if "routes" in report else [report]:
            assert len(sub["dims"]) == 2 and len(sub["d_blocks"]) == 1


def _wrong_antipode(name, how):
    """The calculus bundle name with its Hopf algebra inline and the antipode
    S replaced: by 0, 2S or -S, or with column c negated ("neg c") or zeroed
    ("zero c").  The first-order checks never read S."""
    calc = io.calculus_from_obj(io.load_json(io.bundled_path(name)), io.bundled_path(name).parent)
    s = calc.h.antipode
    if how in ("0", "2", "-1"):
        s = s.scale(int(how))
    else:
        op, c = how.split()
        s = Matrix(s.rows, s.cols, [s[r, k] for r in range(s.rows) for k in range(s.cols)])
        for r in range(s.rows):
            s[r, int(c)] = -s[r, int(c)] if op == "neg" else 0
    h = dict(calc.h.to_obj(), antipode=s.to_obj())
    return {"hopf": h, "X": calc.x.to_obj(), "d": calc.d.to_obj()}


@pytest.mark.parametrize("name, how", [
    *((name, how) for name in CALCULI for how in ("0", "2", "-1", "neg 1")),
    ("kz2_universal_calculus", "zero 1"),
    *(("kz3_universal_calculus", f"{op} {c}") for op in ("neg", "zero") for c in (1, 2)
      if (op, c) != ("neg", 1)),
])
def test_wrong_antipode_exit_1(tmp_path, name, how):
    # the calculus checks its base Hopf algebra before anything reads S: one
    # error line that names a failed antipode check, no traceback
    path = bundle(tmp_path, "c.json", _wrong_antipode(name, how))
    for argv in (["build-calculus", path, "--max-degree", "2"],
                 ["check", "--kind", "calculus", path]):
        code, out, err = _main(argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
        assert "antipode_left" in err or "antipode_right" in err, err


def test_bimodule_is_read_over_the_bundle_base(tmp_path):
    # a "hopf" member inside X, here kZ_2 with a wrong antipode, is not read:
    # X is over the bundle's checked base
    obj = _wrong_antipode("kz2_universal_calculus", "0")
    plain = {"hopf": "bundled:kz2", "X": obj["X"], "d": obj["d"]}
    reports = []
    for calc in (plain, dict(plain, X=dict(obj["X"], hopf=obj["hopf"]))):
        out = tmp_path / "report.json"
        code, _, err = _main(["build-calculus", bundle(tmp_path, "c.json", calc),
                              "--max-degree", "2", "--out", str(out)])
        reports.append((code, err, out.read_bytes()))
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_explicit_bundle_parses_its_base_once(monkeypatch, kz2):
    # X is read over the checked base itself, not over a second parse of it
    univ = universal_fodc(kz2)
    obj = {"hopf": "bundled:kz2", "X": univ.x.to_obj(), "d": univ.d.to_obj()}
    calls = Counter()
    monkeypatch.setattr(io, "hopf_from_obj", _counting(calls, io.hopf_from_obj))
    calc = io.calculus_from_obj(obj)
    assert calls["hopf_from_obj"] == 1 and calc.x.h is calc.h


def test_zero_entries_skip_the_scalar_parser(monkeypatch):
    # most of taft3's entries are the serialized zero, which parses to the
    # shared ZERO without a call of scalar_from_obj
    maps = [v for v in io.load_json(io.bundled_path("taft3")).values() if isinstance(v, dict)]
    reference = [Matrix(m["rows"], m["cols"], [io.scalar_from_obj(e) for e in m["entries"]])
                 for m in maps]
    parsed = Counter()
    monkeypatch.setattr(io, "scalar_from_obj", _counting(parsed, io.scalar_from_obj))
    assert [io.matrix_from_obj(m) for m in maps] == reference
    entries = [e for m in maps for e in m["entries"]]
    zeros = entries.count(ZERO.to_obj())
    assert zeros > len(entries) // 2 and parsed["scalar_from_obj"] == len(entries) - zeros


SWEEDLER = str(io.bundled_path("sweedler"))
# the input each command reads, so that only the command line can fail
INPUTS = {"check": SWEEDLER, "classify": SWEEDLER, "wedge-dims": str(io.bundled_path("swap2")),
          "build-calculus": str(io.bundled_path("kz2_universal_calculus"))}
README = Path(__file__).resolve().parent.parent / "README.md"


def _main(argv):
    """(exit code, stdout, stderr) of main(argv), which must not raise SystemExit."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # pragma: no cover - the failure being tested
            pytest.fail(f"main({argv}) raised SystemExit({exc.code})")
    return code, out.getvalue(), err.getvalue()


def _synopsis_lines():
    """The synopsis block of README's "Command-line tool" section."""
    text = README.read_text(encoding="utf-8").split("## Command-line tool\n\n```\n", 1)[1]
    return text.split("```", 1)[0].splitlines()


class TestCommandLine:
    """The command-line reader: its usage errors, help and defaults."""

    @pytest.mark.parametrize("argv", [
        [],                                                  # missing command
        ["bogus", SWEEDLER], ["Check", SWEEDLER],            # unknown command
        ["--out", "r.json", "check", SWEEDLER, "--kind", "hopf"],  # option before the command
        ["check", "--kind", "hopf"], ["classify"],           # missing FILE
        ["check", SWEEDLER, SWEEDLER, "--kind", "hopf"],     # extra FILE
        ["classify", SWEEDLER, "--bogus"], ["classify", SWEEDLER, "-x"],
        ["wedge-dims", INPUTS["wedge-dims"], "--max-degree", "2", "--route", "both"],  # unknown option
        ["classify", SWEEDLER, "--"], ["check", SWEEDLER, "--kind", "hopf", "--=x"],  # ambiguous
        ["check", SWEEDLER, "--kind"], ["classify", SWEEDLER, "--out"],  # missing value
        ["classify", SWEEDLER, "--out", "--out"],
        ["check", SWEEDLER, "--kind", "hopf", "--out="],  # empty value
        ["check", SWEEDLER, "--kind", "hopf", "--out", ""],
        ["check", SWEEDLER, "--kind", "nope"], ["check", SWEEDLER, "--kind=HOPF"],  # bad choice
        ["build-calculus", INPUTS["build-calculus"], "--route=fast"],
        ["build-calculus", INPUTS["build-calculus"], "--route", ""],
        ["check", SWEEDLER], ["check", SWEEDLER, "--out", "r.json"],  # required option
        ["wedge-dims", INPUTS["wedge-dims"], "--compare-quadratic=yes"],  # a flag takes no value
        *[[command, INPUTS[command], "--max-degree", degree]
          for command in ("wedge-dims", "build-calculus")
          for degree in ("0", "-1", "two", "2.5", "")],
        ["wedge-dims", INPUTS["wedge-dims"], "--max-degree=0"],
        ["build-calculus", INPUTS["build-calculus"], "--max=-1"],
    ])
    def test_usage_error_exit_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no report is written, but "r.json" would land here
        code, out, err = _main(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["check", "-h"], ["wedge-dims", SWEEDLER, "--help"],
        ["build-calculus", "--max-degree", "2", "-h", SWEEDLER], ["classify", SWEEDLER, "--h"]])
    def test_help_exit_0(self, argv):
        code, out, err = _main(argv)
        assert code == 0 and err == ""
        assert out == cli.__doc__ + "\n" + cli.USAGE

    def test_readme_synopsis_is_usage(self):
        # the documented commands are the ones the help prints
        usage = [line.strip() for line in cli.USAGE.split("Usage\n", 1)[1].splitlines()]
        assert usage == _synopsis_lines()
        assert len(usage) == len(cli.COMMANDS) == 4

    def test_synopsis_names_every_option_and_choice(self):
        lines = _synopsis_lines()
        for (command, (_, options)), line in zip(cli.COMMANDS.items(), lines):
            assert line.startswith(f"braidedforms {command} FILE")
            for name, (kind, _) in options.items():
                assert name in line
                if isinstance(kind, tuple):
                    assert "{" + ",".join(kind) + "}" in line

    @pytest.mark.parametrize("argv, handler, expected", [
        (["check", "F", "--kind", "crossed"], cli.cmd_check,
         {"file": "F", "kind": "crossed", "out": None}),
        (["wedge-dims", "F"], cli.cmd_wedge_dims,
         {"file": "F", "max_degree": 4, "compare_quadratic": False, "out": None}),
        (["build-calculus", "F"], cli.cmd_build_calculus,
         {"file": "F", "max_degree": 3, "route": "biproduct", "out": None}),
        (["classify", "F"], cli.cmd_classify, {"file": "F", "out": None}),
        (["wedge-dims", "--compare-quadratic", "--max-degree", "07", "F", "--out", "r"],
         cli.cmd_wedge_dims, {"file": "F", "max_degree": 7, "compare_quadratic": True, "out": "r"}),
        (["build-calculus", "F", "--route", "both", "--route=maximal"], cli.cmd_build_calculus,
         {"file": "F", "max_degree": 3, "route": "maximal", "out": None}),
    ])
    def test_defaults_and_values(self, argv, handler, expected):
        # an option left out takes its documented default; the last one given counts
        got, args = cli.parse_argv(argv)
        assert got is handler and vars(args) == expected

    def test_defaults_reach_the_report(self, tmp_path):
        for argv, fields in (
                (["wedge-dims", str(io.bundled_path("swap2"))], {"max_degree": 4}),
                (["build-calculus", str(io.bundled_path("kz2_universal_calculus"))],
                 {"max_degree": 3, "route": "biproduct"})):
            out = tmp_path / "r.json"
            assert run(argv + ["--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert {key: report[key] for key in fields} == fields
            assert "quadratic_dims" not in report and "routes" not in report

    @pytest.mark.parametrize("long, forms", [
        (["check", "{F}", "--kind", "hopf", "--out", "{OUT}"],
         [["check", "--kind=hopf", "--out={OUT}", "{F}"], ["check", "--k", "hopf", "--o", "{OUT}", "{F}"]]),
        (["wedge-dims", "{F}", "--max-degree", "3", "--compare-quadratic", "--out", "{OUT}"],
         [["wedge-dims", "--max-degree=3", "--compare-quadratic", "--out={OUT}", "{F}"],
          ["wedge-dims", "--max", "3", "--comp", "{F}", "--ou={OUT}"]]),
        (["build-calculus", "{F}", "--max-degree", "2", "--route", "both", "--out", "{OUT}"],
         [["build-calculus", "--route=both", "--max-degree=2", "{F}", "--out={OUT}"],
          ["build-calculus", "--max=2", "--r", "both", "--out", "{OUT}", "{F}"]]),
        (["classify", "{F}", "--out", "{OUT}"], [["classify", "--out={OUT}", "{F}"],
                                                 ["classify", "--o", "{OUT}", "{F}"]]),
    ], ids=lambda v: v[0] if isinstance(v[0], str) else "")
    def test_forms_give_the_same_report(self, tmp_path, long, forms):
        path = INPUTS[long[0]]
        reports = []
        for i, argv in enumerate([long, *forms]):
            out = tmp_path / f"r{i}.json"
            code, stdout, err = _main([a.format(F=path, OUT=out) for a in argv])
            assert code == 0 and err == ""
            reports.append((stdout, out.read_bytes()))
        assert reports[1:] == [reports[0]] * len(forms)


def _command_lines():
    """Command lines from the command names, the option names and prefixes
    of them, values, files and junk: tokens in any order, or a command and
    a file followed by options with values."""
    options = sorted({name for _, opts in cli.COMMANDS.values() for name in opts})
    prefixes = [name[:k] for name in options for k in (3, 5)]
    values = ["1", "2", "0", "-1", "two", "both", "maximal", "fast", *cli.CHECKERS, "r.json"]
    files = st.sampled_from(["kz2", "swap2", "kz2_universal_calculus", "missing"]).map(
        lambda name: f"FILE:{name}")
    junk = ["", "-", "--", "-h", "--=", "-x", "x=y", "--kind=hopf", "--max-degree=2", "--out=r.json"]
    token = st.one_of(st.sampled_from([*cli.COMMANDS, *options, *prefixes, *values, *junk]), files)
    with_value = st.tuples(st.sampled_from(options + prefixes), st.sampled_from(values))
    shaped = st.tuples(st.sampled_from(list(cli.COMMANDS)), files,
                       st.lists(st.one_of(with_value, token.map(lambda t: (t,))), max_size=4))
    return st.one_of(st.lists(token, max_size=7),
                     shaped.map(lambda t: [t[0], t[1], *(a for word in t[2] for a in word)]))


class TestCommandLineFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_command_lines())
    def test_any_command_line_ends_in_exit_code(self, argv):
        # any token may become an --out path, a FILE among them: the reports
        # and the files they may overwrite are copies in a scratch directory
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("kz2", "swap2", "kz2_universal_calculus"):
                shutil.copy(io.bundled_path(name), tmp)
            os.chdir(tmp)
            try:
                argv = [f"{a[5:]}.json" if a.startswith("FILE:") else a for a in argv]
                code, _, err = _main(argv)
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert err.startswith("error: "), argv


def _paths(obj, path=()):
    """(dict key paths, scalar-entry paths) of a bundled structure file."""
    keys, scalars = [], []
    if isinstance(obj, dict):
        for k, v in obj.items():
            keys.append(path + (k,))
            if k == "entries":
                scalars += [path + (k, i) for i in range(len(v))]
            elif k == "lambda":
                scalars.append(path + (k,))
            else:
                sub_keys, sub_scalars = _paths(v, path + (k,))
                keys += sub_keys
                scalars += sub_scalars
    return keys, scalars


def _fuzz_files():
    """The fuzzed files by check kind: corpus files, with the Hopf algebra of
    the bimodule and crossed module read from the package, and an explicit
    {"hopf", "X", "d"} calculus bundle (the universal calculus of kZ_2) that
    carries kZ_2 inline, so a mutation can reach any of its maps, the
    antipode among them."""
    files = {kind: json.load(open(io.bundled_path(name)))
             for kind, name in (("hopf", "kz2"), ("braiding", "swap2"),
                                ("bimodule", "sweedler_regular_bimodule"),
                                ("crossed", "sweedler_coadjoint_crossed"))}
    for kind in ("bimodule", "crossed"):
        files[kind]["hopf"] = "bundled:sweedler"
    univ = universal_fodc(io.hopf_from_obj(files["hopf"]))
    files["calculus"] = {"hopf": files["hopf"], "X": univ.x.to_obj(), "d": univ.d.to_obj()}
    return files


FUZZ_FILES = _fuzz_files()
FUZZ_PATHS = {kind: _paths(obj) for kind, obj in FUZZ_FILES.items()}

pairs = st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 3)), max_size=4)
scalars = st.one_of(
    st.integers(-3, 3),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(-1, 3)),
    pairs.map(lambda ps: [list(p) for p in ps]),
    st.builds(lambda n, ps: {"conductor": n, "coeffs": [list(p) for p in ps]},
              st.integers(-1, 8), pairs),
    st.sampled_from([None, "x", True, 0.5, {}]),
)


@st.composite
def mutated_files(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_FILES)))
    obj = json.loads(json.dumps(FUZZ_FILES[kind]))
    keys, scalar_paths = FUZZ_PATHS[kind]
    replace = draw(st.booleans())
    *head, last = draw(st.sampled_from(scalar_paths if replace else keys))
    parent = obj
    for k in head:
        parent = parent[k]
    if replace:
        parent[last] = draw(scalars)
    else:
        del parent[last]
    return kind, obj


class TestFuzz:
    @settings(max_examples=125, deadline=None)  # about 25 per kind
    @given(mutated_files())
    def test_mutated_corpus_ends_in_exit_code(self, mutated):
        kind, obj = mutated
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            path.write_text(json.dumps(obj))
            commands = [["check", "--kind", kind, str(path)]]
            if kind in ("hopf", "braiding"):
                calc = Path(tmp) / "calc.json"
                calc.write_text(json.dumps(
                    {"hopf": "m.json", "submodule": {"ambient": "ker_counit", "generators": []}}))
                commands += [["wedge-dims", str(path), "--max-degree", "3"],
                             ["classify", str(path)],
                             ["build-calculus", str(calc), "--max-degree", "1"]]
            if kind == "calculus":
                commands.append(["build-calculus", str(path), "--max-degree", "1"])
            for argv in commands:
                assert run(argv) in (0, 1, 2, 3), argv


# --- file contents fuzz: random bytes, random JSON trees, one-edit corpus files

SCHEMA_KEYS = ["dim", "mult", "unit", "comult", "counit", "antipode", "antipode_inv", "psi",
               "lambda", "rows", "cols", "entries", "conductor", "coeffs", "hopf", "submodule",
               "ambient", "generators", "candidates", "X", "d", "mu_l", "mu_r", "nu_l", "nu_r"]
json_keys = st.one_of(st.sampled_from(SCHEMA_KEYS), st.text(max_size=3))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, -1.0]),
                        st.sampled_from(["", "x", "1/2", "ker_counit", "bundled:kz2"]))
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(json_keys, kids, max_size=4),
    max_leaves=16)
# one value of each JSON type: a value is retyped to one of another type
TYPED = [None, True, 1, 0.5, "x", [], {}]

SMALL_FILES = {name: io.load_json(io.bundled_path(name))
               for name in ("kz2", "swap2", "kz2_universal_calculus")}
NATURAL_KIND = {"kz2": "hopf", "swap2": "braiding", "kz2_universal_calculus": "calculus"}


def _dict_paths(obj, path=()):
    """The key paths of every dict in obj, the top level's () among them."""
    found = [path]
    for k, v in obj.items():
        if isinstance(v, dict):
            found += _dict_paths(v, path + (k,))
    return found


@st.composite
def edited_files(draw):
    """A small bundled file with one key dropped, one key added, or one value
    given another JSON type; and the check kind that reads it."""
    name = draw(st.sampled_from(sorted(SMALL_FILES)))
    obj = json.loads(json.dumps(SMALL_FILES[name]))
    parent = obj
    for k in draw(st.sampled_from(_dict_paths(obj))):
        parent = parent[k]
    edit = draw(st.sampled_from(["drop", "add", "retype"]))
    if edit == "add" or not parent:
        parent[draw(json_keys)] = draw(json_trees)
    else:
        key = draw(st.sampled_from(sorted(parent)))
        if edit == "drop":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from([v for v in TYPED if type(v) is not type(parent[key])]))
    return json.dumps(obj).encode(), NATURAL_KIND[name]


def _run_on_file(content: bytes, kind: str):
    """check --kind kind, wedge-dims --max-degree 2 and classify on a file
    holding content: each ends in an exit code, with one error line on 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_bytes(content)
        for argv in (["check", str(path), "--kind", kind],
                     ["wedge-dims", str(path), "--max-degree", "2"],
                     ["classify", str(path)]):
            code, _, err = _main(argv)
            assert code in (0, 1, 2, 3), (argv, content)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, content, err)


kinds = st.sampled_from(list(cli.CHECKERS))


class TestFileFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=64), kinds)
    def test_random_bytes(self, content, kind):
        _run_on_file(content, kind)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.dictionaries(json_keys, json_trees, max_size=5), json_trees), kinds)
    def test_random_json_trees(self, tree, kind):
        _run_on_file(json.dumps(tree).encode(), kind)

    @settings(max_examples=100, deadline=None)
    @given(edited_files())
    def test_one_edit_of_a_small_bundled_file(self, edited):
        _run_on_file(*edited)
