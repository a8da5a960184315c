"""Command-line interface: exit codes, formats, and round trips."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sphdesign
from sphdesign import criteria, polytopes
from sphdesign.cli import build_parser, main
from sphdesign.pointset import PointSet, read_pointset, write_pointset
from sphdesign.specfun import MAX_HARMONIC_DEGREE


@pytest.fixture
def octa_file(tmp_path):
    path = tmp_path / "octa.txt"
    write_pointset(polytopes.octahedron(), path, t=3)
    return str(path)


@pytest.fixture
def nan_file(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("# d=2 N=3\n1 0 0\n0 1 0\nnan 0 1\n")
    return str(path)


@pytest.fixture
def not_utf8_file(tmp_path):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"# d=2 N=2\n\xff\xfe\x00x\n1 0 0\n")
    return str(path)


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


class TestBounds:
    def test_csv_shape(self, capsys):
        assert main(["bounds", "--d", "2", "--t-max", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "t,N_star,N_plus,N_hat,N_bar,dim_poly"
        assert len(out) == 6
        row = out[3].split(",")
        assert row[0] == "3" and row[1] == "6"

    def test_even_t_has_blank_symmetric_count(self, capsys):
        main(["bounds", "--d", "2", "--t-max", "2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert out[2].split(",")[4] == ""

    def test_symmetric_filter(self, capsys):
        main(["bounds", "--d", "2", "--t-max", "6", "--symmetric"])
        out = capsys.readouterr().out.strip().splitlines()
        assert [r.split(",")[0] for r in out[1:]] == ["1", "3", "5"]

    def test_bad_range_is_usage_error(self):
        assert main(["bounds", "--d", "2", "--t-min", "5", "--t-max", "4"]) == 2

    @pytest.mark.parametrize("flags", [[], ["--symmetric"]])
    def test_bad_dimension_writes_nothing(self, capsys, flags):
        assert main(["bounds", "--d", "0", "--t-max", "3"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: d must be >= 1")

    def test_degree_numpy_cannot_index_is_out_of_memory(self, capsys):
        t = str(10 ** 20)
        assert main(["bounds", "--d", "3", "--t-min", t, "--t-max", t]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1

    def test_failing_row_writes_nothing(self, capsys, monkeypatch):
        bounds_row = sphdesign.bounds.bounds_row
        degrees = []

        def fail_second(d, t):
            degrees.append(t)
            if len(degrees) == 2:
                raise MemoryError("Unable to allocate 74.5 GiB")
            return bounds_row(d, t)

        monkeypatch.setattr(sphdesign.bounds, "bounds_row", fail_second)
        assert main(["bounds", "--d", "2", "--t-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: "
                                "Unable to allocate 74.5 GiB\n")


class TestVerify:
    def test_pass_and_fail_exit_codes(self, octa_file, capsys):
        assert main(["verify", octa_file, "--t", "3"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["verify", octa_file, "--t", "4"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_round_trip(self, octa_file, capsys):
        assert main(["verify", octa_file, "--t", "3", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["is_design"] is True
        assert blob["t_claimed"] == 3
        assert blob["exactness_degree"] == 3
        assert blob["max_abs_weyl"] <= 1e-13

    def test_json_values_of_an_exact_design_not_negative(self, tmp_path,
                                                          capsys):
        # pair sums put V3 of the antipodal pair at -3.3e-16; the Weyl
        # sums of its exact coordinates give 0
        path = tmp_path / "pair.txt"
        write_pointset(polytopes.antipodal_pair(), path, t=1)
        assert main(["verify", str(path), "--t", "1", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert min(blob["V1"], blob["V2"], blob["V3"]) >= 0.0

    def test_json_is_strict_for_d3(self, tmp_path, capsys):
        # Weyl sums are S^2 only: their fields are null, not NaN
        path = tmp_path / "cell24.txt"
        write_pointset(polytopes.cell24(), path, t=5)
        assert main(["verify", str(path), "--t", "5", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out,
                          parse_constant=_reject_constant)
        assert blob["max_abs_weyl"] is None and blob["rTr"] is None
        assert blob["is_design"] is True and abs(blob["V3"]) <= 1e-12

    def test_non_finite_file(self, nan_file, capsys):
        assert main(["verify", nan_file, "--t", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 4: non-finite")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tolerance(self, tmp_path, capsys, tol):
        # three orthonormal points are no 1-design, but a NaN tolerance
        # fails every comparison and would certify degree 1
        path = tmp_path / "orth.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        assert main(["verify", str(path), "--t", "1", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance")

    @pytest.mark.parametrize("huge", ["1e308", "1e200"])
    def test_huge_coordinate_file(self, tmp_path, huge):
        # a child process, so any numpy warning would reach its stderr
        path = tmp_path / "huge.txt"
        path.write_text("# d=2 N=3\n1 0 0\n0 1 0\n%s 0 0\n" % huge)
        src = os.path.dirname(os.path.dirname(sphdesign.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "sphdesign.cli",
                               "verify", str(path), "--t", "1"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: line 4: coordinate of magnitude %.3g, too large for a "
            "unit vector" % float(huge)]

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.txt"), "--t", "3"]) == 2

    def test_not_utf8_file(self, not_utf8_file, capsys):
        assert main(["verify", not_utf8_file, "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: not UTF-8 text\n"

    def test_byte_order_mark(self, octa_file, tmp_path, capsys):
        marked = tmp_path / "bom.txt"
        with open(octa_file, "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        for t in ("3", "4"):
            codes = [main(["verify", path, "--t", t, "--json"])
                     for path in (octa_file, str(marked))]
            plain, bom = capsys.readouterr().out.splitlines()
            assert codes[0] == codes[1] and plain == bom

    @pytest.mark.parametrize("text", [
        "# d=2 sym=-3\n1 0 0\n0 1 0\n",
        "# d=2 N=2 sym=0\n# N=3\n1 0 0\n0 1 0\n0 0 1\n"])
    def test_bad_header(self, tmp_path, capsys, text):
        # read as symmetric, the rows e1, e2 would pass as a 1-design
        path = tmp_path / "hdr.txt"
        path.write_text(text)
        assert main(["verify", str(path), "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line ")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not numbers at all\n")
        assert main(["verify", str(bad), "--t", "3"]) == 2

    def test_degree_above_harmonic_cap_is_usage_error(self, octa_file,
                                                      capsys):
        t = MAX_HARMONIC_DEGREE + 1
        assert main(["verify", octa_file, "--t", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: degree %d exceeds the stability "
                                "cap %d\n" % (t, MAX_HARMONIC_DEGREE))


class TestGeom:
    def test_report_line(self, octa_file, capsys):
        assert main(["geom", octa_file]) == 0
        out = capsys.readouterr().out
        assert "delta=1.5708" in out
        assert "h=0.9553" in out
        assert "rho=1.22" in out

    def test_non_finite_file(self, nan_file, capsys):
        assert main(["geom", nan_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 4: non-finite")

    def test_not_utf8_file(self, not_utf8_file, capsys):
        assert main(["geom", not_utf8_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: not UTF-8 text\n"

    def test_coincident_points(self, tmp_path, capsys):
        path = tmp_path / "repeated.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n1 0 0\n")
        assert main(["geom", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coincident points")

    def test_repeated_row_below_unit_gram(self, tmp_path, capsys):
        # the Gram entry of this repeated row rounds to 0.9999999999999999
        v = np.array([1.0, 2.0, 2.0])
        v /= np.linalg.norm(v)
        path = tmp_path / "repeated.txt"
        write_pointset(PointSet(d=2, coords=np.vstack([v, v, np.eye(3)])),
                       path)
        coords = read_pointset(str(path)).coords
        assert (coords @ coords.T)[0, 1] < 1.0
        assert main(["geom", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coincident points")


class TestGen:
    def test_generates_and_verifies(self, tmp_path, capsys):
        out_file = str(tmp_path / "d2_t3.txt")
        code = main(["gen", "--d", "2", "--t", "3", "-o", out_file,
                     "--seed", "0"])
        assert code == 0
        line = capsys.readouterr().out
        assert "converged=True" in line
        X = read_pointset(out_file)
        assert X.N == 8
        assert main(["verify", out_file, "--t", "3"]) == 0

    def test_seed_reproducible(self, tmp_path, capsys):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        main(["gen", "--d", "2", "--t", "2", "-o", a, "--seed", "7"])
        main(["gen", "--d", "2", "--t", "2", "-o", b, "--seed", "7"])
        assert open(a).read() == open(b).read()

    def test_blas_thread_count_determinism(self, tmp_path):
        # separate processes, since BLAS reads its thread count at load;
        # d = 2 runs Levenberg-Marquardt, d = 3 L-BFGS-B on pair sums
        src = os.path.dirname(os.path.dirname(sphdesign.__file__))
        for d, t in ((2, 3), (3, 2)):
            outputs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join(
                               [src, os.environ.get("PYTHONPATH", "")]))
                out_file = tmp_path / ("d%d_threads%s.txt" % (d, threads))
                subprocess.run([sys.executable, "-m", "sphdesign.cli", "gen",
                                "--d", str(d), "--t", str(t), "--seed", "0",
                                "-o", str(out_file)],
                               env=env, check=True, capture_output=True)
                outputs.append(out_file.read_bytes())
            assert outputs[0] == outputs[1], "d=%d" % d

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out_file = tmp_path / "neg.txt"
        code = main(["gen", "--d", "2", "--t", "2", "--seed", "-5000000",
                     "-o", str(out_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed")
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [[], ["--symmetric"]])
    def test_degree_above_harmonic_cap_is_usage_error(self, tmp_path, capsys,
                                                      flags):
        out_file = tmp_path / "cap.txt"
        t = MAX_HARMONIC_DEGREE + 1
        code = main(["gen", "--d", "2", "--t", str(t), "-o", str(out_file)]
                    + flags)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: degree %d exceeds the stability "
                                "cap %d\n" % (t, MAX_HARMONIC_DEGREE))
        assert not out_file.exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys,
                                             monkeypatch):
        # numpy's allocation failure is a MemoryError; none is made here
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 397. MiB for an array")
        monkeypatch.setattr(sphdesign.optimizer, "generate_design", fail)
        out_file = tmp_path / "big.txt"
        assert main(["gen", "--t", "100", "-o", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: Unable to allocate "
                                "397. MiB for an array\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("d, t", [(40, 40), (3, 10 ** 9)])
    def test_start_numpy_cannot_index_is_out_of_memory(self, tmp_path,
                                                       capsys, d, t):
        out_file = tmp_path / "x.txt"
        assert main(["gen", "--d", str(d), "--t", str(t),
                     "-o", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1
        assert not out_file.exists()

    def test_missing_output_directory_before_generating(self, tmp_path,
                                                        capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("generated before the output was checked")
        monkeypatch.setattr(sphdesign.optimizer, "generate_design", fail)
        code = main(["gen", "--t", "9",
                     "-o", str(tmp_path / "missing" / "x.txt")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output directory")

    def test_output_directory_refused_before_generating(self, tmp_path,
                                                        capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("generated before the output was checked")
        monkeypatch.setattr(sphdesign.optimizer, "generate_design", fail)
        # a directory, and an empty path (whose dirname is "" too)
        for output in (str(tmp_path), ""):
            code = main(["gen", "--t", "9", "-o", output])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: output ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("restarts", ["0", "-4"])
    def test_restarts_below_one_is_usage_error(self, tmp_path, capsys,
                                               restarts):
        out_file = tmp_path / "r.txt"
        code = main(["gen", "--d", "2", "--t", "2", "--restarts", restarts,
                     "-o", str(out_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: restarts")
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [[], ["--symmetric"]])
    def test_start_without_free_angles(self, tmp_path, capsys, flags):
        # two points at odd t give one-representative antipodal starts
        code = main(["gen", "--d", "2", "--t", "3", "--n", "2",
                     "--restarts", "1", "-o", str(tmp_path / "n2.txt")]
                    + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert "converged=False" in captured.out
        assert captured.err == ""

    def test_rtr_not_applicable_on_s3(self, tmp_path, capsys):
        code = main(["gen", "--d", "3", "--t", "2", "--restarts", "1",
                     "-o", str(tmp_path / "d3.txt")])
        assert code == 0
        assert " rTr=n/a " in capsys.readouterr().out

    def test_symmetric_gen(self, tmp_path, capsys):
        out_file = str(tmp_path / "sym.txt")
        code = main(["gen", "--d", "2", "--t", "3", "--symmetric",
                     "-o", out_file])
        assert code == 0
        X = read_pointset(out_file)
        assert X.symmetric and X.N == 6


class TestTable:
    def test_table_over_fixtures(self, tmp_path, capsys):
        d = tmp_path / "designs"
        d.mkdir()
        write_pointset(polytopes.octahedron(), d / "d2_t3.txt", t=3)
        code = main(["table", "--d", "2", "--t-min", "3", "--t-max", "4",
                     "--designs-dir", str(d)])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == ("t,N_star,N_plus,N,n,m,V_psi1,V_psi2,V_psi3,"
                            "rTr,delta,h,rho")
        row3 = lines[1].split(",")
        assert row3[0] == "3" and row3[3] == "6"
        assert row3[10] == "1.5708" and row3[12] == "1.22"
        # missing t=4 file: blank V columns and a warning on stderr
        row4 = lines[2].split(",")
        assert row4[6] == "" and "missing design file" in captured.err

    def test_s2_values_from_weyl_sums(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a pair sum on S^2")
        monkeypatch.setattr(criteria, "variational_value", fail)
        write_pointset(polytopes.icosahedron(), tmp_path / "d2_t5.txt", t=5)
        assert main(["table", "--d", "2", "--t-min", "5", "--t-max", "5",
                     "--designs-dir", str(tmp_path)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert all(0.0 <= float(v) <= 1e-14 for v in row[6:9])

    def test_file_of_another_dimension(self, tmp_path, capsys):
        write_pointset(polytopes.octahedron(), tmp_path / "d3_t3.txt", t=3)
        assert main(["table", "--d", "3", "--t-min", "3", "--t-max", "3",
                     "--designs-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("symmetric, flags, name", [
        (True, [], "d2_t3.txt"),
        (False, ["--symmetric"], "d2_t3_sym.txt"),
    ])
    def test_file_of_another_search_kind(self, tmp_path, capsys, symmetric,
                                         flags, name):
        # n counts free angles of the file's kind and m conditions of
        # the table's, so the two must agree
        X = polytopes.octahedron()
        if symmetric:
            X = PointSet(d=2, coords=X.coords[:3], symmetric=True)
        write_pointset(X, tmp_path / name, t=3)
        assert main(["table", "--d", "2", "--t-min", "3", "--t-max", "3",
                     "--designs-dir", str(tmp_path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing", "file.txt"])
    def test_designs_dir_not_a_directory(self, tmp_path, capsys, name):
        (tmp_path / "file.txt").write_text("1 0 0\n")
        assert main(["table", "--d", "2", "--t-min", "3", "--t-max", "5",
                     "--designs-dir", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_usage_error(self, tmp_path):
        assert main(["table", "--d", "2", "--t-min", "3", "--t-max", "2",
                     "--designs-dir", str(tmp_path)]) == 2

    def test_bad_dimension_writes_nothing(self, tmp_path, capsys):
        assert main(["table", "--d", "0", "--t-max", "3",
                     "--designs-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: d must be >= 1")

    def test_degree_numpy_cannot_index_is_out_of_memory(self, tmp_path,
                                                        capsys):
        t = str(10 ** 20)
        assert main(["table", "--d", "3", "--t-min", t, "--t-max", t,
                     "--designs-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1


class TestParsing:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_option_sets(self):
        # every flag and positional of each subcommand; a new option
        # must be added here on purpose
        ap = build_parser()
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted(o for act in p._actions
                            for o in (act.option_strings or [act.dest]))
               for name, p in sub.choices.items()}
        assert got == {
            "bounds": sorted(["-h", "--help", "--d", "--t-min", "--t-max",
                              "--symmetric"]),
            "gen": sorted(["-h", "--help", "--d", "--t", "--n", "--symmetric",
                           "--seed", "--restarts", "-o", "--output"]),
            "verify": sorted(["-h", "--help", "file", "--t", "--tol",
                              "--json"]),
            "geom": sorted(["-h", "--help", "file"]),
            "table": sorted(["-h", "--help", "--d", "--t-min", "--t-max",
                             "--symmetric", "--designs-dir"]),
        }
