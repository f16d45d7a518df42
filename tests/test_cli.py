import json
import math
import os

import numpy as np
import pytest

from polarbounds.cli import main, table1_path
from polarbounds.fileio import read_matrix_text


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


GOLDEN_SINGLE = "record one\nsigma 1\nsigma_tilde 1\n"


class TestBounds:
    def test_single_identical_record(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        code, rep = run_json(capsys, ["bounds", path])
        assert code == 0
        rec = rep["records"][0]
        assert rec["q_upper"]["coefficient"] == 1.0
        assert abs(rec["h_upper"]["coefficient"] - math.sqrt(2)) < 1e-12
        assert abs(rec["lee_upper"]["coefficient"]
                   - math.sqrt((1 + math.sqrt(2)) / 2)) < 1e-12
        assert rec["li_sun"]["coefficient"] == 1.0

    def test_unequal_ranks_marks_inapplicable(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 1\nsigma_tilde 1 1\n")
        code, rep = run_json(capsys, ["bounds", path])
        assert code == 0
        assert rep["records"][0]["li_sun"] == "not applicable (r != s)"

    def test_eigen_record_adds_kittaneh(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 1\nsigma_tilde 1 1\n"
                     "eigen 1\neigen_hat -1 -1\n")
        code, rep = run_json(capsys, ["bounds", path])
        assert code == 0
        c = rep["records"][0]["kittaneh_lower"]["coefficient"]
        assert abs(c - math.sqrt(1 / 5)) < 1e-12

    def test_invalid_spectrum_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record bad\nsigma 1 2\nsigma_tilde 1\n")
        code = main(["bounds", path])
        assert code == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", "record a\nsigma x\nsigma_tilde 1\n")
        assert main(["bounds", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_byte_deterministic_report(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        main(["bounds", path])
        first = capsys.readouterr().out
        main(["bounds", path])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        out = str(tmp_path / "report.json")
        assert main(["bounds", path, "--out", out]) == 0
        with open(out) as fh:
            assert json.load(fh)["command"] == "bounds"

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["bounds", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "q_upper" in out


class TestTable1:
    def test_bundled_file_exists(self):
        assert os.path.exists(table1_path())

    def test_golden_values(self, capsys):
        code, rep = run_json(capsys, ["table1"])
        assert code == 0
        expected = {
            "row1": ([0.0871, 0.0711, 0.0500, 0.0335], 0),
            "row2": ([0.0125, 0.0463, 0.0424, 0.0366], 1),
            "row3": ([0.0144, 0.0381, 0.0391, 0.0287], 2),
            "row4": ([0.0087, 0.0342, 0.0436, 0.0450], 3),
        }
        recs = {r["id"]: r for r in rep["records"]}
        assert set(recs) == set(expected)
        for rid, (fk, kstar) in expected.items():
            got = recs[rid]["q_upper"]
            assert got["optimal_k"] == kstar
            for have, want in zip(got["f_table"], fk):
                assert abs(have - want) < 5e-5


class TestWitness:
    def test_writes_and_verifies(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 1\nsigma_tilde 1 1\n")
        outdir = str(tmp_path / "wit")
        code, rep = run_json(capsys, ["witness", path, "a", "h-max",
                                      "--out", outdir])
        assert code == 0
        assert abs(rep["achieved_ratio"] ** 2 - (3 - math.sqrt(3))) < 1e-8
        with open(rep["files"]["A"]) as fh:
            a = read_matrix_text(fh.read())
        with open(rep["files"]["A_tilde"]) as fh:
            at = read_matrix_text(fh.read())
        ratio = _h_gap_ratio(a, at)
        assert abs(ratio ** 2 - (3 - math.sqrt(3))) < 1e-8

    def test_degenerate_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        code = main(["witness", path, "one", "h-max",
                     "--out", str(tmp_path / "w")])
        assert code == 3

    def test_unknown_record_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["witness", path, "missing", "q-max",
                     "--out", str(tmp_path / "w")]) == 64


class TestOracle:
    def test_agreement(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 2 1\nsigma_tilde 3 2 1\n")
        code, rep = run_json(capsys, ["oracle", path])
        assert code == 0
        assert rep["records"][0]["agrees"] is True

    def test_budget_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 2 1\nsigma_tilde 3 2 1\n")
        assert main(["oracle", path, "--budget", "3"]) == 4


class TestVerify:
    def test_small_campaign(self, capsys):
        code, rep = run_json(capsys, ["verify", "--trials", "25", "--seed", "7",
                                      "--dims", "4", "--rank-tol", "1e-12"])
        assert code == 0
        assert rep["body"]["violations"] == []

    def test_byte_deterministic_body(self, capsys):
        main(["verify", "--trials", "10", "--seed", "3", "--dims", "3"])
        first = capsys.readouterr().out
        main(["verify", "--trials", "10", "--seed", "3", "--dims", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_dims_zero_usage_error(self, capsys):
        assert main(["verify", "--dims", "0"]) == 64


class TestUsage:
    def test_no_command(self):
        assert main([]) == 64

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 64

    def test_bad_choice(self, tmp_path):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["witness", path, "one", "nope"]) == 64

    def test_missing_file(self):
        assert main(["bounds", "/nonexistent/path.spectra"]) == 64

    @pytest.mark.parametrize("command", ["bounds", "table1", "oracle"])
    def test_rank_tol_only_where_used(self, tmp_path, command):
        # only witness and verify compute an SVD, so only they take --rank-tol
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        inputs = [] if command == "table1" else [path]
        assert main([command, *inputs, "--rank-tol", "1e-9"]) == 64


def _h_gap_ratio(a, at):
    from polarbounds.linalg import frobenius, polar_decompose
    ha = polar_decompose(a).H
    hat = polar_decompose(at).H
    return frobenius(ha - hat) / frobenius(at - a)
