import json
import math
import os

import numpy as np
import pytest

from polarbounds import bounds, extremal
from polarbounds.cli import main, table1_path
from polarbounds.extremal import BOUND_IDS, RATIO_RTOL
from polarbounds.fileio import parse_spectra_text, read_matrix_text
from polarbounds.spectra import BoundResult


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


GOLDEN_SINGLE = "record one\nsigma 1\nsigma_tilde 1\n"
GOOD = "record good\nsigma 2 1\nsigma_tilde 1\n"
OVERFLOW = "record bad\nsigma 1e200\nsigma_tilde 1e200 1\n"

# id: (spectra file contents, argv with {path} and {tmp}, exit code); each
# of these ended in a traceback and exit 1, the code for a finding
EXIT_CASES = {
    "bounds-eigen-cap": (GOOD + "record bad\nsigma 1\nsigma_tilde 1\n"
                         "eigen 1 1 1 1 1 1 1\neigen_hat 1 2 3 4 5 6 7\n",
                         ["bounds", "{path}"], 2),
    "bounds-overflow": (GOOD + OVERFLOW, ["bounds", "{path}"], 2),
    "bounds-underflow": (GOOD + "record bad\nsigma 1e-200\nsigma_tilde 1e-200 1e-201\n",
                         ["bounds", "{path}"], 2),
    "witness-overflow": (OVERFLOW, ["witness", "{path}", "bad", "h-upper", "--out", "{tmp}/w"], 2),
    "non-utf8": (GOOD.encode() + b"# \xff\xfe\n", ["bounds", "{path}"], 2),
    "out-missing-dir": (GOOD, ["bounds", "{path}", "--out", "{tmp}/missing/r.json"], 64),
    "witness-float-supremum": ("record near\nsigma 1\nsigma_tilde 1 1e-20\n",
                               ["witness", "{path}", "near", "h-upper", "--out", "{tmp}/w"], 3),
    "verify-trials-0": (GOOD, ["verify", "--trials", "0"], 64),
    "verify-slack-tol-negative": (GOOD, ["verify", "--trials", "2", "--slack-tol", "-1"], 64),
}


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

    @pytest.mark.parametrize("fmt", ["structured", "text"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, tmp_path, capsys, monkeypatch,
                                             fmt, value):
        monkeypatch.setattr(bounds, "amgm_coeff",
                            lambda pair: BoundResult(theorem_id="amgm", coefficient=value))
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["bounds", path, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input rejected: report holds a non-finite number" in captured.err


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


class TestScale:
    def _report(self, tmp_path, capsys, e):
        with open(table1_path()) as fh:
            records = parse_spectra_text(fh.read())
        text = "".join(
            f"record {rec.id}\n"
            f"sigma {' '.join(f'{v!r}e{e}' for v in rec.sigma)}\n"
            f"sigma_tilde {' '.join(f'{v!r}e{e}' for v in rec.sigma_tilde)}\n"
            for rec in records)
        code = main(["bounds", write(tmp_path, "in.spectra", text)])
        return code, json.loads(capsys.readouterr().out, parse_constant=_no_constant)

    def test_golden_rows_exact_or_rejected(self, tmp_path, capsys):
        # the golden rows times 10^e, where F, G, D and the q denominators
        # leave the normal range: each report is exact or rejected, never
        # wrong digits or an infinity; each constant scales as 10^(e * degree)
        _, base = self._report(tmp_path, capsys, 0)
        for e in [*range(-175, -139), *range(140, 175)]:
            code, rep = self._report(tmp_path, capsys, e)
            assert code in (0, 2), e
            if code == 2:
                continue
            for rec, ref in zip(rep["records"], base["records"]):
                for theorem_id, degree in bounds.SPECTRUM_CONSTANTS:
                    key = bounds.REPORT_KEYS[theorem_id]
                    got = rec[key]["coefficient"] * 10.0 ** (-e * degree)
                    want = ref[key]["coefficient"]
                    assert abs(got - want) <= 1e-15 * want, (e, rec["id"], key)


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
        code, rep = run_json(capsys, ["witness", path, "a", "h-upper",
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
        code = main(["witness", path, "one", "h-upper",
                     "--out", str(tmp_path / "w")])
        assert code == 3

    @pytest.mark.parametrize("bound", BOUND_IDS)
    def test_hard_spectra(self, tmp_path, capsys, bound):
        path = write(tmp_path, "in.spectra",
                     "record wide\nsigma 1e8 1e-8\nsigma_tilde 1e8 1 1e-8\n")
        code, rep = run_json(capsys, ["witness", path, "wide", bound,
                                      "--out", str(tmp_path / "w")])
        assert code == 0
        target = rep["target_coefficient"]
        assert abs(rep["achieved_ratio"] - target) <= RATIO_RTOL * target

    def test_verification_failure_exit_5(self, tmp_path, capsys, monkeypatch):
        def missed(pair, bound_id):
            raise extremal.WitnessVerificationError("achieved ratio misses target")

        monkeypatch.setattr(extremal, "make_witness", missed)
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["witness", path, "one", "q-upper", "--out", str(tmp_path / "w")]) == 5
        assert "witness construction failed" in capsys.readouterr().err

    def test_svd_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["witness", path, "one", "q-upper", "--out", str(tmp_path / "w")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input rejected: SVD did not converge")
        assert "Traceback" not in err

    def test_unknown_record_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["witness", path, "missing", "q-upper",
                     "--out", str(tmp_path / "w")]) == 64


class TestOracle:
    def test_agreement(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 2 1\nsigma_tilde 3 2 1\n")
        code, rep = run_json(capsys, ["oracle", path])
        assert code == 0
        assert rep["records"][0]["agrees"] is True

    def test_agreement_over_nine_decades(self, tmp_path, capsys):
        # F - 2*1*1 cancels to 0 at the point pairing the two 1s
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 1 1e-9\nsigma_tilde 1 1e-9 1e-9\n")
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
                                      "--dims", "4"])
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


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_exit_code(self, tmp_path, capsys, case):
        content, argv, code = EXIT_CASES[case]
        path = tmp_path / "in.spectra"
        path.write_bytes(content.encode() if isinstance(content, str) else content)
        argv = [a.format(path=path, tmp=tmp_path) for a in argv]
        assert main(argv) == code
        if case.startswith("bounds-"):
            # the bad record is rejected in place, the good one reported
            good, bad = json.loads(capsys.readouterr().out)["records"]
            assert "q_upper" in good and set(bad) == {"id", "rejected"}


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

    @pytest.mark.parametrize("command", ["bounds", "table1", "oracle", "witness", "verify"])
    def test_rank_tol_only_where_used(self, tmp_path, command):
        # no command takes --rank-tol: every polar factorisation gets its
        # rank from the code that built the matrix
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        inputs = {"table1": [], "verify": [], "witness": [path, "one", "q-upper"]}
        assert main([command, *inputs.get(command, [path]), "--rank-tol", "1e-9"]) == 64


def _h_gap_ratio(a, at):
    from polarbounds.linalg import frobenius, polar_decompose
    # the witness of sigma = (1,), sigma~ = (1, 1) has ranks 1 and 2
    ha = polar_decompose(a, 1).H
    hat = polar_decompose(at, 2).H
    return frobenius(ha - hat) / frobenius(at - a)
