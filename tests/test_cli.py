import dataclasses
import gc
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarbounds import bounds, cli, extremal
from polarbounds.bounds import KRatioTable
from polarbounds.cli import _structured, main, table1_path
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
# powers of ten the golden rows are scaled by for `polarbounds oracle`, and
# the SHA-256 of its structured reports there, in this order
ORACLE_SCALES = (-4, 0, 2, 4, 6)
ORACLE_SCALED_DIGEST = "760acd6e63ae9655b1948e3347508f5670d033e1837efa463ff6ad1a23e71941"
GOOD = "record good\nsigma 2 1\nsigma_tilde 1\n"
OVERFLOW = "record bad\nsigma 1e200\nsigma_tilde 1e200 1\n"

# id: (spectra file contents, argv with {path} and {tmp}, exit code); each
# of these but format-text ended in a traceback and exit 1, the code for a
# finding, and format-text exited 0 with the retired text format
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
    "out-is-directory": (GOOD, ["table1", "--out", "{tmp}"], 64),
    "witness-out-is-file": (GOOD, ["witness", "{path}", "good", "q-upper", "--out", "{path}"], 64),
    "format-text": (GOOD, ["bounds", "{path}", "--format", "text"], 64),
    "witness-float-supremum": ("record near\nsigma 1\nsigma_tilde 1 1e-20\n",
                               ["witness", "{path}", "near", "h-upper", "--out", "{tmp}/w"], 3),
    "verify-trials-0": (GOOD, ["verify", "--trials", "0"], 64),
    "verify-slack-tol-negative": (GOOD, ["verify", "--trials", "2", "--slack-tol", "-1"], 64),
    "verify-seed-negative": (GOOD, ["verify", "--seed", "-1", "--trials", "2"], 64),
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

    def test_untyped_range_errors_rejected_by_constant(self, tmp_path, capsys):
        # these two records raised ZeroDivisionError and OverflowError, which
        # named no constant
        path = write(tmp_path, "in.spectra",
                     "record cs\nsigma 1e-300\nsigma_tilde 1e18\n"
                     "record kt\nsigma 1\nsigma_tilde 1 1\n"
                     "eigen 1e160\neigen_hat 1e160j 2e159\n")
        code, rep = run_json(capsys, ["bounds", path])
        assert code == 2
        assert [r["rejected"] for r in rep["records"]] == [
            "NumericalRangeError: cauchy-schwarz: a spectrum's sum of squares "
            "underflows to 0 at the pair's unit scale",
            "NumericalRangeError: kittaneh-lower: a squared eigenvalue modulus "
            "in F_hat overflows"]

    def test_invalid_spectrum_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record bad\nsigma 1 2\nsigma_tilde 1\n")
        code = main(["bounds", path])
        assert code == 2

    def test_tiny_increasing_spectra_rejected(self, tmp_path, capsys):
        # below 1e-14 an absolute slack let any order through, and every
        # constant came out wrong with exit 0
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 1e-20 5e-15\nsigma_tilde 3e-15 1e-15 1e-20\n")
        code, rep = run_json(capsys, ["bounds", path])
        assert code == 2
        assert "not decreasing" in rep["records"][0]["rejected"]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", "record a\nsigma x\nsigma_tilde 1\n")
        assert main(["bounds", path]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line_no", [
        ("record a\nsigma 2 1\nsigma 5\nsigma_tilde 3 2 1\n", 3),
        ("record a\nsigma 1\nsigma_tilde 1\neigen 1\neigen_hat -1\neigen_hat 2\n", 6),
    ], ids=["sigma", "eigen_hat"])
    def test_repeated_field_exit_2(self, tmp_path, capsys, text, line_no):
        assert main(["bounds", write(tmp_path, "in.spectra", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"input rejected: line {line_no}: repeated field" in captured.err

    def test_byte_deterministic_report(self, tmp_path, capsys):
        # --format structured, the one format, gives the default's bytes
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        main(["bounds", path])
        first = capsys.readouterr().out
        main(["bounds", path, "--format", "structured"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        out = str(tmp_path / "report.json")
        assert main(["bounds", path, "--out", out]) == 0
        with open(out) as fh:
            assert json.load(fh)["command"] == "bounds"

    @pytest.mark.parametrize("fmt", ["structured"])
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
        # nested: an entry of the q-upper ratio table
        monkeypatch.undo()
        q_upper = bounds.q_upper_coeff
        monkeypatch.setattr(bounds, "q_upper_coeff",
                            lambda pair: (q_upper(pair)[0], KRatioTable((1.0, value))))
        assert main(["bounds", path, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input rejected: report holds a non-finite number" in captured.err


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def golden_rows_text(e: int) -> str:
    """The bundled golden rows times 10^e, scaled exactly in decimal."""
    with open(table1_path()) as fh:
        records = parse_spectra_text(fh.read())
    return "".join(
        f"record {rec.id}\n"
        f"sigma {' '.join(f'{v!r}e{e}' for v in rec.sigma)}\n"
        f"sigma_tilde {' '.join(f'{v!r}e{e}' for v in rec.sigma_tilde)}\n"
        for rec in records)


class TestScale:
    def _report(self, tmp_path, capsys, e):
        code = main(["bounds", write(tmp_path, "in.spectra", golden_rows_text(e))])
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

    @pytest.mark.parametrize("record_id", ["../escaped", "sub/dir"])
    def test_record_id_with_separator_usage_error(self, tmp_path, capsys, record_id):
        # the id names the matrix files: "../escaped" wrote them beside --out
        work = tmp_path / "work"
        work.mkdir()
        path = write(work, "in.spectra", f"record {record_id}\nsigma 2 1\nsigma_tilde 3 2 1\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(["witness", path, record_id, "q-upper", "--out", str(work / "out")]) == 64
        assert "path separator" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


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

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_usage_error(self, tmp_path, capsys, budget):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 2 1\nsigma_tilde 3 2 1\n")
        assert main(["oracle", path, "--budget", budget]) == 64
        assert capsys.readouterr().err.startswith("usage error: --budget must be at least 1")

    @pytest.mark.parametrize("name,factor", [("q_upper_coeff", 1.01), ("q_lower_coeff", 0.99)])
    def test_one_percent_fault_found_at_every_scale(self, tmp_path, capsys, monkeypatch,
                                                    name, factor):
        # q scales as 1/sigma, so a tolerance absolute below 1 let a 1%
        # fault pass once the spectra exceeded about 1e3
        closed_form = getattr(bounds, name)

        def faulty(pair):
            result, table = closed_form(pair)
            return dataclasses.replace(result, coefficient=result.coefficient * factor), table

        monkeypatch.setattr(bounds, name, faulty)
        for e in ORACLE_SCALES:
            assert main(["oracle", write(tmp_path, "in.spectra", golden_rows_text(e))]) == 1, e
            rep = json.loads(capsys.readouterr().out)
            assert not any(rec["agrees"] for rec in rep["records"]), e

    def test_kittaneh_bounds_on_eigen_lines(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 2 1\nsigma_tilde 3 2 1\n"
                     "eigen 1 2j\neigen_hat -1 1+1j 3\n"
                     "record b\nsigma 2 1\nsigma_tilde 3 2 1\n")
        code, rep = run_json(capsys, ["oracle", path])
        assert code == 0
        with_eigen, without = rep["records"]
        assert with_eigen["agrees"] is True
        for mode in ("lower", "upper"):
            brute = with_eigen[f"brute_force_kittaneh_{mode}"]
            assert 0 < brute == with_eigen[f"closed_form_kittaneh_{mode}"] < 1
        assert not any("kittaneh" in key for key in without)

    @pytest.mark.parametrize("name,factor", [("kittaneh_lower_coeff", 1.001),
                                             ("kittaneh_upper_coeff", 0.999)])
    def test_kittaneh_fault_found(self, tmp_path, capsys, monkeypatch, name, factor):
        closed_form = getattr(bounds, name)

        def faulty(*args, **kwargs):
            result = closed_form(*args, **kwargs)
            return dataclasses.replace(result, coefficient=result.coefficient * factor)

        monkeypatch.setattr(bounds, name, faulty)
        path = write(tmp_path, "in.spectra",
                     "record a\nsigma 2 1\nsigma_tilde 3 2 1\n"
                     "eigen 1 2j\neigen_hat -1 1+1j 3\n"
                     "record b\nsigma 2 1\nsigma_tilde 3 2 1\n")
        code, rep = run_json(capsys, ["oracle", path])
        assert code == 1
        assert [rec["agrees"] for rec in rep["records"]] == [False, True]

    def test_kittaneh_past_the_cap_rejected(self, tmp_path, capsys):
        values = " ".join(str(v) for v in range(1, 8))
        path = write(tmp_path, "in.spectra", "record a\nsigma 2 1\nsigma_tilde 3 2 1\n"
                                             f"eigen {values}\neigen_hat {values}\n")
        assert main(["oracle", path]) == 2
        assert "exceed enumeration cap 6" in capsys.readouterr().err

    def test_scaled_golden_rows_report_digest(self, tmp_path, capsys):
        # the report bytes on the golden rows at every ORACLE_SCALES scale
        h = hashlib.sha256()
        for e in ORACLE_SCALES:
            assert main(["oracle", write(tmp_path, "in.spectra", golden_rows_text(e))]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == ORACLE_SCALED_DIGEST


# q's k = 0 row is 0/0 only when its paired values are all equal. The old
# box, num and den both below 1e-12 * max(1, F), dropped it in both
# records: `bounds` reported q-upper 1.58e-6 for the first (F past 1e12)
# and q-lower 3.98e6 for the second (den(0) below 1e-12), and `oracle`
# agreed with the first and exited 1 on the second
ZERO_OVER_ZERO = ("record large\nsigma 1000000\nsigma_tilde 1000000 0.1\n"
                  "record small\nsigma 2e-7 1e-7\nsigma_tilde 3e-7 5e-8\n")


class TestExactZeroOverZero:
    def test_bounds(self, tmp_path, capsys):
        code, rep = run_json(capsys, ["bounds", write(tmp_path, "in.spectra", ZERO_OVER_ZERO)])
        large, small = rep["records"]
        assert code == 0
        # 10 = the unit record sigma 1, sigma~ 1 1e-7 scaled by 1e6
        assert (large["q_upper"]["coefficient"], large["q_upper"]["optimal_k"]) == (10.0, 0)
        assert (small["q_lower"]["coefficient"], small["q_lower"]["optimal_k"]) == (0.0, 0)

    def test_oracle(self, tmp_path, capsys):
        code, rep = run_json(capsys, ["oracle", write(tmp_path, "in.spectra", ZERO_OVER_ZERO)])
        large, small = rep["records"]
        assert code == 0 and large["agrees"] and small["agrees"]
        assert math.isclose(large["brute_force_max"], 100.0, rel_tol=1e-15)
        assert small["brute_force_min"] == 0.0


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

    def test_violations_render_as_nested_items(self, capsys, monkeypatch):
        # an AM-GM constant far too small: every trial violates it
        monkeypatch.setattr(bounds, "amgm_coeff",
                            lambda pair: BoundResult(theorem_id="amgm", coefficient=0.01))
        code, rep = run_json(capsys, ["verify", "--trials", "2", "--dims", "3"])
        assert code == 1 and rep["body"]["violations"]
        for trial, inequality, margin in rep["body"]["violations"]:
            assert type(trial) is int and type(inequality) is str and type(margin) is float


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
        if code == 64:
            err = capsys.readouterr().err
            assert err.startswith("usage error: ")
            # it names what the user gave, never the temporary file
            assert ".polarbounds-" not in err
            # a failed --out leaves no temporary file beside its target
            assert not list(tmp_path.glob(".polarbounds-*"))
            assert not list(tmp_path.parent.glob(".polarbounds-*"))


class TestOutMode:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_files_get_the_umask_mode(self, tmp_path, capsys, umask):
        # mkstemp makes 0o600; a shell redirect of the same bytes gets
        # 0o666 less the umask, and so does every file --out writes
        path = write(tmp_path, "in.spectra", GOOD)
        report = tmp_path / "report.json"
        old = os.umask(umask)
        try:
            assert main(["table1", "--out", str(report)]) == 0
            assert main(["witness", path, "good", "q-upper", "--out", str(tmp_path / "w")]) == 0
        finally:
            os.umask(old)
        files = json.loads(capsys.readouterr().out)["files"]
        for written in (report, files["A"], files["A_tilde"]):
            assert os.stat(written).st_mode & 0o777 == 0o666 & ~umask, written


EIGEN_RECORDS = (GOOD + "record e\nsigma 1\nsigma_tilde 1 1\neigen 1\neigen_hat -1 -1\n"
                 "record t\nsigma 3 2 1\nsigma_tilde 2 2 1\neigen 2 -1j 0.5\n"
                 "eigen_hat 1 1+1j -0.25\n")
# command: argv with {path} and {tmp}; each writes its report to stdout
STRUCTURED_COMMANDS = {
    "bounds": ["bounds", "{path}"],
    "table1": ["table1"],
    "oracle": ["oracle", "{path}"],
    "witness": ["witness", "{path}", "t", "q-upper", "--out", "{tmp}/w"],
    "verify": ["verify", "--trials", "20", "--dims", "3"],
}


class TestStructuredFormat:
    """Every structured report is json.dumps(..., sort_keys=True, indent=2,
    allow_nan=False) of itself plus a newline, on stdout and in --out."""

    @staticmethod
    def _argv(tmp_path, command):
        path = write(tmp_path, "in.spectra", EIGEN_RECORDS)
        return [a.format(path=path, tmp=tmp_path) for a in STRUCTURED_COMMANDS[command]]

    @pytest.mark.parametrize("command", sorted(STRUCTURED_COMMANDS))
    def test_stdout_is_sorted_indented_json(self, tmp_path, capsys, command):
        assert main(self._argv(tmp_path, command)) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2,
                                 allow_nan=False) + "\n"

    @pytest.mark.parametrize("command", sorted(set(STRUCTURED_COMMANDS) - {"witness"}))
    def test_out_file_holds_stdout_bytes(self, tmp_path, capsys, command):
        # witness's --out names the directory of its matrix files
        argv = self._argv(tmp_path, command)
        assert main(argv) == 0
        out = capsys.readouterr().out
        report = tmp_path / "report.json"
        assert main([*argv, "--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_bytes() == out.encode()

    @pytest.mark.parametrize("writer", [_structured])
    def test_writers_leave_no_reference_cycle(self, writer):
        # a writer recursing through a nested closure forms a cycle that
        # holds all of its output until the next garbage collection
        report = {"records": [{"id": "a", "f_table": [1.0, None], "q": {"k": [1, (2, 3)]}}]}
        gc.collect()
        gc.disable()
        try:
            writer(report)
            assert gc.collect() == 0
        finally:
            gc.enable()


def generated_records(count: int) -> str:
    """count spectra records of 1-6 and 1-8 singular values; every second
    one has eigen lines of 1-4 values."""
    rng = np.random.default_rng(7)
    lines = []
    for i in range(count):
        lines.append(f"record r{i}")
        for key, size in (("sigma", 1 + i % 6), ("sigma_tilde", 1 + (i // 6) % 8)):
            values = np.sort(rng.uniform(0.01, 100.0, size))[::-1]
            lines.append(f"{key} " + " ".join(map(repr, values.tolist())))
        if i % 2:
            for key, size in (("eigen", 1 + i % 4), ("eigen_hat", 1 + (i // 4) % 4)):
                z = rng.uniform(0.1, 10.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
                lines.append(f"{key} " + " ".join(map(repr, z.tolist())))
    return "\n".join(lines) + "\n"


class TestStreamedBounds:
    """`bounds` hands the writer its records as a generator: each record is
    computed, rendered and dropped before the next."""

    def test_record_rejected_mid_stream(self, tmp_path, capsys):
        path = write(tmp_path, "in.spectra", GOOD + OVERFLOW + EIGEN_RECORDS)
        code, rep = run_json(capsys, ["bounds", path])
        assert code == 2
        assert [e["id"] for e in rep["records"]] == ["good", "bad", "good", "e", "t"]
        assert set(rep["records"][1]) == {"id", "rejected"}
        assert all("q_upper" in e for i, e in enumerate(rep["records"]) if i != 1)

    def test_bare_value_error_propagates(self, tmp_path, capsys, monkeypatch):
        # only the writer's non-finite error is an input rejection; a fault
        # in a closed form stays a traceback, as before records streamed
        def fault(pair):
            raise ValueError("fault in a closed form")

        monkeypatch.setattr(bounds, "amgm_coeff", fault)
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        with pytest.raises(ValueError, match="fault in a closed form") as info:
            main(["bounds", path])
        assert type(info.value) is ValueError
        assert capsys.readouterr().out == ""

    def test_leaves_no_reference_cycle(self, tmp_path, capsys):
        # main builds its argument parser, and the parser's cycles, once
        path = write(tmp_path, "in.spectra", GOOD + OVERFLOW + EIGEN_RECORDS)
        main(["bounds", path])
        gc.collect()
        gc.disable()
        try:
            assert main(["bounds", path]) == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_handler_replaced_after_first_call_is_called(self, tmp_path, capsys, monkeypatch):
        # the parser is built once; the subcommand's function is looked up
        # by name on each call, so a later replacement is the one run
        path = write(tmp_path, "in.spectra", GOLDEN_SINGLE)
        assert main(["bounds", path]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: calls.append(args.input) or 7)
        assert main(["bounds", path]) == 7
        assert main(["table1"]) == 7
        assert calls == [path, table1_path()]

    def test_peak_memory_a_few_times_the_report(self, tmp_path, capsys):
        # holding every record's dict and pieces until the end peaked at
        # about 8 times the report; --out, so that the captured stdout of
        # the test is not counted
        path = write(tmp_path, "in.spectra", generated_records(200))
        assert main(["bounds", path]) == 0
        report = capsys.readouterr().out
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            assert main(["bounds", path, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text() == report
        assert peak <= 4 * len(report), peak / len(report)


def reference_structured(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


KEYS = st.one_of(st.sampled_from(["", '"', "\\", "a\"b\\c", "\x00", "\x1f\n\t", "\x7f",
                                  "é", "\u2028", "\U0001f600", "k"]),
                 st.text(max_size=6))
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308, 0.1, 1e16, 1e-7]),
                   st.floats(allow_nan=False, allow_infinity=False))
LEAVES = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.sampled_from([2 ** 70, -2 ** 70, 0, True, False, None, {}, [], ()]),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    KEYS,
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=12)
NON_FINITE = [math.inf, -math.inf, math.nan, np.float64(-math.inf), np.float64(math.nan)]
# values neither writer has a form for; keys json.dumps would write as
# strings, which the writer rejects
NO_FORM = [np.int64(3), {1.5}, b"bytes"]
BAD_KEYS = [1, 2.5, None, True, (1, 2)]
PLACES = ("top", "dict", "list")


def _place(bad, where, value, key):
    """bad at the top level, as a dict value, or as a list element."""
    if where == "top":
        return bad
    if where == "dict":
        return {key: bad} if not isinstance(value, dict) else {**value, key: bad}
    items = list(value) if isinstance(value, (list, tuple)) else [value]
    return items[:1] + [bad] + items[1:]


def _lists_as_generators(value):
    """value with every list, at any depth, replaced by a generator of its items."""
    if isinstance(value, dict):
        return {k: _lists_as_generators(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_lists_as_generators(v) for v in value)
    if isinstance(value, list):
        return (item for item in [_lists_as_generators(v) for v in value])
    return value


class TestStructuredWriter:
    """cli._structured against json.dumps(..., sort_keys=True, indent=2,
    allow_nan=False), the encoder it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(VALUES)
    def test_same_bytes_as_json_dumps(self, value):
        assert _structured(value) == reference_structured(value)

    @settings(max_examples=15, deadline=None)
    @given(VALUES, KEYS)
    def test_non_finite_raises_value_error(self, value, key):
        for bad in NON_FINITE:
            for where in PLACES:
                placed = _place(bad, where, value, key)
                with pytest.raises(ValueError):
                    reference_structured(placed)
                with pytest.raises(ValueError):
                    _structured(placed)

    @settings(max_examples=15, deadline=None)
    @given(VALUES, KEYS)
    def test_no_structured_form_raises_type_error(self, value, key):
        for bad in NO_FORM:
            for where in PLACES:
                placed = _place(bad, where, value, key)
                with pytest.raises(TypeError):
                    reference_structured(placed)
                with pytest.raises(TypeError):
                    _structured(placed)

    @settings(max_examples=15, deadline=None)
    @given(st.dictionaries(KEYS, VALUES, max_size=3), VALUES)
    def test_non_str_key_raises_type_error(self, value, item):
        for key in BAD_KEYS:
            with pytest.raises(TypeError):
                _structured([{**value, key: item}])

    @pytest.mark.parametrize("value", [True, False, None, 0, -0.0, 5e-324, "", {}, [], ()])
    def test_top_level_scalars_and_empty_containers(self, value):
        assert _structured(value) == reference_structured(value)

    @settings(max_examples=80, deadline=None)
    @given(VALUES)
    def test_generator_written_as_its_list(self, value):
        assert _structured(_lists_as_generators(value)) == reference_structured(value)

    def test_empty_generator(self):
        assert _structured({"records": (x for x in ())}) == reference_structured({"records": []})
        assert _structured(x for x in ()) == "[]\n"


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
    from polarbounds.linalg import polar_decompose
    # the witness of sigma = (1,), sigma~ = (1, 1) has ranks 1 and 2
    ha = polar_decompose(a, 1).H
    hat = polar_decompose(at, 2).H
    return np.linalg.norm(ha - hat) / np.linalg.norm(at - a)
