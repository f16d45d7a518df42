import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from polarbounds.fileio import (
    MATRIX_MAGIC,
    SpectraParseError,
    SpectraRecord,
    format_spectra,
    parse_spectra_text,
    read_matrix_text,
    write_matrix_text,
)


class TestSpectraFormat:
    def test_basic_record(self):
        recs = parse_spectra_text(
            "record a\nsigma 2 1\nsigma_tilde 3 2 1\n")
        assert len(recs) == 1
        assert recs[0].id == "a"
        assert recs[0].sigma == [2.0, 1.0]
        assert recs[0].sigma_tilde == [3.0, 2.0, 1.0]
        assert recs[0].eigen is None

    def test_comments_and_blanks(self):
        recs = parse_spectra_text(
            "# header\n\nrecord a  # trailing\nsigma 1\nsigma_tilde 1\n")
        assert recs[0].sigma == [1.0]

    def test_eigen_lists(self):
        recs = parse_spectra_text(
            "record a\nsigma 1\nsigma_tilde 1\neigen 1j\neigen_hat -1 -1\n")
        assert recs[0].eigen == [1j]
        assert recs[0].eigen_hat == [-1, -1]

    def test_error_carries_line_number(self):
        with pytest.raises(SpectraParseError) as exc:
            parse_spectra_text("record a\nsigma 1\nsigma_tilde oops\n")
        assert exc.value.line_no == 3
        assert "line 3" in str(exc.value)

    def test_field_before_record(self):
        with pytest.raises(SpectraParseError) as exc:
            parse_spectra_text("sigma 1\n")
        assert exc.value.line_no == 1

    def test_unknown_field(self):
        with pytest.raises(SpectraParseError):
            parse_spectra_text("record a\nwidth 1\n")

    def test_missing_sigma(self):
        with pytest.raises(SpectraParseError) as exc:
            parse_spectra_text("record a\nsigma 1\n")
        assert exc.value.line_no == 1
        # reported at the record's own line, not at the end of the file
        with pytest.raises(SpectraParseError) as exc:
            parse_spectra_text("record a\nsigma 1\nsigma_tilde 1\nrecord b\nsigma 1\n"
                               "record c\nsigma 1\nsigma_tilde 1\n")
        assert exc.value.line_no == 4

    def test_lonely_eigen_list(self):
        with pytest.raises(SpectraParseError) as exc:
            parse_spectra_text("record a\nsigma 1\nsigma_tilde 1\neigen 1\n")
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("text, line_no", [
        ("record a\nsigma 2 1\nsigma 5\nsigma_tilde 3 2 1\n", 3),
        ("record a\nsigma 1\nsigma_tilde 1\neigen 1\neigen_hat -1\n# c\neigen_hat 2\n", 7),
    ], ids=["sigma", "eigen_hat"])
    def test_repeated_field(self, text, line_no):
        # the second line once replaced the first without a word
        with pytest.raises(SpectraParseError) as exc:
            parse_spectra_text(text)
        assert exc.value.line_no == line_no
        assert "repeated field" in str(exc.value)

    def test_round_trip(self):
        recs = [SpectraRecord(id="x", sigma=[np.pi, 1 / 3],
                              sigma_tilde=[np.e],
                              eigen=[1 + 2j], eigen_hat=[-1j])]
        back = parse_spectra_text(format_spectra(recs))
        assert back[0].sigma == recs[0].sigma
        assert back[0].sigma_tilde == recs[0].sigma_tilde
        assert back[0].eigen == recs[0].eigen
        assert back[0].eigen_hat == recs[0].eigen_hat


def scalar_write_matrix_text(a):
    """Reference: the matrix writer formatting one entry at a time."""
    a = np.asarray(a, dtype=complex)
    m, n = a.shape
    lines = [MATRIX_MAGIC, f"{m} {n} complex"]
    for i in range(m):
        lines.append(" ".join(f"{a[i, j].real:.17g} {a[i, j].imag:.17g}"
                              for j in range(n)))
    return "\n".join(lines) + "\n"


def scalar_read_matrix_text(text):
    """Reference: the matrix reader parsing one entry at a time, without the
    header and row checks."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    m, n = (int(tok) for tok in lines[1].split()[:2])
    out = np.zeros((m, n), dtype=complex)
    for i in range(m):
        toks = lines[2 + i].split()
        for j in range(n):
            out[i, j] = complex(float(toks[2 * j]), float(toks[2 * j + 1]))
    return out


ENTRIES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300])
           | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    """1x1 to 8x8, C-ordered, Fortran-ordered, a transposed view, or real."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    layout = draw(st.sampled_from(["C", "F", "transposed", "real"]))
    shape = (n, m) if layout == "transposed" else (m, n)
    re = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    if layout == "real":
        return re
    a = np.empty(shape, dtype=complex)
    a.real = re
    a.imag = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    return {"C": a, "F": np.asfortranarray(a), "transposed": a.T}[layout]


class TestMatrixFormat:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_matches_entrywise_reference(self, a):
        text = write_matrix_text(a)
        assert text == scalar_write_matrix_text(a)
        assert read_matrix_text(text).tobytes() == scalar_read_matrix_text(text).tobytes()

    def test_round_trip_lossless(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = read_matrix_text(write_matrix_text(a))
        assert np.array_equal(a, b)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            read_matrix_text("something else\n1 1 complex\n0 0\n")

    def test_wrong_row_count(self):
        text = write_matrix_text(np.eye(2))
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(ValueError):
            read_matrix_text(truncated)

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="row 0"):
            read_matrix_text("polarbounds-matrix 1\n1 2 complex\n0 0\n")

    @pytest.mark.parametrize("row", ["nan inf", "1e999 0", "0 -inf"])
    def test_rejects_non_finite(self, row):
        with pytest.raises(ValueError, match="row 1: non-finite value in"):
            read_matrix_text(f"polarbounds-matrix 1\n2 1 complex\n1 0\n{row}\n")

    @pytest.mark.parametrize("dims", ["0 3", "3 0", "-1 1"])
    def test_rejects_empty_dimensions(self, dims):
        with pytest.raises(ValueError, match="at least 1"):
            read_matrix_text(f"polarbounds-matrix 1\n{dims} complex\n")

    def test_bad_token_names_its_row(self):
        with pytest.raises(ValueError, match="row 1: could not convert string to float: '0x1'"):
            read_matrix_text("polarbounds-matrix 1\n2 1 complex\n1 0\n0x1 0\n")

    @pytest.mark.parametrize("text", ["polarbounds-matrix 1\n",
                                      "polarbounds-matrix 1\n1 1 real\n0 0\n",
                                      "polarbounds-matrix 1\n1 one complex\n0 0\n",
                                      "polarbounds-matrix 1\n1 1\n0 0\n"])
    def test_bad_header(self, text):
        with pytest.raises(ValueError, match="bad matrix header"):
            read_matrix_text(text)
