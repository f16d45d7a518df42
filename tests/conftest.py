import numpy as np
import pytest

from polarbounds.spectra import validate_eigen_pair, validate_spectrum_pair


def format_spectra(records) -> str:
    """Spectra records as the text `fileio.parse_spectra_text` reads, every
    value at 17 significant digits."""
    def number(z):
        return f"({z.real:.17g}{z.imag:+.17g}j)"

    lines = []
    for rec in records:
        lines.append(f"record {rec.id}")
        lines.append("sigma " + " ".join(f"{v:.17g}" for v in rec.sigma))
        lines.append("sigma_tilde " + " ".join(f"{v:.17g}" for v in rec.sigma_tilde))
        if rec.eigen is not None:
            lines.append("eigen " + " ".join(number(z) for z in rec.eigen))
            lines.append("eigen_hat " + " ".join(number(z) for z in rec.eigen_hat))
    return "\n".join(lines) + "\n"


def random_pair(rng, r_max=3, s_max=4, lo=0.1, hi=10.0, equal_ranks=None):
    """Random validated spectrum pair with r <= s."""
    r = int(rng.integers(1, r_max + 1))
    if equal_ranks is True:
        s = r
    elif equal_ranks is False:
        # caller must pass r_max < s_max
        s = int(rng.integers(r + 1, s_max + 1))
    else:
        s = int(rng.integers(r, s_max + 1))
    sig = np.sort(rng.uniform(lo, hi, size=r))[::-1]
    sigt = np.sort(rng.uniform(lo, hi, size=s))[::-1]
    return validate_spectrum_pair(sig, sigt)


def eigenvalues(rng, size, kind):
    """Generic complex values, or real and quarter-turn values with ties."""
    if kind == 0:
        z = rng.uniform(0.2, 3, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    elif kind == 1:
        z = rng.choice([-2.0, -1.0, 1.0, 2.0], size)
    else:
        z = rng.choice([1.0, 2.0], size) * 1j ** rng.integers(0, 4, size)
    return [complex(v) for v in z]


def seeded_eigen_pairs():
    """45 seeded eigen pairs, sizes up to (5, 6), ties among them."""
    rng = np.random.default_rng(606)
    for i in range(45):
        s = int(rng.integers(1, 7))
        r = int(rng.integers(max(1, s - 2), min(s, 5) + 1))
        kind = i % 3
        yield validate_eigen_pair(eigenvalues(rng, r, kind), eigenvalues(rng, s, kind))


WIDE_FAMILIES = ("tied-real", "unit", "identical", "generic-1e100", "generic-1e-100",
                 "generic-1e150", "generic-1e-150")
# both searches; (1, 1) identical and the tiny scales give all-0/0 pairs
WIDE_SIZES = ((1, 1), (1, 3), (2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (4, 6), (5, 5),
              (5, 6), (6, 6))
# the oracle alone, past the closed forms' enumeration cap, on the families
# whose ratio intervals close (at the other scales every injection is
# evaluated one by one, as at every size)
WIDE_ORACLE_SIZES = ((6, 7), (7, 7))
WIDE_ORACLE_FAMILIES = ("tied-real", "unit", "identical", "generic-1e100")


def _wide_eigen_pair(rng, family, r, s):
    """One seeded eigen pair of a family that stresses ties, 0/0 pairings or
    the ends of the double range."""
    if family == "tied-real":
        values = lambda size: [complex(v) for v in rng.choice([-2.0, -1.0, 1.0, 2.0], size)]
        return validate_eigen_pair(values(r), values(s))
    if family == "unit":
        values = lambda size: [1j ** int(e) for e in rng.integers(0, 4, size)]
        return validate_eigen_pair(values(r), values(s))
    if family == "identical":
        # lam_hat holds lam, so each pairing that matches lam onto its own
        # values with nothing left over (r == s) is 0/0
        lam = [1j ** int(e) * float(m) for e, m in
               zip(rng.integers(0, 4, r), rng.integers(1, 3, r))]
        lam_hat = lam + eigenvalues(rng, s - r, 1)
        return validate_eigen_pair(lam, [lam_hat[i] for i in rng.permutation(s)])
    scale = float(family.removeprefix("generic-"))
    return validate_eigen_pair([z * scale for z in eigenvalues(rng, r, 0)],
                               [z * scale for z in eigenvalues(rng, s, 0)])


def wide_eigen_pairs(sizes, families=WIDE_FAMILIES):
    """Two pairs of each wide family at each size, seeded per size."""
    for r, s in sizes:
        rng = np.random.default_rng(100 * r + s)
        for family in families:
            for _ in range(2):
                yield _wide_eigen_pair(rng, family, r, s)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_results.append((name, report.outcome, report.duration))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome, duration in _acceptance_results:
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"[acceptance] {name}: {verdict} ({duration:.2f}s)")
