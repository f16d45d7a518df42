"""Golden SHA-256 digests of deterministic outputs.

Refactors of the linear algebra and of the coefficient kernels must leave
these bytes unchanged; a change that moves a digest on purpose records the
old and new values, and the largest move per report key, in CHANGES.md.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from polarbounds.bounds import kittaneh_lower_coeff, kittaneh_upper_coeff
from polarbounds.cli import main
from polarbounds.extremal import BOUND_IDS, make_witness
from polarbounds.fileio import SpectraRecord, format_spectra
from polarbounds.montecarlo import EnsembleConfig, run_verification_suite
from polarbounds.oracle import brute_force_kittaneh
from polarbounds.spectra import validate_spectrum_pair

from conftest import (WIDE_ORACLE_FAMILIES, WIDE_ORACLE_SIZES, WIDE_SIZES, eigenvalues,
                      seeded_eigen_pairs, wide_eigen_pairs)

CAMPAIGN_DIGESTS = {
    "complex": "bc00f8fe6dca10c530b60b429249c7d4075d292dfc351182c9f439c78f547a24",
    "real": "4e7ea08cab88ace0ed75ec3733e77610af2f733013a27d8f688fb29641f869aa",
}
# (m, n, field) -> digest at 100 trials: wide and tall shapes, whose left and
# right Ginibre draws differ in size
SHAPED_CAMPAIGN_DIGESTS = {
    (5, 8, "complex"): "ed510b790936938bd52025d39a8ac4651fd27f1ff6004ce687c730beee407387",
    (5, 8, "real"): "6e91a84ff81ae5a0afe04202a21c37613b1f9376295d0c3c8c20bac876a5b4f5",
    (8, 3, "complex"): "20c7f5c677b506c554bf0761260d1eb2495c0b12eb60c4231663b5e84daaf622",
    (8, 3, "real"): "face71f6a9230086343f93343c5e588bdc87ef116de7490b1592d3473448ed1c",
}
WITNESS_DIGEST = "d9cf01f28c3462dc005823def38a0f1a0a1ac239bc60275c0691b8b549fe2506"
BOUNDS_DIGEST = "cbeef945e436317e619ca88048020e7b9846a08c9082fce6b79fb406a09e3691"
KITTANEH_DIGEST = "a48132ceb9291621cab9119e785d604bbc2c9f7e09a242c3af1780e61b13f465"
BRUTE_KITTANEH_DIGEST = "898e4c76b1fe08427027793c1256a7490af0fb309d1ec3baa161c2152886dfe4"
WIDE_KITTANEH_DIGEST = "c7a850da9cc1b742c270799cfa3511b10bfa89ab99b70fdb5dd91f5105add9f1"
WIDE_BRUTE_KITTANEH_DIGEST = "58ef57119d369d3a0f026f14bcb4b716e044b03cf21875a731144a35f07ddd60"


def campaign_digest(field: str, m: int = 7, n: int = 7, trials: int = 300) -> str:
    """Criterion-4 configuration at 300 trials, or another shape and length."""
    config = EnsembleConfig(m=m, n=n, trials=trials, seed=20240824, field=field)
    body = run_verification_suite(config).body()
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def witness_digest() -> str:
    """Matrix bytes of the six witnesses on the first 20 criterion-3 pairs."""
    h = hashlib.sha256()
    rng = np.random.default_rng(202)
    for trial in range(20):
        if trial % 2 == 0:
            r = int(rng.integers(1, 4))
            s = int(rng.integers(r + 1, 6))
        else:
            r = s = int(rng.integers(1, 4))
        sig = np.sort(rng.uniform(4, 9, r))[::-1]
        sigt = np.sort(rng.uniform(0.5, 2, s))[::-1]
        pair = validate_spectrum_pair(sig, sigt)
        for bound_id in BOUND_IDS:
            w = make_witness(pair, bound_id)
            h.update(w.A.tobytes())
            h.update(w.A_tilde.tobytes())
    return h.hexdigest()


def bounds_digest(tmp_path, capsys) -> str:
    """Structured `polarbounds bounds` report on 60 seeded records, with
    identical spectra and tied eigenvalues among them, sizes up to (4, 4)."""
    rng = np.random.default_rng(404)
    records = []
    for i in range(60):
        sig = np.sort(np.exp(rng.uniform(-3, 3, int(rng.integers(1, 5)))))[::-1]
        sigt = sig if i % 5 == 0 else \
            np.sort(np.exp(rng.uniform(-3, 3, int(rng.integers(1, 5)))))[::-1]
        rec = SpectraRecord(id=f"r{i}", sigma=list(sig), sigma_tilde=list(sigt))
        if i % 2 == 0:
            kind = i % 3
            rec.eigen = eigenvalues(rng, int(rng.integers(1, 5)), kind)
            rec.eigen_hat = eigenvalues(rng, int(rng.integers(1, 5)), kind)
        records.append(rec)
    path = tmp_path / "golden.spectra"
    path.write_text(format_spectra(records))
    assert main(["bounds", str(path)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _arrangement_digest(lower, upper, pairs=None) -> str:
    h = hashlib.sha256()
    for eig in seeded_eigen_pairs() if pairs is None else pairs:
        for res in (lower(eig), upper(eig)):
            h.update(repr((res.coefficient, res.optimal_tuple, res.degenerate)).encode())
    return h.hexdigest()


def kittaneh_digest() -> str:
    """(coefficient, optimal_tuple, degenerate) of both arrangement bounds on
    the 45 eigen pairs."""
    return _arrangement_digest(kittaneh_lower_coeff,
                               lambda eig: kittaneh_upper_coeff(eig, n=eig.s))


def brute_kittaneh_digest() -> str:
    """The same triple from the oracle's brute-force search, both modes."""
    return _arrangement_digest(lambda eig: brute_force_kittaneh(eig, "lower"),
                               lambda eig: brute_force_kittaneh(eig, "upper", n=eig.s))


def wide_kittaneh_digest() -> str:
    """(coefficient, optimal_tuple, degenerate) of both arrangement bounds on
    the wide families, sizes up to (6, 6)."""
    return _arrangement_digest(kittaneh_lower_coeff,
                               lambda eig: kittaneh_upper_coeff(eig, n=eig.s),
                               wide_eigen_pairs(WIDE_SIZES))


def wide_brute_kittaneh_digest() -> str:
    """The same triple from the oracle on the wide families, sizes up to (7, 7)."""
    pairs = itertools.chain(wide_eigen_pairs(WIDE_SIZES),
                            wide_eigen_pairs(WIDE_ORACLE_SIZES, WIDE_ORACLE_FAMILIES))
    return _arrangement_digest(lambda eig: brute_force_kittaneh(eig, "lower"),
                               lambda eig: brute_force_kittaneh(eig, "upper", n=eig.s),
                               pairs)


@pytest.mark.parametrize("field", sorted(CAMPAIGN_DIGESTS))
def test_campaign_body_digest(field):
    assert campaign_digest(field) == CAMPAIGN_DIGESTS[field]


@pytest.mark.parametrize("m, n, field", sorted(SHAPED_CAMPAIGN_DIGESTS))
def test_shaped_campaign_body_digest(m, n, field):
    assert campaign_digest(field, m, n, trials=100) == SHAPED_CAMPAIGN_DIGESTS[m, n, field]


def test_witness_matrix_digest():
    assert witness_digest() == WITNESS_DIGEST


def test_bounds_report_digest(tmp_path, capsys):
    assert bounds_digest(tmp_path, capsys) == BOUNDS_DIGEST


def test_kittaneh_digest():
    assert kittaneh_digest() == KITTANEH_DIGEST


def test_brute_kittaneh_digest():
    assert brute_kittaneh_digest() == BRUTE_KITTANEH_DIGEST


def test_wide_kittaneh_digest():
    assert wide_kittaneh_digest() == WIDE_KITTANEH_DIGEST


def test_wide_brute_kittaneh_digest():
    assert wide_brute_kittaneh_digest() == WIDE_BRUTE_KITTANEH_DIGEST
