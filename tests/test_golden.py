"""Golden SHA-256 digests of deterministic outputs.

Refactors of the linear algebra and of the coefficient kernels must leave
these bytes unchanged; a change that moves a digest on purpose records the
old and new values, and the largest move per report key, in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from polarbounds.bounds import kittaneh_lower_coeff, kittaneh_upper_coeff
from polarbounds.cli import main
from polarbounds.extremal import BOUND_IDS, make_witness
from polarbounds.fileio import SpectraRecord, format_spectra
from polarbounds.montecarlo import EnsembleConfig, run_verification_suite
from polarbounds.oracle import brute_force_kittaneh
from polarbounds.spectra import validate_eigen_pair, validate_spectrum_pair

CAMPAIGN_DIGESTS = {
    "complex": "bc00f8fe6dca10c530b60b429249c7d4075d292dfc351182c9f439c78f547a24",
    "real": "4e7ea08cab88ace0ed75ec3733e77610af2f733013a27d8f688fb29641f869aa",
}
WITNESS_DIGEST = "d9cf01f28c3462dc005823def38a0f1a0a1ac239bc60275c0691b8b549fe2506"
BOUNDS_DIGEST = "cbeef945e436317e619ca88048020e7b9846a08c9082fce6b79fb406a09e3691"
KITTANEH_DIGEST = "a48132ceb9291621cab9119e785d604bbc2c9f7e09a242c3af1780e61b13f465"
BRUTE_KITTANEH_DIGEST = "898e4c76b1fe08427027793c1256a7490af0fb309d1ec3baa161c2152886dfe4"


def campaign_digest(field: str) -> str:
    """Criterion-4 configuration at 300 trials."""
    config = EnsembleConfig(m=7, n=7, trials=300, seed=20240824, field=field,
                            max_rank=7)
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


def _eigenvalues(rng, size, kind):
    """Generic complex values, or real and quarter-turn values with ties."""
    if kind == 0:
        z = rng.uniform(0.2, 3, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    elif kind == 1:
        z = rng.choice([-2.0, -1.0, 1.0, 2.0], size)
    else:
        z = rng.choice([1.0, 2.0], size) * 1j ** rng.integers(0, 4, size)
    return [complex(v) for v in z]


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
            rec.eigen = _eigenvalues(rng, int(rng.integers(1, 5)), kind)
            rec.eigen_hat = _eigenvalues(rng, int(rng.integers(1, 5)), kind)
        records.append(rec)
    path = tmp_path / "golden.spectra"
    path.write_text(format_spectra(records))
    assert main(["bounds", str(path)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _kittaneh_eigen_pairs():
    """45 seeded eigen pairs, sizes up to (5, 6), ties among them."""
    rng = np.random.default_rng(606)
    for i in range(45):
        s = int(rng.integers(1, 7))
        r = int(rng.integers(max(1, s - 2), min(s, 5) + 1))
        kind = i % 3
        yield validate_eigen_pair(_eigenvalues(rng, r, kind), _eigenvalues(rng, s, kind))


def _arrangement_digest(lower, upper) -> str:
    h = hashlib.sha256()
    for eig in _kittaneh_eigen_pairs():
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


@pytest.mark.parametrize("field", sorted(CAMPAIGN_DIGESTS))
def test_campaign_body_digest(field):
    assert campaign_digest(field) == CAMPAIGN_DIGESTS[field]


def test_witness_matrix_digest():
    assert witness_digest() == WITNESS_DIGEST


def test_bounds_report_digest(tmp_path, capsys):
    assert bounds_digest(tmp_path, capsys) == BOUNDS_DIGEST


def test_kittaneh_digest():
    assert kittaneh_digest() == KITTANEH_DIGEST


def test_brute_kittaneh_digest():
    assert brute_kittaneh_digest() == BRUTE_KITTANEH_DIGEST
