"""Golden SHA-256 digests of deterministic outputs.

Refactors of the linear algebra and of the coefficient kernels must leave
these bytes unchanged; a change that moves a digest on purpose records the
old and new values, and the largest move per report key, in CHANGES.md.
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from polarbounds.bounds import kittaneh_lower_coeff, kittaneh_upper_coeff
from polarbounds.cli import main
from polarbounds.extremal import BOUND_IDS, ExtremalWitness, make_witness, verify_witness
from polarbounds.fileio import SpectraRecord, format_spectra, read_matrix_text, write_matrix_text
from polarbounds.linalg import haar_random_unitary
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
# rank rule -> EnsembleConfig fields, and (rule, field) -> digest at m = n = 7
# and 100 trials: both ranks fixed, and both drawn under a cap below min(m, n)
RANK_RULES = {"fixed": {"r": 2, "s": 5}, "capped": {"max_rank": 3}}
RANKED_CAMPAIGN_DIGESTS = {
    ("capped", "complex"): "50e1af2f2102f07bdad0d66c91b83f9eabb55c591a97548079aab1862f81a793",
    ("capped", "real"): "25949e8c3ff1b0255c8bd388f4b7dadd9d8e7759616264dd8e7018322765a9f6",
    ("fixed", "complex"): "d49a2ea2da42a35c24db354a753200605788a1fef49bb15858fdbdaff34ff248",
    ("fixed", "real"): "d5ecc6b0cbf9f856e7731e83a73f64ef699cc92b16f749efb842748b80a7ebe0",
}
WITNESS_DIGEST = "d9cf01f28c3462dc005823def38a0f1a0a1ac239bc60275c0691b8b549fe2506"
WITNESS_DIAGNOSTICS_DIGEST = "7b76ae579b705d60a506aa434cb2c5d7bb4064110505dd29d8b98ebc16d12e57"
GENERIC_DIAGNOSTICS_DIGEST = "4af77699f7022aef65450c7f39a8b7eb0d9af689f46b8c1243885352014d2abe"
BOUNDS_DIGEST = "cbeef945e436317e619ca88048020e7b9846a08c9082fce6b79fb406a09e3691"
KITTANEH_DIGEST = "a48132ceb9291621cab9119e785d604bbc2c9f7e09a242c3af1780e61b13f465"
BRUTE_KITTANEH_DIGEST = "898e4c76b1fe08427027793c1256a7490af0fb309d1ec3baa161c2152886dfe4"
WIDE_KITTANEH_DIGEST = "c7a850da9cc1b742c270799cfa3511b10bfa89ab99b70fdb5dd91f5105add9f1"
WIDE_BRUTE_KITTANEH_DIGEST = "58ef57119d369d3a0f026f14bcb4b716e044b03cf21875a731144a35f07ddd60"


def campaign_digest(field: str, m: int = 7, n: int = 7, trials: int = 300, **ranks) -> str:
    """Criterion-4 configuration at 300 trials, or another shape, length and
    rank rule."""
    config = EnsembleConfig(m=m, n=n, trials=trials, seed=20240824, field=field, **ranks)
    body = run_verification_suite(config).body()
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def witnesses():
    """The six witnesses on each of the first 20 criterion-3 pairs."""
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
            yield make_witness(pair, bound_id)


def witness_digest() -> str:
    """Matrix bytes of the six witnesses on the first 20 criterion-3 pairs."""
    h = hashlib.sha256()
    for w in witnesses():
        h.update(w.A.tobytes())
        h.update(w.A_tilde.tobytes())
    return h.hexdigest()


def witness_diagnostics_digest() -> str:
    """repr of every diagnostics field of the same witnesses, as built and
    as verified again after a matrix text round trip."""
    h = hashlib.sha256()
    for w in witnesses():
        read = {name: read_matrix_text(write_matrix_text(getattr(w, name)))
                for name in ("A", "A_tilde")}
        for diag in (w.diagnostics, verify_witness(dataclasses.replace(w, **read))):
            h.update(repr(dataclasses.astuple(diag)).encode())
    return h.hexdigest()


def generic_couples():
    """20 seeded pairs, each with a generic isometry couple: S and T are the
    first r columns of two seeded Haar unitaries of size s + r, A = S
    diag(sigma) T* and A~ = diag(sigma~) padded with zeros. The identities
    verify_witness checks hold for any isometries, so every check passes,
    and the factors' last bits depend on how the check rounds them."""
    rng = np.random.default_rng(303)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        s = int(rng.integers(r, 6))
        pair = validate_spectrum_pair(np.sort(rng.uniform(0.5, 9, r))[::-1],
                                      np.sort(rng.uniform(0.5, 9, s))[::-1])
        m = r + s
        S = haar_random_unitary(m, rng)[:, :r]
        T = haar_random_unitary(m, rng)[:, :r]
        A = (S * np.array(pair.sigma)) @ T.conj().T
        A_tilde = np.diag(np.concatenate([pair.sigma_tilde, np.zeros(r)])).astype(complex)
        yield pair, A, A_tilde, S, T


def generic_diagnostics_digest() -> str:
    """repr of every diagnostics field of verify_witness on the generic
    couples, under each of the six ids."""
    h = hashlib.sha256()
    for pair, A, A_tilde, S, T in generic_couples():
        for bound_id in BOUND_IDS:
            # verify_witness reads neither the target nor the diagnostics
            w = ExtremalWitness(bound_id=bound_id, A=A, A_tilde=A_tilde, S=S, T=T,
                                target_coefficient=float("nan"), diagnostics=None,
                                pair=pair)
            h.update(repr(dataclasses.astuple(verify_witness(w))).encode())
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


@pytest.mark.parametrize("rule, field", sorted(RANKED_CAMPAIGN_DIGESTS))
def test_ranked_campaign_body_digest(rule, field):
    assert campaign_digest(field, trials=100, **RANK_RULES[rule]) == \
        RANKED_CAMPAIGN_DIGESTS[rule, field]


def test_witness_matrix_digest():
    assert witness_digest() == WITNESS_DIGEST


def test_witness_diagnostics_digest():
    assert witness_diagnostics_digest() == WITNESS_DIAGNOSTICS_DIGEST


def test_generic_couple_diagnostics_digest():
    assert generic_diagnostics_digest() == GENERIC_DIAGNOSTICS_DIGEST


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
