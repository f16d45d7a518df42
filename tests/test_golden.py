"""Golden SHA-256 digests of deterministic outputs.

Refactors of the linear algebra must leave these bytes unchanged; a change
that moves a digest on purpose records the old and new values, and the
largest move per report key, in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from polarbounds.extremal import BOUND_IDS, make_witness
from polarbounds.montecarlo import EnsembleConfig, run_verification_suite
from polarbounds.spectra import validate_spectrum_pair

CAMPAIGN_DIGESTS = {
    "complex": "e52616f67e47d2175bfa590e2d5da784d8db9a6d3812b2e440e6d3cf3c170238",
    "real": "6bd578a2a89075792c85c8eb26313f4d542b9061c85c8b0e562f61ca9dbe485f",
}
WITNESS_DIGEST = "2b70dfee3e462c3af56cbd3a87abef58b0191405c0854d1f341b3a0d2010a0c8"


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


@pytest.mark.parametrize("field", sorted(CAMPAIGN_DIGESTS))
def test_campaign_body_digest(field):
    assert campaign_digest(field) == CAMPAIGN_DIGESTS[field]


def test_witness_matrix_digest():
    assert witness_digest() == WITNESS_DIGEST
