"""The table of sharp constants in `bounds`, and the three independent
checks each constant should have: a brute-force oracle that agrees with its
closed form, an equality witness, and a key in the falsification campaign.

NOT_YET names, per check, the constants that do not have it yet. The test
fails when NOT_YET is wrong in either direction, so it can only shrink.
"""

import numpy as np

from polarbounds import bounds, extremal, oracle
from polarbounds.montecarlo import EnsembleConfig, run_verification_suite
from polarbounds.spectra import BoundResult, validate_eigen_pair

from conftest import random_pair

NOT_YET = {
    "oracle": {"h-upper", "h-lower", "lee-upper", "lee-lower", "amgm", "cauchy-schwarz"},
    "witness": {"amgm", "cauchy-schwarz", "kittaneh-lower", "kittaneh-upper"},
    "campaign": set(),
}

# theorem id -> the square of the constant, found by brute force
ORACLES = {
    "q-upper": lambda pair: oracle.brute_force_f_extrema(pair)[0].value,
    "q-lower": lambda pair: oracle.brute_force_f_extrema(pair)[1].value,
    "kittaneh-lower": lambda eig: oracle.brute_force_kittaneh(eig, "lower").coefficient ** 2,
    "kittaneh-upper": lambda eig: oracle.brute_force_kittaneh(
        eig, "upper", n=eig.s).coefficient ** 2,
}

# the campaign's normal-matrix channel names the two Kittaneh constants
CAMPAIGN_KEYS = {"kittaneh-lower": "kittaneh-normal-lower",
                 "kittaneh-upper": "kittaneh-normal-upper"}


def _closed_form(theorem_id, arg) -> BoundResult:
    fn = bounds.closed_form(theorem_id)
    result = fn(arg, n=arg.s) if theorem_id == "kittaneh-upper" else fn(arg)
    return result[0] if isinstance(result, tuple) else result


def _inputs(rng, spectrum: bool):
    """Four spectrum pairs, or four eigen pairs up to (3, 3)."""
    if spectrum:
        return [random_pair(rng) for _ in range(4)]
    out = []
    for _ in range(4):
        r, s = sorted(int(v) for v in rng.integers(1, 4, 2))
        z = rng.uniform(0.2, 3, r + s) * np.exp(2j * np.pi * rng.uniform(size=r + s))
        out.append(validate_eigen_pair(z[:r], z[r:]))
    return out


def test_every_constant_has_three_checks_or_is_listed():
    ids = [theorem_id for theorem_id, _ in bounds.CONSTANTS]
    assert len(set(ids)) == len(ids) == 10
    assert all(set(listed) <= set(ids) for listed in NOT_YET.values())
    config = EnsembleConfig(m=4, n=4, trials=16, seed=1)
    campaign_keys = run_verification_suite(config).body()["max_ratio_to_bound"]
    spectrum_ids = {theorem_id for theorem_id, _ in bounds.SPECTRUM_CONSTANTS}
    rng = np.random.default_rng(909)
    wrong = []
    for theorem_id in ids:
        for arg in _inputs(rng, theorem_id in spectrum_ids):
            result = _closed_form(theorem_id, arg)
            assert isinstance(result, BoundResult) and result.theorem_id == theorem_id
            if theorem_id in ORACLES:
                want, got = result.coefficient ** 2, ORACLES[theorem_id](arg)
                assert abs(got - want) <= 1e-10 * max(1.0, want), (theorem_id, arg)
        found = {"oracle": theorem_id in ORACLES,
                 "witness": theorem_id in extremal.BOUND_IDS,
                 "campaign": CAMPAIGN_KEYS.get(theorem_id, theorem_id) in campaign_keys}
        wrong += [(theorem_id, check) for check, has in found.items()
                  if has == (theorem_id in NOT_YET[check])]
    assert wrong == []
