import numpy as np
import pytest

from polarbounds.extremal import make_witness
from polarbounds.montecarlo import (
    EnsembleConfig,
    SuiteReport,
    _Recorder,
    check_polar_pair,
    random_matrix_with_spectrum,
    run_trial,
    run_verification_suite,
)
from polarbounds.spectra import validate_spectrum_pair


class TestRandomMatrix:
    def test_scalar(self):
        a = random_matrix_with_spectrum([1], 1, 1, seed=4)
        assert abs(abs(a[0, 0]) - 1.0) < 1e-14

    def test_prescribed_spectrum(self):
        a = random_matrix_with_spectrum([3, 1], 2, 2, seed=11)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sv, [3, 1], rtol=1e-11)

    def test_rectangular(self):
        a = random_matrix_with_spectrum([5, 2, 1], 6, 4, seed=8)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sv[:3], [5, 2, 1], rtol=1e-11)
        assert np.all(sv[3:] < 1e-11)

    def test_seed_determinism(self):
        a = random_matrix_with_spectrum([2, 1], 3, 3, seed=42)
        b = random_matrix_with_spectrum([2, 1], 3, 3, seed=42)
        assert np.array_equal(a, b)

    def test_real_field(self):
        a = random_matrix_with_spectrum([1], 2, 2, seed=3, fld="real")
        assert np.isrealobj(a)

    def test_too_many_values(self):
        with pytest.raises(ValueError):
            random_matrix_with_spectrum([1, 1, 1], 2, 2, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(m=0, n=2, trials=1, seed=0)
        with pytest.raises(ValueError):
            EnsembleConfig(m=2, n=2, trials=1, seed=0, r=3)
        with pytest.raises(ValueError):
            EnsembleConfig(m=2, n=2, trials=1, seed=0, field="quaternion")
        with pytest.raises(ValueError):
            EnsembleConfig(m=2, n=2, trials=1, seed=0, slack_tol=-1e-9)

    def test_report_body_excludes_wall_time(self):
        rep = SuiteReport(trials=3)
        rep.wall_time = 1.23
        assert "wall_time" not in rep.body()


class TestTrials:
    def test_trial_determinism(self):
        cfg = EnsembleConfig(m=4, n=4, trials=1, seed=77)
        a = run_trial(cfg, 5)
        b = run_trial(cfg, 5)
        assert a.ratios == b.ratios
        assert a.violations == b.violations

    def test_trials_independent_of_order(self):
        cfg = EnsembleConfig(m=3, n=3, trials=1, seed=9)
        first = run_trial(cfg, 2).ratios
        run_trial(cfg, 0)
        again = run_trial(cfg, 2).ratios
        assert first == again

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_suite_no_violations(self, field):
        cfg = EnsembleConfig(m=5, n=4, trials=150, seed=20240817, field=field)
        rep = run_verification_suite(cfg)
        assert rep.violations == []
        assert rep.trials == 150
        # every bound was exercised and none exceeded
        for ineq, ratio in rep.max_ratio_to_bound.items():
            assert ratio <= 1.0 + 1e-9, ineq
        assert "q-upper" in rep.max_ratio_to_bound
        assert "kittaneh-normal-lower" in rep.max_ratio_to_bound

    def test_fixed_ranks(self):
        cfg = EnsembleConfig(m=4, n=4, trials=20, seed=5, r=2, s=3)
        rep = run_verification_suite(cfg)
        assert rep.violations == []


class TestWitnessReplay:
    def test_witnesses_saturate_their_bounds(self):
        # feeding an extremal witness through the checker drives the ratio
        # telemetry to (nearly) 1 without tripping a violation
        pair = validate_spectrum_pair([4, 2], [1.5, 1.0, 0.5])
        for bound_id in ("q-upper", "h-upper", "lee-upper"):
            w = make_witness(pair, bound_id)
            rec = _Recorder(trial=0, slack_tol=1e-9)
            check_polar_pair(rec, w.A, w.A_tilde, pair.r, pair.s)
            assert rec.violations == []
            assert rec.ratios[bound_id] > 1.0 - 1e-6, bound_id


def merged_trials_body(config, trials):
    """The report body assembled from `run_trial` one trial at a time."""
    ratios, violations = {}, []
    for t in range(trials):
        rec = run_trial(config, t)
        violations += [(v.trial, v.inequality, v.margin) for v in rec.violations]
        for ineq, ratio in rec.ratios.items():
            ratios[ineq] = max(ratios.get(ineq, ratio), ratio)
    return {"trials": trials, "max_ratio_to_bound": dict(sorted(ratios.items())),
            "violations": violations}


CHUNK_SHAPES = [(m, n, field, ranks) for m, n in ((7, 7), (5, 8), (8, 3))
                for field in ("complex", "real") for ranks in ("drawn", "fixed")]


class TestChunkedSuite:
    @pytest.mark.parametrize("m,n,field,ranks", CHUNK_SHAPES)
    def test_suite_equals_merged_trials(self, m, n, field, ranks):
        # trial counts below, at and above one chunk of 32, and past two
        fixed = {"r": 2, "s": min(m, n)} if ranks == "fixed" else {}
        for trials in (1, 31, 32, 33, 65):
            config = EnsembleConfig(m=m, n=n, trials=trials, seed=808, field=field,
                                    **fixed)
            assert run_verification_suite(config).body() == \
                merged_trials_body(config, trials), trials

    @pytest.mark.parametrize("m,n,trials", [(7, 7, 65), (5, 8, 32), (3, 3, 1)])
    def test_lapack_calls_per_chunk(self, monkeypatch, m, n, trials):
        calls = {"qr": 0, "svd": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run_verification_suite(EnsembleConfig(m=m, n=n, trials=trials, seed=3))
        chunks = -(-trials // 32)
        assert 0 < calls["qr"] <= 3 * chunks
        assert 0 < calls["svd"] <= 2 * chunks
