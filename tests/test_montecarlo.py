import dataclasses

import numpy as np
import pytest

from polarbounds import bounds
from polarbounds.extremal import make_witness
from polarbounds.linalg import ginibre_normals
from polarbounds.montecarlo import (
    _CHUNK,
    NORMAL_DIM,
    SPECTRUM_RANGE,
    EnsembleConfig,
    SuiteReport,
    _check_polar_pairs,
    _chunk_draws,
    _draw,
    _Recorder,
    _trial_rng,
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

    def test_fixed_r_above_the_cap_of_a_drawn_s(self):
        # s would be drawn from [5, 3]: numpy's bare "low >= high" at run time
        with pytest.raises(ValueError, match="max_rank=3"):
            EnsembleConfig(m=7, n=7, trials=3, seed=0, r=5, max_rank=3)
        config = EnsembleConfig(m=7, n=7, trials=3, seed=0, r=3, max_rank=3)
        assert [_draw(config, t)[0] for t in range(3)] == [(3, 3)] * 3
        # with s fixed too, the cap bounds nothing
        EnsembleConfig(m=7, n=7, trials=3, seed=0, r=5, s=6, max_rank=3)

    @pytest.mark.parametrize("s,max_rank,drawn", [(2, None, {1, 2}), (5, 3, {1, 2, 3})])
    def test_fixed_s_bounds_the_drawn_r(self, s, max_rank, drawn):
        # r once came from [1, min(m, n)], and a pair with r > s was swapped
        config = EnsembleConfig(m=7, n=7, trials=50, seed=0, s=s, max_rank=max_rank)
        ranks = [_draw(config, t)[0] for t in range(50)]
        assert {r for r, _ in ranks} == drawn
        assert {s_ for _, s_ in ranks} == {s}
        assert run_verification_suite(config).violations == []

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

    def test_q_upper_fault_of_1e_4_found_on_its_witness(self, monkeypatch):
        # the witness attains q-upper, so a constant 1e-4 too small is
        # exceeded by 1e-4 relative, ten times below a 1e-3 blind spot
        pair = validate_spectrum_pair([8, 6, 5], [1.9, 1.5, 1, 0.7])
        w = make_witness(pair, "q-upper")
        q_upper = bounds.q_upper_coeff

        def low(p):
            result, table = q_upper(p)
            return dataclasses.replace(result, coefficient=result.coefficient * (1 - 1e-4)), table

        monkeypatch.setattr(bounds, "q_upper_coeff", low)
        rec = _Recorder(trial=0, slack_tol=1e-9)
        _check_polar_pairs([rec], np.stack([w.A, w.A_tilde]), [pair.r, pair.s])
        assert [v.inequality for v in rec.violations] == ["q-upper"]


class TestRecorder:
    def test_excess_past_the_slack_recorded(self):
        # 1e-6 relative is 1e3 times the slack, at unit scale and at 1e-20,
        # where an absolute slack floor would hide it
        rec = _Recorder(0, 1e-9)
        rec.upper("x", 1 + 1e-6, 1, 1)
        rec.lower("y", 1 - 1e-6, 1, 1)
        rec.upper("z", 1e-20 * (1 + 1e-6), 1e-20, 1e-20)
        rec.lower("w", 1e-20 * (1 - 1e-6), 1e-20, 1e-20)
        assert [v.inequality for v in rec.violations] == ["x", "y", "z", "w"]


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


def reference_log_uniform(rng, size):
    lo, hi = SPECTRUM_RANGE
    vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))
    return np.sort(vals)[::-1]


def reference_draw(config, trial):
    """The per-trial draws of earlier releases, nine distribution calls with
    their transforms, kept as a reference for configs that fix both ranks or
    neither: the spectra of A and A~, the Ginibre normals of the singular
    vectors of each, the normal pair's eigenvalues and its basis normals."""
    rng = _trial_rng(config.seed, trial)
    fld = config.field
    cap = config.max_rank or min(config.m, config.n)
    r = config.r if config.r is not None else int(rng.integers(1, cap + 1))
    s = config.s if config.s is not None else int(rng.integers(r, cap + 1))
    spectra = (reference_log_uniform(rng, r), reference_log_uniform(rng, s))
    vectors = tuple(ginibre_normals(np.random.default_rng(int(seed)), (config.m, config.n),
                                    fld) for seed in rng.integers(0, 2 ** 63 - 1, size=2))
    nn = NORMAL_DIM
    rn = int(rng.integers(1, nn + 1))
    sn = int(rng.integers(rn, nn + 1))
    moduli_a = rng.uniform(0.5, 2.0, size=rn)
    moduli_b = rng.uniform(0.5, 2.0, size=sn)
    if fld == "complex":
        lam = moduli_a * np.exp(2j * np.pi * rng.uniform(size=rn))
        lam_hat = moduli_b * np.exp(2j * np.pi * rng.uniform(size=sn))
    else:
        lam = moduli_a * rng.choice([-1.0, 1.0], size=rn)
        lam_hat = moduli_b * rng.choice([-1.0, 1.0], size=sn)
    return spectra, vectors, (lam, lam_hat), ginibre_normals(rng, (nn, nn), fld)


def assert_same_bytes(got, want):
    got = np.asarray(got)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestDrawsMatchReference:
    @pytest.mark.parametrize("m,n,field,ranks", CHUNK_SHAPES)
    def test_chunk_draws_equal_per_trial_reference(self, m, n, field, ranks):
        # merged draws, and transforms run once per chunk, give every
        # trial's bytes of the nine-call draws transformed per trial
        fixed = {"r": 2, "s": min(m, n)} if ranks == "fixed" else {}
        config = EnsembleConfig(m=m, n=n, trials=200, seed=808, field=field, **fixed)
        for first in range(0, config.trials, _CHUNK):
            trials = range(first, min(first + _CHUNK, config.trials))
            ranks_, spectra, vectors, eigs, padded, bases = _chunk_draws(config, trials)
            sigma = {i: row for idx, stack in spectra.values() for i, row in zip(idx, stack)}
            assert sorted(sigma) == list(range(len(ranks_)))
            for i, trial in enumerate(trials):
                want = reference_draw(config, trial)
                for k, (spectrum, normals, lam) in zip((2 * i, 2 * i + 1), zip(*want[:3])):
                    assert ranks_[k] == len(spectrum)
                    assert_same_bytes(sigma[k], spectrum)
                    assert_same_bytes(vectors[k], normals)
                    assert_same_bytes(eigs[k], lam)
                    assert_same_bytes(padded[k, :len(lam)], lam)
                    assert not padded[k, len(lam):].any()
                assert_same_bytes(bases[2 * i:2 * i + 2].ravel(), want[3])
