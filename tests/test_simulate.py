import dataclasses
import json

import numpy as np
import pytest

from funcperm import simulate
from funcperm import (
    CORR_SHIFT,
    MEAN_SHIFT,
    SD_SHIFT,
    GroupParams,
    StudyConfig,
    apply_design,
    design_paths,
    run_power_study,
    simulate_paths,
    synthetic_baseline,
)
from funcperm.rng import substream


def constant_params(horizon, mu=0.0, sigma=1.0, rho=0.0) -> GroupParams:
    return GroupParams(
        np.full(horizon, mu), np.full(horizon, sigma), np.full(horizon, rho)
    )


def test_group_params_validation():
    with pytest.raises(ValueError, match="sigma"):
        constant_params(4, sigma=0.0)
    with pytest.raises(ValueError, match="correlations"):
        constant_params(4, rho=1.0)
    with pytest.raises(ValueError, match="equal-length"):
        GroupParams(np.zeros(3), np.ones(3), np.zeros(4))


def test_shifted_rejects_correlation_overflow():
    params = constant_params(4, rho=0.85)
    with pytest.raises(ValueError, match="correlations"):
        params.shifted(d_rho=CORR_SHIFT)


def test_iid_columns_when_uncorrelated():
    horizon = 6
    params = GroupParams(
        np.linspace(-1.0, 2.0, horizon), np.linspace(0.5, 2.0, horizon), np.zeros(horizon)
    )
    x = simulate_paths(params, 10_000, substream(1))
    se_mean = params.sigma / np.sqrt(10_000)
    assert np.all(np.abs(x.mean(axis=0) - params.mu) <= 4 * se_mean)
    se_sd = params.sigma * np.sqrt(0.5 / 10_000)
    assert np.all(np.abs(x.std(axis=0, ddof=1) - params.sigma) <= 4 * se_sd)


def test_lag_one_correlation_matches_parameter():
    horizon = 40
    rho = 0.6
    x = simulate_paths(constant_params(horizon, rho=rho), 10_000, substream(2))
    lag = np.mean(x[:, 1:] * x[:, :-1], axis=0)  # mu=0, sigma=1
    se = 4.0 / np.sqrt(10_000)
    assert np.all(np.abs(lag - rho) <= se + 0.02)


def test_unit_latent_variance_even_with_high_correlation():
    # the recursion keeps the latent variance at one for every t, so the
    # observed per-column variance is sigma^2 regardless of rho
    horizon = 30
    sigma = 1.7
    params = constant_params(horizon, sigma=sigma, rho=0.995)
    x = simulate_paths(params, 10_000, substream(3))
    se = sigma * np.sqrt(0.5 / 10_000)
    assert np.all(np.abs(x.std(axis=0, ddof=1) - sigma) <= 5 * se)


def test_units_are_independent():
    x = simulate_paths(constant_params(50, rho=0.5), 400, substream(4))
    corr = np.corrcoef(x)
    off = corr[np.triu_indices(400, k=1)]
    assert abs(off.mean()) < 0.01


def test_simulation_deterministic():
    params = constant_params(8, rho=0.3)
    a = simulate_paths(params, 5, substream(7))
    b = simulate_paths(params, 5, substream(7))
    assert np.array_equal(a, b)


def reference_paths(params: GroupParams, n_paths: int, rng) -> np.ndarray:
    """One group's paths, one slot at a time, in the plainest form."""
    noise = rng.standard_normal((n_paths, params.horizon))
    latent = np.empty((n_paths, params.horizon))
    latent[:, 0] = noise[:, 0]
    innovation_scale = np.sqrt(1.0 - params.rho**2)
    for t in range(1, params.horizon):
        latent[:, t] = params.rho[t] * latent[:, t - 1] + noise[:, t] * innovation_scale[t]
    return params.mu + params.sigma * latent


@pytest.mark.parametrize("sizes", [(20, 20, 20), (3, 7, 1), (50, 50, 50)])
@pytest.mark.parametrize("shift_scale", [1.0, 2.0])
def test_design_paths_equal_per_group_draws(sizes, shift_scale):
    # one pooled draw and recursion must reproduce the per-group draws on
    # the same stream, bit for bit
    base = synthetic_baseline(96)
    for design_id in range(1, 11):
        design = apply_design(design_id, base, sizes, shift_scale)
        key = (7, design_id, 3, 0)
        pooled = design_paths(design, substream(key))
        rng, reference_rng = substream(key), substream(key)
        per_group = np.vstack([simulate_paths(p, n, rng) for p, n in zip(design.groups, sizes)])
        reference = np.vstack(
            [reference_paths(p, n, reference_rng) for p, n in zip(design.groups, sizes)]
        )
        assert pooled.shape == reference.shape
        assert pooled.tobytes() == per_group.tobytes() == reference.tobytes()


def test_design_1_has_no_effect():
    base = synthetic_baseline(48)
    spec = apply_design(1, base)
    for group in spec.groups:
        assert np.array_equal(group.mu, base.mu)
        assert np.array_equal(group.sigma, base.sigma)
        assert np.array_equal(group.rho, base.rho)


def test_design_3_shifts_both_means():
    base = synthetic_baseline(48)
    spec = apply_design(3, base)
    for group in spec.groups[1:]:
        assert np.allclose(group.mu, base.mu + MEAN_SHIFT)
        assert np.array_equal(group.sigma, base.sigma)


def test_design_8_shifts_first_correlation_only():
    base = synthetic_baseline(48)
    spec = apply_design(8, base)
    assert np.allclose(spec.groups[1].rho, base.rho + CORR_SHIFT)
    assert np.array_equal(spec.groups[2].rho, base.rho)


def test_design_9_mixed_shifts():
    base = synthetic_baseline(48)
    spec = apply_design(9, base)
    assert np.allclose(spec.groups[1].rho, base.rho + CORR_SHIFT)
    assert np.array_equal(spec.groups[1].sigma, base.sigma)
    assert np.allclose(spec.groups[2].sigma, base.sigma + SD_SHIFT)
    assert np.array_equal(spec.groups[2].rho, base.rho)


def test_design_shift_scale_multiplies():
    base = synthetic_baseline(48)
    spec = apply_design(2, base, shift_scale=2.0)
    assert np.allclose(spec.groups[1].mu, base.mu + 2 * MEAN_SHIFT)


def test_unknown_design_rejected():
    with pytest.raises(ValueError, match="unknown design id"):
        apply_design(11, synthetic_baseline(48))


def test_correlation_shift_overflow_rejected_not_clamped():
    base = constant_params(12, rho=0.85)
    with pytest.raises(ValueError, match="correlations"):
        apply_design(8, base)


def test_synthetic_baseline_profile():
    base = synthetic_baseline(96)
    assert np.all(base.sigma > 0)
    assert np.all((base.rho >= 0.2) & (base.rho <= 0.7))
    # slot-wise daily periodicity
    assert np.array_equal(base.mu[:48], base.mu[48:])
    assert np.array_equal(base.sigma[:48], base.sigma[48:])
    assert np.array_equal(base.rho[:48], base.rho[48:])


def test_power_study_single_replication_is_indicator():
    table = run_power_study(
        designs=[1],
        tests=("cvm",),
        reps=1,
        n_perms=19,
        group_sizes=(4, 4, 4),
        horizon=12,
        n_terms=3,
        n_draws=16,
        seed=3,
    )
    assert table.rows[0].rate in (0.0, 1.0)
    assert table.config.reps == 1


def test_power_study_deterministic_given_seed():
    kwargs = dict(
        designs=[1, 8],
        tests=("cvm", "energy"),
        reps=4,
        n_perms=29,
        group_sizes=(5, 5, 5),
        horizon=24,
        n_terms=3,
        n_draws=32,
        seed=12,
    )
    a = run_power_study(**kwargs)
    b = run_power_study(**kwargs)
    assert a.to_csv_text() == b.to_csv_text()


def test_power_study_threads_do_not_change_results():
    kwargs = dict(
        designs=[1],
        tests=("cvm", "combined"),
        reps=6,
        n_perms=29,
        group_sizes=(5, 5, 5),
        horizon=24,
        n_terms=3,
        n_draws=32,
        seed=13,
    )
    serial = run_power_study(threads=1, **kwargs)
    parallel = run_power_study(threads=2, **kwargs)
    assert serial.to_csv_text() == parallel.to_csv_text()


def test_replication_makes_every_decision_in_fixed_order(monkeypatch):
    # every decision draws from one generator, so their order and number
    # fix every later randomized tie-break
    real_distributions, real_decide = simulate.permutation_distributions, simulate.decide
    names, calls = {}, []

    def recording_distributions(*args):
        dists = real_distributions(*args)
        names.update({id(dist): name for name, dist in dists.items()})
        return dists

    def rejecting_decide(observed, dist, alpha, mode, rng):
        calls.append((names[id(dist)], alpha))
        # a rejection must not skip the test's remaining decisions
        return dataclasses.replace(real_decide(observed, dist, alpha, mode, rng), rejected=True)

    monkeypatch.setattr(simulate, "permutation_distributions", recording_distributions)
    monkeypatch.setattr(simulate, "decide", rejecting_decide)
    config = StudyConfig(
        designs=(1,),
        tests=("energy", "combined", "cvm"),
        reps=1,
        n_perms=19,
        alpha_split=(0.03, 0.02),
        n_terms=3,
        n_draws=16,
        coeff_law="gaussian",
        mean_level="auto",
        group_sizes=(4, 4, 4),
        horizon=12,
        seed=5,
        shift_scale=1.0,
        mode="randomized",
    )
    design = apply_design(1, synthetic_baseline(12), (4, 4, 4))
    out = simulate.run_replication(config, design, 0)
    total = 0.03 + 0.02
    assert calls == [("cvm", total), ("cvm", 0.03), ("mean_path", 0.02), ("energy", total)]
    assert out == {"cvm": True, "combined": True, "energy": True}


def test_power_table_formats():
    table = run_power_study(
        designs=[1],
        tests=("cvm",),
        reps=2,
        n_perms=19,
        group_sizes=(3, 3, 3),
        horizon=12,
        n_terms=3,
        n_draws=8,
        seed=1,
    )
    text = table.to_csv_text()
    assert text.splitlines()[0] == "test,alpha_cvm,alpha_mean,design,rate,std_error,reps"
    assert "cvm" in table.format_table()
    assert table.config.designs == (1,)


def test_power_study_config_serializes_in_field_order():
    # power_config.json is this record as JSON; a tuple seed is a list there
    table = run_power_study(
        designs=[2],
        tests=("cvm",),
        reps=1,
        n_perms=19,
        group_sizes=(3, 3, 3),
        horizon=8,
        n_terms=3,
        n_draws=8,
        seed=(7, 3),
    )
    assert json.dumps(dataclasses.asdict(table.config)) == (
        '{"designs": [2], "tests": ["cvm"], "reps": 1, "n_perms": 19, '
        '"alpha_split": [0.025, 0.025], "n_terms": 3, "n_draws": 8, '
        '"coeff_law": "gaussian", "mean_level": "auto", "group_sizes": [3, 3, 3], '
        '"horizon": 8, "seed": [7, 3], "shift_scale": 1.0, "mode": "randomized"}'
    )


STUDY_KW = dict(
    designs=[1],
    tests=("cvm",),
    reps=1,
    n_perms=19,
    group_sizes=(3, 3, 3),
    horizon=8,
    n_terms=3,
    n_draws=8,
    seed=2,
)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"tests": ("cvm", "cvm")}, "test 'cvm' is listed more than once"),
        ({"tests": ()}, "at least one test"),
        ({"designs": []}, "at least one design id"),
        ({"mode": "bogus"}, "decision mode 'bogus'"),
        ({"coeff_law": "bogus"}, "coefficient law 'bogus'"),
        ({"threads": 0}, "threads must be at least 1, got 0"),
        ({"threads": 2, "mode": "bogus"}, "decision mode 'bogus'"),
        ({"n_terms": 4}, "odd positive integer, got 4"),
        ({"n_draws": 0}, "at least one measure draw, got 0"),
        ({"mean_level": "bogus"}, "'bogus'"),
        ({"mean_level": float("nan")}, "finite, got nan"),
        ({"seed": (3, -1)}, r"got \(3, -1\)"),
        ({"alpha_split": (0.01, 0.02, 0.03)}, "alpha_split needs two levels"),
        ({"alpha_split": (0.6, 0.6)}, "levels must sum to less than one"),
        ({"alpha_split": (0.0, 0.05)}, "levels must be positive"),
    ],
    ids=[
        "repeated-test", "no-tests", "no-designs", "mode", "coeff-law", "threads-0",
        "mode-threads-2", "even-n-terms", "no-draws", "mean-level-text", "mean-level-nan",
        "negative-seed", "alpha-split-three", "alpha-split-sum", "alpha-split-zero",
    ],
)
def test_bad_study_setting_rejected_before_any_replication(monkeypatch, setting, message):
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "run_replication", no_replication)
    with pytest.raises(ValueError, match=message):
        run_power_study(**{**STUDY_KW, **setting})


@pytest.mark.parametrize(
    "setting",
    [{"reps": 2.7}, {"reps": "3"}, {"designs": [1.5]}, {"n_perms": 19.0}, {"group_sizes": (3, 3, 3.5)},
     {"horizon": 8.0}, {"n_terms": 3.0}, {"n_draws": "8"}, {"seed": (2, 0.5)},
     {"designs": [True]}, {"reps": True}, {"group_sizes": (3, True, 3)}, {"seed": True}],
    ids=["reps-float", "reps-text", "design-float", "perms-float", "size-float", "horizon-float",
         "terms-float", "draws-text", "seed-float", "design-bool", "reps-bool", "size-bool", "seed-bool"],
)
def test_study_counts_must_be_integers(monkeypatch, setting):
    # a truncated count, or True read as 1, would run a different study
    # than the one asked for
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "run_replication", no_replication)
    with pytest.raises(TypeError):
        run_power_study(**{**STUDY_KW, **setting})


def test_study_config_defaults_echo():
    # the power_config.json of a study given only its designs
    config = StudyConfig(designs=(1,))
    assert json.dumps(dataclasses.asdict(config)) == (
        '{"designs": [1], "tests": ["cvm", "combined", "energy"], "reps": 300, "n_perms": 199, '
        '"alpha_split": [0.025, 0.025], "n_terms": 19, "n_draws": 512, '
        '"coeff_law": "gaussian", "mean_level": "auto", "group_sizes": [20, 20, 20], '
        '"horizon": 96, "seed": 0, "shift_scale": 1.0, "mode": "randomized"}'
    )
    # numpy and range inputs read the same in the echo
    same = StudyConfig(designs=range(1, 2), reps=np.int64(300), group_sizes=np.array([20, 20, 20]),
                       alpha_split=np.array([0.025, 0.025]), seed=np.int64(0), shift_scale=1)
    assert json.dumps(dataclasses.asdict(same)) == json.dumps(dataclasses.asdict(config))
    levels = [StudyConfig(designs=(1,), mean_level=level).mean_level for level in (2, np.float32(2.5))]
    assert levels == [2.0, 2.5] and all(type(level) is float for level in levels)


def test_power_study_pinned_at_benchmark_shapes():
    # written by the per-group simulation and plan-object code this path
    # replaced; any drift in a statistic's bits that flips a decision shows
    table = run_power_study(
        designs=range(1, 11),
        tests=("cvm", "combined", "energy"),
        reps=1,
        n_perms=199,
        group_sizes=(20, 20, 20),
        horizon=96,
        alpha_split=(0.025, 0.025),
        n_terms=19,
        n_draws=512,
        seed=11,
    )
    assert table.to_csv_text() == (
        "test,alpha_cvm,alpha_mean,design,rate,std_error,reps\n"
        "cvm,0.025,0.025,1,0,0,1\n"
        "combined,0.025,0.025,1,0,0,1\n"
        "energy,0.025,0.025,1,0,0,1\n"
        "cvm,0.025,0.025,2,0,0,1\n"
        "combined,0.025,0.025,2,0,0,1\n"
        "energy,0.025,0.025,2,0,0,1\n"
        "cvm,0.025,0.025,3,1,0,1\n"
        "combined,0.025,0.025,3,1,0,1\n"
        "energy,0.025,0.025,3,0,0,1\n"
        "cvm,0.025,0.025,4,0,0,1\n"
        "combined,0.025,0.025,4,0,0,1\n"
        "energy,0.025,0.025,4,0,0,1\n"
        "cvm,0.025,0.025,5,0,0,1\n"
        "combined,0.025,0.025,5,0,0,1\n"
        "energy,0.025,0.025,5,0,0,1\n"
        "cvm,0.025,0.025,6,0,0,1\n"
        "combined,0.025,0.025,6,0,0,1\n"
        "energy,0.025,0.025,6,0,0,1\n"
        "cvm,0.025,0.025,7,1,0,1\n"
        "combined,0.025,0.025,7,1,0,1\n"
        "energy,0.025,0.025,7,0,0,1\n"
        "cvm,0.025,0.025,8,0,0,1\n"
        "combined,0.025,0.025,8,0,0,1\n"
        "energy,0.025,0.025,8,0,0,1\n"
        "cvm,0.025,0.025,9,1,0,1\n"
        "combined,0.025,0.025,9,1,0,1\n"
        "energy,0.025,0.025,9,0,0,1\n"
        "cvm,0.025,0.025,10,0,0,1\n"
        "combined,0.025,0.025,10,0,0,1\n"
        "energy,0.025,0.025,10,0,0,1\n"
    )
