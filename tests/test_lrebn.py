import math

import numpy as np
import pytest

from adaptive_mc import lrebn
from adaptive_mc.linalg import RestrictedSolver, coherence
from adaptive_mc.lrebn import (
    RESIDUAL_FLOOR,
    LrebnConfig,
    angle_increment,
    column_test,
    initial_budget,
    recovery_errors,
    residual_threshold,
    run_lrebn,
    theorem_error_bound,
    updated_budget,
)
from adaptive_mc.synthetic import ObservationOracle, make_instance


def cfg_for(epsilon=0.0, delta=0.05, r=4, mu=1.0, **kw):
    return LrebnConfig(epsilon=epsilon, delta=delta, r=r, mu_upper=mu, **kw)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_out_of_model_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        cfg_for(epsilon=0.25)
    with pytest.raises(ValueError, match="epsilon"):
        cfg_for(epsilon=-0.01)


def test_config_rejects_large_delta():
    with pytest.raises(ValueError, match="delta"):
        cfg_for(delta=0.1)
    with pytest.raises(ValueError, match="delta"):
        cfg_for(delta=0.2)


def test_config_rejects_small_mu_and_bad_rank():
    with pytest.raises(ValueError, match="mu_upper"):
        cfg_for(mu=0.5)
    with pytest.raises(ValueError, match="r must be"):
        cfg_for(r=0)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_config_rejects_non_finite_mu(mu):
    with pytest.raises(ValueError, match="mu_upper"):
        cfg_for(mu=mu)


def test_config_rejects_unknown_redraw_policy():
    with pytest.raises(ValueError, match="omega_redraw"):
        cfg_for(omega_redraw="never")


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def test_initial_budget_value():
    # 72 * ln(10)^2 = 381.736...; ceil gives 382.
    cfg = cfg_for(delta=0.1 - 1e-12, r=1, mu=1.0)
    assert initial_budget(cfg, 10_000) == 382


def test_initial_budget_clamps_to_m():
    cfg = cfg_for(delta=0.1 - 1e-12, r=1, mu=1.0)
    assert initial_budget(cfg, 100) == 100


def test_updated_budget_matches_initial_at_zero_angle():
    cfg = cfg_for(epsilon=0.01, delta=0.05, r=3, mu=2.0)
    assert updated_budget(cfg, 750, 0.0) == initial_budget(cfg, 750)


def test_updated_budget_frozen_values():
    cfg = cfg_for(delta=0.05, r=4, mu=1.0)
    # Formula value 3285.75... would ceil to 3286; the cap binds at m=500.
    assert updated_budget(cfg, 500, 0.2) == 500
    uncapped = cfg_for(delta=0.05, r=4, mu=1.0, budget_cap_to_m=False)
    assert updated_budget(uncapped, 500, 0.2) == 3286

    cfg2 = cfg_for(delta=0.05, r=2, mu=1.0)
    assert updated_budget(cfg2, 10 ** 6, 0.01) == 4244


def test_budget_equals_independent_formula():
    gen = np.random.default_rng(0)
    for _ in range(100):
        mu = float(gen.uniform(1.0, 8.0))
        r = int(gen.integers(1, 9))
        delta = float(gen.uniform(0.002, 0.0999))
        m = int(gen.integers(10, 10 ** 6))
        theta = float(gen.uniform(0.0, math.pi / 2))
        cfg = cfg_for(delta=delta, r=r, mu=mu)
        expected = math.ceil(
            72.0 * mu * r * math.log(1.0 / delta) ** 2
            + 8.0 * m * theta ** 2 * math.log(r / delta)
        )
        assert updated_budget(cfg, m, theta) == max(1, min(expected, m))


# ---------------------------------------------------------------------------
# residual test
# ---------------------------------------------------------------------------

def test_threshold_frozen_value():
    thr = residual_threshold(200, 1000, 3, 0.01, 0.05)
    assert thr == pytest.approx(0.12347700225711278, abs=1e-15)
    cfg = cfg_for(epsilon=0.01)
    assert column_test(0.2, 200, 1000, 3, cfg, 0.05)
    assert not column_test(0.1, 200, 1000, 3, cfg, 0.05)


def test_threshold_zero_at_k_zero():
    assert residual_threshold(50, 100, 0, 0.0, 0.0) == 0.0
    cfg = cfg_for(epsilon=0.0)
    assert not column_test(0.0, 50, 100, 0, cfg, 0.0)
    assert column_test(1e-6, 50, 100, 0, cfg, 0.0)


def test_noiseless_test_reduces_to_positivity():
    cfg = cfg_for(epsilon=0.0)
    assert residual_threshold(40, 100, 3, 0.0, 0.0) == 0.0
    # Positivity above the floor: residuals up to RESIDUAL_FLOOR count
    # as least-squares round-off, not as a new direction.
    assert not column_test(1e-12, 40, 100, 3, cfg, 0.0)
    assert not column_test(RESIDUAL_FLOOR, 40, 100, 3, cfg, 0.0)
    assert column_test(1e-6, 40, 100, 3, cfg, 0.0)
    assert not column_test(0.0, 40, 100, 3, cfg, 0.0)


def test_negative_residual_rejected():
    with pytest.raises(ValueError):
        column_test(-1.0, 10, 100, 1, cfg_for(), 0.0)


# ---------------------------------------------------------------------------
# angle recursion
# ---------------------------------------------------------------------------

def test_angle_increment_zero_noise_stays_zero():
    cfg = cfg_for(epsilon=0.0)
    assert angle_increment(0.0, 0.5, cfg, 1) == 0.0
    assert angle_increment(0.0, 1e-9, cfg, 3) == 0.0


def test_angle_increment_frozen_first_step():
    cfg = cfg_for(epsilon=0.01)
    got = angle_increment(0.0, 0.5, cfg, 1)
    assert got == pytest.approx(0.03173379877816113, abs=1e-15)


def test_angle_increment_denominator_floor():
    # Raw denominator 0.01 is below sqrt(2 * 0.01) = 0.1414 and gets
    # floored, exercising the guard.
    cfg = cfg_for(epsilon=0.01)
    got = angle_increment(0.46, 0.47, cfg, 2)
    assert got == pytest.approx(0.5721959215442356, abs=1e-12)


def test_angle_increment_cap_binds():
    cfg = cfg_for(epsilon=0.005)
    capped = angle_increment(0.4, 0.5, cfg, 1)
    assert capped == pytest.approx(1.5 * math.pi * math.sqrt(0.005), abs=1e-12)
    uncapped = angle_increment(
        0.4, 0.5, cfg_for(epsilon=0.005, angle_cap_enabled=False), 1
    )
    assert uncapped > capped
    assert uncapped <= math.pi / 2


def test_angle_increment_never_exceeds_right_angle():
    cfg = cfg_for(epsilon=0.2, r=1, angle_cap_enabled=False)
    got = angle_increment(1.5, 1.501, cfg, 1)
    assert got == pytest.approx(math.pi / 2)


def test_angle_increment_rejects_in_span_column():
    cfg = cfg_for(epsilon=0.01)
    with pytest.raises(RuntimeError, match="residual test"):
        angle_increment(0.1, 0.0, cfg, 2)


# ---------------------------------------------------------------------------
# error certificate
# ---------------------------------------------------------------------------

def test_error_bound_frozen_value():
    got = theorem_error_bound(400, 400, 2, 0.01, 0.05)
    assert got == pytest.approx(1.312796928042202, abs=1e-14)


def test_error_bound_vanishes_noiseless():
    assert theorem_error_bound(100, 50, 3, 0.0, 0.0) == 0.0


def test_error_bound_monotonicity():
    base = theorem_error_bound(200, 100, 2, 0.01, 0.05)
    assert theorem_error_bound(200, 100, 2, 0.02, 0.05) > base
    assert theorem_error_bound(200, 100, 3, 0.01, 0.05) > base
    assert theorem_error_bound(200, 100, 2, 0.01, 0.06) > base
    assert theorem_error_bound(200, 150, 2, 0.01, 0.05) < base


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def test_run_noiseless_recovers_exactly():
    inst = make_instance(60, 80, 4, 0.0, seed=3)
    cfg = cfg_for(epsilon=0.0, delta=0.05, r=4,
                  mu=coherence(inst.true_basis), seed=3)
    oracle = ObservationOracle(inst.M)
    result = run_lrebn(oracle, cfg)
    errors = recovery_errors(result, inst.L)
    assert result.k_final == 4
    assert errors.max() <= 1e-8
    assert result.column_mode.count("FullyObserved") == 4
    assert result.observations == oracle.entry_count
    d0 = initial_budget(cfg, 60)
    assert result.observations <= 4 * 60 + 80 * d0


def test_run_empty_matrix():
    oracle = ObservationOracle(np.zeros((5, 0)))
    result = run_lrebn(oracle, cfg_for(r=1))
    assert result.M_tilde.shape == (5, 0)
    assert result.observations == 0
    assert result.k_final == 0


def test_run_zero_columns_stay_zero():
    # A zero column passes the k = 0 test (threshold 0, residual 0) and
    # must come back as the zero column without full observation.
    m = np.zeros((6, 3))
    m[:, 1] = np.ones(6) / math.sqrt(6)
    oracle = ObservationOracle(m)
    result = run_lrebn(oracle, cfg_for(epsilon=0.0, r=1, seed=1))
    np.testing.assert_array_equal(result.M_tilde[:, 0], 0.0)
    assert result.column_mode[0] == "Reconstructed"
    assert result.column_mode[1] == "FullyObserved"
    np.testing.assert_array_equal(result.M_tilde, m)


def test_run_rank_one_identical_columns():
    # Flat rank-1 matrix large enough that the budget does not clamp:
    # mu = 1, delta = 0.09 gives d = ceil(72 ln(1/0.09)^2) = 418 < m.
    m, n = 500, 5
    u = np.ones(m) / math.sqrt(m)
    mat = np.tile(u[:, None], (1, n))
    cfg = cfg_for(epsilon=0.0, delta=0.09, r=1, mu=1.0, seed=2)
    d = initial_budget(cfg, m)
    assert d == 418
    oracle = ObservationOracle(mat)
    result = run_lrebn(oracle, cfg)
    assert result.column_mode == ["FullyObserved"] + ["Reconstructed"] * (n - 1)
    assert result.observations == m + (n - 1) * d
    assert recovery_errors(result, mat).max() <= 1e-9


def test_run_budget_trace_matches_formula():
    inst = make_instance(80, 60, 3, 0.02, seed=11)
    cfg = cfg_for(epsilon=0.02, delta=0.05, r=3,
                  mu=coherence(inst.true_basis), seed=11)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    for event in result.budget_trace:
        assert event.mu == cfg.mu_upper
        expected = math.ceil(
            72.0 * event.mu * cfg.r * math.log(1.0 / cfg.delta) ** 2
            + 8.0 * 80 * event.theta_tilde ** 2 * math.log(cfg.r / cfg.delta)
        )
        assert event.d_formula == max(1, expected)
        assert event.d_budget == min(event.d_formula, 80)
        assert event.d_drawn == min(event.d_budget, 80)


def test_run_theta_trace_monotone_and_capped():
    inst = make_instance(100, 80, 4, 0.02, seed=21)
    cfg = cfg_for(epsilon=0.02, delta=0.05, r=4,
                  mu=coherence(inst.true_basis), seed=21)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    thetas = [t for _, t in result.theta_trace]
    assert all(b >= a for a, b in zip(thetas, thetas[1:]))
    for k, theta in result.theta_trace:
        assert theta <= 1.5 * math.pi * math.sqrt(k * cfg.epsilon) + 1e-12
        assert theta <= math.pi / 2


def test_omega_redraw_policies_differ_in_row_patterns():
    # With a budget below m, the on-update policy reuses one row pattern
    # across consecutive reconstructed columns; per-column redraw uses a
    # fresh pattern each time.  The revealed masks expose the difference.
    m, n = 500, 4
    u = np.ones(m) / math.sqrt(m)
    mat = np.tile(u[:, None], (1, n))

    def revealed_rows(policy):
        cfg = cfg_for(epsilon=0.0, delta=0.09, r=1, mu=1.0, seed=5,
                      omega_redraw=policy)
        oracle = ObservationOracle(mat)
        run_lrebn(oracle, cfg)
        return [frozenset(np.flatnonzero(oracle._revealed[:, j]).tolist())
                for j in range(n)]

    on_update = revealed_rows("on-update")
    per_column = revealed_rows("per-column")
    # Reconstructed columns 1..3 share the pattern under on-update.
    assert on_update[1] == on_update[2] == on_update[3]
    assert len({per_column[1], per_column[2], per_column[3]}) == 3


def test_run_builds_one_solver_per_budget_event(monkeypatch):
    built = []

    class CountingSolver(RestrictedSolver):
        __slots__ = ()

        def __init__(self, basis, omega):
            built.append(basis.dim)
            super().__init__(basis, omega)

    monkeypatch.setattr(lrebn, "RestrictedSolver", CountingSolver)
    inst = make_instance(80, 60, 3, 0.02, seed=11)
    cfg = cfg_for(epsilon=0.02, delta=0.05, r=3,
                  mu=coherence(inst.true_basis), seed=11)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert len(result.budget_trace) > 1
    assert built == [event.k for event in result.budget_trace]


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_run_modes_follow_column_test(epsilon):
    # The run decides through column_test itself: a column is observed in
    # full exactly when the test fires on its recorded decision state.
    m = 60
    inst = make_instance(m, 90, 3, epsilon, 12)
    cfg = cfg_for(epsilon=epsilon, r=3, mu=coherence(inst.true_basis), seed=5)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert set(result.column_mode) == {"FullyObserved", "Reconstructed"}
    for rec in result.column_records:
        fired = column_test(rec.residual, rec.d, m, rec.k, cfg,
                            rec.theta_tilde)
        assert (rec.mode == "FullyObserved") == fired, rec


def test_k_final_is_read_from_budget_trace():
    inst = make_instance(40, 50, 3, 0.0, 2)
    result = run_lrebn(ObservationOracle(inst.M), cfg_for(r=3, seed=1))
    assert result.k_final == result.budget_trace[-1].k == 3
    with pytest.raises(AttributeError):
        result.k_final = 0


def test_run_is_deterministic():
    inst = make_instance(60, 50, 3, 0.01, seed=9)
    cfg = cfg_for(epsilon=0.01, delta=0.05, r=3,
                  mu=coherence(inst.true_basis), seed=9)
    r1 = run_lrebn(ObservationOracle(inst.M), cfg)
    r2 = run_lrebn(ObservationOracle(inst.M), cfg)
    np.testing.assert_array_equal(r1.M_tilde, r2.M_tilde)
    assert r1.observations == r2.observations
    assert r1.theta_trace == r2.theta_trace


# Bits of three noisy runs: float.hex of theta_tilde and the budget d in
# force at every budget event, and the final observation count.  The
# first run sub-samples (d < m); the third has the clamp off and
# estimates mu from the basis coherence at every refresh, so its budgets
# carry both the angle and the coherence arithmetic.  Any change to the
# order of the run's floating-point operations moves these values.
PINNED_RUNS = [
    ((1500, 120, 2, 0.01, 3), dict(delta=0.09, mu=1.0),
     ["0x0.0p+0", "0x1.4afedae829562p-7", "0x1.1def28312d6d6p-5"],
     [835, 839, 881], 106958),
    ((200, 150, 4, 0.02, 4), dict(delta=0.05),
     ["0x0.0p+0", "0x1.4e63fbd7e1f94p-6", "0x1.444c1ba280f0cp-4",
      "0x1.b194538a9360ap-4", "0x1.4884e394ae279p-3"],
     [200, 200, 200, 200, 200], 30000),
    ((400, 120, 3, 0.005, 5),
     dict(delta=0.09, mu=1.0, budget_cap_to_m=False, estimate_mu=True),
     ["0x0.0p+0", "0x1.4953f910fe9c6p-8", "0x1.500f7b8b25003p-7",
      "0x1.0b402ed8798d8p-6"],
     [1253, 7651, 9426, 11033], 48000),
]


@pytest.mark.parametrize("shape, kw, thetas, budgets, observations",
                         PINNED_RUNS)
def test_run_angle_bits_pinned(shape, kw, thetas, budgets, observations):
    m, n, r, epsilon, seed = shape
    inst = make_instance(m, n, r, epsilon, seed=seed)
    kw = {"mu": coherence(inst.true_basis), **kw}
    result = run_lrebn(ObservationOracle(inst.M),
                       cfg_for(epsilon=epsilon, r=r, seed=seed, **kw))
    assert [float.hex(ev.theta_tilde) for ev in result.budget_trace] == thetas
    assert [ev.d_budget for ev in result.budget_trace] == budgets
    assert result.observations == observations


def test_estimate_mu_mode_runs():
    inst = make_instance(60, 50, 3, 0.01, seed=13)
    cfg = cfg_for(epsilon=0.01, delta=0.05, r=3, mu=1.0, seed=13,
                  estimate_mu=True)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert result.k_final >= 1
    assert recovery_errors(result, inst.L).max() < 1.0


def test_recovery_errors_shape_check():
    inst = make_instance(10, 8, 2, 0.0, seed=1)
    cfg = cfg_for(r=2, seed=1)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    with pytest.raises(ValueError):
        recovery_errors(result, np.zeros((10, 9)))
