import math
import tracemalloc

import numpy as np
import pytest

from adaptive_mc import lrebn, sampling
from adaptive_mc.linalg import LSTSQ_RCOND, RestrictedSolver, coherence
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
    with pytest.raises(ValueError, match=r"epsilon must be < 0.25 and "
                       r"non-negative \(bounded-noise model precondition\); "
                       r"got -0.01"):
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
    with pytest.raises(ValueError, match="r must be"):
        cfg_for(r=2.5)


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
    assert column_test(0.2, thr)
    assert not column_test(0.1, thr)


def test_threshold_zero_at_k_zero():
    thr = residual_threshold(50, 100, 0, 0.0, 0.0)
    assert thr == 0.0
    assert not column_test(0.0, thr)
    assert column_test(1e-6, thr)


def test_noiseless_test_reduces_to_positivity():
    thr = residual_threshold(40, 100, 3, 0.0, 0.0)
    assert thr == 0.0
    # Positivity above the floor: residuals up to RESIDUAL_FLOOR count
    # as least-squares round-off, not as a new direction.
    assert not column_test(1e-12, thr)
    assert not column_test(RESIDUAL_FLOOR, thr)
    assert column_test(1e-6, thr)
    assert not column_test(0.0, thr)


def test_negative_residual_rejected():
    with pytest.raises(ValueError):
        column_test(-1.0, residual_threshold(10, 100, 1, 0.01, 0.0))


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


def test_angle_increment_never_exceeds_right_angle():
    # The first cap is (3 pi / 2) sqrt(0.2) = 2.107 here, above pi/2.
    cfg = cfg_for(epsilon=0.2, r=1)
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
    # fresh pattern each time.  The oracle's log of restricted reads
    # exposes the difference.
    m, n = 500, 4
    u = np.ones(m) / math.sqrt(m)
    mat = np.tile(u[:, None], (1, n))

    def revealed_rows(policy):
        cfg = cfg_for(epsilon=0.0, delta=0.09, r=1, mu=1.0, seed=5,
                      omega_redraw=policy)
        oracle = StubOracle(mat)
        run_lrebn(oracle, cfg)
        return [frozenset(oracle.omegas[j].tolist()) for j in range(n)]

    on_update = revealed_rows("on-update")
    per_column = revealed_rows("per-column")
    # Reconstructed columns 1..3 share the pattern under on-update.
    assert on_update[1] == on_update[2] == on_update[3]
    assert len({per_column[1], per_column[2], per_column[3]}) == 3


class CallLogOracle(ObservationOracle):
    """Oracle that logs the column index of every ``entries`` and
    ``column`` call."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.entries_calls, self.column_calls = [], []

    def entries(self, omega, j):
        self.entries_calls.append(j)
        return super().entries(omega, j)

    def column(self, j):
        self.column_calls.append(j)
        return super().column(j)


@pytest.mark.parametrize("m, n, r, epsilon, delta, seed, clamped", [
    (80, 60, 3, 0.02, 0.05, 11, True),
    (2000, 60, 2, 0.01, 0.09, 4, False),
], ids=["clamped", "subsampled"])
def test_run_builds_one_solver_per_budget_event(
        monkeypatch, m, n, r, epsilon, delta, seed, clamped):
    # One factorization per budget event, never per column; one
    # restricted read per column and one full read per fired column.
    built = []

    class CountingSolver(RestrictedSolver):
        __slots__ = ()

        def __init__(self, basis, omega):
            built.append(basis.dim)
            super().__init__(basis, omega)

    monkeypatch.setattr(lrebn, "RestrictedSolver", CountingSolver)
    inst = make_instance(m, n, r, epsilon, seed=seed)
    mu = coherence(inst.true_basis) if clamped else 1.0
    cfg = cfg_for(epsilon=epsilon, delta=delta, r=r, mu=mu, seed=seed)
    oracle = CallLogOracle(inst.M)
    result = run_lrebn(oracle, cfg)
    assert {ev.d_drawn == m for ev in result.budget_trace} == {clamped}
    assert len(result.budget_trace) > 1
    assert built == [event.k for event in result.budget_trace]
    assert oracle.entries_calls == list(range(n))
    assert oracle.column_calls == [rec.index for rec in result.column_records
                                   if rec.mode == "FullyObserved"]


@pytest.mark.parametrize("policy", ["on-update", "per-column"])
def test_run_validates_each_pattern_once(monkeypatch, policy):
    # Every full validation in the package makes one pattern over new
    # memory, so counting those counts the validations: one per pattern
    # drawn, which the solver and the oracle then pass on.
    made = []

    class CountingRows(sampling._Rows):
        __slots__ = ()

        def __new__(cls, data):
            rows = super().__new__(cls, data)
            made.append(len(rows) // np.dtype(np.intp).itemsize)
            return rows

    monkeypatch.setattr(sampling, "_Rows", CountingRows)
    m, n = 2000, 60
    inst = make_instance(m, n, 2, 0.01, seed=4)
    cfg = cfg_for(epsilon=0.01, delta=0.09, r=2, mu=1.0, seed=4,
                  omega_redraw=policy)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    # The last pattern is read too, so every event's pattern is used.
    assert result.column_mode[-1] == "Reconstructed"
    assert len(result.budget_trace) == 3
    drawn = [ev.d_drawn for ev in result.budget_trace]
    if policy == "per-column":
        drawn += [min(rec.d, m) for rec in result.column_records]
    assert sorted(made) == sorted(drawn)


class MaskOracle(ObservationOracle):
    """Oracle that also marks every read in an m x n bool mask, an
    independent recount of the distinct entries revealed."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.mask = np.zeros(self.shape, dtype=bool)

    def entries(self, omega, j):
        got = super().entries(omega, j)
        self.mask[omega, j] = True
        return got

    def column(self, j):
        self.mask[:, j] = True
        return super().column(j)


@pytest.mark.parametrize("policy", ["on-update", "per-column"])
def test_subsampled_entry_count_equals_a_mask_recount(policy):
    m, n = 2000, 60
    inst = make_instance(m, n, 2, 0.01, seed=4)
    cfg = cfg_for(epsilon=0.01, delta=0.09, r=2, mu=1.0, seed=4,
                  omega_redraw=policy)
    oracle = MaskOracle(inst.M)
    result = run_lrebn(oracle, cfg)
    assert all(ev.d_drawn < m for ev in result.budget_trace)
    assert result.observations == np.count_nonzero(oracle.mask) < m * n


@pytest.mark.parametrize("policy, delta, subsampled", [
    ("on-update", 0.09, True),
    ("per-column", 0.01, False),
], ids=["on-update-subsampled", "per-column-clamped"])
def test_oracle_read_records_stay_small_after_a_run(policy, delta,
                                                    subsampled):
    # After a run the oracle holds its m x n store plus read records: a
    # small tuple per column and references to the run's few patterns.
    # With every budget clamped, each pattern covers all m rows and is
    # recorded as a full read, so per-column redraw keeps no pattern.
    # Together they stay under 1% of the store (an m x n mask is 12.5%).
    m, n = 2000, 600
    inst = make_instance(m, n, 2, 0.01, seed=3)
    cfg = cfg_for(epsilon=0.01, delta=delta, r=2, mu=1.0, seed=3,
                  omega_redraw=policy)
    tracemalloc.start()
    try:
        oracle = ObservationOracle(inst.M)
        result = run_lrebn(oracle, cfg)
        drawn = {ev.d_drawn < m for ev in result.budget_trace}
        del result
        held = tracemalloc.get_traced_memory()[0] - 8 * m * n
    finally:
        tracemalloc.stop()
    assert drawn == {subsampled}
    assert held < 0.01 * 8 * m * n, held


def test_run_sets_aside_at_most_m_coefficient_columns():
    # k never exceeds m, so a rank far above m sets aside no more than m
    # coefficient columns (at 10**15 the old n x r array failed to allocate).
    # With every budget clamped to m, r enters no decision.
    inst = make_instance(20, 10, 2, 0.01, seed=3)
    runs = [run_lrebn(ObservationOracle(inst.M),
                      cfg_for(epsilon=0.01, delta=0.001, r=r, seed=4))
            for r in (2, 10 ** 15)]
    assert runs[1].column_records == runs[0].column_records
    assert runs[1].coefs.shape == (10, runs[1].k_final)
    np.testing.assert_array_equal(runs[1].M_tilde, runs[0].M_tilde)


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_run_modes_follow_column_test(epsilon):
    # The run decides through column_test itself: a column is observed in
    # full exactly when the test fires on its recorded threshold, and that
    # threshold is the one of its recorded decision state.
    m = 60
    inst = make_instance(m, 90, 3, epsilon, 12)
    cfg = cfg_for(epsilon=epsilon, r=3, mu=coherence(inst.true_basis), seed=5)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert set(result.column_mode) == {"FullyObserved", "Reconstructed"}
    for rec in result.column_records:
        assert rec.threshold == residual_threshold(
            rec.d, m, rec.k, epsilon, rec.theta_tilde), rec
        fired = column_test(rec.residual, rec.threshold)
        assert (rec.mode == "FullyObserved") == fired, rec


def test_k_final_is_read_from_budget_trace():
    inst = make_instance(40, 50, 3, 0.0, 2)
    result = run_lrebn(ObservationOracle(inst.M), cfg_for(r=3, seed=1))
    assert result.k_final == result.budget_trace[-1].k == 3
    with pytest.raises(AttributeError):
        result.k_final = 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bound_violations_count_dimensions_above_r(seed):
    # Rank-4 data run with r = 1: every update past the first breaks the
    # dimension bound.
    inst = make_instance(80, 60, 4, 0.05, seed)
    result = run_lrebn(ObservationOracle(inst.M),
                       cfg_for(epsilon=0.05, r=1, seed=seed))
    assert result.bound_violations == result.k_final - 1 > 0


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


# ---------------------------------------------------------------------------
# materialization from the final basis
# ---------------------------------------------------------------------------

class StubOracle:
    """Serves ``entries`` from ``sampled`` and ``column`` from ``full``
    (``sampled`` unless given), and logs the row pattern of every
    restricted read.  Counts every read, without deduplication."""

    def __init__(self, sampled, full=None):
        self.sampled = np.asarray(sampled, dtype=float)
        self.full = (self.sampled if full is None
                     else np.asarray(full, dtype=float))
        self.omegas = {}
        self.entry_count = 0

    @property
    def shape(self):
        return self.sampled.shape

    def entries(self, omega, j):
        self.omegas[j] = np.array(omega)
        self.entry_count += len(omega)
        return self.sampled[omega, j]

    def column(self, j):
        self.entry_count += self.shape[0]
        return self.full[:, j].copy()


def test_fired_column_in_span_is_kept_and_its_segment_reconstructed():
    # Column 1's samples leave the span of column 0, so the test fires;
    # its full read is 2u, already in the span: no dimension is added.
    m = 6
    u = np.ones(m) / math.sqrt(m)
    full = np.column_stack([u, 2 * u, 0.5 * u, -u, 2 * u])
    sampled = full.copy()
    sampled[:, 1] = np.eye(m)[0]
    cfg = cfg_for(epsilon=0.0, r=1, seed=4)
    assert initial_budget(cfg, m) == m
    result = run_lrebn(StubOracle(sampled, full), cfg)
    assert result.column_mode == ["FullyObserved"] * 2 + ["Reconstructed"] * 3
    assert [rec.k for rec in result.column_records] == [0, 1, 1, 1, 1]
    assert len(result.budget_trace) == 2
    assert result.k_final == result.basis.dim == 1
    np.testing.assert_array_equal(result.M_tilde[:, :2], full[:, :2])
    np.testing.assert_allclose(result.M_tilde[:, 2:], full[:, 2:],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("nonzero", [None, 2])
def test_zero_columns_at_k_zero_come_back_exactly_zero(nonzero):
    m, n = 6, 5
    mat = np.zeros((m, n))
    if nonzero is not None:
        mat[:, nonzero] = np.ones(m) / math.sqrt(m)
    result = run_lrebn(StubOracle(mat), cfg_for(epsilon=0.0, r=1, seed=1))
    assert result.k_final == result.basis.dim == (nonzero is not None)
    np.testing.assert_array_equal(result.M_tilde, mat)
    assert result.M_tilde.flags.f_contiguous


def test_per_column_redraw_subsampled_matches_per_column_fits():
    # d < m, so every column has its own pattern.  Each reconstructed
    # column must be the least-squares fit on that pattern against the
    # basis prefix in force for it.
    m = 2000
    inst = make_instance(m, 40, 2, 0.01, seed=4)
    cfg = cfg_for(epsilon=0.01, delta=0.09, r=2, mu=1.0, seed=4,
                  omega_redraw="per-column")
    oracle = StubOracle(inst.M)
    result = run_lrebn(oracle, cfg)
    assert all(ev.d_drawn < m for ev in result.budget_trace)
    reconstructed = [rec for rec in result.column_records
                     if rec.mode == "Reconstructed"]
    assert len(reconstructed) > 30
    assert len({oracle.omegas[rec.index].tobytes()
                for rec in reconstructed}) == len(reconstructed)
    for rec in result.column_records:
        i = rec.index
        if rec.mode == "FullyObserved":
            np.testing.assert_array_equal(result.M_tilde[:, i], inst.M[:, i])
            continue
        b = result.basis.matrix[:, :rec.k]
        omega = oracle.omegas[i]
        coef = np.linalg.lstsq(b[omega], inst.M[omega, i],
                               rcond=LSTSQ_RCOND)[0]
        np.testing.assert_allclose(result.M_tilde[:, i], b @ coef,
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the estimated basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 8])
def test_result_basis_spans_every_reconstructed_column(seed):
    inst = make_instance(200, 150, 4, 0.02, seed=seed)
    cfg = cfg_for(epsilon=0.02, delta=0.05, r=4,
                  mu=coherence(inst.true_basis), seed=seed)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert result.basis.dim == result.k_final >= 1
    assert result.basis.ambient_dim == 200
    for rec in result.column_records:
        if rec.mode != "Reconstructed":
            continue
        b = result.basis.matrix[:, :rec.k]
        y = result.M_tilde[:, rec.index]
        assert np.linalg.norm(y - b @ (b.T @ y)) <= 1e-12


# ---------------------------------------------------------------------------
# memory: no m x n temporary
# ---------------------------------------------------------------------------

def test_run_and_errors_allocate_no_m_by_n_temporary():
    # numpy reports its buffers to tracemalloc.  A run may allocate its
    # output plus small per-column and per-event arrays; recovery_errors
    # only a block buffer of about 1 MB and the n errors.
    inst = make_instance(2000, 600, 5, 0.01, seed=0)
    cfg = cfg_for(epsilon=0.01, delta=0.05, r=5,
                  mu=coherence(inst.true_basis), seed=0)
    oracle = ObservationOracle(inst.M)
    tracemalloc.start()
    try:
        result = run_lrebn(oracle, cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        recovery_errors(result, inst.L)
        errors_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert run_peak <= 1.1 * result.M_tilde.nbytes, run_peak
    assert errors_peak <= 2_000_000, errors_peak


def test_run_allocates_nothing_close_to_the_matrix_size():
    # The result stays factored: the run keeps n x k coefficients and the
    # fully observed columns, never an m x n array.
    m, n = 2000, 600
    inst = make_instance(m, n, 5, 0.01, seed=0)
    cfg = cfg_for(epsilon=0.01, delta=0.05, r=5,
                  mu=coherence(inst.true_basis), seed=0)
    oracle = ObservationOracle(inst.M)
    tracemalloc.start()
    try:
        result = run_lrebn(oracle, cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "M_tilde" not in vars(result)
    assert run_peak <= 0.25 * 8 * m * n, run_peak


# ---------------------------------------------------------------------------
# the factored result
# ---------------------------------------------------------------------------

def test_M_tilde_is_built_once_from_the_factors():
    inst = make_instance(200, 150, 4, 0.02, seed=5)
    cfg = cfg_for(epsilon=0.02, delta=0.05, r=4,
                  mu=coherence(inst.true_basis), seed=5)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert "M_tilde" not in vars(result)
    k = result.k_final
    assert result.coefs.shape == (150, k)
    full = [rec.index for rec in result.column_records
            if rec.mode == "FullyObserved"]
    assert sorted(result.observed) == full
    np.testing.assert_array_equal(result.coefs[full], 0.0)
    expected = result.basis.matrix @ result.coefs.T
    for i, y_full in result.observed.items():
        np.testing.assert_array_equal(y_full, inst.M[:, i])
        expected[:, i] = y_full
    M_tilde = result.M_tilde
    np.testing.assert_array_equal(M_tilde, expected)
    assert M_tilde.flags.f_contiguous
    assert result.M_tilde is M_tilde


def _clamped_run():
    inst = make_instance(200, 150, 4, 0.02, seed=6)
    cfg = cfg_for(epsilon=0.02, delta=0.05, r=4,
                  mu=coherence(inst.true_basis), seed=6)
    return run_lrebn(ObservationOracle(inst.M), cfg), inst.L


def _subsampled_run(omega_redraw):
    inst = make_instance(2000, 40, 2, 0.01, seed=4)
    cfg = cfg_for(epsilon=0.01, delta=0.09, r=2, mu=1.0, seed=4,
                  omega_redraw=omega_redraw)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    assert all(ev.d_drawn < 2000 for ev in result.budget_trace)
    return result, inst.L


def _k_zero_run():
    reference = make_instance(30, 12, 2, 0.0, seed=2).L
    result = run_lrebn(StubOracle(np.zeros((30, 12))),
                       cfg_for(epsilon=0.0, r=1, seed=1))
    assert result.k_final == 0
    return result, reference


def _empty_run():
    result = run_lrebn(ObservationOracle(np.zeros((5, 0))), cfg_for(r=1))
    return result, np.zeros((5, 0))


def _fired_in_span_run():
    m = 6
    u = np.ones(m) / math.sqrt(m)
    full = np.column_stack([u, 2 * u, 0.5 * u, -u, 2 * u])
    sampled = full.copy()
    sampled[:, 1] = np.eye(m)[0]
    result = run_lrebn(StubOracle(sampled, full),
                       cfg_for(epsilon=0.0, r=1, seed=4))
    assert sorted(result.observed) == [0, 1] and result.k_final == 1
    return result, sampled


@pytest.mark.parametrize("make_run", [
    _clamped_run,
    lambda: _subsampled_run("on-update"),
    lambda: _subsampled_run("per-column"),
    _k_zero_run,
    _empty_run,
    _fired_in_span_run,
], ids=["clamped", "subsampled", "per-column", "k-zero", "n-zero",
        "fired-in-span"])
def test_recovery_errors_match_the_materialized_difference(make_run):
    result, L = make_run()
    errors = recovery_errors(result, L)
    assert "M_tilde" not in vars(result)
    np.testing.assert_allclose(
        errors, np.linalg.norm(result.M_tilde - L, axis=0), rtol=0,
        atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_recovery_errors_reject_a_non_finite_error(bad):
    # 1e200 is finite, but its square is not: the error would read inf.
    result, L = _clamped_run()
    L = L.copy()
    L[17, 3] = bad
    with pytest.raises(ValueError, match="column error is not finite"):
        recovery_errors(result, L)
