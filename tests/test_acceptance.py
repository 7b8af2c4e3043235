"""
Acceptance gate.

Each test below enforces one numbered acceptance criterion at its stated
tolerance and prints a one-line PASS/FAIL verdict (visible with
``pytest -s`` or in the captured output on failure).  Criteria 2, 3, 5
and 9 share one batch of 200 seeded noisy runs; criteria 1, 5 and 9
share the batch of 50 noiseless runs.
"""

import math
import time

import numpy as np
import pytest

from adaptive_mc import cli
from adaptive_mc.linalg import coherence
from adaptive_mc.lrebn import (
    LrebnConfig,
    angle_increment,
    initial_budget,
    recovery_errors,
    run_lrebn,
    theorem_error_bound,
    updated_budget,
)
from adaptive_mc.synthetic import ObservationOracle, make_instance
from adaptive_mc.verify import run_check


class SpyOracle:
    """Forwarding oracle that keeps its own set of revealed entries, so
    the counter can be checked against independent bookkeeping."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = set()

    @property
    def shape(self):
        return self.inner.shape

    @property
    def entry_count(self):
        return self.inner.entry_count

    def entries(self, omega, j):
        self.seen.update((int(i), int(j)) for i in omega)
        return self.inner.entries(omega, j)

    def column(self, j):
        self.seen.update((i, int(j)) for i in range(self.inner.shape[0]))
        return self.inner.column(j)


def _report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


# ---------------------------------------------------------------------------
# shared batches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noiseless_batch():
    t0 = time.perf_counter()
    runs = []
    for seed in range(50):
        inst = make_instance(60, 80, 4, 0.0, seed=seed)
        cfg = LrebnConfig(epsilon=0.0, delta=0.05, r=4,
                          mu_upper=coherence(inst.true_basis), seed=seed)
        spy = SpyOracle(ObservationOracle(inst.M))
        result = run_lrebn(spy, cfg)
        errors = recovery_errors(result, inst.L)
        runs.append({
            "epsilon": 0.0,
            "r": 4,
            "k_final": result.k_final,
            "max_error": float(errors.max()),
            "observations": result.observations,
            "entry_count": spy.inner.entry_count,
            "spy_count": len(spy.seen),
            "d_initial": initial_budget(cfg, 60),
            "theta_trace": list(result.theta_trace),
            "full_columns": result.column_mode.count("FullyObserved"),
        })
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noisy_batch():
    t0 = time.perf_counter()
    m, n, delta = 200, 150, 0.05
    runs = []
    cell = 0
    for r in (2, 4):
        for epsilon in (0.005, 0.02):
            for i in range(50):
                seed = cell * 1000 + i
                inst = make_instance(m, n, r, epsilon, seed=seed,
                                     noise_mode="sphere")
                cfg = LrebnConfig(epsilon=epsilon, delta=delta, r=r,
                                  mu_upper=coherence(inst.true_basis),
                                  seed=seed)
                spy = SpyOracle(ObservationOracle(inst.M))
                result = run_lrebn(spy, cfg)
                errors = recovery_errors(result, inst.L)
                reconstructed = 0
                certificate_violations = 0
                for rec in result.column_records:
                    if rec.mode != "Reconstructed":
                        continue
                    reconstructed += 1
                    bound = theorem_error_bound(m, rec.d, rec.k, epsilon,
                                                rec.theta_tilde)
                    if errors[rec.index] > bound:
                        certificate_violations += 1
                runs.append({
                    "epsilon": epsilon,
                    "r": r,
                    "k_final": result.k_final,
                    "reconstructed": reconstructed,
                    "certificate_violations": certificate_violations,
                    "observations": result.observations,
                    "entry_count": spy.inner.entry_count,
                    "spy_count": len(spy.seen),
                    "theta_trace": list(result.theta_trace),
                })
            cell += 1
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_exact_completion(noiseless_batch):
    runs, elapsed = noiseless_batch
    worst_error = max(run["max_error"] for run in runs)
    all_rank = all(run["k_final"] == 4 for run in runs)
    obs_ok = all(
        run["observations"] <= 4 * 60 + 80 * run["d_initial"] for run in runs
    )
    ok = worst_error <= 1e-8 and all_rank and obs_ok and elapsed < 10.0
    _report(1, ok,
            f"50 noiseless runs: max column error {worst_error:.2e} "
            f"(<= 1e-8), k_final always 4: {all_rank}, observation budget "
            f"respected: {obs_ok}, elapsed {elapsed:.2f}s (< 10s)")


def test_criterion_2_error_certificate(noisy_batch):
    runs, elapsed = noisy_batch
    total = sum(run["reconstructed"] for run in runs)
    violations = sum(run["certificate_violations"] for run in runs)
    rate = violations / total
    ok = rate <= 0.15 and elapsed < 120.0
    _report(2, ok,
            f"200 noisy runs: {violations}/{total} reconstructed columns "
            f"broke the certificate (rate {rate:.4f} <= 0.15), "
            f"elapsed {elapsed:.1f}s (< 120s)")


def test_criterion_3_dimension_bound(noisy_batch):
    runs, _ = noisy_batch
    within = sum(run["k_final"] <= run["r"] for run in runs)
    rate = within / len(runs)
    ok = rate >= 0.85
    _report(3, ok,
            f"k_final <= r on {within}/{len(runs)} noisy runs "
            f"(rate {rate:.3f} >= 0.85)")


def test_criterion_4_budget_formulas():
    gen = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        mu = float(gen.uniform(1.0, 10.0))
        r = int(gen.integers(1, 11))
        delta = float(gen.uniform(0.001, 0.0999))
        m = int(gen.integers(10, 10 ** 6))
        theta = float(gen.uniform(0.0, math.pi / 2))
        cap = bool(gen.integers(2))
        cfg = LrebnConfig(epsilon=0.01, delta=delta, r=r, mu_upper=mu,
                          budget_cap_to_m=cap)
        expected = math.ceil(
            72.0 * mu * r * math.log(1.0 / delta) ** 2
            + 8.0 * m * theta ** 2 * math.log(r / delta)
        )
        expected = max(1, expected)
        if cap:
            expected = min(expected, m)
        if updated_budget(cfg, m, theta) != expected:
            mismatches += 1
        zero_expected = max(1, math.ceil(
            72.0 * mu * r * math.log(1.0 / delta) ** 2
        ))
        if cap:
            zero_expected = min(zero_expected, m)
        if initial_budget(cfg, m) != zero_expected:
            mismatches += 1
    ok = mismatches == 0
    _report(4, ok,
            f"budget formulas matched independent re-evaluation on "
            f"1000 random tuples ({mismatches} mismatches)")


def test_criterion_5_angle_cap(noiseless_batch, noisy_batch):
    cap_excesses = 0
    checked = 0
    for runs in (noiseless_batch[0], noisy_batch[0]):
        for run in runs:
            eps = run["epsilon"]
            for k, theta in run["theta_trace"]:
                checked += 1
                cap = 1.5 * math.pi * math.sqrt(k * eps)
                if theta > cap + 1e-12 or theta > math.pi / 2:
                    cap_excesses += 1
    extremal = run_check("ind", trials=1, seed=0,
                         k_max=10_000, epsilon=0.01)
    # angle_increment itself with every new column at the denominator
    # floor (angle theta_prev, or a tiny one at k = 1), the largest step,
    # until pi/2 or k = 10^4: theta_tilde stays clear of its cap.
    worst = 0.0
    for eps in (1e-6, 1e-3, 0.05, 0.2, 0.2499):
        cfg = LrebnConfig(epsilon=eps, delta=0.05, r=1)
        theta, k = 0.0, 0
        while theta < math.pi / 2 and k < 10_000:
            k += 1
            theta = angle_increment(theta, theta or 1e-12, cfg, k)
            worst = max(worst, theta / (1.5 * math.pi * math.sqrt(k * eps)))
    ok = cap_excesses == 0 and extremal.violations == 0 and worst < 0.91
    _report(5, ok,
            f"{checked} trace entries respect the angle cap "
            f"({cap_excesses} excesses); extremal recursion to k=10^4: "
            f"{extremal.violations} violations; extremal angle_increment "
            f"runs: largest theta/cap {worst:.3f} (< 0.91)")


def test_criterion_6_deterministic_lemma_suite():
    t0 = time.perf_counter()
    reports = [run_check(name, trials=10_000, seed=0)
               for name in ("kcoh", "noisycoh", "ededler", "blum")]
    elapsed = time.perf_counter() - t0
    violations = {rep.name: rep.violations for rep in reports}
    ok = all(v == 0 for v in violations.values()) and elapsed < 60.0
    _report(6, ok,
            f"deterministic checks at 1e4 trials: {violations}, "
            f"elapsed {elapsed:.1f}s (< 60s)")


def test_criterion_7_probabilistic_lemma_suite():
    conc = run_check("conc", trials=5_000, seed=0)
    ks14 = run_check("ks14", trials=5_000, seed=0)
    matcher = run_check("matcher", trials=10_000, seed=0)
    conc_ok = conc.violation_rate <= 2 * 0.05 + conc.slack
    ks14_ok = ks14.violation_rate <= 2 * 0.05 + ks14.slack
    matcher_ok = (matcher.violation_rate
                  <= matcher.theoretical_bound + matcher.slack)
    ok = conc_ok and ks14_ok and matcher_ok
    _report(7, ok,
            f"conc rate {conc.violation_rate:.4f}, ks14 upper rate "
            f"{ks14.violation_rate:.4f} (both <= 0.1 + 3SE); matcher rate "
            f"{matcher.violation_rate:.4f} <= bound "
            f"{matcher.theoretical_bound:.4f} + 3SE")


def test_criterion_8_cli_determinism(tmp_path):
    outputs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        inst = base / "inst"
        cli.main(["generate", "--m", "40", "--n", "30", "--r", "3",
                  "--epsilon", "0.01", "--seed", "5", "--out", str(inst)])
        cli.main(["run", "--instance", str(inst), "--delta", "0.05",
                  "--seed", "6", "--out", str(base / "run")])
        cli.main(["sweep", "--m", "30", "--n", "20", "--r", "2",
                  "--epsilon", "0,0.02", "--trials", "2", "--seed", "7",
                  "--out", str(base / "sweep")])
        cli.main(["verify", "--names", "kcoh,ind", "--trials", "100",
                  "--seed", "8", "--out", str(base / "verify")])
        outputs[tag] = {
            rel: (base / rel).read_bytes()
            for rel in ("inst/L.mat", "inst/M.mat", "inst/meta",
                        "run/results.csv", "run/summary.csv", "run/manifest",
                        "sweep/sweep.csv", "verify/verify.csv")
        }
    mismatched = [rel for rel in outputs["first"]
                  if outputs["first"][rel] != outputs["second"][rel]]
    ok = not mismatched
    _report(8, ok,
            f"reruns byte-identical across generate/run/sweep/verify "
            f"(mismatches: {mismatched or 'none'})")


def test_criterion_9_observation_accounting(noiseless_batch, noisy_batch):
    mismatches = 0
    total = 0
    for runs in (noiseless_batch[0], noisy_batch[0]):
        for run in runs:
            total += 1
            if not (run["observations"] == run["entry_count"]
                    == run["spy_count"]):
                mismatches += 1
    ok = mismatches == 0
    _report(9, ok,
            f"oracle entry_count equals the independently tracked revealed "
            f"set on all {total} runs ({mismatches} mismatches)")
