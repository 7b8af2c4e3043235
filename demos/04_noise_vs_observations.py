"""How the observation count responds to the noise level.

Larger noise inflates theta_tilde and with it the adaptive budget
(72 mu r ln^2(1/delta) + 8 m theta^2 ln(r/delta)), so the number of
revealed entries grows with epsilon until it saturates at full sampling.

The budget only adapts visibly while it stays below m, which requires a
genuinely incoherent column space and a large ambient dimension: a
Gaussian basis has coherence ~ 2 ln(m) and keeps the formula above m at
desk scale (the runs still work, they just read every row).  A basis of
sampled cosine waves has coherence <= 2 at any m, so the adaptation
shows.
"""

import numpy as np

from adaptive_mc import (
    LrebnConfig,
    ObservationOracle,
    add_bounded_noise,
    coherence,
    initial_budget,
    orthonormalize,
    recovery_errors,
    run_lrebn,
)

m, n, r, delta, trials = 4000, 40, 3, 0.09, 5

rows = np.arange(m)
waves = [np.cos(2.0 * np.pi * (f + 1) * rows / m) for f in range(r)]
basis = orthonormalize(waves)
print(f"cosine-wave basis: coherence {coherence(basis):.3f} (<= 2)\n")

print(f"{'epsilon':>8s} {'d_init':>7s} {'mean obs':>10s} {'of total':>9s} "
      f"{'mean max err':>13s}")
for epsilon in (0.0, 0.005, 0.02, 0.05):
    obs, errs = [], []
    d_init = None
    for trial in range(trials):
        gen = np.random.default_rng(trial)
        coeff = gen.standard_normal((r, n))
        coeff /= np.linalg.norm(coeff, axis=0)
        L = basis.matrix @ coeff
        inst = add_bounded_noise(L, epsilon, gen, true_basis=basis)
        cfg = LrebnConfig(epsilon=epsilon, delta=delta, r=r,
                          mu_upper=coherence(basis), seed=trial)
        d_init = initial_budget(cfg, m)
        result = run_lrebn(ObservationOracle(inst.M), cfg)
        obs.append(result.observations)
        errs.append(recovery_errors(result, inst.L).max())
    print(f"{epsilon:8.3f} {d_init:7d} {np.mean(obs):10.0f} "
          f"{np.mean(obs) / (m * n):9.1%} {np.mean(errs):13.4e}")
