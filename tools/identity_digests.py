"""Print SHA-256 digests of everything the instance generator decides.

Run it on two trees and diff the outputs to show that a change keeps the
generated bits:

    PYTHONPATH=src python tools/identity_digests.py > after.txt

Each line is a label and the first 16 hex digits of a SHA-256:

* ``inst``: the bytes of ``make_instance(...).L`` and ``.M`` for shapes
  that cover both noise modes, spiked coherence, epsilon = 0, a single
  column taller than one row block, two columns and several row blocks;
  ``zero-noise``: ``add_bounded_noise`` with epsilon = 0 on an ``L``
  holding ``-0.0`` entries.
* ``oracle``: the store an ``ObservationOracle`` builds from the
  3000x300 sphere instance's ``M`` as given (C-ordered), from an F-order
  copy and from a strided view (every other column): the store's bytes
  in memory order and its F-contiguous and read-only flags.
* ``report``: each ``verify.run_check`` report at default trials for
  seeds 0, 1 and 7, and for the same seeds the reports of a few
  overrides.  conc at d = 40: its default budget clamps to d = m = 200,
  where every row is sampled, so only a sub-sampled d shows which rows a
  trial reads.  conc at k = 1 (default d and d = 40), which fits against
  0-dimensional bases; matcher at epsilon_chern = 0, where the tail
  bound is r; ks14 at d = 1, where no trial is applicable, so every
  chunk fits an empty stack.  Then every trial-driven check at 200
  trials for seeds whose trial keys hash more than one seed word
  (``2**32 + 1``, ``2**64 + 5``) and for an ``RngState`` seed with a
  label of its own (``RngState(5, 2**32)``, a two-word label).
* ``cli``: each file the CLI writes for a fixed ``generate``, ``run``,
  ``sweep`` and ``verify``, the reruns that must stay byte-identical.
* ``file``: the ``write_matrix`` bytes of an edge matrix (signed zeros,
  the smallest subnormal, +-1e308, +-inf, nan, and powers of ten from
  1e-12 to 1e12 with their one-ulp neighbours, which include the edges of
  the writer's fast window) and of the 3000x300 sphere instance's ``M``.
* ``read``: the bytes of ``read_matrix`` on every matrix file above (the
  CLI's ``L.mat`` and ``M.mat`` and both ``file`` matrices), so a change
  to the reader can be diffed the same way.
* ``run``: one ``run_lrebn`` call per row-pattern redraw mode on a
  2000x60 instance where every budget stays below m, so the run reads
  sub-sampled columns (the CLI's 40x30 run clamps every budget to m),
  and one with ``estimate_mu`` on the same instance, where the refreshed
  budgets clamp to m: the repr of its ``column_records`` and
  ``budget_trace``, the bytes of its ``coefs`` and its ``observations``.
  Then a 200x60 instance where every budget formula exceeds m, run with
  and without ``budget_cap_to_m``: the two lines differ, because the
  uncapped run's thresholds use the formula's value.  Last, a 2000x300
  instance at r = 10 with ``mu_upper`` the true basis's coherence, where
  every budget clamps to m and k reaches 10, so every read is a
  full-row pattern: the same digest plus the bytes of its
  ``recovery_errors``.

The digests of ``L`` depend on the BLAS build, so compare two trees on
one machine; the script is not a test.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

from adaptive_mc import cli
from adaptive_mc.linalg import OrthonormalBasis, coherence
from adaptive_mc.lrebn import LrebnConfig, recovery_errors, run_lrebn
from adaptive_mc.sampling import RngState
from adaptive_mc.synthetic import (ObservationOracle, add_bounded_noise,
                                   make_instance, read_matrix, write_matrix)
from adaptive_mc.verify import CHECK_NAMES, run_check

# (m, n, r, epsilon, seed, noise_mode, coherence_mode)
INSTANCES = [
    (2000, 1500, 10, 0.05, 1, "sphere", "incoherent"),
    (20000, 400, 2, 0.05, 1, "sphere", "incoherent"),
    (60, 80, 3, 0.1, 4, "sphere", "spiked"),
    (5, 5, 5, 0.2, 2, "scaled-gaussian", "incoherent"),
    (3000, 300, 4, 0.05, 3, "sphere", "incoherent"),
    (3000, 300, 4, 0.05, 3, "scaled-gaussian", "incoherent"),
    (300, 500, 2, 0.2, 9, "scaled-gaussian", "spiked"),
    (200000, 1, 1, 0.1, 5, "sphere", "incoherent"),
    (200000, 1, 1, 0.1, 5, "scaled-gaussian", "incoherent"),
    (1000, 2, 2, 0.1, 6, "sphere", "incoherent"),
    (1000, 2, 1, 0.05, 6, "scaled-gaussian", "incoherent"),
    (400, 300, 3, 0.0, 7, "sphere", "incoherent"),
    (1, 7, 1, 0.1, 8, "sphere", "incoherent"),
]

CLI_COMMANDS = [
    ["generate", "--m", "40", "--n", "30", "--r", "3", "--epsilon", "0.01",
     "--seed", "5", "--out", "{tmp}/inst"],
    ["run", "--instance", "{tmp}/inst", "--delta", "0.05", "--seed", "6",
     "--out", "{tmp}/run"],
    ["sweep", "--m", "30", "--n", "20", "--r", "2", "--epsilon", "0,0.02",
     "--trials", "2", "--seed", "7", "--out", "{tmp}/sweep"],
    ["verify", "--names", "kcoh,ind", "--trials", "100", "--seed", "8",
     "--out", "{tmp}/verify"],
]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def edge_matrix():
    powers = 10.0 ** np.arange(-12, 13)
    near = np.concatenate([powers, np.nextafter(powers, 0),
                           np.nextafter(powers, np.inf)])
    special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf,
               np.nan]
    return np.concatenate([special, near, -near]).reshape(-1, 3)


def file_digest(path):
    with open(path, "rb") as fh:
        return digest(fh.read())


def read_digest(path):
    return digest(read_matrix(path).tobytes())


def report_bytes(rep):
    return repr((rep.name, rep.trials, rep.violations, repr(rep.worst_margin),
                 repr(sorted(rep.params.items())), rep.denominator,
                 repr(rep.theoretical_bound), rep.seed, rep.not_applicable,
                 rep.verdict)).encode()


def run_bytes(result):
    return (repr((result.column_records, result.budget_trace)).encode()
            + result.coefs.tobytes() + repr(result.observations).encode())


def main():
    for m, n, r, eps, seed, noise, coh in INSTANCES:
        inst = make_instance(m, n, r, eps, seed, coherence_mode=coh,
                             noise_mode=noise)
        label = f"inst {m}x{n} r={r} eps={eps} seed={seed} {noise} {coh}"
        print(f"{label}: L {digest(inst.L.tobytes())} "
              f"M {digest(inst.M.tobytes())}")

    L = -np.eye(6, 4)
    inst = add_bounded_noise(L, 0.0, RngState(0), OrthonormalBasis(np.eye(6, 4)))
    print(f"zero-noise 6x4 with -0.0 in L: M {digest(inst.M.tobytes())}")

    M = make_instance(3000, 300, 4, 0.05, 3).M
    for label, hidden in (("C", M), ("F copy", np.asfortranarray(M)),
                          ("strided view", M[:, ::2])):
        store = ObservationOracle(hidden)._hidden
        flags = repr((store.flags.f_contiguous, store.flags.writeable))
        print(f"oracle M 3000x300 r=4 eps=0.05 seed=3 sphere {label}: "
              f"{digest(store.tobytes(order='A') + flags.encode())}")

    for seed in (0, 1, 7):
        print(f"report seed={seed}: " + ", ".join(
            f"{name} {digest(report_bytes(run_check(name, seed=seed)))}"
            for name in CHECK_NAMES))
    for label, name, overrides in (
            ("conc d=40", "conc", dict(d=40)),
            ("conc k=1", "conc", dict(k=1)),
            ("conc k=1 d=40", "conc", dict(k=1, d=40)),
            ("matcher epsilon_chern=0", "matcher", dict(epsilon_chern=0.0)),
            ("ks14 d=1", "ks14", dict(d=1))):
        for seed in (0, 1, 7):
            rep = run_check(name, seed=seed, **overrides)
            print(f"report {label} seed={seed}: {digest(report_bytes(rep))}")
    for label, seed in (("2**32+1", 2**32 + 1), ("2**64+5", 2**64 + 5),
                        ("RngState(5, 2**32)", RngState(5, 2**32))):
        print(f"report trials=200 seed={label}: " + ", ".join(
            f"{name} "
            f"{digest(report_bytes(run_check(name, trials=200, seed=seed)))}"
            for name in CHECK_NAMES if name != "ededler"))

    inst = make_instance(2000, 60, 2, 0.01, 4)
    for redraw in ("on-update", "per-column"):
        cfg = LrebnConfig(epsilon=0.01, delta=0.09, r=2, mu_upper=1.0,
                          seed=4, omega_redraw=redraw)
        result = run_lrebn(ObservationOracle(inst.M), cfg)
        if max(ev.d_drawn for ev in result.budget_trace) >= 2000:
            raise SystemExit(f"{redraw} run clamped a budget to m")
        print(f"run 2000x60 r=2 eps=0.01 delta=0.09 seed=4 {redraw}: "
              f"{digest(run_bytes(result))}")
    cfg = LrebnConfig(epsilon=0.01, delta=0.09, r=2, mu_upper=1.0, seed=4,
                      estimate_mu=True)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    print("run 2000x60 r=2 eps=0.01 delta=0.09 seed=4 estimate_mu=True: "
          f"{digest(run_bytes(result))}")

    inst = make_instance(200, 60, 2, 0.01, 4)
    for cap in (True, False):
        cfg = LrebnConfig(epsilon=0.01, delta=0.09, r=2, mu_upper=1.0,
                          seed=4, budget_cap_to_m=cap)
        result = run_lrebn(ObservationOracle(inst.M), cfg)
        if min(ev.d_formula for ev in result.budget_trace) <= 200:
            raise SystemExit("a 200x60 budget stayed within m")
        print(f"run 200x60 r=2 eps=0.01 delta=0.09 seed=4 "
              f"budget_cap_to_m={cap}: {digest(run_bytes(result))}")

    inst = make_instance(2000, 300, 10, 0.01, 1)
    cfg = LrebnConfig(epsilon=0.01, delta=0.05, r=10,
                      mu_upper=coherence(inst.true_basis), seed=1)
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    if (result.basis.dim < 10
            or min(ev.d_drawn for ev in result.budget_trace) < 2000):
        raise SystemExit("the 2000x300 run read a sub-sampled column or "
                         "stopped below k = 10")
    errors = recovery_errors(result, inst.L).tobytes()
    print("run 2000x300 r=10 eps=0.01 delta=0.05 seed=1 clamped: "
          f"{digest(run_bytes(result) + errors)}")

    with tempfile.TemporaryDirectory() as tmp:
        stdout = sys.stdout
        sys.stdout = open(os.devnull, "w")
        try:
            for argv in CLI_COMMANDS:
                rc = cli.main([a.format(tmp=tmp) for a in argv])
                if rc != 0:
                    raise SystemExit(f"{argv[0]} exited {rc}")
        finally:
            sys.stdout.close()
            sys.stdout = stdout
        for sub in ("inst", "run", "sweep", "verify"):
            for name in sorted(os.listdir(os.path.join(tmp, sub))):
                print(f"cli {sub}/{name}: "
                      f"{file_digest(os.path.join(tmp, sub, name))}")

        for name in ("L.mat", "M.mat"):
            print(f"read cli inst/{name}: "
                  f"{read_digest(os.path.join(tmp, 'inst', name))}")

        edges = edge_matrix()
        inst = make_instance(3000, 300, 4, 0.05, 3)
        path = os.path.join(tmp, "a.mat")
        for label, a in (
                (f"edge matrix {edges.shape[0]}x{edges.shape[1]}", edges),
                ("M 3000x300 r=4 eps=0.05 seed=3 sphere", inst.M)):
            write_matrix(path, a)
            print(f"file {label}: {file_digest(path)}")
            print(f"read {label}: {read_digest(path)}")


if __name__ == "__main__":
    main()
