"""The benchmark's three workloads.

Each workload measures one regime of ``adaptive_mc`` through its public
API and returns a ``Measurement``.  Every call into the program goes
through a module attribute looked up at call time (``amc.run_lrebn``,
``cli.main``), so a traced run sees it.

dense-clamped    2000 x 1500, r=10: every budget clamps to m, so each
                 column pays two full restricted solves against a
                 2000 x 10 block.
tall-subsampled  20000 x 400, r=2: the budget stays below m, the
                 paper's regime; per-column time is strided gathers and
                 writes of about 17k entries.
cli-suite        generate / run / sweep / verify through ``cli.main`` in
                 one process: the text matrix format and the CLI thread
                 pools.

Timing.  The measured phase repeats short units of work (one
``run_lrebn``, or one CLI subcommand) many times, with the set-up builds
spread among them.  Every unit is timed by a ``speed.Clock``, between
two probes of a fixed reference computation, and reported at the
reference speed (see ``speed.py``).  ``setup_s`` is the median over the
builds, ``run_s`` the median over the repetitions (summed over the
subcommands on cli-suite).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import adaptive_mc as amc
from adaptive_mc import cli

import gate
import metrics
import speed
import tracing

# Set-up is repeated and its median reported, so one slow build does not
# move setup_s.
SETUP_REPS = 5


def derive_seed(seed, label):
    """Independent 32-bit seed for one consumer of the benchmark seed
    (any integer, reduced modulo 2**64)."""
    seq = np.random.SeedSequence(entropy=int(seed) % 2**64,
                                 spawn_key=(label,))
    return int(seq.generate_state(1, dtype=np.uint32)[0])


@dataclass
class Measurement:
    # Untraced runs: a speed.Timing per set-up build, and per unit of
    # timed work ("run" for the library workloads, one per subcommand for
    # cli-suite) a speed.Timing per repetition.
    setup_times: list = field(default_factory=list)
    run_times: dict = field(default_factory=dict)
    observed_fraction: float = 0.0
    attempted: int = 0
    failed: int = 0
    # Per-subcommand wall times of the untraced round (traced cli-suite).
    phase_times: dict = field(default_factory=dict)
    # trace.overhead_s and trace.overhead_ratio (traced runs only).
    overhead: dict = field(default_factory=dict)
    tracer: tracing.Tracer | None = None

    def add_run_time(self, unit, timing):
        self.run_times.setdefault(unit, []).append(timing)

    def end_to_end(self, peak_rss_mb):
        return {
            "setup_s": speed.median_normalized(self.setup_times),
            "run_s": sum(speed.median_normalized(timings)
                         for timings in self.run_times.values()),
            "observed_fraction": self.observed_fraction,
            "peak_rss_mb": peak_rss_mb,
        }


def _overhead(traced, untraced):
    """Tracing cost: traced minus untraced wall time of one repetition."""
    return {"trace.overhead_s": traced - untraced,
            "trace.overhead_ratio": traced / untraced - 1.0}


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LibraryWorkload:
    m: int
    n: int
    r: int
    epsilon: float
    delta: float
    regime: str                   # "clamped" or "subsampled"
    # Coherence bound handed to the run; None means the true basis's
    # coherence.
    mu_upper: float | None = None

    def setup(self, seed):
        return amc.make_instance(self.m, self.n, self.r, self.epsilon,
                                 derive_seed(seed, 1))

    def config(self, inst, seed):
        mu = amc.coherence(inst.true_basis)
        if self.mu_upper is not None:
            if mu > self.mu_upper:
                raise gate.RegimeError(
                    f"true coherence {mu} exceeds the workload's bound "
                    f"{self.mu_upper}")
            mu = self.mu_upper
        return amc.LrebnConfig(epsilon=self.epsilon, delta=self.delta,
                               r=self.r, mu_upper=mu,
                               seed=derive_seed(seed, 2))

    def run_once(self, inst, cfg, oracle_cls):
        """Run on a fresh oracle: the timed unit of run_s."""
        oracle = oracle_cls(inst.M)
        result = amc.run_lrebn(oracle, cfg)
        errors = amc.recovery_errors(result, inst.L)
        return oracle, result, errors

    def failed(self, result, errors, expected_count, oracle_count):
        return gate.failed_columns(result, errors, self.m, self.epsilon,
                                   self.r, expected_count, oracle_count)

    def measure(self, seed, seconds, trace):
        meas = Measurement()
        if trace:
            meas.tracer = tracing.Tracer()
            with tracing.installed(meas.tracer):
                inst = self.setup(seed)
            timer = _timed
        else:
            timer = speed.Clock().time
            inst, timing = timer(self.setup, seed)
            meas.setup_times.append(timing)
        cfg = self.config(inst, seed)

        # Warm-up repetition, excluded from run_s: reads go through a spy
        # whose independent count every later repetition must reproduce.
        (spy, result, errors), _ = timer(self.run_once, inst, cfg,
                                         gate.SpyOracle)
        expected = spy.independent_count()
        meas.attempted += self.n
        meas.failed += self.failed(result, errors, expected, spy.entry_count)
        meas.observed_fraction = spy.entry_count / (self.m * self.n)
        gate.check_library_regime(self.regime, result, self.m,
                                  meas.observed_fraction)
        spy = result = errors = None

        def repetition():
            (oracle, result, errors), timing = timer(
                self.run_once, inst, cfg, amc.ObservationOracle)
            meas.attempted += self.n
            meas.failed += self.failed(result, errors, expected,
                                       oracle.entry_count)
            return timing

        if trace:
            untraced = repetition()
            with tracing.installed(meas.tracer):
                traced = repetition()
            meas.overhead = _overhead(traced, untraced)
            return meas

        def timed_repetition():
            timing = repetition()
            meas.add_run_time("run", timing)
            return timing.elapsed

        def rebuild():
            nonlocal inst
            inst = None                    # free the last copy first
            inst, timing = timer(self.setup, seed)
            meas.setup_times.append(timing)

        _interleave(meas, seconds, timed_repetition, rebuild)
        return meas


def _interleave(meas, seconds, repetition, rebuild):
    """Alternate timed repetitions with the remaining set-up builds until
    SETUP_REPS builds are done and the repetitions total ``seconds``.

    Spreading both kinds of sample over the whole run keeps one stretch
    of the run from setting either median.  ``repetition`` records its
    own timings and returns their wall seconds.
    """
    total = 0.0
    while True:
        total += repetition()
        if len(meas.setup_times) < SETUP_REPS:
            rebuild()
        if len(meas.setup_times) == SETUP_REPS and total >= seconds:
            return


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliSuite:
    m: int = 500
    n: int = 1000
    r: int = 5
    epsilon: float = 0.01
    sweep_args: tuple = ("--m", "60,120", "--n", "80", "--r", "2,4",
                         "--epsilon", "0,0.01,0.05", "--trials", "4")
    # Default trials make one verify call take about 16 s with two workers.
    # 500 trials per check keep every check and the pool and make a round
    # of run, sweep and verify short enough that the measured phase holds
    # several rounds to take the median of.
    verify_trials: int = 500
    workdir: str = ".perfbench_out/cli-suite/work"

    def _call(self, meas, argv):
        """One subcommand through ``cli.main``; output is discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv))
        meas.attempted += 1
        meas.failed += rc != 0
        return rc

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def generate(self, meas, seed):
        self._call(meas, [
            "generate", "--m", str(self.m), "--n", str(self.n),
            "--r", str(self.r), "--epsilon", str(self.epsilon),
            "--seed", str(derive_seed(seed, 1)), "--out", self._path("inst")])

    def round(self, meas, seed, timer, tracer=None):
        """run, sweep and verify once, each timed by ``timer``; returns
        the per-subcommand timings."""
        steps = {
            "run": ["run", "--instance", self._path("inst"),
                    "--seed", str(derive_seed(seed, 2)),
                    "--out", self._path("run")],
            "sweep": ["sweep", *self.sweep_args,
                      "--seed", str(derive_seed(seed, 3)),
                      "--out", self._path("sweep")],
            "verify": ["verify", "--names", "all",
                       "--trials", str(self.verify_trials),
                       "--seed", str(derive_seed(seed, 4)),
                       "--out", self._path("verify")],
        }
        checks = {"run": self._check_run, "sweep": self._check_sweep,
                  "verify": self._check_verify}
        times = {}
        for name, argv in steps.items():
            span = (tracer.span(f"bench.{name}") if tracer
                    else contextlib.nullcontext())
            with span:
                rc, times[name] = timer(self._call, meas, argv)
            if rc == 0:
                checks[name](meas)
        return times

    def _check_run(self, meas):
        ok, observations = gate.check_run_outputs(
            self._path("run"), self.m, self.n, self.r, self.epsilon)
        meas.failed += not ok
        meas.observed_fraction = observations / (self.m * self.n)

    def _check_sweep(self, meas):
        rows, failed = gate.failed_sweep_rows(self._path("sweep/sweep.csv"))
        meas.attempted += rows
        meas.failed += failed

    def _check_verify(self, meas):
        rows, failed = gate.failed_verify_checks(
            self._path("verify/verify.csv"))
        meas.attempted += rows
        meas.failed += failed

    def measure(self, seed, seconds, trace):
        shutil.rmtree(self.workdir, ignore_errors=True)
        meas = Measurement()
        if trace:
            meas.tracer = tracing.Tracer()
            with tracing.installed(meas.tracer):
                self.generate(meas, seed)
            untraced = self.round(meas, seed, _timed)
            with tracing.installed(meas.tracer):
                traced = self.round(meas, seed, _timed, meas.tracer)
            meas.phase_times = untraced
            meas.overhead = _overhead(sum(traced.values()),
                                      sum(untraced.values()))
            return meas
        clock = speed.Clock()

        def rebuild():
            _, timing = clock.time(self.generate, meas, seed)
            meas.setup_times.append(timing)

        def repetition():
            times = self.round(meas, seed, clock.time)
            for name, timing in times.items():
                meas.add_run_time(name, timing)
            return sum(t.elapsed for t in times.values())

        rebuild()
        _interleave(meas, seconds, repetition, rebuild)
        return meas


WORKLOADS = {
    "dense-clamped": LibraryWorkload(
        m=2000, n=1500, r=10, epsilon=0.01, delta=0.05, regime="clamped"),
    # The budget must not depend on the seed, or run_s and
    # observed_fraction would spread with it.  Two seed-driven terms are
    # held down: the coherence term uses a fixed bound of 20 instead of
    # the per-seed coherence (about ln(20000) + Gumbel, so above 20 with
    # probability near 20000 * e^-20 = 4e-5; config() refuses such an
    # instance), and epsilon = 0.001 keeps the angle term, which follows
    # the angle between the first two fired columns, below 650 rows.
    "tall-subsampled": LibraryWorkload(
        m=20000, n=400, r=2, epsilon=0.001, delta=0.09, regime="subsampled",
        mu_upper=20.0),
    "cli-suite": CliSuite(),
}


def layer_metrics(meas):
    """Per-layer values of a traced measurement, with units."""
    values = metrics.layer_values(meas.tracer, meas.phase_times)
    values.update(meas.overhead)
    bad = tracing.nesting_errors(meas.tracer.spans)
    if bad:
        raise RuntimeError(f"{len(bad)} spans do not fit in their parent, "
                           f"first {bad[0]}")
    return metrics.with_units(values, metrics.PER_LAYER)
