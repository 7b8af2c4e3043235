"""
Command-line front end.

Four subcommands, all emitting plain text or CSV for external tooling:

generate   write a synthetic instance bundle (L.mat, M.mat, meta)
run        run the adaptive completion against a saved instance
sweep      run a parameter grid, one CSV row per (cell, trial)
verify     run the inequality checks, one CSV row per check

Every behavior here is a thin shell over the library API: identical
seeds give identical results either way, and reruns with identical flags
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .linalg import coherence
from .lrebn import (
    _OMEGA_REDRAWS,
    LrebnConfig,
    recovery_errors,
    run_lrebn,
)
from .sampling import RngState, _check_int
from .synthetic import (
    _COHERENCE_MODES,
    _NOISE_MODES,
    ObservationOracle,
    _check_rank,
    _load_matrices,
    _load_meta,
    make_instance,
    save_instance,
)
from .verify import CHECK_NAMES, run_check

# Stream labels for sweep-cell derivation.
_STREAM_SWEEP_INSTANCE = 100
_STREAM_SWEEP_RUN = 101


def _int_list(text):
    return _nonempty([int(s) for s in text.split(",") if s != ""])


def _float_list(text):
    return _nonempty([float(s) for s in text.split(",") if s != ""])


def _nonempty(values):
    if not values:
        raise argparse.ArgumentTypeError("the list holds no value")
    return values


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if v is None:
        return ""
    s = str(v)
    if "," in s or "\n" in s:
        raise ValueError(f"CSV field may not contain commas or newlines: {s!r}")
    return s


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    _write_text(path, _csv_text(header, rows))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    inst = make_instance(
        args.m, args.n, args.r, args.epsilon, args.seed,
        coherence_mode=args.coherence_mode, noise_mode=args.noise_mode,
        spike_index=args.spike_index, spike_weight=args.spike_weight,
    )
    save_instance(args.out, inst, args.seed, args.noise_mode,
                  args.coherence_mode)
    print(f"coherence={coherence(inst.true_basis):.17g}")
    return 0


def _build_config(args, epsilon, r, meta):
    if args.mu_upper is not None:
        # A user-supplied bound goes to LrebnConfig unchanged, which
        # rejects anything that is not a finite number >= 1.
        mu = args.mu_upper
    elif args.estimate_mu:
        # Estimation mode must not peek at the instance's true coherence;
        # the first budget (nothing estimated yet) uses the floor value.
        mu = 1.0
    elif "mu" in meta:
        # The stored coherence is >= 1 only up to rounding (1e-9); any
        # other value goes to LrebnConfig unchanged, which rejects it.
        mu = float(meta["mu"])
        if 1.0 - 1e-9 <= mu < 1.0:
            mu = 1.0
    else:
        mu = 1.0
    return LrebnConfig(
        epsilon=epsilon,
        delta=args.delta,
        r=r,
        mu_upper=mu,
        estimate_mu=args.estimate_mu,
        seed=args.seed,
        **_ablation_settings(args),
    )


def _write_manifest(path, cfg):
    fields = [("epsilon", cfg.epsilon), ("delta", cfg.delta), ("r", cfg.r),
              ("mu_upper", cfg.mu_upper), ("seed", cfg.seed),
              ("budget_cap_to_m", cfg.budget_cap_to_m),
              ("estimate_mu", cfg.estimate_mu),
              ("omega_redraw_policy", cfg.omega_redraw)]
    _write_text(path, "".join(f"{key}={_fmt(value)}\n"
                              for key, value in fields))


def cmd_run(args):
    # The config comes from meta alone, so a bad flag is refused before
    # either matrix is parsed.
    meta = _load_meta(args.instance)
    cfg = _build_config(args, float(meta["epsilon"]), int(meta["r"]), meta)
    L, M = _load_matrices(args.instance, meta)
    oracle = ObservationOracle(M)
    result = run_lrebn(oracle, cfg)
    errors = recovery_errors(result, L)

    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "results.csv"),
        ["col_index", "mode", "k_at_time", "d_at_time", "theta_tilde",
         "residual", "threshold", "col_error_vs_L"],
        [(rec.index, rec.mode, rec.k, rec.d, rec.theta_tilde, rec.residual,
          rec.threshold, float(errors[rec.index]))
         for rec in result.column_records],
    )
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ["m", "n", "r", "epsilon", "delta", "k_final", "observations",
         "max_col_error", "mean_col_error", "bound_violations"],
        [(*M.shape, cfg.r, cfg.epsilon, cfg.delta, result.k_final,
          result.observations, float(errors.max()), float(errors.mean()),
          result.bound_violations)],
    )
    _write_manifest(os.path.join(args.out, "manifest"), cfg)
    return 0


def _sweep_cell(args, cell_index, m, n, r, epsilon, delta, trial):
    inst = make_instance(
        m, n, r, epsilon,
        RngState(args.seed, _STREAM_SWEEP_INSTANCE, cell_index, trial),
        noise_mode=args.noise_mode,
    )
    cfg = LrebnConfig(
        epsilon=epsilon, delta=delta, r=r,
        mu_upper=coherence(inst.true_basis),
        seed=RngState(args.seed, _STREAM_SWEEP_RUN, cell_index,
                      trial).derived_seed(),
        **_ablation_settings(args),
    )
    result = run_lrebn(ObservationOracle(inst.M), cfg)
    errors = recovery_errors(result, inst.L)
    theta_final = result.theta_trace[-1][1]
    return (m, n, r, epsilon, delta, trial, result.observations,
            result.k_final, float(errors.max()), theta_final)


def cmd_sweep(args):
    cells = [
        (m, n, r, epsilon, delta)
        for m in args.m
        for n in args.n
        for r in args.r
        for epsilon in args.epsilon
        for delta in args.delta
    ]
    # Reject out-of-model parameters before the first cell runs.
    _check_int("trials", args.trials)
    for m, n, r, epsilon, delta in cells:
        _check_rank(r, m, n)
        LrebnConfig(epsilon=epsilon, delta=delta, r=r)
    rows = [
        _sweep_cell(args, idx, *cell, trial)
        for idx, cell in enumerate(cells)
        for trial in range(args.trials)
    ]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        ["m", "n", "r", "epsilon", "delta", "trial", "observations",
         "k_final", "max_col_error", "theta_tilde_final"],
        rows,
    )
    return 0


def _report_row(report):
    params_json = json.dumps(report.params, sort_keys=True,
                             separators=(";", ":"))
    return (report.name, report.trials, report.violations,
            report.violation_rate, report.theoretical_bound,
            report.worst_margin, params_json, report.seed, report.verdict)


def cmd_verify(args):
    if args.names == "all":
        names = list(CHECK_NAMES)
    else:
        names = [s for s in args.names.split(",") if s != ""]
        if not names:
            raise ValueError(
                f"--names lists no check; choose from {CHECK_NAMES} or 'all'"
            )
        unknown = [s for s in names if s not in CHECK_NAMES]
        if unknown:
            raise ValueError(
                f"unknown check name(s) {unknown}; choose from {CHECK_NAMES}"
            )
    reports = [run_check(name, trials=args.trials, seed=args.seed)
               for name in names]

    header = ["name", "trials", "violations", "violation_rate",
              "theoretical_bound", "worst_margin", "params_json", "seed",
              "verdict"]
    content = _csv_text(header, [_report_row(rep) for rep in reports])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "verify.csv"), content)
    sys.stdout.write(content)
    failing = [rep.name for rep in reports if rep.verdict == "FAIL"]
    return 1 if failing else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_ablation_flags(p):
    p.add_argument("--no-budget-cap", dest="no_budget_cap",
                   action="store_true")
    p.add_argument("--omega-redraw", dest="omega_redraw",
                   choices=_OMEGA_REDRAWS, default=_OMEGA_REDRAWS[0])


def _ablation_settings(args):
    """The ``LrebnConfig`` fields set by ``_add_ablation_flags``."""
    return dict(budget_cap_to_m=not args.no_budget_cap,
                omega_redraw=args.omega_redraw)


def _add_algorithm_flags(p):
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--mu-upper", dest="mu_upper", type=float, default=None,
                   help="coherence upper bound for the true column space")
    p.add_argument("--estimate-mu", dest="estimate_mu", action="store_true",
                   help="heuristic: refresh mu from the estimated basis")
    _add_ablation_flags(p)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adaptive-mc",
        description="Adaptive low-rank completion under bounded column noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance bundle")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--noise-mode", dest="noise_mode",
                   choices=_NOISE_MODES, default=_NOISE_MODES[0])
    g.add_argument("--coherence-mode", dest="coherence_mode",
                   choices=_COHERENCE_MODES, default=_COHERENCE_MODES[0])
    g.add_argument("--spike-index", dest="spike_index", type=int, default=0)
    g.add_argument("--spike-weight", dest="spike_weight", type=float,
                   default=0.99)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run the completion on a saved instance")
    r.add_argument("--instance", required=True,
                   help="instance bundle directory")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    _add_algorithm_flags(r)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="parameter grid, one CSV row per trial")
    s.add_argument("--m", type=_int_list, required=True)
    s.add_argument("--n", type=_int_list, required=True)
    s.add_argument("--r", type=_int_list, required=True)
    s.add_argument("--epsilon", type=_float_list, required=True)
    s.add_argument("--delta", type=_float_list, default=[0.05])
    s.add_argument("--trials", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--noise-mode", dest="noise_mode",
                   choices=_NOISE_MODES, default=_NOISE_MODES[0])
    _add_ablation_flags(s)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the inequality checks")
    v.add_argument("--names", default="all",
                   help="comma-separated check names, or 'all'")
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    return parser


def _check_out(path):
    """ValueError when ``--out`` names an existing file that is not a
    directory: every subcommand writes into a directory, so such a call
    would fail only after all its work."""
    if path is not None and os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"--out {path} exists and is not a directory")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
