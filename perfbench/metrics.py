"""Names, units and directions of every metric the benchmark reports, and
the extraction of the per-layer metrics from a traced run.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

from tracing import SpanIndex

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "observed_fraction": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CHECKS = ("kcoh", "noisycoh", "ind", "conc", "ks14", "matcher", "ededler",
          "blum")

PER_LAYER = {
    "linalg.restricted_lstsq_calls": ("count", "lower"),
    "linalg.restricted_lstsq_s": ("s", "lower"),
    "linalg.reconstruct_column_calls": ("count", "lower"),
    "linalg.reconstruct_column_s": ("s", "lower"),
    "linalg.degenerate_fits": ("count", "lower"),
    "linalg.orthonormalize_calls": ("count", "lower"),
    "linalg.orthonormalize_s": ("s", "lower"),
    "linalg.angle_s": ("s", "lower"),
    "linalg.coherence_s": ("s", "lower"),
    "sampling.sample_uniform_subset_calls": ("count", "lower"),
    "sampling.sample_uniform_subset_s": ("s", "lower"),
    "synthetic.generate_low_rank_s": ("s", "lower"),
    "synthetic.add_bounded_noise_s": ("s", "lower"),
    "synthetic.oracle_entries_calls": ("count", "lower"),
    "synthetic.oracle_entries_s": ("s", "lower"),
    "synthetic.oracle_entries_read": ("count", "lower"),
    "synthetic.oracle_column_calls": ("count", "lower"),
    "synthetic.oracle_column_s": ("s", "lower"),
    "synthetic.write_matrix_s": ("s", "lower"),
    "synthetic.write_matrix_bytes": ("bytes", "lower"),
    "synthetic.read_matrix_s": ("s", "lower"),
    "lrebn.run_lrebn_s": ("s", "lower"),
    "lrebn.self_s": ("s", "lower"),
    "lrebn.col_us": ("us", "lower"),
    "lrebn.full_reads": ("count", "lower"),
    "lrebn.subspace_updates": ("count", "higher"),
    "lrebn.useful_full_read_ratio": ("ratio", "higher"),
    "lrebn.budget_clamped_events": ("count", "lower"),
    **{f"verify.{c}_s": ("s", "lower") for c in CHECKS},
    **{f"verify.{c}_trials": ("count", "higher") for c in CHECKS},
    "verify.fail_verdicts": ("count", "lower"),
    "cli.workers": ("count", "higher"),
    "cli.sweep_tasks": ("count", "higher"),
    "cli.verify_parallel_ratio": ("ratio", "higher"),
    "cli.sweep_parallel_ratio": ("ratio", "higher"),
    "cli.run_wall_s": ("s", "lower"),
    "cli.sweep_wall_s": ("s", "lower"),
    "cli.verify_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

_ANGLES = ("linalg.vector_vector_angle", "linalg.vector_subspace_angle",
           "linalg.subspace_subspace_angle")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer, cli_walls):
    """Per-layer values (without units) from one traced run.

    ``cli.workers`` is the number of distinct threads that ran verify
    checks or sweep tasks.  ``cli_walls`` maps each CLI subcommand to its
    untraced wall time and is empty for the library workloads.  The
    benchmark's own spans ``bench.sweep`` and ``bench.verify`` give the
    traced wall time that the parallel ratios divide by.
    """
    ix = SpanIndex(tracer.spans)
    c = tracer.counters
    run_s = ix.seconds("lrebn.run_lrebn")
    values = {
        "linalg.restricted_lstsq_calls": ix.calls("linalg.restricted_lstsq"),
        "linalg.restricted_lstsq_s": ix.seconds("linalg.restricted_lstsq"),
        "linalg.reconstruct_column_calls":
            ix.calls("linalg.reconstruct_column"),
        "linalg.reconstruct_column_s": ix.seconds("linalg.reconstruct_column"),
        "linalg.degenerate_fits": c["linalg.degenerate_fits"],
        "linalg.orthonormalize_calls": ix.calls("linalg.orthonormalize"),
        "linalg.orthonormalize_s": ix.seconds("linalg.orthonormalize"),
        "linalg.angle_s": ix.seconds(*_ANGLES),
        "linalg.coherence_s": ix.seconds("linalg.coherence",
                                         "linalg.vector_coherence"),
        "sampling.sample_uniform_subset_calls":
            ix.calls("sampling.sample_uniform_subset"),
        "sampling.sample_uniform_subset_s":
            ix.seconds("sampling.sample_uniform_subset"),
        "synthetic.generate_low_rank_s":
            ix.seconds("synthetic.generate_low_rank"),
        "synthetic.add_bounded_noise_s":
            ix.seconds("synthetic.add_bounded_noise"),
        "synthetic.oracle_entries_calls": ix.calls("synthetic.oracle_entries"),
        "synthetic.oracle_entries_s": ix.seconds("synthetic.oracle_entries"),
        "synthetic.oracle_entries_read": c["synthetic.oracle_entries_read"],
        "synthetic.oracle_column_calls": ix.calls("synthetic.oracle_column"),
        "synthetic.oracle_column_s": ix.seconds("synthetic.oracle_column"),
        "synthetic.write_matrix_s": ix.seconds("synthetic.write_matrix"),
        "synthetic.write_matrix_bytes": c["synthetic.write_matrix_bytes"],
        "synthetic.read_matrix_s": ix.seconds("synthetic.read_matrix"),
        "lrebn.run_lrebn_s": run_s,
        "lrebn.self_s": ix.self_seconds("lrebn.run_lrebn"),
        "lrebn.col_us": _ratio(run_s * 1e6, c["lrebn.columns"]),
        "lrebn.full_reads": c["lrebn.full_reads"],
        "lrebn.subspace_updates": c["lrebn.subspace_updates"],
        "lrebn.useful_full_read_ratio":
            _ratio(c["lrebn.subspace_updates"], c["lrebn.full_reads"]),
        "lrebn.budget_clamped_events": c["lrebn.budget_clamped_events"],
        "verify.fail_verdicts": c["verify.fail_verdicts"],
        "cli.workers": max(ix.threads("verify.run_check"),
                           ix.threads("cli.sweep_task")),
        "cli.sweep_tasks": ix.calls("cli.sweep_task"),
        "cli.verify_parallel_ratio": _ratio(ix.seconds("verify.run_check"),
                                            ix.seconds("bench.verify")),
        "cli.sweep_parallel_ratio": _ratio(ix.seconds("cli.sweep_task"),
                                           ix.seconds("bench.sweep")),
        "cli.run_wall_s": cli_walls.get("run", 0.0),
        "cli.sweep_wall_s": cli_walls.get("sweep", 0.0),
        "cli.verify_wall_s": cli_walls.get("verify", 0.0),
        "trace.spans": len(tracer.spans),
    }
    for check in CHECKS:
        values[f"verify.{check}_s"] = ix.seconds(f"verify.check_{check}")
        values[f"verify.{check}_trials"] = c[f"verify.{check}_trials"]
    return values


def with_units(values, table):
    """Attach units in the result-line format ``{name: {value, unit}}``."""
    return {name: {"value": values[name], "unit": table[name][0]}
            for name in table}
