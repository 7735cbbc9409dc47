"""What each benchmark metric is expected to move.

Names and units of the metrics are in BENCHMARK.json. This table records,
for each per-layer metric, the end-to-end metric and workload it should
move when its layer gets faster (or, for guards, that it must not move),
so that a later change can state its prediction before measuring.
"""

E2E = ("wall_s", "setup_s", "run_s", "export_s", "peak_rss_mb")

MOVES = {
    "config.validate_s": "setup_s on sweep_small",
    "config.validate_calls": "setup_s on sweep_small",
    "config.load_self_s": "setup_s on sweep_small",
    "stack.discretize_s": "setup_s and run_s on steady_tsv",
    "stack.discretize_calls": "setup_s and run_s on steady_tsv (2 per pass "
                              "today, ideally 1)",
    "tsv.homogenize_s": "setup_s and run_s on steady_tsv",
    "tsv.homogenize_calls": "setup_s and run_s on steady_tsv",
    "solver.assemble_s": "setup_s and run_s on steady_tsv",
    "solver.assemble_calls": "setup_s and run_s on steady_tsv (2 per pass "
                             "today, ideally 1)",
    "solver.steady_s": "setup_s and run_s on steady_tsv",
    "solver.steady_calls": "setup_s and run_s on steady_tsv",
    "solver.steady_residual_max": "guard: a faster solve must not be looser",
    "solver.step_s": "run_s on transient_dtm; many tiny solves on sweep_small",
    "solver.step_calls": "run_s on transient_dtm",
    "solver.step_ms_p50": "run_s on transient_dtm",
    "solver.step_ms_p90": "run_s on transient_dtm",
    "solver.step_residual_max": "guard: a faster step must not be looser",
    "solver.unknowns_per_s": "run_s on transient_dtm",
    "solver.summary_s": "run_s on transient_dtm",
    "solver.summary_calls": "run_s on transient_dtm",
    "solver.energy_balance_rel": "guard: no end-to-end metric should move",
    "power.rasterize_s": "run_s on sweep_small and transient_dtm",
    "power.rasterize_calls": "run_s on sweep_small and transient_dtm",
    "sensors.place_s": "setup_s on sweep_small",
    "sensors.read_s": "run_s on sweep_small",
    "sensors.read_calls": "run_s on sweep_small",
    "sensors.hotspot_error_s": "run_s on sweep_small",
    "pdn.build_s": "run_s on steady_tsv",
    "pdn.currents_s": "run_s on steady_tsv",
    "pdn.solve_s": "run_s on steady_tsv",
    "pdn.solve_calls": "run_s on steady_tsv (2 per pass today)",
    "pdn.nodes": "run_s on steady_tsv (problem size, fixed per workload)",
    "reliability.report_s": "run_s on steady_tsv",
    "scenario.run_self_s": "run_s on transient_dtm",
    "scenario.render_s": "run_s on transient_dtm",
    "scenario.export_self_s": "export_s on steady_tsv",
    "scenario.policy_events": "run_s on transient_dtm (must repeat exactly)",
    "fields_io.csv_s": "export_s on steady_tsv",
    "fields_io.pgm_s": "export_s on steady_tsv",
    "fields_io.bytes_written": "export_s on steady_tsv",
    "trace.check_s": "none: the traced run's own residual checks",
    "trace.self_coverage": "none: share of traced wall time in spans",
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}
