"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``         — one (workload, scheme) simulation, print statistics
* ``compare``     — all schemes on one workload (a Figs. 11/12 slice)
* ``experiment``  — regenerate one paper artifact (table1, fig11..fig17)
* ``crash-sweep`` — crash NVOverlay at many points, verify recovery (§V-B)
* ``workloads``   — list registered workload names
* ``trace``       — capture a workload's op stream to a trace file, or
  (``--protocol``) run with the invariant oracle armed and export the
  structured protocol-event trace as JSONL
* ``diff``        — differential check: one workload trace replayed under
  several schemes, final images and snapshots cross-checked
* ``scaling``     — sweep 4→64 cores across schemes, print the paper-style
  overhead-vs-cores curve (``--oracle`` invariant-checks every run)
* ``load``        — run a registered multi-tenant traffic scenario
  (``--list`` enumerates the ``repro.load`` registry; ``--crash-at``
  kills a worker mid-run, recovers, resumes)
* ``serve``       — snapshot query engine: concurrent epoch-pinned reader
  sessions over a live write stream, with version GC under session pins;
  compares a serving cell against the same write-only run
* ``cache``       — inspect (``info``) or empty (``clear``) the result cache
* ``bench``       — time the simulator itself; track ``BENCH_sim_throughput.json``

The simulating commands (``run``/``bench``/``scaling``/``crash-sweep``/
``load``/``serve``) share one option surface: ``--jobs N`` (process-pool fan-out),
``--no-cache`` (bypass the on-disk result cache under
``$REPRO_CACHE_DIR`` / ``~/.cache/repro``), ``--oracle`` (arm the
protocol invariant oracle) and ``--json`` (machine-readable JSON on
stdout instead of tables).  Per-cell progress streams to stderr;
rendered tables go to stdout.

Examples::

    python -m repro run --workload btree --scheme nvoverlay --scale 0.3
    python -m repro compare --workload kmeans --jobs 4
    python -m repro experiment fig11 --jobs 2 --scale 0.05
    python -m repro experiment fig13 --no-cache
    python -m repro crash-sweep --workload uniform --scale 0.1 --jobs 2
    python -m repro load --list
    python -m repro load --scenario burst --crash-at 0.5
    python -m repro load --scenario steady --quick --oracle --json
    python -m repro serve --quick --oracle
    python -m repro serve --sessions 64 --mode open --reads-per-txn 2
    python -m repro cache info
    python -m repro trace --workload art --scale 0.1 --out art.trace
    python -m repro trace --protocol --workload btree --scheme nvoverlay \\
        --scale 0.1 --out btree.jsonl
    python -m repro diff --workload uniform --scale 0.1 --oracle
    python -m repro bench --quick --check
    python -m repro bench --scenarios uniform_nvoverlay --profile 15
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .harness import experiments, report
from .harness.bench import REGRESSION_THRESHOLD as BENCH_REGRESSION_THRESHOLD
from .harness.cache import RunCache
from .harness.runner import SCHEMES, compare, run_one
from .harness.spec import RunSpec
from .workloads import capture_trace, make_workload, save_trace, workload_names

EXPERIMENTS = {
    "table1": lambda args, opts: _render_table1(),
    "fig11": lambda args, opts: _render_fig(
        experiments.fig11_normalized_cycles(
            workloads=opts.pop("workloads", None), scale=args.scale, **opts
        ),
        "Fig. 11: normalized cycles",
    ),
    "fig12": lambda args, opts: _render_fig(
        experiments.fig12_write_amplification(
            workloads=opts.pop("workloads", None), scale=args.scale, **opts
        ),
        "Fig. 12: write bytes normalized to NVOverlay",
    ),
    "fig13": lambda args, opts: _render_fig13(args, opts),
    "fig14": lambda args, opts: _render_fig14(args, opts),
    "fig15": lambda args, opts: _render_fig15(args, opts),
    "fig16": lambda args, opts: _render_fig16(args, opts),
    "fig17": lambda args, opts: _render_fig17(args, opts),
}


def _experiment_options(args) -> dict:
    """The jobs/cache/progress kwargs every experiment function takes."""
    opts = {
        "jobs": args.jobs,
        "cache": not args.no_cache,
        "progress": _print_progress,
    }
    if getattr(args, "workloads", None):
        opts["workloads"] = args.workloads.split(",")
    return opts


def _print_progress(cell) -> None:
    print(report.progress_line(cell), file=sys.stderr)


def _emit_json(payload) -> None:
    """Machine-readable command output: one JSON document on stdout."""
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _render_table1() -> str:
    rows = experiments.table1_qualitative()
    columns = sorted(next(iter(rows.values())))
    return report.format_table("Table I", columns, rows)


def _render_fig(data, title: str) -> str:
    schemes = sorted(next(iter(data.values())))
    return report.format_table(title, schemes, data)


def _render_fig13(args, opts) -> str:
    data = experiments.fig13_metadata_cost(
        workloads=opts.pop("workloads", None), scale=args.scale, **opts
    )
    rows = {w: {"pct_of_ws": pct} for w, pct in data.items()}
    return report.format_table("Fig. 13: Mmaster size", ["pct_of_ws"], rows)


def _render_fig14(args, opts) -> str:
    opts.pop("workloads", None)
    data = experiments.fig14_epoch_sensitivity(scale=args.scale, **opts)
    rows = {
        f"epoch={size}": {
            f"{scheme}.{metric.split('_')[-1]}": value
            for scheme, metrics in row.items()
            for metric, value in metrics.items()
        }
        for size, row in data.items()
    }
    columns = sorted(next(iter(rows.values())))
    return report.format_table("Fig. 14: epoch-size sensitivity (ART)", columns, rows)


def _render_fig15(args, opts) -> str:
    opts.pop("workloads", None)
    data = experiments.fig15_evict_reasons(scale=args.scale, **opts)
    parts = []
    for variant, rows in data.items():
        parts.append(
            report.format_table(
                f"Fig. 15 ({variant})",
                ["capacity", "coherence_log", "tag_walk"],
                rows,
            )
        )
    return "\n\n".join(parts)


def _render_fig16(args, opts) -> str:
    opts.pop("workloads", None)
    data = experiments.fig16_omc_buffer(scale=args.scale, **opts)
    columns = sorted({key for row in data.values() for key in row})
    return report.format_table("Fig. 16: OMC buffer", columns, data)


def _render_fig17(args, opts) -> str:
    opts.pop("workloads", None)
    series = experiments.fig17_bandwidth(scale=args.scale, bursty=args.bursty,
                                         **opts)
    title = "Fig. 17{}: NVM write bandwidth".format("b" if args.bursty else "a")
    return report.format_series(title, series)


def _cmd_run(args) -> int:
    spec = RunSpec(workload=args.workload, scheme=args.scheme,
                   scale=args.scale, seed=args.seed, oracle=args.oracle)
    if args.jobs and args.jobs > 1:
        print("note: run simulates a single cell; --jobs has nothing to "
              "fan out", file=sys.stderr)
    cache = None if args.no_cache else RunCache()
    record = run_one(spec, cache=cache)
    if args.json:
        _emit_json(record.to_dict())
        return 0
    print(f"workload:      {record.workload}")
    print(f"scheme:        {record.scheme}")
    print(f"cycles:        {record.cycles:,}")
    print(f"transactions:  {record.transactions:,}")
    print(f"stores:        {record.stores:,}")
    for category, value in sorted(record.nvm_bytes.items()):
        print(f"nvm bytes [{category}]: {value:,}")
    if record.evict_reasons:
        print(f"evict reasons: {record.evict_reasons}")
    for key, value in sorted(record.extra.items()):
        print(f"{key}: {value}")
    return 0


def _cmd_compare(args) -> int:
    template = RunSpec(workload=args.workload, scheme="ideal",
                       scale=args.scale, seed=args.seed)
    scheme_names = args.schemes.split(",") if args.schemes else None
    records = compare(template, scheme_names,
                      jobs=args.jobs, cache=not args.no_cache)
    # Bytes normalize against NVOverlay; with a --schemes subset that
    # excludes it the column would be meaningless, so drop it.
    has_norm_bytes = "normalized_write_bytes" in records.get(
        "nvoverlay", records["ideal"]
    ).extra
    rows = {
        name: {
            "norm_cycles": rec.extra["normalized_cycles"],
            **({"norm_bytes": rec.extra.get("normalized_write_bytes", 0.0)}
               if has_norm_bytes else {}),
            "nvm_mb": rec.total_nvm_bytes / 1e6,
        }
        for name, rec in records.items()
        if name != "ideal"
    }
    columns = (["norm_cycles", "norm_bytes", "nvm_mb"] if has_norm_bytes
               else ["norm_cycles", "nvm_mb"])
    print(report.format_table(
        f"{args.workload} (scale {args.scale})", columns, rows,
    ))
    return 0


def _cmd_experiment(args) -> int:
    print(EXPERIMENTS[args.name](args, _experiment_options(args)))
    return 0


def _cmd_workloads(_args) -> int:
    for name in workload_names():
        print(name)
    return 0


def _cmd_trace(args) -> int:
    if args.protocol:
        return _protocol_trace(args)
    workload = make_workload(args.workload, num_threads=args.threads,
                             scale=args.scale, seed=args.seed)
    count = save_trace(args.out, capture_trace(workload))
    print(f"wrote {count} ops to {args.out}")
    return 0


def _protocol_trace(args) -> int:
    """Armed run + JSONL export; exports even when an invariant fires."""
    from .harness.runner import make_scheme
    from .oracle import InvariantViolation, ProtocolOracle
    from .sim import Machine, SystemConfig

    config = SystemConfig()
    oracle = ProtocolOracle()
    machine = Machine(config, scheme=make_scheme(args.scheme), oracle=oracle)
    workload = make_workload(args.workload, num_threads=config.num_cores,
                             scale=args.scale, seed=args.seed)
    status = 0
    try:
        machine.run(workload)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION [{exc.invariant}]: {exc}", file=sys.stderr)
        status = 1
    count = oracle.trace.export_jsonl(args.out)
    summary = oracle.summary()
    print(f"wrote {count} protocol events to {args.out} "
          f"({summary['events']} emitted, {summary['scans']} full scans)")
    return status


def _cmd_diff(args) -> int:
    from .oracle import DifferentialMismatch, run_differential
    from .oracle.differential import DEFAULT_SCHEMES

    schemes = tuple(args.schemes.split(",")) if args.schemes else DEFAULT_SCHEMES
    scale = min(args.scale, 0.05) if args.quick else args.scale
    try:
        summary = run_differential(
            args.workload,
            schemes=schemes,
            scale=scale,
            seed=args.seed,
            oracle=args.oracle,
            trace_dir=args.trace_out,
        )
    except DifferentialMismatch as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"workload:        {summary['workload']}")
    print(f"schemes:         {', '.join(summary['schemes'])}")
    print(f"stores:          {summary['stores']:,}")
    print(f"lines:           {summary['lines']:,} "
          f"({summary['contested_lines']} contested)")
    for scheme, epochs in summary["snapshots_checked"].items():
        print(f"snapshots [{scheme}]: epochs {epochs}")
    print("verdict:         OK (schemes agree; snapshots match the store log)")
    return 0


def _cmd_crash_sweep(args) -> int:
    from .faults import crash_sweep  # lazy: pulls in the whole harness

    config = None
    if args.epoch_stores is not None:
        from .sim import SystemConfig

        config = SystemConfig(epoch_size_stores=args.epoch_stores)
    result = crash_sweep(
        args.workload,
        config=config,
        scale=args.scale,
        seed=args.seed,
        event=args.event,
        every=args.every,
        max_points=args.max_points,
        oracle=args.oracle,
        jobs=args.jobs or 1,
        cache=not args.no_cache,
        progress=_print_progress,
    )
    if args.json:
        _emit_json({
            "workload": result.workload,
            "event": result.event,
            "total_events": result.total_events,
            "points": [
                {
                    "event": p.plan.event,
                    "count": p.plan.count,
                    "crashed": p.crashed,
                    "rec_epoch": p.rec_epoch,
                    "matches": p.matches,
                    "frontier_ok": p.frontier_ok,
                    "ok": p.ok,
                }
                for p in result.points
            ],
            "ok": result.ok,
        })
        return 0 if result.ok or not result.points else 1
    print(f"workload:       {result.workload}")
    print(f"event stream:   {result.event} ({result.total_events:,} events)")
    print(f"crash points:   {len(result.points)}")
    crashed = sum(1 for p in result.points if p.crashed)
    print(f"crashed:        {crashed} (rest ran past the end of the stream)")
    if result.failures:
        for point in result.failures:
            print(
                f"FAIL at {point.plan.event} #{point.plan.count}: "
                f"rec_epoch {point.rec_epoch} "
                f"matches={point.matches} frontier_ok={point.frontier_ok}"
            )
        print(f"verdict:        FAIL ({len(result.failures)} bad crash points)")
        return 1
    print("verdict:        OK (recovered image == golden replay at every point)")
    return 0


def _cmd_scaling(args) -> int:
    from .harness.sweep import scaling_curve

    try:
        core_counts = [int(c) for c in args.cores.split(",")]
    except ValueError:
        print(f"error: --cores expects a comma-separated list of ints, "
              f"got {args.cores!r}", file=sys.stderr)
        return 2
    schemes = tuple(args.schemes.split(","))
    try:
        data = scaling_curve(
            core_counts=core_counts,
            schemes=schemes,
            workload=args.workload,
            txns_per_core_scale=args.scale,
            cores_per_vd=args.cores_per_vd,
            num_sockets=args.sockets,
            batch_epoch_sync=not args.no_batch,
            oracle=args.oracle,
            jobs=args.jobs,
            cache=not args.no_cache,
            progress=_print_progress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json({
            "workload": args.workload,
            "schemes": list(schemes),
            "oracle": args.oracle,
            "cores": {str(cores): data[cores] for cores in core_counts},
        })
        return 0
    rows = {f"{cores} cores": data[cores] for cores in core_counts}
    columns = sorted(next(iter(rows.values())))
    suffix = " [oracle armed]" if args.oracle else ""
    print(report.format_table(
        "Scaling: overhead vs cores" + suffix, columns, rows
    ))
    if args.oracle:
        print("oracle: every run invariant-checked; zero violations",
              file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from .harness import bench

    names = args.scenarios.split(",") if args.scenarios else None
    calibration = bench.host_calibration()
    try:
        results = bench.run_bench(names, quick=args.quick, repeats=args.repeats,
                                  profile_frames=args.profile,
                                  oracle=args.oracle)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.jobs and args.jobs > 1:
        print("note: bench times the simulator serially by design; "
              "--jobs is accepted for CLI uniformity only", file=sys.stderr)
    rows = {
        name: {
            "ops_per_sec": r.ops_per_sec,
            "seconds": r.seconds,
            "per_op_us_p50": r.per_op_us_p50,
            "per_op_us_p95": r.per_op_us_p95,
        }
        for name, r in results.items()
    }
    if args.json:
        _emit_json({"quick": args.quick, "oracle": args.oracle,
                    "results": rows})
    else:
        suffix = ("" if not args.quick else " (--quick)") + (
            " [oracle armed]" if args.oracle else ""
        )
        print(report.format_table(
            "simulator throughput" + suffix,
            ["ops_per_sec", "seconds", "per_op_us_p50", "per_op_us_p95"],
            rows,
        ))

    if args.oracle:
        # Armed numbers measure checking overhead, not simulator speed;
        # never let them into the trajectory, a profile, or the gate.
        if args.profile_out:
            print("note: --profile-out skipped (oracle-armed numbers are "
                  "checker overhead, not throughput)", file=sys.stderr)
        return 0
    commit = bench.current_commit()
    if args.profile_out:
        # Persist the full per-repeat distribution no matter what
        # --no-update says: an A/B investigation must keep its raw data.
        bench.write_profile(Path(args.profile_out), results,
                            label=args.label, quick=args.quick,
                            calibration=calibration, commit=commit)
        print(f"profile written to {args.profile_out}", file=sys.stderr)
    path = (Path(args.trajectory) if args.trajectory
            else bench.default_trajectory_path())
    baseline = bench.baseline_entry(bench.load_trajectory(path),
                                    quick=args.quick)
    status = 0
    if args.check:
        detectors = args.detectors.split(",") if args.detectors else None
        try:
            bench.resolve_detectors(detectors)  # validate names up front
            checks = bench.check_results(
                results, baseline, calibration=calibration,
                detectors=detectors, threshold=args.threshold)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        base_cal = baseline.get("host_calibration") if baseline else None
        cal_note = (
            f"host calibration {calibration / base_cal:.2f}x baseline"
            if base_cal else
            f"host calibration {calibration:.3f}s (no baseline value)"
        )
        if baseline is None:
            if args.allow_missing_baseline:
                print(f"regression gate: skipped (no baseline for env "
                      f"{bench.env_id()!r} in {path}; "
                      f"--allow-missing-baseline)", file=sys.stderr)
            else:
                print(
                    f"error: regression gate: no baseline entry for env "
                    f"{bench.env_id()!r} in {path} — nothing to gate "
                    f"against.\nRecord one first (run without --check, or "
                    f"commit a trajectory entry for this environment), or "
                    f"pass --allow-missing-baseline to skip the gate.",
                    file=sys.stderr,
                )
                status = 1
        else:
            failures = [n for n, c in checks.items() if c.regressed]
            fallbacks = [n for n, c in checks.items() if c.fallback]
            for name in failures:
                outcome = checks[name]
                print(
                    f"REGRESSION {name}: median "
                    f"{outcome.median_ratio:.2f}x baseline "
                    f"({outcome.detail})",
                    file=sys.stderr,
                )
                for verdict in outcome.verdicts:
                    print(f"  {verdict.detector}: {verdict.detail}",
                          file=sys.stderr)
            if failures:
                print(f"{cal_note} — the detectors already normalized by "
                      f"this, so the drop is not host speed",
                      file=sys.stderr)
                status = 1
            else:
                worst = min(checks, key=lambda n: checks[n].median_ratio) \
                    if checks else None
                detail = (
                    f"worst median ratio {checks[worst].median_ratio:.2f}x "
                    f"on {worst!r}; {cal_note}" if worst is not None
                    else "no overlapping scenarios to compare"
                )
                print(
                    f"regression gate: OK vs {baseline['label']!r} "
                    f"({detail}).",
                    file=sys.stderr,
                )
                if fallbacks:
                    print(
                        f"note: {len(fallbacks)} scenario(s) judged by the "
                        f"legacy {args.threshold:.0%} threshold — too few "
                        f"stored samples for the statistical detectors; "
                        f"re-record the baseline with --repeats >= 5.",
                        file=sys.stderr,
                    )
                print(
                    f"A flagged drop can be attributed with "
                    f"`repro bench bisect --scenario NAME` "
                    f"(docs/api.md, 'Simulator throughput').",
                    file=sys.stderr,
                )
    if not args.no_update:
        bench.append_entry(path, results, label=args.label, quick=args.quick,
                           calibration=calibration, commit=commit)
        print(f"recorded entry in {path}", file=sys.stderr)
    return status


def _cmd_bench_bisect(args) -> int:
    from pathlib import Path

    from .harness import bench

    path = (Path(args.trajectory) if args.trajectory
            else bench.default_trajectory_path())
    data = bench.load_trajectory(path)
    env = args.env or bench.env_id()
    detectors = args.detectors.split(",") if args.detectors else None
    quick = None if args.any_mode else bool(args.quick)
    recollect = None
    if args.recollect:
        recollect = bench.bisect.make_git_recollect_hook(
            quick=bool(args.quick), repeats=args.recollect_repeats)
    try:
        report_obj = bench.bisect_trajectory(
            data, args.scenario, env=env, quick=quick,
            detectors=detectors, threshold=args.threshold,
            recollect=recollect)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report_obj.to_dict())
    else:
        print(f"bisect {args.scenario!r} over env {env!r} in {path}")
        for step in report_obj.steps:
            mark = "BAD " if step.regressed else "good"
            ref = step.commit or step.label
            print(f"  probe entry {step.index:3d} [{mark}] {ref} "
                  f"(median {step.check.median_ratio:.3f}x, "
                  f"{step.check.detail})")
        print(f"verdict: {report_obj.status} — {report_obj.detail}")
    if report_obj.status == "insufficient":
        return 1
    return 0


def _cmd_load(args) -> int:
    from . import load as load_pkg  # lazy: pulls in harness + faults

    if args.list:
        for name in load_pkg.scenario_names():
            scenario = load_pkg.get_scenario(name)
            crash = " [crash]" if scenario.crash else ""
            print(f"{name:16} {scenario.description}{crash}")
        return 0
    if not args.scenario:
        print("error: pick a scenario with --scenario NAME (or --list)",
              file=sys.stderr)
        return 2
    config = None
    if args.epoch_stores is not None:
        from .sim import SystemConfig

        config = SystemConfig(epoch_size_stores=args.epoch_stores)
    try:
        result = load_pkg.run_scenario(
            args.scenario,
            scale=args.scale,
            seed=args.seed,
            quick=args.quick,
            crash_at=args.crash_at,
            oracle=args.oracle,
            config=config,
            jobs=args.jobs,
            cache=not args.no_cache,
            progress=_print_progress,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.artifact:
        path = _write_load_artifact(args.artifact, result)
        print(f"artifact: {path}", file=sys.stderr)
    if args.json:
        _emit_json(result.to_json())
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_serve(args) -> int:
    from .core import NVOverlayParams
    from .harness.parallel import ParallelRunner
    from .load.scenarios import QUICK_SCALE
    from .serve import ServePolicy

    scale = min(args.scale, QUICK_SCALE) if args.quick else args.scale
    epoch_stores = args.epoch_stores
    if epoch_stores is None and args.quick:
        # Short smoke runs need several merged epochs for sessions to
        # pin and GC to walk; shrink the epoch to match the store count.
        epoch_stores = 200
    config = None
    if epoch_stores is not None:
        from .sim import SystemConfig

        config = SystemConfig(epoch_size_stores=epoch_stores)
    try:
        policy = ServePolicy(
            sessions=args.sessions, reads_per_session=args.reads,
            mode=args.mode, reads_per_txn=args.reads_per_txn,
            gc_every=args.gc_every, seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = NVOverlayParams(
        pool_pages=args.pool_pages, quota_pages=args.quota_pages,
        os_grow_pages=args.grow_pages,
    )
    template = RunSpec(
        workload=args.workload, scheme="nvoverlay", config=config,
        scale=scale, seed=args.seed, capture_latency=True,
        oracle=args.oracle, nvo_params=params,
    )
    runner = ParallelRunner(jobs=args.jobs or 1, cache=not args.no_cache,
                            progress=_print_progress)
    write_only, serving = runner.run(
        [template, template.with_changes(serve=policy)]
    )
    payload = {
        "workload": args.workload,
        "scale": scale,
        "seed": args.seed,
        "oracle": args.oracle,
        "policy": policy.to_dict(),
        "records": {
            "write_only": write_only.to_dict(),
            "serving": serving.to_dict(),
        },
    }
    if args.artifact:
        path = _write_serve_artifact(args.artifact, payload)
        print(f"artifact: {path}", file=sys.stderr)
    if args.json:
        _emit_json(payload)
        return 0
    # Write side: the same store stream with and without readers —
    # reader/writer NVM-bank interference shows up as the store-p99 gap.
    write_rows = {
        name: {
            "cycles": rec.cycles,
            "store_p95": rec.extra.get("store_latency_p95", 0),
            "store_p99": rec.extra.get("store_latency_p99", 0),
            "nvm_mb": rec.total_nvm_bytes / 1e6,
        }
        for name, rec in (("write_only", write_only), ("serving", serving))
    }
    print(report.format_table(
        f"write side under {policy.sessions} reader sessions "
        f"({args.workload}, scale {scale})",
        ["cycles", "store_p95", "store_p99", "nvm_mb"],
        write_rows,
    ))
    e = serving.extra
    read_rows = {"serving": {
        "reads": e.get("serve_reads", 0),
        "read_p50": e.get("serve_read_p50", 0),
        "read_p95": e.get("serve_read_p95", 0),
        "read_p99": e.get("serve_read_p99", 0),
        "staleness": round(e.get("serve_staleness_mean", 0.0), 2),
        "stale_miss": e.get("serve_stale_misses", 0),
    }}
    print()
    print(report.format_table(
        "read side (epoch-pinned snapshot sessions)",
        ["reads", "read_p50", "read_p95", "read_p99", "staleness",
         "stale_miss"],
        read_rows,
    ))
    gc_rows = {"serving": {
        "reclaims": e.get("serve_reclaims", 0),
        "compacted": e.get("serve_compacted_versions", 0),
        "skip_pinned": e.get("serve_gc_skipped_pinned", 0),
        "skip_retained": e.get("serve_gc_skipped_retained", 0),
        "pages_peak": e.get("serve_pages_peak", 0),
        "pages_final": e.get("serve_pages_final", 0),
        "pages_reclaimed": e.get("serve_pages_reclaimed", 0),
    }}
    print()
    print(report.format_table(
        "version GC under session pins",
        ["reclaims", "compacted", "skip_pinned", "skip_retained",
         "pages_peak", "pages_final", "pages_reclaimed"],
        gc_rows,
    ))
    if args.oracle:
        print("oracle: session-frontier invariants checked on every read; "
              "zero violations", file=sys.stderr)
    return 0


def _write_serve_artifact(directory: str, payload: dict) -> str:
    """JSONL artifact: a meta line plus one line per compared cell."""
    import json
    from pathlib import Path

    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"serve_{payload['workload']}.jsonl"
    meta = {k: v for k, v in payload.items() if k != "records"}
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "meta", **meta}, sort_keys=True) + "\n")
        for name, record in sorted(payload["records"].items()):
            fh.write(json.dumps({"kind": "record", "cell": name, **record},
                                sort_keys=True) + "\n")
    return str(path)


def _write_load_artifact(directory: str, result) -> str:
    """JSONL artifact: a meta line, one line per scheme, one crash line."""
    import json
    from pathlib import Path

    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"load_{result.scenario}.jsonl"
    payload = result.to_json()
    records = payload.pop("records")
    crash = payload.pop("crash")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "meta", **payload},
                            sort_keys=True) + "\n")
        for name, record in sorted(records.items()):
            fh.write(json.dumps({"kind": "record", "scheme": name, **record},
                                sort_keys=True) + "\n")
        if crash is not None:
            fh.write(json.dumps({"kind": "crash", **crash},
                                sort_keys=True) + "\n")
    return str(path)


def _cmd_cache(args) -> int:
    cache = RunCache()
    if args.action == "info":
        info = cache.info()
        print(f"directory:      {info['directory']}")
        print(f"entries:        {info['entries']}")
        print(f"bytes:          {info['bytes']:,}")
        print(f"schema version: {info['schema_version']}")
        print(f"all-time hits:  {info['total_hits']}")
        print(f"all-time misses: {info['total_misses']}")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cached record(s) from {cache.directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NVOverlay reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_scheme=False):
        p.add_argument("--workload", default="btree",
                       help="workload name (see `workloads`)")
        p.add_argument("--scale", type=float, default=0.5,
                       help="operation-count multiplier")
        p.add_argument("--seed", type=int, default=1)
        if with_scheme:
            p.add_argument("--scheme", default="nvoverlay",
                           choices=sorted(SCHEMES))

    def parallel_opts(p, with_jobs=True):
        if with_jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default: serial)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")

    def unified_opts(p, oracle_help="arm the protocol invariant oracle "
                                    "(repro.oracle)"):
        """The one option surface every simulating command exposes."""
        parallel_opts(p)
        p.add_argument("--oracle", action="store_true", help=oracle_help)
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON on stdout instead of "
                            "tables")

    p_run = sub.add_parser("run", help="run one workload under one scheme")
    common(p_run, with_scheme=True)
    unified_opts(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_compare = sub.add_parser("compare", help="run every scheme on a workload")
    common(p_compare)
    p_compare.add_argument("--schemes", default=None,
                           help="comma-separated scheme subset "
                                "(default: all compared schemes)")
    parallel_opts(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.add_argument("--bursty", action="store_true",
                       help="fig17: bursty debugging epochs")
    p_exp.add_argument("--workloads", default=None,
                       help="comma-separated workload subset (fig11/12/13)")
    parallel_opts(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_sweep = sub.add_parser(
        "crash-sweep",
        help="crash NVOverlay at many points and verify recovery",
    )
    common(p_sweep)
    unified_opts(p_sweep, oracle_help="arm the protocol invariant oracle on "
                                      "every pre-crash run")
    p_sweep.add_argument("--event", default="any",
                         choices=["any", "store", "eviction", "walker_pass",
                                  "merge", "buffer_write"],
                         help="event stream the crash points count")
    p_sweep.add_argument("--every", type=int, default=None,
                         help="events between crash points (default ~20 points)")
    p_sweep.add_argument("--max-points", type=int, default=None,
                         help="cap the number of crash points")
    p_sweep.add_argument("--epoch-stores", type=int, default=None,
                         help="override epoch size in stores (smaller = more epochs)")
    p_sweep.set_defaults(func=_cmd_crash_sweep)

    p_list = sub.add_parser("workloads", help="list workload names")
    p_list.set_defaults(func=_cmd_workloads)

    p_trace = sub.add_parser("trace", help="capture a workload to a trace file")
    common(p_trace)
    p_trace.add_argument("--threads", type=int, default=16)
    p_trace.add_argument("--out", required=True)
    p_trace.add_argument("--protocol", action="store_true",
                         help="run with the invariant oracle armed and write "
                              "the structured protocol-event trace as JSONL")
    p_trace.add_argument("--scheme", default="nvoverlay",
                         choices=sorted(SCHEMES),
                         help="scheme for --protocol runs")
    p_trace.set_defaults(func=_cmd_trace)

    p_diff = sub.add_parser(
        "diff",
        help="replay one workload trace under several schemes and cross-check",
    )
    common(p_diff)
    p_diff.add_argument("--schemes", default=None,
                        help="comma-separated scheme list "
                             "(default: nvoverlay,picl,ideal)")
    p_diff.add_argument("--quick", action="store_true",
                        help="cap the scale at 0.05 (CI smoke runs)")
    p_diff.add_argument("--oracle", action="store_true",
                        help="also arm the invariant oracle on every run")
    p_diff.add_argument("--trace-out", default=None, metavar="DIR",
                        help="export each run's protocol events to "
                             "DIR/<workload>_<scheme>.jsonl (implies --oracle)")
    p_diff.set_defaults(func=_cmd_diff)

    p_scaling = sub.add_parser(
        "scaling",
        help="sweep 4->64 cores and print the overhead-vs-cores curve",
    )
    p_scaling.add_argument("--cores", default="4,8,16,32,64",
                           help="comma-separated core counts to sweep")
    p_scaling.add_argument("--schemes", default="nvoverlay,picl",
                           help="comma-separated schemes (vs the ideal "
                                "baseline)")
    p_scaling.add_argument("--workload", default="uniform",
                           help="workload name (see `workloads`)")
    p_scaling.add_argument("--scale", type=float, default=0.2,
                           help="per-core operation-count multiplier")
    p_scaling.add_argument("--cores-per-vd", type=int, default=2,
                           help="Versioned Domain width at every size")
    p_scaling.add_argument("--sockets", type=int, default=1,
                           help="sockets the VDs/slices distribute over")
    p_scaling.add_argument("--no-batch", action="store_true",
                           help="disable batched epoch sync (per-store "
                                "cross-VD announcements, the 16-core mode)")
    unified_opts(p_scaling, oracle_help="arm the protocol invariant oracle "
                                        "on every run in the sweep")
    p_scaling.set_defaults(func=_cmd_scaling)

    p_load = sub.add_parser(
        "load",
        help="run a registered multi-tenant traffic scenario (repro.load)",
    )
    p_load.add_argument("--scenario", default=None,
                        help="scenario name from the registry (see --list)")
    p_load.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    p_load.add_argument("--scale", type=float, default=1.0,
                        help="traffic multiplier (1.0 = full production run)")
    p_load.add_argument("--seed", type=int, default=1)
    p_load.add_argument("--quick", action="store_true",
                        help="CI smoke mode: cap the scale at the quick "
                             "smoke scale")
    p_load.add_argument("--crash-at", type=float, default=None,
                        metavar="FRAC",
                        help="kill a worker at this fraction of the store "
                             "stream (0, 1); recovery is verified and the "
                             "remaining traffic resumes")
    p_load.add_argument("--epoch-stores", type=int, default=None,
                        help="override epoch size in stores (smaller = more "
                             "recoverable epochs in short runs)")
    p_load.add_argument("--artifact", default=None, metavar="DIR",
                        help="also write DIR/load_<scenario>.jsonl (meta + "
                             "per-scheme records + crash leg)")
    unified_opts(p_load)
    p_load.set_defaults(func=_cmd_load)

    p_serve = sub.add_parser(
        "serve",
        help="serve concurrent snapshot-reader sessions over a live "
             "write stream (repro.serve)",
    )
    p_serve.add_argument("--workload", default="load_burst",
                         help="workload driving the write side")
    p_serve.add_argument("--scale", type=float, default=0.1,
                         help="write-traffic multiplier")
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument("--sessions", type=int, default=32,
                         help="concurrent snapshot sessions")
    p_serve.add_argument("--reads", type=int, default=32,
                         help="reads per session before it re-acquires "
                              "the frontier")
    p_serve.add_argument("--mode", default="closed",
                         choices=["closed", "open"],
                         help="closed loop (one read per boundary) or "
                              "open loop (Zipf arrivals)")
    p_serve.add_argument("--reads-per-txn", type=float, default=4.0,
                         help="open-loop arrival rate (reads per write "
                              "transaction)")
    p_serve.add_argument("--gc-every", type=int, default=64,
                         help="write transactions between reclaim passes")
    p_serve.add_argument("--epoch-stores", type=int, default=None,
                         help="override epoch size in stores (--quick "
                              "defaults this to 200)")
    p_serve.add_argument("--pool-pages", type=int, default=4096,
                         help="overlay pool pages per OMC")
    p_serve.add_argument("--quota-pages", type=int, default=512,
                         help="compaction quota across OMCs")
    p_serve.add_argument("--grow-pages", type=int, default=512,
                         help="pages the OS grants on pool exhaustion")
    p_serve.add_argument("--quick", action="store_true",
                         help="CI smoke mode: cap scale, shrink epochs")
    p_serve.add_argument("--artifact", default=None, metavar="DIR",
                         help="also write DIR/serve_<workload>.jsonl")
    unified_opts(p_serve, oracle_help="arm the invariant oracle incl. the "
                                      "session-frontier checks on every read")
    p_serve.set_defaults(func=_cmd_serve)

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("action", choices=["info", "clear"])
    p_cache.set_defaults(func=_cmd_cache)

    p_bench = sub.add_parser(
        "bench", help="measure simulator throughput (ops/sec per scenario)"
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="scale scenarios down ~5x (CI smoke mode)")
    p_bench.add_argument("--scenarios", default=None,
                         help="comma-separated scenario subset")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timed repeats per scenario; best is kept")
    p_bench.add_argument("--profile", type=int, default=0, metavar="N",
                         help="also cProfile each scenario; print top N frames")
    p_bench.add_argument("--trajectory", default=None, metavar="PATH",
                         help="trajectory file (default: repo-root "
                              "BENCH_sim_throughput.json)")
    p_bench.add_argument("--label", default="manual run",
                         help="label stored with the recorded entry")
    p_bench.add_argument("--no-update", action="store_true",
                         help="measure only; do not append to the trajectory")
    p_bench.add_argument("--check", action="store_true",
                         help="fail on ops/sec regression vs the last entry "
                              "for this environment (also fails when no "
                              "baseline exists for it)")
    p_bench.add_argument("--allow-missing-baseline", action="store_true",
                         help="with --check: skip the gate instead of "
                              "failing when this environment has no "
                              "baseline entry yet")
    p_bench.add_argument("--threshold", type=float,
                         default=BENCH_REGRESSION_THRESHOLD,
                         help="regression threshold as a fraction "
                              "(default 0.20)")
    p_bench.add_argument("--detectors", default=None, metavar="NAMES",
                         help="comma-separated detector subset for --check "
                              "(default: all registered; see "
                              "repro.harness.bench.check.DETECTORS)")
    p_bench.add_argument("--profile-out", default=None, metavar="PATH",
                         help="also write this run's full per-repeat sample "
                              "profile (schema-v2 document) to PATH — even "
                              "with --no-update, so A/B investigations keep "
                              "their raw data")
    unified_opts(p_bench, oracle_help="arm the invariant oracle inside the "
                                      "timed region (measures checking "
                                      "overhead; never recorded or gated)")
    p_bench.set_defaults(func=_cmd_bench)

    bench_sub = p_bench.add_subparsers(dest="bench_cmd", metavar="subcommand")
    p_bisect = bench_sub.add_parser(
        "bisect",
        help="attribute a flagged regression to the narrowest entry/commit "
             "range in the trajectory",
    )
    p_bisect.add_argument("--scenario", required=True,
                          help="bench scenario name to bisect")
    p_bisect.add_argument("--env", default=None,
                          help="environment id to walk (default: this "
                               "host's; entries never compare across envs)")
    p_bisect.add_argument("--quick", action="store_true",
                          help="walk quick-mode entries (default: full-mode; "
                               "the two are never comparable)")
    p_bisect.add_argument("--any-mode", action="store_true",
                          help="ignore the quick flag when selecting entries")
    p_bisect.add_argument("--trajectory", default=None, metavar="PATH",
                          help="trajectory or profile file (default: "
                               "repo-root BENCH_sim_throughput.json)")
    p_bisect.add_argument("--detectors", default=None, metavar="NAMES",
                          help="comma-separated detector subset")
    p_bisect.add_argument("--threshold", type=float,
                          default=BENCH_REGRESSION_THRESHOLD,
                          help="legacy fallback threshold for sample-starved "
                               "entries (default 0.20)")
    p_bisect.add_argument("--recollect", action="store_true",
                          help="re-collect samples at entries' recorded "
                               "commits via git worktrees when an entry "
                               "lacks them (slow; needs a clean git repo)")
    p_bisect.add_argument("--recollect-repeats", type=int, default=5,
                          help="repeats per re-collected entry "
                               "(default 5, enough for the detectors)")
    p_bisect.add_argument("--json", action="store_true",
                          help="emit the machine-readable BisectReport")
    p_bisect.set_defaults(func=_cmd_bench_bisect)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
