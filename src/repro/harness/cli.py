"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``corpus``      list the synthetic corpus for a tier
``archs``       print the Table 2 machines
``reorder``     reorder a Matrix Market file and report feature changes
``study``       run the speedup study (Figs 2/3, Tables 3/4) on a tier
``sweep``       run the parallel, resumable measurement sweep engine
``advise``      learned, ranked ordering selection (repro.advisor)
``serve``       run the always-on advisor daemon (repro.serve)
``loadgen``     replay seeded zipf/bursty traffic at a daemon
``report``      render/validate trace + journal + manifest artifacts
``check``       differential tests and invariant checks (oracle layer)
``snapshot``    build/verify a content-addressed corpus snapshot
``perf``        benchmark ledger: record/compare/trend with CI gates
``profile``     run any command under the sampling profiler

Output discipline: *data* (tables, rankings, reports) goes to stdout
via ``print`` so pipelines keep working; *status* (progress
heartbeats, "wrote X" notices, diagnostics) goes through the
``repro`` logger to stderr — one atomic record per line, so a
``--jobs N`` sweep's heartbeat can never interleave mid-line with
other output.  ``--quiet`` silences status, ``--verbose`` adds debug
detail.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..features import bandwidth, offdiagonal_nonzeros, profile
from ..generators import build_corpus
from ..machine import architecture_names, get_architecture
from ..matrix import read_matrix_market, write_matrix_market
from ..obs import get_logger, setup_cli_logging
from ..obs import trace as obs_trace
from ..reorder import ALL_ORDERINGS, compute_ordering
from ..util import format_table

log = get_logger("cli")


def _cmd_corpus(args) -> int:
    corpus = build_corpus(args.tier, seed=args.seed)
    rows = [[e.name, e.group, e.nrows, e.nnz,
             "SPD" if e.spd else ""] for e in corpus]
    print(format_table(["name", "group", "rows", "nnz", ""], rows))
    print(f"{len(corpus)} matrices, {sum(e.nnz for e in corpus):,} "
          "total nonzeros")
    return 0


def _cmd_archs(_args) -> int:
    rows = []
    for name in architecture_names():
        a = get_architecture(name)
        rows.append([name, a.cpu, a.isa, a.cores,
                     a.l3_total // 2**20, a.bandwidth / 1e9])
    print(format_table(
        ["name", "cpu", "isa", "cores", "L3 [MiB]", "BW [GB/s]"],
        rows, floatfmt="{:.1f}"))
    return 0


def _cmd_reorder(args) -> int:
    a = read_matrix_market(args.input)
    ordering = compute_ordering(a, args.ordering, nparts=args.nparts)
    b = ordering.apply(a)
    print(format_table(
        ["feature", "before", "after"],
        [["bandwidth", bandwidth(a), bandwidth(b)],
         ["profile", profile(a), profile(b)],
         ["offdiag", offdiagonal_nonzeros(a, args.nparts),
          offdiagonal_nonzeros(b, args.nparts)]]))
    print(f"{args.ordering} took {ordering.seconds:.3f}s")
    if args.output:
        write_matrix_market(b, args.output)
        print(f"wrote {args.output}")
    return 0


def _resolve_advise_input(spec: str, scale: float, seed):
    """A Matrix Market path, or the name of a paper stand-in matrix."""
    from ..generators.suite import named_matrix, named_matrix_names

    if os.path.exists(spec):
        a = read_matrix_market(spec)
        return a, os.path.splitext(os.path.basename(spec))[0]
    if spec in named_matrix_names():
        entry = named_matrix(spec, scale=scale, seed=seed)
        return entry.matrix, entry.name
    raise SystemExit(
        f"advise: {spec!r} is neither a file nor a named stand-in "
        f"(known stand-ins: {', '.join(named_matrix_names())})")


def _cmd_advise(args) -> int:
    from ..advisor import Advisor, AdvisorModel, train_model
    from .runner import OrderingCache

    a, name = _resolve_advise_input(args.input, args.scale, args.seed)
    arch = get_architecture(args.arch)
    orderings = args.orderings.split(",") if args.orderings else None
    workload = getattr(args, "workload", "spmv")
    if args.model and os.path.exists(args.model):
        model = AdvisorModel.load(args.model)
        print(f"loaded model from {args.model} "
              f"({model.trained_on.get('rows', '?')} training rows)")
    else:
        cache = OrderingCache(path=args.cache) if args.cache else None
        # sweep the requested workload next to the plain kernels so
        # the training set has rows at the queried feature level
        kernels: tuple = ("1d", "2d")
        if workload != "spmv":
            spec = workload if args.kernel == "1d" \
                else f"{workload}:{args.kernel}"
            kernels = kernels + (spec,)
        model = train_model(tier=args.train_tier, architectures=[arch],
                            orderings=orderings, kernels=kernels,
                            cache=cache, seed=args.seed,
                            limit=args.train_limit)
        print(f"trained on {model.trained_on['rows']} rows "
              f"({args.train_tier} tier, {arch.name})")
        if args.model:
            model.save(args.model)
            print(f"saved model to {args.model}")
    advisor = Advisor(model, iterations=args.iterations)
    advice = advisor.advise(a, arch, kernel=args.kernel, matrix_name=name,
                            top=args.top, workload=workload)
    print(f"\nranked orderings for {name} ({a.nrows}x{a.ncols}, "
          f"nnz={a.nnz}) on {arch.name}, {args.kernel.upper()} kernel, "
          f"{workload} workload:")
    rows = [[i + 1, adv.ordering, adv.predicted_speedup, adv.confidence]
            for i, adv in enumerate(advice)]
    print(format_table(["rank", "ordering", "pred. speedup", "confidence"],
                       rows, floatfmt="{:.3f}"))
    top = advice[0]
    if top.ordering == "original":
        print("keep the natural order: no candidate clears the "
              "reordering-cost break-even"
              if args.iterations is not None else
              "keep the natural order: no reordering is predicted "
              "to help")
    else:
        be = model.costs.break_even_iterations(
            top.ordering, a.nnz, top.predicted_speedup)
        print(f"{top.ordering} amortizes its reordering cost after "
              f"~{be:.0f} SpMV iterations")
    return 0


def _cmd_study(args) -> int:
    from ..machine import architecture_names as anames
    from .experiments import REORDERINGS, experiment_speedups
    from .report import render_boxplot_figure, render_geomean_table
    from .runner import OrderingCache, run_sweep

    from ..obs.profiler import maybe_profile

    corpus = build_corpus(args.tier, seed=args.seed)
    archs = [get_architecture(n)
             for n in (args.archs.split(",") if args.archs else anames())]
    # workload specs ride the sweep's kernel axis next to "1d"/"2d"
    extra = tuple(w for w in getattr(args, "workloads", "").split(",")
                  if w)
    kernels = ("1d", "2d") + extra
    with maybe_profile(args.profile):
        sweep = run_sweep(corpus, archs, list(REORDERINGS),
                          kernels=kernels,
                          cache=OrderingCache(path=args.cache),
                          jobs=args.jobs, journal_path=args.journal,
                          resume=args.resume)
    names = [a.name for a in archs]
    labeled = [("1d", "Table 3: geomean 1D speedups"),
               ("2d", "Table 4: geomean 2D speedups")]
    labeled += [(w, f"geomean {w} workload speedups") for w in extra]
    for kernel, title in labeled:
        study = experiment_speedups(sweep, names, kernel)
        print(render_geomean_table(study, names, title))
        print()
        if args.boxplots:
            print(render_boxplot_figure(
                study, names, f"speedup distribution ({kernel})"))
            print()
    return 0


def _progress_printer(min_interval=0.5):
    """A throttled ``--progress`` heartbeat for the sweep engine.

    Emits through the ``repro`` logger so each line is one atomic
    handler ``emit`` — the heartbeat can never tear mid-line even when
    workers or other threads are writing at the same time.

    The first tick always prints (so a resumed sweep immediately shows
    how much the journal already covered), and the rate/ETA count only
    cells worked *this run*: on ``--resume`` the first tick's ``done``
    is journal backfill, not throughput, and dividing it by elapsed
    time would promise an absurdly optimistic ETA.
    """
    import time

    state = {"last": None, "resumed": None}

    def cb(done, total, failed, elapsed) -> None:
        now = time.monotonic()
        first = state["last"] is None
        if first:
            state["resumed"] = done
        elif done < total and now - state["last"] < min_interval:
            return
        state["last"] = now
        worked = done - state["resumed"]
        rate = worked / elapsed if elapsed > 0 else 0.0
        if done < total and rate > 0:
            eta = f", ~{(total - done) / rate:.0f}s left"
        else:
            eta = ""
        resumed = (f" ({state['resumed']} resumed)"
                   if first and state["resumed"] else "")
        log.info("[sweep] %d/%d cells%s, %d failed, %.1fs elapsed "
                 "(%.0f cells/s%s)", done, total, resumed, failed,
                 elapsed, rate, eta)

    return cb


def _cmd_sweep(args) -> int:
    from ..util.timing import Timer
    from .engine import SweepEngine
    from .experiments import REORDERINGS, experiment_speedups
    from .report import render_geomean_table, render_sweep_summary
    from .runner import OrderingCache

    snapshot = None
    with Timer() as t_gen:
        if args.corpus:
            from ..storage import open_corpus_snapshot

            snapshot = open_corpus_snapshot(args.corpus)
            corpus = list(snapshot.entries)
            log.info("attached snapshot %s (%d matrices, signature %s)",
                     args.corpus, len(corpus), snapshot.signature)
        else:
            corpus = build_corpus(args.tier, seed=args.seed)
        if args.limit:
            corpus = corpus[:args.limit]
    archs = [get_architecture(n)
             for n in (args.archs.split(",")
                       if args.archs else architecture_names())]
    orderings = (args.orderings.split(",") if args.orderings
                 else list(REORDERINGS))
    kernels = tuple(args.kernels.split(","))
    if args.trace:
        # stream every finished span to a sidecar JSONL next to the
        # final Chrome trace so a killed run still leaves evidence
        jsonl = args.trace + "l" if args.trace.endswith(".json") \
            else args.trace + ".jsonl"
        obs_trace.enable(jsonl_path=jsonl)
    engine = SweepEngine(
        corpus, archs, orderings, kernels=kernels,
        cache=OrderingCache(path=args.cache),
        seed=args.seed, jobs=args.jobs, journal_path=args.journal,
        resume=args.resume, timeout=args.timeout, retries=args.retries,
        shard_bytes=args.shard_bytes,
        snapshot=snapshot,
        trace=bool(args.trace) or None,
        manifest_path=args.manifest or None,
        progress=_progress_printer() if args.progress else None)
    from ..obs.profiler import maybe_profile

    with maybe_profile(args.profile):
        sweep = engine.run()
    engine.metrics.stages["generate"] = t_gen.elapsed
    if args.trace:
        nevents = obs_trace.TRACER.save(args.trace)
        obs_trace.disable()
        obs_trace.TRACER.clear()
        log.info("wrote %s (%d events; load in https://ui.perfetto.dev)",
                 args.trace, nevents)
    if args.manifest:
        log.info("wrote %s", args.manifest)
    if args.metrics:
        engine.metrics.save(args.metrics)
        log.info("wrote %s", args.metrics)
    print(render_sweep_summary(engine.metrics, sweep.failed))
    if args.tables:
        names = [a.name for a in archs]
        if sweep.failed or set(orderings) < set(REORDERINGS):
            print("\n(geomean tables skipped: the sweep is incomplete "
                  "or ran an ordering subset)")
        else:
            for kernel, tbl in (("1d", 3), ("2d", 4)):
                if kernel not in kernels:
                    continue
                study = experiment_speedups(sweep, names, kernel)
                print()
                print(render_geomean_table(
                    study, names,
                    f"Table {tbl}: geomean {kernel.upper()} speedups"))
    return 1 if (sweep.failed and args.strict) else 0


def _cmd_report(args) -> int:
    from ..obs.report import check_artifacts, render_report

    journal = args.journal or None
    manifest = args.manifest or None
    if args.check:
        # default the sidecar to the path `sweep --trace` derives
        # (trace.json -> trace.jsonl), when that file exists
        sidecar = args.sidecar or None
        if sidecar is None and args.trace and args.trace.endswith(".json"):
            derived = args.trace + "l"
            if os.path.exists(derived):
                sidecar = derived
        problems = check_artifacts(
            args.trace, journal, manifest,
            require_spans=("reorder", "reuse_stats", "model_eval"),
            sidecar_path=sidecar)
        if problems:
            for problem in problems:
                log.error("report --check: %s", problem)
            return 1
        checked = f"ok: {args.trace} is a valid Chrome trace with the " \
                  "required sweep spans"
        if sidecar:
            checked += f" (sidecar {sidecar} consistent)"
        print(checked)
        return 0
    print(render_report(args.trace, journal, manifest, top=args.top))
    return 0


class _CommandParser(argparse.ArgumentParser):
    """An ArgumentParser whose unknown-subcommand error always lists
    every registered command (the stock "invalid choice" message is
    easy to truncate and names only the parse failure)."""

    commands: tuple = ()

    def error(self, message: str):
        if "invalid choice" in message and self.commands:
            message = (f"{message}\nregistered commands: "
                       + ", ".join(self.commands))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _CommandParser(
        prog="repro",
        description="Reproduction of 'Bringing Order to Sparsity' "
                    "(SC '23)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only warnings and errors on stderr")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level status on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="list the synthetic corpus")
    p.add_argument("--tier", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("archs", help="print the Table 2 machines")
    p.set_defaults(func=_cmd_archs)

    p = sub.add_parser("reorder", help="reorder a Matrix Market file")
    p.add_argument("input")
    p.add_argument("ordering", choices=[o for o in ALL_ORDERINGS
                                        if o != "original"])
    p.add_argument("--output")
    p.add_argument("--nparts", type=int, default=64)
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser(
        "advise",
        help="learned ordering selection for a matrix on a machine")
    p.add_argument("input",
                   help="Matrix Market file or a named stand-in "
                        "(e.g. Freescale2)")
    p.add_argument("--arch", default="Milan B",
                   help="target Table 2 architecture")
    p.add_argument("--kernel", default="1d", choices=("1d", "2d"))
    p.add_argument("--workload", default="spmv",
                   choices=("spmv", "cg", "jacobi", "spgemm", "spmm"),
                   help="what runs per scheduled iteration (solver "
                        "loops and SpGEMM/SpMM are scored by the same "
                        "machine model)")
    p.add_argument("--model", default=None,
                   help="JSON model artifact to load (or save after "
                        "training)")
    p.add_argument("--train-tier", default="tiny",
                   choices=("tiny", "small", "medium"),
                   help="corpus tier to train on when no model exists")
    p.add_argument("--train-limit", type=int, default=None,
                   help="cap the number of training matrices")
    p.add_argument("--orderings", default="",
                   help="comma-separated candidate orderings "
                        "(default: all six)")
    p.add_argument("--iterations", type=float, default=None,
                   help="SpMV iteration budget for the cost break-even "
                        "gate (default: no gating)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="scale of a named stand-in input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=None,
                   help="only print the best N orderings")
    p.add_argument("--cache", default=None,
                   help="directory for the training ordering cache")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "sweep",
        help="run the parallel, resumable measurement sweep engine")
    p.add_argument("--tier", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--limit", type=int, default=None,
                   help="cap the number of corpus matrices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--archs", default="",
                   help="comma-separated arch names (default: all 8)")
    p.add_argument("--orderings", default="",
                   help="comma-separated orderings (default: the six)")
    p.add_argument("--kernels", default="1d,2d",
                   help="comma-separated kernels (default: 1d,2d)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = run inline; more ship "
                        "each matrix to the workers by memmap)")
    p.add_argument("--corpus", default=None,
                   help="sweep a corpus snapshot directory (see "
                        "'repro snapshot') instead of generating "
                        "--tier in RAM")
    p.add_argument("--shard-bytes", type=int, default=None,
                   help="bound the matrix bytes in flight per pool "
                        "round; workers are recycled between shards so "
                        "peak RSS tracks the largest shard")
    p.add_argument("--journal", default=None,
                   help="append-only JSONL checkpoint file")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already completed in --journal")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock budget in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts for a failing ordering")
    p.add_argument("--progress", action="store_true",
                   help="print a heartbeat while the sweep runs")
    p.add_argument("--metrics", default="sweep_metrics.json",
                   help="machine-readable metrics artifact "
                        "(empty string disables)")
    p.add_argument("--trace", default=None,
                   help="write a Chrome trace-event JSON file (plus a "
                        "crash-safe .jsonl sidecar) of every span")
    p.add_argument("--manifest", default="run_manifest.json",
                   help="run-manifest artifact (git SHA, seed, corpus "
                        "signature, package versions; empty string "
                        "disables)")
    p.add_argument("--tables", action="store_true",
                   help="print the Table 3/4 geomeans afterwards")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any cell failed")
    p.add_argument("--cache", default=None,
                   help="directory for the ordering cache")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="sample the run and write collapsed flamegraph "
                        "stacks to PATH (profiles the main process; "
                        "use --jobs 1 to see task internals)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("study", help="run the speedup study")
    p.add_argument("--tier", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--archs", default="",
                   help="comma-separated arch names (default: all 8)")
    p.add_argument("--cache", default=None,
                   help="directory for the ordering cache")
    p.add_argument("--jobs", type=int, default=1,
                   help="sweep worker processes (1 = run inline)")
    p.add_argument("--journal", default=None,
                   help="JSONL checkpoint file for the sweep")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already completed in --journal")
    p.add_argument("--boxplots", action="store_true")
    p.add_argument("--workloads", default="",
                   help="comma-separated extra workload specs to sweep "
                        "next to the plain kernels (e.g. cg,spgemm or "
                        "jacobi:2d); each gets its own geomean table")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="sample the sweep and write collapsed "
                        "flamegraph stacks to PATH")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser(
        "report",
        help="render (or --check) sweep trace/journal/manifest "
             "artifacts")
    p.add_argument("--trace", default="trace.json",
                   help="Chrome trace-event file written by "
                        "'sweep --trace'")
    p.add_argument("--journal", default="",
                   help="sweep journal JSONL (optional)")
    p.add_argument("--manifest", default="run_manifest.json",
                   help="run manifest JSON (empty string skips it)")
    p.add_argument("--top", type=int, default=10,
                   help="number of slowest spans to list")
    p.add_argument("--sidecar", default="",
                   help="trace JSONL sidecar to validate with --check "
                        "(default: <trace>l when it exists)")
    p.add_argument("--check", action="store_true",
                   help="validate the artifacts instead of rendering; "
                        "exit nonzero on any schema problem")
    p.set_defaults(func=_cmd_report)

    from ..check.cli import add_check_parser
    add_check_parser(sub)

    from ..storage.cli import add_snapshot_parser
    add_snapshot_parser(sub)

    from ..serve.cli import add_serve_parsers
    add_serve_parsers(sub)

    from ..obs.perf import add_perf_parser
    add_perf_parser(sub)

    from ..obs.profiler import add_profile_parser
    add_profile_parser(sub)

    parser.commands = tuple(sorted(sub.choices))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setup_cli_logging(quiet=args.quiet, verbose=args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
