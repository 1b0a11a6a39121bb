"""Command-line interface: ``bside <command> ...``.

Commands
--------

``analyze <binary> [--libdir DIR] [--json] [--cache-dir DIR] [--no-cache]
[--no-sig-filter]``
    Identify the syscalls a binary can invoke; print names or JSON.
    With ``--cache-dir``, a matching cached report is served without
    re-analysis.  ``--no-sig-filter`` disables the signature-compatibility
    refinement of indirect-call resolution (the ablation configuration).

``profile <binary> [--libdir DIR] [--json] [--repeats N]``
    Time one cold analysis and print the per-pass stage profile
    (wall seconds, work units) from the pass pipeline's stage stats.

``phases <binary> [--libdir DIR]``
    Detect execution phases and print the automaton summary.

``filter <binary> [--libdir DIR]``
    Derive a seccomp-style allow-list and print the filter program.

``interface <library.so> [--libdir DIR]``
    Analyze a shared library and print its shared interface JSON (§4.5).

``corpus generate <outdir> [--scale S] [--seed N]``
    Write the Debian-like corpus (binaries + libraries) to disk.

``trace <binary> [--libdir DIR] [--inputs a,b,c]``
    Run the binary under the emulator and print its syscall trace.

``fleet <dir> [--workers N] [--cache-dir DIR] [--no-cache] [--json]
[--no-sig-filter]``
    Batch-analyze every ELF in a directory: cached per-binary reports are
    served from the artifact store, library interfaces are computed once
    (and cached persistently with ``--cache-dir``), then per-binary
    analysis fans out over ``--workers`` processes.

``cache {stats,clear,prune} --cache-dir DIR [--shards N] [--kind K]``
    Inspect or maintain the content-addressed artifact cache; with
    ``--shards`` the maintenance runs across all shard roots.

``eval [--scale S] [--seed N] [--tools LIST] [--workers N] [--json |
--markdown] [--apps-only] [--cache-dir DIR] [--no-cache]
[--trajectory PATH] [--label L] [--no-record] [--no-sig-filter]``
    Reproduce the paper's §5 accuracy tables: emulated ground truth,
    all four tools over the validation apps and the corpus, and an
    append-only record in ``BENCH_eval_accuracy.json`` (see
    ``docs/evaluation.md``).  By default B-Side is scored under both
    indirect-signature configurations per app (the sig-filter
    ablation); ``--no-sig-filter`` runs only the unfiltered one.

``docker-profile <binary> [--libdir DIR]``
    Emit an OCI/Docker seccomp JSON profile for the binary.

``serve [--host H] [--port P] --state-dir DIR [--cache-dir DIR]
[--workers N] [--worker-procs N] [--shards N] [--join] [--worker-id W]
[--lease-ttl S] [--queue-size N] [--libdir DIR]``
    Run the analysis daemon: an asyncio HTTP/JSON job API over the
    fleet engine and the (optionally sharded) artifact store.  With
    ``--worker-procs`` the queue is drained by external worker
    processes via lease claims; ``--join`` attaches this process to an
    existing deployment as a worker (see ``docs/service-api.md``).

``submit <target> [--url URL | --endpoint URL] [--fleet] [--inline]
[--libdir DIR] [--no-wait] [--timeout S] [--json] [--filter |
--profile]``
    Submit a binary (or, with ``--fleet``, a directory) to a running
    daemon; by default waits for completion and prints the result.

Exit codes (documented in ``docs/cli.md``): **0** success, **1** the
command completed but analysis failed for at least one binary, **2**
usage / file / service errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import AnalysisBudget, BSideAnalyzer
from .errors import ReproError
from .filters import FilterProgram
from .loader import LibraryResolver, LoadedImage
from .syscalls import name_of


def _resolver(args) -> LibraryResolver:
    return LibraryResolver(search_dir=getattr(args, "libdir", None))


def _load(path: str) -> LoadedImage:
    return LoadedImage.from_path(path)


def _cache_dir(args) -> str | None:
    """The effective artifact-cache directory (``--no-cache`` wins)."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _sig_filter(args) -> bool:
    """The effective indirect-signature setting (``--no-sig-filter``)."""
    return not getattr(args, "no_sig_filter", False)


def _make_analyzer(args) -> BSideAnalyzer:
    """Analyzer honouring ``--libdir``, the cache flags, and
    ``--no-sig-filter``."""
    cache_dir = _cache_dir(args)
    if cache_dir is None:
        return BSideAnalyzer(
            resolver=_resolver(args), budget=AnalysisBudget(),
            indirect_signatures=_sig_filter(args),
        )
    from .core import ArtifactStore, PersistentInterfaceStore

    artifacts = ArtifactStore(cache_dir)
    return BSideAnalyzer(
        resolver=_resolver(args),
        budget=AnalysisBudget(),
        interface_store=PersistentInterfaceStore(store=artifacts),
        artifact_store=artifacts,
        indirect_signatures=_sig_filter(args),
    )


def cmd_analyze(args) -> int:
    analyzer = _make_analyzer(args)
    report = analyzer.analyze(_load(args.binary))
    if args.json:
        print(json.dumps({
            "binary": report.binary,
            "success": report.success,
            "complete": report.complete,
            "failure_stage": report.failure_stage,
            "syscalls": sorted(report.syscalls),
            "syscall_names": sorted(name_of(n) for n in report.syscalls),
            "sites_examined": report.sites_examined,
            "bbs_explored": report.bbs_explored,
        }, indent=2))
        return 0 if report.success else 1
    if not report.success:
        print(f"analysis failed in stage {report.failure_stage}: "
              f"{report.failure_reason}", file=sys.stderr)
        return 1
    print(f"{report.binary}: {len(report.syscalls)} syscalls"
          + ("" if report.complete else " (INCOMPLETE: over-approximate)"))
    for nr in sorted(report.syscalls):
        print(f"  {nr:>4}  {name_of(nr)}")
    return 0


def cmd_profile(args) -> int:
    best = None
    for __ in range(max(1, args.repeats)):
        # A fresh analyzer per repeat: every run is a genuinely cold
        # analysis (library interfaces rebuilt, nothing cached).
        analyzer = BSideAnalyzer(
            resolver=_resolver(args), budget=AnalysisBudget(),
        )
        report = analyzer.analyze(_load(args.binary))
        if best is None or report.stage_seconds("total") < best.stage_seconds("total"):
            best = report
    ordered = list(best.stages.items())
    ordered.sort(key=lambda kv: (kv[0] == "total", -kv[1].seconds))
    if args.json:
        print(json.dumps({
            "binary": best.binary,
            "success": best.success,
            "failure_stage": best.failure_stage,
            "repeats": max(1, args.repeats),
            "stages": {
                name: {"seconds": stats.seconds, "units": stats.units}
                for name, stats in ordered
            },
            "bbs_explored": best.bbs_explored,
            "symex_steps": best.symex_steps,
            "sites_examined": best.sites_examined,
        }, indent=2))
        return 0 if best.success else 1
    if not best.success:
        print(f"analysis failed in stage {best.failure_stage}: "
              f"{best.failure_reason}", file=sys.stderr)
        return 1
    total = best.stage_seconds("total") or 1.0
    print(f"{best.binary}: cold analysis profile "
          f"(best of {max(1, args.repeats)})")
    print(f"  {'stage':<20} {'seconds':>10} {'share':>7} {'units':>8}")
    for name, stats in ordered:
        share = stats.seconds / total if name != "total" else 1.0
        print(f"  {name:<20} {stats.seconds:>10.6f} {share:>6.1%} "
              f"{stats.units:>8}")
    print(f"  {'(symex steps)':<20} {best.symex_steps:>10} "
          f"{'':>7} {best.sites_examined:>8}")
    return 0


def cmd_phases(args) -> int:
    analyzer = BSideAnalyzer(resolver=_resolver(args), budget=AnalysisBudget())
    report, automaton = analyzer.analyze_phases(_load(args.binary))
    if not report.success or automaton is None:
        print(f"analysis failed: {report.failure_reason}", file=sys.stderr)
        return 1
    total = len(automaton.all_syscalls())
    print(f"{report.binary}: {automaton.n_phases} phases over {total} syscalls "
          f"(start phase {automaton.start})")
    for pid in sorted(automaton.phases):
        phase = automaton.phases[pid]
        outgoing = {
            dst for dst in phase.transitions.values() if dst != pid
        }
        print(f"  phase {pid:>3}: {len(phase.allowed):>3} allowed, "
              f"{len(phase.blocks):>4} blocks, -> {sorted(outgoing)}")
    return 0


def cmd_filter(args) -> int:
    analyzer = BSideAnalyzer(resolver=_resolver(args), budget=AnalysisBudget())
    report = analyzer.analyze(_load(args.binary))
    filt = FilterProgram.from_report(report)
    print(f"; filter for {args.binary}: allows {len(filt.allowed)}, "
          f"blocks {filt.n_blocked}")
    print(filt.render())
    return 0


def cmd_docker_profile(args) -> int:
    from .filters.docker import profile_from_report, render_profile

    analyzer = BSideAnalyzer(resolver=_resolver(args), budget=AnalysisBudget())
    report = analyzer.analyze(_load(args.binary))
    print(render_profile(profile_from_report(report)))
    return 0 if report.success else 1


def cmd_interface(args) -> int:
    analyzer = BSideAnalyzer(resolver=_resolver(args), budget=AnalysisBudget())
    interface = analyzer.analyze_library(_load(args.library))
    print(interface.to_json())
    return 0


def cmd_corpus_generate(args) -> int:
    from .corpus import make_debian_corpus

    corpus = make_debian_corpus(scale=args.scale, seed=args.seed)
    bindir = os.path.join(args.outdir, "bin")
    libdir = os.path.join(args.outdir, "lib")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(libdir, exist_ok=True)
    for binary in corpus.binaries:
        binary.program.save(os.path.join(bindir, binary.name))
    for name, library in corpus.libraries.items():
        library.save(os.path.join(libdir, name))
    print(f"wrote {len(corpus.binaries)} binaries to {bindir}")
    print(f"wrote {len(corpus.libraries)} libraries to {libdir}")
    return 0


def cmd_fleet(args) -> int:
    from .core.fleet import FleetAnalyzer

    cache_dir = None if args.no_cache else args.cache_dir
    fleet = FleetAnalyzer(
        resolver=_resolver(args), budget=AnalysisBudget(),
        workers=args.workers, cache_dir=cache_dir,
        indirect_signatures=_sig_filter(args),
    )
    report = fleet.analyze_directory(args.directory)
    # Exit 1 when any binary's analysis failed, so scripted pipelines
    # (CI gates, provisioning hooks) can tell "all clean" from "partial".
    status = 0 if not report.failures else 1
    if args.json:
        print(report.to_json())
        return status
    print(f"fleet: {len(report.entries)} binaries, "
          f"{report.success_rate():.1%} analyzed, "
          f"avg {report.average_syscalls():.1f} syscalls")
    if report.skipped:
        print(f"  skipped {len(report.skipped)} non-ELF files")
    if report.artifact_stats:
        stats = report.artifact_stats
        print(f"  report cache: {stats['hits']} hits, "
              f"{stats['misses']} misses")
    if report.interface_stats:
        stats = report.interface_stats
        print(f"  interface cache: {stats['hits']} hits, "
              f"{stats['misses']} misses, "
              f"{stats['invalidations']} invalidations")
    for stage, count in sorted(report.failure_stages().items()):
        print(f"  failures in {stage}: {count}")
    exposure = report.cve_exposure()
    if exposure:
        worst = sorted(exposure.items(), key=lambda kv: kv[1])[:5]
        print("  least-covered CVEs:")
        for ident, rate in worst:
            print(f"    CVE-{ident}: {rate:.1%} protected")
    return status


def cmd_cache(args) -> int:
    from .core.artifacts import ArtifactStore, ShardedArtifactStore

    shards = getattr(args, "shards", 1)
    if shards > 1:
        store = ShardedArtifactStore(args.cache_dir, shards=shards)
    else:
        store = ArtifactStore(args.cache_dir)
    if args.cache_command == "stats":
        doc = store.stats()
        if args.json:
            print(json.dumps(doc, indent=2))
            return 0
        print(f"artifact cache at {doc['cache_dir']} "
              f"(version {doc['version']}): "
              f"{doc['total_entries']} entries, {doc['total_bytes']} bytes")
        for kind, stats in sorted(doc["kinds"].items()):
            print(f"  {kind:<10} {stats['entries']:>6} entries  "
                  f"{stats['bytes']:>10} bytes")
        for shard in doc.get("per_shard", []):
            print(f"  shard {shard['shard']:02d}   {shard['entries']:>6} entries  "
                  f"{shard['bytes']:>10} bytes")
        return 0
    if args.cache_command == "clear":
        removed = store.prune()
        print(f"removed {removed} cache entries")
        return 0
    if args.cache_command == "prune":
        removed = store.prune(args.kind)
        print(f"removed {removed} {args.kind} entries")
        return 0
    raise AssertionError(f"unknown cache command {args.cache_command!r}")


def cmd_eval(args) -> int:
    from .eval import TOOL_BSIDE, EvalConfig, parse_tools, run_eval
    from .perf import (
        ACCURACY_PATH,
        ACCURACY_WORKLOAD,
        ROLE_ACCURACY,
        load_trajectory,
        save_trajectory,
    )

    try:
        tools = parse_tools(args.tools)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = run_eval(EvalConfig(
        scale=args.scale,
        seed=args.seed,
        tools=tools,
        workers=args.workers,
        cache_dir=_cache_dir(args),
        include_corpus=not args.apps_only,
        indirect_signatures=_sig_filter(args),
    ))
    record = report.to_record()
    # Validity check (the paper's disqualifying failure): when B-Side
    # was evaluated it must complete the validation apps with zero
    # false negatives.  min_recall aggregates to 0.0 over an empty
    # completed set, so "completed nothing" also violates.
    bside = record["tools"].get(TOOL_BSIDE)
    invalid = bside is not None and bside["min_recall"] < 1.0
    recorded = None
    if not args.no_record and not invalid:
        # An invalid run is never recorded: the trajectory's latest
        # comparable entry is the accuracy gate's recall floor and the
        # README's results source, and a regression must not become
        # its own baseline.
        path = args.trajectory or ACCURACY_PATH
        try:
            trajectory = load_trajectory(path, workload=ACCURACY_WORKLOAD)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        label = args.label or f"scale{args.scale:g}-seed{args.seed}"
        trajectory.append(record, label=label, role=ROLE_ACCURACY)
        save_trajectory(trajectory, path)
        recorded = (label, path)
    if args.json:
        print(report.to_json())
    elif args.markdown:
        print(report.to_markdown())
    else:
        print(report.to_text())
        if recorded is not None:
            print(f"\nrecorded entry '{recorded[0]}' in {recorded[1]}")
    if invalid:
        print(
            f"error: validity violation — B-Side min per-app recall "
            f"{bside['min_recall']:.4f} < 1.0 over "
            f"{bside['completed_apps']}/{bside['apps']} completed apps; "
            f"run not recorded", file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace(args) -> int:
    from .emu import run_traced

    inputs = tuple(int(x, 0) for x in args.inputs.split(",")) if args.inputs else ()
    result = run_traced(_load(args.binary), _resolver(args), inputs)
    for record in result.records:
        arg_text = ", ".join(f"{a:#x}" for a in record.args[:3])
        print(f"{record.name}({arg_text}, ...) @ {record.rip:#x}")
    print(f"+++ exited with {result.exit_status} "
          f"({len(result.records)} syscalls) +++")
    return 0


def cmd_serve(args) -> int:
    import logging

    from .service import (
        AnalysisService,
        AsyncServiceServer,
        ServiceWorker,
        spawn_workers,
    )

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.join:
        # Worker-only mode: attach to an existing deployment's state
        # directory; shard count / cache root / TTL come from its
        # service.json so this process agrees with the front end.
        worker = ServiceWorker(args.state_dir, worker_id=args.worker_id)
        print(f"bside serve: worker {worker.worker_id} joined "
              f"{args.state_dir} (shards {worker.service.shards}, "
              f"lease ttl {worker.queue.lease_ttl:g}s)")
        try:
            worker.run()
        except KeyboardInterrupt:
            pass
        return 0

    external = max(0, args.worker_procs)
    service = AnalysisService(
        args.state_dir,
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_size=args.queue_size,
        libdir=args.libdir,
        shards=args.shards,
        shared=external > 0,
        lease_ttl=args.lease_ttl,
    )
    service.write_config()
    server = AsyncServiceServer(service, host=args.host, port=args.port)
    processes = spawn_workers(args.state_dir, external) if external else []
    print(f"bside serve: listening on {server.url}")
    print(f"  state dir:  {service.state_dir}")
    print(f"  cache dir:  {service.cache_dir} (shards {service.shards})")
    if external:
        print(f"  drained by: {external} worker processes "
              f"(lease ttl {service.queue.lease_ttl:g}s)")
    else:
        print(f"  workers:    {service.workers} "
              f"(batch {service.batch_size}, fan-out {service.fleet_workers})")
    try:
        server.serve_forever()
    finally:
        for process in processes:
            process.terminate()
    return 0


def cmd_submit(args) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    libdir = os.path.abspath(args.libdir) if args.libdir else None
    try:
        if args.fleet:
            job = client.submit_directory(
                os.path.abspath(args.target), libdir=libdir,
            )
        elif args.inline:
            with open(args.target, "rb") as f:
                data = f.read()
            job = client.submit_bytes(
                os.path.basename(args.target), data, libdir=libdir,
            )
        else:
            job = client.submit_path(
                os.path.abspath(args.target), libdir=libdir,
            )
        if args.no_wait:
            print(json.dumps({"job": job}, indent=2))
            return 0
        job = client.wait(job["id"], timeout=args.timeout)
        if job["status"] == "failed":
            print(f"error: job {job['id']} failed: {job['error']}",
                  file=sys.stderr)
            return 2
        report = client.report(job["id"])  # one fetch: result + exit code
        if args.filter:
            print(json.dumps(client.filter(job["id"]), indent=2))
        elif args.profile:
            print(json.dumps(client.profile(job["id"]), indent=2))
        elif args.json:
            print(json.dumps({"job": job, "result": report}, indent=2))
        else:
            _print_submit_result(job, report)
        return _submit_status(job, report)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _submit_status(job: dict, report: dict) -> int:
    """0 all analyses succeeded, 1 at least one failed."""
    if job["kind"] == "fleet":
        binaries = report.get("report", {}).get("binaries", [])
        return 0 if all(b.get("success") for b in binaries) else 1
    return 0 if report.get("success") else 1


def _print_submit_result(job: dict, report: dict) -> None:
    metrics = job.get("metrics", {})
    origin = "cache" if metrics.get("from_cache") else "analysis"
    if job["kind"] == "fleet":
        doc = report.get("report", {})
        print(f"job {job['id']}: fleet of {doc.get('fleet_size')} binaries, "
              f"{doc.get('success_rate', 0):.1%} analyzed "
              f"({metrics.get('seconds', 0):.3f}s)")
        return
    if not report.get("success"):
        print(f"job {job['id']}: analysis failed in stage "
              f"{report.get('failure_stage')}: {report.get('failure_reason')}")
        return
    names = sorted(name_of(nr) for nr in report.get("syscalls", []))
    print(f"job {job['id']}: {len(names)} syscalls via {origin} "
          f"({metrics.get('seconds', 0):.3f}s): {', '.join(names)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bside",
        description="Binary-level static system call identification "
                    "(B-Side reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--libdir", help="directory with shared-library deps")

    def cache_flags(p):
        p.add_argument("--cache-dir",
                       help="persistent artifact cache directory")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore --cache-dir and analyze everything fresh")

    def sig_flag(p):
        p.add_argument("--no-sig-filter", action="store_true",
                       help="disable the signature-compatibility refinement "
                            "of indirect-call resolution (the ablation "
                            "configuration: every address-taken function "
                            "stays a candidate target)")

    p = sub.add_parser("analyze", help="identify a binary's syscalls")
    p.add_argument("binary")
    p.add_argument("--json", action="store_true")
    common(p)
    cache_flags(p)
    sig_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("profile",
                       help="per-pass timing profile of one cold analysis")
    p.add_argument("binary")
    p.add_argument("--json", action="store_true")
    p.add_argument("--repeats", type=int, default=3,
                   help="analysis runs; the fastest total is reported")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("phases", help="detect execution phases")
    p.add_argument("binary")
    common(p)
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("filter", help="derive a seccomp-style filter")
    p.add_argument("binary")
    common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("docker-profile",
                       help="emit an OCI/Docker seccomp JSON profile")
    p.add_argument("binary")
    common(p)
    p.set_defaults(func=cmd_docker_profile)

    p = sub.add_parser("interface", help="print a library's shared interface")
    p.add_argument("library")
    common(p)
    p.set_defaults(func=cmd_interface)

    corpus = sub.add_parser("corpus", help="corpus operations")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    p = corpus_sub.add_parser("generate", help="write the corpus to disk")
    p.add_argument("outdir")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_corpus_generate)

    p = sub.add_parser("eval",
                       help="reproduce the paper's accuracy tables")
    p.add_argument("--scale", type=float, default=1.0,
                   help="corpus scale factor (1.0 = the 557-binary "
                        "population)")
    p.add_argument("--seed", type=int, default=2024,
                   help="corpus generation seed")
    p.add_argument("--tools",
                   help="comma list of tools to evaluate: "
                        "b-side,chestnut,sysfilter,naive (default: all)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the B-Side corpus sweep")
    p.add_argument("--json", action="store_true",
                   help="print the full EvalReport JSON")
    p.add_argument("--markdown", action="store_true",
                   help="print the Markdown tables (the docs rendering)")
    p.add_argument("--apps-only", action="store_true",
                   help="skip the corpus sweep (validation apps only)")
    p.add_argument("--trajectory",
                   help="accuracy trajectory file "
                        "(default: BENCH_eval_accuracy.json at the repo "
                        "root)")
    p.add_argument("--label",
                   help="label for the recorded trajectory entry "
                        "(default: scale<S>-seed<N>)")
    p.add_argument("--no-record", action="store_true",
                   help="do not append this run to the trajectory")
    cache_flags(p)
    sig_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="run under the emulator and trace")
    p.add_argument("binary")
    p.add_argument("--inputs", default="")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("fleet", help="batch-analyze a directory of binaries")
    p.add_argument("directory")
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for per-binary analysis")
    common(p)
    cache_flags(p)
    sig_flag(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("serve", help="run the analysis-as-a-service daemon")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8649,
                   help="bind port; 0 picks an ephemeral port")
    p.add_argument("--state-dir", required=True,
                   help="directory for job records, spooled binaries, "
                        "and the default cache")
    p.add_argument("--cache-dir",
                   help="artifact cache directory "
                        "(default: <state-dir>/cache)")
    p.add_argument("--workers", type=int, default=1,
                   help="executor workers: scales admission batches and "
                        "the per-batch process fan-out")
    p.add_argument("--worker-procs", type=int, default=0,
                   help="spawn N external worker processes draining the "
                        "queue via leases (0: run the in-process executor)")
    p.add_argument("--shards", type=int, default=1,
                   help="shard the artifact store across N roots by "
                        "content hash")
    p.add_argument("--join", action="store_true",
                   help="join an existing deployment's state dir as a "
                        "worker-only process (reads its service.json)")
    p.add_argument("--worker-id",
                   help="worker name for --join (default: worker-<pid>)")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds before a silent worker's job leases "
                        "expire and are re-queued")
    p.add_argument("--queue-size", type=int, default=64,
                   help="max queued jobs before submissions get 429")
    p.add_argument("--libdir",
                   help="default shared-library directory for jobs that "
                        "do not name one")
    p.add_argument("--log-level", default="info",
                   help="logging level (debug, info, warning, ...)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running daemon")
    p.add_argument("target", help="binary path (or directory with --fleet)")
    p.add_argument("--url", "--endpoint", dest="url",
                   default="http://127.0.0.1:8649",
                   help="daemon base URL (--endpoint is an alias)")
    p.add_argument("--fleet", action="store_true",
                   help="submit the target directory as one fleet job")
    p.add_argument("--inline", action="store_true",
                   help="upload the binary's bytes instead of its path")
    p.add_argument("--no-wait", action="store_true",
                   help="enqueue and print the job id without waiting")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for completion")
    p.add_argument("--json", action="store_true",
                   help="print the full job + report JSON")
    p.add_argument("--filter", action="store_true",
                   help="print the derived seccomp-style filter")
    p.add_argument("--profile", action="store_true",
                   help="print the derived OCI/Docker seccomp profile")
    common(p)
    p.set_defaults(func=cmd_submit)

    cache = sub.add_parser("cache", help="artifact-cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    p = cache_sub.add_parser("stats", help="per-kind entry counts and sizes")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--shards", type=int, default=1,
                   help="treat the cache as sharded across N roots")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cache)
    p = cache_sub.add_parser("clear", help="delete every cache entry")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--shards", type=int, default=1,
                   help="treat the cache as sharded across N roots")
    p.set_defaults(func=cmd_cache)
    p = cache_sub.add_parser("prune", help="delete one artifact kind")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--shards", type=int, default=1,
                   help="treat the cache as sharded across N roots")
    p.add_argument("--kind", required=True,
                   choices=["iface", "cfg", "funccfg", "funcid", "wrappers",
                            "report", "gtruth"])
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
