"""Command-line interface.

All commands are thin frontends over the session API
(:mod:`repro.api`): each invocation opens a :class:`~repro.api.Dataset`
handle, runs the query through a :class:`~repro.api.StructurednessSession`
and renders the typed result — as text by default, as JSON with ``--json``.

Examples
--------
Evaluate structuredness functions on an N-Triples file::

    repro evaluate data.nt --sort http://xmlns.com/foaf/0.1/Person

Evaluate a custom rule, machine-readably::

    repro evaluate data.nt --rule "c = c -> val(c) = 1" --json

Find the highest-θ refinement with k sorts::

    repro refine data.nt --rule-name Cov -k 2

Find the lowest k for a threshold given as a fraction::

    repro refine data.nt --theta 3/4 --solver highs

Run a paper experiment::

    repro experiment table1
    repro experiment figure4 --param n_subjects=5000

List the available experiments::

    repro experiment --list

Run a JSONL batch through the service executor (4 worker processes)::

    repro batch jobs.jsonl --workers 4 --output results.jsonl

Start the HTTP service (``--port 0`` picks an ephemeral port) over a
pool of 4 worker processes::

    repro serve --port 8080 --workers 4

Serve over a pool of 2 worker processes and answer 429 once 64
compute requests are pending::

    repro serve --workers 2 --pending-limit 64

Watch structuredness live while replaying a JSONL mutation stream (see
docs/observability.md)::

    repro watch data.nt --rule Cov --theta 3/4 --replay mutations.jsonl

Persist a dataset's artifact chain and inspect the result (see
docs/snapshots.md)::

    repro snapshot build snapshots/persons --builtin dbpedia-persons --param n_subjects=5000
    repro snapshot build snapshots/people --ntriples data.nt --sort http://xmlns.com/foaf/0.1/Person
    repro snapshot inspect snapshots/persons --json

Build a snapshot from an N-Triples file that does not fit in memory,
streaming it through the out-of-core pipeline (see docs/outofcore.md)::

    repro build huge.nt snapshots/huge --out-of-core --chunk-triples 65536 --partitions 8
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from repro import __version__
from repro.api import Dataset, StructurednessSession, parse_theta
from repro.exceptions import RequestError, SnapshotError
from repro.ilp.registry import DEFAULT_SOLVER, solver_names
from repro.matrix.horizontal import render_signature_table
from repro.rules.parser import parse_rule

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RDF structuredness functions and ILP-based sort refinement (VLDB 2014 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    evaluate = subparsers.add_parser("evaluate", help="evaluate structuredness of an N-Triples file")
    evaluate.add_argument("path", help="path to an N-Triples file")
    evaluate.add_argument("--sort", help="restrict to subjects declared of this rdf:type")
    evaluate.add_argument("--rule", help="a rule in the concrete syntax (default: report Cov and Sim)")
    evaluate.add_argument("--figure", action="store_true", help="also print the signature-view figure")
    evaluate.add_argument("--json", action="store_true", help="emit the result as JSON")

    refine = subparsers.add_parser("refine", help="compute a sort refinement of an N-Triples file")
    refine.add_argument("path", help="path to an N-Triples file")
    refine.add_argument("--sort", help="restrict to subjects declared of this rdf:type")
    refine.add_argument("--rule", help="a rule in the concrete syntax")
    refine.add_argument(
        "--rule-name", choices=["Cov", "Sim"], default="Cov", help="a built-in rule (ignored when --rule is given)"
    )
    refine.add_argument("-k", type=int, default=None, help="fixed k: search for the highest theta")
    refine.add_argument(
        "--theta",
        default=None,
        help="fixed theta: search for the lowest k; accepts decimals or fractions, e.g. 0.9 or 3/4",
    )
    refine.add_argument("--step", type=float, default=0.01, help="theta search step (default 0.01)")
    refine.add_argument("--time-limit", type=float, default=120.0, help="per-ILP time limit in seconds")
    refine.add_argument(
        "--solver",
        default=DEFAULT_SOLVER,
        choices=list(solver_names()),
        help=f"MILP backend (default {DEFAULT_SOLVER!r})",
    )
    refine.add_argument("--json", action="store_true", help="emit the result as JSON")

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument("experiment_id", nargs="?", help="experiment id (see --list)")
    experiment.add_argument("--list", action="store_true", help="list available experiments")
    experiment.add_argument(
        "--param",
        action="append",
        default=[],
        help="experiment parameter override, e.g. --param n_subjects=5000 (repeatable)",
    )
    experiment.add_argument("--json", action="store_true", help="emit the result as JSON")

    batch = subparsers.add_parser(
        "batch", help="run a JSONL batch of service requests (see repro.service.wire)"
    )
    batch.add_argument("input", help="path to a JSONL request file, or '-' for stdin")
    batch.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    batch.add_argument("--output", "-o", help="write result JSONL here instead of stdout")
    batch.add_argument("--time-limit", type=float, default=None, help="per-ILP time limit in seconds")
    batch.add_argument("--stats", action="store_true", help="print executor stats to stderr")

    serve = subparsers.add_parser("serve", help="start the HTTP structuredness service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="TCP port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    serve.add_argument("--time-limit", type=float, default=None, help="per-ILP time limit in seconds")
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    serve.add_argument(
        "--pending-limit", type=int, default=64,
        help="admitted compute requests at once; the next one gets "
        "429 + Retry-After (default 64)",
    )

    watch = subparsers.add_parser(
        "watch", help="watch structuredness live while replaying a mutation stream"
    )
    watch.add_argument("path", help="path to an N-Triples file")
    watch.add_argument("--sort", help="restrict to subjects declared of this rdf:type")
    watch.add_argument(
        "--rule",
        action="append",
        help="a rule name or concrete-syntax text to watch (repeatable; default Cov)",
    )
    watch.add_argument(
        "--theta", help="also track the lowest-k refinement at this threshold (e.g. 3/4)"
    )
    watch.add_argument(
        "--replay",
        default="-",
        help="JSONL mutation stream ({\"add\": [[s,p,o],...], \"remove\": [...]} per line); "
        "'-' reads stdin (default)",
    )
    watch.add_argument("--json", action="store_true", help="emit events as JSONL")

    ooc_build = subparsers.add_parser(
        "build", help="build a snapshot from an N-Triples file (optionally out-of-core)"
    )
    ooc_build.add_argument("source", help="path to an N-Triples file")
    ooc_build.add_argument("output", help="snapshot directory to write")
    ooc_build.add_argument(
        "--out-of-core",
        action="store_true",
        help="stream the file through the disk-backed pipeline in bounded "
        "memory instead of building the dataset in RAM (see docs/outofcore.md)",
    )
    ooc_build.add_argument(
        "--chunk-triples", type=int, default=None,
        help="out-of-core parse-chunk size in triples (default: the "
        "REPRO_OOC_CHUNK env var, else 65536)",
    )
    ooc_build.add_argument(
        "--partitions", type=int, default=None,
        help="out-of-core subject-partition count for the merge passes "
        "(default: the REPRO_OOC_PARTITIONS env var, else 8)",
    )
    ooc_build.add_argument(
        "--sort", help="restrict to subjects declared of this rdf:type"
    )
    ooc_build.add_argument("--name", help="dataset display name recorded in the manifest")
    ooc_build.add_argument("--force", action="store_true", help="overwrite an existing snapshot")
    ooc_build.add_argument("--json", action="store_true", help="emit the manifest info as JSON")

    snapshot = subparsers.add_parser(
        "snapshot", help="persist and inspect binary dataset snapshots"
    )
    snapshot.set_defaults(snapshot_parser=snapshot)
    snapshot_commands = snapshot.add_subparsers(dest="snapshot_command")
    build = snapshot_commands.add_parser(
        "build", help="build a dataset and persist its artifact chain"
    )
    build.add_argument("output", help="snapshot directory to write")
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument("--ntriples", help="path to an N-Triples file")
    source.add_argument("--builtin", help="a built-in synthetic dataset name")
    build.add_argument("--sort", help="restrict to subjects declared of this rdf:type (N-Triples only)")
    build.add_argument(
        "--param",
        action="append",
        default=[],
        help="built-in generator parameter, e.g. --param n_subjects=5000 (repeatable)",
    )
    build.add_argument("--name", help="dataset display name recorded in the manifest")
    build.add_argument("--force", action="store_true", help="overwrite an existing snapshot")
    build.add_argument("--json", action="store_true", help="emit the manifest info as JSON")
    inspect = snapshot_commands.add_parser(
        "inspect", help="verify a snapshot and print its manifest"
    )
    inspect.add_argument("path", help="snapshot directory to inspect")
    inspect.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-segment SHA-256 pass (structure and sizes are still checked)",
    )
    inspect.add_argument("--json", action="store_true", help="emit the manifest info as JSON")
    return parser


def _open_session(args: argparse.Namespace, **options) -> StructurednessSession:
    dataset = Dataset.from_ntriples(args.path, sort=args.sort)
    return dataset.session(**options)


def _parse_params(raw: List[str]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for item in raw:
        if "=" not in item:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        parsed: object
        try:
            parsed = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                if value.lower() in ("true", "false"):
                    parsed = value.lower() == "true"
                else:
                    parsed = value
        params[key.strip()] = parsed
    return params


def _parse_theta_arg(raw: str) -> Fraction:
    try:
        return parse_theta(raw)
    except RequestError as error:
        raise SystemExit(f"--theta: {error}")


def _command_evaluate(args: argparse.Namespace) -> int:
    session = _open_session(args)
    table = session.dataset.table
    results = [session.evaluate(parse_rule(args.rule))] if args.rule else [
        session.evaluate("Cov"),
        session.evaluate("Sim"),
    ]
    if args.json:
        import json

        payload = {"dataset": session.info.to_dict(), "results": [r.to_dict() for r in results]}
        print(json.dumps(payload, indent=2))
        return 0
    info = session.info
    print(
        f"{info.name or args.path}: {info.n_subjects} subjects, "
        f"{info.n_properties} properties, {info.n_signatures} signatures"
    )
    if args.rule:
        print(f"sigma[{args.rule}] = {results[0].value:.4f}")
    else:
        for result in results:
            print(f"{result.rule} = {result.value:.4f}")
    if args.figure:
        print(render_signature_table(table))
    return 0


def _command_refine(args: argparse.Namespace) -> int:
    session = _open_session(args, solver=args.solver, solver_time_limit=args.time_limit)
    rule = parse_rule(args.rule) if args.rule else args.rule_name

    if (args.k is None) == (args.theta is None):
        raise SystemExit("specify exactly one of -k (highest theta) or --theta (lowest k)")
    if args.k is not None:
        result = session.refine(rule, k=args.k, step=args.step)
        header = (
            f"highest theta for k = {args.k}: {result.theta:.4f} "
            f"({result.n_probes} ILP probes)"
        )
    else:
        theta = _parse_theta_arg(args.theta)
        result = session.lowest_k(rule, theta=theta)
        header = (
            f"lowest k for theta = {float(theta):g}: {result.k} "
            f"({result.n_probes} ILP probes)"
        )
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(header)
    print(result.refinement.summary(session.function_for(rule)))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments, run_experiment

    if args.list or not args.experiment_id:
        print("available experiments:")
        for experiment_id in sorted(all_experiments()):
            print(f"  {experiment_id}")
        return 0
    params = _parse_params(args.param)
    result = run_experiment(args.experiment_id, **params)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(result.to_text())
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    from repro.service import create_executor

    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    with create_executor(workers=args.workers, solver_time_limit=args.time_limit) as executor:
        try:
            output = executor.execute_jsonl(text)
        except RequestError as error:
            raise SystemExit(f"batch: {error}")
        if args.stats:
            import json

            print(json.dumps(executor.stats(), sort_keys=True), file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output + ("\n" if output else ""))
    else:
        print(output)
    return 0


def _command_build(args: argparse.Namespace) -> int:
    import json

    if not args.out_of_core and (args.chunk_triples is not None or args.partitions is not None):
        raise SystemExit("build: --chunk-triples/--partitions require --out-of-core")
    try:
        if args.out_of_core:
            from repro.storage.outofcore import build_out_of_core

            info = build_out_of_core(
                args.source,
                args.output,
                name=args.name or "",
                sort=args.sort,
                chunk_triples=args.chunk_triples,
                partitions=args.partitions,
                overwrite=args.force,
            )
        else:
            dataset = Dataset.from_ntriples(args.source, sort=args.sort)
            info = dataset.save(args.output, name=args.name, overwrite=args.force)
    except (SnapshotError, RequestError) as error:
        raise SystemExit(f"build: {error}")
    if args.json:
        print(json.dumps(info.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_snapshot_info(info, verb="wrote"))
    return 0


def _command_snapshot(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json

    if args.snapshot_command == "build":
        if args.builtin is not None:
            if args.sort:
                raise SystemExit("--sort applies to --ntriples sources, not --builtin")
            dataset = Dataset.builtin(args.builtin, **_parse_params(args.param))
        else:
            if args.param:
                raise SystemExit("--param applies to --builtin sources, not --ntriples")
            dataset = Dataset.from_ntriples(args.ntriples, sort=args.sort)
        try:
            info = dataset.save(args.output, name=args.name, overwrite=args.force)
        except SnapshotError as error:
            raise SystemExit(f"snapshot build: {error}")
        if args.json:
            print(json.dumps(info.to_dict(), indent=2, sort_keys=True))
        else:
            print(_render_snapshot_info(info, verb="wrote"))
        return 0
    if args.snapshot_command == "inspect":
        from repro.storage.snapshots import inspect_snapshot

        try:
            info = inspect_snapshot(args.path, verify=not args.no_verify)
        except SnapshotError as error:
            raise SystemExit(f"snapshot inspect: {error}")
        if args.json:
            print(json.dumps(info.to_dict(), indent=2, sort_keys=True))
        else:
            print(_render_snapshot_info(info, verb="verified"))
        return 0
    # No subcommand: print the snapshot help but fail, like bare `repro`.
    args.snapshot_parser.print_help(sys.stderr)
    return 1


def _render_snapshot_info(info, verb: str) -> str:
    lines = [
        f"{verb} snapshot {info.path} (format v{info.format_version})",
        f"  dataset    : {info.name or '(unnamed)'}",
        f"  generation : {info.generation}",
        f"  stages     : {', '.join(info.stages)}",
        f"  counts     : " + ", ".join(f"{k}={v}" for k, v in sorted(info.counts.items())),
        f"  payload    : {info.total_bytes} bytes in {len(info.segments)} segments",
    ]
    for segment_name in sorted(info.segments):
        meta = info.segments[segment_name]
        lines.append(
            f"    {segment_name:<22} {int(meta['bytes']):>12} bytes  sha256 {str(meta['sha256'])[:12]}…"
        )
    return "\n".join(lines)


def _command_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit("serve: --workers must be >= 1")
    if args.pending_limit < 1:
        raise SystemExit("serve: --pending-limit must be >= 1")
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        solver_time_limit=args.time_limit,
        verbose=args.verbose,
        pending_limit=args.pending_limit,
    )


def _render_watch_event(event) -> str:
    """One human-readable dashboard line per :class:`WatchEvent`."""
    if event.kind == "drift":
        return (
            f"gen {event.generation:>4}  {event.rule}: lowest-k drift "
            f"{event.previous_k} -> {event.k} at theta={event.theta} "
            f"(covered sorts: {event.covered_sorts}/{len(event.sort_sigmas)})"
        )
    if event.kind == "heartbeat":
        return f"gen {event.generation:>4}  (idle)"
    marker = "*" if event.changed else " "
    return (
        f"gen {event.generation:>4} {marker}{event.rule}: sigma={event.sigma} "
        f"({event.value:.4f})"
    )


def _command_watch(args: argparse.Namespace) -> int:
    import json

    from repro.api.watch import WatchSession

    dataset = Dataset.from_ntriples(args.path, sort=args.sort)
    theta = _parse_theta_arg(args.theta) if args.theta else None
    try:
        watch = WatchSession(dataset, tuple(args.rule or ("Cov",)), theta=theta)
    except RequestError as error:
        raise SystemExit(f"watch: {error}")

    def emit(event) -> None:
        if args.json:
            print(json.dumps(event.to_dict(), sort_keys=True), flush=True)
        else:
            print(_render_watch_event(event), flush=True)

    watch.subscribe(emit)
    watch.poll()  # baseline observation before any mutation is replayed
    stream = sys.stdin if args.replay == "-" else open(args.replay, "r", encoding="utf-8")
    try:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = json.loads(line)
                dataset.mutate(add=entry.get("add", ()), remove=entry.get("remove", ()))
            except (ValueError, RequestError) as error:
                print(f"watch: replay line {line_no}: {error}", file=sys.stderr)
                return 1
            watch.poll()
    finally:
        if stream is not sys.stdin:
            stream.close()
        watch.close()
    if not args.json:
        stats = watch.stats
        print(
            f"-- {stats['observations']} observations, {stats['events']} events, "
            f"{stats['alerts']} drift alerts",
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate":
        return _command_evaluate(args)
    if args.command == "refine":
        return _command_refine(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "batch":
        return _command_batch(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "watch":
        return _command_watch(args)
    if args.command == "build":
        return _command_build(args)
    if args.command == "snapshot":
        return _command_snapshot(args, parser)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
