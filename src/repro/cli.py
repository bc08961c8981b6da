"""Command line interface.

The CLI is a thin shell over the declarative experiment API
(:mod:`repro.experiments`): every workflow builds an
:class:`~repro.experiments.ExperimentSpec` and runs it through the same
facade, so anything the CLI can run can also be saved as a spec file,
persisted to a result store and replayed bit for bit.

``run``
    Run a single counting experiment and print its timing and accuracy
    summary.  The experiment comes from ``--config FILE`` (a spec file),
    ``--scenario NAME`` (the registry), or the midtown flags (default).
    ``--save [DIR]`` persists the result (with provenance) into a result
    store, ``--json`` prints the machine-readable record, ``--resume``
    returns the stored result when the store already holds one.

``sweep``
    Run (or resume) a volume x seeds sweep described by a spec file with a
    ``sweep`` section: ``sweep --spec FILE --out DIR --resume``.  Interrupted
    sweeps resume cell-for-cell identical to an uninterrupted run.

    ``--retries`` / ``--cell-timeout`` / ``--keep-going`` supervise the
    cells: failed cells are retried with deterministic backoff, a cell
    exceeding its wall-clock budget has its worker reaped (pool runs), and
    with ``--keep-going`` a cell that exhausts its retries is recorded as a
    failure instead of aborting the sweep.  The supervision report lands in
    ``<store>/health.json``.

``replay``
    Re-run the experiment stored in a result-store directory and verify the
    fresh results reproduce the stored ones bit for bit.

``store-check``
    Verify a result store's on-disk integrity (fsck): manifest parse,
    per-record checksums, torn/corrupt record quarantine, failure records,
    writer-lock state.  Exit code 1 when anything is damaged.

``export-spec``
    Write a registry scenario as an experiment-spec file (the serializable
    form of ``run --scenario``).

``list-scenarios``
    Print the scenario registry: every named workload ``run --scenario``
    and the ``validate`` battery accept.

``figure``
    Regenerate one of the paper's figures (2–5) as ASCII tables.  The
    ``--quick`` flag uses the reduced sweep the benchmarks use; without it
    the full 10x10 grid of the paper is run (slow).

``import-network`` / ``export-network`` / ``gen-city``
    Tabular networks (:mod:`repro.roadnet.tabular`): validate a nodes/links
    file and summarize it, write any registry-built network as tables, or
    generate a seeded synthetic city (:func:`repro.roadnet.synth.synthetic_city`)
    straight to disk.  Imported files run as
    ``NetworkSpec("tabular", kwargs={"path": ...})`` in specs and sweeps.

``validate``
    Run a battery of correctness checks — the four classic configurations
    (closed, open, lossy, one-way) plus every scenario in the registry —
    and report whether each counted exactly: the executable form of the
    paper's observation 1.  ``--registry-only`` restricts the battery to
    the registry sweep (the CI smoke step).

``lint``
    Run ``reprolint`` (:mod:`repro.devtools`), the determinism-invariant
    static analyzer, over the installed package (or explicit paths):
    unseeded RNGs, wall-clock reads in the deterministic core, unordered
    iteration, float ``==``, non-atomic writes, plus the semantic
    registry-completeness check.  ``--json`` prints the machine-readable
    report; exit code 1 on any finding.

Examples
--------
::

    repro-count run --volume 0.6 --seeds 2 --scale 0.3
    repro-count run --scenario rush-hour --save runs/rush-hour
    repro-count run --config examples/spec_midtown.json --save
    repro-count replay runs/spec-midtown
    repro-count sweep --spec my_sweep.json --out runs/my-sweep --resume
    repro-count sweep --spec my_sweep.json --retries 2 --cell-timeout 300 --keep-going
    repro-count store-check runs/my-sweep
    repro-count export-spec lossy-grid --out lossy.json
    repro-count figure 2 --quick
    repro-count validate --registry-only
    repro-count lint --json
    repro-count gen-city --districts 3 --out city.json
    repro-count import-network city.json
    repro-count export-network midtown --kwarg scale=0.3 --out midtown.nodes.csv
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from .analysis.figures import figure2, figure3, figure4, figure5, midtown_scenario
from .analysis.report import correctness_summary, describe_run, describe_sweep
from .core.patrol import PatrolPlan
from .errors import ReproError
from .experiments import (
    ExperimentSpec,
    NetworkSpec,
    Observer,
    ProgressObserver,
    ResultStore,
    RetryPolicy,
    replay,
)
from .mobility.demand import DemandConfig
from .scenarios import get_scenario, iter_scenarios
from .sim.config import ScenarioConfig
from .sim.results import RunResult
from .sim.runner import SweepSpec
from .units import SPEED_LIMIT_15_MPH, SPEED_LIMIT_25_MPH
from ._version import __version__

__all__ = ["main", "build_parser"]

#: Sentinel for ``--save`` given without a directory: derive one from the
#: experiment name (``runs/<name>``).
_AUTO_SAVE = "@auto"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-count",
        description="Infrastructure-less vehicle counting (ICPP 2014) reproduction harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one counting experiment")
    run.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="experiment-spec file (see export-spec); "
        "omits the midtown-specific flags below",
    )
    run.add_argument(
        "--scenario",
        default=None,
        help="named scenario from the registry (see list-scenarios); "
        "omits the midtown-specific flags below",
    )
    run.add_argument(
        "--volume", type=float, default=None,
        help="traffic volume fraction in (0, 1.5] (default: 0.6, or the scenario's own)",
    )
    run.add_argument(
        "--seeds", type=int, default=None,
        help="number of seed checkpoints (default: 1, or the scenario's own)",
    )
    run.add_argument(
        "--scale", type=float, default=None,
        help="midtown region scale (0-1] (default: 0.3; midtown runs only)",
    )
    run.add_argument("--open", action="store_true", help="open system (border interaction traffic)")
    run.add_argument("--speed25", action="store_true", help="lift the speed limit to 25 mph")
    run.add_argument(
        "--rng-seed", type=int, default=None,
        help="root random seed (default: 2014, or the scenario's own)",
    )
    run.add_argument(
        "--patrol", type=int, default=None,
        help="number of patrol cars (default: 2; midtown runs only)",
    )
    run.add_argument(
        "--max-minutes", type=float, default=None,
        help="simulation horizon in minutes (default: 240; midtown runs only)",
    )
    run.add_argument(
        "--save", nargs="?", const=_AUTO_SAVE, default=None, metavar="DIR",
        help="persist the result (with provenance manifest) into a result "
        "store; without DIR the store goes to runs/<experiment-name>",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="with --save: return the stored result if one already exists",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print the machine-readable result record instead of the summary",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="report progress to stderr while the experiment runs",
    )

    swp = sub.add_parser("sweep", help="run (or resume) a sweep from a spec file")
    swp.add_argument("--spec", required=True, metavar="FILE",
                     help="experiment-spec file with a 'sweep' section")
    swp.add_argument("--out", default=None, metavar="DIR",
                     help="result-store directory (default: runs/<experiment-name>)")
    swp.add_argument("--resume", action="store_true",
                     help="skip cells already recorded in the store")
    swp.add_argument("--parallel", action="store_true",
                     help="fan cells out over a process pool (identical results)")
    swp.add_argument("--json", action="store_true",
                     help="print the machine-readable sweep record")
    swp.add_argument("--progress", action="store_true",
                     help="report per-cell progress to stderr")
    swp.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry each failed cell up to N times (deterministic "
        "exponential backoff; retrying cannot change results — every cell "
        "is a pure function of its coordinates)",
    )
    swp.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget on the pool path: a hung cell's "
        "worker is killed and the pool restarted instead of blocking the "
        "sweep (counts as one attempt)",
    )
    swp.add_argument(
        "--keep-going", action="store_true",
        help="record a cell that exhausts its retries as a failure "
        "(visible in health.json and store-check; re-run by --resume) "
        "instead of aborting the sweep",
    )

    rep = sub.add_parser(
        "replay", help="re-run a stored experiment and verify bit-for-bit reproduction"
    )
    rep.add_argument("store", metavar="DIR", help="result-store directory")

    chk = sub.add_parser(
        "store-check", help="verify a result store's on-disk integrity (fsck)"
    )
    chk.add_argument("store", metavar="DIR", help="result-store directory")
    chk.add_argument("--json", action="store_true",
                     help="print the machine-readable integrity report")

    exp = sub.add_parser("export-spec", help="write a registry scenario as a spec file")
    exp.add_argument("scenario", help="scenario name (see list-scenarios)")
    exp.add_argument("--out", default=None, metavar="FILE",
                     help="output file (default: stdout)")

    sub.add_parser("list-scenarios", help="list the named scenarios of the registry")

    fig = sub.add_parser("figure", help="regenerate one of the paper's figures")
    fig.add_argument("number", type=int, choices=(2, 3, 4, 5), help="figure number")
    fig.add_argument("--quick", action="store_true", help="reduced sweep (fast)")
    fig.add_argument("--scale", type=float, default=0.3, help="midtown region scale")
    fig.add_argument("--replications", type=int, default=2, help="runs per sweep cell")

    imp = sub.add_parser(
        "import-network",
        help="validate a tabular network file (nodes/links) and summarize it",
    )
    imp.add_argument("path", metavar="FILE",
                     help="network tables: .json, or either file of a "
                     ".nodes.csv/.links.csv (or .parquet) pair")
    imp.add_argument("--name", default=None, help="override the network name")
    imp.add_argument("--json", action="store_true",
                     help="print the machine-readable summary")

    exn = sub.add_parser(
        "export-network",
        help="write a registry-built network as tabular nodes/links files",
    )
    exn.add_argument("builder", help="builder name (e.g. grid, midtown, "
                     "synthetic-city; see the builder registry)")
    exn.add_argument("--arg", action="append", default=[], metavar="JSON",
                     help="positional builder argument, JSON-encoded "
                     "(repeatable, in order)")
    exn.add_argument("--kwarg", action="append", default=[], metavar="K=JSON",
                     help="keyword builder argument, value JSON-encoded "
                     "(repeatable)")
    exn.add_argument("--out", required=True, metavar="PATH",
                     help="output path or prefix")
    exn.add_argument("--format", choices=("json", "csv", "parquet"),
                     default=None, help="serialization (default: from suffix)")

    gen = sub.add_parser(
        "gen-city", help="generate a synthetic city and write it as tables"
    )
    gen.add_argument("--districts", type=int, default=3,
                     help="macro-grid side (districts x districts)")
    gen.add_argument("--district-size", type=int, default=18,
                     help="street-grid side per district")
    gen.add_argument("--gates", type=int, default=0,
                     help="border gates to declare (0 = closed system)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", required=True, metavar="PATH",
                     help="output path or prefix")
    gen.add_argument("--format", choices=("json", "csv", "parquet"),
                     default=None, help="serialization (default: from suffix)")

    lnt = sub.add_parser(
        "lint", help="run the determinism-invariant static analyzer (reprolint)"
    )
    lnt.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed repro package)",
    )
    lnt.add_argument("--json", action="store_true",
                     help="print the machine-readable report")
    lnt.add_argument("--no-semantic", action="store_true",
                     help="skip the S1 registry-completeness check")

    srv = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP job server streaming runs)",
    )
    srv.add_argument(
        "--root", required=True, metavar="DIR",
        help="service root: one result-store directory is kept per run",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8080,
                     help="bind port (default: 8080; 0 picks a free port)")
    srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker threads executing runs (default: min(4, cpu count))",
    )
    srv.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="bounded FIFO queue size; further submissions get 429 "
        "(default: 16)",
    )

    val = sub.add_parser("validate", help="run the correctness battery (observation 1)")
    val.add_argument(
        "--rng-seed", type=int, default=7,
        help="root random seed of the classic battery (registry scenarios "
        "always use their own registered seeds)",
    )
    val.add_argument(
        "--registry-only",
        action="store_true",
        help="only sweep the scenario registry (skip the classic battery)",
    )
    return parser


def _reject_midtown_flags(args: argparse.Namespace, because: str) -> Optional[str]:
    """The midtown knobs have no meaning when the experiment comes from a
    spec file or the registry (network and horizon are part of the
    definition) — reject them loudly rather than silently running a
    different experiment."""
    rejected = [
        flag
        for flag, given in (
            ("--scale", args.scale is not None),
            ("--open", args.open),
            ("--speed25", args.speed25),
            ("--patrol", args.patrol is not None),
            ("--max-minutes", args.max_minutes is not None),
        )
        if given
    ]
    if rejected:
        return (
            f"{because} is incompatible with {', '.join(rejected)} "
            "(only --volume, --seeds and --rng-seed can override "
            f"an experiment defined by {because})"
        )
    return None


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.volume is not None:
        config = config.with_volume(args.volume)
    if args.seeds is not None:
        config = config.with_seeds(args.seeds)
    if args.rng_seed is not None:
        config = config.with_rng_seed(args.rng_seed)
    return config


def _build_run_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment spec the ``run`` verb was asked for."""
    if args.config is not None and args.scenario is not None:
        raise ReproError("--config and --scenario are mutually exclusive")
    if args.config is not None:
        error = _reject_midtown_flags(args, "--config")
        if error:
            raise ReproError(error)
        spec = ExperimentSpec.load(args.config)
        return spec.with_config(_apply_overrides(spec.config, args))
    if args.scenario is not None:
        error = _reject_midtown_flags(args, "--scenario")
        if error:
            raise ReproError(error)
        try:
            defn = get_scenario(args.scenario)
        except KeyError as exc:
            raise ReproError(exc.args[0]) from None
        return defn.to_spec().with_config(_apply_overrides(defn.config, args))
    # Default: the paper's midtown workload, declaratively.
    speed = SPEED_LIMIT_25_MPH if args.speed25 else SPEED_LIMIT_15_MPH
    scale = args.scale if args.scale is not None else 0.3
    network = NetworkSpec(
        "midtown",
        kwargs={"scale": scale, "speed_limit_mps": speed, "open_border": args.open},
    )
    base = midtown_scenario(
        name="cli-run",
        open_system=args.open,
        collection=True,
        speed_limit_mps=speed,
        rng_seed=args.rng_seed if args.rng_seed is not None else 2014,
        patrol_cars=args.patrol if args.patrol is not None else 2,
        max_duration_min=args.max_minutes if args.max_minutes is not None else 240.0,
    )
    config = base.with_volume(
        args.volume if args.volume is not None else 0.6
    ).with_seeds(args.seeds if args.seeds is not None else 1)
    return ExperimentSpec(network=network, config=config)


def _store_for(spec: ExperimentSpec, save: Optional[str]) -> Optional[ResultStore]:
    if save is None:
        return None
    path = f"runs/{spec.name}" if save == _AUTO_SAVE else save
    return ResultStore(path)


class _KernelProbe(Observer):
    """Records the step path a run's engine took, for the summary."""

    def __init__(self) -> None:
        self.line: Optional[str] = None

    def on_run_start(self, sim: Any) -> None:
        engine = sim.engine
        reason = engine.kernel_fallback_reason
        self.line = f"kernel                : {engine.kernel_backend}" + (
            f" ({reason})" if reason is not None else ""
        )


def _cmd_run(args: argparse.Namespace) -> int:
    probe = _KernelProbe()
    try:
        spec = _build_run_spec(args)
        store = _store_for(spec, args.save)
        observers: List[Observer] = [probe]
        if args.progress:
            observers.append(ProgressObserver())
        result = spec.run(
            observers=observers,
            store=store,
            resume=args.resume and store is not None,
        )
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if isinstance(result, RunResult):
        if args.json:
            print(json.dumps(result.as_dict(), sort_keys=True))
        else:
            print(describe_run(result))
            if probe.line is not None:
                print(probe.line)
            if store is not None:
                print(f"(result stored in {store.root})")
        return 0 if result.is_exact else 1
    # A spec file may carry a sweep section; run honours it.
    if args.json:
        print(json.dumps(_sweep_record(result), sort_keys=True))
    else:
        print(describe_sweep(result))
        if probe.line is not None:
            print(probe.line)
        if store is not None:
            print(f"(results stored in {store.root})")
    return 0 if result.all_exact else 1


def _sweep_record(sweep) -> Dict[str, Any]:
    return {
        "name": sweep.name,
        "cells": [
            {
                "volume": cell.volume_fraction,
                "seeds": cell.num_seeds,
                "runs": [run.as_dict() for run in cell.runs],
            }
            for cell in sweep.cells
        ],
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.retries < 0:
            raise ReproError("--retries must be >= 0")
        spec = ExperimentSpec.load(args.spec)
        if spec.sweep is None:
            raise ReproError(
                f"spec file {args.spec} has no 'sweep' section; use 'run' for "
                "single experiments or add a sweep"
            )
        store = ResultStore(args.out) if args.out is not None else _store_for(spec, _AUTO_SAVE)
        observers = [ProgressObserver()] if args.progress else []
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            backoff_base_s=0.1 if args.retries else 0.0,
            cell_timeout_s=args.cell_timeout,
            keep_going=args.keep_going,
        )
        result = spec.run(
            observers=observers,
            store=store,
            resume=args.resume,
            parallel=args.parallel,
            retry=retry,
        )
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    health = result.health
    if args.json:
        record = _sweep_record(result)
        if health is not None:
            record["health"] = health.as_dict()
        print(json.dumps(record, sort_keys=True))
    else:
        print(describe_sweep(result))
        if health is not None:
            print(health.describe())
        print(f"(results stored in {store.root})")
    if health is not None and not health.ok:
        return 1
    return 0 if result.all_exact else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        report = replay(args.store)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.describe())
    return 0 if report.matches else 1


def _cmd_store_check(args: argparse.Namespace) -> int:
    try:
        store = ResultStore(args.store)
        if not store.root.is_dir():
            # Nothing there at all is a usage error, not store damage.
            raise ReproError(f"no result store at {store.root}")
        report = store.integrity_report()
    except (ReproError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_export_spec(args: argparse.Namespace) -> int:
    try:
        defn = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    spec = defn.to_spec()
    try:
        if args.out is None:
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        else:
            spec.save(args.out)
            print(f"wrote {args.out}")
    except (ReproError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_list_scenarios(_args: argparse.Namespace) -> int:
    defs = iter_scenarios()
    width = max(len(d.name) for d in defs)
    for d in defs:
        kind = "open" if d.config.open_system else "closed"
        profile = type(d.config.demand.profile).__name__
        print(f"{d.name:<{width}}  [{kind:>6}]  {d.description} (demand: {profile})")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.quick:
        spec = SweepSpec(volumes=(0.2, 0.6, 1.0), seed_counts=(1, 4, 8), replications=args.replications)
    else:
        spec = SweepSpec.paper_full(replications=args.replications)
    harness = {2: figure2, 3: figure3, 4: figure4, 5: figure5}[args.number]
    result = harness(spec, scale=args.scale)
    print(result.render())
    return 0 if result.all_exact else 1


def _network_summary(net) -> Dict[str, Any]:
    return {
        "name": net.name,
        "nodes": net.num_nodes,
        "segments": net.num_segments,
        "total_km": round(net.total_length_m() / 1000.0, 3),
        "gates": len(net.gates),
        "open_system": net.is_open_system,
    }


def _describe_network(net) -> str:
    s = _network_summary(net)
    kind = "open" if s["open_system"] else "closed"
    return (
        f"{s['name']}: {s['nodes']} intersections, {s['segments']} directed "
        f"segments, {s['total_km']:.1f} km [{kind}, {s['gates']} gates]"
    )


def _cmd_import_network(args: argparse.Namespace) -> int:
    from .roadnet.tabular import load_network

    try:
        net = load_network(args.path, name=args.name)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(_network_summary(net), sort_keys=True))
    else:
        print(_describe_network(net))
    return 0


def _cmd_export_network(args: argparse.Namespace) -> int:
    from .roadnet.tabular import export_network

    try:
        builder_args = []
        for raw in args.arg:
            try:
                builder_args.append(json.loads(raw))
            except ValueError:
                raise ReproError(f"--arg {raw!r} is not valid JSON") from None
        builder_kwargs = {}
        for raw in args.kwarg:
            key, sep, value = raw.partition("=")
            if not sep:
                raise ReproError(f"--kwarg {raw!r} must look like key=JSON")
            try:
                builder_kwargs[key] = json.loads(value)
            except ValueError:
                raise ReproError(
                    f"--kwarg {raw!r}: value is not valid JSON "
                    "(quote strings, e.g. name='\"city\"')"
                ) from None
        spec = NetworkSpec(args.builder, args=tuple(builder_args), kwargs=builder_kwargs)
        net = spec.build()
        paths = export_network(net, args.out, fmt=args.format)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(_describe_network(net))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_gen_city(args: argparse.Namespace) -> int:
    from .roadnet.synth import synthetic_city
    from .roadnet.tabular import export_network

    try:
        net = synthetic_city(
            args.districts,
            args.district_size,
            gates=args.gates,
            seed=args.seed,
        )
        paths = export_network(net, args.out, fmt=args.format)
    except (ReproError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(_describe_network(net))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools import reprolint

    argv = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.no_semantic:
        argv.append("--no-semantic")
    return reprolint.main(argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import make_server

    try:
        server = make_server(
            args.root,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_limit=args.queue_limit,
        )
    except (ReproError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    host, port = server.server_address[0], server.server_address[1]
    manager = server.manager
    print(
        f"repro-count service on http://{host}:{port} "
        f"(root={args.root}, workers={manager.workers}, "
        f"queue-limit={manager.queue_limit})"
    )
    print("POST /runs an experiment-spec document to submit; Ctrl-C to stop.")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (cancelling running jobs)...")
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .sim.config import MobilityConfig, WirelessConfig

    checks = []

    if not args.registry_only:
        # The four classic configurations, each as a declarative spec run
        # through the experiment facade.
        battery = [
            (
                "closed / simple model",
                ExperimentSpec(
                    network=NetworkSpec("grid", args=(4, 4), kwargs={"lanes": 1}),
                    config=ScenarioConfig(
                        name="simple-model",
                        rng_seed=args.rng_seed,
                        demand=DemandConfig(volume_fraction=0.6),
                        wireless=WirelessConfig(loss_probability=0.0, attempts_per_contact=1),
                        mobility=MobilityConfig(
                            allow_overtaking=False, admissions_per_step=1, crossing_delay_s=1.0
                        ),
                    ),
                ),
            ),
            (
                "closed / lossy + overtaking",
                ExperimentSpec(
                    network=NetworkSpec("grid", args=(4, 4), kwargs={"lanes": 2}),
                    config=ScenarioConfig(
                        name="extended-model",
                        rng_seed=args.rng_seed + 1,
                        num_seeds=3,
                        demand=DemandConfig(volume_fraction=0.8),
                    ),
                ),
            ),
            (
                "closed / one-way ring + patrol",
                ExperimentSpec(
                    network=NetworkSpec("ring", args=(8,), kwargs={"one_way": True}),
                    config=ScenarioConfig(
                        name="one-way-ring",
                        rng_seed=args.rng_seed + 2,
                        demand=DemandConfig(volume_fraction=0.8),
                        patrol=PatrolPlan(num_cars=1),
                    ),
                ),
            ),
            (
                "open / border interaction",
                ExperimentSpec(
                    network=NetworkSpec(
                        "grid", args=(4, 4), kwargs={"lanes": 2, "gates_on_border": True}
                    ),
                    config=ScenarioConfig(
                        name="open-grid",
                        rng_seed=args.rng_seed + 3,
                        num_seeds=2,
                        open_system=True,
                        demand=DemandConfig(volume_fraction=0.8),
                        settle_extra_s=120.0,
                    ),
                ),
            ),
        ]
        for label, spec in battery:
            checks.append((label, spec.run()))

    # The whole scenario registry, at each scenario's own configuration.
    for defn in iter_scenarios():
        checks.append((f"registry / {defn.name}", defn.to_spec().run()))

    width = max(len(name) for name, _ in checks)
    failures = 0
    for name, result in checks:
        verdict = "EXACT" if result.is_exact else f"error {result.miscount_error:+d}"
        if not result.converged:
            verdict += " (did not converge)"
        if not result.is_exact or not result.converged:
            failures += 1
        print(f"{name:<{width}} : truth={result.ground_truth:<4d} counted={result.protocol_count:<4d} {verdict}")
    print(correctness_summary([r for _, r in checks]))
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "replay": _cmd_replay,
        "store-check": _cmd_store_check,
        "export-spec": _cmd_export_spec,
        "list-scenarios": _cmd_list_scenarios,
        "figure": _cmd_figure,
        "import-network": _cmd_import_network,
        "export-network": _cmd_export_network,
        "gen-city": _cmd_gen_city,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "validate": _cmd_validate,
    }
    handler = handlers.get(args.command)
    if handler is None:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
        return 2
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
