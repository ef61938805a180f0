"""Command-line interface: ``python -m repro <command>``.

Small operational front end over the library for users who want the
pipeline without writing Python:

* ``python -m repro stats``                      — FU netlist statistics
* ``python -m repro sta --fu int_add``           — corner STA sweep
* ``python -m repro characterize --fu fp_add``   — DTA delay summary
* ``python -m repro campaign --fu int_add fp_mul --workers 4``
                                                 — batched multi-FU DTA
* ``python -m repro train --fu int_add -o m.pkl``— train + save a model
* ``python -m repro predict -m m.pkl --fu int_add --speedup 0.1``
                                                 — TER estimates
* ``python -m repro models publish -m m.pkl --fu int_add --registry r/``
                                                 — registry operations
* ``python -m repro serve --registry r/``        — HTTP prediction server
* ``python -m repro store gc --max-mb 256``      — trace-store eviction

Every pipeline subcommand parses into the typed specs of
:mod:`repro.api` and executes through the :class:`~repro.api.Workspace`
facade.  ``--config run.toml`` (TOML or JSON, see
``CampaignSpec.from_file``) loads a declarative spec first; individual
flags override single fields of it, and the effective resolved spec is
echoed back so every run is reproducible from its log line alone.
Shared flag groups (corners, stream, sim backend, shard grid) are
declared once by the ``_add_*_args`` helpers instead of per
subcommand, so the subparsers can never drift apart.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
from typing import List, Optional

from .api import (
    CampaignSpec,
    CornerSpec,
    PredictSpec,
    ServeSpec,
    SpecError,
    TrainSpec,
    Workspace,
)
from .circuits import PAPER_UNITS, build_functional_unit
from .core import load_model
from .flow import StoreVersionError, TraceStore
from .sim import ENGINES
from .timing import run_sta_corners

_CONFIG_HELP = ("declarative spec file (.toml or .json); individual "
                "flags override single fields of it")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return value


# -- shared flag groups (single source of truth across subcommands) -----------


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help=_CONFIG_HELP)


def _add_corner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--voltages", type=float, nargs="+", default=None,
                        help="corner-grid voltage points "
                             "(default 0.81 0.90 1.00)")
    parser.add_argument("--temperatures", type=float, nargs="+",
                        default=None,
                        help="corner-grid temperature points "
                             "(default 0 50 100)")


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cycles", type=_positive_int, default=None,
                        help="workload length in cycles")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed")


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        help="simulation engine: "
                             f"{', '.join(ENGINES)}")


def _add_shard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="process-pool width for cache misses")
    parser.add_argument("--shard-cycles", type=_positive_int, default=None,
                        help="cycle-axis shard pitch for single jobs "
                             "(default: auto-sized from --workers)")
    parser.add_argument("--shard-corners", type=_positive_int, default=None,
                        help="corner-axis shard pitch for single jobs "
                             "(default: auto)")


# -- flag -> spec override application ----------------------------------------


def _apply_corners(spec, args):
    if args.voltages is None and args.temperatures is None:
        return spec
    base = spec.corners
    if base.pairs and (args.voltages is None or args.temperatures is None):
        # a lone axis flag cannot partially override an explicit pair
        # list; silently filling the other axis with defaults would
        # simulate corners the user never asked for
        raise SpecError(
            "the config defines explicit corner pairs; overriding from "
            "flags requires both --voltages and --temperatures")
    voltages = (tuple(args.voltages) if args.voltages is not None
                else base.voltages)
    temperatures = (tuple(args.temperatures)
                    if args.temperatures is not None
                    else base.temperatures)
    # flags always describe a grid; they replace an explicit pair list
    return spec.replace(corners=CornerSpec(
        voltages=voltages, temperatures=temperatures, pairs=()))


def _apply_stream(spec, args, field: str = "stream"):
    stream = getattr(spec, field)
    changes = {}
    if args.cycles is not None:
        changes["cycles"] = args.cycles
    if args.seed is not None:
        changes["seed"] = args.seed
    return spec.replace(**{field: stream.replace(**changes)}) \
        if changes else spec


def _apply_sim(spec, args):
    if args.backend is None:
        return spec
    return spec.replace(sim=spec.sim.replace(backend=args.backend))


def _apply_shards(spec, args):
    changes = {}
    if args.workers is not None:
        changes["workers"] = args.workers
    if args.shard_cycles is not None:
        changes["shard_cycles"] = args.shard_cycles
    if args.shard_corners is not None:
        changes["shard_corners"] = args.shard_corners
    return spec.replace(shards=spec.shards.replace(**changes)) \
        if changes else spec


def _base_spec(cls, args):
    if getattr(args, "config", None):
        return cls.from_file(args.config)
    return cls()


def campaign_spec(args) -> CampaignSpec:
    """Effective :class:`CampaignSpec` for ``repro campaign`` args."""
    spec = _base_spec(CampaignSpec, args)
    if args.fu:
        spec = spec.replace(fus=tuple(args.fu))
    spec = _apply_stream(spec, args)
    spec = _apply_corners(spec, args)
    spec = _apply_sim(spec, args)
    spec = _apply_shards(spec, args)
    if args.no_cache:
        spec = spec.replace(cache=False)
    return spec


def characterize_spec(args) -> CampaignSpec:
    """Effective single-FU :class:`CampaignSpec` for ``characterize``."""
    spec = _base_spec(CampaignSpec, args)
    if args.fu:
        spec = spec.replace(fus=(args.fu,))
    spec = _apply_stream(spec, args)
    spec = _apply_corners(spec, args)
    spec = _apply_sim(spec, args)
    spec = _apply_shards(spec, args)
    if len(spec.resolved_fus()) != 1:
        raise SpecError("characterize needs exactly one FU "
                        "(--fu or a single-FU config)")
    return spec


def train_spec(args) -> TrainSpec:
    """Effective :class:`TrainSpec` for ``repro train`` args."""
    spec = _base_spec(TrainSpec, args)
    if args.fu:
        spec = spec.replace(fu=args.fu)
    spec = _apply_stream(spec, args)
    spec = _apply_corners(spec, args)
    spec = _apply_sim(spec, args)
    spec = _apply_shards(spec, args)
    if args.max_rows is not None:
        spec = spec.replace(max_rows=args.max_rows)
    if args.output:
        spec = spec.replace(output=args.output)
    if args.publish:
        spec = spec.replace(publish=True, registry=args.publish)
    if not spec.fu:
        raise SpecError("train needs an FU (--fu or [train] fu in the "
                        "config)")
    return spec


def predict_spec(args) -> PredictSpec:
    """Effective :class:`PredictSpec` for ``repro predict`` args."""
    spec = _base_spec(PredictSpec, args)
    if args.fu:
        spec = spec.replace(fu=args.fu)
    if args.model:
        spec = spec.replace(model=args.model)
    if args.speedup is not None:
        spec = spec.replace(speedup=args.speedup)
    spec = _apply_stream(spec, args)
    spec = _apply_corners(spec, args)
    spec = _apply_sim(spec, args)
    spec = _apply_shards(spec, args)
    if not spec.fu:
        raise SpecError("predict needs an FU (--fu or [predict] fu in "
                        "the config)")
    return spec


def serve_spec(args) -> ServeSpec:
    """Effective :class:`ServeSpec` for ``repro serve`` args."""
    spec = _base_spec(ServeSpec, args)
    changes = {}
    if args.registry is not None:
        changes["registry"] = args.registry
    if args.host is not None:
        changes["host"] = args.host
    if args.port is not None:
        changes["port"] = args.port
    if args.kind is not None:
        changes["kind"] = args.kind
    if args.batch_window_ms is not None:
        changes["batch_window_ms"] = args.batch_window_ms
    if args.max_batch is not None:
        changes["max_batch"] = args.max_batch
    if args.max_queue is not None:
        changes["max_queue"] = args.max_queue
    if args.default_deadline_ms is not None:
        changes["default_deadline_ms"] = args.default_deadline_ms
    if args.request_log is not None:
        changes["request_log"] = args.request_log
    if args.no_fallback:
        changes["fallback"] = False
    if args.verbose:
        changes["verbose"] = True
    if changes:
        spec = spec.replace(**changes)
    return _apply_sim(spec, args)


def _echo_spec(kind: str, spec) -> None:
    print(f"spec[{kind}] {spec.to_json()}")


# -- commands -----------------------------------------------------------------


def cmd_stats(args) -> int:
    for name in (args.fu and [args.fu]) or PAPER_UNITS:
        fu = Workspace().functional_unit(name)
        print(f"{name}: {fu.stats()}  — {fu.description}")
    return 0


def cmd_sta(args) -> int:
    corners = _apply_corners(CampaignSpec(), args).corners
    conditions = corners.conditions()
    results = run_sta_corners(build_functional_unit(args.fu).netlist,
                              conditions)
    print(f"static critical-path delay of {args.fu} (ps):")
    for result in results:
        print(f"  {result.condition.label}: {result.critical_delay:.1f}")
    return 0


def cmd_characterize(args) -> int:
    spec = characterize_spec(args)
    _echo_spec("characterize", spec)
    with Workspace() as workspace:
        result = workspace.characterize(spec)
    trace = result.traces[0]
    fu_name = spec.resolved_fus()[0]
    print(f"dynamic delay of {fu_name} over {spec.stream.cycles} "
          f"random cycles (ps):")
    for k, cond in enumerate(spec.corners.conditions()):
        d = trace.delays[k]
        print(f"  {cond.label}: mean {d.mean():8.1f}  max {d.max():8.1f}")
    return 0


def cmd_campaign(args) -> int:
    spec = campaign_spec(args)
    _echo_spec("campaign", spec)
    with Workspace() as workspace:
        result = workspace.characterize(spec)
    stats = result.stats
    summary = f"[{stats.hits} cached, {stats.misses} simulated"
    if stats.misses:
        summary += (f" in {stats.wall_seconds:.2f}s wall / "
                    f"{stats.sim_seconds:.2f}s sim across "
                    f"{stats.total_shards} shard(s)")
    if stats.resumed_shards:
        summary += f", {stats.resumed_shards} shard(s) resumed"
    summary += "]"
    print(f"campaign: {len(result.jobs)} job(s), "
          f"{spec.corners.n_corners} corner(s), "
          f"backend={spec.sim.backend}, "
          f"workers={spec.shards.workers} {summary}")
    for i, (job, trace) in enumerate(zip(result.jobs, result.traces)):
        d = trace.delays
        line = (f"  {job.fu.name:8s} {trace.n_cycles:6d} cycles  "
                f"mean {d.mean():8.1f} ps  worst {d.max():8.1f} ps")
        if i in stats.job_shards:
            line += (f"  [{stats.job_shards[i]} shard(s), "
                     f"{stats.job_seconds[i]:.2f}s sim")
            cps = stats.job_cycles_per_s(i)
            if cps is not None:  # sim-speed regressions visible here
                line += f", {cps:,.0f} cyc/s"
            line += "]"
        else:
            line += "  [cached]"
        print(line)
    return 0


def cmd_train(args) -> int:
    spec = train_spec(args)
    if not spec.output:
        print("train requires -o/--output (or [train] output in the "
              "config)", file=sys.stderr)
        return 2
    _echo_spec("train", spec)
    with Workspace() as workspace:
        result = workspace.train(spec)
    print(f"trained on {result.n_rows} rows; saved to {result.path}")
    if result.record is not None:
        print(f"published {result.record.model_id} to {spec.registry}")
    return 0


def cmd_predict(args) -> int:
    spec = predict_spec(args)
    if not spec.model:
        print("predict requires -m/--model (or [predict] model in the "
              "config)", file=sys.stderr)
        return 2
    _echo_spec("predict", spec)
    with Workspace() as workspace:
        result = workspace.predict(spec)
    print(f"estimated TER at +{spec.speedup:.0%} overclock:")
    for cond, ter in result.ters.items():
        print(f"  {cond.label}: {ter*100:6.2f}%")
    return 0


# -- serving ------------------------------------------------------------------


def cmd_serve(args) -> int:
    spec = serve_spec(args)
    _echo_spec("serve", spec)
    workspace = Workspace()
    if args.replay is not None:
        report = workspace.replay(spec, args.replay)
        print(f"repro serve --replay {args.replay}: {report.summary()}")
        for mismatch in report.mismatches:
            print(f"  {mismatch.describe()}")
        return 0 if report.ok else 1
    server = workspace.serve(spec)
    engine = server.engine
    host, port = server.address
    published = 0 if engine.registry is None else len(engine.registry)
    print(f"repro serve on http://{host}:{port}  "
          f"[registry={spec.registry or '-'}, {published} model(s), "
          f"fallback={spec.sim.backend if spec.fallback else 'off'}, "
          f"window={spec.batch_window_ms}ms, max_batch={spec.max_batch}"
          f"{', log=' + spec.request_log if spec.request_log else ''}]",
          flush=True)

    def _sigterm(signum, frame):
        raise KeyboardInterrupt  # route SIGTERM through the graceful path

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
    return 0


def cmd_models(args) -> int:
    from .serve import MODEL_KINDS, ModelRegistry

    if args.registry is None:
        print("models requires --registry DIR", file=sys.stderr)
        return 2
    registry = ModelRegistry(args.registry)
    if args.action == "list":
        records = registry.list_models()
        if not records:
            print(f"no models published in {args.registry}")
            return 0
        for r in records:
            print(f"  {r.model_id:24s} key={r.key} "
                  f"{r.size_bytes / 1e3:8.1f} kB  {r.created}")
        return 0
    if args.action == "publish":
        if not args.model:
            print("models publish requires -m/--model", file=sys.stderr)
            return 2
        if not args.fu:
            print("models publish requires --fu", file=sys.stderr)
            return 2
        if args.kind not in MODEL_KINDS:
            print(f"unknown kind {args.kind!r}; available: "
                  f"{', '.join(MODEL_KINDS)}", file=sys.stderr)
            return 2
        model, metadata = load_model(args.model)
        record = registry.publish(model, fu=args.fu, kind=args.kind,
                                  metadata=metadata)
        print(f"published {record.model_id} (key={record.key})")
        return 0
    # gc
    report = registry.gc(keep=args.keep, dry_run=args.dry_run)
    prefix = "would have " if args.dry_run else ""
    print(f"registry gc: {prefix}{report.summary()}")
    return 0


def cmd_store(args) -> int:
    store = TraceStore(args.dir)
    if args.action == "list":
        entries = store.entries()
        if not entries:
            print(f"trace store {store.root} is empty")
        else:
            total = store.size_bytes()
            print(f"trace store {store.root}: {len(entries)} entr(y/ies), "
                  f"{total / 1e6:.2f} MB")
            quarantined = len(list(store.root.glob("*.corrupt-*")))
            if quarantined:
                print(f"  ({quarantined} quarantined corrupt file(s) — "
                      f"inspect or delete *.corrupt-*)")
            for key, entry in sorted(entries.items(),
                                     key=lambda kv: kv[1].get("created", "")):
                print(f"  {key}  {entry['fu']:8s} {entry['stream']:28s} "
                      f"{entry['n_conditions']:3d}x{entry['n_cycles']:<7d} "
                      f"{entry.get('created', '')}")
        return 0
    # gc
    max_bytes = None if args.max_mb is None else int(args.max_mb * 1e6)
    report = store.gc(max_bytes=max_bytes, dry_run=args.dry_run)
    prefix = "would have " if args.dry_run else ""
    print(f"store gc: {prefix}{report.summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TEVoT reproduction pipeline CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="FU netlist statistics")
    p.add_argument("--fu", choices=PAPER_UNITS)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sta", help="per-corner static timing")
    p.add_argument("--fu", required=True, choices=PAPER_UNITS)
    _add_corner_args(p)
    p.set_defaults(func=cmd_sta)

    p = sub.add_parser("characterize", help="DTA delay summary")
    p.add_argument("--fu", choices=PAPER_UNITS)
    _add_config_arg(p)
    _add_stream_args(p)
    _add_shard_args(p)
    _add_sim_args(p)
    _add_corner_args(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("campaign",
                       help="batched DTA over several FUs (process pool)")
    p.add_argument("--fu", nargs="+", default=None, choices=PAPER_UNITS)
    _add_config_arg(p)
    _add_stream_args(p)
    _add_shard_args(p)
    _add_sim_args(p)
    p.add_argument("--no-cache", action="store_true",
                   help="skip the trace store entirely")
    _add_corner_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("train", help="train and save a TEVoT model")
    p.add_argument("--fu", choices=PAPER_UNITS)
    _add_config_arg(p)
    _add_stream_args(p)
    _add_shard_args(p)
    p.add_argument("--max-rows", type=_positive_int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--publish", metavar="REGISTRY_DIR",
                   help="also publish into a serving model registry")
    _add_sim_args(p)
    _add_corner_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="estimate TERs with a saved model")
    p.add_argument("-m", "--model", default=None)
    p.add_argument("--fu", choices=PAPER_UNITS)
    _add_config_arg(p)
    p.add_argument("--speedup", type=_nonnegative_float, default=None)
    _add_stream_args(p)
    _add_shard_args(p)
    _add_sim_args(p)
    _add_corner_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("serve", help="HTTP/JSON prediction server")
    _add_config_arg(p)
    p.add_argument("--registry", default=None,
                   help="model registry directory")
    p.add_argument("--host", default=None)
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (0 binds an ephemeral one)")
    p.add_argument("--kind", default=None,
                   help="published model kind to serve")
    p.add_argument("--batch-window-ms", type=_nonnegative_float,
                   default=None, help="micro-batch collection window")
    p.add_argument("--max-batch", type=_positive_int, default=None)
    p.add_argument("--max-queue", type=_positive_int, default=None,
                   help="bounded request-queue depth; arrivals past it "
                        "are shed with 429 + Retry-After")
    p.add_argument("--default-deadline-ms", type=_nonnegative_float,
                   default=None,
                   help="deadline budget for requests that carry none "
                        "(0 disables; expired requests answer 504)")
    p.add_argument("--request-log", default=None, metavar="FILE",
                   help="append every executed batch to this JSONL log")
    p.add_argument("--replay", default=None, metavar="LOG",
                   help="re-drive a recorded request log instead of "
                        "serving; exits non-zero on any response mismatch")
    p.add_argument("--no-fallback", action="store_true",
                   help="disable the gate-level simulation fallback")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    _add_sim_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("models", help="serving model registry operations")
    p.add_argument("action", choices=("list", "publish", "gc"))
    p.add_argument("--registry", default=None,
                   help="registry directory")
    p.add_argument("-m", "--model", help="artifact to publish")
    p.add_argument("--fu", choices=PAPER_UNITS,
                   help="FU the published model belongs to")
    p.add_argument("--kind", default="tevot")
    p.add_argument("--keep", type=_positive_int, default=1,
                   help="gc: versions to keep per (FU, kind)")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("store", help="characterization trace-store upkeep")
    p.add_argument("action", choices=("list", "gc"))
    p.add_argument("--dir", default=None,
                   help="store directory (default: REPRO_CACHE_DIR)")
    p.add_argument("--max-mb", type=_nonnegative_float, default=None,
                   help="gc: evict oldest traces beyond this size budget")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, StoreVersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
