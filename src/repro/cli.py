"""Command-line interface: ``python -m repro <command>``.

Commands covering the workflows a surveillance program actually runs:

* ``screen``       — classify one simulated cohort and print the report;
* ``calculator``   — the pool/don't-pool decision table over prevalences;
* ``surveillance`` — a multi-day campaign over an SIR epidemic wave;
* ``surveil``      — a multi-site campaign with Thompson-sampling
  budget allocation (:mod:`repro.surveil`);
* ``scenarios``    — list the named (prior, assay) presets;
* ``metrics``      — run a reference screen and print the metrics hub
  (``--prom`` for the Prometheus text exposition);
* ``serve``        — the asyncio JSON API server (``repro.serve``);
* ``trace``        — summarize a JSONL trace captured with ``--trace``
  (or :meth:`Tracer.dump_jsonl`);
* ``lint``         — static closure-safety / engine-concurrency analysis
  (:mod:`repro.lint`); exit 0 clean, 1 findings, 2 usage error.

Every command is deterministic given ``--seed``.  The computing verbs
``screen``, ``calculator``, ``surveil`` and ``metrics`` put their flags
into a request body and parse it with the server's request class
(:mod:`repro.serve.protocol`), so they refuse exactly what the server
refuses (``error: …``, exit 2) and run what it runs.  ``--json`` prints
the request's payload, byte-identical to the server's response, and
every text table is a view of that same payload.  For these verbs
argparse only converts types and parses the ``--policy`` spelling.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Any, Callable, List, Optional

from repro.engine import Context
from repro.halving.policy import BHAPolicy, SelectionPolicy
from repro.metrics.reporting import format_table
from repro.simulate.scenario import SCENARIOS
from repro.surveil import ALLOCATOR_HELP, FLEET_KINDS
from repro.util.validation import check_positive_int, check_probability
from repro.workflows.calculator import format_calculator_table
from repro.workflows.payloads import BACKEND_HELP, POLICY_HELP, dump_payload, make_policy
from repro.workflows.surveillance import run_surveillance

__all__ = ["main", "build_parser"]


def _checked(convert: Callable[[str], Any], check: Callable[[Any], Any]) -> Callable[[str], Any]:
    """An argparse ``type``: *convert*, then *check*; a ``ValueError``
    from either is a usage error (``error: …``, exit 2)."""

    def parse(text: str) -> Any:
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _positive_float(value: float) -> float:
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"must be a positive number, got {value!r}")
    return value


def _non_negative_float(value: float) -> float:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"must be a non-negative number, got {value!r}")
    return value


# The flags no request class parses: ``surveillance``'s and the profiler's.
_positive_int = _checked(int, check_positive_int)
_rate = _checked(float, _non_negative_float)
_hz = _checked(float, _positive_float)
_prevalence = _checked(float, check_probability)


def _make_policy(name: str) -> SelectionPolicy:
    try:
        return make_policy(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=["dense", "sparse", "particle"],
                   default="dense",
                   help=f"posterior representation ({BACKEND_HELP})")


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", metavar="PREFIX", default=None,
                   help="attach the sampling profiler; writes PREFIX.collapsed "
                        "(flamegraph.pl/speedscope input) and PREFIX.html "
                        "(self-contained flamegraph)")
    p.add_argument("--profile-hz", type=_hz, default=100.0,
                   help="profiler sampling rate (default 100)")


@contextlib.contextmanager
def _profiled(args: argparse.Namespace):
    """Sample the wrapped request execution and write the profile artifacts.

    Engine work in serial/thread mode is sampled directly; pre-forked
    process workers relay their samples through task results (see
    :mod:`repro.obs.sampler`).
    """
    from repro.obs.sampler import Sampler

    sampler = Sampler(hz=args.profile_hz).start().install()
    try:
        yield
    finally:
        sampler.stop()
        sampler.uninstall()
        collapsed, html = f"{args.profile}.collapsed", f"{args.profile}.html"
        try:
            stacks = sampler.dump_collapsed(collapsed)
            sampler.dump_flamegraph(html, title=f"repro {args.command}")
        except OSError as exc:
            print(f"error: cannot write profile to {args.profile}.*: {exc}",
                  file=sys.stderr)
        else:
            print(f"profile: {sampler.sample_count} samples over {stacks} "
                  f"stacks -> {collapsed}, {html}", file=sys.stderr)


def _add_assay_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--assay", choices=["perfect", "binary", "dilution"], default="dilution")
    p.add_argument("--sensitivity", type=float, default=0.98)
    p.add_argument("--specificity", type=float, default=0.995)
    p.add_argument("--dilution", type=float, default=0.3, help="dilution exponent δ")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SBGT: scaling Bayesian-based group testing (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser("screen", help="classify one simulated cohort")
    p_screen.add_argument("--cohort", type=int, default=16,
                          help="cohort size (<= 24 dense, larger with an "
                               "approximate backend)")
    p_screen.add_argument("--prevalence", type=float, default=0.02)
    p_screen.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                          help="use a named scenario instead of --prevalence/assay")
    p_screen.add_argument("--policy", type=_make_policy, default="bha",
                          help=f"selection policy ({POLICY_HELP})")
    p_screen.add_argument("--seed", type=int, default=0)
    p_screen.add_argument("--max-stages", type=int, default=60)
    p_screen.add_argument("--workers", type=int, default=4)
    p_screen.add_argument("--compact", action="store_true",
                          help="enable lattice contraction of settled diagnoses")
    p_screen.add_argument("--trace", metavar="PATH", default=None,
                          help="dump a phase-tagged JSONL trace of the screen")
    p_screen.add_argument("--chrome", metavar="PATH", default=None,
                          help="export a Chrome trace-event JSON of the screen "
                               "(open in chrome://tracing or Perfetto)")
    p_screen.add_argument("--json", action="store_true",
                          help="emit the API payload (same shape as POST /screen)")
    _add_profile_args(p_screen)
    _add_backend_arg(p_screen)
    _add_assay_args(p_screen)

    p_calc = sub.add_parser("calculator", help="pool/don't-pool decision table")
    p_calc.add_argument("--cohort", type=int, default=12)
    p_calc.add_argument("--prevalences", type=float, nargs="+",
                        default=[0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30])
    p_calc.add_argument("--replications", type=int, default=15)
    p_calc.add_argument("--policy", type=_make_policy, default="bha",
                        help=f"selection policy ({POLICY_HELP})")
    p_calc.add_argument("--seed", type=int, default=0)
    p_calc.add_argument("--json", action="store_true",
                        help="emit the API payload (same shape as POST /calculator)")
    _add_backend_arg(p_calc)
    _add_assay_args(p_calc)

    p_surv = sub.add_parser("surveillance", help="multi-day campaign over an epidemic wave")
    p_surv.add_argument("--days", type=_positive_int, default=30)
    p_surv.add_argument("--cohort", type=_positive_int, default=12)
    p_surv.add_argument("--beta", type=_rate, default=0.35, help="SIR transmission rate")
    p_surv.add_argument("--gamma", type=_rate, default=0.10, help="SIR recovery rate")
    p_surv.add_argument("--i0", type=_prevalence, default=0.005, help="initial prevalence")
    p_surv.add_argument("--seed", type=int, default=0)
    _add_backend_arg(p_surv)
    _add_assay_args(p_surv)

    p_sv = sub.add_parser(
        "surveil", help="multi-site campaign with bandit budget allocation"
    )
    p_sv.add_argument("--sites", type=int, default=6, help="fleet size (<= 64)")
    p_sv.add_argument("--cohort", type=int, default=10, help="cohort size per site")
    p_sv.add_argument("--rounds", type=int, default=8)
    p_sv.add_argument("--budget", type=int, default=6,
                      help="screens per round across the fleet")
    p_sv.add_argument("--allocator", default="thompson",
                      help=f"budget allocator ({ALLOCATOR_HELP})")
    p_sv.add_argument("--fleet", choices=list(FLEET_KINDS), default="heterogeneous",
                      help="fleet generator (site mix and prevalence dynamics)")
    p_sv.add_argument("--policy", type=_make_policy, default="bha",
                      help=f"selection policy ({POLICY_HELP})")
    p_sv.add_argument("--seed", type=int, default=0)
    p_sv.add_argument("--max-stages", type=int, default=40)
    p_sv.add_argument("--workers", type=int, default=4)
    p_sv.add_argument("--chrome", metavar="PATH", default=None,
                      help="export a Chrome trace-event JSON of the campaign "
                           "(open in chrome://tracing or Perfetto)")
    p_sv.add_argument("--json", action="store_true",
                      help="emit the API payload (same shape as POST /surveil)")
    _add_profile_args(p_sv)
    _add_backend_arg(p_sv)
    _add_assay_args(p_sv)
    # Match the server-side default so `repro surveil --json` with no
    # flags is byte-identical to an empty-body POST /surveil.
    p_sv.set_defaults(assay="binary")

    sub.add_parser("scenarios", help="list named scenario presets")

    p_metrics = sub.add_parser(
        "metrics", help="run a reference screen and print the metrics hub"
    )
    p_metrics.add_argument("--prom", action="store_true",
                           help="Prometheus text exposition instead of JSON")
    p_metrics.add_argument("--cohort", type=int, default=12)
    p_metrics.add_argument("--prevalence", type=float, default=0.05)
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--workers", type=int, default=4)
    p_metrics.add_argument("--mode", choices=["serial", "threads", "processes"],
                           default="threads",
                           help="executor backend of the reference screen")

    p_serve = sub.add_parser("serve", help="run the asyncio JSON API server")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="listen port (0 picks an ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="engine parallelism of the shared context")
    p_serve.add_argument("--compute-threads", type=int, default=4,
                         help="threads running workload jobs off the event loop")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         help="micro-batcher collection window (0 disables)")
    p_serve.add_argument("--cache-entries", type=int, default=256,
                         help="result-cache capacity (0 disables caching)")
    p_serve.add_argument("--max-inflight", type=int, default=32,
                         help="admission bound before requests get 429s")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="live sessions before 503s; live campaigns are bounded "
                              "by the same number, separately")
    p_serve.add_argument("--session-ttl", type=float, default=900.0,
                         help="idle expiry of a session or a campaign, seconds")
    p_serve.add_argument("--engine-mode", choices=["serial", "threads", "processes"],
                         default="threads",
                         help="executor backend of the shared engine context")
    p_serve.add_argument("--flight-capacity", type=int, default=4096,
                         help="flight-recorder ring size behind /debug endpoints")
    p_serve.add_argument("--slow-threshold", type=float, default=0.1,
                         help="ops slower than this (s) land in GET /debug/slow")
    p_serve.add_argument("--backend", choices=["dense", "sparse", "particle"],
                         default="dense",
                         help="default posterior backend for requests that "
                              f"don't name one ({BACKEND_HELP})")

    p_trace = sub.add_parser("trace", help="summarize or convert a dumped JSONL trace")
    p_trace.add_argument("path", help="trace file written by --trace or dump_jsonl()")
    p_trace.add_argument("--chrome", metavar="OUT", default=None,
                         help="convert to Chrome trace-event JSON instead of summarizing")
    p_trace.add_argument("--validate", action="store_true",
                         help="with --chrome: structurally validate the exported trace")

    p_lint = sub.add_parser(
        "lint", help="static closure-safety / engine-concurrency analysis"
    )
    p_lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories (default: src examples benchmarks, "
                             "whichever exist)")
    p_lint.add_argument("--format", choices=["text", "json", "sarif"], default="text",
                        dest="fmt", help="report format")
    p_lint.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to check exclusively "
                             "(e.g. C101,C102)")
    p_lint.add_argument("--ignore", metavar="RULES", default=None,
                        help="comma-separated rule ids to skip")
    p_lint.add_argument("--explain", metavar="RULE", default=None,
                        help="print a rule's rationale with bad/good examples "
                             "('all' prints every rule) and exit")
    p_lint.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    return parser


def _assay_body(args: argparse.Namespace) -> dict:
    return {"assay": args.assay, "sensitivity": args.sensitivity,
            "specificity": args.specificity, "dilution": args.dilution}


def _policy_spec(policy: SelectionPolicy) -> str:
    """The API spelling of a parsed ``--policy`` value."""
    return "hybrid" if policy.name == "hybrid-auto" else policy.name


def _execute(args: argparse.Namespace, request, engine: bool) -> dict:
    """Run *request* on a threads context of ``--workers`` (or, without
    *engine*, on none) under the verb's ``--trace`` / ``--chrome`` /
    ``--profile`` flags, and return its payload."""
    from repro.obs import Tracer, chrome_trace

    # A verb with --trace records phase spans, and its --chrome exports them
    # beside the flight-recorder events.
    trace_path = getattr(args, "trace", None)
    tracer = None
    if "trace" in args and (trace_path or args.chrome):
        tracer = Tracer().install()
    recorder = None
    with contextlib.ExitStack() as stack:
        if args.profile:
            stack.enter_context(_profiled(args))
        if tracer is not None:
            stack.callback(tracer.uninstall)
        ctx = None
        if engine:
            ctx = stack.enter_context(Context(mode="threads", parallelism=args.workers))
            recorder = ctx.flight_recorder
            if tracer is not None:
                tracer.attach(ctx)
        payload = request.execute(ctx)
    if trace_path:
        try:
            tracer.dump_jsonl(trace_path)
        except OSError as exc:
            print(f"error: cannot write trace to {trace_path}: {exc}", file=sys.stderr)
        else:
            print(f"trace written to {trace_path}", file=sys.stderr)
    if args.chrome:
        records = [span.to_dict() for span in tracer.spans] if tracer else []
        if recorder is not None:
            records.extend(recorder.events(limit=recorder.capacity))
        try:
            with open(args.chrome, "w", encoding="utf-8") as fh:
                json.dump(chrome_trace(records, title=args.command), fh)
        except OSError as exc:
            print(f"error: cannot write trace to {args.chrome}: {exc}", file=sys.stderr)
        else:
            print(f"chrome trace written to {args.chrome}", file=sys.stderr)
    return payload


def _cmd_screen(args: argparse.Namespace) -> int:
    from repro.serve.protocol import ScreenRequest

    request = ScreenRequest.from_payload({
        "cohort": args.cohort,
        "prevalence": args.prevalence,
        "scenario": args.scenario,
        "policy": _policy_spec(args.policy),
        "seed": args.seed,
        "max_stages": args.max_stages,
        "compact": args.compact,
        "backend": args.backend,
        "assay": _assay_body(args),
    })
    payload = _execute(args, request, engine=request.backend == "dense")
    if args.json:
        print(dump_payload(payload), end="")
        return 0
    summary = payload["summary"]
    statuses = payload["classification"]["statuses"]
    rows = [
        ["truly infected", str(payload["truth"]["positives"])],
        ["called positive", str([i for i, s in enumerate(statuses) if s == "positive"])],
        ["undetermined", str([i for i, s in enumerate(statuses) if s == "undetermined"])],
        ["tests", summary["tests"]],
        ["tests/individual", f"{summary['tests_per_individual']:.3f}"],
        ["stages", summary["stages"]],
        ["accuracy", f"{summary['accuracy']:.1%}"],
        ["sensitivity", f"{summary['sensitivity']:.1%}"],
        ["specificity", f"{summary['specificity']:.1%}"],
    ]
    print(format_table(["metric", "value"], rows, title=f"Screen ({args.policy.name})"))
    return 0


def _cmd_calculator(args: argparse.Namespace) -> int:
    from repro.serve.protocol import CalculatorRequest

    payload = CalculatorRequest.from_payload({
        "cohort": args.cohort,
        "prevalences": args.prevalences,
        "replications": args.replications,
        "policy": _policy_spec(args.policy),
        "seed": args.seed,
        "backend": args.backend,
        "assay": _assay_body(args),
    }).execute()
    if args.json:
        print(dump_payload(payload), end="")
    else:
        print(format_calculator_table(payload["entries"]))
    return 0


def _cmd_surveillance(args: argparse.Namespace) -> int:
    from repro.serve.protocol import AssaySpec
    from repro.simulate.epidemic import sir_prevalence

    model = AssaySpec.from_payload(_assay_body(args)).build()
    prevalence = sir_prevalence(args.days, args.beta, args.gamma, args.i0)
    campaign = run_surveillance(
        model, BHAPolicy, days=args.days, cohort_size=args.cohort,
        rng=args.seed, prevalence=prevalence, backend=args.backend,
    )
    rows = [
        [d.day, f"{d.prevalence:.1%}", d.result.efficiency.num_tests,
         f"{d.result.tests_per_individual:.2f}", f"{d.result.accuracy:.0%}"]
        for d in campaign.days
    ]
    print(format_table(
        ["day", "prevalence", "tests", "tests/ind", "accuracy"], rows,
        title="Surveillance campaign",
    ))
    print(f"\ntotals: {campaign.total_tests} tests / {campaign.total_individuals} "
          f"individuals = {campaign.overall_tests_per_individual:.2f} tests/individual; "
          f"{campaign.detected_positives()}/{campaign.true_positives_present()} positives found")
    return 0


def _cmd_surveil(args: argparse.Namespace) -> int:
    from repro.serve.protocol import SurveilRequest

    request = SurveilRequest.from_payload({
        "sites": args.sites,
        "cohort": args.cohort,
        "rounds": args.rounds,
        "budget": args.budget,
        "allocator": args.allocator,
        "policy": _policy_spec(args.policy),
        "fleet": args.fleet,
        "seed": args.seed,
        "max_stages": args.max_stages,
        "backend": args.backend,
        "assay": _assay_body(args),
    })
    payload = _execute(args, request, engine=True)
    if args.json:
        print(dump_payload(payload), end="")
        return 0
    summary = payload["summary"]
    rows = [
        [r["round"], " ".join(str(a) for a in r["allocations"]),
         r["screens"], r["tests"], r["cases"]]
        for r in payload["rounds"]
    ]
    print(format_table(
        ["round", "allocations", "screens", "tests", "cases"], rows,
        title=f"Surveil campaign ({summary['allocator']} allocator)",
    ))
    site_rows = [
        [s["name"], s["kind"], f"{s['prevalence']:.1%}", s["screens"],
         s["tests"], s["cases"], f"{s['belief']['mean']:.1%}"]
        for s in payload["sites"]
    ]
    print()
    print(format_table(
        ["site", "kind", "prevalence", "screens", "tests", "cases", "belief"],
        site_rows, title="Sites",
    ))
    print(f"\ntotals: {summary['total_cases']} cases in {summary['total_screens']} "
          f"screens ({summary['cases_per_screen']:.2f} cases/screen), "
          f"{summary['total_tests']} tests "
          f"({summary['tests_per_case']:.1f} tests/case); "
          f"learned hyperprior mean {summary['hyperprior']['mean']:.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.app import ServeConfig, serve

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            compute_threads=args.compute_threads,
            batch_window_s=args.batch_window_ms / 1000.0,
            cache_entries=args.cache_entries,
            max_inflight=args.max_inflight,
            max_sessions=args.max_sessions,
            session_ttl_s=args.session_ttl,
            engine_mode=args.engine_mode,
            flight_capacity=args.flight_capacity,
            slow_threshold_s=args.slow_threshold,
            default_backend=args.backend,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def ready(host: str, port: int) -> None:
        print(f"repro serve listening on http://{host}:{port}", file=sys.stderr)

    try:
        asyncio.run(serve(config, ready=ready))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.serve.protocol import ScreenRequest

    # 50 stages: the reference screen predates the request's default of 60.
    request = ScreenRequest.from_payload({
        "cohort": args.cohort, "prevalence": args.prevalence, "seed": args.seed,
        "max_stages": 50,
    })
    with Context(mode=args.mode, parallelism=args.workers) as ctx:
        request.execute(ctx)
        if args.prom:
            print(ctx.metrics_hub.render_prometheus(), end="")
        else:
            print(json.dumps(ctx.metrics_hub.snapshot(), indent=2, sort_keys=True))
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    rows = [[name, s.description] for name, s in sorted(SCENARIOS.items())]
    print(format_table(["name", "description"], rows, title="Scenario presets"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not JSON lines: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: {args.path} holds no records", file=sys.stderr)
        return 2

    if args.chrome:
        from repro.obs import chrome_trace, validate_chrome_trace

        doc = chrome_trace(records, title=args.path)
        if args.validate:
            try:
                n = validate_chrome_trace(doc)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"validated {n} trace event(s)", file=sys.stderr)
        try:
            with open(args.chrome, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        except OSError as exc:
            print(f"error: cannot write {args.chrome}: {exc}", file=sys.stderr)
            return 2
        print(f"chrome trace written to {args.chrome}", file=sys.stderr)
        return 0

    by_kind: dict = {}
    for rec in records:
        by_kind.setdefault(rec.get("record", "?"), []).append(rec)

    spans = by_kind.get("span", [])
    if spans:
        agg: dict = {}
        for s in spans:
            key = (s["phase"], s.get("label", ""))
            cnt, wall, self_s = agg.get(key, (0, 0.0, 0.0))
            agg[key] = (cnt + 1, wall + s["wall_s"], self_s + s.get("self_s", s["wall_s"]))
        rows = [
            [phase, label, cnt, f"{wall:.4f}", f"{self_s:.4f}"]
            for (phase, label), (cnt, wall, self_s) in sorted(
                agg.items(), key=lambda kv: -kv[1][2]
            )
        ]
        print(format_table(
            ["phase", "label", "spans", "wall (s)", "self (s)"], rows,
            title="Phase spans",
        ))

    summaries = by_kind.get("summary", [])
    if summaries:
        rows = [
            [phase or "(untagged)", f"{row['wall_s']:.4f}", int(row["spans"]),
             int(row["jobs"]), int(row["tasks"])]
            for phase, row in sorted(summaries[-1].get("phases", {}).items())
        ]
        print(format_table(
            ["phase", "wall (s)", "spans", "jobs", "tasks"], rows,
            title="Per-phase totals",
        ))

    stages = by_kind.get("stage", [])
    if stages:
        rows = [
            [st["stage"], st["pools_proposed"], st["tests_run"],
             f"{st['entropy_drop']:.4f}" if st.get("entropy_drop") is not None else "-",
             st["states_pruned"], f"{st['wall_s']:.4f}"]
            for st in stages
        ]
        print(format_table(
            ["stage", "pools", "tests", "dH", "pruned", "wall (s)"], rows,
            title="Screen stages",
        ))

    known = sum(len(by_kind.get(k, [])) for k in ("span", "stage", "summary"))
    if known < len(records):
        print(f"({len(records) - known} unrecognized record(s) skipped)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (
        RULES,
        LintError,
        format_explain,
        format_json,
        format_sarif,
        format_text,
        lint_paths,
    )

    if args.explain:
        wanted = sorted(RULES) if args.explain.lower() == "all" else [args.explain.upper()]
        unknown = [r for r in wanted if r not in RULES]
        if unknown:
            print(
                f"error: unknown rule {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULES))})",
                file=sys.stderr,
            )
            return 2
        print("\n".join(format_explain(RULES[r]) for r in wanted), end="")
        return 0

    paths = args.paths or [p for p in ("src", "examples", "benchmarks") if Path(p).is_dir()]
    if not paths:
        print("error: no paths given and no default directories found", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        findings, files_checked = lint_paths(paths, select=select, ignore=ignore)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.fmt == "json":
        formatter = format_json
    elif args.fmt == "sarif":
        formatter = format_sarif
    else:
        formatter = format_text
    report = formatter(findings, files_checked)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    if any(f.rule == "X001" for f in findings):
        return 2
    return 1 if findings else 0


_COMMANDS = {
    "screen": _cmd_screen,
    "calculator": _cmd_calculator,
    "surveillance": _cmd_surveillance,
    "surveil": _cmd_surveil,
    "scenarios": _cmd_scenarios,
    "metrics": _cmd_metrics,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        from repro.serve.protocol import BadRequest

        if not isinstance(exc, BadRequest):
            raise
        print(f"error: {exc}", file=sys.stderr)  # what the server answers with a 400
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
