"""Operator entry points: one binary, four subcommands, one config format.

    fedkit server   --config cfg.json --listen HOST:PORT [--resume]
    fedkit client   --config cfg.json --site NAME --server HOST:PORT
    fedkit simulate --scenario cfg.json [--scenario ...] --out DIR
    fedkit report   --in DIR [--in DIR ...]

Exit codes: 0 on success, 1 on an aborted experiment, 2 on config errors,
3 on startup errors (including a failed --resume). Diagnostics go to
stderr; stdout carries results only. The FEDKIT_LISTEN environment
variable overrides the server listen address.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import metrics
from .client import ClientConfig, parse_address, run_client
from .config import load_config
from .errors import (
    CheckpointError,
    ConfigError,
    ExperimentAborted,
    FedkitError,
    ReportError,
    StartupError,
)
from .params import to_json
from .server import FederationServer
from .simulator import SimScenario, SimulationReport, simulate, speedup

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_CONFIG = 2
EXIT_STARTUP = 3

DEFAULT_LISTEN = "127.0.0.1:7315"
LISTEN_ENV = "FEDKIT_LISTEN"


def _err(message: str) -> None:
    print(f"fedkit: {message}", file=sys.stderr)


def cmd_server(args) -> int:
    try:
        document = load_config(args.config)
        listen = parse_address(os.environ.get(LISTEN_ENV) or args.listen)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    cfg = document.federation
    try:
        server = FederationServer(
            cfg, listen, resume=args.resume, startup_timeout=args.startup_timeout
        )
    except CheckpointError as exc:
        _err(str(exc))
        return EXIT_STARTUP
    except OSError as exc:
        _err(f"cannot listen on {listen[0]}:{listen[1]}: {exc}")
        return EXIT_STARTUP
    print(f"listening on {server.address[0]}:{server.address[1]}", file=sys.stderr)
    try:
        report = server.run()
    except StartupError as exc:
        _err(str(exc))
        return EXIT_STARTUP
    except ExperimentAborted as exc:
        _err(f"experiment aborted: {exc}")
        return EXIT_ABORTED
    out_dir = os.path.dirname(os.path.abspath(cfg.checkpoint_path))
    _write_report_files(metrics.report_to_dict(report), report, out_dir)
    print(metrics.render_summary(report, title="federation"), end="")
    return EXIT_OK


def cmd_client(args) -> int:
    try:
        document = load_config(args.config)
        address = parse_address(args.server)
        cfg = document.federation
        site_index = cfg.site_index(args.site)
        client_cfg = ClientConfig(
            site_name=args.site,
            server_address=address,
            data_seed=cfg.trainer.seed,
            site_index=site_index,
        )
        return run_client(client_cfg, cfg.trainer, cfg.site_heterogeneity(site_index))
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG


def cmd_simulate(args) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
        for path in args.scenario:
            document = load_config(path)
            stem = os.path.splitext(os.path.basename(path))[0]
            scenario_dir = os.path.join(args.out, stem)
            os.makedirs(scenario_dir, exist_ok=True)
            scenario = document.scenario or SimScenario(federation=document.federation)
            # Keep each scenario's checkpoint inside its own report directory.
            federation = dataclasses.replace(
                scenario.federation,
                checkpoint_path=os.path.join(scenario_dir, "checkpoint.json"),
            )
            scenario = dataclasses.replace(scenario, federation=federation)
            report = simulate(scenario)
            _write_simulation_files(report, scenario_dir, stem)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    return EXIT_OK


def cmd_report(args) -> int:
    documents = []
    try:
        for directory in args.inputs:
            path = os.path.join(directory, "report.json")
            doc = metrics.load_report(path)
            totals = None if doc.get("totals") is None else metrics.report_totals(doc, path)
            documents.append((directory, doc, totals))
    except ReportError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    print("== totals ==")
    for directory, doc, totals in documents:
        status = f"{directory}: status {doc.get('status', '?')}"
        if totals is None:  # a run that completed no round has no totals
            print(status)
        else:
            print(
                f"{status} | "
                f"train {totals.train / 3600:.2f} hr | "
                f"aggregate {totals.aggregate / 3600:.2f} hr | "
                f"validate {totals.validate / 3600:.2f} hr | "
                f"total {totals.total / 3600:.2f} hr"
            )
        if doc.get("diagnosis"):
            print(f"  finding: {doc['diagnosis']}")
    if len(documents) > 1:
        print("== speedup vs first ==")
        base_dir, base, _ = documents[0]
        for directory, doc, _ in documents[1:]:
            try:
                print(f"{base_dir} -> {directory}: {speedup(base, doc):.2f}%")
            except ReportError as exc:
                print(f"{base_dir} -> {directory}: not comparable ({exc})")
    for directory, doc, _ in documents:
        if "local_cross" not in doc:
            continue
        print(f"== global vs local ({directory}) ==")
        try:
            global_scores = {site: s["mean"] for site, s in doc["final_scores"].items()}
            local = {
                trained: {site: s["mean"] for site, s in row.items()}
                for trained, row in doc["local_cross"].items()
            }
            table = metrics.compare_global_local(global_scores, local)
            print(metrics.render_loss_table(table), end="")
        except (ReportError, KeyError, TypeError) as exc:
            print(f"section unavailable: ReportError: {exc}")
    return EXIT_OK


def _write_report_files(doc: dict, report, out_dir: str) -> None:
    metrics.save_report(doc, os.path.join(out_dir, "report.json"))
    metrics.export_csv(report, os.path.join(out_dir, "rounds.csv"))


def _write_simulation_files(report: SimulationReport, scenario_dir: str, stem: str) -> None:
    if report.experiment is not None:
        doc = metrics.report_to_dict(
            report.experiment,
            diagnosis=report.diagnosis,
            reconnects=report.reconnects,
            virtual_seconds=report.virtual_seconds,
        )
        if report.local_cross is not None:
            doc["local_cross"] = to_json(report.local_cross)
        if report.personal_models is not None:
            doc["personal_models"] = to_json(report.personal_models)
        _write_report_files(doc, report.experiment, scenario_dir)
        summary = metrics.render_summary(report.experiment, title=stem)
    else:
        doc = {"status": report.status, "diagnosis": report.diagnosis}
        metrics.save_report(doc, os.path.join(scenario_dir, "report.json"))
        summary = f"== {stem} ({report.status}) ==\n"
    if report.status != "completed":
        summary += f"finding: {report.diagnosis}\n"
    with open(os.path.join(scenario_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedkit", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log debug detail to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("server", help="run the federation aggregator")
    p.add_argument("--config", required=True, help="path to the config file")
    p.add_argument("--listen", default=DEFAULT_LISTEN, help="HOST:PORT to listen on")
    p.add_argument("--resume", action="store_true", help="resume from the checkpoint")
    p.add_argument("--startup-timeout", type=float, default=30.0, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_server)

    p = commands.add_parser("client", help="run one site against a server")
    p.add_argument("--config", required=True, help="path to the config file")
    p.add_argument("--site", required=True, help="this site's name (must be in the config)")
    p.add_argument("--server", required=True, help="server HOST:PORT")
    p.set_defaults(fn=cmd_client)

    p = commands.add_parser("simulate", help="run scenarios under the virtual clock")
    p.add_argument(
        "--scenario", action="append", required=True, help="scenario file (repeatable)"
    )
    p.add_argument("--out", required=True, help="directory for report directories")
    p.set_defaults(fn=cmd_simulate)

    p = commands.add_parser("report", help="print tables from saved reports")
    p.add_argument(
        "--in", dest="inputs", action="append", required=True, help="report directory (repeatable)"
    )
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except FedkitError as exc:
        _err(str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
