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

import argparse
import dataclasses
import logging
import os
import sys

from . import metrics
from .client import ClientConfig, parse_address, run_client
from .config import SimScenario, load_config
from .errors import (
    CheckpointError,
    ConfigError,
    ExperimentAborted,
    FedkitError,
    ReportError,
    StartupError,
)
from .server import FederationServer
from .simulator import simulate, speedup

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
        server = FederationServer(cfg, listen, resume=args.resume)
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
    _write_report_files(report, out_dir)
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
        # Each scenario's report directory is named by its file's stem.
        stems = [os.path.splitext(os.path.basename(path))[0] for path in args.scenario]
        repeated = [path for path, stem in zip(args.scenario, stems) if stems.count(stem) > 1]
        if repeated:
            raise ConfigError(f"scenarios {', '.join(repeated)} share a report directory name")
        os.makedirs(args.out, exist_ok=True)
        for path, stem in zip(args.scenario, stems):
            document = load_config(path)
            scenario_dir = os.path.join(args.out, stem)
            os.makedirs(scenario_dir, exist_ok=True)
            scenario = document.scenario or SimScenario(federation=document.federation)
            # Keep each scenario's checkpoint inside its own report directory.
            federation = dataclasses.replace(
                scenario.federation,
                checkpoint_path=os.path.join(scenario_dir, "checkpoint.json"),
            )
            scenario = dataclasses.replace(scenario, federation=federation)
            _write_simulation_files(simulate(scenario).experiment, scenario_dir, stem)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        reports = [
            (directory, metrics.load_report(os.path.join(directory, "report.json")))
            for directory in args.inputs
        ]
    except ReportError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    print("== totals ==")
    for directory, report in reports:
        print(f"{directory}: status {report.status} | {metrics.render_totals(report.totals)}")
        if report.diagnosis:
            print(f"  finding: {report.diagnosis}")
    if len(reports) > 1:
        print("== speedup vs first ==")
        base_dir, base = reports[0]
        for directory, report in reports[1:]:
            try:
                print(f"{base_dir} -> {directory}: {speedup(base, report):.2f}%")
            except ReportError as exc:
                print(f"{base_dir} -> {directory}: not comparable ({exc})")
    for directory, report in reports:
        if report.local_cross is None:
            continue
        print(f"== global vs local ({directory}) ==")
        try:
            table = metrics.compare_global_local(report.final_scores, report.local_cross)
            print(metrics.render_loss_table(table), end="")
        except ReportError as exc:
            print(f"section unavailable: ReportError: {exc}")
    return EXIT_OK


def _write_report_files(report: metrics.ExperimentReport, out_dir: str) -> None:
    metrics.save_report(report, os.path.join(out_dir, "report.json"))
    metrics.export_csv(report, os.path.join(out_dir, "rounds.csv"))


def _write_simulation_files(
    report: metrics.ExperimentReport, scenario_dir: str, stem: str
) -> None:
    _write_report_files(report, scenario_dir)
    summary = metrics.render_summary(report, title=stem)
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
