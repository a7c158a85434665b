"""Run one experiment in a fresh process and print its measurements.

Reads one JSON job on stdin: ``{"runtime": "tcp"|"sim", "config": <fedkit
config text>, "trace": bool, "trace_path": <where a traced run writes its
spans>}``. Prints one JSON result line on stdout.

The timed region starts when the config text is handed to
``parse_config`` and ends when fedkit returns the report. For TCP the
clients run in a second process (``tcp_clients.py``), one thread and one
connection per site, so their codec and training do not contend with the
server for the interpreter lock. That process is started and has imported
fedkit before the clock starts.

The experiment runs on one core; ``README.md`` says why.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback

from hooks import Hooks, Tracer, fedkit_modules, import_fedkit, layer_metrics, merge, model_digest

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT_EXIT_SECONDS = 30.0


def _start_clients() -> subprocess.Popen:
    clients = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "tcp_clients.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    if clients.stdout.readline().strip() != "ready":
        clients.kill()
        clients.wait()
        raise RuntimeError("TCP client process failed to start")
    return clients


def _finish_clients(clients: subprocess.Popen) -> dict:
    """Wait for the client process; kill it if it outlives the server."""
    try:
        out, _ = clients.communicate(timeout=CLIENT_EXIT_SECONDS)
    except subprocess.TimeoutExpired:
        clients.kill()
        clients.communicate()
        return {"error": "TCP clients did not exit after the run"}
    lines = out.strip().splitlines()
    if clients.returncode != 0 or not lines:
        return {"error": f"TCP client process exited with {clients.returncode}"}
    return json.loads(lines[-1])


def run(job: dict) -> dict:
    # This process and the client process it starts share one core, so a
    # handoff between their threads never waits for a halted CPU to wake.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    fedkit = import_fedkit()
    from fedkit.config import parse_config

    runtime, traced = job["runtime"], job["trace"]
    clients = _start_clients() if runtime == "tcp" else None
    modules = fedkit_modules(fedkit)
    hooks = Hooks()
    hooks.install(modules, runtime)
    tracer = None
    parse, simulate, run_server = parse_config, fedkit.simulate, fedkit.FederationServer.run
    if traced:
        tracer = Tracer()
        tracer.install(modules, runtime)
        parse = tracer.span("config.parse", parse_config)
        simulate = tracer.span("simulator.simulate", fedkit.simulate)
        run_server = tracer.span("server.run", fedkit.FederationServer.run)

    result: dict = {"ok": False, "error": ""}
    extra = {"reconnects": 0, "virtual_s": 0.0}
    client_part: dict = {}
    try:
        t0 = time.perf_counter()
        document = parse(job["config"])
        if clients is not None:
            server = fedkit.FederationServer(document.federation, ("127.0.0.1", 0))
            clients.stdin.write(json.dumps(
                {"address": list(server.address), "config": job["config"], "trace": traced}
            ) + "\n")
            clients.stdin.flush()
            report = run_server(server)
            if report is None:
                raise RuntimeError("server stopped before the experiment completed")
        else:
            sim = simulate(document.scenario)
            if sim.status != "completed":
                raise RuntimeError(f"simulation {sim.status}: {sim.diagnosis}")
            report = sim.experiment
            extra = {"reconnects": sim.reconnects, "virtual_s": sim.virtual_seconds}
            result["sim_digest"] = hashlib.sha256(
                repr((sim.virtual_seconds, report.totals, report.rounds)).encode()
            ).hexdigest()
        run_s = time.perf_counter() - t0
        cfg = document.federation
        result.update(
            ok=True,
            run_s=run_s,
            rounds=cfg.rounds,
            boundaries=[b - t0 for b in hooks.boundaries],
            model=model_digest(report.final_global),
            checkpoint_bytes=os.path.getsize(cfg.checkpoint_path),
            **extra,
        )
    except Exception as exc:  # the benchmark records the failure and goes on
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if clients is not None:
            client_part = _finish_clients(clients)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if client_part.get("error"):
        result.update(ok=False, error=result["error"] or client_part["error"])
    elif clients is not None and set(client_part["codes"].values()) != {0}:
        result.update(ok=False, error=result["error"] or f"client exits {client_part['codes']}")
    result["wire_bytes"] = sum(hooks.frame_lengths) + client_part.get("wire_bytes", 0)
    result["timing_bytes"] = sum(hooks.timing_widths) + client_part.get("timing_bytes", 0)
    if result["ok"] and tracer is not None:
        parts = [tracer.export()] + ([client_part["trace"]] if clients is not None else [])
        trace = merge(parts)
        with open(job["trace_path"], "w") as fh:
            json.dump(trace, fh)
        result["layers"] = layer_metrics(trace, hooks.boundaries, result["rounds"],
                                         dict(extra, checkpoint_bytes=result["checkpoint_bytes"]))
    return result


def main() -> int:
    result = run(json.loads(sys.stdin.read()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
