"""The TCP clients of one benchmark experiment, in their own process.

Prints ``ready`` once fedkit is imported, then reads one JSON line on
stdin: ``{"address": [host, port], "config": <config text>, "trace":
bool}``. Runs one thread with one connection per site until the server
ends the experiment, then prints one JSON line: each site's exit code, the
bytes of every frame the clients encoded and, when traced, the spans.
"""
from __future__ import annotations

import json
import sys
import threading

from hooks import Hooks, Tracer, fedkit_modules, import_fedkit


def main() -> int:
    fedkit = import_fedkit()
    from fedkit.config import parse_config

    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    modules = fedkit_modules(fedkit)
    hooks = Hooks()
    hooks.install(modules, "client")
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(modules, "client")

    cfg = parse_config(job["config"]).federation
    address = tuple(job["address"])
    codes: dict = {}

    def serve(index: int, site: str) -> None:
        client_cfg = fedkit.ClientConfig(
            site_name=site, server_address=address, data_seed=cfg.trainer.seed, site_index=index
        )
        try:
            codes[site] = fedkit.run_client(
                client_cfg, cfg.trainer, cfg.site_heterogeneity(index)
            )
        except Exception as exc:  # reported to the server process as a failed site
            codes[site] = f"{type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=serve, args=(index, site), daemon=True)
        for index, site in enumerate(cfg.site_names)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(json.dumps({
        "codes": codes,
        "wire_bytes": sum(hooks.frame_lengths),
        "timing_bytes": sum(hooks.timing_widths),
        "trace": tracer.export() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
