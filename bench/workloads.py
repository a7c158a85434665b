"""The benchmark's workloads: seeded fedkit config documents.

The seed drives everything random in a document: the trainer seed, the
``base_optimum``, the site multipliers and the fault schedule. The same
seed gives the same document byte for byte. Sizes are fixed per workload,
so timings move with the code, not with the seed.
"""
from __future__ import annotations

import json
import random

# Which runtime runs each workload; BENCHMARK.json says why each exists.
WORKLOADS = {"tcp_small": "tcp", "sim_crowd": "sim"}

# Full size measures; smoke size only proves every metric and check runs.
SIZES = {
    "full": {
        "tcp_small": {"rounds": 1000},
        "sim_crowd": {"rounds": 101, "sites": 50, "server_crash_every": 20, "client_faults": 20},
    },
    "smoke": {
        "tcp_small": {"rounds": 12},
        "sim_crowd": {"rounds": 10, "sites": 6, "server_crash_every": 5, "client_faults": 4},
    },
}

SAMPLES_PER_SITE = 24
# A hung TCP round aborts the run instead of stalling the benchmark.
TCP_ROUND_TIMEOUT_SECONDS = 60.0


def _sites(count: int) -> list:
    return [{"name": f"site{index:02d}"} for index in range(count)]


def _small(rng: random.Random, seed: int, size: dict, checkpoint_path: str) -> dict:
    return {
        "sites": _sites(2),
        "rounds": size["rounds"],
        "algorithm": {"kind": "ditto", "ditto_lambda": 0.5},
        "trainer": {"trainer": "least_squares", "lr": 0.1, "local_steps": 1, "seed": seed},
        "heterogeneity": {
            "base_optimum": [rng.gauss(0.0, 1.0) for _ in range(3)],
            "shift_scale": 0.5,
            "noise_std": 0.3,
            "samples_per_site": SAMPLES_PER_SITE,
        },
        "on_client_loss": "wait",
        "checkpoint_path": checkpoint_path,
        "round_timeout_seconds": TCP_ROUND_TIMEOUT_SECONDS,
    }


def _crowd(rng: random.Random, seed: int, size: dict, checkpoint_path: str) -> dict:
    rounds, sites = size["rounds"], _sites(size["sites"])
    faults = [
        {"at_round": r, "target": "server", "kind": "crash", "downtime_seconds": 90.0}
        for r in range(size["server_crash_every"] // 2, rounds, size["server_crash_every"])
    ]
    # Client faults at distinct (round, site) pairs, alternating kinds. Every
    # downtime is finite, so under "wait" each schedule preserves the quorum.
    slots = rng.sample([(r, s) for r in range(1, rounds) for s in range(len(sites))],
                       size["client_faults"])
    for number, (round_index, site) in enumerate(sorted(slots)):
        faults.append({
            "at_round": round_index,
            "target": sites[site]["name"],
            "kind": "disconnect" if number % 2 == 0 else "crash",
            "downtime_seconds": rng.uniform(10.0, 120.0),
        })
    return {
        "sites": sites,
        "rounds": rounds,
        "algorithm": {"kind": "fedprox", "prox_mu": 0.1},
        "trainer": {"trainer": "synthetic_segmentation", "lr": 0.5, "local_steps": 5,
                    "seed": seed},
        "heterogeneity": {
            "base_optimum": [rng.uniform(3.0, 5.0), rng.uniform(-2.5, -1.5)],
            "shift_scale": 0.5,
            "noise_std": 0.3,
            "samples_per_site": SAMPLES_PER_SITE,
        },
        "on_client_loss": "wait",
        "checkpoint_path": checkpoint_path,
        "simulator": {
            "site_multipliers": {s["name"]: rng.uniform(1.0, 6.0) for s in sites},
            "base_round_cost_seconds": 60.0,
            "aggregation_cost_seconds": 2.0,
            "faults": faults,
        },
    }


def config_document(name: str, seed: int, size: str, checkpoint_path: str) -> dict:
    """The fedkit config document of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    spec = SIZES[size][name]
    make = _small if name == "tcp_small" else _crowd
    return make(rng, seed, spec, checkpoint_path)


def config_text(document: dict) -> str:
    return json.dumps(document, indent=1)


def fault_free(document: dict) -> dict:
    """The same experiment with an empty fault schedule."""
    copy = json.loads(json.dumps(document))
    if "simulator" in copy:
        copy["simulator"]["faults"] = []
    return copy
