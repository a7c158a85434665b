"""Fault transparency over generated schedules.

Under ``wait`` every fault with a finite downtime preserves the quorum, so
any such schedule of server crashes, client crashes and disconnects must
end in the fault-free run's global model, bit for bit. Ditto personal
models of sites whose process never crashed must match too.
"""
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit import (
    AlgorithmConfig,
    FaultEvent,
    FederationConfig,
    HeterogeneityConfig,
    SimScenario,
    SiteSpec,
    TrainerConfig,
    simulate,
)
from fedkit.params import to_json

ROUNDS = 5
SITES = ("a", "b", "c", "d")
MULTIPLIERS = {"a": 1.0, "b": 2.5, "c": 1.7, "d": 3.0}
DITTO = AlgorithmConfig(kind="ditto", ditto_lambda=0.5)


def make_scenario(directory, site_count, faults=(), name="ckpt", rounds=ROUNDS, local_steps=1):
    sites = SITES[:site_count]
    federation = FederationConfig(
        sites=tuple(SiteSpec(s) for s in sites),
        rounds=rounds,
        algorithm=DITTO,
        trainer=TrainerConfig(lr=0.1, local_steps=local_steps, seed=3),
        heterogeneity=HeterogeneityConfig(base_optimum=[1.0, -2.0, 0.5], shift_scale=0.3,
                                          noise_std=0.2, samples_per_site=12),
        checkpoint_path=str(directory / f"{name}-{site_count}.json"),
    )
    return SimScenario(
        federation=federation,
        site_multipliers={s: MULTIPLIERS[s] for s in sites},
        base_round_cost_seconds=10.0,
        aggregation_cost_seconds=1.0,
        faults=faults,
    )


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    return tmp_path_factory.mktemp("faults")


@pytest.fixture(scope="module")
def fault_free(checkpoints):
    """The fault-free run per site count."""
    return {n: simulate(make_scenario(checkpoints, n, name="plain")) for n in (3, 4)}


@st.composite
def schedules(draw):
    site_count = draw(st.integers(3, 4))
    downtimes = st.sampled_from([0.0, 4.0, 12.5, 40.0, 95.0])
    server = st.builds(FaultEvent, at_round=st.integers(0, ROUNDS - 1), target=st.just("server"),
                       kind=st.just("crash"), downtime_seconds=downtimes)
    client = st.builds(FaultEvent, at_round=st.integers(0, ROUNDS - 1),
                       target=st.sampled_from(SITES[:site_count]),
                       kind=st.sampled_from(["crash", "disconnect"]), downtime_seconds=downtimes)
    faults = draw(st.lists(server | client, max_size=5))
    if faults and draw(st.booleans()):
        # A second fault at the same (target, round): it fires on the next
        # task or round opening after the first one.
        first = draw(st.sampled_from(faults))
        kind = "crash" if first.target == "server" else draw(st.sampled_from(["crash", "disconnect"]))
        faults.insert(draw(st.integers(0, len(faults))),
                      FaultEvent(at_round=first.at_round, target=first.target, kind=kind,
                                 downtime_seconds=draw(downtimes)))
    return site_count, tuple(faults)


@given(schedule=schedules())
@settings(max_examples=100, deadline=None)
def test_any_quorum_preserving_schedule_is_transparent(checkpoints, fault_free, schedule):
    site_count, faults = schedule
    plain = fault_free[site_count]
    faulted = simulate(make_scenario(checkpoints, site_count, faults))
    assert faulted.status == "completed", faulted.diagnosis
    assert faulted.final_global == plain.final_global
    assert faulted.round_globals == plain.round_globals
    crashed = {f.target for f in faults if f.kind == "crash"}
    for site in SITES[:site_count]:
        if site not in crashed:
            assert faulted.personal_models[site] == plain.personal_models[site], site


# Two faults at each of three (target, round) keys; a key's faults fire in
# schedule order. The digests pin simulate()'s output for this schedule, and
# the swapped order shows that the order matters.
DUPLICATE_FAULTS = (
    FaultEvent(at_round=2, target="b", kind="disconnect", downtime_seconds=40.0),
    FaultEvent(at_round=2, target="b", kind="crash", downtime_seconds=12.0),
    FaultEvent(at_round=3, target="server", kind="crash", downtime_seconds=25.0),
    FaultEvent(at_round=3, target="server", kind="crash", downtime_seconds=7.0),
    FaultEvent(at_round=4, target="c", kind="crash", downtime_seconds=30.0),
    FaultEvent(at_round=4, target="c", kind="disconnect", downtime_seconds=5.0),
)
DUPLICATE_DIGESTS = {
    "schedule_order": "b7a6c7e7dc74a136cb84912b06dce4b8113f33bb70f978a9d7d76daff6fb3a41",
    "first_key_swapped": "74dcf7cc5ad6017d6248bf5252e0ac07c8a42a1bff7d7a62c309095cb8d9174e",
}


def simulation_digest(scenario):
    """sha256 over everything simulate() returns and the final checkpoint."""
    report = simulate(scenario)
    experiment = to_json(report.experiment)  # None when no round was reported
    if experiment is not None:
        experiment["config"].pop("checkpoint_path")
    digest = hashlib.sha256(json.dumps(
        [report.status, report.diagnosis, repr(report.virtual_seconds), report.reconnects,
         experiment], sort_keys=True).encode())
    for params in report.round_globals:
        digest.update(params.values.tobytes())
    for site in sorted(report.personal_models or {}):  # None unless ditto
        personal = report.personal_models[site]  # None once a crash lost it
        if personal is not None:
            digest.update(personal.values.tobytes())
    digest.update(Path(scenario.federation.checkpoint_path).read_bytes())
    return digest.hexdigest()


def test_duplicate_fault_keys_fire_in_schedule_order(tmp_path):
    swapped = DUPLICATE_FAULTS[1::-1] + DUPLICATE_FAULTS[2:]
    for name, faults in (("schedule_order", DUPLICATE_FAULTS), ("first_key_swapped", swapped)):
        scenario = make_scenario(tmp_path, 3, faults, name=name, rounds=6, local_steps=2)
        assert simulation_digest(scenario) == DUPLICATE_DIGESTS[name], name


def policy_scenario(directory, name, faults=(), multipliers=None, unexpected=(), **federation):
    """A 3-site, 6-round ditto scenario under another loss policy, timeout
    or site list; ``unexpected`` sites may join late."""
    base = make_scenario(directory, 3, faults, name=name, rounds=6, local_steps=2)
    sites = tuple(SiteSpec(s, expected=s not in unexpected) for s in SITES[:3])
    return dataclasses.replace(
        base,
        federation=dataclasses.replace(base.federation, sites=sites, **federation),
        site_multipliers=multipliers or base.site_multipliers,
    )


# Site c trains for 50 s, past the 30-s round timeout, so under
# continue_without every round drops it and its late update goes stale.
SLOW_C = {"a": 1.0, "b": 1.7, "c": 5.0}
CONTINUE = {"on_client_loss": "continue_without", "round_timeout_seconds": 30.0}

POLICY_SCENARIOS = {
    # b's outage spans the next round's opening, where it is dropped at once.
    "continue_timeout_drops": dict(
        multipliers=SLOW_C, min_clients_per_round=1, **CONTINUE,
        faults=(FaultEvent(at_round=1, target="b", kind="disconnect", downtime_seconds=45.0),),
    ),
    # a crashes in round 3; the timeout then drops c and leaves only b.
    "continue_timeout_below_quorum": dict(
        multipliers=SLOW_C, min_clients_per_round=2, **CONTINUE,
        faults=(FaultEvent(at_round=3, target="a", kind="crash", downtime_seconds=100.0),),
    ),
    "wait_timeout_aborts": dict(
        round_timeout_seconds=30.0,
        faults=(FaultEvent(at_round=2, target="c", kind="disconnect", downtime_seconds=100.0),),
    ),
    # c is not expected; it joins once round 0 is open and crashes in round 1.
    "late_joiner": dict(
        unexpected=("c",),
        faults=(FaultEvent(at_round=1, target="c", kind="crash", downtime_seconds=15.0),),
    ),
    "ditto_client_faults": dict(
        faults=(
            FaultEvent(at_round=1, target="a", kind="crash", downtime_seconds=20.0),
            FaultEvent(at_round=2, target="b", kind="disconnect", downtime_seconds=30.0),
            FaultEvent(at_round=3, target="c", kind="crash", downtime_seconds=5.0),
            FaultEvent(at_round=4, target="a", kind="disconnect", downtime_seconds=12.5),
        ),
    ),
}
POLICY_STATUS = {
    "continue_timeout_drops": "completed",
    "continue_timeout_below_quorum": "aborted",
    "wait_timeout_aborts": "aborted",
    "late_joiner": "completed",
    "ditto_client_faults": "completed",
}
POLICY_DIGESTS = {
    "continue_timeout_drops": "93de149227bd76e0a7b4f4f554a78a840e73cde54c8ea3cf6ba3402620f0fda2",
    "continue_timeout_below_quorum": "6df7edc6b5e624ed3503796c38b30fbf77235681d07062a26e711fc2f80b2ab1",
    "wait_timeout_aborts": "b5917f350eee7714f5f011ffb664e028ffab8e93476429723013546165cde25b",
    "late_joiner": "73da5968243caf8f7c8b128dbe4be8b55c23ce4120e8eb28287ab397e5a8632d",
    "ditto_client_faults": "77898a880d34f724caad8b61a8d4c91e142b37693ad6aa1ab872dec983b9d2d9",
}


@pytest.mark.parametrize("name", sorted(POLICY_SCENARIOS))
def test_policy_scenario_digests(tmp_path, name):
    scenario = policy_scenario(tmp_path, name, **POLICY_SCENARIOS[name])
    assert simulate(scenario).status == POLICY_STATUS[name]
    assert simulation_digest(scenario) == POLICY_DIGESTS[name], name


# Hung runs whose server never comes back, or comes back to a round that
# cannot open: 3 sites, 4 rounds, fedavg. The diagnosis names the cause.
HUNG_SCENARIOS = {
    "server_never_back": dict(
        faults=(FaultEvent(at_round=1, target="server", kind="crash",
                           downtime_seconds=math.inf),),
    ),
    "round_never_opens": dict(
        on_client_loss="continue_without", min_clients_per_round=2,
        faults=(FaultEvent(at_round=1, target="c", kind="crash", downtime_seconds=math.inf),
                FaultEvent(at_round=2, target="server", kind="crash", downtime_seconds=10.0)),
    ),
}
HUNG_DIAGNOSES = {
    "server_never_back": "no progress after 100046 virtual seconds: "
                         "the server went down and never came back",
    "round_never_opens": "no progress after 66 virtual seconds: "
                         "round 2 never opened (expected sites still absent)",
}
HUNG_ROUNDS = {"server_never_back": 1, "round_never_opens": 2}
HUNG_DIGESTS = {
    "server_never_back": "f48f833061f42c7e89ac4c011105342b6cca4d8c51aa111cae48baef480f6c81",
    "round_never_opens": "9d47b9f868eb1d3a3c06acc3c97899edaaa5add930b7405a421843a9dced68f3",
}


def hung_scenario(directory, name, faults, **federation):
    base = make_scenario(directory, 3, faults, name=name, rounds=4)
    return dataclasses.replace(
        base, federation=dataclasses.replace(base.federation, algorithm=AlgorithmConfig(),
                                             **federation))


@pytest.mark.parametrize("name", sorted(HUNG_SCENARIOS))
def test_hung_diagnosis_digests(tmp_path, name):
    scenario = hung_scenario(tmp_path, name, **HUNG_SCENARIOS[name])
    report = simulate(scenario)
    assert report.status == "hung"
    assert report.diagnosis == HUNG_DIAGNOSES[name]
    assert len(report.round_globals) == HUNG_ROUNDS[name]
    assert simulation_digest(scenario) == HUNG_DIGESTS[name], name
