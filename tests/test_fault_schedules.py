"""Fault transparency over generated schedules.

Under ``wait`` every fault with a finite downtime preserves the quorum, so
any such schedule of server crashes, client crashes and disconnects must
end in the fault-free run's global model, bit for bit, under fedavg,
fedprox and ditto alike. Ditto personal models of sites whose process
never crashed must match too.

Under ``continue_without`` dropped sites change the model, so the oracle
is each round recomputed from the sites its record lists as submitted.
"""
import dataclasses
import hashlib
import json
import math
import re

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
    federated_average,
    generate_site_data,
    local_train,
    simulate,
)
from fedkit.params import to_json
from fedkit.server import resume_from_checkpoint
from fedkit.training import initial_global

ROUNDS = 5
SITES = ("a", "b", "c", "d")
MULTIPLIERS = {"a": 1.0, "b": 2.5, "c": 1.7, "d": 3.0}
DITTO = AlgorithmConfig(kind="ditto", ditto_lambda=0.5)
ALGORITHMS = (AlgorithmConfig(), AlgorithmConfig(kind="fedprox", prox_mu=0.3), DITTO)


def make_scenario(directory, site_count, faults=(), name="ckpt", rounds=ROUNDS, local_steps=1,
                  algorithm=DITTO):
    sites = SITES[:site_count]
    federation = FederationConfig(
        sites=tuple(SiteSpec(s) for s in sites),
        rounds=rounds,
        algorithm=algorithm,
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
    """The fault-free run per algorithm and site count."""
    return {
        (algorithm, n): simulate(make_scenario(checkpoints, n, name="plain", algorithm=algorithm))
        for algorithm in ALGORITHMS
        for n in (3, 4)
    }


@st.composite
def schedules(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
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
    return algorithm, site_count, tuple(faults)


@given(schedule=schedules())
@settings(max_examples=100, deadline=None)
def test_any_quorum_preserving_schedule_is_transparent(checkpoints, fault_free, schedule):
    algorithm, site_count, faults = schedule
    plain = fault_free[algorithm, site_count]
    faulted = simulate(make_scenario(checkpoints, site_count, faults, algorithm=algorithm))
    assert faulted.status == "completed", faulted.diagnosis
    assert faulted.final_global == plain.final_global
    assert faulted.round_globals == plain.round_globals
    if algorithm.kind != "ditto":
        return
    crashed = {f.target for f in faults if f.kind == "crash"}
    for site in SITES[:site_count]:
        if site not in crashed:
            assert faulted.personal_models[site] == plain.personal_models[site], site


@st.composite
def continue_without_runs(draw):
    """3-4 sites, any quorum, an optional timeout and up to four client
    faults whose downtime may be infinite. No server crashes: a report
    covers only the rounds since the last restart."""
    site_count = draw(st.integers(3, 4))
    client = st.builds(FaultEvent, at_round=st.integers(0, ROUNDS - 1),
                       target=st.sampled_from(SITES[:site_count]),
                       kind=st.sampled_from(["crash", "disconnect"]),
                       downtime_seconds=st.sampled_from([0.0, 4.0, 12.5, 40.0, 95.0, math.inf]))
    return site_count, dict(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        on_client_loss="continue_without",
        min_clients_per_round=draw(st.integers(1, site_count)),
        round_timeout_seconds=draw(st.sampled_from([None, 30.0, 45.0])),
    ), tuple(draw(st.lists(client, max_size=4)))


@given(run=continue_without_runs())
@settings(max_examples=100, deadline=None)
def test_continue_without_rounds_average_exactly_the_submitted_sites(checkpoints, run):
    site_count, federation, faults = run
    base = make_scenario(checkpoints, site_count, faults, name="continue")
    cfg = dataclasses.replace(base.federation, **federation)
    report = simulate(dataclasses.replace(base, federation=cfg))
    assert report.status in ("completed", "aborted"), report.diagnosis
    if report.status == "aborted":
        assert "quorum" in report.diagnosis
    else:
        assert len(report.round_globals) == cfg.rounds
    records = report.experiment.rounds if report.experiment is not None else []
    assert [r.round for r in records] == list(range(len(report.round_globals)))
    previous = initial_global(cfg.trainer, cfg.heterogeneity)
    for record, aggregated in zip(records, report.round_globals):
        submitted = [s for s in cfg.site_names
                     if s in record.per_client and record.per_client[s].submitted]
        assert len(submitted) >= cfg.min_clients_per_round
        updates = []
        for site in submitted:
            index = cfg.site_index(site)
            data = generate_site_data(cfg.site_heterogeneity(index), index, cfg.trainer.seed,
                                      task=cfg.trainer.trainer)
            updates.append(local_train(previous, data, cfg.trainer, cfg.algorithm,
                                       w_global=previous, client_id=site,
                                       round_index=record.round))
        expected = federated_average(updates, cfg.algorithm.weighting)
        assert aggregated.values.tobytes() == expected.values.tobytes(), record.round
        previous = aggregated


@given(run=continue_without_runs())
@settings(max_examples=100, deadline=None)
def test_continue_without_aborts_exactly_when_a_round_falls_below_quorum(checkpoints, run):
    # The quorum decides only whether a round aborts, never who is dropped,
    # so a quorum-1 run shows how many sites each round can gather.
    site_count, federation, faults = run
    quorum = federation["min_clients_per_round"]
    base = make_scenario(checkpoints, site_count, faults, name="quorum")
    reports = {}
    for q in {quorum, 1}:
        cfg = dataclasses.replace(base.federation, **{**federation, "min_clients_per_round": q})
        reports[q] = simulate(dataclasses.replace(base, federation=cfg))
    at_q, at_one = reports[quorum], reports[1]
    assert at_one.status in ("completed", "aborted"), at_one.diagnosis
    records = at_one.experiment.rounds if at_one.experiment is not None else []
    gathered = [sum(c.submitted for c in r.per_client.values()) for r in records]
    short = [r for r, n in enumerate(gathered) if n < quorum]
    if not short and at_one.status == "completed":
        assert at_q.status == "completed", at_q.diagnosis
        assert at_q.round_globals == at_one.round_globals
        return
    due = short[0] if short else len(at_one.round_globals)
    assert at_q.status == "aborted", at_q.diagnosis
    assert re.search(r"round (\d+)", at_q.diagnosis).group(1) == str(due), at_q.diagnosis
    assert at_q.round_globals == at_one.round_globals[:due]


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
    "schedule_order": "232f50320f779ab04fc10dc52c854ad60d84f14f4013d0da7c2fcbadc0051624",
    "first_key_swapped": "4fb95e43188f599eb896ab6feeb7db4c2159b95386347184589ea150370c477c",
}


def simulation_digest(scenario):
    """sha256 over everything simulate() returns and the decoded final
    checkpoint: the round it resumes at and its global model."""
    report = simulate(scenario)
    experiment = None  # for a run that aggregated no round
    if report.rounds:
        # The simulator's own fields are left out: the list hashes the scalars,
        # the loop below the personal models, and no scenario sets local_cross.
        experiment = {key: value for key, value in to_json(report.experiment).items()
                      if key not in ("diagnosis", "reconnects", "virtual_seconds",
                                     "local_cross", "personal_models")}
        experiment["config"].pop("checkpoint_path")
        # The model's values as numbers, the form these digests were pinned
        # on; the report's own vector form is the wire codec's business.
        experiment["final_global"] = report.final_global.tolist()
    digest = hashlib.sha256(json.dumps(
        [report.status, report.diagnosis, repr(report.virtual_seconds), report.reconnects,
         experiment], sort_keys=True).encode())
    for params in report.round_globals:
        digest.update(params.values.tobytes())
    for site in sorted(report.personal_models or {}):  # None unless ditto
        personal = report.personal_models[site]  # None once a crash lost it
        if personal is not None:
            digest.update(personal.values.tobytes())
    params, next_round = resume_from_checkpoint(scenario.federation.checkpoint_path)
    digest.update(repr(next_round).encode())
    digest.update(params.values.tobytes())
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
    # b never comes back; dropping it leaves 2 sites under a quorum of 3.
    "continue_loss_below_quorum": dict(
        on_client_loss="continue_without", min_clients_per_round=3,
        faults=(FaultEvent(at_round=2, target="b", kind="crash", downtime_seconds=math.inf),),
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
    "continue_loss_below_quorum": "aborted",
    "wait_timeout_aborts": "aborted",
    "late_joiner": "completed",
    "ditto_client_faults": "completed",
}
POLICY_DIGESTS = {
    "continue_timeout_drops": "c754fd572aea6e134f2b7c5b942d35527c04f662e60594e63ad26f837d7370b1",
    "continue_timeout_below_quorum": "4012a85ed113254b6d4cdd21a8984d85480bd8ba7627d15acba84e6931794bb6",
    "continue_loss_below_quorum": "73373b0d99f1d1a8cf052efbb6ccf329050ee4b2ba1d394eb16566ad6030390c",
    "wait_timeout_aborts": "edea85cfa4e2f1cc02cb86d8c2a06d0904ff8a1aaa07a240bad0aada11576cb7",
    "late_joiner": "f906784704b7f5c2aa9397cc788d83cf9f9038708de3f3f65f95f37dbdda0e21",
    "ditto_client_faults": "f2c72dc724da23963f00850c7b79b8ee082da7865ec1500e6a55d388d424df9e",
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
    "server_never_back": "3be2d9e9a4ec2589812dc838cab5e9bddc83b618c50d97f75f24d327f5b684f6",
    "round_never_opens": "248db6614169c0b945c88dee0a55c61259885c616d46a05233ea8aaa4e8756fc",
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


def test_finite_outage_past_the_hung_threshold_names_its_end(tmp_path):
    """A server down longer than the hung threshold does come back: the
    diagnosis says when, not that it never will."""
    faults = (FaultEvent(at_round=1, target="server", kind="crash", downtime_seconds=2e5),)
    report = simulate(hung_scenario(tmp_path, "long_outage", faults))
    assert report.status == "hung"
    assert report.diagnosis == ("no progress after 100046 virtual seconds: "
                                "the server is down until 200025 virtual seconds")
