import itertools

import pytest

from fedkit import (
    AlgorithmConfig,
    BackoffPolicy,
    ClientConfig,
    ClientSession,
    ConfigError,
    HeterogeneityConfig,
    Message,
    ParameterVector,
    TrainerConfig,
)
from fedkit.client import Exit, SendMsg, TrainTask, parse_address
from fedkit.protocol import Abort, JoinAck, TaskAssignment


def make_session(algorithm_kind="fedavg"):
    cfg = ClientConfig(site_name="basel", server_address=("127.0.0.1", 9), data_seed=3,
                       site_index=0)
    trainer = TrainerConfig(lr=0.1, local_steps=2, seed=3)
    het = HeterogeneityConfig(base_optimum=[1.0, -1.0], samples_per_site=6)
    return ClientSession(cfg, trainer, het)


def ack(current_round, accepted=True, reason=""):
    return Message("join_ack", current_round, "basel",
                   JoinAck(accepted=accepted, current_round=current_round, reason=reason))


def task(round_index, values=(0.0, 0.0), algorithm=None):
    return Message(
        "task_assignment", round_index, "basel",
        TaskAssignment(params=ParameterVector(values), algorithm=algorithm or AlgorithmConfig()),
    )


class TestBackoffPolicy:
    def test_caps_and_never_stops(self):
        policy = BackoffPolicy(initial_seconds=0.5, max_seconds=30.0, multiplier=2.0)
        delays = list(itertools.islice(policy.delays(), 12))
        assert delays[:7] == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]
        assert all(d <= 30.0 for d in delays)
        assert delays[-1] == 30.0  # still yielding at the cap

    def test_initial_must_not_exceed_max(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(initial_seconds=60.0, max_seconds=30.0)

    def test_multiplier_at_least_one(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(multiplier=0.5)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)

    def test_rejects_garbage(self):
        for bad in ("nohost", "host:", ":123", "host:port"):
            with pytest.raises(ConfigError):
                parse_address(bad)


class TestClientSession:
    def test_join_flow(self):
        session = make_session()
        cmds = session.on_connected()
        assert isinstance(cmds[0], SendMsg) and cmds[0].message.kind == "join_request"
        assert session.on_message(ack(0)) == []

    def test_rejected_join_is_fatal(self):
        session = make_session()
        with pytest.raises(ConfigError, match="unknown site"):
            session.on_message(ack(0, accepted=False, reason="unknown site"))

    def test_task_produces_training_command(self):
        session = make_session()
        cmds = session.on_message(task(2))
        assert isinstance(cmds[0], TrainTask) and cmds[0].round_index == 2

    def test_trained_update_is_submitted_and_held(self):
        session = make_session()
        update = session.train(1, ParameterVector([0.0, 0.0]), AlgorithmConfig())
        cmds = session.on_trained(update)
        assert isinstance(cmds[0], SendMsg)
        assert cmds[0].message.kind == "update_submission"
        assert cmds[0].message.round == 1

    def test_resubmits_held_update_when_round_unchanged(self):
        session = make_session()
        update = session.train(1, ParameterVector([0.0, 0.0]), AlgorithmConfig())
        session.on_trained(update)
        cmds = session.on_message(ack(1))
        assert isinstance(cmds[0], SendMsg)
        assert cmds[0].message.kind == "update_submission"
        assert cmds[0].message.body.params == update.params

    def test_discards_held_update_when_federation_moved_on(self):
        session = make_session()
        update = session.train(1, ParameterVector([0.0, 0.0]), AlgorithmConfig())
        session.on_trained(update)
        assert session.on_message(ack(2)) == []
        # and a later rejoin at the same round resubmits nothing
        assert session.on_message(ack(2)) == []

    def test_new_task_supersedes_held_work(self):
        session = make_session()
        update = session.train(1, ParameterVector([0.0, 0.0]), AlgorithmConfig())
        session.on_trained(update)
        session.on_message(task(2))
        assert session.on_message(ack(2)) == []  # held work was replaced by the task

    def test_done_and_abort_exit_codes(self):
        session = make_session()
        done = session.on_message(Message("experiment_done", 3, "basel"))
        assert done == [Exit(0)]
        aborted = session.on_message(Message("abort", 3, "basel", Abort("quorum lost")))
        assert isinstance(aborted[0], Exit) and aborted[0].code == 1

    def test_ditto_personal_track_updates_but_never_travels(self):
        session = make_session()
        algo = AlgorithmConfig(kind="ditto", ditto_lambda=0.5)
        start = ParameterVector([0.0, 0.0])
        update = session.train(0, start, algo)
        assert session.personal_params is not None
        assert session.personal_params != start
        # the transmitted update is the global-track parameters, not v
        assert update.params != session.personal_params

    def test_crash_semantics_clear_state(self):
        session = make_session()
        algo = AlgorithmConfig(kind="ditto", ditto_lambda=0.5)
        update = session.train(0, ParameterVector([0.0, 0.0]), algo)
        session.on_trained(update)
        session.reset_process_state()
        assert session.personal_params is None
        assert session.on_message(ack(0)) == []  # nothing held anymore


class TestClientConfig:
    def test_address_validation(self):
        with pytest.raises(ConfigError):
            ClientConfig(site_name="x", server_address=("h", 99999))
