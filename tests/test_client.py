import itertools
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

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
    ProtocolError,
    TrainerConfig,
    generate_site_data,
    run_client,
)
from fedkit.client import ClientRuntime, Exit, TrainTask, parse_address
from fedkit.protocol import Abort, JoinAck, TaskAssignment

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(script, cwd):
    """The last stdout line of ``script`` run in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def make_session(algorithm_kind="fedavg"):
    cfg = ClientConfig(site_name="basel", server_address=("127.0.0.1", 9), data_seed=3,
                       site_index=0)
    trainer = TrainerConfig(lr=0.1, local_steps=2, seed=3)
    het = HeterogeneityConfig(base_optimum=[1.0, -1.0], samples_per_site=6)
    return ClientSession(cfg, trainer, het)


def ack(current_round, accepted=True, reason="", algorithm=None):
    body = JoinAck(accepted=accepted, current_round=current_round,
                   algorithm=algorithm or AlgorithmConfig(), reason=reason)
    return Message("join_ack", current_round, "basel", body)


def task(round_index, values=(0.0, 0.0)):
    return Message("task_assignment", round_index, "basel", TaskAssignment(ParameterVector(values)))


def trained(session, msg):
    """The update a session's TrainTask for ``msg`` produces."""
    [cmd] = session.on_message(msg)
    return session.train(cmd.round_index, cmd.params, cmd.algorithm)


class TestBackoffPolicy:
    def test_caps_and_never_stops(self):
        policy = BackoffPolicy(initial_seconds=0.5, max_seconds=30.0)
        delays = list(itertools.islice(policy.delays(), 12))
        assert delays[:7] == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]
        assert all(d <= 30.0 for d in delays)
        assert delays[-1] == 30.0  # still yielding at the cap

    def test_initial_must_not_exceed_max(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(initial_seconds=60.0, max_seconds=30.0)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)

    def test_rejects_garbage(self):
        for bad in ("nohost", "host:", ":123", "host:port"):
            with pytest.raises(ConfigError):
                parse_address(bad)

    @pytest.mark.parametrize("text, address", [
        ("[::1]:7315", ("::1", 7315)),
        ("::1:7315", ("::1", 7315)),
        ("[2001:db8::1]:80", ("2001:db8::1", 80)),
        ("[fe80::1%eth0]:0", ("fe80::1%eth0", 0)),
    ], ids=["bracketed-loopback", "bare-loopback", "bracketed", "scoped"])
    def test_ipv6_host(self, text, address):
        assert parse_address(text) == address

    @pytest.mark.parametrize("bad", ["[]:7315", "[::1]", "[::1]:", "[::1]:x"])
    def test_rejects_bracketed_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_address(bad)

    @pytest.mark.parametrize("bad", ["h:65536", "h:99999", "h:\u00b2", "h:\u0663"])
    def test_rejects_a_port_out_of_range_or_not_in_ascii_digits(self, bad):
        with pytest.raises(ConfigError):
            parse_address(bad)


class TestClientSession:
    def test_join_flow(self):
        session = make_session()
        cmds = session.on_connected()
        assert isinstance(cmds[0], Message) and cmds[0].kind == "join_request"
        assert session.on_message(ack(0)) == []

    def test_rejected_join_is_fatal(self):
        session = make_session()
        with pytest.raises(ConfigError, match="unknown site"):
            session.on_message(ack(0, accepted=False, reason="unknown site"))

    def test_task_produces_training_command(self):
        session = make_session()
        session.on_message(ack(2))
        cmds = session.on_message(task(2))
        assert isinstance(cmds[0], TrainTask) and cmds[0].round_index == 2

    def test_task_before_an_accepted_ack_is_a_protocol_error(self):
        session = make_session()
        with pytest.raises(ProtocolError, match="before an accepted join ack"):
            session.on_message(task(0))

    def test_trains_with_the_algorithm_of_the_ack(self):
        prox = AlgorithmConfig(kind="fedprox", prox_mu=1.0)
        updates = {}
        for name, algorithm in (("fedavg", None), ("fedprox", prox)):
            session = make_session()
            session.on_message(ack(0, algorithm=algorithm))
            [cmd] = session.on_message(task(0, (0.5, 0.5)))
            assert cmd.algorithm == (algorithm or AlgorithmConfig())
            updates[name] = session.train(cmd.round_index, cmd.params, cmd.algorithm)
        assert updates["fedprox"].params != updates["fedavg"].params

    def test_algorithm_survives_a_crash(self):
        session = make_session()
        session.on_message(ack(0, algorithm=AlgorithmConfig(kind="fedprox", prox_mu=1.0)))
        before = trained(session, task(0, (0.5, 0.5)))
        session.reset_process_state()
        assert trained(session, task(0, (0.5, 0.5))) == before

    def test_trained_update_is_submitted_and_held(self):
        session = make_session()
        update = session.train(1, ParameterVector([0.0, 0.0]), AlgorithmConfig())
        cmds = session.on_trained(update)
        assert isinstance(cmds[0], Message)
        assert cmds[0].kind == "update_submission"
        assert cmds[0].round == 1

    def test_resubmits_held_update_when_round_unchanged(self):
        session = make_session()
        update = session.train(1, ParameterVector([0.0, 0.0]), AlgorithmConfig())
        session.on_trained(update)
        cmds = session.on_message(ack(1))
        assert isinstance(cmds[0], Message)
        assert cmds[0].kind == "update_submission"
        assert cmds[0].body.params == update.params

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
        session.on_message(ack(1))  # resubmits the held update
        session.on_message(task(2))
        assert session.on_message(ack(1)) == []  # held work was replaced by the task

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


class TestSiteDataBeforeJoin:
    def test_data_is_built_with_the_session_and_survives_a_crash(self):
        session = make_session()
        expected = generate_site_data(session.heterogeneity, 0, 3, role="train")
        data = session.data
        assert data.features.tobytes() == expected.features.tobytes()
        assert data.targets.tobytes() == expected.targets.tobytes()
        session.reset_process_state()
        assert session.data is data

    def test_mismatched_trainer_fails_before_any_connect(self):
        # A bound socket that does not listen refuses every connect, so a
        # client that reached its connect loop would retry until the join
        # timeout below.
        with socket.socket() as closed_port:
            closed_port.bind(("127.0.0.1", 0))
            cfg = ClientConfig(site_name="basel", server_address=closed_port.getsockname())
            trainer = TrainerConfig(trainer="synthetic_segmentation")
            het = HeterogeneityConfig(base_optimum=[1.0, 2.0, 3.0])
            outcome = {}

            def run():
                try:
                    outcome["code"] = run_client(cfg, trainer, het)
                except Exception as exc:  # inspected by the test thread
                    outcome["error"] = exc

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(2.0)
            assert not thread.is_alive(), "the client tried to connect"
        assert isinstance(outcome.get("error"), ConfigError), outcome

    def test_a_round_imports_nothing(self, tmp_path):
        # Everything a round needs is loaded by `import fedkit`, so no
        # import runs inside a timed round.
        script = f"""
            import json, sys
            from fedkit import (AlgorithmConfig, ClientConfig, ClientSession, FederationConfig,
                                HeterogeneityConfig, Message, ParameterVector, SimScenario,
                                SiteSpec, TrainerConfig, simulate)
            from fedkit.protocol import JoinAck

            before = set(sys.modules)
            trainer = TrainerConfig(trainer="synthetic_segmentation", seed=5)
            het = HeterogeneityConfig(base_optimum=[8.0, -4.0], shift_scale=0.3,
                                      noise_std=0.2, samples_per_site=6)
            cfg = FederationConfig(sites=tuple(SiteSpec(s) for s in "abc"), rounds=2,
                                   algorithm=AlgorithmConfig(), trainer=trainer,
                                   heterogeneity=het, checkpoint_path={str(tmp_path / "c.json")!r})
            simulate(SimScenario(federation=cfg))
            session = ClientSession(ClientConfig("a", ("127.0.0.1", 9)), trainer, het)
            session.on_message(Message("join_ack", 0, "a", JoinAck(True, 0, AlgorithmConfig())))
            session.train(0, ParameterVector([0.0, 0.0]), AlgorithmConfig())
            print(json.dumps(sorted(set(sys.modules) - before)))
        """
        assert run_fresh(script, tmp_path) == []


class TestClientConfig:
    def test_address_validation(self):
        with pytest.raises(ConfigError):
            ClientConfig(site_name="x", server_address=("h", 99999))

    @pytest.mark.parametrize("port", ["x", "7315", None, 1.5, 1.0, True, False, -1, 65536],
                             ids=repr)
    def test_port_that_is_no_integer_in_range_is_a_config_error(self, port):
        with pytest.raises(ConfigError, match="^server_address: port "):
            ClientConfig(site_name="x", server_address=("h", port))

    @pytest.mark.parametrize("port", [0, 1, 65535])
    def test_port_in_range_passes(self, port):
        assert ClientConfig(site_name="x", server_address=("h", port)).server_address == ("h", port)

    @pytest.mark.parametrize("host", ["[::1]", "[::1", "::1]", None, 7315], ids=repr)
    def test_bracketed_or_non_string_host_is_a_config_error(self, host):
        with pytest.raises(ConfigError, match="^server_address: host "):
            ClientConfig(site_name="x", server_address=(host, 7315))

    @pytest.mark.parametrize("host", ["a..b", ".", "x" * 64],
                             ids=["empty-label", "lone-dot", "64-character-label"])
    def test_host_the_idna_codec_refuses_is_a_config_error(self, host):
        # The runtime resolves an ASCII host without the codec, so the
        # config applies the codec's label rule up front.
        with pytest.raises(UnicodeError):
            host.encode("idna")
        with pytest.raises(ConfigError, match="server_address"):
            ClientConfig(site_name="x", server_address=(host, 7315))

    @pytest.mark.parametrize("host", ["127.0.0.1", "::1", "localhost", "localhost."])
    def test_host_the_idna_codec_takes_passes(self, host):
        host.encode("idna")
        assert ClientConfig(site_name="x", server_address=(host, 7315)).server_address == (host, 7315)


class TestConnect:
    def test_ascii_hosts_reach_the_resolver_as_bytes(self, monkeypatch):
        seen = []

        def create_connection(address, *args, **kwargs):
            seen.append(address)
            return "socket"

        monkeypatch.setattr(socket, "create_connection", create_connection)
        het = HeterogeneityConfig(base_optimum=[1.0, -1.0], samples_per_site=2)
        for host in ("127.0.0.1", "localhost", "bäsel.example"):
            runtime = ClientRuntime(ClientConfig("basel", (host, 7315)), TrainerConfig(), het)
            assert runtime._connect_forever() == "socket"
        assert seen == [(b"127.0.0.1", 7315), (b"localhost", 7315), ("bäsel.example", 7315)]

    def test_connecting_does_not_load_the_idna_codec(self, tmp_path):
        script = """
            import json, socket, sys
            from fedkit import ClientConfig, HeterogeneityConfig, TrainerConfig
            from fedkit.client import ClientRuntime

            with socket.create_server(("127.0.0.1", 0)) as listener:
                cfg = ClientConfig("basel", listener.getsockname())
                het = HeterogeneityConfig(base_optimum=[1.0, -1.0], samples_per_site=2)
                runtime = ClientRuntime(cfg, TrainerConfig(), het)
                before = "encodings.idna" in sys.modules
                runtime._connect_forever().close()
            print(json.dumps([before, "encodings.idna" in sys.modules]))
        """
        assert run_fresh(script, tmp_path) == [False, False]
