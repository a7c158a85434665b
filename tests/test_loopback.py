"""End-to-end TCP tests on the loopback interface.

Servers and clients run in daemon threads; every experiment here is tiny
(desk-scale trainers, a handful of rounds) so the suite stays fast.
"""
import dataclasses
import json
import select
import socket
import sys
import threading
import time
from collections import Counter

import pytest

import fedkit.client
import fedkit.server

from fedkit import (
    AlgorithmConfig,
    BackoffPolicy,
    CheckpointError,
    ClientConfig,
    FederationConfig,
    FederationServer,
    HeterogeneityConfig,
    Message,
    ModelUpdate,
    ParameterVector,
    SiteSpec,
    StartupError,
    TrainerConfig,
    encode,
    resume_from_checkpoint,
    run_client,
)
from fedkit.client import parse_address
from fedkit.protocol import FrameDecoder, JoinAck, TaskAssignment, max_join_payload, max_update_payload
from fedkit.server import config_hash, save_checkpoint
from fedkit.training import initial_global

SITES = ("basel", "freiburg", "strasbourg")


def frame_of(document) -> bytes:
    payload = json.dumps(document).encode()
    return len(payload).to_bytes(4, "big") + payload


def make_cfg(tmp_path, rounds=3, **kw):
    return FederationConfig(
        sites=tuple(SiteSpec(s) for s in SITES),
        rounds=rounds,
        algorithm=kw.pop("algorithm", AlgorithmConfig()),
        trainer=kw.pop("trainer", TrainerConfig(lr=0.1, local_steps=1, seed=4)),
        heterogeneity=kw.pop(
            "heterogeneity",
            HeterogeneityConfig(
                base_optimum=[1.0, -1.5, 0.5], shift_scale=0.4, noise_std=0.2, samples_per_site=10
            ),
        ),
        checkpoint_path=str(tmp_path / "ckpt.json"),
        **kw,
    )


FAST_BACKOFF = BackoffPolicy(initial_seconds=0.05, max_seconds=0.5)


def has_ipv6_loopback() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


class ClientThread(threading.Thread):
    def __init__(self, cfg, site, address):
        super().__init__(daemon=True)
        self.exit_code = None
        self.error = None
        self._cfg = cfg
        self._client_cfg = ClientConfig(
            site_name=site,
            server_address=address,
            data_seed=cfg.trainer.seed,
            site_index=cfg.site_index(site),
            reconnect_backoff=FAST_BACKOFF,
        )

    def run(self):
        try:
            index = self._cfg.site_index(self._client_cfg.site_name)
            self.exit_code = run_client(
                self._client_cfg, self._cfg.trainer, self._cfg.site_heterogeneity(index)
            )
        except Exception as exc:  # surfaced by the test thread
            self.error = exc


def start_clients(cfg, address, sites=SITES):
    threads = [ClientThread(cfg, site, address) for site in sites]
    for t in threads:
        t.start()
    return threads


def finish(threads, timeout=30.0):
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "client thread did not terminate"
        assert t.error is None, f"client raised: {t.error}"
    return [t.exit_code for t in threads]


class TestLoopbackExperiment:
    def test_one_round_accounting(self, tmp_path):
        cfg = make_cfg(tmp_path, rounds=1)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        threads = start_clients(cfg, server.address)
        report = server.run()
        assert finish(threads) == [0, 0, 0]
        assert len(report.rounds) == 1
        record = report.rounds[0]
        assert set(record.per_client) == set(SITES)
        assert all(s.submitted for s in record.per_client.values())
        assert all(s.train_seconds > 0 for s in record.per_client.values())
        assert set(report.final_scores) == set(SITES)

    def test_clients_reach_the_server_by_host_name(self, tmp_path):
        cfg = make_cfg(tmp_path, rounds=1)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        threads = start_clients(cfg, ("localhost", server.address[1]))
        report = server.run()
        assert finish(threads) == [0, 0, 0]
        assert report.status == "completed" and len(report.rounds) == 1

    @pytest.mark.skipif(not has_ipv6_loopback(), reason="this host has no IPv6 loopback")
    def test_server_and_clients_over_ipv6(self, tmp_path):
        cfg = make_cfg(tmp_path, rounds=1)
        server = FederationServer(cfg, parse_address("[::1]:0"))
        assert server.address[0] == "::1"
        threads = start_clients(cfg, parse_address(f"[::1]:{server.address[1]}"))
        report = server.run()
        assert finish(threads) == [0, 0, 0]
        assert report.status == "completed" and len(report.rounds) == 1

    def test_model_is_deterministic_across_runs(self, tmp_path):
        finals = []
        for attempt in range(2):
            cfg = make_cfg(tmp_path, rounds=3)
            server = FederationServer(cfg, ("127.0.0.1", 0))
            threads = start_clients(cfg, server.address)
            report = server.run()
            finish(threads)
            finals.append(report.final_global)
        assert finals[0] == finals[1]

    def test_client_joins_after_delayed_server_start(self, tmp_path):
        cfg = make_cfg(tmp_path, rounds=1)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        address = server.address
        # hold the server back while clients retry against the bound-but-
        # unserved port; their backoff loop must carry them into the join
        threads = start_clients(cfg, address)
        time.sleep(1.0)
        report_holder = {}
        server_thread = threading.Thread(
            target=lambda: report_holder.update(report=server.run()), daemon=True
        )
        server_thread.start()
        assert finish(threads) == [0, 0, 0]
        server_thread.join(10.0)
        assert report_holder["report"] is not None

    def test_startup_timeout_without_clients(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fedkit.server, "STARTUP_TIMEOUT_SECONDS", 0.5)
        cfg = make_cfg(tmp_path, rounds=1)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        with pytest.raises(StartupError):
            server.run()

    def test_unknown_site_join_is_fatal_config_error(self, tmp_path):
        from fedkit import ConfigError

        cfg = make_cfg(tmp_path, rounds=1)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        intruder_cfg = ClientConfig(
            site_name="intruder",
            server_address=server.address,
            reconnect_backoff=FAST_BACKOFF,
        )
        holder = {}

        def run_intruder():
            try:
                run_client(intruder_cfg, cfg.trainer, cfg.heterogeneity)
            except ConfigError as exc:
                holder["error"] = exc

        intruder = threading.Thread(target=run_intruder, daemon=True)
        intruder.start()
        threads = start_clients(cfg, server.address)
        report = server.run()
        finish(threads)
        intruder.join(10.0)
        assert not intruder.is_alive()
        assert "unknown site" in str(holder["error"])
        assert report is not None


def assert_closed_by_server(sock, within=5.0):
    sock.settimeout(within)
    try:
        data = sock.recv(1)
    except ConnectionResetError:
        return
    except socket.timeout:
        pytest.fail(f"server kept the connection open for {within} s")
    assert data == b""


class TestRawConnections:
    """Sockets the test drives byte by byte. Connections that have not
    joined cost no thread, may buffer only a few KiB and must open with a
    join_request; a joined one may then send only its own site's updates.
    A connection that breaks these rules is closed; the experiment runs on."""

    def start_server(self, tmp_path, **kw):
        cfg = make_cfg(tmp_path, rounds=1, **kw)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.update(report=server.run()), daemon=True
        )
        thread.start()
        return cfg, server, thread, holder

    def complete_experiment(self, cfg, server, thread, holder):
        assert finish(start_clients(cfg, server.address)) == [0, 0, 0]
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(holder["report"].rounds) == 1

    def test_failed_send_is_reported_as_a_loss(self, tmp_path, monkeypatch):
        # The task to strasbourg fails to send: the server hangs that socket
        # up and reads its end of stream as the site's loss, so under
        # continue_without the round completes without it. Unreported, the
        # loss would hold the round open while the raw socket stays open.
        import fedkit.server

        real_encode, failed = fedkit.server.encode, []

        def encode_failing_once(msg):
            if msg.kind == "task_assignment" and msg.client_id == "strasbourg" and not failed:
                failed.append(msg.round)
                raise BrokenPipeError("simulated send failure")
            return real_encode(msg)

        monkeypatch.setattr(fedkit.server, "encode", encode_failing_once)
        cfg, server, thread, holder = self.start_server(
            tmp_path, on_client_loss="continue_without", min_clients_per_round=2
        )
        with socket.create_connection(server.address) as raw:
            raw.sendall(encode(Message("join_request", 0, "strasbourg")))
            assert finish(start_clients(cfg, server.address, SITES[:2])) == [0, 0]
            thread.join(10.0)
            assert not thread.is_alive()
        assert failed == [0]
        record = holder["report"].rounds[0]
        submitted = {site: stat.submitted for site, stat in record.per_client.items()}
        assert submitted == {"basel": True, "freiburg": True, "strasbourg": False}

    def test_oversized_frame_before_join_is_dropped(self, tmp_path):
        cfg, server, thread, holder = self.start_server(tmp_path)
        with socket.create_connection(server.address) as raw:
            raw.sendall((1 << 20).to_bytes(4, "big") + bytes(8192))
            assert_closed_by_server(raw)
        self.complete_experiment(cfg, server, thread, holder)

    def test_payload_announced_past_the_prejoin_cap_is_dropped(self, tmp_path):
        # The length prefix alone is refused, before any client joins: no
        # payload byte is sent, and the run has not ended.
        assert fedkit.server.PREJOIN_FRAME_BYTES < 5000
        cfg, server, thread, holder = self.start_server(tmp_path)
        with socket.create_connection(server.address) as raw:
            raw.sendall((5000).to_bytes(4, "big"))
            assert_closed_by_server(raw)
        self.complete_experiment(cfg, server, thread, holder)

    def test_site_whose_join_passes_the_prejoin_cap_completes_a_round(self, tmp_path):
        # The cap before a join fits the config's longest site name.
        sites = ("x" * 5000, "basel")
        assert max_join_payload(sites) == len(encode(Message("join_request", 0, sites[0]))) - 4
        assert max_join_payload(sites) > fedkit.server.PREJOIN_FRAME_BYTES
        cfg = dataclasses.replace(make_cfg(tmp_path, rounds=1),
                                  sites=tuple(SiteSpec(s) for s in sites))
        server = FederationServer(cfg, ("127.0.0.1", 0))
        holder = {}
        thread = threading.Thread(target=lambda: holder.update(report=server.run()), daemon=True)
        thread.start()
        threads = start_clients(cfg, server.address, sites)
        thread.join(20.0)
        if thread.is_alive():
            server.stop()
            pytest.fail("the round did not complete within 20 s")
        assert finish(threads) == [0, 0]
        assert len(holder["report"].rounds) == 1

    def test_join_request_sent_one_byte_at_a_time_joins(self, tmp_path):
        cfg, server, thread, holder = self.start_server(tmp_path)
        with socket.create_connection(server.address) as raw:
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            raw.settimeout(5.0)
            for byte in encode(Message("join_request", 0, "basel")):
                raw.sendall(bytes((byte,)))
                time.sleep(0.001)
            [ack] = receive(raw, FrameDecoder(), 1)
            assert ack.kind == "join_ack" and ack.body.accepted
        self.complete_experiment(cfg, server, thread, holder)

    def test_first_frame_other_than_join_is_dropped(self, tmp_path):
        cfg, server, thread, holder = self.start_server(tmp_path)
        with socket.create_connection(server.address) as raw:
            raw.sendall(encode(Message("experiment_done", 0, "basel")))
            assert_closed_by_server(raw)
        self.complete_experiment(cfg, server, thread, holder)

    @pytest.mark.parametrize(
        "frame",
        [
            encode(Message("update_submission", 0, "freiburg",
                           ModelUpdate("freiburg", 0, ParameterVector([0.0, 0.0, 0.0]), 1))),
            encode(Message("join_request", 0, "basel")),
            frame_of({"kind": "heartbeat", "round": 0, "client_id": "basel", "body": {}}),
        ],
        ids=["update_claiming_another_site", "second_join", "heartbeat"],
    )
    def test_joined_connection_may_send_only_its_own_updates(self, tmp_path, frame):
        cfg, server, thread, holder = self.start_server(tmp_path)
        with socket.create_connection(server.address) as raw:
            raw.settimeout(5.0)
            raw.sendall(encode(Message("join_request", 0, "basel")))
            [ack] = receive(raw, FrameDecoder(), 1)
            assert ack.kind == "join_ack" and ack.body.accepted
            raw.sendall(frame)
            assert_closed_by_server(raw)
        self.complete_experiment(cfg, server, thread, holder)

    def test_idle_connections_start_no_thread(self, tmp_path):
        cfg, server, thread, holder = self.start_server(tmp_path)
        before = set(threading.enumerate())
        raws = [socket.create_connection(server.address) for _ in range(10)]
        try:
            time.sleep(0.5)
            # Compare identities, not counts: a thread left over from an
            # earlier test may end meanwhile.
            assert [t for t in threading.enumerate() if t not in before] == []
            self.complete_experiment(cfg, server, thread, holder)
        finally:
            for raw in raws:
                raw.close()


class TestPeerInput:
    """What one joined peer sends cannot stop the server. An update the
    coordinator cannot average drops that peer's connection, and the loss
    policy decides the round; the other sites complete the experiment."""

    def run_with_raw_strasbourg(self, tmp_path, update_frame, accepted=False):
        cfg = make_cfg(tmp_path, rounds=1, on_client_loss="continue_without",
                       min_clients_per_round=2)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        holder = {}
        thread = threading.Thread(target=lambda: holder.update(report=server.run()), daemon=True)
        thread.start()
        with socket.create_connection(server.address) as raw:
            raw.settimeout(10.0)
            raw.sendall(encode(Message("join_request", 0, "strasbourg")))
            threads = start_clients(cfg, server.address, SITES[:2])
            decoder = FrameDecoder()
            ack, task = receive(raw, decoder, 2)
            assert (ack.kind, task.kind) == ("join_ack", "task_assignment")
            raw.sendall(update_frame)
            if accepted:
                assert [m.kind for m in receive(raw, decoder, 1)] == ["experiment_done"]
            else:
                assert_closed_by_server(raw)
        assert finish(threads) == [0, 0]
        thread.join(10.0)
        assert not thread.is_alive()
        [record] = holder["report"].rounds
        submitted = {site: stat.submitted for site, stat in record.per_client.items()}
        assert submitted == {"basel": True, "freiburg": True, "strasbourg": accepted}
        params, _ = resume_from_checkpoint(cfg.checkpoint_path)
        assert params.dim == 3

    def test_update_of_another_dim_drops_its_site(self, tmp_path):
        update = ModelUpdate("strasbourg", 0, ParameterVector([0.0, 0.0]), 1)
        self.run_with_raw_strasbourg(
            tmp_path, encode(Message("update_submission", 0, "strasbourg", update))
        )

    def test_sample_count_past_2_53_drops_its_site(self, tmp_path):
        body = {"params": {"f64le": "A" * 32}, "sample_count": 10**400, "train_seconds": 0.0}
        frame = frame_of({"kind": "update_submission", "round": 0, "client_id": "strasbourg",
                          "body": body})
        self.run_with_raw_strasbourg(tmp_path, frame)


    # A joined connection may buffer one update of the model's dimension. Its
    # largest frame has the longest site name (strasbourg), the last round, a
    # sample count of 2^53 and the longest printed train time.
    LARGEST_UPDATE = encode(Message("update_submission", 0, "strasbourg", ModelUpdate(
        "strasbourg", 0, ParameterVector([-0.0, 5e-324, 1.5]), 2**53,
        train_seconds=sys.float_info.max)))

    def test_announced_frame_past_the_update_cap_drops_its_site(self, tmp_path):
        payload = len(self.LARGEST_UPDATE) - 4
        assert payload == max_update_payload(3, SITES, 1)
        self.run_with_raw_strasbourg(tmp_path, (payload + 1).to_bytes(4, "big"))

    def test_largest_legal_update_is_accepted(self, tmp_path):
        self.run_with_raw_strasbourg(tmp_path, self.LARGEST_UPDATE, accepted=True)


def receive(sock, decoder, count):
    """Up to ``count`` messages from ``sock``; fewer if the peer closes first."""
    messages = []
    while len(messages) < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        messages += decoder.feed(chunk)
    return messages


class TestLargeUpdate:
    def test_update_to_a_server_that_pauses_reading_arrives_whole(self, tmp_path):
        # A ~10 MB update does not fit in the socket buffers, so the client's
        # sendall blocks while the server does not read. It must wait: a
        # timeout on the client's socket would cut the update and reconnect.
        heterogeneity = HeterogeneityConfig(base_optimum=[0.5] * 500_000, samples_per_site=1)
        cfg = make_cfg(tmp_path, rounds=1, heterogeneity=heterogeneity)
        with socket.socket() as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(10.0)
            client = ClientThread(cfg, "basel", listener.getsockname())
            client.start()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                decoder = FrameDecoder()
                assert [m.kind for m in receive(conn, decoder, 1)] == ["join_request"]
                ack = JoinAck(True, 0, cfg.algorithm)
                conn.sendall(encode(Message("join_ack", 0, "basel", ack)))
                task = TaskAssignment(initial_global(cfg.trainer, heterogeneity))
                conn.sendall(encode(Message("task_assignment", 0, "basel", task)))
                conn.recv(1, socket.MSG_PEEK)  # the update starts to arrive
                time.sleep(1.0)
                assert [m.kind for m in receive(conn, decoder, 1)] == ["update_submission"]
                assert select.select([listener], [], [], 0)[0] == []  # no reconnect
                conn.sendall(encode(Message("experiment_done", 0, "basel")))
                assert finish([client]) == [0]


class TestTaskBeforeAck:
    def test_client_drops_the_connection_and_rejoins(self, tmp_path):
        # The algorithm arrives in the ack, so a task before any accepted ack
        # cannot be trained: the client drops the connection and joins again.
        cfg = make_cfg(tmp_path, rounds=1)
        params = initial_global(cfg.trainer, cfg.heterogeneity)
        task = encode(Message("task_assignment", 0, "basel", TaskAssignment(params)))
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(10.0)
            client = ClientThread(cfg, "basel", listener.getsockname())
            client.start()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                decoder = FrameDecoder()
                assert [m.kind for m in receive(conn, decoder, 1)] == ["join_request"]
                conn.sendall(task)
                assert receive(conn, decoder, 1) == []  # closed without an update
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                decoder = FrameDecoder()
                assert [m.kind for m in receive(conn, decoder, 1)] == ["join_request"]
                ack = JoinAck(True, 0, cfg.algorithm)
                conn.sendall(encode(Message("join_ack", 0, "basel", ack)))
                conn.sendall(task)
                assert [m.kind for m in receive(conn, decoder, 1)] == ["update_submission"]
                conn.sendall(encode(Message("experiment_done", 0, "basel")))
                assert finish([client]) == [0]


class TestClientKeepalive:
    def test_connected_socket_probes_an_idle_server(self, tmp_path, monkeypatch):
        connected = []
        connect = fedkit.client.ClientRuntime._connect_forever

        def recording(self):
            sock = connect(self)
            connected.append(sock)
            return sock

        monkeypatch.setattr(fedkit.client.ClientRuntime, "_connect_forever", recording)
        cfg = make_cfg(tmp_path, rounds=1)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(10.0)
            client = ClientThread(cfg, "basel", listener.getsockname())
            client.start()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                # The join request is sent after the options are set.
                assert [m.kind for m in receive(conn, FrameDecoder(), 1)] == ["join_request"]
                [sock] = connected
                assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) != 0
                for name, value in (
                    ("TCP_KEEPIDLE", fedkit.client.KEEPALIVE_IDLE_SECONDS),
                    ("TCP_KEEPINTVL", fedkit.client.KEEPALIVE_INTERVAL_SECONDS),
                    ("TCP_KEEPCNT", fedkit.client.KEEPALIVE_PROBES),
                ):
                    if hasattr(socket, name):
                        assert sock.getsockopt(socket.IPPROTO_TCP, getattr(socket, name)) == value
                conn.sendall(encode(Message("experiment_done", 0, "basel")))
                assert finish([client]) == [0]


class TestBenchRoutes:
    def test_fault_free_run_calls_each_counted_name(self, tmp_path, monkeypatch):
        # bench/hooks.py counts wire bytes at these encodes and ends a round
        # where save_checkpoint returns, so each must stay on the round path.
        calls = []  # list.append is atomic across the client threads

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(fedkit.server, "encode")
        count(fedkit.server, "save_checkpoint")
        count(fedkit.client, "encode")
        cfg = make_cfg(tmp_path, rounds=2)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        threads = start_clients(cfg, server.address)
        server.run()
        assert finish(threads) == [0, 0, 0]
        assert Counter(calls) == {
            "fedkit.server.encode": 12,
            "fedkit.server.save_checkpoint": 2,
            "fedkit.client.encode": 9,
        }


class TestServerRestart:
    def wait_for_checkpoint_round(self, path, minimum_next_round, timeout=20.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                _, next_round = resume_from_checkpoint(path)
                if next_round >= minimum_next_round:
                    return
            except Exception:
                pass
            time.sleep(0.02)
        raise AssertionError("checkpoint never reached the requested round")

    def test_failed_resume_leaves_the_port_free(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = probe.getsockname()
        with pytest.raises(CheckpointError, match="no checkpoint"):
            FederationServer(make_cfg(tmp_path), address, resume=True)
        socket.create_server(address).close()  # raises if the port were held

    def test_resume_of_a_global_of_another_dim_fails(self, tmp_path):
        cfg = make_cfg(tmp_path)
        save_checkpoint(cfg.checkpoint_path, 0, ParameterVector([1.0, 2.0]), config_hash(cfg))
        with pytest.raises(CheckpointError, match="dim-2 global; the config's model has dim 3"):
            FederationServer(cfg, ("127.0.0.1", 0), resume=True)

    def test_restart_resumes_and_matches_uninterrupted_run(self, tmp_path):
        # enough rounds that the stop lands mid-experiment on loopback
        rounds, trainer = 80, TrainerConfig(lr=0.05, local_steps=25, seed=4)

        cfg = make_cfg(tmp_path, rounds=rounds, trainer=trainer)
        server = FederationServer(cfg, ("127.0.0.1", 0))
        threads = start_clients(cfg, server.address)
        baseline = server.run()
        finish(threads)

        # interrupted run: stop after round >= 2, restart on the same port
        cfg2 = make_cfg(tmp_path / "b", rounds=rounds, trainer=trainer)
        (tmp_path / "b").mkdir(exist_ok=True)
        server_a = FederationServer(cfg2, ("127.0.0.1", 0))
        address = server_a.address
        result = {}
        thread_a = threading.Thread(
            target=lambda: result.update(first=server_a.run()), daemon=True
        )
        thread_a.start()
        threads = start_clients(cfg2, address)
        self.wait_for_checkpoint_round(cfg2.checkpoint_path, minimum_next_round=2)
        server_a.stop()
        thread_a.join(10.0)
        assert result["first"] is None  # stopped, not completed

        time.sleep(0.3)  # a visible outage; clients keep retrying
        server_b = FederationServer(cfg2, address, resume=True)
        report = server_b.run()
        assert finish(threads) == [0, 0, 0]
        assert report.final_global == baseline.final_global
