import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from fedkit import (
    AlgorithmConfig,
    CheckpointError,
    ConfigError,
    FederationConfig,
    FederationCoordinator,
    HeterogeneityConfig,
    Message,
    ModelUpdate,
    ParameterVector,
    SiteSpec,
    TrainerConfig,
    resume_from_checkpoint,
)
from fedkit import checkpoint
from fedkit.server import (
    SaveCheckpoint,
    StartTimer,
    config_hash,
    evaluate_sites,
    save_checkpoint,
)


def write_checkpoint_document(path, doc, round_index=0, cfg_hash="x"):
    """A checkpoint file whose slot passes its checksum but holds ``doc``."""
    record = checkpoint._record(round_index, json.dumps(doc).encode(), cfg_hash)
    checkpoint._write_fresh(path, record, checkpoint._slot_size(1, len(record)), round_index)


def make_cfg(tmp_path, sites=("a", "b", "c"), rounds=3, **kw):
    return FederationConfig(
        sites=tuple(SiteSpec(s) for s in sites),
        rounds=rounds,
        algorithm=kw.pop("algorithm", AlgorithmConfig()),
        trainer=kw.pop("trainer", TrainerConfig(seed=5)),
        heterogeneity=kw.pop(
            "heterogeneity", HeterogeneityConfig(base_optimum=[1.0, -1.0], samples_per_site=8)
        ),
        checkpoint_path=str(tmp_path / "ckpt.json"),
        **kw,
    )


def update_for(site, round_index, values=(0.5, 0.5), n=8, seconds=1.0):
    return ModelUpdate(site, round_index, ParameterVector(values), n, seconds)


def sends_of(cmds, kind=None):
    out = [c for c in cmds if isinstance(c, Message)]
    if kind is not None:
        out = [c for c in out if c.kind == kind]
    return out


class TestFederationConfig:
    def test_min_clients_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, min_clients_per_round=4)

    def test_continue_without_requires_min(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, on_client_loss="continue_without")

    def test_duplicate_sites_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, sites=("a", "a"))

    def test_config_hash_ignores_operational_knobs(self, tmp_path):
        a = make_cfg(tmp_path)
        b = FederationConfig(
            sites=a.sites,
            rounds=a.rounds,
            algorithm=a.algorithm,
            trainer=a.trainer,
            heterogeneity=a.heterogeneity,
            checkpoint_path=str(tmp_path / "elsewhere.json"),
            round_timeout_seconds=99.0,
        )
        assert config_hash(a) == config_hash(b)
        c = make_cfg(tmp_path, rounds=7)
        assert config_hash(a) != config_hash(c)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        params = ParameterVector([0.25, -1.5, 3.0])
        save_checkpoint(path, 7, params, "h" * 64)
        got, next_round = resume_from_checkpoint(path, "h" * 64)
        assert got == params
        assert next_round == 8  # resume re-broadcasts round 8's task

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            resume_from_checkpoint(str(tmp_path / "nope.json"))

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, 2, ParameterVector([1.0]), "h")
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            resume_from_checkpoint(path)

    def test_config_hash_mismatch(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, 2, ParameterVector([1.0]), "aaa")
        with pytest.raises(CheckpointError, match="different experiment"):
            resume_from_checkpoint(path, "bbb")

    def test_non_finite_values_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        doc = {"format": "fedkit-checkpoint-v2", "round": 0, "global": [1.0, None],
               "config_hash": "x"}
        write_checkpoint_document(path, doc)
        with pytest.raises(CheckpointError, match="non-finite"):
            resume_from_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("config_hash", 5, "invalid config hash"),
        ("global", ["a"], "invalid parameters"),
        ("global", {"a": 1}, "invalid parameters"),
        ("global", [10**400], "invalid parameters"),
        ("round", True, "invalid round"),
    ])
    def test_malformed_document_rejected(self, tmp_path, key, value, message):
        path = str(tmp_path / "c.json")
        doc = {"format": "fedkit-checkpoint-v2", "round": 0, "global": [1.0],
               "config_hash": "x"}
        write_checkpoint_document(path, doc)
        assert resume_from_checkpoint(path) == (ParameterVector([1.0]), 1)
        write_checkpoint_document(path, dict(doc, **{key: value}))
        with pytest.raises(CheckpointError, match=message):
            resume_from_checkpoint(path)

    def test_v1_file_refused_naming_both_formats(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "fedkit-checkpoint-v1", "round": 0,
                                    "global": [1.0], "config_hash": "x"}))
        with pytest.raises(CheckpointError, match="v1.*fedkit-checkpoint-v2"):
            resume_from_checkpoint(str(path))

    def test_torn_write_resumes_the_previous_round(self, tmp_path):
        path = str(tmp_path / "c.json")
        models = [ParameterVector([0.5 * r, -1.0, r + 0.25]) for r in range(4)]
        for r in range(3):
            save_checkpoint(path, r, models[r], "h")
        before = Path(path).read_bytes()
        slot = len(before) // 2
        # Round 3's record, exactly as save_checkpoint writes it over slot 1.
        save_checkpoint(path, 3, models[3], "h")
        header = checkpoint._FIELDS.unpack_from(Path(path).read_bytes(), slot)
        record = Path(path).read_bytes()[slot:slot + checkpoint._HEADER_SIZE + header[2] + 1]
        for written in range(len(record) + 1):
            Path(path).write_bytes(before)
            with open(path, "r+b") as fh:
                fh.seek(slot)
                fh.write(record[:written])
            expected = (models[3], 4) if written == len(record) else (models[2], 3)
            assert resume_from_checkpoint(path, "h") == expected, written

    def test_both_slots_corrupt(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, 0, ParameterVector([1.0]), "h")
        save_checkpoint(path, 1, ParameterVector([2.0]), "h")
        blob = bytearray(Path(path).read_bytes())
        for offset in (0, len(blob) // 2):
            blob[offset + checkpoint._HEADER_SIZE + 3] ^= 0xFF  # a payload byte
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            resume_from_checkpoint(path)

    def test_steady_state_saves_overwrite_in_place(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(str(path), 0, ParameterVector([0.0]), "h")
        # Holding the file open keeps its inode number from being reused.
        with open(path, "rb") as held:
            for r in range(1, 4):
                save_checkpoint(str(path), r, ParameterVector([float(r)]), "h")
                assert os.stat(path).st_ino == os.fstat(held.fileno()).st_ino, r
                assert os.fstat(held.fileno()).st_nlink == 1, r
                assert os.listdir(tmp_path) == ["c.json"], r
        assert resume_from_checkpoint(str(path), "h") == (ParameterVector([3.0]), 4)

    def test_first_save_replaces_an_earlier_runs_file(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(str(path), 7, ParameterVector([7.0]), "h")
        save_checkpoint(str(path), 8, ParameterVector([8.0]), "h")
        with open(path, "rb") as held:
            save_checkpoint(str(path), 0, ParameterVector([0.5]), "h")
            assert os.fstat(held.fileno()).st_nlink == 0
        assert os.listdir(tmp_path) == ["c.json"]
        assert resume_from_checkpoint(str(path), "h") == (ParameterVector([0.5]), 1)

    def test_in_place_save_falls_back_to_fsync(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, 0, ParameterVector([1.0]), "h")
        synced = []
        real_fsync = os.fsync
        monkeypatch.delattr(os, "fdatasync", raising=False)
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        save_checkpoint(path, 1, ParameterVector([2.0]), "h")
        assert len(synced) == 1
        assert resume_from_checkpoint(path, "h") == (ParameterVector([2.0]), 2)


class TestCoordinator:
    def join_all(self, coord, sites=("a", "b", "c"), at=0.0):
        cmds = []
        for s in sites:
            cmds += coord.on_join(s, at)
        return cmds

    def test_round_opens_when_all_expected_join(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path))
        cmds = coord.on_join("a", 0.0)
        assert not sends_of(cmds, "task_assignment")
        cmds = coord.on_join("b", 0.0)
        assert not sends_of(cmds, "task_assignment")
        cmds = coord.on_join("c", 0.0)
        tasks = sends_of(cmds, "task_assignment")
        assert [t.client_id for t in tasks] == ["a", "b", "c"]
        assert all(t.round == 0 for t in tasks)

    def test_unknown_site_rejected(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path))
        cmds = coord.on_join("intruder", 0.0)
        acks = sends_of(cmds, "join_ack")
        assert len(acks) == 1 and acks[0].body.accepted is False

    def test_round_completion_checkpoints_then_broadcasts_next(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path), aggregation_cost=0.5)
        self.join_all(coord)
        coord.on_update("a", update_for("a", 0, (1.0, 1.0)), 1.0)
        coord.on_update("b", update_for("b", 0, (2.0, 2.0)), 2.0)
        cmds = coord.on_update("c", update_for("c", 0, (3.0, 3.0)), 3.0)
        kinds = [type(c) for c in cmds]
        assert kinds.index(SaveCheckpoint) < kinds.index(Message)
        tasks = sends_of(cmds, "task_assignment")
        assert all(t.round == 1 for t in tasks)
        assert coord.global_params == ParameterVector([2.0, 2.0])
        record = coord.records[0]
        assert record.per_client["a"].waiting_seconds == 2.0
        assert record.per_client["c"].waiting_seconds == 0.0
        assert record.aggregation_seconds == 0.5

    def test_stale_round_update_never_aggregated(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path))
        self.join_all(coord)
        poison = update_for("a", 2, (999.0, 999.0))
        assert coord.on_update("a", poison, 0.5) == []
        assert coord.stale_updates == 1
        coord.on_update("a", update_for("a", 0, (1.0, 1.0)), 1.0)
        coord.on_update("b", update_for("b", 0, (1.0, 1.0)), 1.0)
        coord.on_update("c", update_for("c", 0, (1.0, 1.0)), 1.0)
        assert coord.global_params == ParameterVector([1.0, 1.0])

    def test_duplicate_update_ignored(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path))
        self.join_all(coord)
        coord.on_update("a", update_for("a", 0, (0.0, 0.0)), 1.0)
        assert coord.on_update("a", update_for("a", 0, (100.0, 100.0)), 1.5) == []
        coord.on_update("b", update_for("b", 0, (3.0, 3.0)), 2.0)
        coord.on_update("c", update_for("c", 0, (3.0, 3.0)), 2.0)
        assert coord.global_params == ParameterVector([2.0, 2.0])

    def test_wait_policy_rejoiner_gets_current_task(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path, on_client_loss="wait"))
        self.join_all(coord)
        coord.on_update("a", update_for("a", 0), 1.0)
        assert coord.on_client_lost("b", 1.5) == []  # wait: round blocks
        cmds = coord.on_join("b", 5.0)
        tasks = sends_of(cmds, "task_assignment")
        assert len(tasks) == 1 and tasks[0].round == 0

    def test_continue_without_drops_and_renormalizes(self, tmp_path):
        cfg = make_cfg(tmp_path, on_client_loss="continue_without", min_clients_per_round=2)
        coord = FederationCoordinator(cfg)
        self.join_all(coord)
        coord.on_update("a", update_for("a", 0, (1.0, 1.0), n=4), 1.0)
        coord.on_update("b", update_for("b", 0, (3.0, 3.0), n=4), 2.0)
        cmds = coord.on_client_lost("c", 2.5)
        # dropping c completes the round over a and b only
        assert any(isinstance(c, SaveCheckpoint) for c in cmds)
        assert coord.global_params == ParameterVector([2.0, 2.0])
        assert coord.records[0].per_client["c"].submitted is False

    def test_continue_without_aborts_below_quorum(self, tmp_path):
        cfg = make_cfg(tmp_path, sites=("a", "b"), on_client_loss="continue_without",
                       min_clients_per_round=2)
        coord = FederationCoordinator(cfg)
        self.join_all(coord, sites=("a", "b"))
        cmds = coord.on_client_lost("b", 1.0)
        assert coord.status == "aborted"
        aborts = sends_of(cmds, "abort")
        assert [a.client_id for a in aborts] == ["a"]

    def test_continue_without_loss_after_submitting_keeps_quorum(self, tmp_path):
        cfg = make_cfg(tmp_path, sites=("a", "b"), on_client_loss="continue_without",
                       min_clients_per_round=2)
        coord = FederationCoordinator(cfg)
        self.join_all(coord, sites=("a", "b"))
        coord.on_update("a", update_for("a", 0, (1.0, 1.0)), 1.0)
        assert coord.on_client_lost("a", 1.5) == []
        assert coord.status is None
        cmds = coord.on_update("b", update_for("b", 0, (3.0, 3.0)), 2.0)
        assert any(isinstance(c, SaveCheckpoint) for c in cmds)
        assert coord.global_params == ParameterVector([2.0, 2.0])
        assert coord.records[0].per_client["a"].submitted is True

    def test_timeout_under_wait_aborts(self, tmp_path):
        cfg = make_cfg(tmp_path, round_timeout_seconds=10.0)
        coord = FederationCoordinator(cfg)
        cmds = self.join_all(coord)
        assert any(isinstance(c, StartTimer) for c in cmds)
        coord.on_update("a", update_for("a", 0), 1.0)
        coord.on_timeout(0, 11.0)
        assert coord.status == "aborted"

    def test_timeout_under_continue_drops_stragglers(self, tmp_path):
        cfg = make_cfg(tmp_path, on_client_loss="continue_without", min_clients_per_round=1,
                       round_timeout_seconds=10.0)
        coord = FederationCoordinator(cfg)
        self.join_all(coord)
        coord.on_update("a", update_for("a", 0, (4.0, 4.0)), 1.0)
        cmds = coord.on_timeout(0, 11.0)
        assert any(isinstance(c, SaveCheckpoint) for c in cmds)
        assert coord.global_params == ParameterVector([4.0, 4.0])
        assert coord.records[0].per_client["b"].submitted is False

    def test_stale_timer_ignored(self, tmp_path):
        cfg = make_cfg(tmp_path, round_timeout_seconds=10.0)
        coord = FederationCoordinator(cfg)
        self.join_all(coord)
        for s in ("a", "b", "c"):
            coord.on_update(s, update_for(s, 0), 1.0)
        assert coord.on_timeout(0, 12.0) == []  # round 0 already closed

    def test_completion_sends_done_and_finished(self, tmp_path):
        coord = FederationCoordinator(make_cfg(tmp_path, rounds=1))
        self.join_all(coord)
        for s in ("a", "b"):
            coord.on_update(s, update_for(s, 0), 1.0)
        cmds = coord.on_update("c", update_for("c", 0), 1.0)
        assert sends_of(cmds, "experiment_done")
        assert coord.status == "completed" and coord.state is None

    def with_late_site(self, cfg):
        sites = (SiteSpec("a"), SiteSpec("b"), SiteSpec("late", expected=False))
        return dataclasses.replace(cfg, sites=sites)

    def test_phase_through_completion_then_late_join_gets_done(self, tmp_path):
        cfg = self.with_late_site(make_cfg(tmp_path, rounds=1))
        coord = FederationCoordinator(cfg, aggregation_cost=0.5)
        coord.on_join("a", 0.0)
        assert coord.status is None and coord.state is None
        coord.on_join("b", 0.0)
        assert coord.status is None and coord.state is not None
        coord.on_update("a", update_for("a", 0), 1.0)
        assert coord.status is None and coord.state is not None
        cmds = coord.on_update("b", update_for("b", 0), 2.0)
        assert coord.status == "completed" and coord.state is None
        assert [d.client_id for d in sends_of(cmds, "experiment_done")] == ["a", "b"]
        sends = sends_of(coord.on_join("late", 3.0))
        assert [s.kind for s in sends] == ["join_ack", "experiment_done"]
        assert sends[0].body.accepted is True
        assert sends[1].client_id == "late" and sends[1].round == 1
        assert coord.status == "completed" and coord.state is None

    def test_phase_through_abort_then_late_join_gets_abort(self, tmp_path):
        cfg = self.with_late_site(make_cfg(
            tmp_path, rounds=2, on_client_loss="continue_without", min_clients_per_round=2))
        coord = FederationCoordinator(cfg)
        assert coord.status is None and coord.state is None
        self.join_all(coord, sites=("a", "b"))
        assert coord.status is None and coord.state is not None
        cmds = coord.on_client_lost("b", 1.0)
        assert coord.status == "aborted" and coord.state is None
        assert [a.client_id for a in sends_of(cmds, "abort")] == ["a"]
        sends = sends_of(coord.on_join("late", 2.0))
        assert [s.kind for s in sends] == ["join_ack", "abort"]
        assert sends[1].body.reason == coord.abort_reason
        assert "below quorum" in coord.abort_reason
        assert coord.status == "aborted" and coord.state is None

    def test_late_joiner_admitted_next_round(self, tmp_path):
        cfg = make_cfg(tmp_path, sites=("a", "b", "late"), rounds=2)
        cfg = FederationConfig(
            sites=(SiteSpec("a"), SiteSpec("b"), SiteSpec("late", expected=False)),
            rounds=2,
            algorithm=cfg.algorithm,
            trainer=cfg.trainer,
            heterogeneity=cfg.heterogeneity,
            checkpoint_path=cfg.checkpoint_path,
        )
        coord = FederationCoordinator(cfg)
        self.join_all(coord, sites=("a", "b"))
        # late site joins mid-round: no task until the next boundary
        cmds = coord.on_join("late", 0.5)
        assert not sends_of(cmds, "task_assignment")
        coord.on_update("a", update_for("a", 0), 1.0)
        cmds = coord.on_update("b", update_for("b", 0), 1.0)
        tasks = sends_of(cmds, "task_assignment")
        assert {t.client_id for t in tasks} == {"a", "b", "late"}
        assert all(t.round == 1 for t in tasks)

    def test_round_never_opens_below_quorum(self, tmp_path):
        # an optional site that never joins cannot count toward the quorum
        cfg = FederationConfig(
            sites=(SiteSpec("a"), SiteSpec("b"), SiteSpec("c", expected=False)),
            rounds=2,
            algorithm=AlgorithmConfig(),
            trainer=TrainerConfig(seed=5),
            heterogeneity=HeterogeneityConfig(base_optimum=[1.0, -1.0], samples_per_site=8),
            checkpoint_path=str(tmp_path / "q.json"),
            on_client_loss="continue_without",
            min_clients_per_round=3,
        )
        coord = FederationCoordinator(cfg)
        coord.on_join("a", 0.0)
        coord.on_join("b", 0.0)
        assert coord.status == "aborted"
        assert "quorum" in coord.abort_reason

    def test_resumed_coordinator_rebroadcasts_checkpoint_round(self, tmp_path):
        cfg = make_cfg(tmp_path, rounds=5)
        coord = FederationCoordinator(
            cfg, start_round=3, start_global=ParameterVector([7.0, 7.0])
        )
        cmds = self.join_all(coord)
        tasks = sends_of(cmds, "task_assignment")
        assert all(t.round == 3 for t in tasks)
        assert all(np.array_equal(t.body.params.values, [7.0, 7.0]) for t in tasks)


class TestEvaluateSites:
    def test_scores_every_site_deterministically(self, tmp_path):
        cfg = make_cfg(tmp_path)
        params = ParameterVector([0.5, -0.5])
        scores = evaluate_sites(cfg, params)
        assert set(scores) == {"a", "b", "c"}
        again = evaluate_sites(cfg, params)
        assert scores == again
