"""Exit-code and output contracts of every subcommand."""
import copy
import hashlib
import json
import math
import socket
import threading
from pathlib import Path

import pytest

from fedkit import ParameterVector, checkpoint, server
from fedkit.cli import main
from fedkit.config import load_config
from fedkit.metrics import load_report
from fedkit.params import to_json
from fedkit.server import config_hash

SITES = ("basel", "freiburg", "strasbourg")


def loads_whole(path):
    """The written report.json document, after checking that load_report
    parses all of it and that to_json of the result gives it back."""
    doc = json.loads(Path(path).read_text())
    assert to_json(load_report(str(path))) == doc
    return doc


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "sites": [{"name": s} for s in SITES],
        "rounds": 2,
        "trainer": {"lr": 0.1, "local_steps": 1, "seed": 6},
        "heterogeneity": {
            "base_optimum": [1.0, -1.0, 0.5],
            "shift_scale": 0.3,
            "noise_std": 0.2,
            "samples_per_site": 10,
        },
        "checkpoint_path": str(tmp_path / "ckpt.json"),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestServerCommand:
    def test_malformed_config_exits_2_naming_key(self, tmp_path, capsys):
        path = write_config(tmp_path, frobnicate=True)
        assert main(["server", "--config", path, "--listen", "127.0.0.1:0"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_wrong_value_type_exits_2_not_a_traceback(self, tmp_path, capsys):
        path = write_config(tmp_path, round_timeout_seconds="10")
        assert main(["server", "--config", path, "--listen", "127.0.0.1:0"]) == 2
        assert "invalid value" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["server", "--config", path, "--listen", "127.0.0.1:0", "--resume"])
        assert code == 3
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_resume_of_a_finished_run_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path)
        cfg = load_config(path).federation
        checkpoint.save_checkpoint(cfg.checkpoint_path, cfg.rounds - 1, ParameterVector.zeros(3),
                                   config_hash(cfg))
        code = main(["server", "--config", path, "--listen", "127.0.0.1:0", "--resume"])
        assert code == 3
        assert "holds the last round 1" in capsys.readouterr().err

    def test_resume_from_malformed_checkpoint_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path)
        doc = {"format": "fedkit-checkpoint-v2", "round": 0, "global": [10**400],
               "config_hash": config_hash(load_config(path).federation)}
        record = checkpoint._record(0, json.dumps(doc).encode(), doc["config_hash"])
        checkpoint._write_fresh(str(tmp_path / "ckpt.json"), record, 4096, 0)
        code = main(["server", "--config", path, "--listen", "127.0.0.1:0", "--resume"])
        assert code == 3
        assert "invalid parameters" in capsys.readouterr().err

    def test_startup_timeout_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(server, "STARTUP_TIMEOUT_SECONDS", 0.4)
        path = write_config(tmp_path)
        code = main(["server", "--config", path, "--listen", "127.0.0.1:0"])
        assert code == 3

    def test_full_lifecycle_exit_0_with_report_written(self, tmp_path, capsys):
        port = free_port()
        path = write_config(tmp_path)
        listen = f"127.0.0.1:{port}"
        clients = [
            threading.Thread(
                target=main,
                args=(["client", "--config", path, "--site", s, "--server", listen],),
                daemon=True,
            )
            for s in SITES
        ]
        for t in clients:
            t.start()
        assert main(["server", "--config", path, "--listen", listen]) == 0
        for t in clients:
            t.join(20.0)
            assert not t.is_alive()
        out = capsys.readouterr().out
        assert "global mean" in out
        doc = loads_whole(tmp_path / "report.json")
        assert (tmp_path / "rounds.csv").exists()
        simulator_only = ("diagnosis", "reconnects", "virtual_seconds", "local_cross",
                          "personal_models")
        assert all(doc[key] is None for key in simulator_only)

    def test_listen_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDKIT_LISTEN", "not-an-address")
        path = write_config(tmp_path)
        assert main(["server", "--config", path, "--listen", "127.0.0.1:0"]) == 2


class TestClientCommand:
    def test_unknown_site_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["client", "--config", path, "--site", "nowhere",
                     "--server", "127.0.0.1:1"])
        assert code == 2
        assert "nowhere" in capsys.readouterr().err

    def test_malformed_server_host_exits_2_naming_it(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["client", "--config", path, "--site", "basel", "--server", "a..b:7315"])
        assert code == 2
        assert "server_address: host 'a..b'" in capsys.readouterr().err


class TestAbortedExperiment:
    def test_round_timeout_aborts_server_and_clients_with_exit_1(self, tmp_path, capsys):
        # One real client plus one site that joins but never submits; the
        # round timeout under the wait policy aborts the whole experiment.
        from fedkit import Message, encode

        port = free_port()
        listen = f"127.0.0.1:{port}"
        path = write_config(
            tmp_path,
            sites=[{"name": "basel"}, {"name": "silent"}],
            round_timeout_seconds=1.0,
        )
        client_result = {}
        client = threading.Thread(
            target=lambda: client_result.update(
                code=main(["client", "--config", path, "--site", "basel",
                           "--server", listen])
            ),
            daemon=True,
        )
        client.start()

        def silent_site():
            import time

            for _ in range(100):
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=1.0)
                    break
                except OSError:
                    time.sleep(0.1)
            with sock:
                sock.sendall(encode(Message("join_request", 0, "silent")))
                time.sleep(5.0)

        silent = threading.Thread(target=silent_site, daemon=True)
        silent.start()
        assert main(["server", "--config", path, "--listen", listen]) == 1
        assert "timed out" in capsys.readouterr().err
        client.join(20.0)
        assert not client.is_alive()
        assert client_result["code"] == 1


class TestSimulateCommand:
    def write_scenario(self, tmp_path, name, multipliers, rounds=2, faults=()):
        doc = {
            "sites": [{"name": s} for s in SITES],
            "rounds": rounds,
            "trainer": {"lr": 0.1, "local_steps": 1, "seed": 6},
            "heterogeneity": {
                "base_optimum": [1.0, -1.0, 0.5],
                "shift_scale": 0.3,
                "noise_std": 0.2,
                "samples_per_site": 10,
            },
            "simulator": {
                "site_multipliers": multipliers,
                "base_round_cost_seconds": 10.0,
                "faults": list(faults),
            },
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2))
        return str(path)

    def test_three_scenario_sweep_makes_three_directories(self, tmp_path, capsys):
        rows = {
            "all_cpu": {"basel": 58.0, "freiburg": 34.0, "strasbourg": 48.0},
            "one_gpu": {"basel": 41.0, "freiburg": 34.0, "strasbourg": 48.0},
            "all_gpu": {"basel": 41.0, "freiburg": 27.0, "strasbourg": 27.0},
        }
        args = ["simulate", "--out", str(tmp_path / "out")]
        for name, mults in rows.items():
            args += ["--scenario", self.write_scenario(tmp_path, name, mults)]
        assert main(args) == 0
        for name in rows:
            assert (tmp_path / "out" / name / "report.json").exists()
            assert (tmp_path / "out" / name / "rounds.csv").exists()
            assert (tmp_path / "out" / name / "summary.txt").exists()

    def test_same_invocation_identical_bytes(self, tmp_path):
        scenario = self.write_scenario(tmp_path, "det", {"basel": 2.0})
        args = ["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")]
        assert main(args) == 0
        first = (tmp_path / "out" / "det" / "report.json").read_bytes()
        first_csv = (tmp_path / "out" / "det" / "rounds.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "out" / "det" / "report.json").read_bytes() == first
        assert (tmp_path / "out" / "det" / "rounds.csv").read_bytes() == first_csv

    def test_hung_scenario_exits_0_with_diagnosis(self, tmp_path, capsys):
        scenario = self.write_scenario(
            tmp_path,
            "hung",
            {},
            rounds=3,
            faults=[{"at_round": 1, "target": "basel", "kind": "crash",
                     "downtime_seconds": 1e18}],
        )
        args = ["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")]
        assert main(args) == 0
        summary = (tmp_path / "out" / "hung" / "summary.txt").read_text()
        assert "finding" in summary
        assert "waiting on" in summary

    def test_scenarios_sharing_a_stem_exit_2_before_any_run(self, tmp_path, capsys):
        # Both would write OUT/x; the second run would silently replace the first.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = self.write_scenario(tmp_path / "a", "x", {}, rounds=2)
        second = self.write_scenario(tmp_path / "b", "x", {}, rounds=5)
        out = tmp_path / "out"
        args = ["simulate", "--scenario", first, "--scenario", second, "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert first in err and second in err
        assert not out.exists()

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sites": [], "rounds": 1}))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2

    def edit_scenario(self, path, simulator, **top):
        with open(path) as fh:
            doc = json.load(fh)
        doc.update(top)
        doc["simulator"].update(simulator)
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def test_infinite_aggregation_cost_exits_2_naming_key(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, "inf_cost", {})
        self.edit_scenario(path, {"aggregation_cost_seconds": float("inf")})
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
        assert "aggregation_cost_seconds" in capsys.readouterr().err

    def write_table(self, tmp_path):
        """One run of each outcome, in one invocation: a completed fedavg
        run; ditto with the local baseline whose basel crashes for good in
        the last round, so its personal model is null; an aborted run; and
        a run hung with no rounds. Returns the report directory."""
        forever = float("inf")
        ditto = self.write_scenario(
            tmp_path, "ditto_crash", {"basel": 2.0}, rounds=3,
            faults=[{"at_round": 2, "target": "basel", "downtime_seconds": forever}],
        )
        self.edit_scenario(
            ditto, {"local_baseline": True}, algorithm={"kind": "ditto", "ditto_lambda": 0.5},
            on_client_loss="continue_without", min_clients_per_round=2,
        )
        aborted = self.write_scenario(
            tmp_path, "aborted", {}, rounds=3,
            faults=[{"at_round": 1, "target": "freiburg", "downtime_seconds": forever}],
        )
        self.edit_scenario(aborted, {}, on_client_loss="continue_without",
                           min_clients_per_round=3)
        hung = self.write_scenario(
            tmp_path, "hung", {},
            faults=[{"at_round": 0, "target": "server", "downtime_seconds": forever}],
        )
        args = ["simulate", "--out", str(tmp_path / "out")]
        for path in (self.write_scenario(tmp_path, "fedavg", {"basel": 2.0}), ditto, aborted, hung):
            args += ["--scenario", path]
        assert main(args) == 0
        return tmp_path / "out"

    def test_written_report_loads_back(self, tmp_path):
        out = self.write_table(tmp_path)
        docs = {name: loads_whole(out / name / "report.json")
                for name in ("fedavg", "ditto_crash", "aborted", "hung")}
        assert docs["fedavg"]["status"] == "completed"
        assert docs["fedavg"]["personal_models"] is None
        assert docs["ditto_crash"]["status"] == "completed"
        assert docs["ditto_crash"]["personal_models"]["basel"] is None
        assert docs["ditto_crash"]["local_cross"] is not None
        assert docs["aborted"]["status"] == "aborted"
        hung = docs["hung"]
        assert (hung["status"], hung["rounds"], hung["final_scores"]) == ("hung", [], {})
        assert hung["totals"] == {"train": 0.0, "validate": 0.0, "aggregate": 0.0}
        assert hung["global_mean"] is None and hung["final_global"] is None

    def test_output_bytes_are_pinned(self, tmp_path, monkeypatch):
        # Relative paths keep the checkpoint path in the config echo fixed.
        monkeypatch.chdir(tmp_path)
        faults = [{"at_round": 1, "target": "basel", "kind": "disconnect", "downtime_seconds": 5.0}]
        ditto = self.write_scenario(tmp_path, "ditto", {"basel": 2.0}, rounds=3, faults=faults)
        self.edit_scenario(
            ditto, {"local_baseline": True}, algorithm={"kind": "ditto", "ditto_lambda": 0.5}
        )
        fedavg = self.write_scenario(tmp_path, "fedavg", {"basel": 2.0}, rounds=3)
        assert main(["simulate", "--scenario", ditto, "--scenario", fedavg, "--out", "out"]) == 0
        digests = {
            f"{name}/{file}": hashlib.sha256(Path("out", name, file).read_bytes()).hexdigest()
            for name, files in (("ditto", ("report.json", "rounds.csv", "summary.txt")),
                                ("fedavg", ("rounds.csv", "summary.txt")))
            for file in files
        }
        rounds_csv = "0d5918412b6f48393f87c55edaeeec9d30d56ebb4145ed70a44e4e691136655b"
        assert digests == {
            "ditto/report.json": "7f3a8bc3ba656dc22466e78b400795b2aabe0ce31ed7f2d497cf4666d081efaf",
            "ditto/rounds.csv": rounds_csv,
            "ditto/summary.txt": "614f14df8979f2c9939a3e42fb20cbc0220a57e0dae451d0f5c07fb9c8d52947",
            "fedavg/rounds.csv": rounds_csv,
            "fedavg/summary.txt": "9698f8f6319e1c7fb6145cf2ae7b4077ab95ec7d32f24a402629b82ff8a66c75",
        }


def key_paths(node, keys=(), name=""):
    """(keys to reach it, its key path as a report error names it) of every
    key in a report document, the config echo's included; an array element's
    path adds its index."""
    if isinstance(node, list):
        for index, item in enumerate(node):
            yield from key_paths(item, keys + (index,), f"{name}[{index}]")
    elif isinstance(node, dict):
        for key, item in node.items():
            path = f"{name}.{key}" if name else key
            yield keys + (key,), path
            yield from key_paths(item, keys + (key,), path)


class TestReportCommand:
    def simulate_fitted(self, tmp_path, name, total_hours):
        doc = {
            "sites": [{"name": "basel"}],
            "rounds": 1,
            "trainer": {"lr": 0.1, "local_steps": 1, "seed": 6},
            "heterogeneity": {"base_optimum": [1.0], "samples_per_site": 4},
            "simulator": {
                "site_multipliers": {"basel": total_hours * 3600.0},
                "base_round_cost_seconds": 1.0,
            },
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        return str(tmp_path / "out" / name)

    def test_two_reports_print_speedup(self, tmp_path, capsys):
        slow = self.simulate_fitted(tmp_path, "slow", 64.18)
        fast = self.simulate_fitted(tmp_path, "fast", 43.55)
        capsys.readouterr()
        assert main(["report", "--in", slow, "--in", fast]) == 0
        out = capsys.readouterr().out
        assert "32.14%" in out
        assert "64.18 hr" in out and "43.55 hr" in out

    def test_aborted_baseline_is_not_comparable(self, tmp_path, capsys):
        # freiburg crashes for good in round 0, so the quorum of 2 is lost.
        doc = {
            "sites": [{"name": "basel"}, {"name": "freiburg"}],
            "rounds": 1,
            "on_client_loss": "continue_without",
            "min_clients_per_round": 2,
            "heterogeneity": {"base_optimum": [1.0], "samples_per_site": 4},
            "simulator": {"faults": [{"at_round": 0, "target": "freiburg",
                                      "downtime_seconds": float("inf")}]},
        }
        (tmp_path / "lost.json").write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(tmp_path / "lost.json"),
                     "--out", str(tmp_path / "out")]) == 0
        aborted = str(tmp_path / "out" / "lost")
        fast = self.simulate_fitted(tmp_path, "fast", 1.0)
        capsys.readouterr()
        assert main(["report", "--in", aborted, "--in", fast]) == 0
        out = capsys.readouterr().out
        assert f"{aborted}: status aborted" in out
        assert f"{aborted} -> {fast}: not comparable (report is 'aborted', not completed)" in out

    def test_zero_total_baseline_is_not_comparable(self, tmp_path, capsys):
        zero = self.simulate_fitted(tmp_path, "zero", 1.0)
        fast = self.simulate_fitted(tmp_path, "fast", 1.0)
        report_path = Path(zero, "report.json")
        doc = json.loads(report_path.read_text())
        doc["totals"] = {"train": 0.0, "validate": 0.0, "aggregate": 0.0}
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in", zero, "--in", fast]) == 0
        out = capsys.readouterr().out
        assert f"{zero} -> {fast}: not comparable (baseline total must be positive, got 0.0)" in out

    def test_single_report_has_no_speedup_section(self, tmp_path, capsys):
        only = self.simulate_fitted(tmp_path, "only", 1.0)
        capsys.readouterr()
        assert main(["report", "--in", only]) == 0
        assert "speedup" not in capsys.readouterr().out

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path / "missing")]) == 2

    def test_report_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("[1, 2]")
        assert main(["report", "--in", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "must be an object, got array" in captured.err
        assert captured.out == ""

    def test_totals_missing_a_key_exits_2_naming_it(self, tmp_path, capsys):
        directory = self.simulate_fitted(tmp_path, "partial", 1.0)
        report_path = tmp_path / "out" / "partial" / "report.json"
        doc = json.loads(report_path.read_text())
        del doc["totals"]["validate"]
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 2
        captured = capsys.readouterr()
        assert "totals.validate: missing required key" in captured.err
        assert captured.out == ""

    def test_mismatched_sites_refuse_global_local_section(self, tmp_path, capsys):
        directory = self.simulate_fitted(tmp_path, "broken", 1.0)
        report_path = f"{directory}/report.json"
        doc = json.loads(Path(report_path).read_text())
        doc["local_cross"] = {"someone_else": {"basel": {"mean": 0.1, "std": 0, "metric": "mse_loss"}}}
        with open(report_path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 0
        out = capsys.readouterr().out
        assert "ReportError" in out

    def edit_report_exits_2(self, tmp_path, capsys, name, local_cross):
        directory = self.simulate_fitted(tmp_path, name, 1.0)
        report_path = Path(directory, "report.json")
        doc = json.loads(report_path.read_text())
        doc["local_cross"] = local_cross
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_local_cross_row_that_is_not_an_object_exits_2_naming_it(self, tmp_path, capsys):
        err = self.edit_report_exits_2(tmp_path, capsys, "row", {"basel": [0.1, 0.2]})
        assert "local_cross.basel: must be an object, got array" in err

    def test_local_cross_cell_missing_a_key_exits_2_naming_it(self, tmp_path, capsys):
        cell = {"std": 0.0, "metric": "mse_loss"}
        err = self.edit_report_exits_2(tmp_path, capsys, "cell", {"basel": {"basel": cell}})
        assert "local_cross.basel.basel.mean: missing required key" in err

    def test_local_cross_renders_table(self, tmp_path, capsys):
        doc = {
            "sites": [{"name": s} for s in SITES],
            "rounds": 2,
            "trainer": {"lr": 0.1, "local_steps": 1, "seed": 6},
            "heterogeneity": {
                "base_optimum": [1.0, -1.0],
                "shift_scale": 0.4,
                "noise_std": 0.3,
                "samples_per_site": 10,
            },
            "simulator": {"local_baseline": True},
        }
        path = tmp_path / "withlocal.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(tmp_path / "out" / "withlocal")]) == 0
        out = capsys.readouterr().out
        assert "global vs local" in out
        assert "trained\\validated" in out

    def test_report_without_rounds_prints_status_and_finding(self, tmp_path, capsys):
        doc = {
            "sites": [{"name": "basel"}],
            "rounds": 2,
            "trainer": {"lr": 0.1, "local_steps": 1, "seed": 6},
            "heterogeneity": {"base_optimum": [1.0], "samples_per_site": 4},
            "simulator": {
                "faults": [{"at_round": 0, "target": "server", "kind": "crash",
                            "downtime_seconds": float("inf")}],
            },
        }
        path = tmp_path / "down.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        directory = str(tmp_path / "out" / "down")
        doc = json.loads(Path(directory, "report.json").read_text())
        assert doc["totals"] == {"train": 0.0, "validate": 0.0, "aggregate": 0.0}
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 0
        out = capsys.readouterr().out
        assert f"{directory}: status hung | train 0.00 hr" in out
        assert "finding:" in out

    @pytest.mark.parametrize(
        "value, why",
        [
            (math.nan, "must be finite and >= 0, got nan"),
            (-5, "must be finite and >= 0, got -5"),
            (math.inf, "must be finite and >= 0, got inf"),
            # The codec's number check rejects it before the report's own.
            (10**400, "invalid value: int too large to convert to float"),
        ],
        ids=["nan", "negative", "inf", "beyond_float_range"],
    )
    def test_total_that_is_not_a_finite_non_negative_time_exits_2(
        self, tmp_path, capsys, value, why
    ):
        directory = self.simulate_fitted(tmp_path, "bad_total", 1.0)
        report_path = Path(directory, "report.json")
        doc = json.loads(report_path.read_text())
        doc["totals"]["train"] = value
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 2
        captured = capsys.readouterr()
        assert f"totals.train: {why}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "final_global, key, why",
        [
            ([0.5], "final_global", "expected object, got array"),
            ({"f64le": "AAAAAAAA8D8=", "dim": 1}, "final_global.dim", "unknown key"),
            ({"f64le": "AAAAAAAA8D8"}, "final_global.f64le", "not base64"),
            ({"f64le": "AAAAAA=="}, "final_global.f64le", "4 bytes is not a nonzero multiple"),
            ({"f64le": "AAAAAAAA8H8="}, "final_global.f64le", "non-finite"),
        ],
        ids=["number-array", "extra-key", "padding", "four-bytes", "infinite"],
    )
    def test_bad_final_global_exits_2_naming_it(self, tmp_path, capsys, final_global, key, why):
        directory = self.simulate_fitted(tmp_path, "bad_global", 1.0)
        report_path = Path(directory, "report.json")
        doc = json.loads(report_path.read_text())
        assert set(doc["final_global"]) == {"f64le"}
        doc["final_global"] = final_global
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 2
        captured = capsys.readouterr()
        assert f"report.json: {key}: " in captured.err and why in captured.err
        assert captured.out == ""

    def test_corrupting_any_key_exits_2_naming_it(self, tmp_path, capsys):
        # Every key of a report with every field set, the nested local_cross
        # and personal_models cells and the config echo included, in turn
        # takes a value of the wrong JSON type.
        report_path = TestSimulateCommand().write_table(tmp_path) / "ditto_crash" / "report.json"
        written = json.loads(report_path.read_text())
        paths = list(key_paths(written))
        assert {"local_cross.basel.freiburg.mean", "personal_models.basel",
                "rounds[2].per_client.basel.train_seconds", "config.rounds",
                "config.sites[1].name"} <= {p for _, p in paths}
        for keys, path in paths:
            doc = copy.deepcopy(written)
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = 5 if isinstance(parent[keys[-1]], str) else "?"
            report_path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["report", "--in", str(report_path.parent)]) == 2, path
            captured = capsys.readouterr()
            assert f"report.json: {path}: " in captured.err, (path, captured.err)
            assert captured.out == ""
