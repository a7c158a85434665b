"""Exit-code and output contracts of every subcommand."""
import json
import socket
import threading
from pathlib import Path


from fedkit.cli import main
from fedkit.metrics import report_from_dict, report_to_dict

SITES = ("basel", "freiburg", "strasbourg")


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

    def test_startup_timeout_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(
            ["server", "--config", path, "--listen", "127.0.0.1:0",
             "--startup-timeout", "0.4"]
        )
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
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "rounds.csv").exists()

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

    def test_written_report_loads_back(self, tmp_path):
        faults = [{"at_round": 1, "target": "basel", "kind": "disconnect", "downtime_seconds": 5.0}]
        path = self.write_scenario(tmp_path, "rt", {"basel": 2.0}, rounds=3, faults=faults)
        self.edit_scenario(
            path, {"local_baseline": True}, algorithm={"kind": "ditto", "ditto_lambda": 0.5}
        )
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "rt" / "report.json").read_text())
        extras = {"diagnosis", "reconnects", "virtual_seconds", "local_cross", "personal_models"}
        assert extras <= set(doc)
        again = report_to_dict(report_from_dict(doc))
        assert again == {key: value for key, value in doc.items() if key not in extras}


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
        assert "must be an object, got list" in captured.err
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
        assert "totals" not in json.loads(Path(directory, "report.json").read_text())
        capsys.readouterr()
        assert main(["report", "--in", directory]) == 0
        out = capsys.readouterr().out
        assert f"{directory}: status hung" in out
        assert "finding:" in out
        assert " hr" not in out
