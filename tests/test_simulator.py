import math
from pathlib import Path

import pytest

import fedkit.simulator
from fedkit import (
    AlgorithmConfig,
    CheckpointError,
    ConfigError,
    FaultEvent,
    FederationConfig,
    HeterogeneityConfig,
    ReportError,
    SimScenario,
    SiteSpec,
    TrainerConfig,
    simulate,
    speedup,
)


def make_cfg(tmp_path, rounds=4, name="ckpt", **kw):
    return FederationConfig(
        sites=tuple(SiteSpec(s) for s in ("a", "b", "c")),
        rounds=rounds,
        algorithm=kw.pop("algorithm", AlgorithmConfig()),
        trainer=kw.pop("trainer", TrainerConfig(lr=0.1, local_steps=1, seed=2)),
        heterogeneity=kw.pop(
            "heterogeneity",
            HeterogeneityConfig(
                base_optimum=[1.0, -2.0, 0.5], shift_scale=0.3, noise_std=0.2, samples_per_site=12
            ),
        ),
        checkpoint_path=str(tmp_path / f"{name}.json"),
        **kw,
    )


def scenario(tmp_path, multipliers, base=10.0, agg=0.0, rounds=4, name="ckpt", faults=(), **kw):
    return SimScenario(
        federation=make_cfg(tmp_path, rounds=rounds, name=name, **kw),
        site_multipliers=multipliers,
        base_round_cost_seconds=base,
        aggregation_cost_seconds=agg,
        faults=faults,
    )


class TestScenarioValidation:
    def test_unknown_site_in_multipliers(self, tmp_path):
        with pytest.raises(ConfigError):
            scenario(tmp_path, {"zz": 1.0})

    def test_fault_past_last_round(self, tmp_path):
        with pytest.raises(ConfigError):
            scenario(tmp_path, {}, faults=(FaultEvent(at_round=9, target="server"),))

    def test_fault_unknown_target(self, tmp_path):
        with pytest.raises(ConfigError):
            scenario(tmp_path, {}, faults=(FaultEvent(at_round=0, target="zz"),))

    def test_missing_multipliers_default_to_one(self, tmp_path):
        s = scenario(tmp_path, {"a": 2.0})
        assert s.multiplier("b") == 1.0


class TestTiming:
    def test_homogeneous_clients_never_wait(self, tmp_path):
        report = simulate(scenario(tmp_path, {"a": 1.0, "b": 1.0, "c": 1.0}))
        for record in report.experiment.rounds:
            assert all(s.waiting_seconds == 0.0 for s in record.per_client.values())

    def test_max_minus_own_waiting(self, tmp_path):
        # two-site example: base 10, multipliers {a: 1, b: 2} -> a waits 10
        cfg = FederationConfig(
            sites=(SiteSpec("a"), SiteSpec("b")),
            rounds=2,
            algorithm=AlgorithmConfig(),
            trainer=TrainerConfig(seed=2),
            heterogeneity=HeterogeneityConfig(base_optimum=[1.0, 1.0], samples_per_site=6),
            checkpoint_path=str(tmp_path / "two.json"),
        )
        report = simulate(
            SimScenario(federation=cfg, site_multipliers={"a": 1.0, "b": 2.0},
                        base_round_cost_seconds=10.0)
        )
        record = report.experiment.rounds[0]
        assert record.per_client["a"].waiting_seconds == 10.0
        assert record.per_client["b"].waiting_seconds == 0.0

    def test_aggregation_delays_the_next_rounds_tasks(self, tmp_path):
        # Each round trains for 20 s (b's time) and each aggregation costs
        # 7 s. Round 0's tasks go out at join time, undelayed; rounds 1 and 2
        # open 7 s after the previous round aggregates. The run ends when
        # round 2 aggregates: 3 * 20 + 2 * 7 = 74 s.
        cfg = FederationConfig(
            sites=(SiteSpec("a"), SiteSpec("b")),
            rounds=3,
            algorithm=AlgorithmConfig(),
            trainer=TrainerConfig(seed=2),
            heterogeneity=HeterogeneityConfig(base_optimum=[1.0, 1.0], samples_per_site=6),
            checkpoint_path=str(tmp_path / "agg.json"),
        )
        report = simulate(
            SimScenario(federation=cfg, site_multipliers={"a": 1.0, "b": 2.0},
                        base_round_cost_seconds=10.0, aggregation_cost_seconds=7.0)
        )
        assert report.status == "completed"
        assert report.virtual_seconds == 74.0
        assert report.experiment.totals.aggregate == 21.0

    def test_train_seconds_are_base_times_multiplier(self, tmp_path):
        # the paper's round-time ratios 4.08 : 5.47 : 1.54 under a shared base
        mults = {"a": 4.08, "b": 5.47, "c": 1.54}
        report = simulate(scenario(tmp_path, mults, base=60.0, rounds=2))
        for record in report.experiment.rounds:
            assert {s: c.train_seconds for s, c in record.per_client.items()} == {
                site: 60.0 * m for site, m in mults.items()
            }

    def test_waiting_plus_own_constant_within_round(self, tmp_path):
        # integer-valued times make the arithmetic exact
        report = simulate(scenario(tmp_path, {"a": 58.0, "b": 34.0, "c": 48.0}, base=1.0, agg=1.0))
        for record in report.experiment.rounds:
            sums = {s.train_seconds + s.waiting_seconds for s in record.per_client.values()}
            assert len(sums) == 1

    def test_total_monotone_in_single_site_multiplier(self, tmp_path):
        totals = []
        for m in (4.0, 3.0, 2.0, 1.0):
            report = simulate(scenario(tmp_path, {"a": m, "b": 1.5, "c": 1.0}, name=f"m{m}"))
            totals.append(report.experiment.totals.total)
        assert all(earlier >= later for earlier, later in zip(totals, totals[1:]))

    def test_hardware_row_ordering(self, tmp_path):
        # per-site slow/fast encodings of the three hardware rows: totals
        # must order all-slow > one-fast > all-fast
        rows = {
            "all_cpu": {"a": 58.0, "b": 34.0, "c": 48.0},
            "one_gpu": {"a": 41.0, "b": 34.0, "c": 48.0},
            "all_gpu": {"a": 41.0, "b": 27.0, "c": 27.0},
        }
        totals = {
            name: simulate(scenario(tmp_path, mults, base=1.0, name=name)).experiment.totals.total
            for name, mults in rows.items()
        }
        assert totals["all_cpu"] > totals["one_gpu"] > totals["all_gpu"]


class TestSpeedup:
    def test_paper_totals(self, tmp_path):
        # 64.18 hr baseline vs 43.55 hr improved: 32.14% improvement
        a = simulate(scenario(tmp_path, {"a": 64.18 * 3600}, base=1.0, rounds=1, name="sa"))
        b = simulate(scenario(tmp_path, {"a": 43.55 * 3600}, base=1.0, rounds=1, name="sb"))
        assert round(speedup(a, b), 2) == 32.14

    def test_second_experiment_value(self, tmp_path):
        # same formula applied to the 50.33 hr row gives 21.58%
        a = simulate(scenario(tmp_path, {"a": 64.18 * 3600}, base=1.0, rounds=1, name="sc"))
        b = simulate(scenario(tmp_path, {"a": 50.33 * 3600}, base=1.0, rounds=1, name="sd"))
        assert round(speedup(a, b), 2) == 21.58

    def test_identical_reports_zero(self, tmp_path):
        a = simulate(scenario(tmp_path, {"a": 2.0}, name="se"))
        assert speedup(a, a) == 0.0

    def test_incomplete_report_rejected(self, tmp_path):
        hung = simulate(
            scenario(
                tmp_path,
                {},
                name="sf",
                faults=(FaultEvent(at_round=1, target="c", kind="crash",
                                   downtime_seconds=math.inf),),
            )
        )
        ok = simulate(scenario(tmp_path, {}, name="sg"))
        assert hung.status == "hung"
        with pytest.raises(ReportError):
            speedup(ok, hung)


class TestFaultTolerance:
    def test_server_crash_between_rounds_is_transparent(self, tmp_path):
        plain = simulate(scenario(tmp_path, {"a": 1.0, "b": 2.0, "c": 3.0}, rounds=6, name="p"))
        crashed = simulate(
            scenario(
                tmp_path,
                {"a": 1.0, "b": 2.0, "c": 3.0},
                rounds=6,
                name="q",
                faults=(FaultEvent(at_round=3, target="server", kind="crash",
                                   downtime_seconds=25.0),),
            )
        )
        assert crashed.status == "completed"
        assert crashed.reconnects >= 3
        assert crashed.final_global == plain.final_global

    def test_unreadable_checkpoint_on_restart_raises(self, tmp_path, monkeypatch):
        real_save = fedkit.simulator.save_checkpoint

        def save_then_corrupt(path, *args):
            real_save(path, *args)
            Path(path).write_text("{")

        monkeypatch.setattr(fedkit.simulator, "save_checkpoint", save_then_corrupt)
        crash = FaultEvent(at_round=2, target="server", kind="crash", downtime_seconds=10.0)
        with pytest.raises(CheckpointError):
            simulate(scenario(tmp_path, {}, name="corrupt", faults=(crash,)))

    def test_client_disconnect_resubmits_and_is_transparent(self, tmp_path):
        plain = simulate(scenario(tmp_path, {}, rounds=5, name="r"))
        dropped = simulate(
            scenario(
                tmp_path,
                {},
                rounds=5,
                name="s",
                faults=(FaultEvent(at_round=2, target="b", kind="disconnect",
                                   downtime_seconds=40.0),),
            )
        )
        assert dropped.status == "completed"
        assert dropped.final_global == plain.final_global
        # the disconnected round still shows a submission from b
        assert dropped.experiment.rounds[2].per_client["b"].submitted is True

    def test_client_crash_retrains_and_is_transparent(self, tmp_path):
        plain = simulate(scenario(tmp_path, {}, rounds=5, name="t"))
        crashed = simulate(
            scenario(
                tmp_path,
                {},
                rounds=5,
                name="u",
                faults=(FaultEvent(at_round=2, target="b", kind="crash",
                                   downtime_seconds=12.0),),
            )
        )
        assert crashed.status == "completed"
        assert crashed.final_global == plain.final_global

    def test_quorum_starvation_is_diagnosed_not_crashed(self, tmp_path):
        report = simulate(
            scenario(
                tmp_path,
                {},
                name="v",
                faults=(FaultEvent(at_round=1, target="c", kind="crash",
                                   downtime_seconds=math.inf),),
            )
        )
        assert report.status == "hung"
        assert "waiting on ['c']" in report.diagnosis

    def test_continue_without_finishes_without_lost_client(self, tmp_path):
        report = simulate(
            scenario(
                tmp_path,
                {},
                name="w",
                on_client_loss="continue_without",
                min_clients_per_round=2,
                faults=(FaultEvent(at_round=1, target="c", kind="crash",
                                   downtime_seconds=math.inf),),
            )
        )
        assert report.status == "completed"
        assert report.experiment.rounds[1].per_client["c"].submitted is False

    def test_abort_below_quorum(self, tmp_path):
        report = simulate(
            scenario(
                tmp_path,
                {},
                name="x",
                on_client_loss="continue_without",
                min_clients_per_round=3,
                faults=(FaultEvent(at_round=1, target="c", kind="crash",
                                   downtime_seconds=math.inf),),
            )
        )
        assert report.status == "aborted"
        assert "quorum" in report.diagnosis

    @pytest.mark.parametrize(
        "faults",
        [
            (FaultEvent(at_round=4, target="server", kind="crash", downtime_seconds=25.0),),
            (FaultEvent(at_round=2, target="b", kind="disconnect", downtime_seconds=40.0),
             FaultEvent(at_round=4, target="server", kind="crash", downtime_seconds=25.0),
             FaultEvent(at_round=6, target="c", kind="disconnect", downtime_seconds=15.0)),
        ],
        ids=["server_crash", "crash_and_disconnects"],
    )
    def test_ditto_personal_models_are_fault_transparent(self, tmp_path, faults):
        ditto = AlgorithmConfig(kind="ditto", ditto_lambda=0.5)
        plain = simulate(scenario(tmp_path, {}, rounds=8, name="v", algorithm=ditto))
        faulted = simulate(
            scenario(tmp_path, {}, rounds=8, name="w", faults=faults, algorithm=ditto)
        )
        assert faulted.status == "completed"
        assert faulted.final_global == plain.final_global
        assert faulted.personal_models == plain.personal_models


class TestDeterminism:
    def test_same_scenario_bit_identical(self, tmp_path):
        s = scenario(tmp_path, {"a": 1.0, "b": 2.5, "c": 1.7}, rounds=5, name="det",
                     faults=(FaultEvent(at_round=2, target="b", kind="disconnect",
                                        downtime_seconds=11.0),))
        one = simulate(s)
        two = simulate(s)
        assert one.final_global == two.final_global
        assert one.virtual_seconds == two.virtual_seconds
        assert len(one.round_globals) == len(two.round_globals)
        assert all(x == y for x, y in zip(one.round_globals, two.round_globals))


class TestLocalBaseline:
    def test_cross_table_shape(self, tmp_path):
        s = SimScenario(
            federation=make_cfg(tmp_path, rounds=3, name="lb"),
            local_baseline=True,
        )
        report = simulate(s)
        assert set(report.local_cross) == {"a", "b", "c"}
        for row in report.local_cross.values():
            assert set(row) == {"a", "b", "c"}
            assert all(score.metric == "mse_loss" for score in row.values())
