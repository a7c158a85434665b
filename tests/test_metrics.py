import base64
import csv
import dataclasses
import json
import math

import pytest

from fedkit import (
    AlgorithmConfig,
    ClientRoundStat,
    EvalScore,
    FaultEvent,
    FederationConfig,
    HeterogeneityConfig,
    ParameterVector,
    ReportError,
    RoundRecord,
    SimScenario,
    SiteSpec,
    TrainerConfig,
    compare_global_local,
    export_csv,
    simulate,
    summarize,
)
from fedkit.metrics import (
    CSV_HEADER,
    ExperimentReport,
    Totals,
    render_loss_table,
    render_summary,
    save_report,
    score_table_mean,
)
from fedkit.params import from_json, to_json


def stat(train, waiting=0.0, submitted=True):
    return ClientRoundStat(train_seconds=train, waiting_seconds=waiting, submitted=submitted)


def dice(mean, std=0.0):
    return EvalScore(mean=mean, std=std, metric="dice")


def read_rows(path):
    """The data rows of a rounds.csv file, after checking its header."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_HEADER
    return rows


def load_report_doc(doc):
    return from_json(ExperimentReport, doc, lambda key, why: ReportError(f"{key}: {why}"))


def make_config(rounds=2, sites=("a", "b", "c")):
    return FederationConfig(
        sites=tuple(SiteSpec(s) for s in sites),
        rounds=rounds,
        algorithm=AlgorithmConfig(),
        trainer=TrainerConfig(),
        heterogeneity=HeterogeneityConfig(base_optimum=(1.0, 2.0)),
    )


def make_records(rounds=2, sites=("a", "b", "c")):
    records = []
    for r in range(rounds):
        per_client = {s: stat(10.0 * (i + 1) + r, waiting=5.0 * i) for i, s in enumerate(sites)}
        records.append(RoundRecord(round=r, per_client=per_client, aggregation_seconds=0.5))
    return records


def make_report(rounds=2):
    records = make_records(rounds)
    scores = {"a": dice(0.6), "b": dice(0.7), "c": dice(0.65)}
    return summarize(
        records, scores, final_global=ParameterVector([1.0, 2.0]), config=make_config(rounds)
    )


class TestSummarize:
    def test_single_round_single_client(self):
        records = [RoundRecord(0, {"a": stat(12.5)}, aggregation_seconds=0.25)]
        report = summarize(
            records, {"a": dice(0.5)}, final_global=ParameterVector([0.0]),
            config=make_config(1, sites=("a",)), validate_seconds=1.5,
        )
        assert report.totals.train == 12.5
        assert report.totals.aggregate == 0.25
        assert report.totals.validate == 1.5
        assert report.totals.total == 14.25

    def test_totals_are_sums_over_rounds(self):
        report = make_report(rounds=5)
        assert abs(report.totals.train - sum(r.train_span_seconds for r in report.rounds)) < 1e-9
        assert abs(report.totals.aggregate - sum(r.aggregation_seconds for r in report.rounds)) < 1e-9

    def test_empty_records_give_zero_totals(self):
        report = summarize([], {}, final_global=None, config=make_config(), status="hung")
        assert report.rounds == ()
        assert report.totals == Totals(train=0.0, validate=0.0, aggregate=0.0)
        assert report.global_mean is None

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -5.0])
    def test_times_must_be_finite_and_non_negative(self, seconds):
        for build, field in (
            (lambda t: stat(t), "train_seconds"),
            (lambda t: stat(1.0, waiting=t), "waiting_seconds"),
            (lambda t: RoundRecord(0, {}, aggregation_seconds=t), "aggregation_seconds"),
            (lambda t: Totals(train=1.0, validate=t, aggregate=1.0), "validate"),
        ):
            with pytest.raises(ReportError, match=rf"^{field} must be finite and >= 0, got"):
                build(seconds)

    def test_train_span_ignores_dropped_clients(self):
        record = RoundRecord(
            0, {"a": stat(10.0), "b": stat(999.0, submitted=False)}, aggregation_seconds=0.0
        )
        assert record.train_span_seconds == 10.0


class TestGlobalMean:
    def test_paper_flair_unet_row(self):
        # per-site means 0.582 / 0.630 / 0.595 average to 0.602 at table precision
        scores = {"basel": dice(0.582), "freiburg": dice(0.630), "strasbourg": dice(0.595)}
        mean = score_table_mean(scores)
        assert round(mean.mean, 3) == 0.602

    def test_equal_means_zero_std(self):
        scores = {s: dice(0.6) for s in ("a", "b", "c")}
        mean = score_table_mean(scores)
        assert mean.mean == 0.6
        assert mean.std == 0.0

    def test_recomputation_matches_stored(self):
        report = make_report()
        again = score_table_mean(report.final_scores)
        assert abs(again.mean - report.global_mean.mean) < 1e-12
        assert abs(again.std - report.global_mean.std) < 1e-12


class TestCompareGlobalLocal:
    GLOBAL = {"basel": 0.608, "freiburg": 0.675, "strasbourg": 0.628}
    LOCAL = {
        "basel": {"basel": 0.365, "freiburg": 0.315, "strasbourg": 0.510},
        "freiburg": {"basel": 0.570, "freiburg": 0.633, "strasbourg": 0.565},
        "strasbourg": {"basel": 0.556, "freiburg": 0.619, "strasbourg": 0.615},
    }

    def test_percent_point_cells(self):
        table = compare_global_local(self.GLOBAL, self.LOCAL)
        assert round(table["basel"]["basel"], 2) == -24.30
        assert round(table["basel"]["freiburg"], 2) == -36.00
        assert round(table["strasbourg"]["strasbourg"], 2) == -1.30

    def test_equal_scores_all_zero(self):
        local = {s: dict(self.GLOBAL) for s in self.GLOBAL}
        table = compare_global_local(self.GLOBAL, local)
        assert all(v == 0.0 for row in table.values() for v in row.values())

    def test_site_mismatch_rejected(self):
        with pytest.raises(ReportError):
            compare_global_local(self.GLOBAL, {"basel": self.LOCAL["basel"]})
        bad_row = {k: dict(v) for k, v in self.LOCAL.items()}
        del bad_row["basel"]["strasbourg"]
        with pytest.raises(ReportError):
            compare_global_local(self.GLOBAL, bad_row)

    def test_accepts_eval_scores(self):
        global_scores = {s: dice(v) for s, v in self.GLOBAL.items()}
        local = {t: {v: dice(x) for v, x in row.items()} for t, row in self.LOCAL.items()}
        table = compare_global_local(global_scores, local)
        assert round(table["basel"]["basel"], 2) == -24.30

    def test_non_positive_diagonal_when_global_wins_at_home(self):
        table = compare_global_local(self.GLOBAL, self.LOCAL)
        for site in self.GLOBAL:
            assert table[site][site] <= 0.0

    def test_render(self):
        text = render_loss_table(compare_global_local(self.GLOBAL, self.LOCAL))
        assert "-24.30%" in text
        assert "-36.00%" in text
        assert "-1.30%" in text


class TestCsvExport:
    def test_row_counts(self, tmp_path):
        report = make_report(rounds=2)
        path = tmp_path / "rounds.csv"
        export_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + rounds x sites

    def test_deterministic_bytes(self, tmp_path):
        report = make_report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(report, str(a))
        export_csv(report, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_totals(self, tmp_path):
        report = make_report(rounds=3)
        path = tmp_path / "rounds.csv"
        export_csv(report, str(path))
        rows = read_rows(path)
        rounds = sorted({int(row[0]) for row in rows})
        assert rounds == [0, 1, 2]
        train = sum(max(float(row[2]) for row in rows if int(row[0]) == r) for r in rounds)
        aggregate = sum(float(next(row[4] for row in rows if int(row[0]) == r)) for r in rounds)
        assert train == report.totals.train
        assert aggregate == report.totals.aggregate

    def test_round_trip_preserves_submitted_flags(self, tmp_path):
        record = RoundRecord(
            0, {"a": stat(1.0), "b": stat(0.0, submitted=False)}, aggregation_seconds=0.0
        )
        report = summarize(
            [record], {"a": dice(0.7)}, final_global=ParameterVector([0.0]),
            config=make_config(1, sites=("a", "b")),
        )
        path = tmp_path / "r.csv"
        export_csv(report, str(path))
        submitted = {row[1]: row[5] for row in read_rows(path) if row[0] == "0"}
        assert submitted == {"a": "true", "b": "false"}


def document_of(value):
    """The JSON document of a report by an explicit recursive walk: the
    reference the package's encoder is checked against."""
    if isinstance(value, ParameterVector):
        return {"f64le": base64.b64encode(value.values.tobytes()).decode()}
    if dataclasses.is_dataclass(value):
        return {f.name: document_of(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: document_of(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [document_of(item) for item in value]
    return value


def simulated_report(directory, faults, algorithm=AlgorithmConfig(), local_baseline=False,
                     **federation):
    """The report of a 3-site, 3-round simulated run."""
    cfg = FederationConfig(
        sites=tuple(SiteSpec(s) for s in ("a", "b", "c")),
        rounds=3,
        algorithm=algorithm,
        trainer=TrainerConfig(seed=1),
        heterogeneity=HeterogeneityConfig(base_optimum=(1.0, -2.0), samples_per_site=8),
        checkpoint_path=str(directory / "ckpt.json"),
        **federation,
    )
    scenario = SimScenario(federation=cfg, faults=faults, local_baseline=local_baseline)
    return simulate(scenario).experiment


def lost_personal_model(directory):
    """Ditto with the local baseline; site c crashes for good, so its
    personal model is null and it drops out under continue_without."""
    report = simulated_report(directory, (FaultEvent(1, "c", "crash", math.inf),),
                              AlgorithmConfig(kind="ditto", ditto_lambda=0.5), True,
                              on_client_loss="continue_without", min_clients_per_round=2)
    assert report.local_cross is not None and report.personal_models["c"] is None
    return report


def hung_run(directory):
    """The server never comes back from a crash in round 0: no rounds."""
    report = simulated_report(directory, (FaultEvent(0, "server", "crash", math.inf),))
    assert report.status == "hung" and report.rounds == ()
    assert report.global_mean is None and report.final_global is None
    return report


def dropped_site(directory):
    """Fedavg under continue_without; site c is dropped from round 1 on."""
    report = simulated_report(directory, (FaultEvent(1, "c", "disconnect", math.inf),),
                              on_client_loss="continue_without", min_clients_per_round=2)
    assert not report.rounds[-1].per_client["c"].submitted
    return report


def tcp_like(directory):
    """A report whose simulator fields are all null."""
    report = make_report()
    assert report.diagnosis is report.reconnects is report.virtual_seconds is None
    assert report.local_cross is report.personal_models is None
    return report


REPORT_CASES = {f.__name__: f for f in (lost_personal_model, hung_run, dropped_site, tcp_like)}


class TestReportSerialization:
    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_saved_bytes_and_to_json_match_the_reference_walk(self, tmp_path, case):
        report = REPORT_CASES[case](tmp_path)
        path = tmp_path / "report.json"
        save_report(report, str(path))
        expected = json.dumps(document_of(report), sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == expected.encode()
        assert to_json(report) == document_of(report)

    def test_dict_round_trip(self):
        report = make_report()
        doc = to_json(report)
        again = load_report_doc(doc)
        assert again.totals == report.totals
        assert again.final_scores == report.final_scores
        assert again.global_mean == report.global_mean
        assert again.final_global == report.final_global
        assert [r.round for r in again.rounds] == [r.round for r in report.rounds]

    def test_json_round_trip_is_a_fixed_point(self):
        doc = to_json(make_report(rounds=3))
        again = to_json(load_report_doc(json.loads(json.dumps(doc))))
        assert again == doc

    def test_malformed_mapping_entry_names_its_key(self):
        doc = to_json(make_report())
        del doc["final_scores"]["b"]["mean"]
        with pytest.raises(ReportError, match=r"^final_scores\.b\.mean: missing required key"):
            load_report_doc(doc)

    def test_render_summary_mentions_totals_in_hours(self):
        report = make_report()
        text = render_summary(report, title="demo")
        assert "demo" in text
        assert "hr" in text
        assert "global mean" in text
