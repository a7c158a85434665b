"""Per-round records, experiment reports, and the tables built from them.

Times are stored in seconds internally; hours appear only in rendered
output. The global mean of a score table is the unweighted mean of the
per-site means, with the std taken across sites.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import FederationConfig
from .errors import IoError, ReportError
from .params import EvalScore, ParameterVector, from_json, json_default


def _check_times(record, *names) -> None:
    """Each named time must be finite and >= 0; a failure leads with its field."""
    for name in names:
        seconds = getattr(record, name)
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ReportError(f"{name} must be finite and >= 0, got {seconds}")


@dataclass(frozen=True)
class ClientRoundStat:
    """One client's share of one round."""

    train_seconds: float
    waiting_seconds: float
    submitted: bool

    def __post_init__(self):
        _check_times(self, "train_seconds", "waiting_seconds")


@dataclass(frozen=True)
class RoundRecord:
    """Timing observations for one aggregated round."""

    round: int
    per_client: Mapping[str, ClientRoundStat]
    aggregation_seconds: float

    def __post_init__(self):
        _check_times(self, "aggregation_seconds")
        object.__setattr__(self, "per_client", dict(self.per_client))

    @property
    def train_span_seconds(self) -> float:
        """Wall span of the training phase: the slowest submitted client."""
        times = [s.train_seconds for s in self.per_client.values() if s.submitted]
        return max(times) if times else 0.0


@dataclass(frozen=True)
class Totals:
    train: float
    validate: float
    aggregate: float

    def __post_init__(self):
        _check_times(self, "train", "validate", "aggregate")

    @property
    def total(self) -> float:
        return self.train + self.validate + self.aggregate


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one experiment produced; report.json is this, field by field.

    ``config`` is the run's federation config. A run that aggregated no
    round has empty ``rounds`` and ``final_scores``, zero totals, and a
    null ``global_mean`` and ``final_global``. The fields after ``status``
    are the simulator's and stay null on TCP: why the run did not complete
    (empty when it did), reconnects, virtual seconds, the local baseline's
    table (``local_cross[trained][validated]``) and the ditto personal
    models (null for a site whose crash lost its model).
    """

    config: FederationConfig
    rounds: tuple[RoundRecord, ...]
    totals: Totals
    final_scores: Mapping[str, EvalScore]
    global_mean: Optional[EvalScore]
    final_global: Optional[ParameterVector]
    status: str = "completed"
    diagnosis: Optional[str] = None
    reconnects: Optional[int] = None
    virtual_seconds: Optional[float] = None
    local_cross: Optional[Mapping[str, Mapping[str, EvalScore]]] = None
    personal_models: Optional[Mapping[str, Optional[ParameterVector]]] = None

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        object.__setattr__(self, "final_scores", dict(self.final_scores))


def score_table_mean(per_site: Mapping[str, EvalScore]) -> EvalScore:
    """Unweighted mean of per-site means; std across sites."""
    if not per_site:
        raise ReportError("cannot average an empty score table")
    names = sorted(per_site)
    means = np.array([per_site[n].mean for n in names])
    metric = per_site[names[0]].metric
    return EvalScore(mean=float(means.mean()), std=float(means.std()), metric=metric)


def summarize(
    records: Sequence[RoundRecord],
    final_scores: Mapping[str, EvalScore],
    *,
    final_global: Optional[ParameterVector],
    config: FederationConfig,
    validate_seconds: float = 0.0,
    status: str = "completed",
    **findings,
) -> ExperimentReport:
    """Fold round records and final scores into an :class:`ExperimentReport`.

    Totals are sums over rounds: train is the sum of per-round training
    spans, aggregate the sum of aggregation costs. Validation happens once
    at the end, outside the rounds, so its time arrives as an argument.
    ``findings`` set the simulator's fields.
    """
    return ExperimentReport(
        config=config,
        rounds=tuple(records),
        totals=Totals(
            train=float(sum(r.train_span_seconds for r in records)),
            validate=float(validate_seconds),
            aggregate=float(sum(r.aggregation_seconds for r in records)),
        ),
        final_scores=final_scores,
        global_mean=score_table_mean(final_scores) if final_scores else None,
        final_global=final_global,
        status=status,
        **findings,
    )


def _mean_of(score) -> float:
    return score.mean if isinstance(score, EvalScore) else float(score)


def compare_global_local(
    global_scores: Mapping[str, object],
    local_cross_scores: Mapping[str, Mapping[str, object]],
) -> dict:
    """Percent-point differences (local - global) of a cross-validation table.

    ``local_cross_scores[t][v]`` is the model trained at site t evaluated on
    site v's validation data. A cell of -1.30 means the local model scores
    1.30 percent points below the global model on that validation site.
    """
    sites = set(global_scores)
    if set(local_cross_scores) != sites:
        raise ReportError(
            f"trained-site set {sorted(local_cross_scores)} does not match "
            f"validation sites {sorted(sites)}"
        )
    table: dict = {}
    for trained in sorted(local_cross_scores):
        row = local_cross_scores[trained]
        if set(row) != sites:
            raise ReportError(
                f"local model {trained!r} evaluated on {sorted(row)}, expected {sorted(sites)}"
            )
        table[trained] = {
            validated: (_mean_of(row[validated]) - _mean_of(global_scores[validated])) * 100.0
            for validated in sorted(row)
        }
    return table


CSV_HEADER = ("round", "site", "train_seconds", "waiting_seconds", "aggregation_seconds", "submitted")


def export_csv(report: ExperimentReport, path: str) -> None:
    """Write one row per (round, site); deterministic bytes for a given report."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for record in report.rounds:
                for site, stat in record.per_client.items():
                    writer.writerow(
                        [
                            record.round,
                            site,
                            repr(stat.train_seconds),
                            repr(stat.waiting_seconds),
                            repr(record.aggregation_seconds),
                            "true" if stat.submitted else "false",
                        ]
                    )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# --- report (de)serialization -------------------------------------------------

def save_report(report: ExperimentReport, path: str) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(report, fh, default=json_default, sort_keys=True, indent=2)
            fh.write("\n")
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_report(path: str) -> ExperimentReport:
    """The report a report.json holds, parsed whole: a missing or malformed
    key anywhere, the config echo's included, raises :class:`ReportError`
    naming its key path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportError(f"cannot load report {path}: {exc}") from exc

    def fail(key: str, why: str) -> ReportError:
        return ReportError(f"{path}: {key}: {why}" if key else f"{path}: {why}")

    return from_json(ExperimentReport, doc, fail)


# --- rendering -----------------------------------------------------------------

def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:.2f} hr"


def render_totals(t: Totals) -> str:
    return (
        f"train {_hours(t.train)} | aggregate {_hours(t.aggregate)} "
        f"| validate {_hours(t.validate)} | total {_hours(t.total)}"
    )


def render_summary(report: ExperimentReport, *, title: str = "experiment") -> str:
    """Human-readable totals and score table (hours at presentation only)."""
    out = io.StringIO()
    print(f"== {title} ({report.status}) ==", file=out)
    print(f"rounds: {len(report.rounds)}", file=out)
    print(f"totals: {render_totals(report.totals)}", file=out)
    if report.final_scores:
        metric = report.global_mean.metric
        print(f"final {metric} per site:", file=out)
        for site in sorted(report.final_scores):
            s = report.final_scores[site]
            print(f"  {site:<12} {s.mean:.4f} (±{s.std:.4f})", file=out)
        print(
            f"  {'global mean':<12} {report.global_mean.mean:.4f} (±{report.global_mean.std:.4f})",
            file=out,
        )
    return out.getvalue()


def render_loss_table(table: Mapping[str, Mapping[str, float]]) -> str:
    """Render a percent-point table the way the comparison is reported: one
    row per trained site, one column per validation site, cells like -1.30%."""
    sites = sorted(table)
    out = io.StringIO()
    header = "trained\\validated " + " ".join(f"{v:>12}" for v in sites)
    print(header, file=out)
    for trained in sites:
        cells = " ".join(f"{table[trained][v]:>+11.2f}%" for v in sites)
        print(f"{trained:<18} {cells}", file=out)
    return out.getvalue()
