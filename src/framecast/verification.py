"""Forecast verification: continuous scores, contingency-based categorical
scores, ROC/AUC, and stratified report assembly.

Continuous metrics (MSE, MAE, PCC) average over every target pixel and time.
Categorical metrics binarize both forecast and observation at an event
threshold tau (inclusive, value >= tau counts as an event) and reduce the
resulting contingency counts. Scores whose denominator is zero are reported
as explicit undefined markers (None), never coerced to 0, so degenerate
cases cannot inflate apparent skill.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FramecastError

DEFAULT_TAUS = (1.0, 2.0, 8.0)
DEFAULT_PERCENTILE_BINS = ((0, 20), (20, 40), (40, 60), (60, 80), (80, 95))


class UndefinedMetricError(FramecastError):
    """A score is mathematically undefined for the given inputs."""


def _check_shapes(pred, obs):
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs obs {obs.shape}")
    return pred, obs


def mse(pred, obs) -> float:
    """Mean squared error over all target pixels and times."""
    pred, obs = _check_shapes(pred, obs)
    return float(np.mean((pred - obs) ** 2))


def mae(pred, obs) -> float:
    """Mean absolute error over all target pixels and times."""
    pred, obs = _check_shapes(pred, obs)
    return float(np.mean(np.abs(pred - obs)))


def pcc(pred, obs) -> float:
    """Pearson correlation over all target pixels and times.

    Raises UndefinedMetricError when either input has zero variance; the
    caller decides whether that surfaces as an undefined report entry.
    """
    pred, obs = _check_shapes(pred, obs)
    dp = pred - pred.mean()
    do = obs - obs.mean()
    denom = np.sqrt((dp * dp).sum()) * np.sqrt((do * do).sum())
    if denom == 0.0:
        raise UndefinedMetricError("correlation undefined for constant input")
    return float((dp * do).sum() / denom)


def binarize(values, tau) -> np.ndarray:
    """Threshold-exceedance indicator: value >= tau (inclusive)."""
    return np.asarray(values) >= tau


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of hits, false alarms, misses, and correct rejections."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("contingency counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _table(p: np.ndarray, o: np.ndarray) -> ContingencyTable:
    """Counts of forecast events p against observed events o (same-shape
    boolean arrays): hits and both marginals are counted, the rest follow."""
    tp = int(np.count_nonzero(p & o))
    n_p, n_o = int(np.count_nonzero(p)), int(np.count_nonzero(o))
    return ContingencyTable(tp=tp, fp=n_p - tp, fn=n_o - tp, tn=p.size - n_p - n_o + tp)


def contingency(pred, obs, tau) -> ContingencyTable:
    """Contingency counts for threshold-exceedance events at tau."""
    pred, obs = _check_shapes(pred, obs)
    return _table(binarize(pred, tau), binarize(obs, tau))


def csi(table: ContingencyTable) -> float | None:
    """Critical success index TP / (TP + FP + FN); None if no events at all."""
    denom = table.tp + table.fp + table.fn
    return table.tp / denom if denom else None


def far(table: ContingencyTable) -> float | None:
    """False alarm ratio FP / (TP + FP); None when nothing was forecast."""
    denom = table.tp + table.fp
    return table.fp / denom if denom else None


def pod(table: ContingencyTable) -> float | None:
    """Probability of detection TP / (TP + FN); None when nothing was observed."""
    denom = table.tp + table.fn
    return table.tp / denom if denom else None


def pofd(table: ContingencyTable) -> float | None:
    """Probability of false detection FP / (FP + TN); distinct from FAR."""
    denom = table.fp + table.tn
    return table.fp / denom if denom else None


@dataclass(frozen=True)
class ROCCurve:
    """(POFD, POD) points swept over decision thresholds, anchored at the corners."""

    points: np.ndarray  # (n, 2) rows of (pofd, pod)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("ROC points must be (n, 2)")
        if points.min() < 0.0 or points.max() > 1.0:
            raise ValueError("ROC coordinates must lie in [0, 1]")
        if np.any(np.diff(points[:, 0]) < 0):
            raise ValueError("POFD must be non-decreasing along the curve")
        object.__setattr__(self, "points", points)

    @property
    def pofd_values(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def pod_values(self) -> np.ndarray:
        return self.points[:, 1]


def roc_curve(scores, obs, tau_event, gammas) -> ROCCurve:
    """ROC curve of continuous forecast scores against observed exceedances.

    Observations binarize at tau_event; for every decision threshold gamma
    the forecast event is score >= gamma, giving one (POFD, POD) point.
    Points are sorted by POFD and anchored at (0, 0) and (1, 1).

    The counts come from one sort of each class's scores: the pixels with
    score >= gamma are those past the first sorted score not below gamma.
    A score tied with gamma counts as forecast. NaN sorts last and is never
    >= gamma, so NaN scores are never counted, and a NaN gamma counts none.

    Raises UndefinedMetricError when the observations contain no event or no
    non-event pixels (either rate is then 0/0).
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gamma list must be non-empty")
    scores, obs = _check_shapes(scores, obs)
    events = binarize(obs, tau_event)
    n_event = int(np.count_nonzero(events))
    n_nonevent = events.size - n_event
    if n_event == 0 and n_nonevent == 0:
        raise UndefinedMetricError("ROC undefined: no pixels to classify")
    if n_event == 0 or n_nonevent == 0:
        raise UndefinedMetricError(
            "ROC undefined: observations are single-class at this threshold"
        )
    gammas = np.asarray(gammas, dtype=np.float64)

    def forecast_counts(class_scores):
        ranked = np.sort(class_scores)
        # NaN sorts last, so the first NaN's index counts the comparable scores
        return np.searchsorted(ranked, np.nan) - np.searchsorted(ranked, gammas, side="left")

    # obs holds both classes, so both rates are defined
    pod_values = forecast_counts(scores[events]) / n_event
    pofd_values = forecast_counts(scores[~events]) / n_nonevent
    order = np.lexsort((pod_values, pofd_values))
    pts = np.column_stack((pofd_values[order], pod_values[order]))
    return ROCCurve(np.concatenate(([(0.0, 0.0)], pts, [(1.0, 1.0)])))


def auc(curve: ROCCurve) -> float:
    """Area under the ROC curve by the trapezoid rule over POFD."""
    x = curve.pofd_values
    y = curve.pod_values
    return float(np.trapezoid(y, x))


def default_gammas(*arrays) -> np.ndarray:
    """33 evenly spaced decision thresholds spanning the given score arrays."""
    top = max(float(np.max(a)) for a in arrays if np.asarray(a).size)
    return np.linspace(0.0, max(top, 1e-12), 33)


# ---- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    lead_minutes: int
    metric: str
    value: float | None
    threshold: float | None = None
    stratum: str | None = None
    seed: str | None = None


_RANGES = {"csi": (0.0, 1.0), "far": (0.0, 1.0), "auc": (0.0, 1.0),
           "pod": (0.0, 1.0), "pofd": (0.0, 1.0), "pcc": (-1.0, 1.0)}


@dataclass
class MetricReport:
    """Flat collection of scored rows plus CSV / text serialization."""

    rows: list[MetricRow] = field(default_factory=list)

    def add(self, **kwargs):
        self.rows.append(MetricRow(**kwargs))

    def extend(self, other: "MetricReport"):
        self.rows.extend(other.rows)

    def validate(self):
        """Range checks plus strictly increasing leads within each series."""
        series = {}
        for row in self.rows:
            low_high = _RANGES.get(row.metric)
            if row.value is not None and low_high is not None:
                low, high = low_high
                if not low - 1e-12 <= row.value <= high + 1e-12:
                    raise ValueError(
                        f"{row.metric} value {row.value} outside [{low}, {high}]"
                    )
            key = (row.metric, row.threshold, row.stratum, row.seed)
            series.setdefault(key, []).append(row.lead_minutes)
        for key, leads in series.items():
            if any(b <= a for a, b in zip(leads, leads[1:])):
                raise ValueError(f"lead times not strictly increasing for {key}")

    def select(self, **conditions) -> list[MetricRow]:
        out = []
        for row in self.rows:
            if all(getattr(row, k) == v for k, v in conditions.items()):
                out.append(row)
        return out

    def to_csv(self, path, comments: list[str] | None = None):
        with Path(path).open("w", newline="", encoding="utf-8") as f:
            for line in comments or []:
                f.write(f"# {line}\n")
            writer = csv.writer(f)
            writer.writerow(
                ["lead_minutes", "threshold", "stratum", "seed", "metric", "value", "undefined"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        row.lead_minutes,
                        "" if row.threshold is None else repr(float(row.threshold)),
                        row.stratum or "",
                        row.seed or "",
                        row.metric,
                        "" if row.value is None else repr(float(row.value)),
                        int(row.value is None),
                    ]
                )

    @classmethod
    def from_csv(cls, path) -> "MetricReport":
        report = cls()
        with Path(path).open("r", newline="", encoding="utf-8") as f:
            rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
        for raw in rows[1:]:
            lead, threshold, stratum, seed, metric, value, undefined = raw
            report.add(
                lead_minutes=int(lead),
                metric=metric,
                value=None if int(undefined) else float(value),
                threshold=float(threshold) if threshold else None,
                stratum=stratum or None,
                seed=seed or None,
            )
        return report

    def to_text(self) -> str:
        lines = ["lead  threshold  stratum  seed  metric  value"]
        for row in self.rows:
            value = "undefined" if row.value is None else f"{row.value:.6f}"
            lines.append(
                f"{row.lead_minutes:>4}  {row.threshold if row.threshold is not None else '-':>9}"
                f"  {row.stratum or '-':>7}  {row.seed or '-':>4}  {row.metric:>6}  {value}"
            )
        return "\n".join(lines) + "\n"


def _defined(fn, *args):
    try:
        return fn(*args)
    except UndefinedMetricError:
        return None


_LEAD_SCORES = (("mse", mse), ("mae", mae), ("pcc", pcc))
_TABLE_SCORES = (("csi", csi), ("far", far), ("pod", pod), ("pofd", pofd))


def _score_leads(pred, obs, metrics, step_minutes, taus, gammas=None,
                 stratum=None, seed=None) -> MetricReport:
    """The one per-lead scoring loop behind every stratifier.

    pred and obs are (horizon, ...) arrays, and lead k * step_minutes scores
    pred[k - 1] against obs[k - 1]. Each lead emits, in this order and kept
    to the names in metrics: mse, mae and pcc, then per tau csi, far, pod,
    pofd and auc (which needs gammas).
    """
    lead_scores = [(name, fn) for name, fn in _LEAD_SCORES if name in metrics]
    table_scores = [(name, fn) for name, fn in _TABLE_SCORES if name in metrics]
    report = MetricReport()
    for k in range(pred.shape[0]):
        p, o = pred[k], obs[k]
        rows = [(name, None, _defined(fn, p, o)) for name, fn in lead_scores]
        for tau in taus:
            if table_scores:
                table = contingency(p, o, tau)
                rows += [(name, tau, fn(table)) for name, fn in table_scores]
            if "auc" in metrics:
                rows.append(("auc", tau, _defined(lambda: auc(roc_curve(p, o, tau, gammas)))))
        for metric, threshold, value in rows:
            report.add(lead_minutes=(k + 1) * step_minutes, metric=metric, value=value,
                       threshold=threshold, stratum=stratum, seed=seed)
    return report


def stratify_by_lead_time(
    pred_frames,
    obs_frames,
    step_minutes: int,
    taus=DEFAULT_TAUS,
    seed: str | None = None,
) -> MetricReport:
    """Score each forecast frame independently; lead k is k * step_minutes.

    Continuous scores (mse, mae, pcc) come out once per lead; categorical
    scores (csi, far, pod, pofd) and ROC AUC once per lead and threshold.
    """
    pred, obs = _check_shapes(pred_frames, obs_frames)
    if pred.ndim != 3:
        raise ValueError(f"expected (horizon, H, W) frames, got shape {pred.shape}")
    return _score_leads(pred, obs, ("mse", "mae", "pcc", "csi", "far", "pod", "pofd", "auc"),
                        step_minutes, taus, default_gammas(pred, obs), seed=seed)


def assign_percentile_bins(means):
    """Map per-event means to DEFAULT_PERCENTILE_BINS (low < p <= high), or None.

    The percentile of an event is its rank midpoint in the set,
    100 * (rank - 0.5) / n with rank 1-based over the sorted means (ties
    keep input order), so a lone event sits at the 50th percentile. The
    bins deliberately leave everything above the 95th percentile
    unassigned.
    """
    means = np.asarray(means, dtype=np.float64)
    order = np.argsort(means, kind="stable")
    ranks = np.empty(means.size, dtype=np.int64)
    ranks[order] = np.arange(1, means.size + 1)
    percentiles = 100.0 * (ranks - 0.5) / means.size
    return [next(((low, high) for low, high in DEFAULT_PERCENTILE_BINS if low < p <= high), None)
            for p in percentiles]


def stratify_by_percentile_bin(
    event_pairs,
    step_minutes: int = 30,
    taus=DEFAULT_TAUS,
    seed: str | None = None,
) -> MetricReport:
    """Per-bin verification of (pred_target, obs_target) frame pairs.

    Events land in intensity bins by the percentile of their observed mean;
    each bin's member events are pooled per lead, and an empty bin simply
    contributes no rows.
    """
    pairs = list(event_pairs)
    if not pairs:
        raise ValueError("need at least one (pred, obs) pair")
    labels = assign_percentile_bins([float(np.asarray(obs).mean()) for _, obs in pairs])
    report = MetricReport()
    for low, high in DEFAULT_PERCENTILE_BINS:
        members = [pair for pair, label in zip(pairs, labels) if label == (low, high)]
        if members:
            # (horizon, n_members, H, W): lead k pools every member's frame k
            pred, obs = (np.stack(frames, axis=1) for frames in zip(*members))
            report.extend(_score_leads(pred, obs, ("mse", "mae", "pcc", "csi", "far"),
                                       step_minutes, taus, stratum=f"p{low}-{high}", seed=seed))
    return report


def evaluate_catchments(
    pred_frames,
    obs_frames,
    masks: dict[str, np.ndarray],
    taus=DEFAULT_TAUS,
    step_minutes: int = 30,
    gammas=None,
    seed: str | None = None,
) -> MetricReport:
    """Detection skill (ROC AUC) restricted to named spatial subregions.

    Each mask selects the pixels of one subregion; scores are computed per
    subregion, per event threshold, per lead. An empty mask yields undefined
    markers for that subregion.
    """
    pred, obs = _check_shapes(pred_frames, obs_frames)
    if gammas is None:
        gammas = default_gammas(pred, obs)
    report = MetricReport()
    for name, mask in masks.items():
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape[1:]:
            raise ValueError(
                f"mask {name!r} shape {mask.shape} does not match fields {pred.shape[1:]}"
            )
        # pred[:, mask] keeps the lead as its inner stride; a contiguous copy scores faster
        p, o = np.ascontiguousarray(pred[:, mask]), np.ascontiguousarray(obs[:, mask])
        report.extend(_score_leads(p, o, ("auc",), step_minutes, taus, gammas,
                                   stratum=name, seed=seed))
    return report


def aggregate_over_seeds(reports: list[MetricReport]) -> MetricReport:
    """Mean and +/-1 std across seed runs of the same report layout.

    Rows are matched on (lead, metric, threshold, stratum). A value that is
    undefined in any seed stays undefined in the aggregate; the std of a
    single seed is an undefined marker.
    """
    if not reports:
        raise ValueError("need at least one report to aggregate")
    buckets: dict[tuple, list[float | None]] = {}
    order: list[tuple] = []
    for report in reports:
        for row in report.rows:
            key = (row.lead_minutes, row.metric, row.threshold, row.stratum)
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(row.value)
    out = MetricReport()
    for key in order:
        lead, metric, threshold, stratum = key
        values = buckets[key]
        defined = [v for v in values if v is not None]
        if len(defined) != len(values):
            mean_value, std_value = None, None
        else:
            mean_value = float(np.mean(defined))
            std_value = float(np.std(defined, ddof=1)) if len(defined) > 1 else None
        out.add(lead_minutes=lead, metric=metric, value=mean_value,
                threshold=threshold, stratum=stratum, seed="mean")
        out.add(lead_minutes=lead, metric=metric, value=std_value,
                threshold=threshold, stratum=stratum, seed="std")
    return out


def evaluate_runs(runs, masks: dict[str, np.ndarray], taus, step_minutes: int) -> MetricReport:
    """The full verification report over one or more seed runs.

    runs holds one (pred, obs) pair per seed run, each a float64
    (n_events, horizon, H, W) stack, and run i carries the seed label "i";
    masks are (H, W). Each run emits its lead-time rows, with the events
    pooled per lead into (horizon, n_events * H, W), then its percentile-bin
    rows, then ROC AUC per mask, tiled over the pooled events. With more
    than one run, the mean and std over runs follow.
    """
    reports = []
    for i, (pred, obs) in enumerate(runs):
        seed = str(i)
        n_events, horizon, _, width = obs.shape
        pooled_pred, pooled_obs = (a.swapaxes(0, 1).reshape(horizon, -1, width) for a in (pred, obs))
        tiled = {name: np.tile(mask, (n_events, 1)) for name, mask in masks.items()}
        report = stratify_by_lead_time(pooled_pred, pooled_obs, step_minutes, taus=taus, seed=seed)
        report.extend(stratify_by_percentile_bin(list(zip(pred, obs)), step_minutes=step_minutes,
                                                 taus=taus, seed=seed))
        report.extend(evaluate_catchments(pooled_pred, pooled_obs, tiled, taus=taus,
                                          step_minutes=step_minutes, seed=seed))
        reports.append(report)
    combined = MetricReport()
    for report in reports:
        combined.extend(report)
    if len(reports) > 1:
        combined.extend(aggregate_over_seeds(reports))
    return combined
