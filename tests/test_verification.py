import numpy as np
import pytest

from framecast.verification import (
    DEFAULT_PERCENTILE_BINS,
    ContingencyTable,
    MetricReport,
    ROCCurve,
    UndefinedMetricError,
    _table,
    aggregate_over_seeds,
    assign_percentile_bins,
    auc,
    binarize,
    contingency,
    csi,
    default_gammas,
    evaluate_catchments,
    far,
    mae,
    mse,
    pcc,
    pod,
    pofd,
    roc_curve,
    stratify_by_lead_time,
    stratify_by_percentile_bin,
)


def loop_mse(pred, obs):
    total, count = 0.0, 0
    for t in range(pred.shape[0]):
        for i in range(pred.shape[1]):
            for j in range(pred.shape[2]):
                total += (pred[t, i, j] - obs[t, i, j]) ** 2
                count += 1
    return total / count


def loop_mae(pred, obs):
    total, count = 0.0, 0
    for t in range(pred.shape[0]):
        for i in range(pred.shape[1]):
            for j in range(pred.shape[2]):
                total += abs(pred[t, i, j] - obs[t, i, j])
                count += 1
    return total / count


def loop_contingency(pred, obs, tau):
    tp = fp = fn = tn = 0
    flat_p, flat_o = pred.reshape(-1), obs.reshape(-1)
    for p, o in zip(flat_p, flat_o):
        if p >= tau and o >= tau:
            tp += 1
        elif p >= tau and o < tau:
            fp += 1
        elif p < tau and o >= tau:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def roc_points_sweep(scores, obs, tau_event, gammas):
    """The reference sweep: one full-field contingency table per gamma, the
    points sorted by (POFD, POD) and anchored at (0, 0) and (1, 1)."""
    scores, events = np.asarray(scores, dtype=np.float64), np.asarray(obs) >= tau_event
    pts = []
    for gamma in gammas:
        p = scores >= gamma
        tp, fp = int(np.sum(p & events)), int(np.sum(p & ~events))
        fn, tn = int(np.sum(~p & events)), int(np.sum(~p & ~events))
        pts.append((fp / (fp + tn), tp / (tp + fn)))
    pts.sort(key=lambda p: (p[0], p[1]))
    return np.asarray([(0.0, 0.0)] + pts + [(1.0, 1.0)])


def assert_matches_sweep(scores, obs, tau_event, gammas):
    """Counted points and AUC equal the sweep's to the last bit."""
    curve = roc_curve(scores, obs, tau_event, gammas)
    want = roc_points_sweep(scores, obs, tau_event, gammas)
    assert curve.points.tobytes() == want.tobytes()
    assert auc(curve) == auc(ROCCurve(want))


class TestContinuous:
    def test_mse_perfect(self):
        x = np.random.default_rng(0).uniform(size=(2, 3, 3))
        assert mse(x, x) == 0.0

    def test_mse_constant_offset(self):
        x = np.zeros((2, 3, 3))
        assert mse(x + 2.0, x) == pytest.approx(4.0)

    def test_mse_matches_loop(self):
        rng = np.random.default_rng(1)
        p, o = rng.uniform(size=(2, 3, 3)), rng.uniform(size=(2, 3, 3))
        assert mse(p, o) == pytest.approx(loop_mse(p, o), abs=1e-12)

    def test_mae_cases(self):
        x = np.ones((2, 2, 2))
        assert mae(x, x) == 0.0
        assert mae(x - 3.0 + 3.0, x + 3.0) == pytest.approx(3.0)
        rng = np.random.default_rng(2)
        p, o = rng.uniform(size=(2, 3, 3)), rng.uniform(size=(2, 3, 3))
        assert mae(p, o) == pytest.approx(loop_mae(p, o), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_pcc_perfect(self):
        x = np.random.default_rng(3).uniform(size=(2, 4, 4))
        assert pcc(x, x) == pytest.approx(1.0)

    def test_pcc_anticorrelation(self):
        x = np.random.default_rng(4).uniform(size=(2, 4, 4))
        assert pcc(-x + 0.7, x) == pytest.approx(-1.0)

    def test_pcc_affine_invariance(self):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(size=(3, 4, 4)), rng.uniform(size=(3, 4, 4))
        assert pcc(2.5 * x + 1.0, y) == pytest.approx(pcc(x, y), abs=1e-12)

    def test_pcc_constant_input_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pcc(np.ones((2, 2, 2)), np.random.default_rng(6).uniform(size=(2, 2, 2)))


class TestCategorical:
    def test_binarize_inclusive(self):
        values = np.array([0.0, 0.5, 1.0, 2.0])
        assert binarize(values, 1.0).tolist() == [False, False, True, True]
        assert binarize(values, 0.0).all()
        assert not binarize(values, np.inf).any()

    def test_contingency_perfect(self):
        x = np.random.default_rng(7).uniform(0, 4, size=(2, 4, 4))
        table = contingency(x, x, tau=1.0)
        assert table.fp == 0 and table.fn == 0
        assert table.total == x.size

    def test_contingency_complement(self):
        obs = np.array([[[0.0, 2.0], [2.0, 0.0]]])
        pred = np.array([[[2.0, 0.0], [0.0, 2.0]]])
        table = contingency(pred, obs, tau=1.0)
        assert table.tp == 0 and table.tn == 0
        assert table.fp == 2 and table.fn == 2

    def test_contingency_matches_loop(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0, 3, size=(1, 4, 4))
        o = rng.uniform(0, 3, size=(1, 4, 4))
        table = contingency(p, o, tau=1.0)
        assert (table.tp, table.fp, table.fn, table.tn) == loop_contingency(p, o, 1.0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (1,), (5, 7), (3, 4, 6)])
    def test_table_matches_four_sums(self, shape):
        rng = np.random.default_rng(12)
        for density in (0.0, 0.3, 1.0):
            p, o = rng.uniform(size=shape) < density, rng.uniform(size=shape) < 0.5
            table = _table(p, o)
            assert (table.tp, table.fp, table.fn, table.tn) == (
                int(np.sum(p & o)), int(np.sum(p & ~o)), int(np.sum(~p & o)), int(np.sum(~p & ~o)))

    def test_contingency_counts_nonnegative(self):
        with pytest.raises(ValueError):
            ContingencyTable(tp=-1, fp=0, fn=0, tn=0)

    def test_scores_from_printed_formulas(self):
        table = ContingencyTable(tp=3, fp=1, fn=2, tn=0)
        assert csi(table) == pytest.approx(0.5)
        assert far(table) == pytest.approx(0.25)

    def test_perfect_forecast_scores(self):
        table = ContingencyTable(tp=5, fp=0, fn=0, tn=11)
        assert csi(table) == 1.0 and far(table) == 0.0
        assert pod(table) == 1.0 and pofd(table) == 0.0

    def test_degenerate_denominators(self):
        table = ContingencyTable(tp=0, fp=0, fn=3, tn=5)
        assert far(table) is None
        assert csi(table) == 0.0

    def test_far_is_not_pofd(self):
        table = ContingencyTable(tp=1, fp=1, fn=0, tn=8)
        assert far(table) == pytest.approx(0.5)
        assert pofd(table) == pytest.approx(1.0 / 9.0)
        assert far(table) != pofd(table)


class TestROC:
    def test_perfect_discrimination(self):
        obs = np.array([[0.0, 2.0], [2.0, 0.0]])
        scores = obs.copy()
        curve = roc_curve(scores, obs, tau_event=1.0, gammas=[0.5, 1.5])
        assert any(np.allclose(p, (0.0, 1.0)) for p in curve.points)
        assert auc(curve) == pytest.approx(1.0)

    def test_constant_scores_give_diagonal(self):
        rng = np.random.default_rng(9)
        obs = rng.uniform(0, 2, size=(4, 4))
        scores = np.full((4, 4), 0.7)
        curve = roc_curve(scores, obs, tau_event=1.0, gammas=[0.5])
        # single interior point where everything is forecast as an event
        assert np.allclose(curve.points[1], (1.0, 1.0))
        assert auc(curve) == pytest.approx(0.5)

    def test_points_match_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            obs = rng.uniform(0, 2, size=(5, 5))
            scores = rng.uniform(0, 2, size=(5, 5))
            if not ((obs >= 1.0).any() and (obs < 1.0).any()):
                continue
            gammas = [0.25, 0.75, 1.25, 1.75]
            curve = roc_curve(scores, obs, tau_event=1.0, gammas=gammas)
            expected = []
            for g in gammas:
                tp = int(((scores >= g) & (obs >= 1.0)).sum())
                fp = int(((scores >= g) & (obs < 1.0)).sum())
                fn = int(((scores < g) & (obs >= 1.0)).sum())
                tn = int(((scores < g) & (obs < 1.0)).sum())
                expected.append((fp / (fp + tn), tp / (tp + fn)))
            got = {tuple(np.round(p, 12)) for p in curve.points[1:-1]}
            want = {tuple(np.round(p, 12)) for p in expected}
            assert got == want

    def test_counting_matches_sweep_on_ties(self):
        # scores and observations on a 0.5 grid, gammas on a 0.25 grid: every
        # other gamma ties with scores, and default_gammas ties at 2.5 steps
        rng = np.random.default_rng(13)
        for _ in range(10):
            obs = np.round(rng.uniform(0, 10, size=(6, 7)) * 2) / 2
            scores = np.round(rng.uniform(0, 10, size=(6, 7)) * 2) / 2
            scores.flat[0], obs.flat[:2] = 10.0, (10.0, 0.0)  # both reach 10, obs is two-class
            for tau in (1.0, 2.5, 8.0):
                assert_matches_sweep(scores, obs, tau, np.arange(0, 10.25, 0.25))
                assert_matches_sweep(scores, obs, tau, default_gammas(scores, obs))

    def test_counting_matches_sweep_on_odd_gammas(self):
        rng = np.random.default_rng(14)
        obs = rng.uniform(0, 2, size=(8, 8))
        scores = np.round(rng.uniform(0, 2, size=(8, 8)) * 4) / 4
        for gammas in ([1.5, 0.25, 1.0, 0.5], [1.0, 1.0, 0.5, 1.0, 0.5], [np.inf], [-np.inf],
                       [np.inf, 0.75, -np.inf, np.inf], np.linspace(2, 0, 9)):
            assert_matches_sweep(scores, obs, 1.0, gammas)

    def test_counting_matches_sweep_with_nan(self):
        rng = np.random.default_rng(15)
        obs = rng.uniform(0, 2, size=(6, 6))
        obs[0, :2] = np.nan  # a NaN observation is a non-event
        scores = np.round(rng.uniform(0, 2, size=(6, 6)) * 2) / 2
        scores[1:4, 2] = np.nan
        scores[5, 5] = np.inf
        scores[4, 4] = -np.inf
        for gammas in ([0.5, 1.0], [np.nan], [1.5, np.nan, 0.0, np.nan], [-np.inf, np.nan, np.inf]):
            assert_matches_sweep(scores, obs, 1.0, gammas)
        assert_matches_sweep(np.full((6, 6), np.nan), obs, 1.0, [0.0, 1.0])

    def test_anchors_and_monotone_pofd(self):
        rng = np.random.default_rng(11)
        obs = rng.uniform(0, 2, size=(6, 6))
        scores = rng.uniform(0, 2, size=(6, 6))
        curve = roc_curve(scores, obs, tau_event=1.0, gammas=np.linspace(0, 2, 9))
        assert np.allclose(curve.points[0], (0.0, 0.0))
        assert np.allclose(curve.points[-1], (1.0, 1.0))
        assert np.all(np.diff(curve.pofd_values) >= 0)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_curve(np.ones((3, 3)), np.zeros((3, 3)), tau_event=1.0, gammas=[0.5])

    def test_empty_gammas(self):
        with pytest.raises(ValueError):
            roc_curve(np.ones((2, 2)), np.ones((2, 2)), 0.5, gammas=[])

    def test_auc_matches_independent_trapezoid(self):
        pts = np.array([(0.0, 0.0), (0.1, 0.4), (0.3, 0.7), (0.8, 0.9), (1.0, 1.0)])
        curve = ROCCurve(pts)
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            total += (b[0] - a[0]) * (a[1] + b[1]) / 2.0
        assert auc(curve) == pytest.approx(total, abs=1e-12)

    def test_auc_monotone_under_better_point(self):
        base = ROCCurve(np.array([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]))
        better = ROCCurve(np.array([(0.0, 0.0), (0.2, 0.8), (0.5, 0.85), (1.0, 1.0)]))
        assert auc(better) > auc(base)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            ROCCurve(np.array([(0.0, 0.0), (0.5, 1.2)]))
        with pytest.raises(ValueError):
            ROCCurve(np.array([(0.5, 0.5), (0.2, 0.6)]))


class TestLeadStratification:
    def test_single_frame_horizon(self):
        rng = np.random.default_rng(12)
        pred = rng.uniform(0, 2, size=(1, 4, 4))
        obs = rng.uniform(0, 2, size=(1, 4, 4))
        report = stratify_by_lead_time(pred, obs, step_minutes=30, taus=(1.0,))
        assert {r.lead_minutes for r in report.rows} == {30}

    def test_perfect_forecast_zero_mse(self):
        rng = np.random.default_rng(13)
        obs = rng.uniform(0, 2, size=(4, 3, 3))
        report = stratify_by_lead_time(obs, obs, step_minutes=30, taus=(1.0,))
        for row in report.select(metric="mse"):
            assert row.value == 0.0

    def test_default_task_leads(self):
        rng = np.random.default_rng(14)
        pred = rng.uniform(0, 2, size=(6, 4, 4))
        obs = rng.uniform(0, 2, size=(6, 4, 4))
        report = stratify_by_lead_time(pred, obs, step_minutes=30)
        leads = sorted({r.lead_minutes for r in report.rows})
        assert leads == [30, 60, 90, 120, 150, 180]
        report.validate()


class TestPercentileBins:
    def test_default_edges(self):
        assert DEFAULT_PERCENTILE_BINS == ((0, 20), (20, 40), (40, 60), (60, 80), (80, 95))

    def test_single_event_single_bin(self):
        # a lone event ranks at the 50th percentile, so exactly one bin
        labels = assign_percentile_bins([5.0])
        assert labels == [(40, 60)]

    def test_uniform_means_populations(self):
        means = np.arange(1, 101, dtype=float)
        labels = assign_percentile_bins(means)
        # independent rank oracle: event with rank r sits at 100 (r - 0.5) / n
        expected = {}
        for r in range(1, 101):
            p = 100.0 * (r - 0.5) / 100.0
            lab = None
            for low, high in DEFAULT_PERCENTILE_BINS:
                if low < p <= high:
                    lab = (low, high)
                    break
            expected[lab] = expected.get(lab, 0) + 1
        counts = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        assert counts == expected
        assert counts[(80, 95)] == 15
        assert counts[None] == 5  # the deliberate gap above the 95th

    def test_stratified_metrics(self):
        rng = np.random.default_rng(15)
        pairs = []
        for scale in np.linspace(0.5, 4.0, 10):
            obs = rng.uniform(0, scale, size=(2, 4, 4))
            pred = obs + rng.normal(0, 0.1, size=obs.shape).clip(-0.1, 0.1)
            pairs.append((pred.clip(0), obs))
        report = stratify_by_percentile_bin(pairs, step_minutes=30, taus=(1.0,))
        strata = {r.stratum for r in report.rows}
        assert strata <= {"p0-20", "p20-40", "p40-60", "p60-80", "p80-95"}
        assert len(strata) >= 3


class TestCatchments:
    def masks(self, h, w):
        left = np.zeros((h, w), dtype=bool)
        left[:, : w // 2] = True
        return {"west": left, "east": ~left}

    def test_full_grid_mask_equals_unmasked(self):
        rng = np.random.default_rng(16)
        pred = rng.uniform(0, 3, size=(2, 4, 4))
        obs = rng.uniform(0, 3, size=(2, 4, 4))
        gammas = np.linspace(0, 3, 9)
        full = {"all": np.ones((4, 4), dtype=bool)}
        report = evaluate_catchments(pred, obs, full, taus=(1.0,), gammas=gammas)
        for k in range(2):
            direct = auc(roc_curve(pred[k], obs[k], 1.0, gammas))
            row = report.select(lead_minutes=(k + 1) * 30, metric="auc")[0]
            assert row.value == pytest.approx(direct, abs=1e-12)

    def test_disjoint_masks_partition_pixels(self):
        masks = self.masks(4, 6)
        total = sum(int(m.sum()) for m in masks.values())
        assert total == 24
        assert not (masks["west"] & masks["east"]).any()

    def test_matches_loop_oracle_per_region(self):
        rng = np.random.default_rng(17)
        pred = rng.uniform(0, 10, size=(3, 4, 6))
        obs = rng.uniform(0, 10, size=(3, 4, 6))
        masks = self.masks(4, 6)
        gammas = np.linspace(0, 10, 11)
        report = evaluate_catchments(pred, obs, masks, taus=(1.0, 2.0, 8.0), gammas=gammas)
        for name, mask in masks.items():
            for k in range(3):
                for tau in (1.0, 2.0, 8.0):
                    p, o = pred[k][mask], obs[k][mask]
                    events = o >= tau
                    if events.all() or not events.any():
                        expected = None
                    else:
                        expected = auc(roc_curve(p, o, tau, gammas))
                    row = report.select(
                        lead_minutes=(k + 1) * 30, threshold=tau, stratum=name
                    )[0]
                    if expected is None:
                        assert row.value is None
                    else:
                        assert row.value == pytest.approx(expected, abs=1e-12)

    def test_empty_mask_undefined(self):
        pred = np.ones((1, 3, 3))
        obs = np.ones((1, 3, 3))
        report = evaluate_catchments(
            pred, obs, {"void": np.zeros((3, 3), dtype=bool)}, taus=(1.0,)
        )
        assert all(r.value is None for r in report.rows)


class TestReports:
    def sample_report(self):
        report = MetricReport()
        report.add(lead_minutes=30, metric="mse", value=1.25, seed="0")
        report.add(lead_minutes=60, metric="mse", value=2.5, seed="0")
        report.add(lead_minutes=30, metric="far", value=None, threshold=8.0, seed="0")
        return report

    def test_csv_round_trip(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "report.csv"
        report.to_csv(path, comments=["config seed = 3"])
        back = MetricReport.from_csv(path)
        assert back.rows == report.rows

    def test_text_rendering_marks_undefined(self):
        text = self.sample_report().to_text()
        assert "undefined" in text

    def test_validation_catches_bad_range(self):
        report = MetricReport()
        report.add(lead_minutes=30, metric="csi", value=1.5)
        with pytest.raises(ValueError):
            report.validate()

    def test_validation_catches_lead_order(self):
        report = MetricReport()
        report.add(lead_minutes=60, metric="mse", value=1.0)
        report.add(lead_minutes=30, metric="mse", value=1.0)
        with pytest.raises(ValueError):
            report.validate()

    def test_aggregate_mean_std(self):
        runs = []
        for seed, offset in enumerate((0.0, 1.0, 2.0)):
            r = MetricReport()
            r.add(lead_minutes=30, metric="mse", value=1.0 + offset, seed=str(seed))
            runs.append(r)
        agg = aggregate_over_seeds(runs)
        mean_row = [r for r in agg.rows if r.seed == "mean"][0]
        std_row = [r for r in agg.rows if r.seed == "std"][0]
        assert mean_row.value == pytest.approx(2.0)
        assert std_row.value == pytest.approx(1.0)

    def test_aggregate_single_seed_std_undefined(self):
        r = MetricReport()
        r.add(lead_minutes=30, metric="mse", value=1.0, seed="0")
        agg = aggregate_over_seeds([r])
        std_row = [x for x in agg.rows if x.seed == "std"][0]
        assert std_row.value is None

    def test_aggregate_propagates_undefined(self):
        a = MetricReport()
        a.add(lead_minutes=30, metric="far", value=0.5, threshold=1.0, seed="0")
        b = MetricReport()
        b.add(lead_minutes=30, metric="far", value=None, threshold=1.0, seed="1")
        agg = aggregate_over_seeds([a, b])
        mean_row = [x for x in agg.rows if x.seed == "mean"][0]
        assert mean_row.value is None

    def test_default_gammas_cover_range(self):
        g = default_gammas(np.array([0.0, 5.0]), np.array([1.0, 3.0]))
        assert g[0] == 0.0 and g[-1] == pytest.approx(5.0)
