"""Unit tests for SVG charts and the FM-sketch baseline."""

import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from lib.figplot import LineChart
from lib.sketches import FMSketch, SketchBaseline
from repro.errors import ConfigurationError, QueryError
from repro.geometry import BBox
from repro.trajectories import distinct_visitors, plan_trip


# ----------------------------------------------------------------------
# LineChart
# ----------------------------------------------------------------------
class TestLineChart:
    def test_render_valid_svg(self, tmp_path):
        chart = LineChart(title="t", x_label="x", y_label="y")
        chart.add_series("a", [1, 2, 3], [0.5, 0.3, 0.1])
        chart.add_series("b", [1, 2, 3], [0.6, 0.4, 0.2])
        path = chart.render(tmp_path / "chart.svg")
        root = ElementTree.parse(path).getroot()
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert body.count("<polyline") == 2
        assert ">a<" in body and ">b<" in body  # legend labels

    def test_log_x_axis(self, tmp_path):
        chart = LineChart(x_log=True)
        chart.add_series("s", [0.01, 0.1, 1.0], [3, 2, 1])
        path = chart.render(tmp_path / "log.svg")
        assert path.exists()

    def test_log_x_rejects_nonpositive(self):
        chart = LineChart(x_log=True)
        with pytest.raises(ConfigurationError):
            chart.add_series("s", [0.0, 1.0], [1, 2])

    def test_nan_points_dropped(self, tmp_path):
        chart = LineChart()
        chart.add_series("s", [1, 2, 3], [1.0, float("nan"), 3.0])
        body = chart.render(tmp_path / "nan.svg").read_text()
        assert body.count("<circle") == 2

    def test_all_nan_series_skipped(self, tmp_path):
        chart = LineChart()
        chart.add_series("empty", [1, 2], [float("nan")] * 2)
        chart.add_series("real", [1, 2], [1.0, 2.0])
        body = chart.render(tmp_path / "skip.svg").read_text()
        assert body.count("<polyline") == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            LineChart().add_series("s", [1, 2], [1])

    def test_empty_chart_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LineChart().render(tmp_path / "empty.svg")

    def test_constant_series_renders(self, tmp_path):
        chart = LineChart()
        chart.add_series("flat", [1, 2, 3], [5.0, 5.0, 5.0])
        assert chart.render(tmp_path / "flat.svg").exists()


# ----------------------------------------------------------------------
# FM sketch
# ----------------------------------------------------------------------
class TestFMSketch:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FMSketch(planes=0)
        with pytest.raises(ConfigurationError):
            FMSketch(bits=4)

    def test_empty_estimate_small(self):
        assert FMSketch().estimate() < 2.0

    def test_duplicates_collapse(self):
        sketch = FMSketch(planes=32)
        for _ in range(100):
            sketch.add("same-object")
        assert sketch.estimate() < 5.0

    def test_estimate_scales_with_cardinality(self):
        small = FMSketch(planes=32)
        large = FMSketch(planes=32)
        for i in range(20):
            small.add(i)
        for i in range(2000):
            large.add(i)
        assert large.estimate() > 5 * small.estimate()

    def test_estimate_accuracy(self):
        sketch = FMSketch(planes=64)
        n = 500
        for i in range(n):
            sketch.add(("obj", i))
        assert sketch.estimate() == pytest.approx(n, rel=0.5)

    def test_merge_is_union(self):
        left = FMSketch(planes=32)
        right = FMSketch(planes=32)
        for i in range(100):
            left.add(i)
            right.add(i + 50)  # 50 overlap
        merged = left | right
        assert merged.estimate() >= max(left.estimate(), right.estimate())

    def test_merge_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            FMSketch(planes=8).merge(FMSketch(planes=16))

    def test_storage(self):
        assert FMSketch(planes=16).storage_bytes == 128


# ----------------------------------------------------------------------
# Sketch baseline
# ----------------------------------------------------------------------
class TestSketchBaseline:
    def test_validation(self, grid_domain):
        with pytest.raises(ConfigurationError):
            SketchBaseline(grid_domain, horizon=0)
        with pytest.raises(ConfigurationError):
            SketchBaseline(grid_domain, horizon=100, time_bins=0)

    def test_query_before_ingest(self, grid_domain):
        baseline = SketchBaseline(grid_domain, horizon=100)
        with pytest.raises(QueryError):
            baseline.distinct_count(BBox(0, 0, 5, 5), 0, 50)

    def test_distinct_count_tracks_ground_truth(
        self, organic_domain, workload
    ):
        baseline = SketchBaseline(
            organic_domain, horizon=workload.horizon,
            time_bins=24, planes=48,
        )
        baseline.ingest_trips(workload.trips)
        box = BBox(2, 2, 8, 8)
        t1, t2 = 0.2 * workload.horizon, 0.6 * workload.horizon
        estimate = baseline.distinct_count(box, t1, t2)
        region = organic_domain.junctions_in_bbox(box)
        truth = distinct_visitors(workload.trips, region, t1, t2)
        if truth >= 20:
            assert estimate == pytest.approx(truth, rel=0.8)

    def test_pass_through_objects_counted_once(self, grid_domain):
        """The sketch's selling point: transiting objects are distinct-
        counted once even though they enter several cells."""
        a = grid_domain.nearest_junction((0, 0))
        b = grid_domain.nearest_junction((10, 0))
        trips = [
            plan_trip(grid_domain, i, a, b, 100.0 * i, 0.01, 50.0)
            for i in range(30)
        ]
        baseline = SketchBaseline(
            grid_domain, horizon=5000.0, time_bins=8, planes=64
        )
        baseline.ingest_trips(trips)
        corridor = BBox(0, -0.5, 10, 0.5)
        estimate = baseline.distinct_count(corridor, 0.0, 5000.0)
        assert estimate == pytest.approx(30, rel=0.6)

    def test_empty_region_zero(self, grid_domain):
        baseline = SketchBaseline(grid_domain, horizon=100)
        baseline.ingest_trips([])
        assert baseline.distinct_count(BBox(0, 0, 0.1, 0.1), 0, 50) == 0.0

    def test_inverted_interval_rejected(self, grid_domain):
        baseline = SketchBaseline(grid_domain, horizon=100)
        baseline.ingest_trips([])
        with pytest.raises(QueryError):
            baseline.distinct_count(BBox(0, 0, 5, 5), 50, 10)

    def test_storage_accounting(self, grid_domain):
        a = grid_domain.nearest_junction((0, 0))
        b = grid_domain.nearest_junction((5, 5))
        trips = [plan_trip(grid_domain, 0, a, b, 0.0, 0.01, 50.0)]
        baseline = SketchBaseline(grid_domain, horizon=5000.0, planes=16)
        baseline.ingest_trips(trips)
        assert baseline.storage_bytes == baseline.sketch_count * 128
