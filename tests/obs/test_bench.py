"""The BENCH_pipeline.json exporter: collection, schema, validation."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    collect_bench_snapshot,
    validate_bench_snapshot,
    write_bench_snapshot,
)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """One reduced-scale telemetry pass shared by the module's tests."""
    import os

    # Pin a scratch cache and force it *on*: the stage-mix and counter
    # assertions need real cache traffic even when the surrounding CI
    # job runs the suite with REPRO_CACHE=0.
    cache_dir = tmp_path_factory.mktemp("bench-cache")
    saved = {
        key: os.environ.get(key) for key in ("REPRO_CACHE_DIR", "REPRO_CACHE")
    }
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_CACHE"] = "1"
    try:
        return collect_bench_snapshot(
            {
                "fig2_loads": 3_000,
                "fig5_branches": 3_000,
                "design_orders_max": 4,
                "kernel_bits": 20_000,
            }
        )
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class TestCollection:
    def test_snapshot_is_schema_valid(self, snapshot):
        validate_bench_snapshot(snapshot)  # raises on failure

    def test_snapshot_covers_figures_and_design(self, snapshot):
        names = {entry["name"] for entry in snapshot["timings"]}
        assert "fig2.gcc" in names
        assert "fig5.gsm" in names
        assert any(name.startswith("design.order") for name in names)

    def test_snapshot_stage_mix(self, snapshot):
        stages = {entry["stage"] for entry in snapshot["stages"]}
        # The figure drivers must exercise the full production pipeline
        # (the direct construction; the paper's chain runs only when a
        # caller reads a state count).
        for expected in (
            "design.flow",
            "design.cover",
            "design.direct",
            "sim.predictor",
            "trace.generate",
            "parallel.task",
        ):
            assert expected in stages, f"missing stage {expected}"

    def test_snapshot_metrics_include_cache_counters(self, snapshot):
        assert any(key.startswith("cache.") for key in snapshot["metrics"])

    def test_tracing_left_disarmed(self, snapshot):
        from repro.obs.tracing import spans, tracing_armed

        assert not tracing_armed()
        assert spans() == []

    def test_snapshot_round_trips_through_json(self, snapshot, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        write_bench_snapshot(str(path), snapshot)
        loaded = json.loads(path.read_text())
        validate_bench_snapshot(loaded)
        assert loaded["schema"] == BENCH_SCHEMA


class TestValidation:
    def _minimal(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "generated_by": "test",
            "python": "3.11.0",
            "platform": "test",
            "scale": {"fig2_loads": 1},
            "timings": [{"name": "fig2.gcc", "seconds": 0.5}],
            "stages": [
                {"stage": "design.flow", "calls": 1, "total_s": 0.1}
            ],
            "metrics": {"cache.hits": 1},
        }

    def test_minimal_document_passes(self):
        validate_bench_snapshot(self._minimal())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("schema"),
            lambda d: d.__setitem__("schema", "repro.bench/999"),
            lambda d: d.__setitem__("timings", []),
            lambda d: d.__setitem__("stages", []),
            lambda d: d["timings"].append({"name": "x", "seconds": -1}),
            lambda d: d["stages"].append({"stage": "x", "calls": 0, "total_s": 0}),
            lambda d: d.__setitem__("metrics", {"cache.hits": "many"}),
            lambda d: d.__setitem__("scale", {"fig2_loads": 0}),
            lambda d: d.pop("python"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        document = self._minimal()
        mutate(document)
        with pytest.raises(ValueError):
            validate_bench_snapshot(document)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_bench_snapshot([1, 2, 3])
