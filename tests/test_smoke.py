"""End-to-end smoke test at tiny scale: the whole dataflow runs and
produces sane shapes. Detailed behaviour is covered by the per-module
test files; this exists so a pipeline-level breakage fails fast."""
from repro.eval import harness


def test_missing_tracks_smoke(spark):
    prep = harness.prepare(spark, "lyft", scale=0.05)
    out = harness.run_missing_tracks_prepared(spark, prep, "lyft")
    assert out["dataset"] == "lyft"
    assert out["fixy_p10"] is not None
    assert 0.0 <= out["fixy_p10"] <= 1.0
