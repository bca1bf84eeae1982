"""Golden report fixture: the markdown bytes must never drift.

``golden_report.md`` pins the rendered markdown of a small Figure 4(a)
sweep (600-round trace, two consumer rates).  The same bytes must come
out of a serial run, a pooled run, and a dispatched run — the
determinism contract of :mod:`repro.report.render`: the markdown holds
only deterministic sections, so execution strategy cannot show through.

If a change is *supposed* to alter the report format, regenerate the
fixture (run this file with ``REGEN_GOLDEN_REPORT=1``) and say so in the
commit message.
"""

import os
import pathlib

import pytest

import repro.analysis.experiments as exp
from repro.report import ReportBuilder
from repro.sweep import RunOptions
from repro.workload.game import GameConfig, generate_game_trace

GOLDEN = pathlib.Path(__file__).parent / "golden_report.md"

ROUNDS = 600
SEED = 2002
BUFFER = 15
RATES = (80, 30)


def build_markdown(run: RunOptions = RunOptions()) -> str:
    trace = generate_game_trace(GameConfig(rounds=ROUNDS, seed=SEED))
    builder = ReportBuilder(
        "Golden report — Figure 4(a), 600-round trace",
        subtitle="Fixture for tests/report/test_golden_report.py.",
    )
    exp.figure_4a(
        trace, buffer_size=BUFFER, rates=RATES, run=run, report=builder
    )
    return builder.to_markdown()


class TestGoldenReport:
    def test_serial_matches_fixture(self):
        markdown = build_markdown()
        if os.environ.get("REGEN_GOLDEN_REPORT"):
            GOLDEN.write_text(markdown, encoding="utf-8")
        assert markdown == GOLDEN.read_text(encoding="utf-8")

    def test_pooled_run_is_byte_identical(self):
        markdown = build_markdown(RunOptions(workers=2))
        assert markdown == GOLDEN.read_text(encoding="utf-8")

    def test_dispatched_run_is_byte_identical(self, tmp_path):
        markdown = build_markdown(
            RunOptions(dispatch="local-pool", cache=str(tmp_path / "cache"))
        )
        assert markdown == GOLDEN.read_text(encoding="utf-8")

    def test_warm_cache_rerun_is_byte_identical(self, tmp_path):
        run = RunOptions(dispatch="local-pool", cache=str(tmp_path / "cache"))
        first = build_markdown(run)
        warm = build_markdown(run)
        assert first == warm == GOLDEN.read_text(encoding="utf-8")
