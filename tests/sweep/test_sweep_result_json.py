"""SweepResult aggregation statistics and JSON round trip."""

import pytest

from repro.sweep import (
    CellResult,
    CellRun,
    SweepResult,
    summarise,
)


def make_result(keep_result=False):
    cells = [
        CellResult(
            params={"x": x},
            runs=[
                CellRun(
                    replicate=rep,
                    seed=1000 + 10 * x + rep,
                    metrics={"value": float(x * 10 + rep)},
                    violations=[],
                    result={"payload": x} if keep_result else None,
                )
                for rep in range(3)
            ],
        )
        for x in (1, 2)
    ]
    return SweepResult(
        base={"fixed": 7},
        axes={"x": [1, 2]},
        seeds=3,
        base_seed=0,
        cells=cells,
    )


class TestStats:
    def test_mean_std_ci(self):
        stats = make_result().select(x=1).stats("value")
        assert stats.mean == pytest.approx(11.0)
        assert stats.n == 3
        assert stats.min == 10.0 and stats.max == 12.0
        assert stats.std == pytest.approx(1.0)
        assert stats.ci95 == pytest.approx(4.303 / 3**0.5)  # t at df=2

    def test_single_sample_has_zero_spread(self):
        stats = summarise([4.2])
        assert stats.mean == 4.2 and stats.std == 0.0 and stats.ci95 == 0.0

    def test_unknown_metric_raises_with_known_names(self):
        with pytest.raises(KeyError, match="value"):
            make_result().select(x=1).stats("nope")


class TestSelect:
    def test_select_unique(self):
        assert make_result().select(x=2).params == {"x": 2}

    def test_select_no_match(self):
        with pytest.raises(KeyError, match="no cell"):
            make_result().select(x=99)

    def test_select_ambiguous(self):
        with pytest.raises(KeyError, match="2 cells match"):
            make_result().select()  # no coordinates matches every cell

    def test_column(self):
        pairs = make_result().column("value")
        assert [(p["x"], v) for p, v in pairs] == [(1, 11.0), (2, 21.0)]


class TestJsonRoundTrip:
    def test_lossless(self):
        result = make_result(keep_result=True)
        clone = SweepResult.from_json(result.to_json())
        assert clone.to_json() == result.to_json()
        assert clone.select(x=1).runs[0].result == {"payload": 1}

    def test_json_carries_stats_blocks(self):
        data = make_result().to_dict()
        assert data["cells"][0]["stats"]["value"]["n"] == 3

    def test_write_read(self, tmp_path):
        path = tmp_path / "sweep.json"
        result = make_result()
        result.write_json(str(path))
        assert SweepResult.read_json(str(path)).to_json() == result.to_json()

    def test_unsupported_schema_version(self):
        data = make_result().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            SweepResult.from_dict(data)
