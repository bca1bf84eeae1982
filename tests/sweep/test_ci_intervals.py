"""Student-t confidence intervals.

``ci95`` is the 95 % half-width with the Student-t critical value at n-1
degrees of freedom.  The normal z=1.96 would understate it by up to 2× at
the 3–5 replicates sweeps actually run.
"""

import math

import pytest

from repro.sweep import Sweep, t_critical
from repro.sweep.cells import arithmetic_cell
from repro.sweep.result import MetricStats, SweepResult, summarise


class TestTCritical:
    def test_exact_table_values(self):
        assert t_critical(1) == 12.706
        assert t_critical(2) == 4.303
        assert t_critical(4) == 2.776
        assert t_critical(9) == 2.262
        assert t_critical(30) == 2.042
        assert t_critical(120) == 1.980

    def test_between_rows_rounds_df_down(self):
        # 31..39 use the df=30 row, 45 the df=40 row — conservative
        # (never narrower than the true t interval).
        assert t_critical(31) == t_critical(39) == 2.042
        assert t_critical(45) == 2.021
        assert t_critical(100) == 2.000

    def test_large_samples_converge_to_z(self):
        assert t_critical(121) == 1.96
        assert t_critical(10**6) == 1.96

    def test_strictly_decreasing_toward_z(self):
        values = [t_critical(df) for df in range(1, 31)]
        assert values == sorted(values, reverse=True)
        assert all(v > 1.96 for v in values)

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError):
            t_critical(0)
        with pytest.raises(ValueError):
            t_critical(-3)


class TestSummarise:
    def test_ci95_is_student_t(self):
        stats = summarise([1.0, 2.0, 3.0])
        assert stats.ci95 == pytest.approx(4.303 / 3**0.5)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_ci95_uses_n_minus_1_dof(self, n):
        values = [float(i * i) for i in range(n)]
        stats = summarise(values)
        sem = stats.std / math.sqrt(n)
        assert stats.ci95 == pytest.approx(t_critical(n - 1) * sem)

    def test_single_sample_has_no_interval(self):
        stats = summarise([5.0])
        assert stats.ci95 == 0.0 and stats.std == 0.0

    def test_large_n_intervals_converge(self):
        values = [float(i % 7) for i in range(200)]
        stats = summarise(values)
        z_interval = 1.96 * stats.std / math.sqrt(200)
        assert stats.ci95 == pytest.approx(z_interval, rel=0.011)
        assert stats.ci95 >= z_interval


class TestRoundTrip:
    def test_to_dict_carries_t_interval(self):
        sweep = Sweep(base={"k": 7}, seeds=3).axis("x", [1]).run(
            arithmetic_cell
        )
        stats = sweep.to_dict()["cells"][0]["stats"]["value"]
        assert set(stats) == {"mean", "std", "ci95", "n", "min", "max"}
        assert stats["ci95"] == pytest.approx(
            t_critical(2) * stats["std"] / 3**0.5
        )

    def test_from_dict_recomputes_stats_for_old_payloads(self):
        """Archives written with the old z-based ``ci95`` and a separate
        ``ci95_t`` still load, and their recomputed stats quote t."""
        sweep = Sweep(base={"k": 7}, seeds=2).axis("x", [1]).run(
            arithmetic_cell
        )
        data = sweep.to_dict()
        for raw in data["cells"]:
            for stats in raw["stats"].values():
                stats["ci95_t"] = stats["ci95"]
                stats["ci95"] = 1.96 * stats["std"] / 2**0.5
        restored = SweepResult.from_dict(data)
        assert restored.to_dict() == sweep.to_dict()

    def test_metric_stats_default_keeps_old_constructors_working(self):
        stats = MetricStats(mean=1.0, std=0.0, ci95=0.0, n=1, min=1.0, max=1.0)
        assert stats.ci95 == 0.0 and not hasattr(stats, "ci95_t")
