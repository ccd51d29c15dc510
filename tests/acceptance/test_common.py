"""The shared experiment helpers: table rendering and the bulk-TX row."""

from repro.core import NormanOS
from repro.experiments.common import fmt_table, run_bulk_tx


class TestCommon:
    def test_fmt_table_renders(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = fmt_table(rows)
        assert "a" in text and "10" in text and "0.125" in text
        assert fmt_table([]) == "(no rows)"

    def test_fmt_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        assert "b" not in fmt_table(rows, columns=["a"])

    def test_run_bulk_tx_returns_complete_row(self):
        row = run_bulk_tx(NormanOS, payload_len=500, count=20)
        assert row["delivered"] == 20
        assert row["goodput_gbps"] > 0
        assert row["app_cpu_ns_per_pkt"] > 0
