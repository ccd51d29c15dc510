"""The quick report runs every experiment at reduced size."""

from repro.experiments.report import quick_report


class TestReport:
    def test_quick_report_contains_all_sections(self):
        text = quick_report()
        for marker in ("E1", "E2", "E8", "F1", "kopi"):
            assert marker in text
