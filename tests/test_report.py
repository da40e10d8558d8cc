"""The paper phase's markdown report (``python -m repro.bench paper``)."""

import pytest


class TestReport:
    def test_paper_constants_complete(self):
        from repro.bench.report import _PAPER_FIG12

        assert sum(_PAPER_FIG12.values()) == 99  # paper's rounded percentages

    @pytest.mark.slow
    def test_report_generates_markdown(self, tiny_bench):
        from repro.bench.report import markdown

        text = markdown(tiny_bench["paper"])
        assert "Figure 10" in text
        assert "Figure 11" in text
        assert "Figure 12" in text
        assert "| read | 781 | 781 |" in text
        assert "TDB" in text and "XDB" in text
