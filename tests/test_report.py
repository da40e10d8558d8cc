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
        release = tiny_bench["paper"]["experiments"]["release"]
        tdb, xdb = release["TDB"], release["XDB"]
        assert f"| untrusted flushes | {tdb['flushes']} | 96 |" in text
        assert f"| TR flushes | {tdb['tr_writes']} | 19 |" in text
        for kind in ("release", "bind"):
            assert f"| {kind} commit I/O |" in text
            assert f"| {kind} flushes |" in text
        assert f"| release flushes | {tdb['flushes']} | {xdb['flushes']} |" in text
        # §9.5.2: both systems stored something
        assert release["tdb_live_bytes"] > 0 and xdb["stored_bytes"] > 0
