"""Tests for the ASan-style report renderer."""

from repro import ProgramBuilder, Session
from repro.reporting import format_all_reports, format_report
from repro.sanitizers import GiantSan, ASan, LFP


def run_overflow(tool, offset=100):
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("buf", 100)
        f.store("buf", offset, 4, 7)
    session = Session(tool)
    session.run(b.build())
    return session.sanitizer


class TestFormatReport:
    def test_contains_headline(self):
        san = run_overflow("GiantSan")
        text = format_report(san, san.log.reports[0])
        assert "ERROR: GiantSan: heap-buffer-overflow" in text
        assert "WRITE of size" in text
        assert "SUMMARY: GiantSan: heap-buffer-overflow" in text

    def test_allocation_context(self):
        san = run_overflow("GiantSan")
        text = format_report(san, san.log.reports[0])
        assert "AFTER a 100-byte region" in text
        assert "allocation #1" in text

    def test_underflow_context(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("buf", 64)
            f.load("x", "buf", -8, 8)
        session = Session("ASan")
        session.run(b.build())
        text = format_report(session.sanitizer, session.sanitizer.log.reports[0])
        assert "BEFORE a 64-byte region" in text

    def test_shadow_dump_present_for_shadow_tools(self):
        san = run_overflow("ASan")
        text = format_report(san, san.log.reports[0])
        assert "Shadow bytes around the buggy address" in text
        assert "=>" in text

    def test_giantsan_dump_uses_folded_labels(self):
        san = run_overflow("GiantSan")
        text = format_report(san, san.log.reports[0])
        assert "(4-part)" in text or "(0)" in text or "err:" in text

    def test_no_shadow_dump_for_lfp(self):
        # LFP rounds 100 bytes up to its 112-byte size class
        san = run_overflow("LFP", offset=112)
        text = format_report(san, san.log.reports[0])
        assert "Shadow bytes" not in text

    def test_format_all_reports_empty(self):
        san = GiantSan()
        assert "no errors detected" in format_all_reports(san)

    def test_format_all_reports_multiple(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("buf", 64)
            f.load("x", "buf", 64, 4)  # overflow
            f.free("buf")
            f.load("y", "buf", 0, 4)  # use-after-free
        session = Session("GiantSan")
        session.run(b.build())
        text = format_all_reports(session.sanitizer)
        assert text.count("SUMMARY:") == 2
        assert "use-after-free" in text
