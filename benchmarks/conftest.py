"""Benchmark-suite plumbing: dump reproduced tables at session end.

Records under ``bench_results/`` are never wiped wholesale: each bench
overwrites only its own ``BENCH_<id>.json``, and ``report.record``
truncates an experiment's ``<id>.txt`` on its first write of the session,
so the records of benches this session did not run survive.
"""

from repro.eval import report


def pytest_sessionstart(session):
    report.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    text = report.render_all()
    if not text:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for line in text.split("\n"):
        terminalreporter.write_line(line)
