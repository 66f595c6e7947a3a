"""Experiment report registry.

Benchmarks record the tables they reproduce here; the benchmark suite's
conftest dumps everything at the end of the run (so ``bench_output.txt``
contains the reproduced tables, not just timings), and each table is also
written to ``bench_results/<experiment_id>.txt`` for EXPERIMENTS.md.  An
experiment's file is truncated on its first record of the session and
appended to after that, so a session rewrites only the experiments it
ran and every other record survives.
"""

from __future__ import annotations

import os
from typing import List, Set, Tuple

__all__ = ["record", "render_all", "clear", "RESULTS_DIR"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                           "bench_results")

_reports: List[Tuple[str, str, str]] = []
#: experiment ids already written this session (their files truncated)
_written: Set[str] = set()


def record(experiment_id: str, title: str, text: str) -> None:
    """Register one experiment's reproduced table/figure text."""
    _reports.append((experiment_id, title, text))
    results_dir = os.path.abspath(RESULTS_DIR)
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{experiment_id}.txt")
    mode = "a" if experiment_id in _written else "w"
    _written.add(experiment_id)
    with open(path, mode) as fh:
        fh.write(f"== {title} ==\n{text}\n\n")


def render_all() -> str:
    """Everything recorded this session, for the terminal summary."""
    blocks = []
    for experiment_id, title, text in _reports:
        blocks.append(f"[{experiment_id}] {title}\n{text}")
    return "\n\n".join(blocks)


def clear() -> None:
    """Start a new session: forget what was recorded and written."""
    _reports.clear()
    _written.clear()
