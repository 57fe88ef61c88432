"""Shared helpers for the experiment-regeneration benches.

Every module in this directory regenerates one table or figure of the
paper.  Each bench

* computes the experiment once (module-scoped fixtures),
* prints the same rows/series the paper reports (run with ``-s`` to
  see them),
* asserts the paper's *shape* (orderings, ratios, crossovers).

Performance is not measured here: ``benchmarks/e2e/run.py`` is the one
performance benchmark.

Absolute values come from the simulated substrate, so they are not
expected to match the paper's testbed numbers; EXPERIMENTS.md records
the paper-vs-measured comparison.
"""

from __future__ import annotations


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render one paper-style table to stdout."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
              for i, h in enumerate(headers)]
    print(f"\n=== {title} ===")
    print("".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("-" * sum(widths))
    for row in rows:
        print("".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()
