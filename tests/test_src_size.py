"""The line count of `src/` is tracked like a benchmark.

Growth past `MAX_SRC_LINES` fails tier-1, so it needs a visible edit of that
number here, explained in CHANGES.md.
"""

from pathlib import Path

# Total of `wc -l src/lionprompt/*.py`.
MAX_SRC_LINES = 2374

SRC = Path(__file__).resolve().parent.parent / "src" / "lionprompt"


def test_src_stays_within_its_line_budget():
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert counts and total <= MAX_SRC_LINES, (
        f"src/lionprompt/*.py has {total} lines, budget {MAX_SRC_LINES}: {counts}")
