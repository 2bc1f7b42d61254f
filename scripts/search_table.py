"""Print the longest leading-Dicksonian sequence per rank-one algebra and
degree bound, as the Markdown table in README "Tests".

    python scripts/search_table.py

Each row runs search_leading_dicksonian with the window's pair count as its
length bound, so the search is exhaustive and the length is the longest
there is, and re-checks the answer with check_leading_dicksonian.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from gradedlie import check_leading_dicksonian, search_leading_dicksonian  # noqa: E402
from gradedlie.algebras import elements_in_window, parse_algebra  # noqa: E402

ROWS = (
    ("witt", (3, 4, 5, 6, 7, 8, 10)),
    ("virasoro", (4, 6, 8)),
    ("w1", (4, 6, 8)),
    ("witt+", (5, 6, 10, 12)),
)


def table(max_degree=None):
    """The table's lines, header included; with max_degree, only the rows
    whose degree bound is at most max_degree."""
    lines = ["| Algebra | Degree bound | Elements | Pairs | Longest |",
             "| --- | ---: | ---: | ---: | ---: |"]
    for name, bounds in ROWS:
        alg = parse_algebra(name)
        for d in bounds:
            if max_degree is not None and d > max_degree:
                continue
            n = len(elements_in_window(alg, -d, d))
            pairs = n * (n + 1) // 2
            seq = search_leading_dicksonian(alg, d, pairs)
            if not check_leading_dicksonian(alg, seq).verdict:
                raise RuntimeError("%s at degree bound %d: not leading-Dicksonian" % (name, d))
            lines.append("| `%s` | %d | %d | %d | %d |" % (name, d, n, pairs, len(seq)))
    return lines


if __name__ == "__main__":
    print("\n".join(table()))
