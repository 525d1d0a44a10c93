"""The reduction's hard direction over every small Numberlink source in
four families: the Wataridori solver must decide each reduction exactly
as the source is decided, and every solution it finds must unlift to a
solution of the source.  The 3x3 sources with at most three pairs reduce
with k = 1; the 3x3 sources with four pairs and the 2x5 sources with
five, the largest pair count k = 2 serves, reduce with k = 2.

Too slow for the test suite; run it from the repository root:

    PYTHONPATH=src:tests python tests/hard_direction.py
"""

import time

from test_acceptance import check_reduction_decides, small_sources, sources
from watarilink import wataridori as wd


# Per family: its sources, how many are unsatisfiable, the most nodes any
# one reduction takes and the nodes of all of them, pinned so that a weaker
# cut fails here rather than only slowing down, and a change of pairing
# order shows.  With k = 2 the most is an unsatisfiable reduction's, walked
# whole, so the step order does not move it.
FAMILIES = [("3x3, p <= 2", lambda: small_sources(3, 3, 2),
             (414, 74, 3557, 411811)),
            ("3x3, p = 3", lambda: sources(3, 3, 3),
             (1260, 918, 3549, 1069654)),
            ("3x3, p = 4", lambda: sources(3, 3, 4),
             (945, 907, 3734373, 169490058)),
            ("2x5, p = 5", lambda: sources(2, 5, 5),
             (945, 937, 1331042, 14131825))]


def main():
    for name, family, want in FAMILIES:
        start = time.perf_counter()
        results = [check_reduction_decides(g) for g in family()]
        unsat = sum(r.status == wd.UNSAT for r in results)
        most = max(r.nodes for r in results)
        total = sum(r.nodes for r in results)
        print(f"{name}: {len(results)} sources, {unsat} unsat, "
              f"at most {most} nodes per reduction, {total} in all, "
              f"{time.perf_counter() - start:.1f}s", flush=True)
        assert (len(results), unsat, most, total) == want


if __name__ == "__main__":
    main()
