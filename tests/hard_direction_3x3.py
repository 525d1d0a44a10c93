"""The reduction's hard direction over every 3x3 Numberlink source with at
most three pairs: the Wataridori solver must decide each reduction exactly
as the source is decided, and every solution it finds must unlift to a
solution of the source.

Too slow for the test suite; run it from the repository root:

    PYTHONPATH=src:tests python tests/hard_direction_3x3.py
"""

import time

from test_acceptance import check_reduction_decides, small_sources, sources
from watarilink import wataridori as wd


# Per family: its sources, how many are unsatisfiable, and the most nodes
# any one reduction takes, pinned so that a weaker cut fails here rather
# than only slowing down.
FAMILIES = [("p <= 2", lambda: small_sources(3, 3, 2), (414, 74, 3557)),
            ("p = 3", lambda: sources(3, 3, 3), (1260, 918, 3549))]


def main():
    for name, family, want in FAMILIES:
        start = time.perf_counter()
        results = [check_reduction_decides(g) for g in family()]
        unsat = sum(r.status == wd.UNSAT for r in results)
        most = max(r.nodes for r in results)
        print(f"3x3, {name}: {len(results)} sources, {unsat} unsat, "
              f"at most {most} nodes per reduction, "
              f"{sum(r.nodes for r in results)} in all, "
              f"{time.perf_counter() - start:.1f}s", flush=True)
        assert (len(results), unsat, most) == want


if __name__ == "__main__":
    main()
