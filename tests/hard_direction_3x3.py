"""The reduction's hard direction over every 3x3 Numberlink source with at
most two pairs: the Wataridori solver must decide each reduction exactly
as the source is decided, and every solution it finds must unlift to a
solution of the source.

Too slow for the test suite; run it from the repository root:

    PYTHONPATH=src:tests python tests/hard_direction_3x3.py
"""

import time

from test_acceptance import check_reduction_decides, small_sources
from watarilink import wataridori as wd


# The most nodes any one reduction takes, pinned so that a weaker cut
# fails here rather than only slowing down.
MAX_NODES = 3557


def main():
    start = time.perf_counter()
    sources = small_sources(3, 3, 2)
    results = [check_reduction_decides(g) for g in sources]
    unsat = sum(r.status == wd.UNSAT for r in results)
    most = max(r.nodes for r in results)
    print(f"{len(results)} sources, {unsat} unsat, "
          f"at most {most} nodes per reduction, "
          f"{time.perf_counter() - start:.1f}s")
    assert (len(results), unsat, most) == (414, 74, MAX_NODES)


if __name__ == "__main__":
    main()
