"""The reduction's hard direction with k = 2, over every 3x3 Numberlink
source with four pairs and every 2x5 source with five, the largest pair
count k = 2 serves: the Wataridori solver must decide each reduction
exactly as the source is decided, and every solution it finds must unlift
to a solution of the source.

Too slow for the test suite; run it from the repository root:

    PYTHONPATH=src:tests python tests/hard_direction_k2.py
"""

import time

from test_acceptance import check_reduction_decides, sources
from watarilink import wataridori as wd


# Per family: its sources, how many are unsatisfiable, and the most nodes
# any one reduction takes.  The most is an unsatisfiable reduction's,
# walked whole, so the step order does not move it; a weaker cut fails
# here rather than only slowing down.
FAMILIES = [((3, 3, 4), (945, 907, 3734373)),
            ((2, 5, 5), (945, 937, 1331042))]


def main():
    for shape, want in FAMILIES:
        start = time.perf_counter()
        results = [check_reduction_decides(g) for g in sources(*shape)]
        unsat = sum(r.status == wd.UNSAT for r in results)
        most = max(r.nodes for r in results)
        print("{}x{}, p={}: {} sources, {} unsat, at most {} nodes per "
              "reduction, {} in all, {:.1f}s".format(
                  *shape, len(results), unsat, most,
                  sum(r.nodes for r in results),
                  time.perf_counter() - start), flush=True)
        assert (len(results), unsat, most) == want


if __name__ == "__main__":
    main()
