"""The three workloads: what one op runs, and how its output is checked.

Each workload builds its op list from the seed alone.  `run(op)` is the
timed part and calls only the library; `check(op, out)` is untimed and uses
only the benchmark's own truth.  It returns (ok, record, reason), where
`record` holds the op's machine-independent outcome.  `summary(result)` gives
the values reported beside the metrics, `counts(records)` the per-layer
counts taken from first-pass records, and `probes()` runs the known-defect
repros, outside the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import gen
from check import nl_rule, wd_rule

BUDGET = 200_000   # solver nodes per board, the same for every board
# The solve boards come from this fixed seed; --seed only orders them.
# Solver time per board is heavy-tailed, so a board set drawn per run seed
# moves every timing by 20-30% between seeds, while a fixed set keeps node
# counts and verdicts comparable from run to run and commit to commit.
SUITE_SEED = 2601


def _undirected(cells):
    cells = [tuple(c) for c in cells]
    return min(cells, cells[::-1])


class Roundtrip:
    """reduce -> lift -> verify -> unlift -> render, through `cli.main`."""

    SIZE, PAIRS, MAX_LEN, BOARDS = 8, 6, 12, 4

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        rng = gen.rng_for("roundtrip", seed)
        k = max(1, self.PAIRS // 2)
        self.target_side = (4 * k + 5) * self.SIZE
        self.ops = []
        for i in range(self.BOARDS):
            terminals, paths = gen.planted_numberlink(
                rng, self.SIZE, self.SIZE, self.PAIRS, self.MAX_LEN)
            files = {name: os.path.join(workdir, f"b{i}_{name}")
                     for name in ("g.json", "gsol.json", "h.json",
                                  "map.json", "hsol.json", "out.json",
                                  "render.txt")}
            with open(files["g.json"], "w") as f:
                f.write(gen.numberlink_doc(self.SIZE, self.SIZE, terminals))
            with open(files["gsol.json"], "w") as f:
                f.write(gen.numberlink_solution_doc(paths))
            self.ops.append((i, files, {label: _undirected(cells)
                                        for label, cells in paths}))

    def run(self, op):
        _, f, _ = op
        commands = (
            ["reduce", "-i", f["g.json"], "-o", f["h.json"],
             "--map", f["map.json"]],
            ["lift", "-g", f["g.json"], "-s", f["gsol.json"],
             "--map", f["map.json"], "-o", f["hsol.json"]],
            ["verify", f["h.json"], f["hsol.json"]],
            ["unlift", "-s", f["hsol.json"], "--map", f["map.json"],
             "-o", f["out.json"]],
            ["render", f["h.json"], f["hsol.json"], "--format", "ascii",
             "-o", f["render.txt"]],
        )
        codes, printed = [], []
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(self.wl.cli.main(argv))
            printed.append(out.getvalue())
        return codes, printed

    def check(self, op, out):
        i, f, planted = op
        codes, printed = out
        if codes != [0] * 5:
            return False, ("exit", i, codes), f"exit codes {codes}"
        if printed[2].strip() != "ACCEPT":
            return False, ("verify", i), f"verify printed {printed[2]!r}"
        with open(f["out.json"]) as fh:
            got = {p["label"]: _undirected(p["cells"])
                   for p in json.load(fh)["paths"]}
        if got != planted:
            return False, ("unlift", i), "unlifted paths differ from planted"
        with open(f["h.json"]) as fh:
            h = json.load(fh)
        side = self.target_side
        if (h["width"], h["height"]) != (side, side):
            return False, ("size", i), f"target {h['width']}x{h['height']}"
        with open(f["render.txt"]) as fh:
            lines = fh.read().splitlines()
        if len(lines) != 2 * side + 1:
            return False, ("render", i), f"render has {len(lines)} lines"
        sizes = {name: os.path.getsize(f[name]) for name in
                 ("g.json", "gsol.json", "h.json", "map.json", "hsol.json",
                  "out.json", "render.txt")}
        # What each command names on its command line, per the CLI's usage.
        read = (sizes["g.json"] * 2 + sizes["gsol.json"]
                + sizes["map.json"] * 3 + sizes["h.json"] * 2
                + sizes["hsol.json"] * 3)
        written = sum(sizes[n] for n in ("h.json", "map.json", "hsol.json",
                                         "out.json", "render.txt"))
        return True, ("ok", i, side * side, len(h["circles"]),
                      sizes["map.json"], read, written), None

    def summary(self, result):
        return {"target_cells_per_s":
                self.target_side ** 2 * result.correct_ops / result.op_s}

    def counts(self, records):
        sizes = [r for r, ok in records if ok]
        return {name: sum(r[col] for r in sizes) / len(sizes)
                for name, col in (("reduction.map_bytes", 4),
                                  ("cli.bytes_read", 5),
                                  ("cli.bytes_written", 6))} if sizes else {}

    def probes(self):
        return []


class Solve:
    """Both exact solvers on a fixed seeded board set, one node budget."""

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        rng = gen.rng_for("solve", SUITE_SEED)
        boards = []

        def numberlink(family, w, h, terminals, truth):
            boards.append((family, "nl", gen.numberlink_doc(w, h, terminals),
                           truth))

        for _ in range(10):
            numberlink("nl_uniform_7x7", 7, 7,
                       gen.uniform_numberlink(rng, 7, 7, 6), None)
            numberlink("nl_planted_7x7", 7, 7,
                       gen.planted_numberlink(rng, 7, 7, 5, 12)[0], "sat")
        for _ in range(20):
            ids, circles, _ = gen.planted_wataridori(rng, 7, 7, 12, 5, 10)
            boards.append(("wd_planted_7x7", "wd",
                           gen.wataridori_doc(7, 7, ids, circles), "sat"))
        for _ in range(30):
            numberlink("nl_uniform_6x6", 6, 6,
                       gen.uniform_numberlink(rng, 6, 6, 5), None)
            ids, circles, _ = gen.planted_wataridori(rng, 6, 6, 9, 4, 10)
            boards.append(("wd_planted_6x6", "wd",
                           gen.wataridori_doc(6, 6, ids, circles), "sat"))
        for w, h in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2)):
            pairs = 1 if w * h < 4 else 2
            terminals, _ = gen.planted_numberlink(rng, w, h, pairs, 6)
            boards.append((f"reduced_{w}x{h}", "reduced",
                           gen.numberlink_doc(w, h, terminals), "sat"))
        crossing = [(1, (0, 0), (1, 1)), (2, (1, 0), (0, 1))]
        boards.append(("reduced_2x2_crossing", "reduced",
                       gen.numberlink_doc(2, 2, crossing), "unsat"))
        self.ops = list(enumerate(boards))
        gen.rng_for("solve-order", seed).shuffle(self.ops)

    def _solve(self, kind, doc):
        nl, wd = self.wl.numberlink, self.wl.wataridori
        if kind == "nl":
            inst = nl.parse_instance(doc)
            return inst, nl.solve(inst, budget=BUDGET)
        if kind == "wd":
            inst = wd.parse_instance(doc)
            return inst, wd.solve(inst, budget=BUDGET)
        inst, _ = self.wl.reduction.reduce_instance(nl.parse_instance(doc))
        return inst, wd.solve(inst, budget=BUDGET)

    def run(self, op):
        _, (_, kind, doc, _) = op
        return self._solve(kind, doc)

    def check(self, op, out):
        i, (family, kind, doc, truth) = op
        inst, result = out
        record = (i, family, result.status, result.nodes)
        if result.status == "solved":
            if truth == "unsat":
                return False, record, "solved an unsolvable board"
            rule = self._check_solution(kind, inst, result.solution)
            if rule is not None:
                return False, record, f"answer breaks {rule}"
        elif result.status == "unsat" and truth == "sat":
            return False, record, "planted board reported unsat"
        elif result.status not in ("unsat", "budget_exceeded"):
            return False, record, f"unknown status {result.status!r}"
        return True, record, None

    @staticmethod
    def _solver_totals(records):
        """Per solver: [boards, boards decided correctly, nodes]."""
        out = {"numberlink": [0, 0, 0], "wataridori": [0, 0, 0]}
        for record, ok in records:
            if len(record) != 4:      # the op raised
                continue
            _, family, status, nodes = record
            totals = out["numberlink" if family.startswith("nl_")
                         else "wataridori"]
            totals[0] += 1
            totals[1] += ok and status in ("solved", "unsat")
            totals[2] += nodes
        return out

    def summary(self, result):
        totals = self._solver_totals(result.records).values()
        verdicts = {}
        for record, _ in result.records:
            family, status = (record[1:3] if len(record) == 4
                              else ("raised", record[1]))
            tally = verdicts.setdefault(family, {})
            tally[status] = tally.get(status, 0) + 1
        return {"decided_share": sum(t[1] for t in totals)
                / len(result.records),
                "nodes": sum(t[2] for t in totals),
                "verdicts": verdicts}

    def counts(self, records):
        out = {}
        for solver, (boards, decided, nodes) in \
                self._solver_totals(records).items():
            out[f"{solver}.solve.nodes"] = nodes
            out[f"{solver}.solve.decided_ratio"] = decided / boards
        return out

    @staticmethod
    def _check_solution(kind, inst, sol):
        if kind == "nl":
            return nl_rule(inst.width, inst.height, inst.terminals,
                           [(label, list(p)) for label, p in sol.paths])
        circles = [(c.x, c.y, c.number) for c in inst.circles]
        return wd_rule(inst.width, inst.height, inst.regions.ids, circles,
                       [list(p) for p in sol.paths])

    def probes(self):
        """The two recursion-depth repros: a 40x40 board with one
        corner-to-corner pair, and the reduction of a 4x4 one-pair board."""
        out = []
        for name, kind, doc in (
                ("nl_40x40_corner_pair", "nl",
                 gen.numberlink_doc(40, 40, [(1, (0, 0), (39, 39))])),
                ("reduced_4x4_one_pair", "reduced",
                 gen.numberlink_doc(4, 4, [(1, (0, 0), (3, 3))]))):
            op = (name, (name, kind, doc, "sat"))
            try:
                ok, (_, _, status, nodes), reason = self.check(
                    op, self._solve(kind, doc))
            except RecursionError as exc:
                out.append((name, f"RecursionError: {exc}", True))
            else:
                out.append((name, reason or f"{status} nodes={nodes}",
                            not ok))
        return out


class CheckSmall:
    """Parse, validate, verify and render small documents, one Numberlink
    and one Wataridori board per op."""

    SIDE, NL_PAIRS, WD_REGIONS, WD_PAIRS, BOARDS = 6, 5, 9, 4, 200

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        rng = gen.rng_for("check_small", seed)
        s = self.SIDE
        self.ops = []
        for i in range(self.BOARDS):
            terminals, paths = gen.planted_numberlink(rng, s, s,
                                                      self.NL_PAIRS, 8)
            nl_sol, nl_rule_ = paths, None
            if rng.random() < 0.5:
                nl_sol, nl_rule_ = gen.mutate_numberlink(rng, s, s,
                                                         terminals, paths)
            ids, circles, wpaths = gen.planted_wataridori(
                rng, s, s, self.WD_REGIONS, self.WD_PAIRS, 8)
            wd_sol, wd_rule_ = wpaths, None
            if rng.random() < 0.5:
                wd_sol, wd_rule_ = gen.mutate_wataridori(rng, s, s, ids,
                                                         circles, wpaths)
            self.ops.append((
                i,
                (gen.numberlink_doc(s, s, terminals),
                 gen.numberlink_solution_doc(nl_sol), nl_rule_),
                (gen.wataridori_doc(s, s, ids, circles),
                 gen.wataridori_solution_doc(wd_sol), wd_rule_)))
        self.relabeled = []
        for i in range(self.BOARDS // 10):
            terminals, paths = gen.planted_numberlink(rng, s, s,
                                                      self.NL_PAIRS, 8)
            labels = rng.sample(range(2, 100), self.NL_PAIRS)
            relabel = {j + 1: lab for j, lab in enumerate(labels)}
            self.relabeled.append((
                f"nl_relabeled_{i}",
                gen.numberlink_doc(s, s, [(relabel[lab], a, b)
                                          for lab, a, b in terminals]),
                gen.numberlink_solution_doc([(relabel[lab], c)
                                             for lab, c in paths])))

    def _numberlink(self, doc, sol_doc):
        nl, render = self.wl.numberlink, self.wl.render
        inst = nl.parse_instance(doc)
        sol = nl.parse_solution(sol_doc)
        verdict = nl.verify_solution(nl.validate_instance(inst), sol)
        return (verdict, render.render_numberlink_ascii(inst, sol),
                render.render_numberlink_svg(inst, sol))

    def _wataridori(self, doc, sol_doc):
        wd, render = self.wl.wataridori, self.wl.render
        inst = wd.parse_instance(doc)
        sol = wd.parse_solution(sol_doc)
        return (wd.verify_solution(inst, sol),
                render.render_wataridori_ascii(inst, sol),
                render.render_wataridori_svg(inst, sol))

    def run(self, op):
        _, (nl_doc, nl_sol, _), (wd_doc, wd_sol, _) = op
        return self._numberlink(nl_doc, nl_sol), self._wataridori(wd_doc,
                                                                  wd_sol)

    def check(self, op, out):
        i, (_, _, nl_want), (_, _, wd_want) = op
        got = [verdict.rule if not verdict.ok else None
               for verdict, _, _ in out]
        record = (i, got[0], got[1])
        if got != [nl_want, wd_want]:
            return False, record, (f"verdicts {got}, expected "
                                   f"{[nl_want, wd_want]}")
        for _, ascii_, svg in out:
            if len(ascii_.splitlines()) != 2 * self.SIDE + 1 \
                    or not svg.startswith("<svg") \
                    or not svg.endswith("</svg>\n"):
                return False, record, "malformed render"
        return True, record, None

    def summary(self, result):
        verdicts = {}
        for record, _ in result.records:
            if len(record) != 3:      # the op raised
                continue
            for kind, rule in zip(("numberlink", "wataridori"), record[1:]):
                tally = verdicts.setdefault(kind, {})
                tally[rule or "ACCEPT"] = tally.get(rule or "ACCEPT", 0) + 1
        return {"verdicts": verdicts}

    def counts(self, records):
        return {}

    def probes(self):
        """Boards labeled as a user might write them, with their correct
        solutions: every one must be accepted."""
        out = []
        for name, doc, sol_doc in self.relabeled:
            verdict = self._numberlink(doc, sol_doc)[0]
            out.append((name, f"REJECT {verdict.rule}" if not verdict.ok
                        else "ACCEPT", not verdict.ok))
        return out


WORKLOADS = {"roundtrip": Roundtrip, "solve": Solve,
             "check_small": CheckSmall}
