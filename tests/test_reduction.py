import hashlib
import json
import random
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import fixture_json, fixture_text
from watarilink import lifting
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import render
from watarilink import wataridori as wd
from watarilink.errors import ParseError, ValidationError
from watarilink.grid import (RegionMap, Wall, region_map_from_rows,
                             regions_from_walls)


def template_as_doc(tpl):
    return {
        "walls": sorted([k, x, y] for (k, x, y) in tpl.walls),
        "circles": [{"x": c.x, "y": c.y, "number": c.number}
                    for c in tpl.circles],
        "filler_pairs": [[list(a), list(b)] for a, b in tpl.filler_pairs],
    }


class TestChooseK:
    @pytest.mark.parametrize("pairs,k", [(1, 1), (2, 1), (3, 1), (4, 2),
                                         (5, 2), (6, 3), (9, 4)])
    def test_values(self, pairs, k):
        assert rd.choose_k(pairs) == k
        assert 2 * rd.choose_k(pairs) + 1 >= pairs

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValidationError):
            rd.choose_k(0)


class TestAgainstFixtures:
    def test_number_block_matches_reference_fixture(self):
        tpl = rd.build_number_block(2, 11)
        fix = fixture_json("number_block_k2.json")
        doc = template_as_doc(tpl)
        assert doc["walls"] == fix["walls"]
        assert doc["circles"] == fix["circles"]
        assert doc["filler_pairs"] == fix["filler_pairs"]
        assert list(tpl.center) == fix["center"]
        assert tpl.size == fix["size"]

    def test_empty_block_matches_reference_fixture(self):
        tpl = rd.build_empty_block(2)
        fix = fixture_json("empty_block_k2.json")
        doc = template_as_doc(tpl)
        assert doc["walls"] == fix["walls"]
        assert doc["circles"] == fix["circles"]
        assert doc["filler_pairs"] == fix["filler_pairs"]
        assert tpl.center is None

    def test_number_block_region_structure(self):
        rmap = rd.block_region_map(rd.build_number_block(2, 11))
        assert rmap.region_count == 41

    def test_empty_block_region_structure(self):
        rmap = rd.block_region_map(rd.build_empty_block(2))
        assert rmap.region_count == 5
        sizes = sorted(
            sum(row.count(rid) for row in rmap.ids)
            for rid in range(rmap.region_count))
        assert sizes == [25, 36, 36, 36, 36]  # plus corridor + 4 quadrants


def template_digest(templates):
    """sha256 of the templates' size, center, walls, circles and filler
    pairs, as compact JSON."""
    docs = [{"size": tpl.size, "center": tpl.center and list(tpl.center),
             "walls": sorted([kind, x, y] for (kind, x, y) in tpl.walls),
             "circles": [[c.x, c.y, c.number] for c in tpl.circles],
             "filler_pairs": [[list(a), list(b)]
                              for a, b in tpl.filler_pairs]}
            for tpl in templates]
    text = json.dumps(docs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Per k: the empty block, and the number blocks at every valid center
# number 4k+3, 4k+5, ..., 8k+3 in that order.
TEMPLATE_DIGESTS = {
    1: ("67adc052950cd588be8ed41b20d06f0c75f0fd5471475ca8caa116a5a7e4d37a",
        "2aac715347ee947eeda2652b8413f220d87ca960ff6cedbafdd21b18fdcf40c6"),
    2: ("93414884bc9a72c7d5fa317e8a0cc7e9592ec70a4c03d08640128e80b88070fc",
        "8d5d7b0df47245700bebf030f12d9c6cf052c6cc77bc96e3b585ed625abea11a"),
    3: ("162369f3d5be7a9ab4c3751e2f8d24f7c9e4a1a5d6123741b4b75d5068837d03",
        "9a7729d50da8869fea7b26fae258672a09c6597ece0dafd0f31417ca24429781"),
    4: ("d1047908bd9f285b4e44688d2884edaf6d56406362f3fc9cd4dd66c2c7a77bb6",
        "775e26f3841f59aa09e15b3e65de83bdcb5b2a5a77711058d6c8a1985ed6046e"),
    5: ("668550abf1957ffe38640ee62538a1123b8b101a7f1c4aff271b12a50cf3224d",
        "579cfd899d076983f40d6f9500fd87219bc1130f8bac20da429e8ba8b578a448"),
    6: ("ac9a484598422a4276684f21bdadbc1c1354136318707ffd3216f788a654ba9b",
        "346854ce76930bfcc5b1a277fdf5578bd87824c84f77b664df56b0811d18ffd3"),
}


@pytest.mark.parametrize("k", sorted(TEMPLATE_DIGESTS))
def test_templates_pinned(k):
    numbers = range(4 * k + 3, 8 * k + 4, 2)
    assert (template_digest([rd.build_empty_block(k)]),
            template_digest([rd.build_number_block(k, n) for n in numbers])
            ) == TEMPLATE_DIGESTS[k]


# Per k: sha256 of the compact JSON [region_count, ids] of the flooded
# empty block and number block.  The number block's regions do not depend
# on its center number.
TEMPLATE_REGION_DIGESTS = {
    1: ("9884b26ae79f2a5660fd99f5a7517c4f1f1b2a8fbd8141408ab7169c57bde9d3",
        "6bc8859615b28ebf88d0efa315bd2733a8e43a99063db44fc7b5709b47921e81"),
    2: ("de96c152af705bf71b2dd97875072975147556dcb158e922214051852cd39cad",
        "c040b9f02673b82026be03b84477c230ff95999bb08589906704d7183643233c"),
    3: ("972648480220f189357f903a2183bfeec63530bf69f76d39546fc1658fd9d6b7",
        "92a125711b2615673aa6be77333ca6cd01dd51584bccfba62ceec0f3fee51d57"),
    4: ("0b1fe0a75ffd3e8d4b8ca902c2b31dab940688fd468319e6237e4e8c5ac03b1f",
        "0af983d9c6ed22d8b6d1db80605727e4112b20a091f39f9c15df5c32d5438bc2"),
    5: ("26112a7bd5afc8fcd52e8322c4a4fa568bb3b450c0ab5bbd53baf1c04384628a",
        "2295ee6b5a0ca4f63001a0e67aaeeac54a3d419a021a4dbcdcdf0d68050877c2"),
    6: ("8a83090b5e7eaaeb6137b8e5c670cdb8e291f7695d5edf6d4efe8afcb9c22c28",
        "3b9a0ed3d368123571021d6271e576a26be0ae94849dcb738c08f34d265441c9"),
}


@pytest.mark.parametrize("k", sorted(TEMPLATE_REGION_DIGESTS))
@pytest.mark.parametrize("kind", [0, 1], ids=["empty", "number"])
def test_template_regions_pinned(k, kind):
    tpl = (rd.build_number_block(k, 4 * k + 3) if kind
           else rd.build_empty_block(k))
    rmap = rd.block_region_map(tpl)
    text = json.dumps([rmap.region_count, rmap.ids], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TEMPLATE_REGION_DIGESTS[k][kind]


class TestBlockErrors:
    def test_small_k_rejected(self):
        with pytest.raises(ValidationError):
            rd.build_empty_block(0)
        with pytest.raises(ValidationError):
            rd.build_number_block(0, 7)

    def test_even_center_number_rejected(self):
        with pytest.raises(ValidationError):
            rd.build_number_block(2, 10)

    def test_center_number_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            rd.build_number_block(2, 9)    # below 4k+3
        with pytest.raises(ValidationError):
            rd.build_number_block(2, 21)   # above 8k+3


def rot_cell(cell, size):
    x, y = cell
    return (size - 1 - y, x)


def rot_wall(wall, size):
    kind, x, y = wall
    if kind == "h":
        return Wall("v", size - y, x)
    return Wall("h", size - y - 1, x)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
class TestBlockInvariants:
    def test_counts(self, k):
        nb = rd.build_number_block(k, 4 * k + 3)
        eb = rd.build_empty_block(k)
        assert nb.size == eb.size == 4 * k + 5
        assert len(nb.circles) == 32 * k + 17
        assert len(eb.circles) == 32 * k + 16
        assert len(nb.filler_pairs) == len(eb.filler_pairs) == 16 * k + 8

    def test_rotation_invariance(self, k):
        for tpl in (rd.build_number_block(k, 4 * k + 3),
                    rd.build_empty_block(k)):
            s = tpl.size
            assert {rot_wall(w, s) for w in tpl.walls} == set(tpl.walls)
            circles = {(c.cell, c.number) for c in tpl.circles}
            assert {(rot_cell(c, s), n) for c, n in circles} == circles
            pairs = {frozenset(p) for p in tpl.filler_pairs}
            rotated = {frozenset(rot_cell(c, s) for c in p) for p in pairs}
            assert rotated == pairs

    def test_filler_pairs_perfectly_match_ring_circles(self, k):
        for tpl in (rd.build_number_block(k, 4 * k + 3),
                    rd.build_empty_block(k)):
            rmap = rd.block_region_map(tpl)
            ones = {c.cell for c in tpl.circles if c.number == 1}
            seen = set()
            for a, b in tpl.filler_pairs:
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                assert rmap.id_at(a) == rmap.id_at(b)
                for cell in (a, b):
                    assert cell in ones and cell not in seen
                    seen.add(cell)
            assert seen == ones

    def test_region_structure(self, k):
        s = 4 * k + 5
        c = 2 * k + 2
        nb = rd.build_number_block(k, 4 * k + 3)
        rmap = rd.block_region_map(nb)
        assert rmap.region_count == 16 * k + 9
        sizes = {}
        for row in rmap.ids:
            for rid in row:
                sizes[rid] = sizes.get(rid, 0) + 1
        by_size = sorted(sizes.values())
        quadrant = (2 * k + 2) ** 2 - 2 * k  # ring side lost to the flank
        assert by_size.count(1) == 16 * k + 4   # ladder cells + entries
        assert by_size.count(5) == 1            # center plus
        assert by_size.count(quadrant) == 4
        # entry cells are their own regions; the plus is exactly centered
        for entry in ((c, 0), (c, s - 1), (0, c), (s - 1, c)):
            assert sizes[rmap.id_at(entry)] == 1
        plus = {(c, c), (c - 1, c), (c + 1, c), (c, c - 1), (c, c + 1)}
        assert len({rmap.id_at(cell) for cell in plus}) == 1
        assert sizes[rmap.id_at((c, c))] == 5

    def test_empty_block_corridor_is_one_plus_region(self, k):
        eb = rd.build_empty_block(k)
        rmap = rd.block_region_map(eb)
        s = eb.size
        c = 2 * k + 2
        corridor = {rmap.id_at((x, c)) for x in range(s)}
        corridor |= {rmap.id_at((c, y)) for y in range(s)}
        assert len(corridor) == 1

    def test_quadrant_rings_are_closed(self, k):
        # a non-ring, non-ladder quadrant cell never touches a cell outside
        # its region except through a ring circle
        nb = rd.build_number_block(k, 4 * k + 3)
        rmap = rd.block_region_map(nb)
        ring = {c.cell for c in nb.circles if c.number == 1}
        s = nb.size
        for y in range(s):
            for x in range(s):
                cell = (x, y)
                rid = rmap.id_at(cell)
                size = sum(row.count(rid) for row in rmap.ids)
                if size < 6 or cell in ring:
                    continue  # not a quadrant interior cell
                for nx, ny in ((x, y + 1), (x, y - 1), (x - 1, y),
                               (x + 1, y)):
                    if not (0 <= nx < s and 0 <= ny < s):
                        continue
                    if rmap.id_at((nx, ny)) != rid:
                        assert False, (cell, (nx, ny))


class TestReduce:
    def test_sample_dimensions_and_numbers(self, sample_numberlink):
        h, rmap = rd.reduce_instance(sample_numberlink)
        assert rmap.k == 2 and rmap.block_size == 13
        assert (h.width, h.height) == (78, 78)
        assert dict(rmap.number_assignment) == \
            {1: 11, 2: 13, 3: 15, 4: 17, 5: 19}
        assert len(h.circles) == 10 * 81 + 26 * 80
        centers = sorted(c.number for c in h.circles if c.number > 1)
        assert centers == sorted(2 * [11, 13, 15, 17, 19])

    def test_adjacent_entry_regions_merge(self):
        g = nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1, 0)),))
        h, rmap = rd.reduce_instance(g)
        assert rmap.k == 1
        assert (h.width, h.height) == (18, 9)
        s, c = 9, 4
        east_entry = (s - 1, c)
        west_entry_of_neighbor = (s, c)
        assert h.regions.id_at(east_entry) == \
            h.regions.id_at(west_entry_of_neighbor)
        # and that shared region has exactly the two cells
        rid = h.regions.id_at(east_entry)
        size = sum(row.count(rid) for row in h.regions.ids)
        assert size == 2

    def test_corridors_merge_across_empty_blocks(self):
        g = nl.NumberlinkInstance(4, 1, ((1, (0, 0), (3, 0)),))
        h, rmap = rd.reduce_instance(g)
        s = rmap.block_size
        c = 2 * rmap.k + 2
        # corridor cells of the two middle empty blocks plus both entry
        # cells facing them share one region id
        rids = {h.regions.id_at((s - 1, c)),
                h.regions.id_at((s + c, c)),
                h.regions.id_at((2 * s + c, c)),
                h.regions.id_at((3 * s, c))}
        assert len(rids) == 1

    def test_boundary_entry_cells_are_isolated(self):
        g = nl.NumberlinkInstance(1, 1, ())
        with pytest.raises(ValidationError):
            rd.reduce_instance(g)  # p = 0 rejected before geometry
        g = nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1, 0)),))
        h, rmap = rd.reduce_instance(g)
        s, c = rmap.block_size, 2 * rmap.k + 2
        # the west entry of the leftmost block faces the outer boundary
        rid = h.regions.id_at((0, c))
        assert sum(row.count(rid) for row in h.regions.ids) == 1

    def test_size_law_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(12):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            cells = [(x, y) for x in range(m) for y in range(n)]
            max_pairs = len(cells) // 2
            if max_pairs == 0:
                continue
            p = rng.randint(1, max_pairs)
            rng.shuffle(cells)
            terminals = tuple(
                (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(p))
            g = nl.NumberlinkInstance(m, n, terminals)
            h, rmap = rd.reduce_instance(g)
            s = 4 * rd.choose_k(p) + 5
            assert h.width == s * m
            assert h.height == s * n

    def test_every_filler_pair_adjacent_same_region(self, sample_numberlink):
        h, rmap = rd.reduce_instance(sample_numberlink)
        seen = set()
        for a, b in rmap.filler_pairs:
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert h.regions.id_at(a) == h.regions.id_at(b)
            assert a not in seen and b not in seen
            seen.update((a, b))
        ones = {c.cell for c in h.circles if c.number == 1}
        assert seen == ones


@pytest.mark.parametrize("pairs", [2, 3, 4, 5, 6, 7])    # k = 1, 1, 2, 2, 3, 3
def test_filler_pairs_equal_the_per_label_templates(pairs):
    """A map derives its filler pairs from one number template; a template
    built for each label's own center number places the same pairs."""
    rng = random.Random(pairs)
    for width, height in ((pairs, 2), (4, 4), (2 * pairs, 1)):
        cells = [(x, y) for y in range(height) for x in range(width)]
        rng.shuffle(cells)
        g = nl.NumberlinkInstance(width, height, tuple(
            (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)))
        _, rmap = rd.reduce_instance(g)
        assert rmap.filler_pairs == oracles.placed_filler_pairs(g)


@pytest.mark.parametrize("k", range(1, 7))
def test_cached_templates_equal_freshly_built_ones(k):
    (empty, ladders), maps = rd._templates(k)
    assert (empty, ladders) == (rd._block(k, False), rd._block(k, True))
    assert maps == (rd.block_region_map(rd._block(k, False)),
                    rd.block_region_map(rd._block(k, True)))
    assert rd._templates(k) is rd._templates(k)


def test_template_cache_keeps_four_ks():
    rd._templates.cache_clear()
    for pairs in range(2, 13, 2):      # k = 1, ..., 6
        g = nl.NumberlinkInstance(pairs, 2, tuple(
            (i + 1, (i, 0), (i, 1)) for i in range(pairs)))
        rd.reduce_instance(g)
        assert rd._templates.cache_info().currsize <= 4
    assert rd._templates.cache_info().currsize == 4


def test_cached_k3_templates_are_small():
    rd._templates.cache_clear()
    tracemalloc.start()
    try:
        rd._templates(3)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 250_000


def test_cached_templates_cannot_be_changed():
    """Every reduction reads the same entry, so none may alter it: the
    entry, its pairs and its templates are tuples."""
    entry = rd._templates(1)
    blocks, maps = entry
    for value in (entry, blocks, maps, maps[0].ids, maps[0].ids[0],
                  blocks[0].circles, blocks[0].filler_pairs):
        assert isinstance(value, tuple)
        with pytest.raises(TypeError):
            value[0] = None
    with pytest.raises(AttributeError):
        blocks[1].center = (0, 0)
    assert isinstance(blocks[0].walls, frozenset)


@pytest.mark.parametrize("pairs", range(1, 8))    # k = 1, 1, 1, 2, 2, 3, 3
def test_filler_pairs_are_the_same_from_a_cold_and_a_warm_cache(pairs):
    g = nl.validate_instance(nl.NumberlinkInstance(pairs, 3, tuple(
        (i + 1, (i, 0), (i, 2)) for i in range(pairs))))
    want = oracles.placed_filler_pairs(g)
    rd._templates.cache_clear()
    assert rd.ReductionMap(g).filler_pairs == want
    assert rd.reduce_instance(g)[1].filler_pairs == want


@pytest.mark.parametrize("pairs", [1, 4, 6])    # k = 1, 2, 3
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_regions_equal_flood_of_placed_template_walls(pairs, data):
    # Sources up to 4x4 with room for 2 * pairs terminals.
    width = data.draw(st.integers(-(-pairs // 2), 4), label="width")
    height = data.draw(st.integers(-(-2 * pairs // width), 4),
                       label="height")
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    g = nl.NumberlinkInstance(width, height, tuple(
        (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)))
    h, rmap = rd.reduce_instance(g)
    assert rmap.k == rd.choose_k(pairs)
    walls = oracles.placed_template_walls(g)
    assert h.regions == regions_from_walls(walls, h.width, h.height)
    assert h.regions == oracles.regions_from_wall_set(walls, h.width,
                                                      h.height)


# (width, height, pairs): lines one block wide or high, with empty blocks
# between the number blocks, and grids where every cell is a terminal, so
# number blocks touch on every side and their entry cells merge.
STAMP_SHAPES = [(1, 6, 2), (6, 1, 2), (2, 2, 2),        # k = 1
                (1, 10, 4), (10, 1, 4), (2, 4, 4),      # k = 2
                (1, 14, 6), (14, 1, 6), (3, 4, 6)]      # k = 3


@pytest.mark.parametrize("width, height, pairs", STAMP_SHAPES,
                         ids=[f"{w}x{h}p{p}" for w, h, p in STAMP_SHAPES])
def test_stamped_instance_equals_the_placed_templates(width, height, pairs):
    """The instance stamped from two flooded templates, merged at block
    borders, equals a flood of every placed template's walls, and carries
    every placed template's circles."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    random.Random(width * 100 + height).shuffle(cells)
    g = nl.NumberlinkInstance(width, height, tuple(
        (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)))
    h, rmap = rd.reduce_instance(g)
    assert rmap.k == {2: 1, 4: 2, 6: 3}[pairs]
    walls = oracles.placed_template_walls(g)
    assert h.regions == regions_from_walls(walls, h.width, h.height)
    assert h.circles == oracles.placed_template_circles(g)
    assert all(type(c) is wd.Circle for c in h.circles)


class TestGolden:
    """The reduction of the bundled 6x6 source and its renders, pinned
    byte for byte (sha256 of the text)."""

    DIGESTS = {
        "instance":
            "1f1b7cce91f28c9120f1124484419fb2cb934628d71f844b1d314012ea2ff828",
        "map":
            "789d90910aa23dea7434c7b16e61e0a9df2f3271efc7e808645fc88ad408c26c",
        "ascii":
            "dc95ef1f46dfbb4ecb55827c7811d4bdb5790493f1380ad50cfe73e83ff80eff",
        "ascii_lifted":
            "34a8bcd8b34520608c250695d9e93ca34f209e9adce7cbd1ba265f8f46e7d63b",
        "svg_lifted":
            "78ff8c1247584b45795f4442eec2a2fa895b6d9bda049d8bdc42ba3fec54c69f",
        "source_ascii":
            "85634b702e5cb11da7a1216c75882c7d98ddf76f14f39901841d999ab57315e5",
        "source_svg":
            "d80b89865f4b0cf89b803eb862a5d8eec8515a54c9d64ac2554e6272d90106cb",
        "lifted":
            "153706d3568dfbb087e49d0f6a6e9986c103b1b70951710bafe8ce55c7f470a4",
        "unlifted":
            "dde44a8a6ad4a66fff95d1f2789dc0be0d77a7c021c86daa089cbe9babf1b350",
    }
    # The version-1 map document, which stored blocks and filler pairs.
    V1_MAP_DIGEST = \
        "21cdb8c0ec708a462906872b9182292e2c75fcbc61816c4cb7ad7b2eff186363"

    def test_digests(self, sample_numberlink):
        g = sample_numberlink
        g_sol = nl.parse_solution(fixture_text("numberlink_6x6_solution.json"))
        h, rmap = rd.reduce_instance(g)
        h_sol = lifting.lift(g, g_sol, rmap)
        texts = {
            "instance": wd.serialize_instance(h),
            "map": rd.serialize_map(rmap),
            "ascii": render.render_wataridori_ascii(h),
            "ascii_lifted": render.render_wataridori_ascii(h, h_sol),
            "svg_lifted": render.render_wataridori_svg(h, h_sol),
            "source_ascii": render.render_numberlink_ascii(g, g_sol),
            "source_svg": render.render_numberlink_svg(g, g_sol),
            "lifted": wd.serialize_solution(h_sol),
            "unlifted": nl.serialize_solution(lifting.unlift(h_sol, rmap)),
        }
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in texts.items()}
        assert digests == self.DIGESTS

    def test_derived_map_values_equal_the_stored_version_1_map(
            self, sample_numberlink):
        # Every value the version-1 map stored, written from what a map now
        # derives from its source, reproduces that document byte for byte.
        _, rmap = rd.reduce_instance(sample_numberlink)
        text = oracles.v1_map_document(rmap)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.V1_MAP_DIGEST


def _wd_board(rows, circles, paths=None):
    """A Wataridori instance from region rows (bottom row first) and
    (x, y, number) circles, with an optional solution."""
    inst = wd.WataridoriInstance(region_map_from_rows(rows),
                                 tuple(wd.Circle(*c) for c in circles))
    return inst, None if paths is None else wd.WataridoriSolution(paths)


def _nl_board(width, height, terminals, paths=None):
    inst = nl.NumberlinkInstance(width, height, terminals)
    return inst, None if paths is None else nl.NumberlinkSolution(paths)


_LONG_LABELS = ((10, (0, 0), (2, 0)), (123, (0, 1), (2, 1)))
# Region 0 is an L in the left half, region 1 an L in the right half, and
# region 2 the two middle cells of the top row.  The circles are listed
# out of (y, x) order, which the SVG render sorts.
_WD_ROWS = [[0, 0, 1, 1], [0, 2, 2, 1]]
_WD_CIRCLES = ((3, 0, 100), (2, 1, None), (0, 0, 10), (1, 1, None))

RENDER_BOARDS = {
    "nl-long-labels": _nl_board(3, 2, _LONG_LABELS, (
        (10, ((0, 0), (1, 0), (2, 0))), (123, ((0, 1), (1, 1), (2, 1))))),
    "nl-long-labels-unsolved": _nl_board(3, 2, _LONG_LABELS),
    "nl-no-terminals": _nl_board(3, 2, ()),
    "nl-1x4": _nl_board(1, 4, ((7, (0, 0), (0, 3)),), (
        (7, ((0, 0), (0, 1), (0, 2), (0, 3))),)),
    "nl-4x1": _nl_board(4, 1, ((7, (0, 0), (3, 0)),), (
        (7, ((0, 0), (1, 0), (2, 0), (3, 0))),)),
    "wd-long-numbers": _wd_board(_WD_ROWS, _WD_CIRCLES, (
        ((0, 0), (0, 1)), ((3, 0), (2, 0), (2, 1)))),
    "wd-wildcards-only": _wd_board(
        _WD_ROWS, [(x, y, None) for x, y, _ in _WD_CIRCLES]),
    "wd-no-circles": _wd_board(_WD_ROWS, ()),
    "wd-1x5": _wd_board([[0], [0], [1], [1], [2]],
                        ((0, 0, None), (0, 4, 3)),
                        (tuple((0, y) for y in range(5)),)),
    "wd-5x1": _wd_board([[0, 0, 1, 2, 2]], ((0, 0, 3), (4, 0, None)),
                        (tuple((x, 0) for x in range(5)),)),
    # Renders take unverified solutions and unvalidated instances: ASCII
    # leaves out off-grid cells, SVG draws them outside its view box.
    "nl-off-grid": _nl_board(2, 2, ((1, (0, 0), (2, 1)),), (
        (1, ((0, 0), (1, 0), (2, 0), (2, 1))),)),
    "wd-off-grid": _wd_board(_WD_ROWS, _WD_CIRCLES, (
        ((0, 0), (-1, 0), (-1, 1)), ((3, 0), (4, 0)))),
}


class TestRenderPins:
    """Render bytes on boards the golden reduction does not reach: labels
    and numbers of two and three digits, wildcard circles, boards with no
    marks, one-cell-wide boards, an unsolved Numberlink board and cells
    off the grid."""

    DIGESTS = {
        "nl-1x4-ascii":
            "b921d5d78899e35fb2f5d6c3c895a13aeac29540b55fccc4b3f9ef528babb2ef",
        "nl-1x4-svg":
            "9b0b407fa8efcd3a302fa0b53dbf61da530b2a18291b3ef4d0cb0a007006e804",
        "nl-4x1-ascii":
            "3f45b559c8b602bcabb6620bfebed54018a3086ac4529a621846e6cb81a7ed20",
        "nl-4x1-svg":
            "18945a9989eaf9835f596ba7c217bb140389111fc8e36da838113d141021ce63",
        "nl-long-labels-ascii":
            "7dd6285efec3ba4d8c2f0dfd44694f6ec43201a94e1bfd64cd36b2934d928e0c",
        "nl-long-labels-svg":
            "782f3199619ad6feaf4b5ff1affaa3a033b891761fffb10dc4f676fe243f5879",
        "nl-long-labels-unsolved-ascii":
            "998b530b22f2242dca8f580af5e0a34865f51806f267563c370f91c5edc18ff5",
        "nl-long-labels-unsolved-svg":
            "a52ac8474eb075d84a9ca7449f0083c6f4c3bb202b38ff88fd3bc1c3494bccdd",
        "nl-no-terminals-ascii":
            "f6b4b1bfb48011201e203163de187e3ce9b3c7799d9f39494dba1747b3286fd2",
        "nl-no-terminals-svg":
            "8cc080c2c08058e3d532b3ad96cdc1ab2506e2fbc52a5a31dfd563fa79a680d9",
        "nl-off-grid-ascii":
            "02bcaaca5b82e01fb3b5c46ab15207f75f3b28e15e00e8f510301a589a0c9ca5",
        "nl-off-grid-svg":
            "0572ff9f9dc001a5ef64718e0e8621332258edf93f9577d2736d60a451bb46df",
        "wd-1x5-ascii":
            "b771966aae4ab86851d1db2c9a9701609d7f0c0f15663fbe35deedce4d294a22",
        "wd-1x5-svg":
            "962c3d67459e7b2bddb7624a41943072346f836b5319a88b5b0374aacf6d9a03",
        "wd-5x1-ascii":
            "07195371a4186aea121b75111e7096135a5a4cca3159a54c7d104c0e987d4020",
        "wd-5x1-svg":
            "78a3a48fdb2ce3dabd7bcbcaa946c32cc88ca6f13a576d3c939f1567533e4093",
        "wd-long-numbers-ascii":
            "e188d20fad5ccf8c407b0d9e75ae2b78ea00704a54f181291b5b31ca69e41b5f",
        "wd-long-numbers-svg":
            "44c656dc78b8ac0c7ecc6669727ad5f1285e5db3a4f50095f031f15e93a5ba7f",
        "wd-no-circles-ascii":
            "b023d778e209a2595313000ae34a3d51df884748352172447994650573f6e524",
        "wd-no-circles-svg":
            "01d44243fd999e92f76ff7e3cde27a99c5c5491da4b98fac0ea5534f5d8d20d9",
        "wd-off-grid-ascii":
            "abf3d2db32fba0168ef42c56a7894514b4e8d98a1c2bc98e7e6418b1924c5769",
        "wd-off-grid-svg":
            "df2b59665fa42fa3ca7c5dcb93df8649e04044b962110d28d31c1e9678a6dd51",
        "wd-wildcards-only-ascii":
            "4d12c5ff93a7a522f31a61f12d6786714a42db7959e100e683b7326c138f6a65",
        "wd-wildcards-only-svg":
            "d6dacb460ad4750defdb75102e13d34eb0b276cc77cdc7f76ad872bee741cc4f",
    }

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    @pytest.mark.parametrize("board", sorted(RENDER_BOARDS))
    def test_digest(self, board, fmt):
        inst, sol = RENDER_BOARDS[board]
        kind = "numberlink" if board.startswith("nl") else "wataridori"
        text = getattr(render, f"render_{kind}_{fmt}")(inst, sol)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.DIGESTS[f"{board}-{fmt}"]


def _svg_case(data, kind, width, height):
    """A board of one kind and shape, drawn with unvalidated marks and
    paths, as (render, instance, solution, the reference's SVG).  Cells
    may lie off the grid, and on some boards their coordinates may be
    floats or bools."""
    odd = data.draw(st.booleans(), label="non-integers")
    column, row = (st.integers(-2, side + 1)
                   | st.sampled_from([0.5, 1.0, True]) if odd
                   else st.integers(-2, side + 1) for side in (width, height))
    cell = st.tuples(column, row)
    paths = data.draw(st.lists(st.lists(cell, max_size=5).map(tuple),
                               max_size=3), label="paths")
    # Texts of one to three digits.
    number = st.integers(0, 999)
    if kind == "numberlink":
        terminals = data.draw(st.lists(st.tuples(number, cell, cell),
                                       max_size=3), label="terminals")
        inst = nl.NumberlinkInstance(width, height, tuple(terminals))
        sol = None if not paths else nl.NumberlinkSolution(
            tuple(enumerate(paths)))
        marks = [(x, y, str(label), False)
                 for label, a, b in terminals for x, y in (a, b)]
        return (render.render_numberlink_svg, inst, sol,
                oracles.svg_reference(width, height, [[0] * width] * height,
                                      paths, marks))
    ids = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=width,
                                      max_size=width),
                             min_size=height, max_size=height), label="ids")
    circles = data.draw(st.lists(st.builds(wd.Circle, column, row,
                                           st.none() | number),
                                 max_size=4), label="circles")
    # The render takes the map as it is: ids need not be canonical.
    inst = wd.WataridoriInstance(
        RegionMap(width, height, tuple(map(tuple, ids)), 4), tuple(circles))
    sol = None if not paths else wd.WataridoriSolution(tuple(paths))
    marks = sorted(((x, y, "" if n is None else str(n), True)
                    for x, y, n in circles), key=itemgetter(1, 0))
    return (render.render_wataridori_svg, inst, sol,
            oracles.svg_reference(width, height, ids, paths, marks))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_svg_renders_equal_the_reference(data):
    """Both SVG renders equal the reference drawer byte for byte.  Boards
    of up to three shapes are drawn in one example and rendered, then
    rendered again in reverse order, so that a frame cached for one shape
    is reused after another's and can never stand in for it."""
    side = st.integers(1, 9)
    cases = [_svg_case(data, data.draw(st.sampled_from(["numberlink",
                                                        "wataridori"])),
                       data.draw(side, label="width"),
                       data.draw(side, label="height"))
             for _ in range(data.draw(st.integers(1, 3), label="boards"))]
    for draw, inst, sol, want in cases + cases[::-1]:
        assert draw(inst, sol) == want


def test_frame_cache_keeps_eight_shapes():
    for width in range(1, 12):
        render.render_numberlink_svg(nl.NumberlinkInstance(width, 2, ()))
        assert render._frame.cache_info().currsize <= 8


def test_frame_of_a_tall_board_is_not_kept():
    # A frame's text grows with width + height, so a board past the cap
    # gets a frame for its render alone, and it draws the same bytes.
    ids = [[y // 3 + x for x in range(2)] for y in range(render._CACHED_SIDES)]
    for height in (render._CACHED_SIDES - 2, render._CACHED_SIDES - 1):
        render._frame.cache_clear()
        inst = wd.WataridoriInstance(
            RegionMap(2, height, tuple(map(tuple, ids[:height])), 0), ())
        path = ((0, 0), (0, 1), (1, 1))
        assert render.render_wataridori_svg(
            inst, wd.WataridoriSolution((path,))) == oracles.svg_reference(
                2, height, ids[:height], (path,), [])
        kept = height + 2 <= render._CACHED_SIDES
        assert render._frame.cache_info().currsize == kept


def test_frame_of_a_136x136_board_is_small():
    # The frame holds O(width + height) strings: the interior walls are
    # formatted per render.
    render._frame.cache_clear()
    tracemalloc.start()
    try:
        render._frame(136, 136)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 500_000


class TestMapDocuments:
    def test_round_trip(self, sample_numberlink):
        _, rmap = rd.reduce_instance(sample_numberlink)
        text = rd.serialize_map(rmap)
        assert rd.parse_map(text) == rmap
        assert rd.serialize_map(rd.parse_map(text)) == text

    def test_reconstruct_recovers_both_instances(self, sample_numberlink):
        h, rmap = rd.reduce_instance(sample_numberlink)
        parsed = rd.parse_map(rd.serialize_map(rmap))
        assert parsed.source == sample_numberlink
        assert rd.reduce_instance(parsed.source) == (h, rmap)

    def test_document_is_version_k_and_source(self, sample_numberlink):
        _, rmap = rd.reduce_instance(sample_numberlink)
        doc = json.loads(rd.serialize_map(rmap))
        assert doc == {"version": 2, "k": 2,
                       "source": json.loads(
                           nl.serialize_instance(sample_numberlink))}

    def test_version_1_map_rejected(self, sample_numberlink):
        _, rmap = rd.reduce_instance(sample_numberlink)
        with pytest.raises(ParseError) as err:
            rd.parse_map(oracles.v1_map_document(rmap))
        assert (err.value.code, err.value.location) == \
            ("BAD_VERSION", "version")

    @pytest.mark.parametrize("pairs", range(1, 8))
    def test_map_holds_the_source_and_derives_k(self, pairs):
        g = nl.NumberlinkInstance(2 * pairs, 1, tuple(
            (label, (2 * label, 0), (2 * label + 1, 0))
            for label in range(pairs)))
        rmap = rd.ReductionMap(g)
        assert rmap.k == rd.choose_k(pairs)
        assert rmap.block_size == 4 * rd.choose_k(pairs) + 5
        assert rd.parse_map(rd.serialize_map(rmap)) == rmap
        assert rd.reduce_instance(g)[1] == rmap

    def test_map_cannot_be_built_with_a_second_k(self):
        # A map holding k = 3 for a one-pair source used to lift onto a
        # target three times the size of the one `reduce` makes.
        g = nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1, 0)),))
        with pytest.raises(TypeError):
            rd.ReductionMap(3, g)
        with pytest.raises(TypeError):
            rd.ReductionMap(k=3, source=g)

    def test_source_is_validated(self, sample_numberlink):
        _, rmap = rd.reduce_instance(sample_numberlink)
        doc = json.loads(rd.serialize_map(rmap))
        doc["source"]["terminals"][1]["cells"][0] = \
            doc["source"]["terminals"][0]["cells"][0]
        with pytest.raises(ValidationError) as err:
            rd.parse_map(doc)
        assert err.value.code == "DUPLICATE_TERMINAL"

    def test_unknown_field_rejected(self, sample_numberlink):
        _, rmap = rd.reduce_instance(sample_numberlink)
        doc = json.loads(rd.serialize_map(rmap))
        doc["surprise"] = 1
        with pytest.raises(Exception) as err:
            rd.parse_map(json.dumps(doc))
        assert getattr(err.value, "code", "") == "UNKNOWN_FIELD"


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_map_document_round_trip(data):
    width = data.draw(st.integers(1, 5), label="width")
    height = data.draw(st.integers(1 if width > 1 else 2, 5), label="height")
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    pairs = data.draw(st.integers(1, len(cells) // 2), label="pairs")
    labels = data.draw(st.lists(st.integers(-50, 50), min_size=pairs,
                                max_size=pairs, unique=True), label="labels")
    g = nl.NumberlinkInstance(width, height, tuple(
        (label, cells[2 * i], cells[2 * i + 1])
        for i, label in enumerate(labels)))
    rmap = rd.ReductionMap(nl.validate_instance(g))
    text = rd.serialize_map(rmap)
    assert rd.parse_map(text) == rmap
    assert rd.parse_map(json.loads(text)) == rmap
    assert rd.serialize_map(rd.parse_map(text)) == text
