"""Algebraic anatomy: idempotents, subgroups, series, and nim-like islands."""

import pytest

from misere_quotients.builder import element_genus
from misere_quotients.semigroup import (
    enumerate_elements,
    is_isomorphic,
    knuth_bendix,
    parse_presentation,
)
from misere_quotients.structure import (
    hasse_edges,
    idempotent_order,
    idempotents,
    kernel_ideal,
    maximal_subgroup,
    mutual_divisibility_classes,
    principal_series,
    tame_islands,
)

D1 = ("e", "x", "a", "xa")
D2 = ("z", "xz", "za", "xza")
D3 = ("z2", "xz2", "z3", "xz3")
D4 = ("b", "xb", "zb", "xzb")
D5 = ("b2", "xb2", "zb2", "xzb2")

# Local multiplication of the z2 layer with the ideal below collapsed to 0.
Z2_LAYER_NAMES = ("0", "z2", "xz2", "z3", "xz3")
Z2_LAYER_TABLE = (
    (0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4),
    (0, 2, 1, 4, 3),
    (0, 3, 4, 1, 2),
    (0, 4, 3, 2, 1),
)

KAYLES_KERNEL = {
    "z2", "xz2", "z", "xz", "xwf", "wf", "zw", "xzw",
    "g", "xg", "zg", "xzg", "wg", "xwg", "zwg", "xzwg",
}


def names_of(m, indices):
    return tuple(m.names[i] for i in indices)


class TestIdempotents0123:
    def test_three_idempotents_linearly_ordered(self, qa123_12):
        m = qa123_12.monoid
        idems = idempotents(m)
        assert names_of(m, idems) == ("e", "z2", "b2")
        order = idempotent_order(m, idems)
        assert {(m.names[f], m.names[g]) for f, g in order} == {
            ("b2", "z2"), ("b2", "e"), ("z2", "e"),
        }

    def test_hasse_is_a_chain(self, qa123_12):
        m = qa123_12.monoid
        edges = hasse_edges(m)
        assert {(m.names[f], m.names[g]) for f, g in edges} == {
            ("b2", "z2"), ("z2", "e"),
        }


class TestKernel0123:
    def test_kernel_is_the_b2_layer(self, qa123_12):
        m = qa123_12.monoid
        assert names_of(m, kernel_ideal(m)) == D5

    def test_kernel_is_an_ideal_of_minimal_rank(self, qa123_12):
        m = qa123_12.monoid
        k = set(kernel_ideal(m))
        for u in k:
            for v in range(len(m)):
                assert m.table[u][v] in k
        rank = len({m.table[next(iter(k))][v] for v in range(len(m))})
        assert rank == len(k) == 4


class TestDivisibility0123:
    def test_five_classes(self, qa123_12):
        m = qa123_12.monoid
        classes = mutual_divisibility_classes(m)
        got = [names_of(m, c) for c in classes]
        # Sorted by smallest member index.
        assert got == [D1, D2, D4, D3, D5]


class TestSeries0123:
    def test_chain_and_classes(self, qa123_12):
        series = principal_series(qa123_12.monoid)
        assert [len(s) for s in series.chain] == [20, 16, 12, 8, 4, 0]
        m = qa123_12.monoid
        assert [names_of(m, c) for c in series.classes] == [D1, D2, D3, D4, D5]

    def test_factor_labels_alternate(self, qa123_12):
        series = principal_series(qa123_12.monoid)
        assert [f.label for f in series.factors] == [
            "K4+0", "null(4)", "K4+0", "null(4)", "K4+0",
        ]

    def test_z2_layer_table(self, qa123_12):
        series = principal_series(qa123_12.monoid)
        layer = series.factors[2]
        assert layer.names == Z2_LAYER_NAMES
        assert layer.table == Z2_LAYER_TABLE

    def test_chain_entries_are_ideals(self, qa123_12):
        m = qa123_12.monoid
        series = principal_series(m)
        for ideal in series.chain[1:]:
            members = set(ideal)
            for u in members:
                for v in range(len(m)):
                    assert m.table[u][v] in members


class TestFactorLabels:
    @pytest.mark.parametrize(
        "text, label",
        [
            ("gens: a b\na^2 = 1\nb^2 = 1", "K4+0"),
            ("gens: a\na^3 = 1", "group(3)+0"),
        ],
    )
    def test_group_presentation_is_one_group_factor(self, text, label):
        m = enumerate_elements(knuth_bendix(parse_presentation(text)), 10)
        assert [f.label for f in principal_series(m).factors] == [label]


class TestSubgroups0123:
    def test_z2_subgroup_is_klein(self, qa123_12):
        m = qa123_12.monoid
        sub = maximal_subgroup(m, m.index_of("z2"))
        assert set(sub.names) == set(D3)
        k4 = enumerate_elements(
            knuth_bendix(parse_presentation("gens: p q\np^2 = 1\nq^2 = 1")), 10
        )
        assert is_isomorphic(sub, k4) is not None

    def test_rows_are_permutations(self, qa123_12):
        m = qa123_12.monoid
        for name in ("e", "z2", "b2"):
            sub = maximal_subgroup(m, m.index_of(name))
            for row in sub.table:
                assert sorted(row) == list(range(len(sub)))

    def test_rejects_non_idempotent(self, qa123_12):
        m = qa123_12.monoid
        with pytest.raises(ValueError):
            maximal_subgroup(m, m.index_of("z"))


class TestIslands0123:
    def test_three_islands(self, qa123_12):
        m = qa123_12.monoid
        islands = tame_islands(qa123_12)
        assert [m.names[i.idempotent] for i in islands] == ["e", "z2", "b2"]
        assert [names_of(m, i.members) for i in islands] == [D1, D3, D5]

    def test_readings_follow_xor(self, qa123_12):
        m = qa123_12.monoid
        for island in tame_islands(qa123_12):
            reading = island.nim_reading
            assert reading[island.idempotent] == 0
            assert sorted(reading.values()) == list(range(len(island.members)))
            for u in island.members:
                for v in island.members:
                    assert reading[m.table[u][v]] == reading[u] ^ reading[v]

    def test_deep_island_readings_match_true_genera(self, qa123_12):
        # In the z2 and b2 layers the nim reading is literally the genus.
        islands = {
            qa123_12.monoid.names[i.idempotent]: i
            for i in tame_islands(qa123_12)
        }
        for name in ("z2", "b2"):
            island = islands[name]
            for el in island.members:
                assert str(island.genus_reading[el]) == str(
                    element_genus(qa123_12, el)
                )

    def test_unit_island_reading_is_idealized(self, qa123_12):
        # The unit group multiplies like nim but its true genera disagree
        # everywhere; the reading reports the pretended values.
        m = qa123_12.monoid
        island = next(
            i for i in tame_islands(qa123_12) if i.idempotent == m.index_of("e")
        )
        got = {m.names[el]: str(g) for el, g in island.genus_reading.items()}
        assert got == {"e": "0^{02}", "x": "1^{13}", "a": "2^{20}", "xa": "3^{31}"}
        true = {name: str(element_genus(qa123_12, m.index_of(name))) for name in got}
        assert all(got[name] != true[name] for name in got)


class TestKayles:
    def test_five_idempotents(self, kayles):
        m = kayles.monoid
        assert names_of(m, idempotents(m)) == ("e", "z2", "w2", "v2", "vt")

    def test_hasse_diagram(self, kayles):
        m = kayles.monoid
        edges = {(m.names[f], m.names[g]) for f, g in hasse_edges(m)}
        assert edges == {
            ("z2", "w2"), ("z2", "vt"), ("vt", "v2"), ("v2", "e"), ("w2", "e"),
        }

    def test_kernel_subgroup_is_z2_to_the_4(self, kayles):
        m = kayles.monoid
        sub = maximal_subgroup(m, m.index_of("z2"))
        assert set(sub.names) == KAYLES_KERNEL
        assert set(names_of(m, kernel_ideal(m))) == KAYLES_KERNEL
        z2_4 = enumerate_elements(
            knuth_bendix(
                parse_presentation(
                    "gens: p q r s\np^2 = 1\nq^2 = 1\nr^2 = 1\ns^2 = 1"
                )
            ),
            20,
        )
        assert is_isomorphic(sub, z2_4) is not None

    def test_small_subgroups(self, kayles):
        m = kayles.monoid
        expect = {
            "e": {"e", "x"},
            "w2": {"w2", "w", "xw", "xw2"},
            "v2": {"v2", "v", "xv", "xv2"},
            "vt": {"vt", "v2t", "xvt", "xv2t"},
        }
        for name, members in expect.items():
            sub = maximal_subgroup(m, m.index_of(name))
            assert set(sub.names) == members

    def test_all_five_subgroups_are_islands(self, kayles):
        m = kayles.monoid
        islands = tame_islands(kayles)
        assert [m.names[i.idempotent] for i in islands] == [
            "e", "z2", "w2", "v2", "vt",
        ]
        assert sorted(len(i.members) for i in islands) == [2, 4, 4, 4, 16]
        for island in islands:
            for u in island.members:
                assert m.table[u][u] == island.idempotent

    def test_order_relation_is_a_partial_order(self, kayles):
        m = kayles.monoid
        idems = idempotents(m)
        order = set(idempotent_order(m, idems))
        for f, g in order:
            assert (g, f) not in order
        for f, g in order:
            for g2, h in order:
                if g2 == g and (f, h) != (f, g):
                    assert (f, h) in order or f == h
