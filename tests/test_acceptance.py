"""Acceptance gate: the package's headline claims, each timed and reported.

Every test prints exactly one pass/fail line and enforces its stated time
budget.  Frozen expected values are shared with the per-module suites.
"""

import itertools
import random
import time
from contextlib import contextmanager

from misere_quotients.builder import (
    OutcomePartition,
    PretendingFunction,
    build_quotient,
    element_genus,
    packaged_presentation,
    phi_heap,
    phi_of_position,
    predicted_outcome,
)
from misere_quotients.octal import Position, parse_game_code
from misere_quotients.oracle import (
    KAYLES,
    MISERE,
    NORMAL,
    GameTree,
    Outcome,
    genus,
    genus_of_tree,
    grundy,
    nim_heap_tree,
    normal_period,
    outcome,
    sibert_conway_outcome,
    tree_of_position,
    tree_outcome,
    tree_sum,
)
from misere_quotients.semigroup import (
    Presentation,
    action_table,
    enumerate_elements,
    is_isomorphic,
    knuth_bendix,
    parse_presentation,
    parse_word,
    reduce_word,
)
from misere_quotients.structure import (
    hasse_edges,
    idempotent_order,
    idempotents,
    kernel_ideal,
    maximal_subgroup,
    principal_series,
    tame_islands,
)
from misere_quotients.verifier import (
    certify_period,
    solutions_for,
    submonoid_of,
    translates_for_basis,
    verify_to_heap,
    winning_moves,
)

from test_builder import ACTION_ROWS, ELEMENTS, P_NAMES, PHI_NAMES
from test_oracle import GENUS_123, NIM_123
from test_semigroup import ELEMENTS_KAYLES
from test_structure import D1, D3, D5, KAYLES_KERNEL, Z2_LAYER_NAMES, Z2_LAYER_TABLE
from test_verifier import SUBMONOIDS, X_TRANSLATE_ROWS, XB_SOLUTIONS

G123 = parse_game_code("0.123")

KAYLES_P_TYPES = {"x", "v", "t", "z2", "xw", "xw2", "xv2", "xvt", "xvf"}


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        assert budget is None or dt < budget, (
            f"over budget: {dt:.2f}s, allowed {budget}s"
        )
    except BaseException:
        print(f"criterion {num:02d} ({label}): FAIL")
        raise
    print(f"criterion {num:02d} ({label}): PASS ({dt:.2f}s)")


def test_criterion_01_normal_play():
    with criterion(1, "0.123 normal play", budget=1.0):
        assert [grundy(G123, h) for h in range(1, 16)] == NIM_123
        assert normal_period(G123) == (5, 5)


def test_criterion_02_genus_row():
    with criterion(2, "0.123 genus row", budget=10.0):
        row = [str(genus(G123, Position.of(h))) for h in range(1, 16)]
        assert row == GENUS_123
        assert row[7] == "2^{1420}"
        assert row[8] == "1^{20}"


def test_criterion_03_quotient_builder():
    with criterion(3, "0.123 quotient builder", budget=60.0):
        qa = build_quotient(G123, 12)
        m = qa.monoid
        assert list(m.names) == ELEMENTS
        presented = enumerate_elements(
            knuth_bendix(packaged_presentation("0.123")), 25
        )
        assert is_isomorphic(m, presented) is not None
        assert [m.names[qa.phi.value(h)] for h in range(1, 13)] == PHI_NAMES
        assert {m.names[i] for i in qa.partition.p_set} == P_NAMES
        cols = [action_table(m, g) for g in "xzab"]
        for i, name in enumerate(m.names):
            assert tuple(m.names[c[i]] for c in cols) == ACTION_ROWS[name]


def test_criterion_04_verification_and_certification(qa123_12, qa123):
    m = qa123_12.monoid
    with criterion(4, "0.123 verification and certification"):
        t0 = time.perf_counter()
        fast = verify_to_heap(qa123_12, 19, collapse=True)
        fast_dt = time.perf_counter() - t0
        assert fast.passed and fast_dt < 10.0, fast_dt

        t0 = time.perf_counter()
        slow = verify_to_heap(qa123_12, 19, collapse=False)
        slow_dt = time.perf_counter() - t0
        assert slow.passed and slow_dt < 300.0, slow_dt

        cert = certify_period(qa123_12, 6, 5)
        assert cert is not None
        assert cert.certified_period == (6, 5)
        assert cert.verified_to == 19

        rows = translates_for_basis(qa123_12, 12, m.index_of("x"))
        named = [(f, t, m.names[s], m.names[e]) for f, t, s, e in rows]
        assert named == X_TRANSLATE_ROWS

        for heaps, want in SUBMONOIDS.items():
            got = {m.names[i] for i in submonoid_of(qa123, heaps)}
            assert got == (set(m.names) if want is None else want), heaps

        xb = m.index_of("xb")
        for heaps, (want_all, want_in_s) in XB_SOLUTIONS.items():
            sols = solutions_for(qa123, xb, heaps)
            assert {m.names[i] for i in sols} == want_all, heaps
            inside = set(sols) & set(submonoid_of(qa123, heaps))
            assert {m.names[i] for i in inside} == want_in_s, heaps

        def moves(heaps, s_name):
            got = winning_moves(qa123, heaps, m.index_of(s_name))
            return [(h, t, m.names[el]) for h, t, el in got]

        assert moves((9, 10), "e") == [(9, (7,), "x"), (10, (8,), "zb")]
        assert (4, (1,), "zb") in moves((4, 9, 10), "z")
        assert (8, (5,), "zb") in moves((8, 9, 10), "a")
        for s_name in ("e", "z2", "za"):
            assert (4, (1,), "zb") in moves((4, 8, 9, 10), s_name)
        assert moves((9, 10), "xz") == []


def test_criterion_05_worked_example(qa123):
    with criterion(5, "worked example"):
        m = qa123.monoid
        pos = Position.of(1, 3, 4, 8, 9, 21)
        assert m.names[phi_of_position(qa123, pos)] == "zb2"
        assert predicted_outcome(qa123, pos) is Outcome.N
        after = Position.of(1, 4, 8, 9, 21)
        after_el = phi_of_position(qa123, after)
        assert m.names[after_el] == "b2"
        assert after_el in qa123.partition.p_set
        assert str(element_genus(qa123, after_el)) == "0^{02}"
        assert str(genus(G123, after)) == "0^{02}"


def test_criterion_06_rewriting():
    with criterion(6, "rewriting", budget=5.0):
        pres123 = packaged_presentation("0.123")
        pres77 = packaged_presentation("0.77")
        rws123 = knuth_bendix(pres123)
        rws77 = knuth_bendix(pres77)

        start = parse_word("x z^2 a b^3", pres123.generators)
        want = parse_word("z b^2", pres123.generators)
        assert reduce_word(rws123, start) == want

        for pres, rws in ((pres123, rws123), (pres77, rws77)):
            for lhs, rhs in pres.relations:
                assert reduce_word(rws, lhs) == reduce_word(rws, rhs)

        assert len(enumerate_elements(rws123, 25)) == 20
        assert len(enumerate_elements(rws77, 50)) == 40


def _partitions(total, max_part=None):
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_07_kayles(kayles):
    with criterion(7, "kayles", budget=600.0):
        m = kayles.monoid
        assert list(m.names) == ELEMENTS_KAYLES
        assert len(m) == 40

        # The same presentation wearing fresh generator letters must land on
        # the same monoid up to relabeling.
        pres = packaged_presentation("0.77")
        assert len(pres.generators) == 7
        relabeled = Presentation(("p", "q", "r", "s", "u", "m", "n"), pres.relations)
        other = enumerate_elements(knuth_bendix(relabeled), 50)
        assert is_isomorphic(m, other) is not None

        assert {m.names[i] for i in kayles.partition.p_set} == KAYLES_P_TYPES

        idems = idempotents(m)
        assert {m.names[f] for f in idems} == {"e", "z2", "w2", "v2", "vt"}
        edges = {
            (m.names[a], m.names[b]) for a, b in hasse_edges(m, idems)
        }
        assert edges == {
            ("z2", "w2"), ("z2", "vt"), ("vt", "v2"), ("v2", "e"), ("w2", "e"),
        }

        sub = maximal_subgroup(m, m.index_of("z2"))
        assert set(sub.names) == KAYLES_KERNEL
        z2_4 = enumerate_elements(
            knuth_bendix(
                parse_presentation(
                    "gens: p q r s\np^2 = 1\nq^2 = 1\nr^2 = 1\ns^2 = 1"
                )
            ),
            20,
        )
        assert is_isomorphic(sub, z2_4) is not None

        sizes = tuple(range(1, 13)) + (17, 20, 25, 27)
        checked = 0
        for k in range(0, 5):
            for heaps in itertools.combinations_with_replacement(sizes, k):
                p = Position.from_heaps(heaps)
                assert predicted_outcome(kayles, p) is sibert_conway_outcome(p)[1], (
                    heaps
                )
                checked += 1
        assert checked == 4845

        for total in range(0, 25):
            for heaps in _partitions(total):
                p = Position.from_heaps(heaps)
                normal, misere = sibert_conway_outcome(p)
                assert normal is outcome(KAYLES, p, NORMAL), heaps
                assert misere is outcome(KAYLES, p, MISERE), heaps


def test_criterion_08_kayles_certification(kayles):
    with criterion(8, "kayles certification", budget=600.0):
        cert = certify_period(kayles, 73, 12)
        assert cert is not None
        assert cert.certified_period == (73, 12)
        assert cert.verified_to == 159


def test_criterion_09_structure(qa123_12):
    m = qa123_12.monoid
    with criterion(9, "structure", budget=1.0):
        idems = idempotents(m)
        assert tuple(m.names[f] for f in idems) == ("e", "z2", "b2")
        order = {
            (m.names[a], m.names[b]) for a, b in idempotent_order(m, idems)
        }
        assert order == {("b2", "z2"), ("b2", "e"), ("z2", "e")}

        kernel = kernel_ideal(m)
        assert tuple(m.names[u] for u in kernel) == D5
        for u in kernel:
            assert len({m.table[u][v] for v in range(len(m))}) == 4

        series = principal_series(m)
        assert [f.label for f in series.factors] == [
            "K4+0", "null(4)", "K4+0", "null(4)", "K4+0",
        ]
        layer = series.factors[2]
        assert layer.names == Z2_LAYER_NAMES
        assert layer.table == Z2_LAYER_TABLE

        islands = tame_islands(qa123_12)
        assert [
            tuple(m.names[u] for u in isl.members) for isl in islands
        ] == [D1, D3, D5]


def test_criterion_10_genus_vs_quotient(qa123):
    with criterion(10, "genus vs quotient"):
        m = qa123.monoid
        two_plus = GameTree(frozenset({nim_heap_tree(2)}))
        a = GameTree(frozenset({two_plus, nim_heap_tree(3)}))
        b = GameTree(frozenset({two_plus, nim_heap_tree(2), nim_heap_tree(0)}))
        t = GameTree(frozenset({a, b, nim_heap_tree(3), nim_heap_tree(1)}))

        h6 = tree_of_position(G123, Position.of(6))
        h11 = tree_of_position(G123, Position.of(11))
        assert tree_outcome(tree_sum(h6, t), MISERE) is Outcome.N
        assert str(genus_of_tree(tree_sum(h6, t))) == "0^{20}"
        assert tree_outcome(tree_sum(h11, t), MISERE) is Outcome.P
        assert str(genus_of_tree(tree_sum(h11, t))) == "0^{0520}"

        s = tree_of_position(G123, Position.of(5, 9))
        pair = tree_of_position(G123, Position.of(3, 3))
        assert str(genus_of_tree(tree_sum(h6, s))) == "0^{02}"
        assert tree_outcome(tree_sum(h6, s), MISERE) is Outcome.P
        assert str(genus_of_tree(tree_sum(pair, s))) == "0^{31}"
        assert tree_outcome(tree_sum(pair, s), MISERE) is Outcome.N

        z2 = phi_of_position(qa123, (3, 3))
        b2 = phi_heap(qa123, 6)
        assert m.names[z2] == "z2"
        assert m.names[b2] == "b2"
        assert z2 != b2
        for heaps in [(6,), (11,), (3, 3)]:
            assert str(genus(G123, Position.from_heaps(heaps))) == "0^{02}"


def test_criterion_11_property_suites(qa123_12, qa123):
    with criterion(11, "property suites"):
        m = qa123_12.monoid

        # Indistinguishability is a congruence: equal images stay
        # outcome-equivalent under any shared extension.
        rng = random.Random(20260822)
        by_el = {}
        for k in range(0, 4):
            for heaps in itertools.combinations_with_replacement(range(1, 13), k):
                by_el.setdefault(phi_of_position(qa123, heaps), []).append(heaps)
        for el, bucket in by_el.items():
            if len(bucket) < 2:
                continue
            for _ in range(8):
                p, q = rng.sample(bucket, 2)
                ext = tuple(
                    rng.choice(range(1, 13)) for _ in range(rng.randrange(0, 3))
                )
                a = outcome(G123, Position.from_heaps(p + ext), MISERE)
                b = outcome(G123, Position.from_heaps(q + ext), MISERE)
                assert a is b, (p, q, ext)

        # Reduction order never changes the normal form.
        rws = knuth_bendix(packaged_presentation("0.123"))
        for _ in range(10**4):
            w = tuple(rng.randrange(0, 7) for _ in range(4))
            det = reduce_word(rws, w)
            shuffled = reduce_word(rws, w, rng=rng)
            assert det == shuffled, w

        # Collapsed and naive verification agree, pass and fail alike.
        fast = verify_to_heap(qa123_12, 14, collapse=True)
        slow = verify_to_heap(qa123_12, 14, collapse=False)
        assert fast.passed and slow.passed
        assert fast.stats["evaluations"] < slow.stats["evaluations"]

        b2 = m.index_of("b2")
        bad_part = qa123_12._replace(
            partition=OutcomePartition(
                qa123_12.partition.p_set - {b2},
                qa123_12.partition.n_set | {b2},
            ),
        )
        assert not verify_to_heap(bad_part, 12, collapse=True).passed
        assert not verify_to_heap(bad_part, 12, collapse=False).passed

        values = list(qa123_12.phi.values)
        values[7], values[8] = values[8], values[7]
        bad_phi = qa123_12._replace(phi=PretendingFunction(tuple(values)))
        assert not verify_to_heap(bad_phi, 12).passed

        # Predictions match exhaustive search on every small position.
        count = 0
        for k in range(0, 6):
            for heaps in itertools.combinations_with_replacement(range(1, 13), k):
                p = Position.from_heaps(heaps)
                assert predicted_outcome(qa123, p) is outcome(G123, p, MISERE), heaps
                count += 1
        assert count > 6000
