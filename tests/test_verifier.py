"""Induction checks for the 0.123 analysis against the published tables."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from misere_quotients.builder import (
    OutcomePartition,
    PretendingFunction,
    QuotientAnalysis,
    build_quotient,
    phi_heap,
)
from misere_quotients.octal import parse_game_code
from misere_quotients.oracle import MISERE, BudgetExceededError
from misere_quotients.semigroup import FiniteCommutativeMonoid
from misere_quotients.verifier import (
    MovePair,
    Translate,
    _Context,
    _move_targets,
    _preimage,
    _row_masks,
    _rows,
    _scan_collapsed,
    _scan_naive,
    _walk_moves,
    certify_period,
    check_N_to_P,
    check_no_PP,
    move_pairs,
    solutions_for,
    submonoid_of,
    translates_for_basis,
    verify_to_heap,
    winning_moves,
)

G123 = parse_game_code("0.123")

# Every single-heap move f -> t with f <= 12, translated by the basis
# element x, as (f, t, x*phi(f), x*phi(t)).
X_TRANSLATE_ROWS = [
    (1, (), "e", "x"),
    (3, (), "xz", "x"),
    (3, (1,), "xz", "e"),
    (4, (1,), "xz", "e"),
    (4, (2,), "xz", "x"),
    (5, (2,), "e", "x"),
    (5, (3,), "e", "xz"),
    (6, (3,), "xb2", "xz"),
    (6, (4,), "xb2", "xz"),
    (7, (4,), "x", "xz"),
    (7, (5,), "x", "e"),
    (8, (5,), "xa", "e"),
    (8, (6,), "xa", "xb2"),
    (9, (6,), "xb", "xb2"),
    (9, (7,), "xb", "x"),
    (10, (7,), "e", "x"),
    (10, (8,), "e", "xa"),
    (11, (8,), "xb2", "xa"),
    (11, (9,), "xb2", "xb"),
    (12, (9,), "x", "xb"),
    (12, (10,), "x", "e"),
]

# Submonoids S(U) generated by the wild heaps' classes, one row per
# nonempty subset of {4, 8, 9, 10}.
SUBMONOIDS = {
    (4,): {"e", "z", "z2", "z3"},
    (8,): {"e", "a"},
    (9,): {"e", "b", "b2", "xb2"},
    (10,): {"e", "x"},
    (4, 8): {"e", "z", "a", "z2", "za", "z3"},
    (4, 9): {"e", "z", "b", "z2", "zb", "b2", "z3", "zb2", "xb2", "xzb2"},
    (4, 10): {"e", "x", "z", "xz", "z2", "xz2", "z3", "xz3"},
    (8, 9): {"e", "a", "b", "zb", "b2", "zb2", "xb2", "xzb2"},
    (8, 10): {"e", "x", "a", "xa"},
    (9, 10): {"e", "x", "b", "xb", "b2", "xb2"},
    (4, 8, 9): {"e", "z", "a", "b", "z2", "za", "zb", "b2", "z3", "zb2",
                "xb2", "xzb2"},
    (4, 8, 10): {"e", "x", "z", "a", "xz", "xa", "z2", "za", "xz2", "xza",
                 "z3", "xz3"},
    (4, 9, 10): {"e", "x", "z", "b", "xz", "xb", "z2", "zb", "b2", "xz2",
                 "xzb", "xb2", "z3", "zb2", "xz3", "xzb2"},
    (8, 9, 10): {"e", "x", "a", "b", "xa", "xb", "zb", "b2", "xb2", "zb2",
                 "xzb", "xzb2"},
    (4, 8, 9, 10): None,  # the whole monoid
}

# For omega = xb: all monoid solutions of s * phi(U) = xb, and the subset
# lying in S(U), which are the only cases a real position can realize.
XB_SOLUTIONS = {
    (4,): ({"xzb"}, set()),
    (8,): ({"xzb"}, set()),
    (9,): ({"x", "xz2", "xza"}, set()),
    (10,): ({"b"}, set()),
    (4, 8): ({"xb"}, set()),
    (4, 9): ({"xz", "xa", "xz3"}, set()),
    (4, 10): ({"zb"}, set()),
    (8, 9): ({"xz", "xa", "xz3"}, set()),
    (8, 10): ({"zb"}, set()),
    (9, 10): ({"e", "z2", "za"}, {"e"}),
    (4, 8, 9): ({"x", "xz2", "xza"}, set()),
    (4, 8, 10): ({"b"}, set()),
    (4, 9, 10): ({"z", "a", "z3"}, {"z", "z3"}),
    (8, 9, 10): ({"z", "a", "z3"}, {"a"}),
    (4, 8, 9, 10): ({"e", "z2", "za"}, {"e", "z2", "za"}),
}


def names_of(qa, indices):
    return {qa.monoid.names[i] for i in indices}


class TestMovePairs:
    def test_fifteen_distinct_pairs(self, qa123_12):
        pairs = move_pairs(qa123_12, 12)
        assert len(pairs) == 15
        m = qa123_12.monoid
        as_names = {(m.names[p.lhs], m.names[p.rhs]): p.source for p in pairs}
        assert as_names[("b", "e")] == (9, (7,))
        assert as_names[("x", "e")] == (1, ())
        assert as_names[("z", "x")] == (3, (1,))
        assert ("e", "e") not in as_names

    def test_pairs_stabilize_past_the_window(self, qa123):
        # 2*r0 + p + places - 1 = 19 for 0.123: longer prefixes add nothing.
        at_window = move_pairs(qa123, 19)
        assert move_pairs(qa123, 24) == at_window
        assert move_pairs(qa123, 29) == at_window


class TestTranslates:
    def test_x_translate_table(self, qa123_12):
        m = qa123_12.monoid
        rows = translates_for_basis(qa123_12, 12, m.index_of("x"))
        got = [(f, t, m.names[s], m.names[e]) for f, t, s, e in rows]
        assert got == X_TRANSLATE_ROWS

    def test_translate_outcomes(self, qa123_12):
        # No row may land P -> P; rows starting in P are the winning moves.
        part = qa123_12.partition
        m = qa123_12.monoid
        rows = translates_for_basis(qa123_12, 12, m.index_of("x"))
        p_starts = 0
        for _, _, start, end in rows:
            if start in part.p_set:
                p_starts += 1
                assert end in part.n_set
        assert p_starts == 6

    def test_no_pp_translate_anywhere(self, qa123_12):
        assert check_no_PP(qa123_12, 12) == []


class TestSubmonoids:
    @pytest.mark.parametrize("heaps", sorted(SUBMONOIDS))
    def test_generated_submonoids(self, qa123, heaps):
        want = SUBMONOIDS[heaps]
        got = names_of(qa123, submonoid_of(qa123, heaps))
        if want is None:
            assert got == set(qa123.monoid.names)
        else:
            assert got == want


class TestSolutions:
    @pytest.mark.parametrize("heaps", sorted(XB_SOLUTIONS))
    def test_solutions_and_realizable_subset(self, qa123, heaps):
        m = qa123.monoid
        want_all, want_in_s = XB_SOLUTIONS[heaps]
        sols = solutions_for(qa123, m.index_of("xb"), heaps)
        assert names_of(qa123, sols) == want_all
        realizable = set(sols) & set(submonoid_of(qa123, heaps))
        assert names_of(qa123, realizable) == want_in_s


class TestWinningMoves:
    def test_case_table_for_xb(self, qa123):
        m = qa123.monoid

        def moves(heaps, s_name):
            got = winning_moves(qa123, heaps, m.index_of(s_name))
            return [(h, t, m.names[el]) for h, t, el in got]

        assert moves((9, 10), "e") == [(9, (7,), "x"), (10, (8,), "zb")]
        assert (4, (1,), "zb") in moves((4, 9, 10), "z")
        assert (8, (5,), "zb") in moves((8, 9, 10), "a")
        assert (4, (1,), "zb") in moves((4, 8, 9, 10), "e")
        assert (4, (1,), "zb") in moves((4, 8, 9, 10), "z2")
        assert (4, (1,), "zb") in moves((4, 8, 9, 10), "za")

    def test_p_case_has_no_winning_move(self, qa123):
        # xz * phi(9) * phi(10) = zb, an asserted P element: every move from
        # the heaps must land in N, so the list is empty.
        m = qa123.monoid
        assert winning_moves(qa123, (9, 10), m.index_of("xz")) == []


class TestVerification:
    def test_passes_at_window(self, qa123_12):
        report = verify_to_heap(qa123_12, 12)
        assert report.passed
        assert report.pp_violations == []
        assert report.np_failures == []
        assert report.stats["move_pairs"] == 15
        assert report.stats["dead_heaps"] == [2]

    def test_naive_and_collapsed_agree(self, qa123_12):
        fast = verify_to_heap(qa123_12, 12, collapse=True)
        slow = verify_to_heap(qa123_12, 12, collapse=False)
        assert fast.passed and slow.passed
        assert fast.stats["evaluations"] < slow.stats["evaluations"]

    def test_single_element_check(self, qa123_12):
        m = qa123_12.monoid
        assert check_N_to_P(qa123_12, 12, m.index_of("xb")) == []
        with pytest.raises(ValueError):
            check_N_to_P(qa123_12, 12, m.index_of("x"))  # x is asserted P

    def test_budget(self, qa123_12):
        with pytest.raises(BudgetExceededError):
            verify_to_heap(qa123_12, 12, budget=10)

    def test_naive_scan_budget(self, qa123_12):
        with pytest.raises(BudgetExceededError):
            verify_to_heap(qa123_12, 12, collapse=False, budget=1)


class TestMutations:
    def test_misclassified_p_element_is_caught(self, qa123_12):
        # Claiming b2 is an N element must break the N-to-P half: b2 has no
        # move to the remaining P set.
        m = qa123_12.monoid
        b2 = m.index_of("b2")
        bad = qa123_12._replace(
            partition=OutcomePartition(
                qa123_12.partition.p_set - {b2},
                qa123_12.partition.n_set | {b2},
            ),
        )
        report = verify_to_heap(bad, 12)
        assert not report.passed
        assert any(omega == b2 for omega, _, _ in report.np_failures)

    def test_misclassified_n_element_is_caught(self, qa123_12):
        m = qa123_12.monoid
        e = m.index_of("e")
        bad = qa123_12._replace(
            partition=OutcomePartition(
                qa123_12.partition.p_set | {e},
                qa123_12.partition.n_set - {e},
            ),
        )
        report = verify_to_heap(bad, 12)
        assert not report.passed
        # The all-dead scan flags the moveless positions directly, starting
        # from the empty position itself.
        assert (e, (), e) in report.np_failures

    def test_dead_heap_off_the_identity_is_caught(self, qa123_12):
        # Heap 2 has no move; pretending it is the P element x makes the
        # lone heap 2 a moveless position asserted P, the all-dead witness.
        m = qa123_12.monoid
        x, e = m.index_of("x"), m.index_of("e")
        values = list(qa123_12.phi.values)
        values[1] = x
        bad = qa123_12._replace(phi=PretendingFunction(tuple(values)))
        report = verify_to_heap(bad, 12)
        assert not report.passed
        assert report.stats["dead_heaps"] == [2]
        assert (x, (2,), e) in report.np_failures

    def test_swapped_heap_values_are_caught(self, qa123_12):
        # Exchange the classes of heaps 8 and 9 (a and b).
        values = list(qa123_12.phi.values)
        values[7], values[8] = values[8], values[7]
        bad = qa123_12._replace(phi=PretendingFunction(tuple(values)))
        report = verify_to_heap(bad, 12)
        assert not report.passed
        assert report.pp_violations or report.np_failures

    def test_collapsed_failures_are_real_naive_failures(self, qa123_12):
        m = qa123_12.monoid
        b2 = m.index_of("b2")
        bad = qa123_12._replace(
            partition=OutcomePartition(
                qa123_12.partition.p_set - {b2},
                qa123_12.partition.n_set | {b2},
            ),
        )
        fast = verify_to_heap(bad, 12, collapse=True)
        slow = verify_to_heap(bad, 12, collapse=False)
        assert not fast.passed and not slow.passed
        assert set(fast.np_failures) <= set(slow.np_failures)


class TestCertification:
    def test_certifies_the_true_period(self, qa123_12):
        cert = certify_period(qa123_12, 6, 5)
        assert cert is not None
        assert cert.certified_period == (6, 5)
        assert cert.verified_to == 19
        assert cert.phi.claimed_period == (6, 5)

    def test_rejects_nonperiodic_claim(self, qa123_12):
        with pytest.raises(ValueError, match="fails at heap"):
            certify_period(qa123_12, 3, 5)

    def test_rejects_short_prefix(self, qa123_12):
        with pytest.raises(ValueError, match="full period"):
            certify_period(qa123_12, 10, 5)

    def test_rejects_nonpositive_indices(self, qa123_12):
        with pytest.raises(ValueError):
            certify_period(qa123_12, 0, 5)
        with pytest.raises(ValueError):
            certify_period(qa123_12, 6, 0)

    def test_failing_analysis_returns_none(self, qa123_12):
        m = qa123_12.monoid
        b2 = m.index_of("b2")
        bad = qa123_12._replace(
            partition=OutcomePartition(
                qa123_12.partition.p_set - {b2},
                qa123_12.partition.n_set | {b2},
            ),
        )
        assert certify_period(bad, 6, 5) is None


# ---------------------------------------------------------------------------
# the memoized N-to-P search against the naive scan


def scan_verdicts(qa, n):
    """Run the collapsed and the naive scan and check that they agree: a
    stuck N case in both or neither, for the same elements, every collapsed
    failure a naive one, and every naive failure, with value copies past the
    second folded into s, listed once by the collapsed scan.  A collapsed
    scan and a report limited to one failure give the same verdict as the
    full ones and list a part of theirs.  Returns whether a stuck case
    exists."""
    ctx = _Context(qa, n)
    watch = frozenset(qa.partition.n_set)
    fast, _, _ = _scan_collapsed(ctx, watch, None)
    slow, _, _ = _scan_naive(ctx, watch, None)
    first, _, _ = _scan_collapsed(ctx, watch, None, 1)
    assert first == fast[:1]
    full, brief = verify_to_heap(qa, n), verify_to_heap(qa, n, limit=1)
    assert brief.passed == full.passed
    assert set(brief.np_failures) <= set(full.np_failures)
    assert bool(fast) == bool(slow)
    assert {omega for omega, _, _ in fast} == {omega for omega, _, _ in slow}
    assert set(fast) <= set(slow)

    def collapsed_case(failure):
        omega, heaps, s = failure
        kept: list[int] = []
        for v in sorted(ctx.heap_phi[h] for h in heaps):
            if kept[-2:] == [v, v]:
                s = ctx.table[s][v]
            else:
                kept.append(v)
        return omega, tuple(kept), s

    listed = [collapsed_case(f) for f in fast]
    assert len(set(listed)) == len(listed)
    assert set(listed) == {collapsed_case(f) for f in slow}
    return bool(fast)


def flip_labels(qa, elements):
    p_set = qa.partition.p_set ^ frozenset(elements)
    everything = frozenset(range(len(qa.monoid)))
    return qa._replace(partition=OutcomePartition(p_set, everything - p_set))


def edit_phi(qa, edit):
    """("swap", i, j) exchanges the values of heaps i+1 and j+1; ("move", i,
    e) sends heap i+1 to element e."""
    values = list(qa.phi.values)
    if edit[0] == "swap":
        _, i, j = edit
        values[i], values[j] = values[j], values[i]
    else:
        _, i, e = edit
        values[i] = e
    return qa._replace(phi=PretendingFunction(tuple(values)))


def phi_edits(n, k):
    heap = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("swap"), heap, heap),
        st.tuples(st.just("move"), heap, st.integers(0, k - 1)),
    )


def label_flips(k):
    return st.frozensets(st.integers(0, k - 1), min_size=1, max_size=3)


def cyclic_product(shape):
    """The product of cyclic monoids <x | x^(a+p) = x^a>, one per (a, p) in
    shape, on exponent vectors."""

    def fold(x, a, p):
        return x if x < a + p else a + (x - a) % p

    elements = list(itertools.product(*(range(a + p) for a, p in shape)))
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(
        tuple(
            index[tuple(fold(x + y, a, p) for x, y, (a, p) in zip(u, v, shape))]
            for v in elements
        )
        for u in elements
    )
    generators = {
        f"x{i}": index[
            tuple(fold(int(i == j), a, p) for j, (a, p) in enumerate(shape))
        ]
        for i in range(len(shape))
    }
    names = tuple(".".join(map(str, e)) for e in elements)
    return FiniteCommutativeMonoid(names, table, generators)


SYNTHETIC_CODES = [parse_game_code(c) for c in ("0.123", "0.77", "0.137", "0.07", "0.4")]


@st.composite
def synthetic_quotients(draw):
    """A candidate analysis on a product of one to three cyclic monoids, with
    a random pretending function and a random P set."""
    # At most 36 elements keeps the naive scan to a few milliseconds.
    shape = draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                 min_size=1, max_size=3)
        .filter(lambda shape: math.prod(a + p for a, p in shape) <= 36)
    )
    monoid = cyclic_product(shape)
    k = len(monoid)
    n = draw(st.integers(9, 12))
    values = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    in_p = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    p_set = frozenset(e for e in range(k) if in_p[e])
    return QuotientAnalysis(
        code=draw(st.sampled_from(SYNTHETIC_CODES)),
        play=MISERE,
        n=n,
        monoid=monoid,
        phi=PretendingFunction(tuple(values)),
        partition=OutcomePartition(p_set, frozenset(range(k)) - p_set),
    )


# Evaluations per asserted N element of verify_to_heap(kayles, 25).
KAYLES_25_CASES = {
    0: 2, 2: 513, 3: 6, 6: 6, 8: 478, 10: 4, 11: 2, 12: 4, 15: 372,
    17: 3, 18: 480, 20: 3, 21: 70, 22: 6, 23: 25, 24: 664, 25: 335,
    28: 537, 33: 22, 35: 66, 36: 27, 38: 63, 39: 25,
}


# The collapsed scan of qa123_12 with b2 moved to N, at window 12, per
# limit: nodes, evaluations, states and the cases per omega of the part
# walked.  A walk stopped at its limit has stored no state yet.
B2_FIRST_CASES = {
    2: 3, 5: 1, 11: 3, 12: 2, 15: 3, 16: 3, 17: 3, 18: 1, 19: 3,
}
B2_WALKS = {
    1: (4, 22, 0, B2_FIRST_CASES),
    2: (4, 22, 0, B2_FIRST_CASES),
    5: (4, 22, 0, B2_FIRST_CASES),
    None: (323, 3290, 144, {
        0: 17, 2: 18, 3: 9, 4: 108, 5: 12, 7: 72, 9: 9, 11: 792, 12: 54,
        13: 6, 14: 66, 15: 702, 16: 72, 17: 690, 18: 48, 19: 615,
    }),
}
# Its first five failures in the scan's value order, the SHA-256 of the
# repr of all 2 574 in that order, and that of their sorted repr, which no
# fixed value order changes.
B2_FIRST_FAILURES = [
    (19, (1, 3, 6, 7), 0), (15, (1, 3, 6, 7), 2), (11, (1, 3, 6, 7), 5),
    (19, (1, 3, 6, 7), 8), (19, (1, 3, 6, 7), 11),
]
B2_FAILURES_SHA256 = "583ea129d66889bceced65b86cc4a08e641f5de4d201c2362753ee17299aaee5"
B2_SORTED_FAILURES_SHA256 = (
    "860bef64f659acbb86fe93c2e1b0b2f364d0cdb00ae2b8652ff09b767543dc41"
)

# verify_to_heap of Kayles cut at heap 30, heap 30 sent to vf: cases per omega.
KAYLES_VF_30_CASES = {
    0: 2, 2: 2521, 3: 6, 6: 12, 7: 740, 8: 2489, 10: 4, 11: 2, 12: 8,
    13: 637, 15: 2394, 16: 504, 17: 3, 18: 2689, 19: 562, 20: 3,
    21: 70, 22: 12, 23: 39, 24: 3033, 25: 2365, 26: 476, 28: 2944,
    29: 504, 33: 34, 34: 417, 35: 66, 36: 39, 37: 393, 38: 63,
    39: 33,
}

# The SHA-256 of the repr of [(e, its complete listing in scan order)] over
# the single P/N flips e of Kayles at window 10 that leave a stuck case.
KAYLES_FLIP_LISTINGS_SHA256 = (
    "4d327be0b6745a6a71e09e7923f114f1f09951f0dd8f8be29cf01e9965e4e06e"
)


class TestMemoizedScan:
    def test_every_single_flip_agrees(self, qa123_12):
        stuck = 0
        for e in range(len(qa123_12.monoid)):
            stuck += scan_verdicts(flip_labels(qa123_12, {e}), 12)
        assert stuck > 0  # some flips leave an N element stuck

    def test_every_single_kayles_flip_agrees(self, kayles):
        # At window 10 the collapsed scan's fail-first value order is not
        # the index order, so this checks the reordered walk on 40 elements.
        stuck = 0
        for e in range(len(kayles.monoid)):
            stuck += scan_verdicts(flip_labels(kayles, {e}), 10)
        assert stuck == 6

    def test_kayles_flip_listings_keep_their_order(self, kayles):
        # The reach bound skips subtrees here (fewer states in all), yet each
        # stuck flip lists the same cases in the same order as the walk
        # without it.
        stuck, states = [], 0
        for e in range(len(kayles.monoid)):
            qa = flip_labels(kayles, {e})
            listed, _, stats = _scan_collapsed(
                _Context(qa, 10), frozenset(qa.partition.n_set), None)
            states += stats["states"]
            if listed:
                stuck.append((e, listed))
        assert [e for e, _ in stuck] == [1, 4, 9, 14, 27, 30]
        digest = hashlib.sha256(repr(stuck).encode()).hexdigest()
        assert digest == KAYLES_FLIP_LISTINGS_SHA256
        # The walk without the reach bound stores 3 980 states.
        assert states < 3_980

    @settings(max_examples=60, deadline=None)
    @given(flips=st.one_of(st.just(frozenset()), label_flips(20)),
           edits=st.lists(phi_edits(12, 20), max_size=2))
    def test_perturbed_0123_agrees(self, qa123_12, flips, edits):
        qa = flip_labels(qa123_12, flips)
        for edit in edits:
            qa = edit_phi(qa, edit)
        scan_verdicts(qa, 12)

    @settings(max_examples=40, deadline=None)
    @given(flips=st.one_of(st.just(frozenset()), label_flips(40)),
           edits=st.lists(phi_edits(12, 40), max_size=2))
    def test_perturbed_kayles_agrees(self, kayles, flips, edits):
        qa = flip_labels(kayles, flips)
        for edit in edits:
            qa = edit_phi(qa, edit)
        scan_verdicts(qa, 12)

    @settings(max_examples=200, deadline=None)
    @given(qa=synthetic_quotients())
    def test_synthetic_quotients_agree(self, qa):
        scan_verdicts(qa, qa.n)

    def test_kayles_certificate_window(self, kayles):
        assert kayles.phi.claimed_period == (73, 12)
        report = verify_to_heap(kayles, 159)
        assert report.passed
        assert (report.stats["nodes"], report.stats["evaluations"],
                report.stats["states"]) == (1_214, 12_882, 167)

    def test_kayles_window_25_counters(self, kayles):
        report = verify_to_heap(kayles, 25)
        assert report.passed
        assert (report.stats["nodes"], report.stats["evaluations"],
                report.stats["states"]) == (482, 3_713, 83)
        assert report.stats["cases_by_omega"] == KAYLES_25_CASES

    def test_budget_boundary(self, kayles):
        # The budget is tested once per state, after all of its
        # evaluations: a budget of exactly the total still passes, one less
        # raises.
        assert verify_to_heap(kayles, 25, budget=3_713).passed
        with pytest.raises(BudgetExceededError):
            verify_to_heap(kayles, 25, budget=3_712)

    def test_failing_report_lists_every_case(self, qa123_12):
        bad = flip_labels(qa123_12, {qa123_12.monoid.index_of("b2")})
        ctx = _Context(bad, 12)
        watch = frozenset(bad.partition.n_set)
        listed, _, _ = _scan_collapsed(ctx, watch, None)
        report = verify_to_heap(bad, 12)
        assert listed and set(listed) <= set(report.np_failures)
        assert report.stats["states"] > 0

    def test_limit_lists_the_first_failures(self, qa123_12):
        bad = flip_labels(qa123_12, {qa123_12.monoid.index_of("b2")})
        ctx = _Context(bad, 12)
        watch = frozenset(bad.partition.n_set)
        listed, _, every = _scan_collapsed(ctx, watch, None)
        assert len(listed) > 5
        for limit in (1, 2, 5, len(listed), len(listed) + 1):
            got, _, stats = _scan_collapsed(ctx, watch, None, limit)
            assert got == listed[:limit]
            assert stats["nodes"] <= every["nodes"]
        assert _scan_naive(ctx, watch, None, 3)[0] == _scan_naive(ctx, watch, None)[0][:3]
        with pytest.raises(ValueError, match="limit"):
            verify_to_heap(bad, 12, limit=0)

    @pytest.mark.parametrize("limit", [1, 2, 5, None])
    def test_partial_walk_counters(self, qa123_12, limit):
        bad = flip_labels(qa123_12, {qa123_12.monoid.index_of("b2")})
        ctx = _Context(bad, 12)
        watch = frozenset(bad.partition.n_set)
        listed, cases, stats = _scan_collapsed(ctx, watch, None, limit)
        nodes, evaluations, states, want = B2_WALKS[limit]
        assert (stats["nodes"], stats["evaluations"], stats["states"]) == (
            nodes, evaluations, states
        )
        assert cases == want
        assert listed[:5] == B2_FIRST_FAILURES[:limit]
        assert len(listed) == (limit or 2574)
        if limit is None:
            digest = hashlib.sha256(repr(listed).encode()).hexdigest()
            assert digest == B2_FAILURES_SHA256
            digest = hashlib.sha256(repr(sorted(listed)).encode()).hexdigest()
            assert digest == B2_SORTED_FAILURES_SHA256
        # A walk stopped by its budget: the budget is tested before a
        # state's failures are listed, so one evaluation short raises even
        # where the limit would have stopped the walk at that state.
        assert _scan_collapsed(ctx, watch, evaluations, limit) == (listed, cases, stats)
        with pytest.raises(BudgetExceededError):
            _scan_collapsed(ctx, watch, evaluations - 1, limit)

    def test_limit_skips_the_scan_after_a_PP_failure(self, qa123_12):
        # Every element asserted P: P-to-P fails, so a limited report needs
        # no scan, while an unlimited one still walks it.
        everything = frozenset(range(len(qa123_12.monoid)))
        bad = qa123_12._replace(partition=OutcomePartition(everything, frozenset()))
        brief = verify_to_heap(bad, 12, limit=1)
        full = verify_to_heap(bad, 12)
        assert brief.pp_violations == full.pp_violations != []
        assert not brief.passed and not full.passed
        assert brief.stats["nodes"] == 0 < full.stats["nodes"]
        assert certify_period(bad, 6, 5) is None

    def test_single_stuck_case_is_found_without_the_whole_tree(self, kayles):
        # Kayles cut at heap 30, with heap 30 sent to the wrong element: one
        # stuck case, which a walk of the whole collapsed tree (1 119 743
        # nodes) would list too.
        values = list(kayles.phi.values[:30])
        values[29] = kayles.monoid.index_of("vf")
        bad = kayles._replace(phi=PretendingFunction(tuple(values)))
        report = verify_to_heap(bad, 30)
        assert report.np_failures == [(2, (1, 11, 30), 0)]
        assert (report.stats["nodes"], report.stats["evaluations"],
                report.stats["states"]) == (2_507, 23_064, 270)
        assert report.stats["cases_by_omega"] == KAYLES_VF_30_CASES
        assert verify_to_heap(bad, 30, budget=23_064).np_failures == report.np_failures
        with pytest.raises(BudgetExceededError):
            verify_to_heap(bad, 30, budget=23_063)


# ---------------------------------------------------------------------------
# the membership masks both halves read, against their definitions


def pp_by_basis(qa, n):
    """The P-to-P check as one test of every basis element against every
    pair: the reference for the AND of two membership masks."""
    table, p_set = qa.monoid.table, qa.partition.p_set
    pairs = move_pairs(qa, n)
    bad = []
    for u in range(len(qa.monoid)):
        row = table[u]
        for pair in pairs:
            if row[pair.lhs] in p_set and row[pair.rhs] in p_set:
                bad.append(Translate(u, pair, row[pair.lhs], row[pair.rhs]))
    return sorted(bad, key=lambda t: (t.basis, t.pair.lhs, t.pair.rhs))


def preimage_by_definition(table, a, mask):
    """The bitmask of the x with a*x in mask, bit by bit."""
    return sum(1 << x for x, y in enumerate(table[a]) if mask >> y & 1)


# Cyclic products of 50 elements, whose last two are the characters "0" and
# "1", and of 294, past one byte per element.
WIDE_SHAPES = {50: [(1, 4), (0, 10)], 294: [(2, 5), (1, 6), (0, 6)]}


def wide_masks(k):
    """Membership masks over k elements whose top bit lies below, at and
    past elements 48 and 49."""
    rng = random.Random(k)
    return [
        0, 1, (1 << 48) - 1, 1 << 48, 1 << 49, 3 << 48, 1 << (k - 1), (1 << k) - 1,
        *(rng.getrandbits(40) for _ in range(4)),
        *(rng.getrandbits(k) for _ in range(4)),
    ]


def wide_analysis(k):
    """A candidate analysis of Kayles to heap 12 on WIDE_SHAPES[k], with a
    random pretending function and a random P set.  The last element is N,
    so the digits of the P mask fall short of k without their padding."""
    monoid = cyclic_product(WIDE_SHAPES[k])
    rng = random.Random(k)
    values = tuple(rng.randrange(k) for _ in range(12))
    p_set = frozenset(e for e in range(k - 1) if rng.random() < 0.5)
    return QuotientAnalysis(
        code=parse_game_code("0.77"),
        play=MISERE,
        n=12,
        monoid=monoid,
        phi=PretendingFunction(values),
        partition=OutcomePartition(p_set, frozenset(range(k)) - p_set),
    )


class TestMembershipMasks:
    def assert_fails_by_definition(self, qa, n):
        # fails[h] holds base b iff no move of heap h lands in P at b.
        ctx = _Context(qa, n)
        table, p_set = qa.monoid.table, qa.partition.p_set
        assert sorted(ctx.fails) == list(range(1, n + 1))
        for h in range(1, n + 1):
            targets = [el for _, el in _move_targets(qa, h)]
            for b in range(len(qa.monoid)):
                want = not any(table[b][el] in p_set for el in targets)
                assert bool(ctx.fails[h] >> b & 1) == want, (h, b)

    def test_kayles_to_25(self, kayles):
        self.assert_fails_by_definition(kayles, 25)

    def test_certified_0123_to_its_window(self, qa123):
        assert qa123.certified_period == (6, 5)
        self.assert_fails_by_definition(qa123, 19)

    def test_kayles_with_z2_sent_to_N(self, kayles):
        z2 = kayles.monoid.index_of("z2")
        assert z2 in kayles.partition.p_set
        self.assert_fails_by_definition(flip_labels(kayles, {z2}), 25)

    def test_pp_listing_matches_the_basis_by_pair_loop(self, kayles):
        z = kayles.monoid.index_of("z")
        assert z in kayles.partition.n_set
        bad = flip_labels(kayles, {z})
        got = check_no_PP(bad, 25)
        assert len(got) == 133
        assert got == pp_by_basis(bad, 25)

    def test_pp_listing_on_every_single_kayles_flip(self, kayles):
        for e in range(len(kayles.monoid)):
            qa = flip_labels(kayles, {e})
            assert check_no_PP(qa, 10) == pp_by_basis(qa, 10)

    @pytest.mark.parametrize("k", sorted(WIDE_SHAPES))
    def test_kernel_past_the_digit_characters(self, k):
        table = cyclic_product(WIDE_SHAPES[k]).table
        assert len(table) == k
        rows = _rows(table)
        for mask in wide_masks(k):
            members = {e for e in range(k) if mask >> e & 1}
            want = [preimage_by_definition(table, a, mask) for a in range(k)]
            assert [_preimage(rows, a, mask) for a in range(k)] == want
            # b*e read down e's column, the table being commutative.
            assert _row_masks(rows, members) == [
                sum(1 << b for b in range(k) if table[b][e] in members)
                for e in range(k)
            ]

    def test_both_halves_past_one_byte_per_element(self):
        qa = wide_analysis(294)
        self.assert_fails_by_definition(qa, qa.n)
        got = check_no_PP(qa, qa.n)
        assert got  # a random P set is far from closed under translates
        assert got == pp_by_basis(qa, qa.n)

    @given(a=st.integers(0, 39), mask=st.integers(0, (1 << 40) - 1))
    def test_preimage_on_kayles(self, kayles, a, mask):
        table = kayles.monoid.table
        assert _preimage(_rows(table), a, mask) == preimage_by_definition(table, a, mask)


# ---------------------------------------------------------------------------
# the move walk reads phi(1..n) once, the per-part path each time


class TestWalkMoves:
    def assert_walk_reads_phi_per_part(self, qa, n):
        assert _walk_moves(qa, n) == {
            h: (phi_heap(qa, h, claimed_ok=True), list(_move_targets(qa, h)))
            for h in range(1, n + 1)
        }

    def test_kayles_to_its_certificate_window(self, kayles):
        self.assert_walk_reads_phi_per_part(kayles, 159)

    def test_certified_0123_to_its_window(self, qa123):
        self.assert_walk_reads_phi_per_part(qa123, 19)

    def test_035_with_106_elements(self):
        qa = build_quotient("0.35", 8)
        assert len(qa.monoid) == 106
        self.assert_walk_reads_phi_per_part(qa, 8)
