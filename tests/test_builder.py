"""Quotient construction for 0.123 against the published tables."""

import itertools
import random

import pytest

from misere_quotients.builder import (
    _run_round,
    _Signatures,
    analysis_from_json,
    analysis_to_json,
    build_quotient,
    detect_period,
    element_genus,
    kayles_analysis,
    packaged_presentation,
    phi_heap,
    phi_of_position,
    predicted_outcome,
)
from misere_quotients.octal import Position, parse_game_code
from misere_quotients.oracle import MISERE, NORMAL, Outcome, genus, nim_value, outcome
from misere_quotients.semigroup import (
    action_table,
    enumerate_elements,
    is_isomorphic,
    knuth_bendix,
)

G123 = parse_game_code("0.123")

ELEMENTS = [
    "e", "x", "z", "a", "b", "xz", "xa", "xb", "z2", "za", "zb", "b2",
    "xz2", "xza", "xzb", "xb2", "z3", "zb2", "xz3", "xzb2",
]

# Single-heap classes for heaps 1..12; heap 2 is dead and pretends identity.
PHI_NAMES = ["x", "e", "z", "z", "x", "b2", "e", "a", "b", "x", "b2", "e"]

P_NAMES = {"x", "xa", "b2", "z2", "zb"}

# Per-element images under right multiplication by the four generators,
# indexed like ELEMENTS.
ACTION_ROWS = {
    "e": ("x", "z", "a", "b"),
    "x": ("e", "xz", "xa", "xb"),
    "z": ("xz", "z2", "za", "zb"),
    "a": ("xa", "za", "e", "zb"),
    "b": ("xb", "zb", "zb", "b2"),
    "xz": ("z", "xz2", "xza", "xzb"),
    "xa": ("a", "xza", "x", "xzb"),
    "xb": ("b", "xzb", "xzb", "xb2"),
    "z2": ("xz2", "z3", "z3", "b"),
    "za": ("xza", "z3", "z", "b"),
    "zb": ("xzb", "b", "b", "zb2"),
    "b2": ("xb2", "zb2", "zb2", "xb2"),
    "xz2": ("z2", "xz3", "xz3", "xb"),
    "xza": ("za", "xz3", "xz", "xb"),
    "xzb": ("zb", "xb", "xb", "xzb2"),
    "xb2": ("b2", "xzb2", "xzb2", "b2"),
    "z3": ("xz3", "z2", "z2", "zb"),
    "zb2": ("xzb2", "b2", "b2", "xzb2"),
    "xz3": ("z3", "xz2", "xz2", "xzb"),
    "xzb2": ("zb2", "xb2", "xb2", "zb2"),
}

ELEMENT_GENERA = {
    "e": "0^{120}", "x": "1^{031}", "z": "2^{20}", "a": "2^{1420}",
    "b": "1^{20}", "xz": "3^{31}", "xa": "3^{0531}", "xb": "0^{31}",
    "z2": "0^{02}", "za": "0^{420}", "zb": "3^{02}", "b2": "0^{02}",
    "xz2": "1^{13}", "xza": "1^{531}", "xzb": "2^{13}", "xb2": "1^{13}",
    "z3": "2^{20}", "zb2": "2^{20}", "xz3": "3^{31}", "xzb2": "3^{31}",
}


class TestMisereQuotient:
    def test_twenty_elements_in_order(self, qa123_12):
        m = qa123_12.monoid
        assert list(m.names) == ELEMENTS
        assert qa123_12.generator_heaps == {"x": 1, "z": 3, "a": 8, "b": 9}
        assert qa123_12.n == 12
        assert qa123_12.play is MISERE

    def test_matches_packaged_presentation(self, qa123_12):
        rws = knuth_bendix(packaged_presentation("0.123"))
        reference = enumerate_elements(rws, cap=100)
        m = qa123_12.monoid
        assert list(m.names) == list(reference.names)
        assert m.table == reference.table
        phi = is_isomorphic(m, reference)
        assert phi is not None
        assert all(phi[i] == i for i in range(len(m)))

    def test_single_heap_classes(self, qa123_12):
        m = qa123_12.monoid
        got = [m.names[phi_heap(qa123_12, h)] for h in range(1, 13)]
        assert got == PHI_NAMES

    def test_p_elements(self, qa123_12):
        m = qa123_12.monoid
        assert {m.names[i] for i in qa123_12.partition.p_set} == P_NAMES
        assert qa123_12.partition.n_set == (
            frozenset(range(20)) - qa123_12.partition.p_set
        )

    def test_action_columns(self, qa123_12):
        m = qa123_12.monoid
        for k, g in enumerate("xzab"):
            col = action_table(m, g)
            for name, row in ACTION_ROWS.items():
                assert m.names[col[m.index_of(name)]] == row[k], (name, g)

    def test_element_genera(self, qa123_12):
        for name, want in ELEMENT_GENERA.items():
            el = qa123_12.monoid.index_of(name)
            assert str(element_genus(qa123_12, el)) == want, name

    def test_element_outcomes(self, qa123_12):
        # N exactly when outside the P-set; spot the full column.
        part = qa123_12.partition
        for name in ELEMENTS:
            el = qa123_12.monoid.index_of(name)
            want = Outcome.P if name in P_NAMES else Outcome.N
            assert part.outcome_of(el) is want


class TestNormalQuotient:
    def test_collapses_to_nim_classes(self):
        qa = build_quotient(G123, 12, NORMAL)
        m = qa.monoid
        assert len(m) == 4
        assert {m.names[i] for i in qa.partition.p_set} == {"e"}
        for h in range(1, 13):
            el = phi_heap(qa, h)
            same = [k for k in range(1, 13) if phi_heap(qa, k) == el]
            assert {nim_value(G123, Position.of(k)) for k in same} == {
                nim_value(G123, Position.of(h))
            }

    def test_predicts_nim_outcomes(self):
        qa = build_quotient(G123, 12, NORMAL)
        for heaps in itertools.combinations_with_replacement(range(1, 13), 2):
            p = Position.from_heaps(heaps)
            want = Outcome.P if nim_value(G123, p) == 0 else Outcome.N
            assert predicted_outcome(qa, p) is want


class TestSignatureKernel:
    PROBES = [(), (1,), (2, 3), (1, 8, 8), (4, 5, 6)]

    @pytest.mark.parametrize("play", [MISERE, NORMAL])
    def test_round_signature_is_prefix_of_next(self, play):
        sigs = _Signatures(G123, 8, play)
        sigs.widen(2)
        before = {u: sigs.sig(u) for u in self.PROBES}
        width = len(sigs.contexts)
        sigs.widen(3)
        fresh = _Signatures(G123, 8, play)
        fresh.widen(3)
        for u in self.PROBES:
            got = sigs.sig(u)
            assert len(got) == len(sigs.contexts) > width
            assert got[:width] == before[u]
            assert got == fresh.sig(u)

    @pytest.mark.parametrize("play", [MISERE, NORMAL])
    def test_signature_bytes_are_outcomes(self, play):
        sigs = _Signatures(G123, 6, play)
        sigs.widen(2)
        for u in self.PROBES:
            got = sigs.sig(u)
            assert got[0] == (outcome(G123, Position(u), play) is Outcome.N)
            assert list(got) == [
                outcome(G123, Position(u + w), play) is Outcome.N
                for w in sigs.contexts
            ]

    def test_consecutive_rounds_compare_by_value(self):
        sigs = _Signatures(G123, 6, MISERE)
        sigs.widen(3)
        first = _run_round(sigs, 500)
        sigs.widen(4)
        second = _run_round(sigs, 500)
        assert first is not None and first is not second
        assert first == second

    def test_reference_analysis_n11(self):
        qa = build_quotient("0.123", 11)
        names = qa.monoid.names
        assert len(names) == 20
        assert " ".join(names[i] for i in qa.phi.values) == "x e z z x b2 e a b x b2"
        assert {names[i] for i in qa.partition.p_set} == {"b2", "x", "xa", "z2", "zb"}

    def test_normal_play_collapses_to_nim_values(self):
        qa = build_quotient(G123, 11, NORMAL)
        nim_of = {}
        for h in range(1, 12):
            nim_of.setdefault(phi_heap(qa, h), set()).add(
                nim_value(G123, Position.of(h))
            )
        # One nim value per element and one element per nim value.
        assert all(len(values) == 1 for values in nim_of.values())
        assert len(set.union(*nim_of.values())) == len(nim_of)
        assert len(qa.monoid) == 4


class TestSmallWindows:
    def test_single_heap_window(self):
        qa = build_quotient(G123, 1)
        assert list(qa.monoid.names) == ["e", "x"]
        assert {qa.monoid.names[i] for i in qa.partition.p_set} == {"x"}

    def test_window_growth_is_monotone(self, qa123_12, qa123_20):
        # A longer window must refine to the same quotient for 0.123.
        assert list(qa123_20.monoid.names) == ELEMENTS
        assert qa123_20.monoid.table == qa123_12.monoid.table
        assert qa123_20.phi.values[:12] == qa123_12.phi.values


class TestPeriodDetection:
    def test_0123(self, qa123_20):
        assert detect_period(qa123_20.phi) == (6, 5)

    def test_kayles(self, kayles):
        assert detect_period(kayles.phi) == (73, 12)

    def test_constant(self, qa123_12):
        from misere_quotients.builder import PretendingFunction

        assert detect_period(PretendingFunction((0, 0, 0, 0))) == (1, 1)
        assert detect_period(PretendingFunction((0, 1, 2, 3))) is None


class TestWorkedExample:
    def test_element_and_outcome(self, qa123):
        m = qa123.monoid
        pos = Position.of(1, 3, 4, 8, 9, 21)
        el = phi_of_position(qa123, pos)
        assert m.names[el] == "zb2"
        assert predicted_outcome(qa123, pos) is Outcome.N

    def test_winning_move_lands_in_p(self, qa123):
        m = qa123.monoid
        after = phi_of_position(qa123, Position.of(1, 4, 8, 9, 21))
        assert m.names[after] == "b2"
        assert after in qa123.partition.p_set
        assert str(element_genus(qa123, after)) == "0^{02}"

    def test_power_relation_realized_by_heaps(self, qa123_12):
        # Four heaps of 3 pretend the same as two: z^4 = z^2.
        four = phi_of_position(qa123_12, Position.of(3, 3, 3, 3))
        two = phi_of_position(qa123_12, Position.of(3, 3))
        assert four == two


class TestOracleAgreement:
    def test_exhaustive_small_positions(self, qa123):
        # Quotient predictions vs direct search, every multiset of at most
        # five heaps of size at most 12.
        count = 0
        for k in range(0, 6):
            for heaps in itertools.combinations_with_replacement(range(1, 13), k):
                p = Position.from_heaps(heaps)
                assert predicted_outcome(qa123, p) is outcome(G123, p, MISERE), heaps
                count += 1
        assert count > 6000

    def test_congruence_on_random_pairs(self, qa123):
        # Positions with equal images stay outcome-equivalent under any
        # shared extension.
        rng = random.Random(6)
        by_el = {}
        for k in range(0, 4):
            for heaps in itertools.combinations_with_replacement(range(1, 13), k):
                by_el.setdefault(phi_of_position(qa123, heaps), []).append(heaps)
        for el, bucket in by_el.items():
            if len(bucket) < 2:
                continue
            for _ in range(10):
                p, q = rng.sample(bucket, 2)
                ext = tuple(
                    rng.choice(range(1, 13)) for _ in range(rng.randrange(0, 3))
                )
                a = outcome(G123, Position.from_heaps(p + ext), MISERE)
                b = outcome(G123, Position.from_heaps(q + ext), MISERE)
                assert a is b, (p, q, ext)


class TestPhiAccess:
    def test_out_of_range(self, qa123_12):
        with pytest.raises(ValueError):
            phi_heap(qa123_12, 13)
        with pytest.raises(ValueError):
            phi_heap(qa123_12, 0)

    def test_certified_extension(self, qa123):
        # Certified period lets any heap be read off: 21 = 11 + 2*5.
        assert phi_heap(qa123, 21) == phi_heap(qa123, 11)
        assert qa123.certified_period == (6, 5)

    def test_claimed_extension(self, kayles):
        assert kayles.certified_period is None
        with pytest.raises(ValueError):
            phi_heap(kayles, 97)
        assert phi_heap(kayles, 97, claimed_ok=True) == phi_heap(kayles, 85)


class TestSerialization:
    def test_round_trip_identical(self, qa123):
        text = analysis_to_json(qa123)
        back = analysis_from_json(text)
        assert analysis_to_json(back) == text
        assert back.monoid.table == qa123.monoid.table
        assert back.phi.values == qa123.phi.values
        assert back.partition.p_set == qa123.partition.p_set
        assert back.certified_period == qa123.certified_period
        assert back.generator_heaps == qa123.generator_heaps

    def test_kayles_round_trip(self, kayles):
        text = analysis_to_json(kayles)
        assert analysis_to_json(analysis_from_json(text)) == text
