"""Quotient construction for 0.123 against the published tables."""

import hashlib
import itertools
import json
import os
import random
from types import SimpleNamespace

import pytest

from misere_quotients import builder, cli, oracle, verifier
from misere_quotients.builder import (
    OutcomePartition,
    PretendingFunction,
    QuotientAnalysis,
    _run_round,
    _signature_quotient,
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
from misere_quotients.oracle import (
    MISERE,
    NORMAL,
    BudgetExceededError,
    InternalError,
    Outcome,
    genus,
    nim_value,
    outcome,
)
from misere_quotients.semigroup import (
    action_table,
    enumerate_elements,
    is_isomorphic,
    knuth_bendix,
    parse_word,
)
from misere_quotients.verifier import verify_to_heap

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


# Analyses of other games, recorded before the builder named its classes by
# one least-word search: element names, phi as names, P names and claimed
# period, keyed by (code, n, play).
OTHER_GAMES = {
    ("0.137", 9, MISERE): (
        "e x z a xz xa z2 za xz2 xza z3 xz3",
        "x x xz e z x x e a",
        "x xa z2",
        None,
    ),
    ("0.77", 7, MISERE): (
        "e x z a xz xa z2 za xz2 xza z2a xz2a",
        "x xz z x a z xz",
        "x xa z2",
        None,
    ),
    ("0.4", 8, MISERE): ("e x z xz z2 xz2", "e e x x xz e z x", "x z2", None),
    ("0.15", 8, MISERE): ("e x z xz z2 xz2", "x x e x x z z x", "x z2", None),
    ("0.31", 8, MISERE): ("e x z xz z2 xz2", "x z z2 xz2 z2 xz2 z2 xz2", "x z2", (3, 2)),
    ("0.52", 8, MISERE): ("e x z xz z2 xz2", "x e xz xz x z2 z xz", "x z2", None),
    ("0.75", 8, MISERE): ("e x z a xz xa z2 xz2", "x z x z a z a z", "x z2", (5, 2)),
    ("0.123", 12, NORMAL): ("e x z xz", "x e z z x e e z x x e e", "e", (11, 1)),
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


# Normal play is built from the nim values; the signature rounds stay as its
# reference: 0.123, 0.137 and 0.77 to heap 12, the other recorded games to 9.
NORMAL_CROSS_CHECKS = [
    ("0.123", 12), ("0.137", 12), ("0.77", 12), ("0.07", 9), ("0.4", 9),
    ("0.15", 9), ("0.31", 9), ("0.52", 9), ("0.75", 9),
]


class TestNormalFromNimValues:
    @pytest.mark.parametrize(
        "code, n", NORMAL_CROSS_CHECKS,
        ids=[f"{code}-{n}" for code, n in NORMAL_CROSS_CHECKS],
    )
    def test_equals_signature_rounds(self, code, n, monkeypatch):
        monkeypatch.setattr(oracle, "_games", {})
        game = parse_game_code(code)
        qa = build_quotient(game, n, NORMAL)
        # No outcome search ran and no canonical form grew: the nim values
        # alone named the classes.
        assert oracle._game(game).outcomes[NORMAL] == {}
        assert len(oracle._game(game).heap) == 1
        reference, _ = _signature_quotient(game, n, NORMAL)
        assert analysis_to_json(qa) == analysis_to_json(reference)

    def test_class_limit(self, monkeypatch):
        # 0.123 has the four nim values 0..3 to heap 12.
        monkeypatch.setattr(builder, "_MAX_CLASSES", 3)
        with pytest.raises(BudgetExceededError, match="more than 3 classes"):
            build_quotient(G123, 12, NORMAL)
        monkeypatch.setattr(builder, "_MAX_CLASSES", 4)
        assert len(build_quotient(G123, 12, NORMAL).monoid) == 4


def _step(sigs):
    """The one-heap step of builder._signature_quotient: every context plus
    every single heap."""
    join = sigs._game.join
    sigs.add([join(c, s) for c in sigs.contexts for s in sigs.singles])


def _signatures(code, n, play, steps=0):
    """Signatures of ``code`` to heap n after ``steps`` one-heap steps, with
    no representative added."""
    sigs = _Signatures(code, n, play)
    for _ in range(steps):
        _step(sigs)
    return sigs


class TestSignatureKernel:
    PROBES = [(), (1,), (2, 3), (1, 8, 8), (4, 5, 6)]

    @pytest.mark.parametrize("play", [MISERE, NORMAL])
    def test_round_signature_is_prefix_of_next(self, play):
        sigs = _signatures(G123, 8, play, steps=1)
        key = sigs._game.key
        before = {u: sigs.sig(key(u)) for u in self.PROBES}
        width = len(sigs.contexts)
        _step(sigs)
        fresh = _signatures(G123, 8, play, steps=2)
        for u in self.PROBES:
            got = sigs.sig(key(u))
            assert len(got) == len(sigs.contexts) > width
            assert got[:width] == before[u]
            assert got == fresh.sig(fresh._game.key(u))

    def test_steps_hold_every_position_of_one_heap_more(self):
        # From the empty position and the single heaps, j one-heap steps
        # hold exactly the packed positions of at most j + 1 heaps, each once.
        for steps in range(4):
            sigs = _signatures(G123, 8, MISERE, steps)
            combos = itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(1, 9), m)
                for m in range(steps + 2)
            )
            assert len(set(sigs.contexts)) == len(sigs.contexts)
            assert set(sigs.contexts) == set(map(sigs._game.key, combos))

    def test_add_keeps_bytes_in_line_with_contexts(self):
        # Heap 2 of 0.123 is dead and packs to the empty position, so the
        # first contexts hold it once; repeats that add drops leave every
        # later byte on its own context.
        sigs = _Signatures(G123, 8, MISERE)
        key, unpack = sigs._game.key, sigs._game.unpack
        assert key((2,)) == 0
        assert len(sigs.contexts) == len(set(sigs.contexts)) < 9
        before = {u: sigs.sig(key(u)) for u in self.PROBES}
        new = [key((2, 2)), key((3,)), key((2, 3, 5)), key((1, 4)), key((4, 1)), key((3, 5))]
        assert sigs.add(new)
        assert not sigs.add([key((2, 5)), key((1, 1))])
        assert sigs.contexts[-2:] == [key((3, 5)), key((1, 4))]
        for u in self.PROBES:
            got = sigs.sig(key(u))
            assert got.startswith(before[u])
            assert list(got) == [
                outcome(G123, Position(u + unpack(w)), MISERE) is Outcome.N
                for w in sigs.contexts
            ]

    @pytest.mark.parametrize("play", [MISERE, NORMAL])
    def test_signature_bytes_are_outcomes(self, play):
        sigs = _signatures(G123, 6, play, steps=1)
        for u in self.PROBES:
            got = sigs.sig(sigs._game.key(u))
            assert got[0] == (outcome(G123, Position(u), play) is Outcome.N)
            unpack = sigs._game.unpack
            assert list(got) == [
                outcome(G123, Position(u + unpack(w)), play) is Outcome.N
                for w in sigs.contexts
            ]

    def test_consecutive_rounds_compare_by_value(self):
        first, _ = _run_round(_signatures(G123, 6, MISERE, steps=2))
        second, _ = _run_round(_signatures(G123, 6, MISERE, steps=3))
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


class TestOtherGames:
    @pytest.mark.parametrize(
        "code, n, play", OTHER_GAMES,
        ids=[f"{code}-{n}-{play.value}" for code, n, play in OTHER_GAMES],
    )
    def test_recorded_analysis_verifies(self, code, n, play):
        names, phi, p_names, period = OTHER_GAMES[code, n, play]
        qa = build_quotient(code, n, play)
        got = qa.monoid.names
        assert " ".join(got) == names
        assert " ".join(got[i] for i in qa.phi.values) == phi
        assert {got[i] for i in qa.partition.p_set} == set(p_names.split())
        assert qa.phi.claimed_period == period
        assert verify_to_heap(qa, n).passed


def _product_signature_mismatches(sigs, table):
    """Entries (i, j) of a folded class table that differ from the class of
    sig(rep_i + rep_j), the product-signature table that serves as the
    fold's reference.  The classes and their representatives are discovered
    again, in the builder's order, from the same signatures."""
    game = sigs._game
    class_of, reps = {}, []

    def classify(u):
        if class_of.setdefault(sigs.sig(u), len(reps)) == len(reps):
            reps.append(u)

    classify(0)
    for rep in reps:
        for h in range(1, sigs.n + 1):
            classify(game.join(rep, game.key((h,))))
    assert len(reps) == len(table)
    return [
        (i, j)
        for i, j in itertools.combinations_with_replacement(range(len(reps)), 2)
        if class_of.get(sigs.sig(game.join(reps[i], reps[j]))) != table[i][j]
    ]


# Two-place codes whose rounds at n = 8 give class tables that are no monoid
# up to three-heap contexts, and their element counts.
NO_MONOID_AT_FIRST_ROUND = {"0.35": 106, "0.71": 36}


FOLD_CASES = list(OTHER_GAMES) + [(code, 8, MISERE) for code in NO_MONOID_AT_FIRST_ROUND]
FOLD_IDS = [f"{code}-{n}-{play.value}" for code, n, play in FOLD_CASES]


class TestFoldedTable:
    @pytest.mark.parametrize("code, n, play", FOLD_CASES, ids=FOLD_IDS)
    def test_equals_product_signature_table(self, code, n, play, monkeypatch):
        # Every round that yields an analysis, from one-heap contexts up to
        # the first round from four-heap contexts on that equals the round
        # before it.
        tables = []
        named = builder._named_analysis

        def spy(code, play, n, table, *rest):
            tables.append(table)
            return named(code, play, n, table, *rest)

        monkeypatch.setattr(builder, "_named_analysis", spy)
        sigs = _Signatures(parse_game_code(code), n, play)
        previous, checked = None, 0
        for m in range(1, builder._MAX_CONTEXT + 1):
            if m > 1:
                _step(sigs)
            tables.clear()
            qa, _ = _run_round(sigs)
            if qa is not None:
                assert _product_signature_mismatches(sigs, tables[0]) == []
                checked += 1
                if m > 3 and qa == previous:
                    break
            previous = qa
        assert checked >= 2

    @pytest.mark.parametrize("code, n, play", FOLD_CASES, ids=FOLD_IDS)
    def test_rounds_the_builder_runs(self, code, n, play, monkeypatch):
        # Every round of the build that yields an analysis, checked on its
        # own signatures before the builder adds contexts.  Normal play is
        # built from the nim values and runs no round; its reference,
        # _signature_quotient, does.
        tables, checked = [], []
        named, run_round = builder._named_analysis, builder._run_round

        def spy_named(code, play, n, table, *rest):
            tables.append(table)
            return named(code, play, n, table, *rest)

        def spy_round(sigs):
            tables.clear()
            qa, reps = run_round(sigs)
            if qa is not None:
                assert _product_signature_mismatches(sigs, tables[0]) == []
                checked.append(qa)
            return qa, reps

        monkeypatch.setattr(builder, "_named_analysis", spy_named)
        monkeypatch.setattr(builder, "_run_round", spy_round)
        build = build_quotient if play is MISERE else _signature_quotient
        build(parse_game_code(code), n, play)
        assert checked


class TestCorpus:
    CODES = [f"0.{d1}{d2}" for d1 in range(8) for d2 in range(1, 8)]

    # sha256 of the 56 analyses at n = 8, concatenated in CODES order,
    # recorded while the signature rounds still started at three heaps.
    DIGEST = "b4d627aaf71684a9cdd9259433abd34547170931feae78f65affa20d7ddcf2fa"

    def test_two_place_codes_build_and_verify(self):
        # Each nontrivial last digit: the quotient builds at n = 8 and the
        # verifier proves it to heap 8, with the recorded bytes.
        texts = []
        for code in self.CODES:
            qa = build_quotient(code, 8)
            assert verify_to_heap(qa, 8).passed, code
            if code in NO_MONOID_AT_FIRST_ROUND:
                assert len(qa.monoid) == NO_MONOID_AT_FIRST_ROUND[code]
            texts.append(analysis_to_json(qa))
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == self.DIGEST


# Builds whose first proved round is checked against the round after it.
EARLY_EXIT_CASES = (
    [(code, 8, MISERE) for code in TestCorpus.CODES]
    + list(OTHER_GAMES)
    + [("0.123", 12, MISERE)]
)


class TestEarlyExit:
    @pytest.mark.parametrize(
        "code, n, play", EARLY_EXIT_CASES,
        ids=[f"{code}-{n}-{play.value}" for code, n, play in EARLY_EXIT_CASES],
    )
    def test_proved_round_is_confirmed_by_the_next(self, code, n, play):
        # The proved round m and round m + 1 give the same bytes, and
        # build_quotient returns them.
        game = parse_game_code(code)
        sigs = _Signatures(game, n, play)
        for m in range(1, builder._MAX_CONTEXT + 1):
            if m > 1:
                _step(sigs)
            qa, _ = _run_round(sigs)
            if qa is not None and verify_to_heap(qa, n).passed:
                break
        else:
            pytest.fail("no round proved")
        _step(sigs)
        confirmed, _ = _run_round(sigs)
        assert confirmed is not None
        assert analysis_to_json(confirmed) == analysis_to_json(qa)
        assert analysis_to_json(build_quotient(game, n, play)) == analysis_to_json(qa)

    @pytest.mark.parametrize("code", ["0.07", "0.72"])
    def test_unproved_candidate_is_widened_past(self, code, monkeypatch):
        # From one-heap contexts these codes give a 4-element monoid that
        # fails verification; the builder tries it first, widens past it and
        # returns the 6-element quotient that the next round proves.
        game = parse_game_code(code)
        first, _ = _run_round(_Signatures(game, 8, MISERE))
        assert first is not None and len(first.monoid) == 4
        assert not verify_to_heap(first, 8).passed
        verdicts = []

        def spy(qa, n, **kwargs):
            report = verify_to_heap(qa, n, **kwargs)
            verdicts.append((len(qa.monoid), report.passed))
            return report

        monkeypatch.setattr(verifier, "verify_to_heap", spy)
        qa = build_quotient(game, 8)
        assert verdicts == [(4, False), (6, True)]
        assert len(qa.monoid) == 6

    def test_no_round_proved(self, monkeypatch, capsys):
        # With every proof rejected, the misere rounds run out of new
        # representatives once before each one-heap step and once at the
        # end, when the steps have reached _MAX_CONTEXT heaps, and the
        # build fails.  The nim values cannot fail their proof, so failing
        # it there is an internal error.
        added, held = [], []
        add = _Signatures.add

        def spy(sigs, contexts):
            added.append(add(sigs, contexts))
            held[:] = sigs.contexts
            return added[-1]

        def fail(qa, n, **kwargs):
            return SimpleNamespace(passed=False)

        monkeypatch.setattr(_Signatures, "add", spy)
        monkeypatch.setattr(verifier, "verify_to_heap", fail)
        with pytest.raises(RuntimeError, match="no round proved"):
            build_quotient(G123, 6)
        assert added.count(False) == builder._MAX_CONTEXT
        key = oracle._game(G123).key
        combos = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(1, 7), m)
            for m in range(builder._MAX_CONTEXT + 1)
        )
        assert set(map(key, combos)) <= set(held)
        assert cli.main(["analyze", "0.123", "-n", "6"]) == 2
        assert "failed: no round proved" in capsys.readouterr().err
        with pytest.raises(InternalError):
            build_quotient(G123, 6, NORMAL)
        assert cli.main(["analyze", "0.123", "-n", "6", "--normal"]) == 5
        assert "internal error" in capsys.readouterr().err


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

    def test_generator_heaps_read_off_phi(self, kayles):
        assert kayles.generator_heaps == {
            "x": 1, "z": 2, "w": 5, "v": 9, "t": 12, "f": 25, "g": 27,
        }

    def test_rejects_images_that_do_not_generate(self, forged_analysis_text):
        with pytest.raises(ValueError, match="does not generate the table"):
            analysis_from_json(forged_analysis_text)


# sha256 of analysis_to_json(build_quotient(code, n, play)), recorded before
# the searches packed canonical positions into ints.  A change to the
# searches or the signature rounds must keep every analysis byte for byte.
ANALYSIS_DIGESTS = {
    ("0.123", 1, MISERE): "a3e26949b1309ed9931916214b036236026d1fde52ded9ba1aa79579d03e55b6",
    ("0.123", 11, MISERE): "243a9ce1f3ab026cb1a8b55af39e1f269e3c6174c4b204013fc698d461bc08a3",
    ("0.123", 12, MISERE): "ff5db74dabc193028ae4d46d3e6fb9aaace1ecf2a662285936fa443df3deefac",
    ("0.123", 12, NORMAL): "e9048f996010819cea523c661b338fcd81d5958952f3e42f0cd76168ae4f5178",
    ("0.137", 9, MISERE): "9d1cecb27f32e9bb0548ad5ae40334fddf3443beaa06be2823206f55ab97979e",
    ("0.77", 7, MISERE): "19e6950739270137fd688e07802a52f1d1e9203b380fb7513c773a31c9b5944e",
    ("0.07", 10, MISERE): "4a448adeda64c5ce409b1d84162b23d48d91098c6b1c7045e175210b28af70fe",
    ("0.4", 8, MISERE): "dfc1cbaf70aac359f8eced6c2b6b995954407f66733d4679a7f11ecb89c5e2dc",
    ("0.15", 8, MISERE): "26399eba407bd4770260896d97930357f3561b88ae08218cb12d40bd1eab9416",
    ("0.31", 8, MISERE): "ded03d311f834ae60a65080f4bf84bbfcb84503bd5e23e6c2edc522000360968",
    ("0.52", 8, MISERE): "a4e158f354d44b4f743c354c2104f74fc2de0500421b33f81e815fd71299876f",
    ("0.75", 8, MISERE): "30f201d2fe0f2d98fc453cb12e02f70b3a02845ecf6444d7d024f0cb5bbeb09d",
}

# The same for build_quotient("0.123", 20), the session fixture qa123_20.
QA123_20_DIGEST = "42ffb2ac5ee4c89ab62b40fa74de2480e8b194e8ff27dfd3746ab2503ed00dde"

# More outputs of the one table closure, recorded before the presented
# monoid, the misere classes and the nim-value classes shared it: normal
# Kayles from its nim values, 0.35 (106 classes, after a first round that
# is no monoid) and 0.71 (36 classes).  Kayles to heap 10 was recorded
# while the signature rounds still started at three heaps.
ANALYSIS_DIGESTS.update({
    ("0.77", 96, NORMAL): "8324bb7f25d93dae1493175d1ff7f469b3fa0486131dbc7dc2e3781732a9fcc9",
    ("0.35", 8, MISERE): "947d00515edbc8351b2c61493c6bb78976dbbc75eea751a1956153b5fc67eb94",
    ("0.71", 8, MISERE): "8973a4d16d0ab8da12ec3bda7ffee76e9e8efc1a9bfc7f1cabc5b0bd333e00d2",
    ("0.77", 10, MISERE): "74a6ee1b183d448ba4f943eceb68eb78acaaf497707366726ffc1ca713aa6bbf",
})
# The same for kayles_analysis(): the sha256 of the packaged data/kayles.json,
# which _kayles_from_tables() rebuilds from the presentation and the phi table.
KAYLES_DIGEST = "be27212597bb357128ddc5981e60c013a181e72ef140035c140d6e686faa4024"


def _digest(qa) -> str:
    return hashlib.sha256(analysis_to_json(qa).encode()).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize(
        "code, n, play", ANALYSIS_DIGESTS,
        ids=[f"{code}-{n}-{play.value}" for code, n, play in ANALYSIS_DIGESTS],
    )
    def test_analysis_digest(self, code, n, play):
        assert _digest(build_quotient(code, n, play)) == ANALYSIS_DIGESTS[code, n, play]

    def test_window_20_digest(self, qa123_20):
        assert _digest(qa123_20) == QA123_20_DIGEST

    def test_kayles_analysis_digest(self):
        assert _digest(kayles_analysis()) == KAYLES_DIGEST


def _kayles_from_tables() -> QuotientAnalysis:
    """The Kayles analysis rebuilt from its sources: the monoid completed and
    enumerated from the packaged presentation, and phi and the P elements
    read from tests/data/kayles_phi.txt, each word a product in that monoid."""
    monoid = enumerate_elements(knuth_bendix(packaged_presentation("0.77")), cap=200)
    gen_els = [monoid.generator_map[name] for name in monoid.generators]

    def el(text: str) -> int:
        w = parse_word(text, monoid.generators)
        return monoid.product(itertools.chain.from_iterable(map(itertools.repeat, gen_els, w)))

    period = None
    p_words: list[str] = []
    values: dict[int, int] = {}
    path = os.path.join(os.path.dirname(__file__), "data", "kayles_phi.txt")
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("period:"):
                r0, p = line[len("period:"):].split()
                period = (int(r0), int(p))
            elif line.startswith("ptypes:"):
                p_words = [w.strip() for w in line[len("ptypes:"):].split("|")]
            elif line:
                heap, _, word = line.partition(" ")
                values[int(heap)] = el(word)
    n = max(values)
    assert sorted(values) == list(range(1, n + 1))
    p_set = frozenset(el(w) for w in p_words)
    return QuotientAnalysis(
        code=parse_game_code("0.77"),
        play=MISERE,
        n=n,
        monoid=monoid,
        phi=PretendingFunction(tuple(values[h] for h in range(1, n + 1)), period),
        partition=OutcomePartition(p_set, frozenset(range(len(monoid))) - p_set),
    )


class TestPackagedKayles:
    """data/kayles.json is the Kayles analysis, shipped so that loading it
    runs no completion; these tests tie it to the data it was made from."""

    def test_rebuilt_from_tables(self):
        assert analysis_to_json(_kayles_from_tables()) == builder._data_text("kayles.json")

    def test_file_digest(self):
        text = builder._data_text("kayles.json")
        assert hashlib.sha256(text.encode()).hexdigest() == KAYLES_DIGEST

    def test_monoid_is_the_presented_one(self, kayles):
        presented = enumerate_elements(knuth_bendix(packaged_presentation("0.77")), cap=200)
        assert kayles.monoid.generators == presented.generators
        assert is_isomorphic(kayles.monoid, presented) is not None

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["table"][3].__setitem__(4, 0),
        lambda d: d["generator_heaps"].update(x=3),
        None,
    ], ids=["table-entry", "generator-heaps", "truncated"])
    def test_corrupted_file_exits_4(self, monkeypatch, capsys, corrupt):
        text = builder._data_text("kayles.json")
        if corrupt is None:
            text = text[: len(text) // 2]
        else:
            doc = json.loads(text)
            corrupt(doc)
            text = json.dumps(doc)
        monkeypatch.setattr(builder, "_data_text", lambda name: text)
        assert cli.main(["verify", "0.77", "-n", "25"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
