"""Empirical quotient construction for octal games.

Positions that behave identically in every tested context are merged into
classes; the classes close into a finite commutative monoid, single heaps map
into it (the pretending function), and each class carries a P or N outcome.
The construction is bounded and therefore only a candidate: two positions
merged here might be distinguished by some context larger than the budget.
The verifier module turns a candidate into a proof.

Misere classes are discovered with signatures: sig(u) = the outcome of u + w
for every context w, all heap sizes <= n.  The contexts start at the single
heaps and grow by each round's class representatives, else by one heap,
until a round's candidate is proved correct to heap n.
Normal-play classes are the nim values.  The classes of either convention
are closed, folded and named by semigroup._generated_table and
_named_monoid.
"""

from __future__ import annotations

import json
import os
from itertools import chain, islice
from operator import xor
from typing import NamedTuple

from .octal import GameCode, Position, _Frozen, parse_game_code
from .oracle import (
    MISERE,
    NORMAL,
    GenusSymbol,
    InternalError,
    Outcome,
    PlayConvention,
    _game,
    genus,
    grundy,
)
from .semigroup import (
    FiniteCommutativeMonoid,
    _check_table,
    _closure,
    _generated_table,
    _named_monoid,
    parse_presentation,
)

__all__ = [
    "PretendingFunction",
    "OutcomePartition",
    "QuotientAnalysis",
    "build_quotient",
    "prove_quotient",
    "phi_of_position",
    "predicted_outcome",
    "detect_period",
    "element_genus",
    "analysis_to_json",
    "analysis_from_json",
    "packaged_presentation",
    "kayles_analysis",
]


class PretendingFunction(_Frozen):
    """Element index pretended by each single heap, heap 1 first.

    claimed_period = (r0, p) asserts values[k] = values[k+p] from heap r0 on,
    with at least one full period, heaps r0..r0+p-1, stored; it is an
    empirical observation until certification.
    """

    __slots__ = _fields = ("values", "claimed_period")

    def __init__(self, values: tuple[int, ...],
                 claimed_period: tuple[int, int] | None = None) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "claimed_period", claimed_period)
        if claimed_period is not None:
            r0, p = claimed_period
            if r0 < 1 or p < 1:
                raise ValueError("period indices must be positive")
            if len(values) < r0 + p - 1:
                raise ValueError("stored values do not cover one full period")
            for k in range(r0, len(values) - p + 1):
                if self.value(k) != self.value(k + p):
                    raise ValueError(f"period fails at heap {k}")

    def value(self, heap: int) -> int:
        if not 1 <= heap <= len(self.values):
            raise ValueError(f"heap {heap} outside stored range")
        return self.values[heap - 1]

    def __len__(self) -> int:
        return len(self.values)


class OutcomePartition(_Frozen):
    """P/N labels on monoid elements.  Disjoint and exhaustive; a trivial
    monoid may leave one side empty."""

    __slots__ = _fields = ("p_set", "n_set")

    def __init__(self, p_set: frozenset[int], n_set: frozenset[int]) -> None:
        if p_set & n_set:
            raise ValueError("P and N sets overlap")
        object.__setattr__(self, "p_set", p_set)
        object.__setattr__(self, "n_set", n_set)

    def outcome_of(self, el: int) -> Outcome:
        if el in self.p_set:
            return Outcome.P
        if el in self.n_set:
            return Outcome.N
        raise ValueError(f"element {el} not covered by the partition")


class QuotientAnalysis(NamedTuple):
    code: GameCode
    play: PlayConvention
    n: int
    monoid: FiniteCommutativeMonoid
    phi: PretendingFunction
    partition: OutcomePartition
    verified_to: int | None = None
    certified_period: tuple[int, int] | None = None

    @property
    def generator_heaps(self) -> dict[str, int]:
        """Each generator's first heap: the least heap that pretends to it."""
        values = self.phi.values
        return {g: values.index(el) + 1
                for g, el in self.monoid.generator_map.items() if el in values}


# ---------------------------------------------------------------------------
# construction

# prove_quotient grows its contexts by one heap at most _MAX_CONTEXT - 1
# times and gives up past _MAX_CLASSES classes.
_MAX_CONTEXT = 6
_MAX_CLASSES = 500


def _letter_names():
    for name in "xzab":
        yield name
    for name in "cdfghijklmnopqrstuvwy":
        yield name
    i = 1
    while True:
        yield f"g{i}"
        i += 1


class _Signatures:
    """Outcome signatures over a growing list of contexts.

    The contexts start as the empty position and every single heap <= n,
    each in the oracle's packed canonical form (see oracle._Game), and
    ``add`` appends more.  A signature is bytes, one byte per context: 1
    when u + w is an N position.  Contexts are only appended, so a kept
    signature is extended by the new contexts alone, in one call of the
    oracle's batched outcome search, oracle._Game.wins.

    The canonical form is exact: a dead heap adds no move, heaps with equal
    option sets are equal games, and X + *1 + *1 has the outcome of X.  So
    two contexts of one canonical form give every u the same byte; ``add``
    drops the repeat, which leaves every class unchanged and each kept byte
    in line with its context.  Positions u of one canonical form share one
    signature.

    No packed field of u + w carries (see oracle._Game).  u is a class
    representative plus one heap; w is the empty position or a
    representative, plus at most _MAX_CONTEXT - 1 heaps; a representative
    has fewer than _MAX_CLASSES heaps.  So each side has at most
    _MAX_CLASSES + _MAX_CONTEXT heaps, far below 2**15.
    """

    def __init__(self, code: GameCode, n: int, play: PlayConvention):
        self.code = code
        self.play = play
        self.n = n
        self._game = _game(code)
        self.singles = [self._game.key((h,)) for h in range(1, n + 1)]
        self.contexts: list[int] = []
        self._held: set[int] = set()
        self._sigs: dict[int, bytes] = {}
        self.add([0, *self.singles])

    def add(self, contexts) -> bool:
        """Append the contexts not yet held, in order; True if there were any."""
        new = [w for w in dict.fromkeys(contexts) if w not in self._held]
        self._held.update(new)
        self.contexts += new
        return bool(new)

    def sig(self, u: int) -> bytes:
        """The signature of packed canonical position ``u``."""
        got = self._sigs.get(u, b"")
        if len(got) < len(self.contexts):
            got += self._game.wins(self.play, u, self.contexts[len(got) :])
            self._sigs[u] = got
        return got


def _run_round(sigs: _Signatures) -> tuple[QuotientAnalysis | None, list[int]]:
    """The candidate at the current contexts of ``sigs``, or None when its
    class table is no monoid there, with the representatives of its
    classes.  The classes are those of packed canonical positions (see
    oracle._Game) under signature equality, closed under adding single
    heaps and folded by semigroup._generated_table."""
    reps, table, phi_classes = _generated_table(
        0, sigs.singles, sigs._game.join, sigs.sig, _MAX_CLASSES
    )
    try:
        _check_table(table, phi_classes)
    except ValueError:
        return None, reps  # the classes are no monoid at these contexts

    return _named_analysis(
        sigs.code, sigs.play, sigs.n, table, phi_classes,
        [cls for cls, rep in enumerate(reps) if not sigs.sig(rep)[0]],
    ), reps


def _named_analysis(code: GameCode, play: PlayConvention, n: int, table,
                    phi_classes, p_classes) -> QuotientAnalysis:
    """The analysis of a class table whose class 0 is the identity, given
    the class of each heap 1..n and the P classes, with every class named by
    its least word over letters for single-heap classes.  The single-heap
    classes generate the table, so the letters do too."""
    # Distinct single-heap classes other than the identity, each with the
    # first heap attaining it.
    first_heap: dict[int, int] = {}
    for h, cls in enumerate(phi_classes, 1):
        if cls:
            first_heap.setdefault(cls, h)

    # Letters go to a minimal generating set among the single-heap classes,
    # in first-heap order; redundant classes (products of the others, like a
    # square of a later generator) are named by least words instead.  A class
    # kept stays irredundant when a later one is dropped, since fewer letters
    # generate less, so one forward pass suffices.
    letter_cls = list(first_heap)
    for cls in list(letter_cls):
        others = [c for c in letter_cls if c != cls]
        if cls in _closure(table, others):
            letter_cls.remove(cls)
    letters = tuple(islice(_letter_names(), len(letter_cls)))

    monoid, index_of = _named_monoid(table, letter_cls, letters)
    phi = PretendingFunction(tuple(index_of[cls] for cls in phi_classes))
    p_set = frozenset(index_of[cls] for cls in p_classes)
    return QuotientAnalysis(
        code, play, n, monoid, PretendingFunction(phi.values, detect_period(phi)),
        OutcomePartition(p_set, frozenset(range(len(monoid))) - p_set),
    )


def _signature_quotient(code: GameCode, n: int, play: PlayConvention, budget=None):
    """The analysis of the first signature round that verify_to_heap proves
    to heap n, with the passing report.  ``budget`` bounds each round's
    N-to-P scan.

    After a round that does not prove, its class representatives become
    contexts.  Indistinguishability is a congruence, so once the classes
    are right they are a complete set of contexts: any w shares a class
    with some representative r, and u + w has the outcome of u + r.  When
    no representative is new, the one-heap step adds every context plus
    every single heap.  A round that fails once the steps have reached
    _MAX_CONTEXT heaps, and adds no representative, raises RuntimeError.

    A proved candidate is what every later round would give, so returning
    it leaves the output unchanged.  Distinct classes of a round have
    distinct signatures, and a proved candidate's classes are exactly the
    indistinguishability classes of the positions of heaps <= n.  A later
    round refines it, since its signatures extend the earlier ones, and is
    refined by indistinguishability, since indistinguishable positions
    share every signature.  So it finds the same representatives in the
    same closure order, and with them the same table, phi, P and names.
    """
    # verifier imports builder, so builder imports verifier at call time.
    from .verifier import verify_to_heap

    sigs = _Signatures(code, n, play)
    join, heaps = sigs._game.join, 1
    while True:
        qa, reps = _run_round(sigs)
        if qa is not None:
            report = verify_to_heap(qa, n, budget=budget, limit=1)
            if report.passed:
                return qa, report
        if not sigs.add(reps):
            if heaps == _MAX_CONTEXT:
                raise RuntimeError(f"no round proved with context budget <= {_MAX_CONTEXT}")
            heaps += 1
            sigs.add([join(c, s) for c in sigs.contexts for s in sigs.singles])


def prove_quotient(code: GameCode, n: int, play: PlayConvention = MISERE,
                   *, budget: int | None = None):
    """The quotient of the game to heap size n, with the passing
    verifier.VerificationReport of verify_to_heap(qa, n, limit=1) that
    proves it.  ``budget`` bounds each N-to-P scan of those proofs.

    Under misere play, signature rounds run until a candidate is proved
    correct to heap n (see _signature_quotient).  After j one-heap steps
    the contexts hold every position of at most j + 1 heaps, so the rounds
    split every class that such contexts split; they raise RuntimeError
    only if that does not prove by _MAX_CONTEXT heaps.  Under normal play a
    position's class is its nim value, sums add by xor and P is {0}; by
    Sprague-Grundy theory that analysis is correct, so a failed proof
    raises InternalError.  Either convention raises BudgetExceededError on
    more than _MAX_CLASSES classes.
    """
    if isinstance(code, str):
        code = parse_game_code(code)
    if n < 1:
        raise ValueError("heap bound must be at least 1")
    if play is MISERE:
        return _signature_quotient(code, n, play, budget)
    from .verifier import verify_to_heap

    # The classes are the nim values that xor of heap values G(1..n) reach.
    values = [grundy(code, h) for h in range(1, n + 1)]
    _, table, phi_classes = _generated_table(
        0, values, xor, lambda v: v, _MAX_CLASSES
    )
    qa = _named_analysis(code, play, n, table, phi_classes, [0])
    report = verify_to_heap(qa, n, budget=budget, limit=1)
    if not report.passed:
        raise InternalError(f"the nim values of {code} fail their proof to heap {n}")
    return qa, report


def build_quotient(code: GameCode, n: int,
                   play: PlayConvention = MISERE) -> QuotientAnalysis:
    """The analysis of prove_quotient(code, n, play) without its report;
    its verified_to stays None."""
    return prove_quotient(code, n, play)[0]


# ---------------------------------------------------------------------------
# using an analysis


def phi_heap(qa: QuotientAnalysis, heap: int, *, claimed_ok: bool = False) -> int:
    """Element pretended by a single heap, extending by the certified period.

    claimed_ok additionally allows extension by an uncertified claimed period;
    the verifier needs that while a certification is still in progress.
    """
    if heap < 1:
        raise ValueError("heap size must be positive")
    if heap <= len(qa.phi):
        return qa.phi.value(heap)
    period = qa.certified_period
    if period is None and claimed_ok:
        period = qa.phi.claimed_period
    if period is None:
        raise ValueError(f"heap {heap} out of certified range")
    r0, p = period
    return qa.phi.value(r0 + (heap - r0) % p)


def phi_of_position(qa: QuotientAnalysis, position) -> int:
    """Monoid element of a whole position: product of its heap elements."""
    heaps = position.heaps if isinstance(position, Position) else tuple(position)
    return qa.monoid.product(phi_heap(qa, h) for h in heaps)


def predicted_outcome(qa: QuotientAnalysis, position: Position) -> Outcome:
    return qa.partition.outcome_of(phi_of_position(qa, position))


def detect_period(phi: PretendingFunction) -> tuple[int, int] | None:
    """Smallest empirical period of the stored values.

    Returns (r0, p) with the smallest p, then the smallest r0 = 1 + j*p,
    such that values repeat with period p from heap r0 on.  Block alignment
    keeps the result stable as more heaps are appended.  None if nothing
    repeats within the stored range.
    """
    n = len(phi)
    for p in range(1, n // 2 + 1):
        for r0 in range(1, n - p + 1, p):
            if all(phi.value(k) == phi.value(k + p) for k in range(r0, n - p + 1)):
                return (r0, p)
    return None


def element_genus(qa: QuotientAnalysis, el: int, cap: int = 16) -> GenusSymbol:
    """Genus of the representative position of an element.

    The representative multiplies out the element's normal-form word using,
    for each generator, the first heap that pretends to it.  This is a
    display datum: genus is not claimed constant across a whole class.
    """
    words = qa.monoid.words
    if words is None:
        raise ValueError("monoid has no word data")
    heaps: list[int] = []
    for letter, e in zip(qa.monoid.generators, words[el]):
        if e and letter not in qa.generator_heaps:
            raise ValueError(f"no representative heap for generator {letter}")
        heaps.extend([qa.generator_heaps[letter]] * e)
    return genus(qa.code, Position.from_heaps(heaps), cap=cap)


# ---------------------------------------------------------------------------
# serialization

_PLAY_NAMES = {MISERE: "misere", NORMAL: "normal"}


def analysis_to_json(qa: QuotientAnalysis) -> str:
    m = qa.monoid
    doc = {
        "code": str(qa.code),
        "play": _PLAY_NAMES[qa.play],
        "n": qa.n,
        "generators": list(m.generators),
        "words": [list(w) for w in (m.words or ())],
        "names": list(m.names),
        "table": [list(row) for row in m.table],
        "generator_map": {g: i for g, i in sorted(m.generator_map.items())},
        "generator_heaps": dict(sorted(qa.generator_heaps.items())),
        "phi": list(qa.phi.values),
        "claimed_period": list(qa.phi.claimed_period or ()) or None,
        "p_set": sorted(qa.partition.p_set),
        "verified_to": qa.verified_to,
        "certified_period": list(qa.certified_period or ()) or None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# Fields of an analysis file and the JSON types they hold; None marks the
# fields that may be null.
_FIELDS = {
    "code": (str,),
    "play": (str,),
    "n": (int,),
    "generators": (list,),
    "words": (list,),
    "names": (list,),
    "table": (list,),
    "generator_map": (dict,),
    "generator_heaps": (dict,),
    "phi": (list,),
    "claimed_period": (list, None),
    "p_set": (list,),
    "verified_to": (int, None),
    "certified_period": (list, None),
}


def _ints_within(values, low: int, high: int | None = None) -> bool:
    """Whether every value is a JSON integer (not a boolean) in low..high.
    Built from set, map, min and max so that loading stays cheap."""
    values = list(values)
    return set(map(type, values)) <= {int} and (
        not values
        or min(values) >= low and (high is None or max(values) <= high)
    )


def _check_analysis_doc(doc) -> None:
    """Raise ValueError unless doc has the fields analysis_to_json writes,
    with their types, distinct element names, one generator list and every
    element index in range.  The cost is linear in the size of the document; the proof
    itself is not re-checked."""
    if not isinstance(doc, dict):
        raise ValueError("an analysis file holds a JSON object")
    for key, kinds in _FIELDS.items():
        if key not in doc:
            raise ValueError(f"analysis file lacks the field {key!r}")
        value = doc[key]
        if value is None and None in kinds:
            continue
        # json.loads yields exact builtin types, and a bool is no int here.
        if type(value) is not kinds[0]:
            raise ValueError(f"analysis field {key!r} is not a JSON {kinds[0].__name__}")

    def require(ok: bool, key: str, what: str) -> None:
        if not ok:
            raise ValueError(f"analysis field {key!r} {what}")

    def indices(key: str, values, bound: int) -> None:
        require(_ints_within(values, 0, bound - 1), key,
                f"holds an element index outside 0..{bound - 1}")

    def positive(key: str, values) -> None:
        require(_ints_within(values, 1), key,
                "holds a value that is not a positive integer")

    require(doc["play"] in _PLAY_NAMES.values(), "play", "is not misere or normal")
    names, table = doc["names"], doc["table"]
    k = len(names)
    require(k > 0 and set(map(type, names)) == {str}, "names",
            "is not a nonempty list of strings")
    require(len(set(names)) == k, "names", "repeats an element name")
    require(set(map(type, doc["generators"])) <= {str}, "generators",
            "is not a list of strings")
    require(set(doc["generator_map"]) == set(doc["generators"]), "generator_map",
            "does not name the same generators as 'generators'")
    require(
        len(table) == k and all(isinstance(row, list) and len(row) == k for row in table),
        "table", f"is not a {k} x {k} table",
    )
    indices("table", chain.from_iterable(table), k)
    words = doc["words"]
    width = len(doc["generators"])
    require(
        len(words) in (0, k)
        and all(isinstance(w, list) and len(w) == width for w in words),
        "words", f"is not {k} exponent vectors of length {width}",
    )
    require(_ints_within(chain.from_iterable(words), 0), "words",
            "holds a negative or non-integer exponent")
    indices("phi", doc["phi"], k)
    indices("p_set", doc["p_set"], k)
    indices("generator_map", doc["generator_map"].values(), k)
    positive("generator_heaps", doc["generator_heaps"].values())
    positive("n", [doc["n"]])
    for key in ("claimed_period", "certified_period"):
        if doc[key] is not None:
            require(len(doc[key]) == 2, key, "is not a pair r0, p")
            positive(key, doc[key])
    if doc["verified_to"] is not None:
        positive("verified_to", [doc["verified_to"]])


def analysis_from_json(text: str) -> QuotientAnalysis:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("analysis file nested too deeply to decode") from None
    _check_analysis_doc(doc)
    generators = tuple(doc["generators"])
    words = tuple(tuple(w) for w in doc["words"])
    monoid = FiniteCommutativeMonoid(
        names=tuple(doc["names"]),
        table=tuple(tuple(row) for row in doc["table"]),
        generator_map=dict(doc["generator_map"]),
        words=words or None,
        generators=generators,
    )
    values = tuple(doc["phi"])

    def phi(key: str) -> PretendingFunction:
        # Stored phi must repeat with a period over at least one full period,
        # as certify_period requires; a certified period would otherwise
        # extend phi past the verified heaps with values never checked.
        period = doc[key]
        try:
            return PretendingFunction(values, tuple(period) if period else None)
        except ValueError as exc:
            raise ValueError(f"analysis field {key!r}: {exc}") from None

    phi("certified_period")
    p_set = frozenset(doc["p_set"])
    qa = QuotientAnalysis(
        code=parse_game_code(doc["code"]),
        play=MISERE if doc["play"] == "misere" else NORMAL,
        n=doc["n"],
        monoid=monoid,
        phi=phi("claimed_period"),
        partition=OutcomePartition(
            p_set=p_set, n_set=frozenset(range(len(monoid))) - p_set
        ),
        verified_to=doc["verified_to"],
        certified_period=(
            tuple(doc["certified_period"]) if doc["certified_period"] else None
        ),
    )
    if doc["generator_heaps"] != qa.generator_heaps:
        raise ValueError("analysis field 'generator_heaps' does not match 'phi'")
    return qa


# ---------------------------------------------------------------------------
# packaged reference data


def _data_text(name: str) -> str:
    # A plain open() beside this file: importlib.resources would import some
    # thirty modules into every command that reads packaged data.
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


def packaged_presentation(game: str):
    """Presentation shipped with the package: game "0.123" or "0.77"."""
    by_game = {"0.123": "q0123_presentation.txt", "0.77": "kayles_presentation.txt"}
    if game not in by_game:
        raise ValueError(f"no packaged presentation for {game!r}")
    return parse_presentation(_data_text(by_game[game]))


def kayles_analysis() -> QuotientAnalysis:
    """The full 0.77 analysis, loaded from the packaged analysis file.

    The file passes the same checks as any analysis file read from disk.
    It holds the monoid of the packaged presentation and the pretending
    function to heap 96 with its claimed period; it is not verified, and
    certification is a separate step.
    """
    return analysis_from_json(_data_text("kayles.json"))
