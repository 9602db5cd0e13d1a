"""Empirical quotient construction for octal games.

Positions that behave identically in every tested context are merged into
classes; the classes close into a finite commutative monoid, single heaps map
into it (the pretending function), and each class carries a P or N outcome.
The construction is bounded and therefore only a candidate: two positions
merged here might be distinguished by some context larger than the budget.
The verifier module turns a candidate into a proof.

Classes are discovered with signatures: sig(u) = the outcome of u + w for
every context w with at most m heaps, all heap sizes <= n.  The budget m
escalates until two consecutive rounds produce identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import chain, combinations_with_replacement, islice, repeat

from .octal import GameCode, Position, parse_game_code
from .oracle import (
    MISERE,
    NORMAL,
    BudgetExceededError,
    GenusSymbol,
    InternalError,
    Outcome,
    PlayConvention,
    _SEARCH_BUDGET,
    _game,
    _solve,
    genus,
    nim_value,
)
from .semigroup import (
    FiniteCommutativeMonoid,
    Word,
    _closure,
    _least_words,
    enumerate_elements,
    format_word,
    knuth_bendix,
    parse_presentation,
    parse_word,
)

__all__ = [
    "PretendingFunction",
    "OutcomePartition",
    "QuotientAnalysis",
    "build_quotient",
    "phi_of_position",
    "predicted_outcome",
    "detect_period",
    "element_genus",
    "analysis_to_json",
    "analysis_from_json",
    "packaged_presentation",
    "kayles_analysis",
]


@dataclass(frozen=True)
class PretendingFunction:
    """Element index pretended by each single heap, heap 1 first.

    claimed_period = (r0, p) asserts values[k] = values[k+p] from heap r0 on,
    with at least one full period, heaps r0..r0+p-1, stored; it is an
    empirical observation until certification.
    """

    values: tuple[int, ...]
    claimed_period: tuple[int, int] | None = None

    def __post_init__(self):
        if self.claimed_period is not None:
            r0, p = self.claimed_period
            if r0 < 1 or p < 1:
                raise ValueError("period indices must be positive")
            if len(self.values) < r0 + p - 1:
                raise ValueError("stored values do not cover one full period")
            for k in range(r0, len(self.values) - p + 1):
                if self.value(k) != self.value(k + p):
                    raise ValueError(f"period fails at heap {k}")

    def value(self, heap: int) -> int:
        if not 1 <= heap <= len(self.values):
            raise ValueError(f"heap {heap} outside stored range")
        return self.values[heap - 1]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class OutcomePartition:
    """P/N labels on monoid elements.  Disjoint and exhaustive; a trivial
    monoid may leave one side empty."""

    p_set: frozenset[int]
    n_set: frozenset[int]

    def __post_init__(self):
        if self.p_set & self.n_set:
            raise ValueError("P and N sets overlap")

    def outcome_of(self, el: int) -> Outcome:
        if el in self.p_set:
            return Outcome.P
        if el in self.n_set:
            return Outcome.N
        raise ValueError(f"element {el} not covered by the partition")


@dataclass
class QuotientAnalysis:
    code: GameCode
    play: PlayConvention
    n: int
    monoid: FiniteCommutativeMonoid
    phi: PretendingFunction
    partition: OutcomePartition
    generator_heaps: dict[str, int] = field(default_factory=dict)
    verified_to: int | None = None
    certified_period: tuple[int, int] | None = None


# ---------------------------------------------------------------------------
# construction

# build_quotient widens its contexts from _START_CONTEXT to _MAX_CONTEXT heaps
# and gives up past _MAX_CLASSES classes.
_START_CONTEXT = 3
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


def _merge(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(u + v))


class _Signatures:
    """Outcome signatures over a growing list of contexts.

    The contexts are the empty position, then every position of one heap,
    two heaps, ... up to m heaps, all heap sizes <= n, each in the oracle's
    canonical form (see oracle._Game), and a context whose canonical
    form repeats an earlier one is dropped.  Raising m only appends
    contexts, so a signature kept from an earlier round is extended by the
    new contexts alone.  A signature is bytes, one byte per context: 1 when
    u + w is an N position.  Outcomes are read from the oracle's memo and
    searched only on a miss.

    The canonical form is exact: a dead heap adds no move, heaps with equal
    option sets are equal games, and X + *1 + *1 has the outcome of X.  So
    two contexts of one canonical form give every u the same byte, and
    dropping the repeat leaves signature equality, and with it every class,
    unchanged.  Positions u of one canonical form share one signature.
    """

    def __init__(self, code: GameCode, n: int, play: PlayConvention):
        self.code = code
        self.play = play
        self.n = n
        self.m = 0
        self.contexts: list[tuple[int, ...]] = [()]
        self._sigs: dict[tuple[int, ...], bytes] = {}
        self._game = _game(code, n)

    def widen(self, m: int) -> None:
        """Extend the contexts to every position of at most m heaps."""
        heaps, key = range(1, self.n + 1), self._game.key
        # A dict keeps each canonical context at its first place.
        contexts = dict.fromkeys(self.contexts)
        while self.m < m:
            self.m += 1
            combos = combinations_with_replacement(heaps, self.m)
            contexts.update(dict.fromkeys(map(key, combos)))
        self.contexts = list(contexts)

    def sig(self, u: tuple[int, ...]) -> bytes:
        game = self._game
        u = game.key(u)
        got = self._sigs.get(u, b"")
        if len(got) < len(self.contexts):
            play = self.play
            memo, misere, join = game.outcomes[play], play is MISERE, game.join
            won = []
            for w in self.contexts[len(got) :]:
                key = join(u, w)
                v = memo.get(key)
                if v is None:
                    v = _solve(game, memo, misere, key, _SEARCH_BUDGET)
                won.append(v)
            got += bytes(won)
            self._sigs[u] = got
        return got


@dataclass(frozen=True)
class _RoundResult:
    """The candidate quotient found by one signature round."""

    letters: tuple[str, ...]
    generator_heaps: dict[str, int]
    words: tuple[Word, ...]
    table: tuple[tuple[int, ...], ...]
    generator_map: dict[str, int]
    phi: tuple[int, ...]
    p_set: frozenset[int]


def _run_round(sigs: _Signatures) -> _RoundResult | None:
    """The candidate at the current contexts of ``sigs``, or None when the
    class set fails to close under multiplication there."""
    code, n, play = sigs.code, sigs.n, sigs.play
    class_of: dict[bytes, int] = {}
    reps: list[tuple[int, ...]] = []

    def classify(u: tuple[int, ...]) -> None:
        s = sigs.sig(u)
        if s not in class_of:
            if len(reps) >= _MAX_CLASSES:
                raise BudgetExceededError(f"more than {_MAX_CLASSES} classes")
            class_of[s] = len(reps)
            reps.append(u)

    # Class 0 is the identity.  reps grows as classes appear, so this loop
    # is the breadth-first search over them.
    classify(())
    for rep in reps:
        for h in range(1, n + 1):
            classify(_merge(rep, (h,)))

    k = len(reps)
    table_cls = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            s = sigs.sig(_merge(reps[i], reps[j]))
            cls = class_of.get(s)
            if cls is None:
                return None  # product fell outside the closure: escalate
            table_cls[i][j] = table_cls[j][i] = cls

    phi_cls = [class_of[sigs.sig((h,))] for h in range(1, n + 1)]

    if play is NORMAL:
        # Cross-check: classes must coincide with nim values on the reps.
        by_nim: dict[int, int] = {}
        for cls, rep in enumerate(reps):
            g = nim_value(code, Position(rep))
            if by_nim.setdefault(g, cls) != cls:
                raise InternalError("distinct classes share a nim value")

    # Distinct single-heap classes other than the identity, each with the
    # first heap attaining it.
    first_heap: dict[int, int] = {}
    for h, cls in enumerate(phi_cls, 1):
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
        if cls in _closure(table_cls, 0, others):
            letter_cls.remove(cls)
    letters = tuple(islice(_letter_names(), len(letter_cls)))

    least = _least_words(table_cls, 0, letter_cls)
    if len(least) < k:
        raise InternalError("letter classes do not generate the monoid")
    index_of = {cls: i for i, cls in enumerate(least)}
    return _RoundResult(
        letters=letters,
        generator_heaps={
            letter: first_heap[cls] for letter, cls in zip(letters, letter_cls)
        },
        words=tuple(least.values()),
        table=tuple(
            tuple(index_of[table_cls[a][b]] for b in least) for a in least
        ),
        generator_map={
            letter: index_of[cls] for letter, cls in zip(letters, letter_cls)
        },
        phi=tuple(index_of[cls] for cls in phi_cls),
        p_set=frozenset(
            index_of[cls] for cls, rep in enumerate(reps) if not sigs.sig(rep)[0]
        ),
    )


def build_quotient(
    code: GameCode, n: int, play: PlayConvention = MISERE
) -> QuotientAnalysis:
    """Candidate quotient of the game to heap size n.

    Context budgets m = _START_CONTEXT, _START_CONTEXT+1, ... are tried until
    two consecutive rounds agree; raises BudgetExceededError on more than
    _MAX_CLASSES classes and RuntimeError if no two rounds up to _MAX_CONTEXT
    agree.
    """
    if isinstance(code, str):
        code = parse_game_code(code)
    if n < 1:
        raise ValueError("heap bound must be at least 1")
    previous = None
    sigs = _Signatures(code, n, play)
    for m in range(_START_CONTEXT, _MAX_CONTEXT + 1):
        sigs.widen(m)
        result = _run_round(sigs)
        if result is not None and result == previous:
            words = result.words
            monoid = FiniteCommutativeMonoid(
                names=tuple(format_word(w, result.letters) for w in words),
                table=result.table,
                generator_map=result.generator_map,
                identity_index=0,
                words=words,
                generators=result.letters,
            )
            values = PretendingFunction(result.phi)
            values = replace(values, claimed_period=detect_period(values))
            return QuotientAnalysis(
                code=code,
                play=play,
                n=n,
                monoid=monoid,
                phi=values,
                partition=OutcomePartition(
                    p_set=result.p_set,
                    n_set=frozenset(range(len(words))) - result.p_set,
                ),
                generator_heaps=result.generator_heaps,
            )
        previous = result
    raise RuntimeError(
        f"no two consecutive rounds agreed with context budget <= {_MAX_CONTEXT}"
    )


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
    with their types and every element index in range.  The cost is linear
    in the size of the document; the proof itself is not re-checked."""
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
    require(set(map(type, doc["generators"])) <= {str}, "generators",
            "is not a list of strings")
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
    doc = json.loads(text)
    _check_analysis_doc(doc)
    generators = tuple(doc["generators"])
    words = tuple(tuple(w) for w in doc["words"])
    monoid = FiniteCommutativeMonoid(
        names=tuple(doc["names"]),
        table=tuple(tuple(row) for row in doc["table"]),
        generator_map=dict(doc["generator_map"]),
        identity_index=0,
        words=words or None,
        generators=generators,
    )
    # The monoid checks associativity by Light's test only when these images
    # generate the table, and exhaustively only up to 64 elements, so a file
    # whose images do not generate could hide a broken product.
    if not monoid.map_generates:
        raise ValueError("analysis field 'generator_map' does not generate the table")
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
    return QuotientAnalysis(
        code=parse_game_code(doc["code"]),
        play=MISERE if doc["play"] == "misere" else NORMAL,
        n=doc["n"],
        monoid=monoid,
        phi=phi("claimed_period"),
        partition=OutcomePartition(
            p_set=p_set, n_set=frozenset(range(len(monoid))) - p_set
        ),
        generator_heaps=dict(doc["generator_heaps"]),
        verified_to=doc["verified_to"],
        certified_period=(
            tuple(doc["certified_period"]) if doc["certified_period"] else None
        ),
    )


# ---------------------------------------------------------------------------
# packaged reference data


def _data_text(name: str) -> str:
    from importlib.resources import files

    return files("misere_quotients").joinpath("data", name).read_text()


def packaged_presentation(game: str):
    """Presentation shipped with the package: game "0.123" or "0.77"."""
    by_game = {"0.123": "q0123_presentation.txt", "0.77": "kayles_presentation.txt"}
    if game not in by_game:
        raise ValueError(f"no packaged presentation for {game!r}")
    return parse_presentation(_data_text(by_game[game]))


def kayles_analysis() -> QuotientAnalysis:
    """The full 0.77 analysis from packaged single-heap data.

    The monoid is enumerated from the packaged presentation; the pretending
    function and P-element set come from the packaged table to heap 96 with
    its claimed period, each word read as a product in the monoid's table.
    Not verified; certification is a separate step.
    """
    monoid = enumerate_elements(knuth_bendix(packaged_presentation("0.77")), cap=200)
    gen_els = [monoid.generator_map[name] for name in monoid.generators]

    def el(text: str) -> int:
        w = parse_word(text, monoid.generators)
        return monoid.product(chain.from_iterable(map(repeat, gen_els, w)))

    period: tuple[int, int] | None = None
    p_words: list[str] = []
    values: dict[int, int] = {}
    for raw in _data_text("kayles_phi.txt").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("period:"):
            r0, p = line[len("period:") :].split()
            period = (int(r0), int(p))
        elif line.startswith("ptypes:"):
            p_words = [w.strip() for w in line[len("ptypes:") :].split("|")]
        else:
            heap, _, word = line.partition(" ")
            values[int(heap)] = el(word)
    n = max(values)
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError("packaged pretending function has gaps")
    p_set = frozenset(el(w) for w in p_words)
    return QuotientAnalysis(
        code=parse_game_code("0.77"),
        play=MISERE,
        n=n,
        monoid=monoid,
        phi=PretendingFunction(
            tuple(values[h] for h in range(1, n + 1)), claimed_period=period
        ),
        partition=OutcomePartition(
            p_set=p_set, n_set=frozenset(range(len(monoid))) - p_set
        ),
        generator_heaps={"x": 1, "z": 2, "w": 5, "v": 9, "t": 12, "f": 25, "g": 27},
    )
