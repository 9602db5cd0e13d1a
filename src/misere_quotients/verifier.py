"""Proof machinery for candidate quotients.

A candidate analysis asserts an outcome for every position through its
pretending function.  Those assertions are correct to heap size n exactly
when (1) no position asserted P has a move to a position asserted P, and
(2) every non-endgame position asserted N has a move to a position asserted
P.  Both conditions reduce to finite checks over the monoid:

(1) ranges over translates u * (phi(h_f), phi(t)) of the finitely many move
pairs; (2) ranges over pairs (U, s) of a set U of distinct heaps and a
multiplier s drawn from the submonoid S(U) generated by U's elements, since
every position with support U and extra copies of its heaps factors that way,
and every such (U, s) is realized by some concrete position.

Both halves ask whether b*e lies in a set of elements, and both read the
answer off one table of membership masks: for each element e, the bitmask
of the b with b*e asserted P, read off e's row (the monoid is commutative).
Under (1) the bases that send a move pair from P to P are the AND of the
masks of its two ends.  Under (2) each heap keeps one mask, the bases at which no
move of it lands in P: the complement of the OR of its targets' masks.
Every such mask, and every preimage the N-to-P search takes, comes from one
kernel that runs in C: e's row is held once as a string whose x-th
character from the right is chr(e*x), str.translate turns each character
into its element's bit of the set, "0" or "1", and int(..., 2) reads the
result as the mask.

The N-to-P half is one memoized search over sets of distinct heap values.
It lists the failing cases (U, s) of the subtrees it enters and skips a
subtree once it knows that no case below fails, so a failing run walks the
paths to its failures rather than the whole tree.  It knows that when the
subtree's state is memoized as holding no failure, or when no failure below
can land anywhere.  With G the multipliers at which every chosen heap still
fails and P the product so far, a case below that adds values W of product
Q fails at s only if s*Q is in G, s*Q*P is an asserted N element, and s is
in S(U, W), the submonoid generated by U and W.  The monoid is commutative,
so the submonoid generated by two submonoids S and T is S*T; hence s*Q lies
in the closure of S(U) with every value still to come, and when that
closure shares no element with G and the watched multipliers of P, the
subtree holds no failure.  The search takes the most constrained values
first (fail-first), so G runs out nearer the root.  Since it enumerates
unordered sets, the order changes its work and the order of its listing,
never the verdict or the set of failing cases; the skips change its work
alone.

Heaps with no moves at all need care under (2): a position made entirely of
them has no move to anything, yet the player to move has already won under
misere play.  Such all-dead products are checked separately for the correct
outcome label and are exempt from the winning-move requirement.

A certified period turns correctness to one finite heap size into
correctness everywhere (the translate sets stop changing), which is the
final deliverable of this module.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterator, NamedTuple

from .octal import _heap_moves, period_window
from .oracle import MISERE, BudgetExceededError
from .builder import PretendingFunction, QuotientAnalysis, phi_heap
from .semigroup import _closure, _closure_add, _least_words

__all__ = [
    "MovePair",
    "Translate",
    "VerificationReport",
    "move_pairs",
    "translates_for_basis",
    "check_no_PP",
    "submonoid_of",
    "solutions_for",
    "winning_moves",
    "check_N_to_P",
    "verify_to_heap",
    "certify_period",
]


class MovePair(NamedTuple):
    """Elements (phi(h_f), phi(t)) of some legal move h_f -> t, with the
    smallest witnessing move recorded."""

    lhs: int
    rhs: int
    source: tuple[int, tuple[int, ...]]


class Translate(NamedTuple):
    basis: int
    pair: MovePair
    start: int
    end: int


class VerificationReport(NamedTuple):
    n: int
    pp_violations: list[Translate]
    np_failures: list[tuple[int, tuple[int, ...], int]]
    passed: bool
    stats: dict


def _phi(qa: QuotientAnalysis, heap: int) -> int:
    # Claimed-period extension is allowed here: verification is exactly the
    # step that turns the claim into a certificate.
    return phi_heap(qa, heap, claimed_ok=True)


def _move_targets(
    qa: QuotientAnalysis, h: int, phi: Callable[[int], int] | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(t, phi(t)) for every move h -> t, ordered by t and generated as
    read: the one place that computes the element a move lands on.  ``phi``
    gives a part's element; by default each part is read with _phi, which
    extends by the period, so a heap of any size works."""
    if phi is None:
        phi = partial(_phi, qa)
    product = qa.monoid.product
    return ((t, product(map(phi, t))) for t in _heap_moves(qa.code, h))


def _walk_moves(
    qa: QuotientAnalysis, n: int
) -> dict[int, tuple[int, list[tuple[tuple[int, ...], int]]]]:
    """h -> (phi(h), the list of _move_targets(qa, h)) for every heap h <= n,
    with phi(1..n) read once: every part of a move of h is below h."""
    phis = [0, *map(partial(_phi, qa), range(1, n + 1))]
    return {
        h: (phis[h], list(_move_targets(qa, h, phis.__getitem__)))
        for h in range(1, n + 1)
    }


def _pairs_of(walk) -> set[MovePair]:
    found: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for f, (lhs, targets) in walk.items():
        for t, rhs in targets:
            found.setdefault((lhs, rhs), (f, t))
    return {MovePair(lhs, rhs, src) for (lhs, rhs), src in found.items()}


def move_pairs(qa: QuotientAnalysis, n: int) -> set[MovePair]:
    """One pair per distinct (phi(h_f), phi(t)) over all moves of ``qa.code``
    with f <= n."""
    return _pairs_of(_walk_moves(qa, n))


def translates_for_basis(
    qa: QuotientAnalysis, n: int, basis: int
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Every single move f -> t with f <= n translated by one basis element,
    as (f, t, basis*phi(h_f), basis*phi(t)), ordered by (f, t).  This is the
    per-move view; check_no_PP works with the deduplicated pairs instead."""
    row = qa.monoid.table[basis]
    return [
        (f, t, row[lhs], row[el])
        for f, (lhs, targets) in _walk_moves(qa, n).items()
        for t, el in targets
    ]


def check_no_PP(
    qa: QuotientAnalysis, n: int, pairs: set[MovePair] | None = None
) -> list[Translate]:
    """All translates u*(pair) landing P -> P; empty list proves half (1)."""
    if pairs is None:
        pairs = move_pairs(qa, n)
    table = qa.monoid.table
    good = _row_masks(_rows(table), qa.partition.p_set)
    bad = [
        Translate(u, pair, table[u][pair.lhs], table[u][pair.rhs])
        for pair in pairs
        for u in _bits(good[pair.lhs] & good[pair.rhs])
    ]
    return sorted(bad, key=lambda t: (t.basis, t.pair.lhs, t.pair.rhs))


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rows(table) -> list[str]:
    """Each element e's row as a string whose x-th character from the
    right is chr(e*x): the operand of every membership mask."""
    return ["".join(map(chr, reversed(row))) for row in table]


def _digits(mask: int, k: int) -> str:
    """The str.translate table that sends element y to its bit of mask, the
    character "0" or "1".  It is padded to all k elements: translate passes
    a character past the end of its table through unchanged, and while most
    such characters make int() fail, elements 48 and 49 are the characters
    "0" and "1" and would be read as digits."""
    return bin(mask)[:1:-1].ljust(k, "0")


def _preimage(rows: list[str], a: int, mask: int) -> int:
    """The bitmask of the x with a*x in mask: a's row with each element
    replaced by its bit of mask, read as a binary numeral."""
    return int(rows[a].translate(_digits(mask, len(rows))), 2)


def _row_masks(rows: list[str], members) -> list[int]:
    """For each element e, the bitmask of the b with b*e in members: the
    preimage of members under e, with one translate table for every row
    (the table is commutative; the loader refuses any other)."""
    digits = _digits(sum(1 << e for e in members), len(rows))
    return [int(row.translate(digits), 2) for row in rows]


# ---------------------------------------------------------------------------
# the N-to-P half


class _Context:
    """Per-(qa, n) data shared by the subset scans, from one walk of every
    heap's moves."""

    def __init__(self, qa: QuotientAnalysis, n: int):
        self.qa = qa
        self.walk = _walk_moves(qa, n)
        self.table = qa.monoid.table
        self.rows = _rows(self.table)
        k = len(self.table)
        good = _row_masks(self.rows, qa.partition.p_set)
        self.live: list[int] = []
        self.dead: list[int] = []
        self.heap_phi: dict[int, int] = {}
        # fails[h]: the bases b at which no move of heap h lands in P.
        self.fails: dict[int, int] = {}
        for h, (phi, targets) in self.walk.items():
            self.heap_phi[h] = phi
            lands = 0
            for _, el in targets:
                lands |= good[el]
            self.fails[h] = ((1 << k) - 1) ^ lands
            (self.live if targets else self.dead).append(h)
        self.by_value: dict[int, list[int]] = {}
        for h in self.live:
            self.by_value.setdefault(self.heap_phi[h], []).append(h)
        # closures[g]: submonoid mask -> its closure with generator g added.
        self.closures: list[dict[int, int]] = [{} for _ in range(k)]


class _Enough(Exception):
    """A scan has listed as many failures as its limit allows."""


def _scan_naive(ctx: _Context, watch: frozenset[int], budget: int | None,
                limit: int | None = None):
    """Enumerate all nonempty sets of distinct live heaps, stopping once
    ``limit`` failures are listed."""
    table = ctx.table
    fails = ctx.fails
    failures: list[tuple[int, tuple[int, ...], int]] = []
    cases: dict[int, int] = {}
    stats = {"nodes": 0, "evaluations": 0, "states": 0}
    live = ctx.live

    def descend(i, heaps, submonoid, product, derivs):
        for j in range(i, len(live)):
            h = live[j]
            phi = ctx.heap_phi[h]
            heaps2 = heaps + (h,)
            derivs2 = tuple(table[d][phi] for d in derivs) + (product,)
            product2 = table[product][phi]
            closures = ctx.closures[phi]
            sub2 = closures.get(submonoid)
            if sub2 is None:
                sub2 = closures[submonoid] = _closure_add(table, submonoid, phi)
            stats["nodes"] += 1
            for s in _bits(sub2):
                omega = table[s][product2]
                if omega not in watch:
                    continue
                stats["evaluations"] += 1
                if budget is not None and stats["evaluations"] > budget:
                    raise BudgetExceededError("subset scan exceeded budget")
                cases[omega] = cases.get(omega, 0) + 1
                row = table[s]
                if all(fails[h2] >> row[d] & 1 for h2, d in zip(heaps2, derivs2)):
                    failures.append((omega, heaps2, s))
                    if len(failures) == limit:
                        raise _Enough
            descend(j + 1, heaps2, sub2, product2, derivs2)

    try:
        descend(0, (), 1, 0, ())  # no heaps: S = {e} (mask 1), product e = 0
    except _Enough:
        pass
    return failures, cases, stats


def _witness(ctx: _Context, chosen, s: int) -> tuple[int, ...]:
    """Heaps of a failing collapsed case: for each chosen (v, mu), the first
    mu heaps of value v with no move into P at base s*d, d the rest of the
    chosen product."""
    table = ctx.table
    heaps: list[int] = []
    for i, (v, mu) in enumerate(chosen):
        base = s
        for j, (v2, mu2) in enumerate(chosen):
            for _ in range(mu2 - (i == j)):
                base = table[base][v2]
        heaps.extend([h for h in ctx.by_value[v] if ctx.fails[h] >> base & 1][:mu])
    return tuple(sorted(heaps))


def _scan_collapsed(ctx: _Context, watch: frozenset[int], budget: int | None,
                    limit: int | None = None):
    """Enumerate sets of distinct phi values with a one-heap or two-heap flag,
    by memoized search, stopping once ``limit`` failures are listed.

    Sound and complete against the naive scan: extra copies of a value fold
    into s (the value generates part of S(U)), and a failing combination is
    realizable exactly when each chosen value has at least as many heaps
    failing against its base as the flag demands.

    Call G the set of elements x at which every chosen (v, mu) still fails:
    at least mu heaps of value v have no move into P at base x*d, with d the
    rest of the product.  Whether a subtree holds a failing case depends only
    on the next value index, the product P so far, S(U) so far and G.  Adding
    (v, mu) maps G to {x : x*v^mu in G and (v, mu) fails at x*P*v^(mu-1)},
    and the new node fails at exactly the s in G, in S(U) and with s*P in
    watch.  Those four are the memo key, as bitmasks.  A child's subtree is
    skipped when its G is empty, when its key is memoized as holding no
    failure, or when its reach bound is empty; one that holds a failure is
    walked again, since witnesses depend on the path.  The reach bound of a
    child with next value index j: a descendant adds values W from index j
    on, of product Q, and fails at s only if s*Q is in G (each step maps G
    by the preimage of its v^mu), s*Q*P is in watch and s is in S(U, W).
    S(U, W) is S(U)*S(W), since the monoid is commutative, and Q is in
    S(W), so y = s*Q lies in R_j(S(U)), the closure of S(U) with every value
    from index j on.  A descendant's failure thus needs a y in G, in
    R_j(S(U)) and with y*P in watch; when no such y exists the subtree
    holds no failure.  R_j(S) is memoized per (j, S) as R_(j+1) of the
    closure of S with value j.  The child's own node is evaluated before
    the test, so only failure-free subtrees go, and the listing and its
    order stay as they would be without the bound.
    An evaluation is one (state, s) pair: a node that survives the pruning,
    and s in S(U) with s*P in watch.  A state's evaluations are counted
    together, and the budget is tested once per state; since the count only
    grows, that raises at the same state as a test after each s would.
    Their split per omega, ``cases``, is tallied by (P, set of s) during the
    walk and expanded once after it.  A walk stopped at its limit lists the
    failures it found first, and its counters cover the part walked.

    Values are taken fail-first: those with a two-heap option, which fails
    only where two heaps fail at once, then those whose one-heap option
    fails at the fewest bases, then by index.  A value that fails at few
    bases shrinks G most, so G empties, and the subtree is cut, after fewer
    choices.  Any fixed order is sound: the walk enumerates unordered sets,
    the memo key holds for a fixed order, and the witness of a failure does
    not depend on the order of the chosen values.  So the order moves the
    counters and which failures a limited walk lists first, but no verdict
    and no complete listing taken as a set.

    Every failure test reads membership masks.  ``ctx.fails[h]`` holds the
    bases at which no move of heap h lands in P; a value's one-heap option
    fails at the OR of its heaps' masks and its two-heap option at the OR of
    their pairwise ANDs, and the popcount of the one-heap mask is the
    fail-first key.  The s with s*P in watch are P's row of the table read
    as a mask of watch.  Each node works through lists indexed by element:
    the closure memo of its value, the preimage memos of its multiplier v^mu
    and of its base (which maps the failing bases of (v, mu)), and the
    watched mask of its product.  A preimage missing from its memo is one
    translate of a row string (_preimage).  A child's memo key and reach
    bound are tested before descending into it.
    """
    table = ctx.table
    k = len(table)
    # failing[v]: the bases at which at least one, and at least two, heaps
    # of value v have no move into P.
    failing = {}
    for v, heaps in ctx.by_value.items():
        once = twice = 0
        for h in heaps:
            twice |= once & ctx.fails[h]
            once |= ctx.fails[h]
        failing[v] = once, twice
    # Fail-first: values with a two-heap option, then by the bases at which
    # their one-heap option fails, fewest first, then by index.
    values = sorted(ctx.by_value, key=lambda v: (
        len(ctx.by_value[v]) < 2, failing[v][0].bit_count(), v))
    rows = ctx.rows
    # preimages[a]: mask -> _preimage(rows, a, mask).
    preimages: list[dict[int, int]] = [{} for _ in range(k)]
    # watched[P]: the s with s*P in watch.
    watched = _row_masks(rows, watch)
    # One step per value v: (the index after v, v, its closure memo, its
    # options), an option (mu, v^mu, the row that maps P to the base
    # P*v^(mu-1), and failing[v][mu-1]; its preimage by a base is memoized
    # in preimages).
    steps = []
    for j, v in enumerate(values, 1):
        once, twice = failing[v]
        options = [(1, v, table[0], once)]  # row 0, the identity's, maps P to P
        # Two heaps of one value are the most a failing case ever needs: a
        # third copy folds into the multiplier s.
        if len(ctx.by_value[v]) >= 2:
            options.append((2, table[v][v], table[v], twice))
        steps.append((j, v, ctx.closures[v], options))
    # later[i]: the steps from value index i on.
    later = [steps[i:] for i in range(len(steps) + 1)]
    # reaches[i]: submonoid S -> its closure with every value from index i
    # on, R_i(S) = R_(i+1)(closure of S with value i).
    reaches: list[dict[int, int]] = [{} for _ in steps]

    def reach(i: int, submonoid: int) -> int:
        if i == len(steps):
            return submonoid
        out = reaches[i].get(submonoid)
        if out is None:
            _, v, closures, _ = steps[i]
            sub2 = closures.get(submonoid)
            if sub2 is None:
                sub2 = closures[submonoid] = _closure_add(table, submonoid, v)
            out = reaches[i][submonoid] = reach(i + 1, sub2)
        return out

    failures: list[tuple[int, tuple[int, ...], int]] = []
    # tally[P][hits]: how many evaluated states have product P and the
    # multipliers hits; it turns into cases once the walk is over.
    tally: list[dict[int, int]] = [{} for _ in range(k)]
    nodes = evaluations = 0
    memo: dict[tuple[int, int, int, int], bool] = {}
    chosen: list[tuple[int, int]] = []

    def descend(i, g_mask, product, submonoid):
        nonlocal nodes, evaluations
        listed = len(failures)
        row = table[product]
        for j, v, closures, options in later[i]:
            sub2 = closures.get(submonoid)
            if sub2 is None:
                sub2 = closures[submonoid] = _closure_add(table, submonoid, v)
            for mu, v_mu, shift, fails in options:
                nodes += 1
                base = shift[product]
                f_mask = preimages[base].get(fails)
                if f_mask is None:
                    f_mask = preimages[base][fails] = _preimage(rows, base, fails)
                if not f_mask:
                    continue
                g2 = preimages[v_mu].get(g_mask)
                if g2 is None:
                    g2 = preimages[v_mu][g_mask] = _preimage(rows, v_mu, g_mask)
                g2 &= f_mask
                if not g2:
                    continue
                product2 = row[v_mu]
                hits = sub2 & watched[product2]
                if hits:
                    evaluations += hits.bit_count()
                    if budget is not None and evaluations > budget:
                        raise BudgetExceededError("subset scan exceeded budget")
                    seen = tally[product2]
                    seen[hits] = seen.get(hits, 0) + 1
                    if g2 & hits:
                        path = chosen + [(v, mu)]
                        row2 = table[product2]
                        for s in _bits(g2 & hits):
                            failures.append((row2[s], _witness(ctx, path, s), s))
                            if len(failures) == limit:
                                raise _Enough
                if (memo.get((j, g2, product2, sub2)) is not False
                        and g2 & watched[product2] & reach(j, sub2)):
                    chosen.append((v, mu))
                    descend(j, g2, product2, sub2)
                    chosen.pop()
        memo[i, g_mask, product, submonoid] = len(failures) > listed

    try:
        descend(0, (1 << k) - 1, 0, 1)  # no heaps: product e = 0, S = {e}
    except _Enough:
        pass
    per_omega = [0] * k
    for product, seen in enumerate(tally):
        row = table[product]
        for hits, count in seen.items():
            while hits:
                low = hits & -hits
                per_omega[row[low.bit_length() - 1]] += count
                hits ^= low
    cases = {omega: count for omega, count in enumerate(per_omega) if count}
    stats = {"nodes": nodes, "evaluations": evaluations, "states": len(memo)}
    return failures, cases, stats


def submonoid_of(qa: QuotientAnalysis, heaps) -> tuple[int, ...]:
    """S(U): the submonoid generated by the elements of the given heaps."""
    elements = (_phi(qa, h) for h in heaps)
    return tuple(sorted(_closure(qa.monoid.table, elements)))


def solutions_for(qa: QuotientAnalysis, omega: int, heaps) -> tuple[int, ...]:
    """All s in the whole monoid with s * phi(U) = omega, ascending.

    Only the ones also in submonoid_of(qa, heaps) can come from a real
    position with support U; the subset scan ranges over exactly those."""
    product = qa.monoid.product(_phi(qa, h) for h in heaps)
    table = qa.monoid.table
    return tuple(
        s for s in range(len(qa.monoid)) if table[s][product] == omega
    )


def _iter_winning_moves(qa: QuotientAnalysis, heaps, s: int):
    """Lazily, by heap and then by t, every move h -> t of winning_moves."""
    heaps = tuple(sorted(heaps))
    table = qa.monoid.table
    p_set = qa.partition.p_set
    phis = [_phi(qa, h) for h in heaps]
    # after[i]: the product of the heaps after heap i; before: s times the
    # product of the heaps before it.  Linear in the number of heaps.
    after = [0]
    for el in reversed(phis[1:]):
        after.append(table[after[-1]][el])
    after.reverse()
    before = s
    for h, phi, rest in zip(heaps, phis, after):
        row = table[table[before][rest]]
        for t, el in _move_targets(qa, h):
            if row[el] in p_set:
                yield h, t, row[el]
        before = table[before][phi]


def winning_moves(qa: QuotientAnalysis, heaps, s: int):
    """Every move h -> t from the case (U, s) whose translated target is an
    asserted P element, as (h, t, target element)."""
    return list(_iter_winning_moves(qa, heaps, s))


def check_N_to_P(
    qa: QuotientAnalysis,
    n: int,
    omega: int,
    *,
    budget: int | None = None,
) -> list[tuple[int, tuple[int, ...], int]]:
    """Failing cases (omega, U, s) with no winning move; empty proves the
    N-to-P half for this element."""
    if omega not in qa.partition.n_set:
        raise ValueError("check_N_to_P expects an asserted N element")
    failures, _, _ = _scan_collapsed(_Context(qa, n), frozenset([omega]), budget)
    return failures


def verify_to_heap(
    qa: QuotientAnalysis,
    n: int,
    *,
    collapse: bool = True,
    budget: int | None = None,
    limit: int | None = None,
) -> VerificationReport:
    """Run both induction halves for every asserted N element.

    ``collapse=False`` runs the naive subset scan, the reference that the
    collapsed scan is tested against.  ``limit`` caps the stuck cases the
    scan lists; None lists them all.  A caller that sets it wants a verdict
    more than a listing, so the scan is skipped when the P-to-P half has
    already failed.  The stuck all-dead products are always listed.
    ``stats["scan"]`` is "complete" when the scan listed every stuck case,
    "stopped" when it stopped at ``limit`` cases (there may be more) and
    "skipped" when it did not run."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    ctx = _Context(qa, n)
    pairs = _pairs_of(ctx.walk)
    pp = check_no_PP(qa, n, pairs)
    if pp and limit is not None:
        failures, cases, stats = [], {}, {"nodes": 0, "evaluations": 0, "states": 0}
        status = "skipped"
    else:
        scan = _scan_collapsed if collapse else _scan_naive
        failures, cases, stats = scan(ctx, qa.partition.n_set, budget, limit)
        status = "stopped" if len(failures) == limit else "complete"

    # All-dead positions have no moves: their label must be N under misere
    # play (the player to move has already won) and P under normal play.
    # Each failing product is listed with its least word over the dead heaps.
    required = qa.partition.n_set if qa.play is MISERE else qa.partition.p_set
    letters = [ctx.heap_phi[h] for h in ctx.dead]
    dead_failures = [
        (el, tuple(chain.from_iterable(map(repeat, ctx.dead, word))), 0)
        for el, word in _least_words(qa.monoid.table, letters).items()
        if el not in required
    ]

    np_failures = sorted(failures + dead_failures)
    stats = dict(stats)
    stats["scan"] = status
    stats["cases_by_omega"] = {k: cases[k] for k in sorted(cases)}
    stats["move_pairs"] = len(pairs)
    stats["dead_heaps"] = list(ctx.dead)
    return VerificationReport(
        n=n,
        pp_violations=pp,
        np_failures=np_failures,
        passed=not pp and not np_failures,
        stats=stats,
    )


def certify_period(
    qa: QuotientAnalysis,
    r0: int,
    p: int,
    *,
    budget: int | None = None,
) -> QuotientAnalysis | None:
    """Prove the analysis correct for every heap size.

    Requires the stored values to actually repeat with period p from r0 on,
    with at least one full period stored.  Verifies correctness to heap size
    octal.period_window(code, r0, p); past it the translate sets repeat, so
    the quotient decides all larger heaps too.  Returns the certified analysis,
    or None when the verification fails.
    """
    # Raises ValueError when the stored values break the period or do not
    # cover one full period.
    claimed = PretendingFunction(qa.phi.values, (r0, p))
    n_window = period_window(qa.code, r0, p)
    candidate = qa._replace(phi=claimed)
    report = verify_to_heap(candidate, n_window, budget=budget, limit=1)
    if not report.passed:
        return None
    return candidate._replace(verified_to=n_window, certified_period=(r0, p))
