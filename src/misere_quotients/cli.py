"""Command line front end.

Subcommands build analyses, verify and certify them, query single
positions, print genus symbols, trace word reductions, and report monoid
structure.  Analyses travel as canonical JSON files so results can be
produced once and queried many times.

Exit codes are a stable contract: 0 success (and verified, where the
subcommand verifies anything), 2 verification failure, 3 budget exceeded,
4 bad input, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .octal import Position, _heap_moves, parse_game_code, period_window
from .oracle import (
    MISERE,
    NORMAL,
    BudgetExceededError,
    GameTree,
    GenusTailError,
    InternalError,
    Outcome,
    genus,
    genus_of_tree,
)
from .semigroup import (
    format_word,
    knuth_bendix,
    parse_presentation,
    parse_word,
    reduction_trace,
)
from . import builder, structure, verifier

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code contract reserves 2 for
    # verification failures, so remap.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_period(text: str) -> tuple[int, int]:
    try:
        r0, p = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected r0,p integers, got {text!r}")
    if r0 < 1 or p < 1:
        raise ValueError("period indices must be positive")
    return r0, p


def _at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""
    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        return int(text)
    return integer


def _load_analysis(source: str) -> builder.QuotientAnalysis:
    """An analysis JSON path, or a known game code built on the spot."""
    if os.path.exists(source):
        with open(source, encoding="utf-8") as f:
            return builder.analysis_from_json(f.read())
    if os.sep in source or "/" in source or source.endswith(".json"):
        raise ValueError(f"no such analysis file: {source!r}")
    code = parse_game_code(source)
    if str(code) == "0.77":
        return builder.kayles_analysis()
    # The build proves its analysis to heap 12.
    qa = builder.build_quotient(code, 12)._replace(verified_to=12)
    claimed = qa.phi.claimed_period
    if claimed is not None:
        cert = verifier.certify_period(qa, *claimed)
        if cert is not None:
            return cert
    return qa


def _warn_unverified(qa: builder.QuotientAnalysis, heaps=()) -> None:
    if qa.certified_period is not None:
        return
    if qa.verified_to is None:
        print(
            "warning: analysis is unverified; outputs are predictions",
            file=sys.stderr,
        )
    elif heaps and max(heaps) > qa.verified_to:
        print(
            f"warning: heap {max(heaps)} is past the verified range "
            f"(to heap {qa.verified_to}); outputs are predictions",
            file=sys.stderr,
        )


def _write_text(path: str, text: str) -> None:
    """Write through a temporary file so a reader never sees half a file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def _print_summary(qa: builder.QuotientAnalysis) -> None:
    m = qa.monoid
    print(f"game {qa.code}, {qa.play.value} play, heaps to {qa.n}")
    print(f"quotient elements: {len(m)}")
    print(
        "pretending function:",
        " ".join(m.names[qa.phi.value(h)] for h in range(1, qa.n + 1)),
    )
    claimed = qa.phi.claimed_period
    if claimed is not None:
        print(f"claimed period: r0={claimed[0]} p={claimed[1]}")
    print("P elements:", " ".join(sorted(m.names[e] for e in qa.partition.p_set)))
    if qa.verified_to is not None:
        print(f"verified to heap {qa.verified_to}")
    if qa.certified_period is not None:
        r0, p = qa.certified_period
        print(f"certified period: r0={r0} p={p}")


# The report lists this many failures of each kind; the N-to-P scan stops
# one case past it, so that the report knows whether more were left out.
_SHOWN = 20


def _print_report(qa: builder.QuotientAnalysis, rep) -> None:
    names = qa.monoid.names
    scan = rep.stats["scan"]
    if scan == "skipped":
        stuck = "N-to-P scan skipped, since P-to-P failed"
    elif scan == "stopped":
        stuck = f"at least {len(rep.np_failures)} stuck N cases"
    else:
        stuck = f"{len(rep.np_failures)} stuck N cases"
    print(
        f"verified to heap {rep.n}: "
        f"{len(rep.pp_violations)} P-to-P violations, {stuck}"
    )
    for t in rep.pp_violations[:_SHOWN]:
        print(
            f"  P-to-P: basis {names[t.basis]} sends "
            f"({names[t.pair.lhs]}, {names[t.pair.rhs]}) to "
            f"({names[t.start]}, {names[t.end]})"
        )
    for omega, heaps, s in rep.np_failures[:_SHOWN]:
        print(
            f"  stuck N: element {names[omega]} on heaps {list(heaps)} "
            f"with multiplier {names[s]}"
        )
    if scan == "stopped":
        print("  more stuck N cases were not listed")
    cases = rep.stats["cases_by_omega"]
    if cases and scan == "complete":
        shown = " ".join(f"{names[w]}:{c}" for w, c in sorted(cases.items()))
        print(f"cases checked per element: {shown}")
    print("PASSED" if rep.passed else "FAILED")


def cmd_analyze(args) -> int:
    code = parse_game_code(args.game)
    play = NORMAL if args.normal else MISERE
    qa, rep = builder.prove_quotient(code, args.n, play, budget=args.budget)
    qa = qa._replace(verified_to=args.n)
    if args.certify is not None:
        cert = verifier.certify_period(qa, *args.certify, budget=args.budget)
        if cert is None:
            _print_summary(qa)
            print("certification of period r0={} p={} FAILED".format(*args.certify))
            return EXIT_FAILED
        qa = cert._replace(verified_to=max(args.n, cert.verified_to))
    _print_summary(qa)
    _print_report(qa, rep)
    if args.out:
        _write_text(args.out, builder.analysis_to_json(qa))
        print(f"analysis written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    qa = _load_analysis(args.analysis)
    n = args.n if args.n is not None else qa.n
    rep = verifier.verify_to_heap(qa, n, budget=args.budget, limit=_SHOWN + 1)
    _print_report(qa, rep)
    return EXIT_OK if rep.passed else EXIT_FAILED


def cmd_certify(args) -> int:
    qa = _load_analysis(args.analysis)
    period = args.certify or qa.phi.claimed_period
    if period is None:
        raise ValueError("no period given and none claimed by the analysis")
    r0, p = period
    window = period_window(qa.code, r0, p)
    print(f"certifying period r0={r0} p={p}: verifying to heap {window}")
    cert = verifier.certify_period(qa, r0, p, budget=args.budget)
    if cert is None:
        print("FAILED")
        return EXIT_FAILED
    print("certified: the analysis is correct for every heap size")
    if args.out:
        _write_text(args.out, builder.analysis_to_json(cert))
        print(f"analysis written to {args.out}")
    return EXIT_OK


def _describe_move(h: int, t: tuple[int, ...]) -> str:
    if not t:
        return f"take heap {h} entirely"
    if len(t) == 1:
        return f"take heap {h} down to {t[0]}"
    return f"split heap {h} into {t[0]}+{t[1]}"


def cmd_outcome(args) -> int:
    qa = _load_analysis(args.analysis)
    _warn_unverified(qa, args.heaps)
    if any(h < 1 for h in args.heaps):
        raise ValueError("heap sizes must be positive")
    heaps = tuple(sorted(args.heaps))
    m = qa.monoid
    el = builder.phi_of_position(qa, heaps)
    out = qa.partition.outcome_of(el)
    print(f"position: {list(heaps)}")
    print(f"element: {m.names[el]}")
    print(f"outcome: {out.value}")
    if out is Outcome.N:
        # One-ply search over the quotient: first move whose target is P.
        move = next(verifier._iter_winning_moves(qa, heaps, m.identity_index), None)
        if move is not None:
            h, t, target = move
            print(f"winning move: {_describe_move(h, t)} -> {m.names[target]} (P)")
            return EXIT_OK
        if all(next(_heap_moves(qa.code, h), None) is None for h in heaps):
            print("no moves remain; the player to move has already won")
            return EXIT_OK
        print("no winning move found")
        return EXIT_FAILED
    return EXIT_OK


def _tree_from_json(doc) -> GameTree:
    """The tree of nested JSON lists, built bottom-up without recursion so
    any depth the decoder accepts is fine."""
    built: dict[int, GameTree] = {}  # id of a list in doc -> its tree
    stack = [doc]
    while stack:
        node = stack[-1]
        if not isinstance(node, list):
            raise ValueError("a game tree is a nested list of options")
        pending = [c for c in node if id(c) not in built]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        built[id(node)] = GameTree(built[id(c)] for c in node)
    return built[id(doc)]


def cmd_genus(args) -> int:
    if args.tree is not None:
        with open(args.tree, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except RecursionError:
                raise ValueError(f"{args.tree}: nested too deeply to decode")
        tree = _tree_from_json(doc)
        print(str(genus_of_tree(tree)))
        return EXIT_OK
    if args.game is None or args.heap is None:
        raise ValueError("give a game code and heap size, or --tree FILE")
    code = parse_game_code(args.game)
    if args.heap < 0:
        raise ValueError("heap sizes are nonnegative")
    print(str(genus(code, Position.of(args.heap) if args.heap else Position.of())))
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.presentation in ("0.123", "0.77"):
        pres = builder.packaged_presentation(args.presentation)
    else:
        with open(args.presentation, encoding="utf-8") as f:
            pres = parse_presentation(f.read())
    rws = knuth_bendix(pres)
    w = parse_word(args.word, pres.generators)
    rng = random.Random(args.seed) if args.seed is not None else None
    gens = pres.generators
    print(format_word(w, gens))
    for step, (lhs, rhs) in reduction_trace(rws, w, rng):
        print(
            f"  -> {format_word(step, gens)}"
            f"   [{format_word(lhs, gens)} -> {format_word(rhs, gens)}]"
        )
        w = step
    print(f"normal form: {format_word(w, gens)}")
    return EXIT_OK


def cmd_structure(args) -> int:
    qa = _load_analysis(args.analysis)
    _warn_unverified(qa)
    m = qa.monoid
    names = m.names
    idems = structure.idempotents(m)
    series = structure.principal_series(m)
    report = {
        "game": str(qa.code),
        "play": qa.play.value,
        "elements": list(names),
        "verified": qa.verified_to is not None or qa.certified_period is not None,
        "idempotents": [names[f] for f in idems],
        "order": [
            [names[a], names[b]] for a, b in structure.idempotent_order(m, idems)
        ],
        "hasse": [[names[a], names[b]] for a, b in structure.hasse_edges(m, idems)],
        "kernel": [names[u] for u in structure.kernel_ideal(m)],
        "classes": [
            [names[u] for u in c] for c in structure.mutual_divisibility_classes(m)
        ],
        "series": {
            "chain": [[names[u] for u in s] for s in series.chain],
            "factors": [
                {
                    "label": f.label,
                    "names": list(f.names),
                    "table": [list(row) for row in f.table],
                }
                for f in series.factors
            ],
        },
        "islands": [
            {
                "idempotent": names[isl.idempotent],
                "members": [names[u] for u in isl.members],
                "nim": {names[u]: isl.nim_reading[u] for u in isl.members},
                "genus": {
                    names[u]: str(isl.genus_reading[u]) for u in isl.members
                },
            }
            for isl in structure.tame_islands(qa)
        ],
    }
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(f"structure report written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="misereq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build and verify a quotient")
    p.add_argument("game")
    p.add_argument("-n", type=_at_least(1), default=12, help="heap bound")
    p.add_argument("--normal", action="store_true", help="normal play")
    p.add_argument("--certify", type=_parse_period, metavar="R0,P")
    p.add_argument("--budget", type=_at_least(0))
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="re-verify an analysis to a heap bound")
    p.add_argument("analysis", help="analysis JSON path or game code")
    p.add_argument("-n", type=_at_least(1))
    p.add_argument("--budget", type=_at_least(0))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="certify a period, settling all heaps")
    p.add_argument("analysis")
    p.add_argument("--certify", type=_parse_period, metavar="R0,P")
    p.add_argument("--budget", type=_at_least(0))
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("outcome", help="who wins a position, and how")
    p.add_argument("analysis")
    p.add_argument("heaps", nargs="*", type=int)
    p.set_defaults(func=cmd_outcome)

    p = sub.add_parser("genus", help="genus symbol of a heap or tree")
    p.add_argument("game", nargs="?", help="game code; not needed with --tree")
    p.add_argument("heap", nargs="?", type=int)
    p.add_argument("--tree", help="JSON file: nested lists of options")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("reduce", help="trace a word to its normal form")
    p.add_argument("presentation", help="presentation path, or 0.123 / 0.77")
    p.add_argument("word")
    p.add_argument("--seed", type=int, help="randomize rule choice")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("structure", help="monoid anatomy as JSON")
    p.add_argument("analysis")
    p.add_argument("--out")
    p.set_defaults(func=cmd_structure)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GenusTailError as exc:
        print(f"genus tail not settled: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RuntimeError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
