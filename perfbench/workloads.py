"""The four workloads: their commands, seeded query stream and checks.

Each workload drives the ``misereq`` command line through ``cli.main`` and
loads one layer of the package heavily:

  analyze-0.123   oracle search and the builder's signature rounds
  certify-kayles  the verifier's N-to-P subset scan
  query-mix       loading analyses and answering positions (the read side)
  genus-kayles    the genus search and its memo

The checks here do not reuse the code path they check: verdicts come from
stored reference values, the exhaustive oracle or the closed-form Kayles rule,
and move legality is decided from the octal digits written out below.
"""

from __future__ import annotations

import itertools
import json
import random

NAMES = ("analyze-0.123", "certify-kayles", "query-mix", "genus-kayles")

# Sizes per workload.  A full-size command takes 2-5 s on a 2-core machine
# so that a run holds five to ten repetitions: timings on a shared machine
# swing by half from one repetition to the next, and only a median of several
# is steady.  The full Kayles certificate (window 159) and genus of heap 26
# take 35-58 s and 9 s, too long for that.  Kayles window 25 is the smallest
# at which the subset scan outweighs loading the packaged analysis nine to
# one.  "smoke" sizes take under a second.
SIZES = {
    "analyze-0.123": {"full": {"n": 11, "certify": "6,5"}, "smoke": {"n": 6, "certify": None}},
    "certify-kayles": {"full": {"window": 25}, "smoke": {"window": 14}},
    "query-mix": {"full": {"n": 10}, "smoke": {"n": 10}},
    "genus-kayles": {"full": {"heap": 20}, "smoke": {"heap": 12}},
}

# Verdicts of the analyses, by heap bound: element count, the pretending
# function as element names, the P elements, and the certified period.
ANALYZE_REFERENCE = {
    11: (20, "x e z z x b2 e a b x b2", {"b2", "x", "xa", "z2", "zb"}, [6, 5]),
    6: (6, "x e z z x z2", {"x", "z2"}, None),
}
GENUS_REFERENCE = {20: "1^{031}", 12: "4^{046}"}

# Post-point octal digits of the two games: digit k governs removing k tokens
# (bit 1: take a whole heap, bit 2: leave one heap, bit 4: leave two heaps).
DIGITS = {"0.123": (1, 2, 3), "0.77": (7, 7)}

KAYLES_GENERATORS = ("x", "z", "w", "v", "t", "f", "g")
KAYLES_MAX_HEAP = 96   # the packaged Kayles table is stored to heap 96
LARGE_HEAP = 1000      # 0.123 heaps past the stored range use the certificate
SMALL_HEAP = 16        # 0.123 positions this small are checked exhaustively
SMALL_HEAPS = 5


def command(workload: str, size: dict, workdir: str) -> list[str]:
    """argv of the single timed command of a one-command workload."""
    if workload == "analyze-0.123":
        argv = ["analyze", "0.123", "-n", str(size["n"]), "--out", f"{workdir}/analysis.json"]
        if size["certify"]:
            argv += ["--certify", size["certify"]]
        return argv
    if workload == "certify-kayles":
        return ["verify", "0.77", "-n", str(size["window"])]
    if workload == "genus-kayles":
        return ["genus", "0.77", str(size["heap"])]
    raise ValueError(f"{workload} is not a one-command workload")


def check_command(workload: str, size: dict, workdir: str, rc: int, out: str) -> list[str]:
    """Failures of one run of a one-command workload (empty when correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    if workload == "analyze-0.123":
        with open(f"{workdir}/analysis.json", encoding="utf-8") as f:
            doc = json.load(f)
        count, phi, p_names, period = ANALYZE_REFERENCE[size["n"]]
        names = doc["names"]
        got = (
            len(names),
            " ".join(names[i] for i in doc["phi"]),
            {names[i] for i in doc["p_set"]},
            doc["certified_period"],
        )
        return [] if got == (count, phi, p_names, period) else [f"analysis differs: {got}"]
    if workload == "certify-kayles":
        window = size["window"]
        expect = f"verified to heap {window}: 0 P-to-P violations, 0 stuck N cases"
        lines = out.splitlines()
        if expect not in lines or lines[-1:] != ["PASSED"]:
            return [f"verification verdict differs: {lines[:1]} {lines[-1:]}"]
        return []
    if workload == "genus-kayles":
        want = GENUS_REFERENCE[size["heap"]]
        got = out.strip()
        return [] if got == want else [f"genus {got} != {want}"]
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# query-mix: a closed loop, one client, seeded commands


QUERY_BLOCK = 100  # commands per block of the query-mix stream


def query_stream(rng: random.Random, files: dict[str, str]):
    """Endless (kind, game, argv) triples in blocks of 100 commands: 96 (96 %)
    outcome queries, alternating between the certified 0.123 analysis (heaps
    1..1000, half of them drawn from 1..16 so that many positions are small
    enough for the exhaustive check) and the packaged Kayles analysis (heaps
    1..96); one structure report on each analysis; and two word reductions
    in the Kayles presentation.  Every block has the same mix, so the time of
    a block does not depend on the seed's choice of command kinds."""
    queries = 0
    for i in itertools.count():
        slot = i % QUERY_BLOCK
        if slot in (24, 74):
            game = "0.123" if slot == 24 else "0.77"
            yield "structure", game, ["structure", files[game]]
        elif slot in (49, 99):
            factors = rng.randint(1, 4)
            word = " ".join(
                f"{rng.choice(KAYLES_GENERATORS)}^{rng.randint(1, 6)}" for _ in range(factors)
            )
            yield "reduce", "0.77", ["reduce", "0.77", word]
        else:
            k = rng.randint(1, 8)
            if queries % 2 == 0:
                game = "0.123"
                heaps = [
                    rng.randint(1, SMALL_HEAP) if rng.random() < 0.5 else rng.randint(1, LARGE_HEAP)
                    for _ in range(k)
                ]
            else:
                game = "0.77"
                heaps = [rng.randint(1, KAYLES_MAX_HEAP) for _ in range(k)]
            queries += 1
            yield "outcome", game, ["outcome", files[game], *map(str, heaps)]


def legal_move(game: str, heap: int, parts: tuple[int, ...]) -> bool:
    """Whether one heap of size ``heap`` may be replaced by ``parts``."""
    digits = DIGITS[game]
    k = heap - sum(parts)
    if k < 1 or k > len(digits) or any(p < 1 for p in parts) or len(parts) > 2:
        return False
    return bool(digits[k - 1] & (1, 2, 4)[len(parts)])


def has_move(game: str, heap: int) -> bool:
    """Whether a heap of this size has any legal move."""
    for k, d in enumerate(DIGITS[game], start=1):
        if (d & 1 and k == heap) or (d & 2 and k < heap) or (d & 4 and k <= heap - 2):
            return True
    return False


def _parse_move(text: str) -> tuple[int, tuple[int, ...]]:
    # "take heap 3 entirely", "take heap 7 down to 5", "split heap 9 into 2+5"
    words = text.split()
    heap = int(words[2])
    if words[3] == "entirely":
        return heap, ()
    if words[3] == "down":
        return heap, (int(words[5]),)
    return heap, tuple(int(p) for p in words[4].split("+"))


class QueryChecker:
    """Judges recorded query-mix answers after the timed phase."""

    def __init__(self, kayles_names: set[str]):
        from misere_quotients import MISERE, Position, outcome, parse_game_code, sibert_conway_outcome

        code = parse_game_code("0.123")
        self._oracle = lambda heaps: outcome(code, Position.from_heaps(heaps), MISERE).value
        self._kayles = lambda heaps: sibert_conway_outcome(Position.from_heaps(heaps))[1].value
        self.kayles_names = kayles_names
        self.expected_elements = {"0.123": 20, "0.77": len(kayles_names)}

    def truth(self, game: str, heaps: list[int]) -> str | None:
        """The true misere outcome, or None where no independent check runs."""
        if game == "0.77":
            return self._kayles(heaps)
        if len(heaps) <= SMALL_HEAPS and max(heaps, default=0) <= SMALL_HEAP:
            return self._oracle(heaps)
        return None

    def check(self, kind: str, game: str, argv: list[str], rc: int, out: str) -> str | None:
        """A failure message, or None when the answer is right."""
        if rc != 0:
            return f"{argv}: exit code {rc}"
        lines = out.splitlines()
        if kind == "structure":
            report = json.loads(out)
            if len(report["elements"]) != self.expected_elements[game]:
                return f"{argv}: {len(report['elements'])} elements"
            if report["verified"] != (game == "0.123"):
                return f"{argv}: verified flag {report['verified']}"
            return None
        if kind == "reduce":
            last = lines[-1] if lines else ""
            if not last.startswith("normal form: ") or last[13:] not in self.kayles_names:
                return f"{argv}: {last!r} is not a Kayles element"
            return None
        heaps = sorted(int(h) for h in argv[2:])
        answer = next((ln[9:] for ln in lines if ln.startswith("outcome: ")), None)
        if answer not in ("P", "N"):
            return f"{argv}: no outcome in {lines[:3]}"
        want = self.truth(game, heaps)
        if want is not None and answer != want:
            return f"{argv}: outcome {answer}, true outcome {want}"
        if answer == "N":
            move = next((ln[14:] for ln in lines if ln.startswith("winning move: ")), None)
            if move is None:
                if any(has_move(game, h) for h in heaps):
                    return f"{argv}: N without a winning move"
                return None
            heap, parts = _parse_move(move.split(" -> ")[0])
            if heap not in heaps or not legal_move(game, heap, parts):
                return f"{argv}: illegal move {move!r}"
            rest = list(heaps)
            rest.remove(heap)
            target = sorted(rest + list(parts))
            if want is not None and self.truth(game, target) != "P":
                return f"{argv}: move {move!r} leads to an N position"
        return None
