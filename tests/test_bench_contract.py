"""What the benchmark harness in perfbench/ reads from the package.

The harness patches timing wrappers over the functions its tracer lists and
reads the oracle's memo tables and the move cache's statistics directly, so
renaming or reshaping any of them would break every benchmark run without
failing a package test.  perfbench/ is only read here, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from misere_quotients import octal, oracle
from misere_quotients.builder import analysis_to_json, build_quotient
from misere_quotients.octal import Position, parse_game_code
from misere_quotients.verifier import verify_to_heap

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_traced_target_resolves(tracer):
    for mod_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_move_cache_statistics():
    info = octal.moves_from_heap.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_memo_tables_are_dicts_of_dicts(tracer):
    code = parse_game_code("0.123")
    oracle.outcome(code, Position.of(3, 5), oracle.MISERE)
    oracle.genus(code, Position.of(4))
    for caches in (oracle._outcome_caches, oracle._gminus_ext_caches):
        assert isinstance(caches, dict) and caches
        assert all(isinstance(memo, dict) for memo in caches.values())
    sizes = tracer.memo_sizes()
    assert sizes["oracle.outcome.memo_entries"] > 0
    assert sizes["oracle.genus.memo_entries"] > 0


def test_memo_sizes_read_the_game_objects(tracer, monkeypatch):
    # The memos the tracer reads by their old names are views of _games.
    monkeypatch.setattr(oracle, "_games", {})
    code = parse_game_code("0.123")
    oracle.outcome(code, Position.of(3, 5), oracle.MISERE)
    oracle.genus(code, Position.of(4))
    games = oracle._games.values()
    sizes = {
        "oracle.outcome.memo_entries": sum(
            len(memo) for g in games for memo in g.outcomes.values()
        ),
        "oracle.genus.memo_entries": sum(len(g.gminus) for g in games),
    }
    assert tracer.memo_sizes() == sizes
    assert min(sizes.values()) > 0
    oracle._games.pop(code)
    assert tracer.memo_sizes() == dict.fromkeys(sizes, 0)


def test_rebuild_after_freeing_the_game(tracer, monkeypatch):
    monkeypatch.setattr(oracle, "_games", {})
    first = analysis_to_json(build_quotient("0.123", 11))
    sizes = tracer.memo_sizes()
    assert sizes["oracle.outcome.memo_entries"] == 14443
    oracle._games.pop(parse_game_code("0.123"))
    assert analysis_to_json(build_quotient("0.123", 11)) == first
    assert tracer.memo_sizes() == sizes


def test_verify_report_counters(tracer, qa123_12):
    report = verify_to_heap(qa123_12, 12)
    counts = {}
    tracer._RESULT_COUNTS["verifier.verify_to_heap"](counts, report)
    assert counts["verifier.move_pairs.count"] == 15
    assert counts["verifier.scan.nodes"] > 0
