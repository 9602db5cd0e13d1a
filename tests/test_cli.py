"""End-to-end command line checks, driving main() in process."""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misere_quotients import cli, oracle
from misere_quotients.builder import (
    analysis_from_json,
    analysis_to_json,
    kayles_analysis,
)
from misere_quotients.cli import _tree_from_json, main
from misere_quotients.octal import Position, parse_game_code
from misere_quotients.oracle import nim_heap_tree
from misere_quotients.semigroup import knuth_bendix
from misere_quotients.verifier import certify_period, verify_to_heap

G123 = parse_game_code("0.123")


@pytest.fixture(scope="module")
def kayles_file(tmp_path_factory):
    """The packaged Kayles analysis, certified for every heap size."""
    cert = certify_period(kayles_analysis(), 73, 12)
    assert cert is not None
    path = tmp_path_factory.mktemp("cli") / "kayles.json"
    path.write_text(analysis_to_json(cert))
    return str(path)


@pytest.fixture(scope="module")
def analysis_file(tmp_path_factory):
    """A verified, certified 0.123 analysis written by the CLI itself."""
    path = str(tmp_path_factory.mktemp("cli") / "q0123.json")
    rc = main(["analyze", "0.123", "--certify", "6,5", "--out", path])
    assert rc == 0
    return path


class TestAnalyze:
    def test_summary_lines(self, capsys, tmp_path):
        path = str(tmp_path / "out.json")
        rc = main(["analyze", "0.123", "--certify", "6,5", "--out", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "game 0.123, misere play, heaps to 12" in out
        assert "quotient elements: 20" in out
        assert "pretending function: x e z z x b2 e a b x b2 e" in out
        assert "P elements: b2 x xa z2 zb" in out
        assert "0 P-to-P violations, 0 stuck N cases" in out
        assert f"analysis written to {path}" in out

    def test_normal_play(self, capsys):
        rc = main(["analyze", "0.123", "--normal"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "normal play" in out
        assert "quotient elements: 4" in out
        assert "P elements: e" in out

    def test_normal_kayles_certificate(self, capsys):
        # Built from the nim values, so heap 96 needs no outcome search.
        start = time.perf_counter()
        rc = main(["analyze", "0.77", "--normal", "-n", "96", "--certify", "71,12"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert rc == 0
        assert "quotient elements: 16" in out
        assert "certified period: r0=71 p=12" in out
        assert elapsed < 2

    def test_widens_past_a_round_that_is_no_monoid(self, capsys):
        # The first round of 0.71 at n = 8 gives a class table that is no
        # monoid; the builder widens its contexts instead of failing.
        rc = main(["analyze", "0.71", "-n", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "quotient elements: 36" in out
        assert "PASSED" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["0.123", "-n", "11"],
            ["0.07", "-n", "8"],
            ["0.77", "--normal", "-n", "20"],
        ],
    )
    def test_report_is_what_verify_prints(self, capsys, tmp_path, argv):
        # analyze prints the report of the proof that stopped its build.
        path = str(tmp_path / "out.json")

        def report(out):
            lines = out.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if "P-to-P violations" in line)
            return lines[start : lines.index("PASSED") + 1]

        assert main(["analyze", *argv, "--out", path]) == 0
        built = report(capsys.readouterr().out)
        assert main(["verify", path]) == 0
        assert report(capsys.readouterr().out) == built
        assert len(built) == 3

    def test_budget_boundary(self, capsys):
        # The build's proving scan of 0.123 at n = 11 makes 474
        # evaluations: one fewer is over budget.
        assert main(["analyze", "0.123", "-n", "11", "--budget", "474"]) == 0
        capsys.readouterr()
        assert main(["analyze", "0.123", "-n", "11", "--budget", "473"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_failed_certification_exits_2(self, capsys, tmp_path):
        # Kayles to heap 10 claims (7, 3), which heap 18 refutes; nothing
        # is written.
        path = tmp_path / "out.json"
        rc = main(["analyze", "0.77", "-n", "10", "--certify", "7,3", "--out", str(path)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "claimed period: r0=7 p=3" in out
        assert out.endswith("certification of period r0=7 p=3 FAILED\n")
        assert not path.exists()


class TestOutcome:
    def test_worked_example(self, capsys, analysis_file):
        rc = main(["outcome", analysis_file, "21", "1", "9", "3", "8", "4"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out == [
            "position: [1, 3, 4, 8, 9, 21]",
            "element: zb2",
            "outcome: N",
            "winning move: take heap 3 entirely -> b2 (P)",
        ]

    def test_p_position(self, capsys, analysis_file):
        rc = main(["outcome", analysis_file, "3", "3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out == ["position: [3, 3]", "element: z2", "outcome: P"]

    def test_empty_position(self, capsys, analysis_file):
        rc = main(["outcome", analysis_file])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out == [
            "position: []",
            "element: e",
            "outcome: N",
            "no moves remain; the player to move has already won",
        ]

    def test_dead_heap(self, capsys, analysis_file):
        rc = main(["outcome", analysis_file, "2"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[-1] == "no moves remain; the player to move has already won"

    def test_large_heap_via_certificate(self, capsys, analysis_file):
        rc = main(["outcome", analysis_file, "1006"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "element: b2" in out  # 1006 = 6 + 200 * 5
        assert "outcome: P" in out

    def test_huge_heaps_via_certificate(self, capsys, analysis_file):
        # A heap's moves reach only the code's places, so the move search
        # does not grow with the heap.
        start = time.perf_counter()
        rc = main(["outcome", analysis_file, str(10**12), str(10**12 + 1)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert rc == 0
        assert "outcome: N" in out
        assert f"winning move: take heap {10**12} down to {10**12 - 3} -> b2 (P)" in out
        assert elapsed < 1

    @pytest.mark.parametrize("heaps, move", [
        ((10**6,), "split heap 1000000 into 1+999997"),
        ((10**12, 10**12 + 1), "split heap 1000000000000 into 3+999999999995"),
    ])
    def test_huge_kayles_heaps_via_certificate(self, capsys, kayles_file, heaps, move):
        # The move search stops at the first winning move, so a heap whose
        # winning move comes early costs neither time nor memory in its size.
        start = time.perf_counter()
        rc = main(["outcome", kayles_file, *map(str, heaps)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1] == f"winning move: {move} -> z2 (P)"
        assert elapsed < 1

    def test_kayles_is_unverified(self, capsys):
        rc = main(["outcome", "0.77", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "outcome: P" in captured.out
        assert "unverified" in captured.err

    def test_heap_past_verified_range_warns(self, capsys, tmp_path):
        # A file verified to heap 25 with no certified period still answers
        # for heap 50 from its stored phi, but says that it is a prediction.
        doc = json.loads(analysis_to_json(kayles_analysis()))
        doc["verified_to"] = 25
        path = tmp_path / "k25.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["outcome", str(path), "50", "3"]) == 0
        captured = capsys.readouterr()
        assert "outcome: N" in captured.out and "winning move:" in captured.out
        assert captured.err == (
            "warning: heap 50 is past the verified range (to heap 25); "
            "outputs are predictions\n"
        )
        assert main(["outcome", str(path), "25", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_built_analysis_is_verified(self, capsys):
        # A code other than Kayles is built at n = 12, which proves it:
        # 0.07 claims no period there, and 0.15 claims (11, 1), which does
        # not certify.
        assert main(["outcome", "0.07", "3", "4"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["structure", "0.15"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["verified"] is True

    def test_rejects_nonpositive_heap(self, capsys, analysis_file):
        assert main(["outcome", analysis_file, "0"]) == 4

    def test_no_winning_move_exits_2(self, capsys, broken_kayles):
        # With z2 sent to N, the P position 3 + 3 reads as N, and none of
        # its moves reaches a P element.
        assert main(["outcome", broken_kayles["z2"], "3", "3"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "position: [3, 3]", "element: z2", "outcome: N", "no winning move found",
        ]


class TestGenus:
    def test_single_heaps(self, capsys):
        assert main(["genus", "0.77", "11"]) == 0
        assert capsys.readouterr().out.strip() == "6^{46}"
        assert main(["genus", "0.123", "8"]) == 0
        assert capsys.readouterr().out.strip() == "2^{1420}"

    def test_moveless_positions(self, capsys):
        assert main(["genus", "0.123", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0^{120}"
        assert main(["genus", "0.123", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0^{120}"

    def test_tree_file(self, capsys, tmp_path):
        path = tmp_path / "star2.json"
        path.write_text("[[], [[]]]")  # *2 = {0, *1}
        assert main(["genus", "0.123", "--tree", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "2^{20}"

    def test_tree_from_json_builds_the_tree(self):
        assert _tree_from_json([[], [[]]]) is nim_heap_tree(2)

    def test_deep_tree_file(self, capsys, tmp_path):
        # 600 single-option trees above the endgame.
        path = tmp_path / "chain.json"
        path.write_text("[" * 601 + "]" * 601)
        assert main(["genus", "0.123", "--tree", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0^{120}"

    def test_tree_file_too_deep_to_decode(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        assert main(["genus", "0.123", "--tree", str(path)]) == 4
        assert "nested too deeply" in capsys.readouterr().err

    def test_bad_tree_payload(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a tree"}')
        assert main(["genus", "0.123", "--tree", str(path)]) == 4

    def test_heap_too_large_to_pack(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_games", {})
        start = time.perf_counter()
        assert main(["genus", "0.77", "40000"]) == 4
        assert time.perf_counter() - start < 1
        assert "too large to pack" in capsys.readouterr().err

    def test_heap_required(self, capsys):
        assert main(["genus", "0.123"]) == 4

    def test_negative_heap(self, capsys):
        assert main(["genus", "0.123", "-1"]) == 4
        assert "heap sizes are nonnegative" in capsys.readouterr().err

    def test_tree_file_needs_no_game(self, capsys, tmp_path):
        path = tmp_path / "star2.json"
        path.write_text("[[], [[]]]")
        assert main(["genus", "--tree", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "2^{20}"
        # A game code given alongside a tree is ignored, not parsed.
        assert main(["genus", "0.918", "--tree", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "2^{20}"

    def test_unsettled_tree_genus_exits_3(self, capsys, tmp_path, monkeypatch):
        # At cap 2 the endgame's exponents do not settle within the prefix.
        monkeypatch.setattr(
            cli, "genus_of_tree", lambda tree: oracle.genus_of_tree(tree, cap=2)
        )
        path = tmp_path / "endgame.json"
        path.write_text("[]")
        assert main(["genus", "--tree", str(path)]) == 3
        err = capsys.readouterr().err
        assert "genus tail not settled" in err and "no settled tail" in err
        assert "budget exceeded" not in err

    def test_heap_without_game(self, capsys):
        assert main(["genus"]) == 4
        assert main(["genus", "20"]) == 4
        assert "give a game code and heap size" in capsys.readouterr().err


class TestReduce:
    def test_trace_0123(self, capsys):
        rc = main(["reduce", "0.123", "x z^2 a b^3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out == [
            "xz2ab3",
            "  -> xz3b3   [ab -> zb]",
            "  -> xzb3   [z2b -> b]",
            "  -> x2zb2   [b3 -> xb2]",
            "  -> zb2   [x2 -> e]",
            "normal form: zb2",
        ]

    def test_trace_kayles(self, capsys):
        rc = main(["reduce", "0.77", "z*v"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "zv"
        assert out[-1] == "normal form: zw"

    def test_seeded_reduction_reaches_same_form(self, capsys):
        rc = main(["reduce", "0.123", "x z^2 a b^3", "--seed", "7"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        # Every line, so the rule rng.choice picks at each step stays fixed.
        assert out == [
            "xz2ab3",
            "  -> xab3   [z2b -> b]",
            "  -> xzb3   [ab -> zb]",
            "  -> x2zb2   [b3 -> xb2]",
            "  -> zb2   [x2 -> e]",
            "normal form: zb2",
        ]

    def test_already_normal(self, capsys):
        rc = main(["reduce", "0.123", "z b^2"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out == ["zb2", "normal form: zb2"]

    def test_unknown_generator(self, capsys):
        assert main(["reduce", "0.123", "q^2"]) == 4

    def test_missing_presentation_file(self, capsys):
        assert main(["reduce", "nope.txt", "x"]) == 4

    def test_presentation_file(self, capsys, tmp_path):
        path = tmp_path / "z2.txt"
        path.write_text("gens: x\nx^2 = 1\n", encoding="utf-8")
        assert main(["reduce", str(path), "x^3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "normal form: x"

    def test_internal_fault_exits_5(self, capsys, monkeypatch):
        # Completion capped at zero rules trips a check only a bug can trip.
        monkeypatch.setattr(knuth_bendix, "__defaults__", (0,))
        assert main(["reduce", "0.123", "x"]) == 5
        assert "internal error: completion exceeded max_rules" in (
            capsys.readouterr().err
        )


class TestVerifyAndCertify:
    def test_verify_from_file(self, capsys, analysis_file):
        rc = main(["verify", analysis_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified to heap 12: 0 P-to-P violations, 0 stuck N cases" in out

    def test_verify_deeper(self, capsys, analysis_file):
        rc = main(["verify", analysis_file, "-n", "19"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified to heap 19" in out

    def test_certify_from_file(self, capsys, analysis_file):
        rc = main(["certify", analysis_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certifying period r0=6 p=5: verifying to heap 19" in out
        assert "certified: the analysis is correct for every heap size" in out

    @pytest.fixture(scope="class")
    def kayles10(self, tmp_path_factory):
        """Kayles to heap 10, whose claimed period (7, 3) is wrong."""
        path = str(tmp_path_factory.mktemp("kayles") / "k10.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", "0.77", "-n", "10", "--out", path]) == 0
        return path

    def test_certify_refutes_claimed_period(self, capsys, kayles10):
        assert main(["certify", kayles10]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == ["certifying period r0=7 p=3: verifying to heap 18", "FAILED"]

    def test_certify_period_failing_at_once(self, capsys, kayles10):
        assert main(["certify", kayles10, "--certify", "1,1"]) == 4
        assert "period fails at heap 1" in capsys.readouterr().err

    def test_certify_needs_a_period(self, capsys, tmp_path):
        path = str(tmp_path / "q8.json")
        assert main(["analyze", "0.123", "-n", "8", "--out", path]) == 0
        capsys.readouterr()
        assert main(["certify", path]) == 4
        assert "no period given and none claimed by the analysis" in (
            capsys.readouterr().err
        )

    def test_certify_writes_the_certificate(self, capsys, tmp_path):
        built, certified = str(tmp_path / "q12.json"), tmp_path / "c12.json"
        assert main(["analyze", "0.123", "-n", "12", "--out", built]) == 0
        assert main(["certify", built, "--out", str(certified)]) == 0
        assert f"analysis written to {certified}" in capsys.readouterr().out
        with open(built, encoding="utf-8") as f:
            assert json.load(f)["certified_period"] is None
        assert json.loads(certified.read_text(encoding="utf-8"))["certified_period"] == [6, 5]

    def test_budget_exit_code(self, capsys):
        assert main(["analyze", "0.123", "--budget", "5"]) == 3

    def test_verify_kayles_cases(self, capsys):
        assert main(["verify", "0.77", "-n", "25"]) == 0
        out = capsys.readouterr().out
        assert (
            "cases checked per element: e:2 z:513 w:6 f:6 xz:478 xv:4 "
            "xt:2 xf:4 zw:372 w2:3 wf:480 v2:3 vt:70 vf:6 tf:25 "
            "xz2:664 xzw:335 xwf:537 xtf:22 v2t:66 vtf:27 xv2t:63 "
            "xvtf:25\n"
        ) in out
        assert out.endswith("PASSED\n")

    def test_kayles_budget_boundary(self, capsys):
        # 3 713 evaluations in all: one fewer is over budget.
        assert main(["verify", "0.77", "-n", "25", "--budget", "3713"]) == 0
        capsys.readouterr()
        assert main(["verify", "0.77", "-n", "25", "--budget", "3712"]) == 3
        assert "budget exceeded" in capsys.readouterr().err


@pytest.fixture(scope="module")
def broken_kayles(tmp_path_factory):
    """Packaged Kayles analyses broken three ways, as files: z2 moved from P
    to N; cut at heap 30 with heap 30 sent to g; cut at heap 30 with heap 30
    sent to vf, which P-to-P already refutes."""
    doc = json.loads(analysis_to_json(kayles_analysis()))
    names = doc["names"]
    z2 = dict(doc, p_set=[e for e in doc["p_set"] if e != names.index("z2")])
    files = {"z2": z2}
    for name in ("g", "vf"):
        files[name] = dict(doc, n=30, claimed_period=None,
                           phi=doc["phi"][:29] + [names.index(name)])
    folder = tmp_path_factory.mktemp("broken")
    paths = {}
    for name, broken in files.items():
        paths[name] = str(folder / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as f:
            json.dump(broken, f)
    return paths


class TestStuckListing:
    """verify lists at most 20 stuck N cases.  Its scan stops at the 21st,
    so that the report can say more were left out; a full listing of the
    first two files runs for half a minute or more and holds hundreds of
    thousands of cases or millions."""

    @pytest.mark.parametrize("which,n", [("z2", 25), ("g", 30)])
    def test_listing_stops_after_twenty(self, capsys, broken_kayles, which, n):
        assert main(["verify", broken_kayles[which], "-n", str(n)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"verified to heap {n}: 0 P-to-P violations, at least 21 stuck N cases"
        )
        assert sum(line.startswith("  stuck N: ") for line in lines) == 20
        assert lines[-2:] == ["  more stuck N cases were not listed", "FAILED"]
        # The walk stopped early, so its counts are no full tally.
        assert not any(line.startswith("cases checked") for line in lines)

    def test_scan_skipped_after_a_PP_failure(self, capsys, broken_kayles):
        assert main(["verify", broken_kayles["vf"], "-n", "30"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "verified to heap 30: 10 P-to-P violations, "
            "N-to-P scan skipped, since P-to-P failed"
        )
        assert sum(line.startswith("  P-to-P: ") for line in lines) == 10
        assert not any("stuck N" in line or "cases checked" in line for line in lines[1:])
        assert lines[-1] == "FAILED"

    def test_short_listing_is_complete(self, capsys, analysis_file, tmp_path):
        # 0.123 with heap 12 sent to xb: four stuck cases, every one
        # listed, and the full counts printed.
        with open(analysis_file, encoding="utf-8") as f:
            doc = json.load(f)
        doc.update(claimed_period=None, certified_period=None, verified_to=None)
        doc["phi"][11] = doc["names"].index("xb")
        path = tmp_path / "heap12.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verified to heap 12: 0 P-to-P violations, 4 stuck N cases"
        assert sum(line.startswith("  stuck N: ") for line in lines) == 4
        assert lines[-2].startswith("cases checked per element: ")
        assert lines[-1] == "FAILED"


class TestRawMoves:
    """The paths that need raw moves read them from the rules and leave
    the oracle's canonical game objects alone."""

    @pytest.fixture(autouse=True)
    def no_games(self, monkeypatch):
        monkeypatch.setattr(oracle, "_games", {})

    def test_verify_makes_no_game(self):
        assert verify_to_heap(kayles_analysis(), 25).passed
        assert oracle._games == {}

    # [1, 1, 4, 5] is a P position; [1, 4, 5] is N, so the command searches
    # its moves for a winning one.
    @pytest.mark.parametrize("heaps,out", [("5 4 1 1", "P"), ("5 4 1", "N")])
    def test_outcome_command_makes_no_game(self, capsys, heaps, out):
        assert main(["outcome", "0.77", *heaps.split()]) == 0
        assert f"outcome: {out}" in capsys.readouterr().out
        assert oracle._games == {}

    def test_position_options_make_no_game(self):
        options = oracle.position_options(G123, Position.of(3, 1000))
        assert Position.of(1, 1000) in options and Position.of(3, 997) in options
        assert oracle._games == {}


class TestStructure:
    def test_report_content(self, capsys, analysis_file):
        rc = main(["structure", analysis_file])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["game"] == "0.123"
        assert doc["play"] == "misere"
        assert doc["verified"] is True
        assert len(doc["elements"]) == 20
        assert doc["idempotents"] == ["e", "z2", "b2"]
        assert doc["kernel"] == ["b2", "xb2", "zb2", "xzb2"]
        assert [f["label"] for f in doc["series"]["factors"]] == [
            "K4+0", "null(4)", "K4+0", "null(4)", "K4+0",
        ]
        assert [i["idempotent"] for i in doc["islands"]] == ["e", "z2", "b2"]
        island_z2 = doc["islands"][1]
        assert island_z2["genus"]["z3"] == "2^{20}"
        assert island_z2["nim"]["z2"] == 0

    def test_out_file_matches_stdout(self, capsys, analysis_file, tmp_path):
        path = str(tmp_path / "structure.json")
        rc = main(["structure", analysis_file, "--out", path])
        assert rc == 0
        assert "written to" in capsys.readouterr().out
        rc = main(["structure", analysis_file])
        stdout_doc = capsys.readouterr().out
        with open(path, encoding="utf-8") as f:
            assert f.read() == stdout_doc


class TestSerializedAnalysis:
    def test_file_round_trips_byte_identical(self, analysis_file):
        with open(analysis_file, encoding="utf-8") as f:
            text = f.read()
        assert analysis_to_json(analysis_from_json(text)) == text

    def test_certified_metadata_preserved(self, analysis_file):
        with open(analysis_file, encoding="utf-8") as f:
            qa = analysis_from_json(f.read())
        assert qa.certified_period == (6, 5)
        assert qa.verified_to == 19


class TestBadInput:
    def test_malformed_game_code(self, capsys):
        assert main(["analyze", "0.abc"]) == 4
        assert main(["genus", "0.918", "3"]) == 4

    def test_malformed_period(self, capsys):
        # argparse applies the period converter, so this dies at usage time.
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "0.123", "--certify", "6:5"])
        assert excinfo.value.code == 4

    def test_unknown_subcommand_exits_4(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 4

    def test_missing_analysis_file(self, capsys):
        assert main(["outcome", "0.999", "3"]) == 4

    @pytest.mark.parametrize("source", ["k.json", "out/k", "./0.77"])
    def test_missing_path_is_no_game_code(self, capsys, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        assert main(["certify", source]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no such analysis file: {source!r}\n"

    def test_removed_analyze_flags(self):
        for flag in (["--misere"], ["--seed", "3"], ["--naive"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", "0.123", *flag])
            assert excinfo.value.code == 4

    @pytest.mark.parametrize("argv", [
        ["verify", "0.123", "-n", "-3"],
        ["verify", "0.123", "-n", "0"],
        ["analyze", "0.123", "-n", "0"],
        ["analyze", "0.123", "--budget", "-1"],
        ["verify", "0.123", "--budget", "-1"],
        ["certify", "0.123", "--budget", "-1"],
    ])
    def test_bound_and_budget_out_of_range(self, capsys, argv):
        # Rejected at parse time: no report, and no "budget exceeded".
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least" in captured.err

    def test_zero_budget_is_a_budget(self, capsys):
        assert main(["analyze", "0.123", "-n", "3", "--budget", "0"]) == 3
        assert "budget exceeded" in capsys.readouterr().err


class TestMalformedAnalysis:
    """A damaged analysis file is bad input (exit 4), never a traceback and
    never an answer."""

    def _damaged(self, analysis_file, tmp_path, edit):
        with open(analysis_file, encoding="utf-8") as f:
            doc = json.load(f)
        edit(doc)
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _outcome(self, capsys, path):
        rc = main(["outcome", path, "3", "4"])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_missing_phi(self, capsys, analysis_file, tmp_path):
        path = self._damaged(analysis_file, tmp_path, lambda d: d.pop("phi"))
        rc, out, err = self._outcome(capsys, path)
        assert rc == 4
        assert out == ""
        assert "'phi'" in err

    def test_phi_index_out_of_range(self, capsys, analysis_file, tmp_path):
        def edit(doc):
            doc["phi"][0] = 999

        path = self._damaged(analysis_file, tmp_path, edit)
        rc, out, err = self._outcome(capsys, path)
        assert rc == 4
        assert out == ""
        assert "'phi'" in err

    def test_phi_entry_not_an_integer(self, capsys, analysis_file, tmp_path):
        def edit(doc):
            doc["phi"][0] = "x"

        path = self._damaged(analysis_file, tmp_path, edit)
        rc, out, err = self._outcome(capsys, path)
        assert rc == 4
        assert out == ""
        assert "'phi'" in err

    def test_generator_map_that_does_not_generate(self, capsys, tmp_path,
                                                  forged_analysis_text):
        # The 65-element table is past the exhaustive associativity check,
        # so without the loader's check its broken 2 * 3 answered P.
        path = tmp_path / "forged.json"
        path.write_text(forged_analysis_text, encoding="utf-8")
        rc = main(["outcome", str(path), "2", "3"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert "'generator_map' does not generate the table" in captured.err

    @pytest.mark.parametrize("key", ["certified_period", "claimed_period"])
    @pytest.mark.parametrize("period, complaint", [
        # Stored phi covers heaps 1..12; heap 6 is b2 and heap 10 is x.
        ([6, 4], "period fails at heap 6"),
        # Heaps 10..14 make one period; phi repeats vacuously over 1..12.
        ([10, 5], "stored values do not cover one full period"),
    ])
    def test_forged_period(self, capsys, analysis_file, tmp_path, key,
                           period, complaint):
        def edit(doc):
            doc[key] = period

        path = self._damaged(analysis_file, tmp_path, edit)
        rc = main(["outcome", path, "1000", "3"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert f"analysis field {key!r}: {complaint}" in captured.err

    @pytest.mark.parametrize("command", ["outcome", "structure", "verify", "certify"])
    def test_generator_heaps_that_phi_contradicts(self, capsys, analysis_file,
                                                  tmp_path, command):
        def edit(doc):
            doc["generator_heaps"]["z"] = 4  # heap 4 pretends z, but heap 3 first

        path = self._damaged(analysis_file, tmp_path, edit)
        assert main([command, path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'generator_heaps' does not match 'phi'" in captured.err

    @pytest.mark.parametrize("command", ["outcome", "structure", "verify", "certify"])
    def test_repeated_element_name(self, capsys, analysis_file, tmp_path, command):
        # Loaded, the second "x" would shadow the first in index_of.
        def edit(doc):
            doc["names"][2] = doc["names"][1]

        path = self._damaged(analysis_file, tmp_path, edit)
        assert main([command, path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'names' repeats an element name" in captured.err

    @pytest.mark.parametrize("command", ["outcome", "structure", "verify", "certify"])
    def test_generator_renamed_in_the_map_only(self, capsys, analysis_file,
                                               tmp_path, command):
        # Loaded, the words would still spell x, which no heap represents.
        def edit(doc):
            doc["generator_map"]["q"] = doc["generator_map"].pop("x")
            doc["generator_heaps"]["q"] = doc["generator_heaps"].pop("x")

        path = self._damaged(analysis_file, tmp_path, edit)
        assert main([command, path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'generator_map' does not name the same generators" in captured.err

    @pytest.mark.parametrize("command", ["outcome", "structure", "verify", "certify"])
    def test_file_too_deep_to_decode(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err

    def test_well_formed_files_still_load(self, analysis_file):
        text = analysis_to_json(kayles_analysis())
        assert analysis_to_json(analysis_from_json(text)) == text
        with open(analysis_file, encoding="utf-8") as f:
            assert analysis_from_json(f.read()).certified_period == (6, 5)


# Values a mutation writes into an analysis file: small integers, names and
# nulls, alone or in short lists.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.sampled_from(["", "x", "e", "z2"]),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


def _mutate(data, doc) -> None:
    """Change one value of ``doc`` in place, drop it, or append to a list:
    at a top-level key, or at a node a few levels below one.  Or give one
    element the name of another, or rename one generator in
    ``generator_map`` and ``generator_heaps`` alone.  Or, keeping the file
    loadable, drop its certified period and cut its verified range below
    heap 9, so an ``outcome`` query at heap 9 answers past that range."""
    if "verified_to" in doc and data.draw(st.integers(0, 3)) == 0:
        doc["certified_period"] = None
        doc["verified_to"] = data.draw(st.integers(1, 8))
        return
    names = doc.get("names")
    if isinstance(names, list) and len(names) > 1 and data.draw(st.integers(0, 3)) == 0:
        i, j = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=2, max_size=2,
                                  unique=True))
        names[i] = names[j]
        return
    gmap = doc.get("generator_map")
    if isinstance(gmap, dict) and gmap and data.draw(st.integers(0, 3)) == 0:
        old = data.draw(st.sampled_from(sorted(gmap)))
        gmap["q"] = gmap.pop(old)
        heaps = doc.get("generator_heaps")
        if isinstance(heaps, dict) and old in heaps:
            heaps["q"] = heaps.pop(old)
        return
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key]:
        if not data.draw(st.booleans()):
            break
        parent = parent[key]
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(list(keys)))
    kind = data.draw(st.sampled_from(["change", "drop", "append"]))
    if kind == "drop":
        del parent[key]
    elif kind == "append" and isinstance(parent[key], list):
        parent[key].append(data.draw(_json_values))
    else:
        parent[key] = data.draw(_json_values)


@pytest.fixture(scope="module")
def analysis_docs(qa123, kayles):
    return [json.loads(analysis_to_json(qa)) for qa in (qa123, kayles)]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "analysis.json"


@settings(max_examples=150, deadline=None)
@given(data=st.data(), which=st.sampled_from([0, 1]))
def test_mutated_analysis_files_fail_cleanly(fuzz_path, analysis_docs, data, which):
    """A damaged 0.123 or Kayles analysis never gives a traceback; every
    command ends with one of the contract's exit codes, and an answer past
    the proved range carries a warning."""
    doc = copy.deepcopy(analysis_docs[which])
    for _ in range(data.draw(st.integers(1, 3))):
        if doc:
            _mutate(data, doc)
    fuzz_path.write_text(json.dumps(doc), encoding="utf-8")
    path = str(fuzz_path)
    for argv in (["outcome", path, "3", "4", "9"], ["outcome", path, "200"],
                 ["structure", path], ["verify", path, "-n", "8"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3, 4, 5), (argv, rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if argv[0] == "outcome" and rc == 0:
            qa = analysis_from_json(fuzz_path.read_text(encoding="utf-8"))
            top = max(map(int, argv[2:]))
            if qa.certified_period is None and (
                qa.verified_to is None or qa.verified_to < top
            ):
                assert "warning:" in err.getvalue(), doc
