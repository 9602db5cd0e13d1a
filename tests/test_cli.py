"""End-to-end command line checks, driving main() in process."""

import contextlib
import copy
import io
import json

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
from misere_quotients.oracle import nim_heap_tree
from misere_quotients.semigroup import knuth_bendix


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

    def test_kayles_is_unverified(self, capsys):
        rc = main(["outcome", "0.77", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "outcome: P" in captured.out
        assert "unverified" in captured.err

    def test_rejects_nonpositive_heap(self, capsys, analysis_file):
        assert main(["outcome", analysis_file, "0"]) == 4


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

    def test_heap_required(self, capsys):
        assert main(["genus", "0.123"]) == 4

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

    def test_budget_exit_code(self, capsys):
        assert main(["analyze", "0.123", "--budget", "5"]) == 3


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
    at a top-level key, or at a node a few levels below one."""
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
    command ends with one of the contract's exit codes."""
    doc = copy.deepcopy(analysis_docs[which])
    for _ in range(data.draw(st.integers(1, 3))):
        if doc:
            _mutate(data, doc)
    fuzz_path.write_text(json.dumps(doc), encoding="utf-8")
    path = str(fuzz_path)
    for argv in (["outcome", path, "3", "4", "9"], ["structure", path],
                 ["verify", path, "-n", "8"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3, 4, 5), (argv, rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
