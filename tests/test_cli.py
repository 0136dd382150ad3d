import contextlib
import hashlib
import io
import json
from math import comb

import pytest

from symcube import (character_irrep, character_symmetric_power,
                     format_character)
from symcube.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDim:
    def test_text(self):
        code, out, _ = run(["dim", "40", "4", "8", "8"])
        assert code == 0
        assert out.strip() == "6957"

    def test_negative_weight_component(self):
        code, out, _ = run(["dim", "40", "-4", "8", "8"])
        assert code == 0
        assert out.strip() == "6957"

    def test_parity_zero(self):
        code, out, _ = run(["dim", "3", "0", "1", "1"])
        assert code == 0
        assert out.strip() == "0"

    def test_top_weight(self):
        code, out, _ = run(["dim", "5", "5", "5", "5"])
        assert code == 0
        assert out.strip() == "1"

    def test_json(self):
        code, out, _ = run(["dim", "40", "4", "8", "8", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"m": 40, "weight": [4, 8, 8], "dim": 6957}

    def test_csv(self):
        code, out, _ = run(["dim", "2", "0", "0", "0", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["m,l1,l2,l3,dim", "2,0,0,0,4"]


class TestMult:
    def test_text(self):
        code, out, _ = run(["mult", "40", "4", "8", "8"])
        assert code == 0
        assert out.strip() == "3"

    def test_invariant(self):
        code, out, _ = run(["mult", "8", "0", "0", "0"])
        assert code == 0
        assert out.strip() == "1"

    def test_parity(self):
        code, out, _ = run(["mult", "2", "1", "1", "1"])
        assert code == 0
        assert out.strip() == "0"

    def test_json(self):
        code, out, _ = run(["mult", "4", "0", "0", "0", "--format", "json"])
        assert json.loads(out) == {"m": 4, "label": [0, 0, 0], "mult": 1}


class TestDecompose:
    def test_single_row(self):
        code, out, _ = run(["decompose", "1"])
        assert code == 0
        assert out.splitlines() == ["1 1 1 1", "total_dim = 8"]

    def test_four_rows(self):
        code, out, _ = run(["decompose", "2"])
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 5
        assert rows[-1] == "total_dim = 36"
        assert rows[:-1] == ["2 2 2 1", "2 0 0 1", "0 2 0 1", "0 0 2 1"]

    def test_json_round_trip(self):
        code, out, _ = run(["decompose", "6", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 6
        total = sum(
            e["mult"] * (e["label"][0] + 1) * (e["label"][1] + 1)
            * (e["label"][2] + 1)
            for e in payload["entries"]
        )
        assert total == payload["total_dim"] == comb(13, 7)

    def test_json_includes_invariant(self):
        code, out, _ = run(["decompose", "4", "--format", "json"])
        assert {"label": [0, 0, 0], "mult": 1} in json.loads(out)["entries"]

    def test_csv_matches_text_rows(self):
        code_t, out_t, _ = run(["decompose", "5"])
        code_c, out_c, _ = run(["decompose", "5", "--format", "csv"])
        assert code_t == code_c == 0
        text_rows = [tuple(line.split()) for line in out_t.splitlines()
                     if not line.startswith("total_dim")]
        csv_lines = out_c.splitlines()
        assert csv_lines[0] == "n1,n2,n3,mult"
        csv_rows = [tuple(line.split(",")) for line in csv_lines[1:]]
        assert csv_rows == text_rows


class TestPinnedOutput:
    # exact stdout: row order, csv header, text footer, json separators
    @pytest.mark.parametrize("argv,want", [
        (["character", "2"],
         "2 2 2 1\n2 2 0 1\n2 2 -2 1\n2 0 2 1\n2 0 0 2\n2 0 -2 1\n"
         "2 -2 2 1\n2 -2 0 1\n2 -2 -2 1\n0 2 2 1\n0 2 0 2\n0 2 -2 1\n"
         "0 0 2 2\n0 0 0 4\n0 0 -2 2\n0 -2 2 1\n0 -2 0 2\n0 -2 -2 1\n"
         "-2 2 2 1\n-2 2 0 1\n-2 2 -2 1\n-2 0 2 1\n-2 0 0 2\n-2 0 -2 1\n"
         "-2 -2 2 1\n-2 -2 0 1\n-2 -2 -2 1\n"),
        (["character", "2", "--format", "csv"],
         "l1,l2,l3,dim\n"
         "2,2,2,1\n2,2,0,1\n2,2,-2,1\n2,0,2,1\n2,0,0,2\n2,0,-2,1\n"
         "2,-2,2,1\n2,-2,0,1\n2,-2,-2,1\n0,2,2,1\n0,2,0,2\n0,2,-2,1\n"
         "0,0,2,2\n0,0,0,4\n0,0,-2,2\n0,-2,2,1\n0,-2,0,2\n0,-2,-2,1\n"
         "-2,2,2,1\n-2,2,0,1\n-2,2,-2,1\n-2,0,2,1\n-2,0,0,2\n-2,0,-2,1\n"
         "-2,-2,2,1\n-2,-2,0,1\n-2,-2,-2,1\n"),
        (["character", "2", "--format", "json"],
         '{"m": 2, "entries": ['
         '{"weight": [2, 2, 2], "dim": 1}, {"weight": [2, 2, 0], "dim": 1}, '
         '{"weight": [2, 2, -2], "dim": 1}, {"weight": [2, 0, 2], "dim": 1}, '
         '{"weight": [2, 0, 0], "dim": 2}, {"weight": [2, 0, -2], "dim": 1}, '
         '{"weight": [2, -2, 2], "dim": 1}, {"weight": [2, -2, 0], "dim": 1}, '
         '{"weight": [2, -2, -2], "dim": 1}, {"weight": [0, 2, 2], "dim": 1}, '
         '{"weight": [0, 2, 0], "dim": 2}, {"weight": [0, 2, -2], "dim": 1}, '
         '{"weight": [0, 0, 2], "dim": 2}, {"weight": [0, 0, 0], "dim": 4}, '
         '{"weight": [0, 0, -2], "dim": 2}, {"weight": [0, -2, 2], "dim": 1}, '
         '{"weight": [0, -2, 0], "dim": 2}, {"weight": [0, -2, -2], "dim": 1}, '
         '{"weight": [-2, 2, 2], "dim": 1}, {"weight": [-2, 2, 0], "dim": 1}, '
         '{"weight": [-2, 2, -2], "dim": 1}, {"weight": [-2, 0, 2], "dim": 1}, '
         '{"weight": [-2, 0, 0], "dim": 2}, {"weight": [-2, 0, -2], "dim": 1}, '
         '{"weight": [-2, -2, 2], "dim": 1}, {"weight": [-2, -2, 0], "dim": 1}, '
         '{"weight": [-2, -2, -2], "dim": 1}], "total": 36}\n'),
        (["decompose", "3"],
         "3 3 3 1\n3 1 1 1\n1 3 1 1\n1 1 3 1\n1 1 1 1\ntotal_dim = 120\n"),
        (["decompose", "3", "--format", "csv"],
         "n1,n2,n3,mult\n3,3,3,1\n3,1,1,1\n1,3,1,1\n1,1,3,1\n1,1,1,1\n"),
        (["decompose", "3", "--format", "json"],
         '{"m": 3, "entries": [{"label": [3, 3, 3], "mult": 1}, '
         '{"label": [3, 1, 1], "mult": 1}, {"label": [1, 3, 1], "mult": 1}, '
         '{"label": [1, 1, 3], "mult": 1}, {"label": [1, 1, 1], "mult": 1}], '
         '"total_dim": 120}\n'),
    ], ids=[f"{command}-{fmt}" for command in ("character", "decompose")
            for fmt in ("text", "csv", "json")])
    def test_stdout(self, argv, want):
        assert run(argv) == (0, want, "")

    # sha256 of stdout at the sizes the benchmark runs
    @pytest.mark.parametrize("argv,digest", [
        (["decompose", "100", "--format", "json"],
         "e28a683b1ccf6a9687b00aa99bb148b06ce8f282858cf2ad4ec4e6d3378f2647"),
        (["character", "100"],
         "a649bf8c218d1a31b36d528d9f29e64dbb03d11af24ed80d1d81bc8287cebe1e"),
        (["character", "70", "--format", "json"],
         "434247646fa37a7efcf3d1fae5cec4ccb2027323c38fe24cf6ffa610b4fed6ee"),
        (["character", "45", "--format", "csv"],
         "d258b3691be9ca6e0b19e85ece9f10476e0d51b8b0f927dbba35c56f9f111315"),
    ], ids=["decompose-100-json", "character-100-text", "character-70-json",
            "character-45-csv"])
    def test_stdout_digest_at_benchmark_size(self, argv, digest):
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt,want", [
        ("text",
         "3 3 3 1\n3 1 1 1\n1 3 1 1\n1 1 3 1\n1 1 1 1\ntotal_dim = 120\n"),
        ("csv",
         "n1,n2,n3,mult\n3,3,3,1\n3,1,1,1\n1,3,1,1\n1,1,3,1\n1,1,1,1\n"),
        ("json",
         '{"entries": [{"label": [3, 3, 3], "mult": 1}, '
         '{"label": [3, 1, 1], "mult": 1}, {"label": [1, 3, 1], "mult": 1}, '
         '{"label": [1, 1, 3], "mult": 1}, {"label": [1, 1, 1], "mult": 1}], '
         '"total_dim": 120}\n'),
    ])
    def test_greedy_stdout(self, tmp_path, fmt, want):
        path = tmp_path / "s3.char"
        path.write_text(format_character(character_symmetric_power(3)))
        assert run(["greedy", str(path), "--format", fmt]) == (0, want, "")

    def test_json_spelled_as_json_dumps(self, tmp_path):
        paths = [tmp_path / "s5.char", tmp_path / "empty.char"]
        paths[0].write_text(format_character(character_symmetric_power(5)))
        paths[1].write_text("")
        argvs = ([["decompose", str(m)] for m in range(9)]
                 + [["greedy", str(path)] for path in paths])
        for argv in argvs:
            code, out, _ = run(argv + ["--format", "json"])
            assert code == 0, argv
            assert out == json.dumps(json.loads(out)) + "\n", argv


class TestCharacter:
    def test_degree_one_has_eight_lines(self):
        code, out, _ = run(["character", "1"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert all(line.split()[-1] == "1" for line in lines)

    def test_output_feeds_greedy(self, tmp_path):
        code, out, _ = run(["character", "3"])
        assert code == 0
        path = tmp_path / "s3.char"
        path.write_text(out)
        code, out, _ = run(["greedy", str(path)])
        assert code == 0
        assert out.splitlines()[-1] == f"total_dim = {comb(10, 7)}"

    def test_json_total(self):
        code, out, _ = run(["character", "2", "--format", "json"])
        payload = json.loads(out)
        assert payload["total"] == 36
        assert {"weight": [0, 0, 0], "dim": 4} in payload["entries"]


class TestGreedy:
    def test_single_irrep_file(self, tmp_path):
        path = tmp_path / "cube.char"
        path.write_text(format_character(character_irrep((1, 1, 1))))
        code, out, _ = run(["greedy", str(path)])
        assert code == 0
        assert out.splitlines() == ["1 1 1 1", "total_dim = 8"]

    def test_invalid_character_exits_2(self, tmp_path):
        path = tmp_path / "bad.char"
        path.write_text("2 0 0 1\n-2 0 0 1\n")
        code, _, err = run(["greedy", str(path)])
        assert code == 2
        assert "not a module character" in err

    def test_large_short_irreducible_exits_2(self, tmp_path):
        # rejected at its second weight, without the 3.4 M weights of
        # V(150) (x) V(150) (x) V(150)
        path = tmp_path / "short.char"
        path.write_text("0 0 0 1\n150 150 150 1\n")
        assert run(["greedy", str(path)]) == (
            2, "", "error: not a module character: the irreducible with "
            "highest weight (150, 150, 150) has multiplicity 1, but weight "
            "(150, 150, 148) has only 0 left\n")

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "malformed.char"
        path.write_text("1 2 3\n")
        code, _, err = run(["greedy", str(path)])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["1_0 0 0 1\n", "0 0 0 1_0\n",
                                      "\u0661 1 1 1\n"])
    def test_non_ascii_decimal_spelling_exits_2(self, tmp_path, text):
        path = tmp_path / "spelled.char"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["greedy", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: ")

    def test_missing_file_exits_2(self, tmp_path):
        code, _, err = run(["greedy", str(tmp_path / "nope.char")])
        assert code == 2


class TestVerify:
    def test_passes(self):
        code, out, err = run(["verify", "--max-m", "10"])
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "2x2 matrix counts: closed form == brute force for r1 <= 40",
            "weight dimensions: closed form == convolution == pair "
            "enumeration for m <= 16 (825 indices)",
            "characters: monomial enumeration == closed forms for m <= 10",
            "decompositions: greedy == inclusion-exclusion for m <= 10",
            "all checks passed",
        ]

    def test_mismatch_exits_3(self, monkeypatch):
        monkeypatch.setattr("symcube.dims.c2", lambda r1, r2, r3: r1 + 1)
        code, out, err = run(["verify", "--max-m", "3"])
        assert code == 3 and "all checks passed" not in out
        assert err == ("mismatch: c2 vs brute force at "
                       "(r1, r2, r3) = (1, 0, 0)\n")


class TestUsageErrors:
    def test_missing_arguments(self):
        code, _, err = run(["dim", "40"])
        assert code == 1
        assert err

    def test_non_integer(self):
        code, _, _ = run(["dim", "x", "0", "0", "0"])
        assert code == 1

    def test_negative_power(self):
        code, _, _ = run(["mult", "-2", "0", "0", "0"])
        assert code == 1

    def test_bad_format(self):
        code, _, _ = run(["decompose", "2", "--format", "xml"])
        assert code == 1

    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 1
