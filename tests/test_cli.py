import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from symcube import characters, cli, dims, multiplicity, verify
from symcube.cli import main
from symcube.core import character_entries, check_power
from symcube.multiplicity import character_lines


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def child_env(unbuffered: bool) -> dict:
    """The environment of a `python -m symcube.cli` child, its stdout
    unbuffered or not: any non-empty PYTHONUNBUFFERED, even "0", means
    unbuffered, so a buffered child runs without the key."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def write_character(path, m):
    """Write the character of S^m to path as `symcube character m` prints
    it; S^1 is V(1) (x) V(1) (x) V(1)."""
    code, out, err = run(["character", str(m)])
    assert (code, err) == (0, "")
    path.write_text(out)


def write_direct_sum(path):
    """Write a seeded direct sum of 16 irreducibles, with components 0 to 3
    of both parities, even within one label, to path, its entries in
    shuffled order, as the benchmark's random sums are made."""
    rng, char = random.Random("direct-sum"), Counter()
    for _ in range(16):
        char.update(characters.character_irrep(
            tuple(rng.randint(0, 3) for _ in range(3))))
    lines = [f"{l1} {l2} {l3} {d}\n" for (l1, l2, l3), d in char.items()]
    rng.shuffle(lines)
    path.write_text("".join(lines))


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


@pytest.mark.parametrize("argv,want", [
    (["dim", "40", "-4", "8", "-8"],
     {"m": 40, "weight": [-4, 8, -8], "dim": 6957}),
    (["dim", "3", "1", "2", "1"], {"m": 3, "weight": [1, 2, 1], "dim": 0}),
    (["mult", "40", "4", "8", "8"],
     {"m": 40, "label": [4, 8, 8], "mult": 3}),
    (["mult", "2", "1", "1", "1"], {"m": 2, "label": [1, 1, 1], "mult": 0}),
])
def test_scalar_json_is_json_dumps(argv, want):
    # the scalar json is rendered by hand, byte for byte json.dumps
    assert run([*argv, "--format", "json"]) == (
        0, json.dumps(want) + "\n", "")


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
        # an empty character file: the head and tail alone
        (["greedy", os.devnull], "total_dim = 0\n"),
        (["greedy", os.devnull, "--format", "csv"], "n1,n2,n3,mult\n"),
    ], ids=[f"{command}-{fmt}" for command in ("character", "decompose")
            for fmt in ("text", "csv", "json")]
        + ["greedy-empty-text", "greedy-empty-csv"])
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
        write_character(path, 3)
        assert run(["greedy", str(path), "--format", fmt]) == (0, want, "")

    # sha256 of stdout, taken when decompose still rendered one dict
    @pytest.mark.parametrize("m,fmt,digest", [
        (0, "text",
         "e936350bd750d8988be9970308da82f57510f3fdba617af79292ddc0851c01de"),
        (0, "csv",
         "3bffe51b732a6ba43cf97ba13ec6ccc71d2b4787e6dc3adc155ad191ed9f65bf"),
        (0, "json",
         "bbf2435c31f97d11153df1fcf7bc81aa1a996f95f51d66daf70978c6257a5446"),
        (1, "text",
         "76c60965ce446af0a1bed118d179425c220141fbc69431d7a2e4cc6314357e90"),
        (1, "csv",
         "1fb70997fdc07c7375e6a665b0d887b4d7936126c4e7c6aa8efe50e30fed166e"),
        (1, "json",
         "0e37238c2c3d4b4add392c9d8746471cd2fb202d581c864c36b5c68f2920be44"),
        (2, "text",
         "3f7a5d12c50c9035c23cb7e629b0357978afd6571c88b38ed742060951dc03e7"),
        (2, "csv",
         "04ab5932f26da8b6e24958e0c5ce975eb594d71e505103f21476b0aedaecb97b"),
        (2, "json",
         "312b8862cb5abb2101236744168c21baf650d770b6651eebf2ba9d077973c628"),
        (7, "text",
         "2489bc3c1b688a74c79fa731570760f8a4a6fde963e6a4eca7f89c8520d5369d"),
        (7, "csv",
         "68c195cb3b104126f5cc39e7206d0a7ab29305812117d281291a1a377cb988d8"),
        (7, "json",
         "556de07287e1b4a33f38efe64c3c1e4ce3bc718e07cea34282467f075bad9e99"),
        (35, "text",
         "2e0221ed9e02c74fa24dc3eb0accc91e1e1447d2ef434d2f1074ee494cc3fdec"),
        (35, "csv",
         "9ee8b90ff7be8d0a8c3b4606e371c215883f94e519e6d5e066527f63a4c878f2"),
        (35, "json",
         "1c4e8299add0f5426f35bc570516f3fa68f84b3baa693dcbd0abd336d45cf227"),
        (45, "text",
         "3e4d270e073e603eeaa11336596645baec0c852b579da678090221e9a4dd7528"),
        (45, "csv",
         "eec91a25cc12cc47797e5271ac4819215ef9e1f8604aad327a0450da560a794d"),
        (45, "json",
         "baa539980d6cb95ef89814b4cf5237d13bb9de93c38a1ddb163f86a55ae23ec0"),
        (70, "text",
         "d576ab0e396b61909817f21a3f01b05582d95480ad447349272a6e7bd97ccc09"),
        (70, "csv",
         "1bbe800bf114d706fc312d03f575897b0413b427fafb10d68c5cba5e4f35540d"),
        (70, "json",
         "c10415ca7d485eb16069922b94d26971d5d78777f86ebe55e92ec32a73839258"),
        (100, "text",
         "758b3b3e24f754453e26a67ce8217fd7f295e6230d3cff154a1f2798b01e9d3c"),
        (100, "csv",
         "95527cb587235a70c892ccda174ffecd8c87757beaa8c30a8635ba230e586629"),
        (100, "json",
         "e28a683b1ccf6a9687b00aa99bb148b06ce8f282858cf2ad4ec4e6d3378f2647"),
        (101, "text",
         "4884e6367d3cf3f52c9a511be63680405e17472610dd227ce10ccb94c630793a"),
        (101, "csv",
         "41861ca075e1b56a3a58a692a382fe8e8501bb21d441a8f94f9525113677d1ec"),
        (101, "json",
         "96b28ad12084de77c341040f9f66892b0e2c0038ba145dc906b2a66cd26ee7c5"),
    ], ids=[f"{m}-{fmt}" for m in (0, 1, 2, 7, 35, 45, 70, 100, 101)
            for fmt in ("text", "csv", "json")])
    def test_decompose_digest(self, m, fmt, digest):
        code, out, err = run(["decompose", str(m), "--format", fmt])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m,fmt,digest", [
        (14, "text",
         "2b5f26af79c9f20620aabef9f4b86a5b5d01672c8302f612e9d45886a540fe39"),
        (14, "csv",
         "027cf241018c690edd451b08e46cba5c4d5175e8554fc03351eac935dc30cc2f"),
        (14, "json",
         "a05e931e31f9ba57a0e7996178373cf67bcae99678ebed182f6d3122707e4a78"),
        (18, "text",
         "5a8d3e126f9633fafc1d5e66495aec4e734c56a6c4e8604d16c3bd88b86f53ed"),
        (18, "csv",
         "582bb706f1c5989dd3e608c2ab12b28c9dc6b4b4075cb3367203f5d9741a681d"),
        (18, "json",
         "b75e717006cc8a43fbff0f59ee8fafe99e3890dcf957949331ccb5c6dbe883ef"),
    ], ids=[f"S{m}-{fmt}" for m in (14, 18)
            for fmt in ("text", "csv", "json")])
    def test_greedy_digest(self, tmp_path, m, fmt, digest):
        path = tmp_path / f"s{m}.char"
        write_character(path, m)
        code, out, err = run(["greedy", str(path), "--format", fmt])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of stdout: 15 labels, (3, 1, 2) twice; (3, 2, 1) and (3, 2, 0)
    # share a count row, and mixed parities put them off any power's grid
    @pytest.mark.parametrize("fmt,digest", [
        ("text",
         "6fa238a96b4e0515a29c359c82cb54d7f180b5b42810b78b49f6e1c8256170da"),
        ("csv",
         "2390a5019879d2ec94423e76506475352a2b00a38954d261c7c24ac3b9d92532"),
        ("json",
         "08e2f5640dcab5902e85a2259dc14be616c0c35b45e9d0a8ecdba134669f0522"),
    ])
    def test_greedy_digest_of_a_direct_sum(self, tmp_path, fmt, digest):
        path = tmp_path / "sum.char"
        write_direct_sum(path)
        code, out, err = run(["greedy", str(path), "--format", fmt])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m", [0, 1, 7, 20])
    def test_greedy_of_a_character_prints_its_decomposition(self, tmp_path,
                                                            m):
        # text and csv carry no "m", so the two tables are the same bytes
        path = tmp_path / f"s{m}.char"
        write_character(path, m)
        for fmt in ("text", "csv"):
            assert run(["greedy", str(path), "--format", fmt]) == run(
                ["decompose", str(m), "--format", fmt]), fmt

    def test_json_spelled_as_json_dumps(self, tmp_path):
        paths = [tmp_path / "s5.char", tmp_path / "empty.char",
                 tmp_path / "sum.char"]
        write_character(paths[0], 5)
        paths[1].write_text("")
        write_direct_sum(paths[2])
        argvs = ([["decompose", str(m)] for m in range(9)]
                 + [["character", str(m)] for m in range(5)]
                 + [["greedy", str(path)] for path in paths])
        for argv in argvs:
            code, out, _ = run(argv + ["--format", "json"])
            assert code == 0, argv
            assert out == json.dumps(json.loads(out)) + "\n", argv


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class _CountWrites(_Discard):
    def __init__(self):
        self.writes = self.chars = self.longest = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)


def dominant_dimensions(m: int) -> list[list[list[int]]]:
    """The cube cube[i][j][l] = C(m; sorted((i, j, l), reverse=True)) for
    i, j, l in [0, m/2]: the dimensions of S^m at the dominant weights
    (m - 2i, m - 2j, m - 2l).

    The memory yardstick of the tables: the full cube that the character
    of S^m was once mirrored from, with a normalized table beside it and
    every row stored twice.
    """
    check_power(m)
    span = range(m // 2 + 1)
    # table[k][r][n] at the normalized indices k >= r >= n
    table = [[[dims._closed_form(m, k, r, n) for n in range(r + 1)]
              for r in range(k + 1)] for k in span]
    cube = [[[] for _ in span] for _ in span]
    for i in span:
        for j in range(i + 1):
            # (i, j, l) sorted descending, for l <= j, j < l <= i, l > i
            row = (table[i][j]
                   + [table[i][l][j] for l in range(j + 1, i + 1)]
                   + [table[l][i][j] for l in range(i + 1, len(span))])
            cube[i][j], cube[j][i] = row, row[:]
    return cube


class TestDecomposeStreams:
    def test_holds_no_more_than_the_cube(self):
        # the table of S^100 has 64,476 rows; rendering them from one dict
        # peaked at about 7 times the dimension cube
        tracemalloc.start()
        try:
            dominant_dimensions(100)
            cube_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(_Discard()):
                code = main(["decompose", "100", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.5 * cube_peak, (peak, cube_peak)
        # The count holds one count row and reads no cube.  The first
        # run also paid one-off costs of the process (CPython's tuple
        # free lists, among others),
        # which were allocated before this trace starts.
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                main(["decompose", "100", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube_peak / 4, (peak, cube_peak)

    def test_holds_one_count_row_at_a_time(self):
        # O(m) state: quadrupling m less than doubles the traced peak, where
        # a plane of rows, O(m^2), peaked at 1.77 MB at m = 200; the
        # untraced warm-up pays the process's one-off costs
        with contextlib.redirect_stdout(_Discard()):
            assert main(["decompose", "50", "--format", "csv"]) == 0
        peaks = []
        for m in (50, 200):
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(_Discard()):
                    code = main(["decompose", str(m), "--format", "csv"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, m
        assert peaks[1] < 2 * peaks[0], peaks

    def test_wrong_total_exits_3(self, monkeypatch):
        real_rows = multiplicity.decomposition_rows
        real_plane = multiplicity._count_plane

        def wrong_rows(m):
            # the first non-zero entry of the third count row, one too high
            rows = list(real_rows(m))
            _, _, row = rows[2]
            row[next(i for i, x in enumerate(row) if x)] += 1
            return rows

        def wrong_plane(m, a):
            rows = list(real_plane(m, a))
            if (m, a) == (7, 1):
                rows[2][3] += 1
            return rows

        # a wrong row as the command reads it, and a wrong count in the
        # row form that decompose shares with character
        for module, name, wrong, m in (
                (multiplicity, "decomposition_rows", wrong_rows, 12),
                (multiplicity, "_count_plane", wrong_plane, 7)):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, wrong)
                code, _, err = run(["decompose", str(m)])
            assert code == 3, name
            assert err.startswith("mismatch: decomposition total_dim ")
            assert err.endswith(
                f"!= C(m+7, 7) = {comb(m + 7, 7)} at m = {m}\n"), err
        # the character sums the same wrong count, and says so after its
        # output in every format
        monkeypatch.setattr(multiplicity, "_count_plane", wrong_plane)
        for fmt, lines in (("text", 512), ("json", 1), ("csv", 513)):
            code, out, err = run(["character", "7", "--format", fmt])
            assert (code, err) == (3, "mismatch: character total 3480 != "
                                      "C(m+7, 7) = 3432 at m = 7\n"), fmt
            assert out.count("\n") == lines, fmt


@pytest.mark.parametrize("argv", [["character", "100"],
                                  ["decompose", "100", "--format", "json"],
                                  ["greedy", "s20.char", "--format", "json"]])
def test_tables_write_in_buffer_sized_blocks(argv, tmp_path, monkeypatch):
    # each write to an unbuffered stdout is a system call; character 100
    # wrote each of its 10,201 lines (l1, l2) apart; greedy reads S^20,
    # whose json it wrote in one write of 20,507 characters
    monkeypatch.chdir(tmp_path)
    write_character(tmp_path / "s20.char", 20)
    out = _CountWrites()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.writes <= -(-out.chars // io.DEFAULT_BUFFER_SIZE) + 2, (
        out.writes, out.chars)
    assert out.longest <= 2 * io.DEFAULT_BUFFER_SIZE, out.longest


class TestCharacterRows:
    def test_holds_less_than_the_cube(self):
        # The character holds a running plane of 51 rows of 51 values at
        # m = 100, one row of a count plane's prefix sums and the 51
        # formatted lines (l1, l2 >= 0) of one l1, against the cube's
        # 132,651 values (it peaks at about a tenth of the cube's peak);
        # weight_dimensions, the reference, keeps each dominant row (i, j),
        # i >= j, once: 1,326 rows of 51 values.  The untraced warm-up pays
        # the process's one-off costs.
        with contextlib.redirect_stdout(_Discard()):
            assert main(["character", "100"]) == 0
        tracemalloc.start()
        try:
            dominant_dimensions(100)
            cube_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(_Discard()):
                code = main(["character", "100"])
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for _ in dims.weight_dimensions(100):
                pass
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.2 * cube_peak, (peak, cube_peak)
        assert sweep_peak < 0.7 * cube_peak, (sweep_peak, cube_peak)

    def test_sweep_at_m_300_holds_under_10_mb(self):
        # the closed-form route, weight_dimensions(300), peaks at about 33 MB
        tracemalloc.start()
        try:
            for _ in character_lines(300):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, peak


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    def test_exits_141_and_says_nothing(self, unbuffered):
        # as `symcube character 60 | head -1`: 3.3 MB of output, so the
        # writes after the first line meet a closed pipe
        with subprocess.Popen(
                [sys.executable, "-m", "symcube.cli", "character", "60"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env(unbuffered)) as proc:
            assert proc.stdout.readline() == b"60 60 60 1\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141

    def test_closed_before_the_exit_flush_exits_141(self):
        # as `symcube decompose 3 | (exec 0<&-; sleep 1)`: the whole output
        # waits in stdout's buffer, which is block-buffered only without
        # PYTHONUNBUFFERED, until the flush at the end of main
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "symcube.cli", "decompose", "3"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env=child_env(unbuffered=False))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_child_prints_what_main_prints(tmp_path, unbuffered):
    # the blocks of an unbuffered stdout, and the buffer of a buffered one,
    # carry the same bytes as a StringIO in process
    path = tmp_path / "s5.char"
    write_character(path, 5)
    for argv in (["decompose", "9", "--format", "json"],
                 ["character", "7", "--format", "csv"], ["greedy", str(path)]):
        proc = subprocess.run(
            [sys.executable, "-m", "symcube.cli", *argv], capture_output=True,
            timeout=60, env=child_env(unbuffered))
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) \
            == run(argv), argv


class TestOutOfMemory:
    def test_exits_2_with_one_error_line(self):
        # the child alone runs in a 256 MiB address space, where
        # `decompose 100000000` cannot build its first count row
        src = Path(cli.__file__).resolve().parents[1]
        limit = 256 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "symcube.cli", "decompose", "100000000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        # one line, the type's name since a MemoryError has no message
        assert (proc.returncode, proc.stderr) == (2, b"error: MemoryError\n")


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

    def test_a_power_above_the_cap_exits_2_before_any_state(self,
                                                            monkeypatch):
        cap = multiplicity.CHARACTER_CAP
        assert next(character_lines(cap))[:2] == (cap, cap)

        def refuse(*args):
            raise AssertionError("a count plane was built")

        monkeypatch.setattr(multiplicity, "_count_plane", refuse)
        for fmt in ("text", "json", "csv"):
            assert run(["character", str(cap + 1), "--format", fmt]) == (
                2, "", f"error: character cap exceeded: m={cap + 1} > "
                       f"cap={cap}\n")


    def test_a_power_far_above_the_cap_exits_2_at_once(self):
        # the cap is read before the 2m + 1 cells of the line template are
        # built; a child that built them would meet the timeout, or the
        # 256 MiB address space that keeps it from the machine's memory
        src = Path(cli.__file__).resolve().parents[1]
        limit, m = 256 << 20, 10 ** 12
        proc = subprocess.run(
            [sys.executable, "-m", "symcube.cli", "character", str(m)],
            capture_output=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
            2, b"", f"error: character cap exceeded: m={m} > "
                    f"cap={multiplicity.CHARACTER_CAP}\n")


class TestGreedy:
    def test_holds_less_than_a_quarter_of_the_parse(self, tmp_path):
        # greedy FILE keeps the text and one state per sign orbit, 9,261 at
        # S^40, against a dict of all 68,921 weights read from the same
        # entries; the file is the character in shuffled order, and the
        # untraced warm-up pays the process's one-off costs
        path = tmp_path / "s40.char"
        write_character(path, 40)
        lines = path.read_text().splitlines(keepends=True)
        random.Random(40).shuffle(lines)
        text = "".join(lines)
        path.write_text(text)
        with contextlib.redirect_stdout(_Discard()):
            assert main(["greedy", str(path)]) == 0
        tracemalloc.start()
        try:
            {w: d for _, w, d in character_entries(text)}
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(_Discard()):
                code = main(["greedy", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < parse_peak / 4, (peak, parse_peak)

    def test_wrong_total_exits_3(self, tmp_path, monkeypatch):
        # the file's dimensions, summed as they are read, against the total
        # of the table, which is printed first
        path = tmp_path / "s5.char"
        write_character(path, 5)
        real = characters.decompose_entries

        def off_by_one(entries):
            (label, x), *rest = real(entries).items()
            return dict([(label, x + 1), *rest])

        monkeypatch.setattr(characters, "decompose_entries", off_by_one)
        code, out, err = run(["greedy", str(path)])
        assert code == 3
        assert out.startswith("5 5 5 2\n")
        assert out.endswith(f"total_dim = {comb(12, 7) + 216}\n")
        assert err == (f"mismatch: greedy total_dim {comb(12, 7) + 216} != "
                       f"{comb(12, 7)}, the sum of the file's dimensions\n")

    def test_single_irrep_file(self, tmp_path):
        path = tmp_path / "cube.char"
        write_character(path, 1)
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
        # rejected by the sign images of (150, 150, 150), without the
        # 3.4 M weights of V(150) (x) V(150) (x) V(150)
        path = tmp_path / "short.char"
        path.write_text("0 0 0 1\n150 150 150 1\n")
        assert run(["greedy", str(path)]) == (
            2, "", "error: not a module character: weight (150, 150, -150) "
            "has dimension 0, but (150, 150, 150), the same weight up to "
            "signs, has 1\n")

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
    def test_mismatch_exits_3(self, monkeypatch):
        monkeypatch.setattr("symcube.dims.c2", lambda r1, r2, r3: r1 + 1)
        code, out, err = run(["verify", "--max-m", "3"])
        assert code == 3 and "all checks passed" not in out
        assert err == ("mismatch: c2 vs brute force at "
                       "(r1, r2, r3) = (1, 0, 0)\n")

    @pytest.mark.parametrize("order", [
        lambda w: sorted(map(abs, w), reverse=True),
        lambda w: list(map(abs, w)),
        sorted,
    ], ids=["descending", "unsorted", "no-abs"])
    def test_a_dim_weight_off_the_normalized_index_exits_3(self, monkeypatch,
                                                           order):
        # dim_weight, the route `symcube dim` runs, with its absolute values
        # in another order; verify reads it at an unsorted, sign-flipped
        # image of each normalized index
        def dim_weight(m, w):
            a1, a2, a3 = order(w)
            if a3 > m or (m - a1) % 2 or (m - a2) % 2 or (m - a3) % 2:
                return 0
            k, r, n = (m - a1) // 2, (m - a2) // 2, (m - a3) // 2
            return dims._closed_form(m, k, r, n)

        monkeypatch.setattr(dims, "dim_weight", dim_weight)
        code, out, err = run(["verify"])
        assert code == 3 and "all checks passed" not in out
        assert err.startswith(
            "mismatch: dimensions diverge at (m, k, r, n) = "), err

    @pytest.mark.parametrize("mutant,at", [("huge", "m = 1000000000000, "),
                                           ("floor", "m = 2, label (0, 0, 0)")])
    def test_a_wrong_count_exits_3(self, monkeypatch, mutant, at):
        # multiplicity_sym, the route `symcube mult` runs, one too high at
        # labels above 10^6, or with (1 - h) // 2 written (-h) // 2
        real = multiplicity.multiplicity_sym

        def count(m, label):
            x, h = real(m, label), (sum(label) - m) // 2
            if mutant == "huge":
                return x + (x > 0 and h > 0 and min(label) > 10 ** 6)
            if any(v > m or (v - m) % 2 for v in label):
                return 0
            return max(0, (min(label) - h) // 2 + 1 - max(0, -h // 2))

        monkeypatch.setattr(multiplicity, "multiplicity_sym", count)
        code, out, err = run(["verify"])
        assert (code, len(out.splitlines())) == (3, 2)
        assert err.startswith("mismatch: multiplicity_sym "), err
        assert f" at {at}" in err, err

    @pytest.mark.parametrize("argv,top", [
        ([], 12),
        (["--max-m", "12"], 12),
        (["--mode", "extended"], 20),
        (["--mode", "extended", "--max-m", "20"], 20),
        (["--max-m", "10"], 10),
    ])
    def test_stdout(self, argv, top):
        assert run(["verify", *argv]) == (0, (
            "2x2 matrix counts: closed form == brute force for r1 <= 40, 0 "
            "off the range (23903 triples)\n"
            "weight dimensions: 48 divides 48 C at every index (residues "
            "mod 48), closed form == convolution == pair enumeration for "
            "m <= 16, closed form == convolution at m = 10^12, 10^12 + 1, "
            "0 off the support (959 weights)\n"
            "multiplicities: covariant count == eight-corner sums of closed "
            "forms for m <= 8 and at m = 10^12, 10^12 + 1, 0 off the support "
            "(543 labels)\n"
            "characters and decompositions: monomial enumeration == "
            "covariant count prefix sums == closed forms, greedy == "
            f"covariant count for m <= {top}\n"
            "all checks passed\n"), "")

    def test_runs_and_reports_the_table_in_order(self, monkeypatch, tmp_path):
        # an entry runs in a forked child, so it records its calls in a file
        checks = run(["verify", "--max-m", "3"])[1].splitlines()[:-1]
        real, calls = verify.CHECKS, tmp_path / "calls"

        def record(top):
            with calls.open("a") as fh:
                fh.write(f"{top}\n")
            return 7

        def fail(top):
            raise verify.VerificationError("extra entry")

        monkeypatch.setattr(verify, "CHECKS", (
            *real, (record, lambda top: top - 1, "extra {0} {1}")))
        assert run(["verify", "--max-m", "3"]) == (
            0, "\n".join([*checks, "extra 2 7", "all checks passed\n"]), "")
        assert calls.read_text() == "2\n"
        # a failing entry ends the report after the lines before it
        monkeypatch.setattr(verify, "CHECKS", (
            *real, (fail, lambda top: top, "extra {0} {1}"),
            (record, lambda top: top, "after {0} {1}")))
        assert run(["verify", "--max-m", "3"]) == (
            3, "\n".join([*checks, ""]), "mismatch: extra entry\n")

    @pytest.mark.parametrize("first,code,err", [
        ("fail", 3, "mismatch: at once\n"),
        ("pass", 0, ""),
        ("value", 2, "error: at once\n"),
        ("killed", 2, "error: check ended with no outcome\n"),
    ])
    def test_leaves_no_child_and_ends_at_the_first_failure(
            self, monkeypatch, first, code, err):
        # the first entry fails at once, passes, raises a ValueError or
        # kills its child; a later entry that sleeps 30 s is killed as
        # soon as an earlier one has failed
        def check(top):
            if first == "fail":
                raise verify.VerificationError("at once")
            if first == "value":
                raise ValueError("at once")
            if first == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return 1

        entries = [(check, lambda top: top, "first {0} {1}")]
        if first != "pass":
            entries.append((lambda top: time.sleep(30), lambda top: top,
                            "sleeper {0} {1}"))
        monkeypatch.setattr(verify, "CHECKS", tuple(entries))
        start = time.monotonic()
        assert run(["verify", "--max-m", "3"]) == (
            code, "first 3 1\nall checks passed\n" * (code == 0), err)
        assert time.monotonic() - start < 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mutant", [False, True])
    def test_runs_in_process_without_fork(self, monkeypatch, mutant):
        # where os.fork does not exist the entries run in order in process:
        # the same report, or the same lines before the same mismatch
        if mutant:
            wall = dims._wall
            monkeypatch.setattr(dims, "_wall", lambda t: wall(t) + 1)
        forked = run(["verify", "--max-m", "3"])
        assert (forked[0], len(forked[1].splitlines()), forked[2]) == (
            (3, 1, "mismatch: 48 does not divide _wall(0,)\n") if mutant
            else (0, 5, ""))
        monkeypatch.delattr(os, "fork")
        assert run(["verify", "--max-m", "3"]) == forked

    def test_max_m_help_names_both_checks(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        # the usage text wraps the option's help
        assert ("--max-m MAX_M largest power for the character and "
                "decomposition comparisons (default: 12 in ci mode, 20 in "
                "extended mode)") in " ".join(capsys.readouterr().out.split())
        # the bounds that the help names are the ones that run
        assert [bound(12) for _, bound, _ in verify.CHECKS[3:]] == [12]
        assert [check.__name__ for check, _, _ in verify.CHECKS[3:]] == [
            "check_characters"]

    def test_max_m_beyond_the_oracle_cap_exits_2_at_once(self, monkeypatch):
        # a check that ran would fail with exit 3
        monkeypatch.setattr("symcube.dims.c2", lambda r1, r2, r3: r1 + 1)
        assert run(["verify", "--max-m", "21"]) == (
            2, "", "error: oracle cap exceeded: m=21 > cap=20\n")


@pytest.mark.parametrize("route,argv", [
    ("dims.dim_weight", ["dim", "4", "0", "0", "0"]),
    ("multiplicity.multiplicity_sym", ["mult", "4", "0", "0", "0"]),
    ("multiplicity.decomposition_rows", ["decompose", "2"]),
    ("multiplicity.character_lines", ["character", "1"]),
    ("core.character_entries", ["greedy", "s1.char"]),
    ("characters.decompose_entries", ["greedy", "s1.char"]),
    ("verify.CHECKS", ["verify", "--max-m", "1"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_a_route_replaced_on_its_module_reaches_its_command(
        route, argv, tmp_path, monkeypatch):
    # every command looks its route up on the route's module when it runs,
    # as verify's checks do, so the route that verify checks is the one
    # that the command runs, replaced or not
    monkeypatch.chdir(tmp_path)
    write_character(tmp_path / "s1.char", 1)

    def replaced(*args):
        raise ValueError(f"replaced {route}")

    monkeypatch.setattr(f"symcube.{route}", (
        ((replaced, lambda top: top, "{0}"),) if route == "verify.CHECKS"
        else replaced))
    assert run(argv) == (2, "", f"error: replaced {route}\n")


# a fresh child runs `symcube ARGS...` (or, with no ARGS, only imports the
# package) and prints to stderr the symcube modules it loaded, then those
# of argparse, gettext and locale
LOADED = """import sys
import symcube
if sys.argv[1:]:
    from symcube import cli
    assert cli.main(sys.argv[1:]) == 0
print(*sorted(n[8:] for n in sys.modules if n.startswith("symcube.")),
      file=sys.stderr)
print(*sorted({"argparse", "gettext", "locale"} & set(sys.modules)),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv,loaded", [
    ([], ""),
    (["decompose", "3"], "cli core multiplicity"),
    (["character", "3"], "cli core multiplicity"),
    (["dim", "4", "0", "0", "0"], "cli core dims"),
    (["mult", "4", "0", "0", "0"], "cli core multiplicity"),
    (["greedy", "s3.char"], "characters cli core"),
    (["verify", "--max-m", "0"],
     "characters cli core dims multiplicity oracle verify"),
], ids=["import symcube", "decompose", "character", "dim", "mult", "greedy",
        "verify"])
def test_each_command_loads_only_its_modules(argv, loaded, tmp_path):
    # `import symcube` loads no submodule, and a command loads its routes'
    # modules and core, oracle only for verify, and never argparse,
    # gettext or locale
    write_character(tmp_path / "s3.char", 3)
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv],
                          cwd=tmp_path, env=child_env(False),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, loaded + "\n\n")


def test_main_in_process_leaves_the_collector_as_it_was():
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert run(["decompose", "3"])[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def test_the_program_runs_with_the_collector_off_and_start_up_frozen(
        tmp_path):
    # as `python -m symcube.cli` and the installed script call it
    code = """import gc, sys
from symcube import cli
sys.argv = ["symcube", "decompose", "1"]
assert cli.main() == 0
print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(False),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "False True\n")


def test_the_exports_resolve_to_their_homes_on_first_use():
    homes = {
        "characters": "NotAModuleCharacterError character_irrep "
                      "character_symmetric_power greedy_decompose",
        "core": "Character CharacterFormatError Decomposition IrrepLabel "
                "Weight",
        "dims": "c2 dim_by_convolution dim_closed_form dim_weight "
                "polynomial_case",
        "multiplicity": "decompose_symmetric_power multiplicity_sym",
        "oracle": "c2_bruteforce convolution_bruteforce",
    }
    code = """import json, sys
import symcube
homes = json.loads(sys.argv[1])
modules = [m for m in homes
           if getattr(symcube, m) is sys.modules["symcube." + m]]
try:
    symcube.no_such_name
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from symcube import *", star)
del star["__builtins__"]
same = sorted(name for m, names in homes.items() for name in names.split()
              if star[name] is getattr(sys.modules["symcube." + m], name))
print(json.dumps([modules, missing, sorted(star), symcube.__all__, same]))
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(homes)],
                          env=child_env(False), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    modules, missing, star, exports, same = json.loads(proc.stdout)
    assert modules == list(homes)
    assert "'no_such_name'" in missing
    assert star == sorted(exports) and len(exports) == 18
    assert same == sorted(" ".join(homes.values()).split()) == star


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

    @pytest.mark.parametrize("argv", [
        ["decompose", "1_0"],
        ["decompose", "\u0661\u0660"],
        ["decompose", " 2"],
        ["decompose", "2\n"],
        ["dim", " 2", "0", "0", "\u0662"],
        ["dim", "2", "0", "0", "\u0662"],
        ["dim", "2", "-\u0662", "0", "0"],
        ["dim", "2", "0", "2_0", "0"],
        ["mult", "4", "0", "0", "0\u00a0"],
        ["character", "\uff12"],
        ["verify", "--max-m", "1_2"],
        ["dim", "2", "x", "0", "0"],
        ["decompose", ""],
        ["dim", "2", "-", "0", "0"],
        ["mult", "4", "0", "0", "0x1"],
        ["verify", "--max-m", "1.5"],
    ])
    def test_not_an_ascii_decimal(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument ")
        assert "not an ASCII decimal integer" in err


@pytest.mark.parametrize("argv", [
    ["decompose", "--format", "json", "2"],
    ["decompose", "--format=json", "2"],
    ["decompose", "2", "--form", "json"],
    ["decompose", "--f=json", "--", "2"],
    ["decompose", "2", "--format", "csv", "--format", "json"],
], ids=" ".join)
def test_argv_forms_read_the_same(argv):
    assert run(argv) == run(["decompose", "2", "--format", "json"])


@pytest.mark.parametrize("argv", [
    ["dim", "40", "-4", "8", "8"],
    ["dim", "--", "40", "-4", "8", "8"],
    ["dim", "40", "-4", "--format", "text", "8", "8"],
], ids=" ".join)
def test_negative_numbers_are_arguments(argv):
    assert run(argv) == (0, "6957\n", "")


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["decompose", "2", "--he"], ["verify", "-h"],
    ["frobnicate", "--help"], ["decompose", "x", "--help"],
], ids=" ".join)
def test_help_anywhere_prints_the_usage(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr().out
    assert info.value.code == 0 and out.startswith("usage: symcube COMMAND")
    assert all(f"\n  {name} " in out for name in cli._COMMANDS)


@pytest.mark.parametrize("argv", [
    [], ["--", "decompose", "2"], ["-x", "decompose", "2"],
    ["decompose", "2", "3"], ["decompose", "2", "--bogus"],
    ["decompose", "--format"], ["decompose", "2", "--format", "--help=x"],
    ["decompose", "2", "--", "--help"], ["decompose", "2", "-hx"],
    ["verify", "--m", "3"], ["verify", "--mode", "fast"], ["verify", "--"],
    ["decompose", "2", "--format=json", "--"], ["greedy"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_other_argv_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def outcome(argv):
    """The parsed arguments of argv, the message of its usage error, or
    "help" where it prints the usage."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli._parse(argv)[1])
    except SystemExit as exc:
        assert exc.code == 0
        return "help"
    except cli.UsageError as exc:
        return str(exc)


def parsed(**values):
    return {"format": "text", "max_m": None, "mode": "ci", **values}


GRAMMAR = [
    # help: -h, or a prefix of --help of 3 characters or more, before "--"
    (["decompose", "2", "--h"], "help"),
    (["greedy", "-h", "--", "x"], "help"),
    (["decompose", "2", "--", "-h"], "unrecognized arguments: -h"),
    # the command is argv[0]
    (["2", "decompose"], "argument command: invalid choice: '2' (choose "
     "from 'dim', 'mult', 'decompose', 'character', 'greedy', 'verify')"),
    # an option is --NAME or --NAME=VALUE, NAME a unique prefix of one of
    # the command's options (--help among them, which takes no value)
    (["verify", "--mo=extended", "--max", "3"],
     parsed(mode="extended", max_m=3)),
    (["verify", "--m=3"], "ambiguous option: --m could match --max-m, "
     "--mode"),
    (["decompose", "2", "--=json"], "ambiguous option: -- could match "
     "--help, --format"),
    (["decompose", "2", "--help=x"], "unrecognized arguments: --help=x"),
    (["decompose", "2", "-f", "json"], "unrecognized arguments: -f"),
    # without "=", the value is the next token: before "--", not an option
    (["verify", "--max-m", "-1"], "argument --max-m: must be non-negative, "
     "got -1"),
    (["verify", "--max-m", "--mode", "ci"], "argument --max-m: expected one "
     "argument"),
    (["decompose", "--format", "--", "2"], "argument --format: expected one "
     "argument"),
    # every other token, and every token after the first "--", fills the
    # next positional; "-" and "-" then decimal digits are not options
    (["dim", "40", "-4", "-0", "-"], "argument l3: not an ASCII decimal "
     "integer: '-'"),
    (["greedy", "-"], parsed(file="-")),
    (["greedy", "--", "-1.5"], parsed(file="-1.5")),
    (["greedy", "--", "--"], parsed(file="--")),
    (["decompose", "2", "--", "3"], "unrecognized arguments: 3"),
    # a "--" with nothing after it is refused
    (["decompose", "2", "--"], "unrecognized arguments: --"),
    (["decompose", "2", "--format", "json", "--"],
     "unrecognized arguments: --"),
    (["decompose", "2", "--format=json", "--"], "unrecognized arguments: --"),
    (["verify", "--"], "unrecognized arguments: --"),
    # a token that starts with "-" and is neither an option nor an integer
    (["greedy", "-1.5"], "unrecognized arguments: -1.5"),
    (["greedy", "-x y"], "unrecognized arguments: -x y"),
    # help wins over an ambiguous prefix before it
    (["verify", "--m", "--help"], "help"),
]


@pytest.mark.parametrize("argv,want", GRAMMAR,
                         ids=[" ".join(argv) for argv, _ in GRAMMAR])
def test_the_documented_grammar(argv, want):
    assert outcome(argv) == want


def test_a_float_is_a_file_only_after_dashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["greedy", "-1.5"]) == (
        1, "", "usage error: unrecognized arguments: -1.5\n")
    code, out, err = run(["greedy", "--", "-1.5"])
    assert (code, out) == (2, "") and "'-1.5'" in err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts the descriptors in /proc/self/fd")
def test_a_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # main, called in process three times on a pipe whose read end is
    # closed, points stdout at devnull and closes the descriptor it opened
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["decompose", "60"]) == 141
            monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before
