import argparse
import json
import random

import pytest

from artinfix.cli import build_parser, main

TRI = "edge a b 3; edge a c 3; edge b c 3"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate(capsys):
    code, out = run(capsys, ["validate", "--graph-text", TRI])
    assert code == 0
    assert "a b 3" in out and "budgets" in out


def test_validate_error(capsys):
    code = main(["validate", "--graph-text", "edge a b 2"])
    assert code == 1
    assert "COEFFICIENT_BELOW_3" in capsys.readouterr().err


def test_autgen(capsys):
    code, out = run(capsys, ["autgen", "--graph-text", TRI, "--format", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_classify_sigma(capsys):
    code, out = run(
        capsys, ["classify", "--graph-text", TRI, "--aut", "graph a>b b>a"]
    )
    assert code == 0
    assert "Artin[c] * F_1" in out
    assert "a b a" in out


def test_fix_gens_json(capsys):
    code, out = run(
        capsys,
        ["fix-gens", "--graph-text", TRI, "--aut", "conj a", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 5


def test_verify(capsys):
    code, out = run(
        capsys,
        ["verify", "--graph-text", TRI, "--aut", "conj a b c a b c"],
    )
    assert code == 0
    assert "PASS" in out and "verified    True" in out


def test_dihedral_nf(capsys):
    code, out = run(capsys, ["dihedral", "nf", "--m", "3", "--word", "a b a"])
    assert code == 0
    assert "power     1" in out


def test_dihedral_nf_deep_word(capsys):
    # the 20,000-letter m = 5 word of test_garside.py::test_deep_words_stay_linear
    rng = random.Random(5)
    letters = [(rng.randint(0, 1), rng.choice((1, -1))) for _ in range(20000)]
    word = " ".join("ab"[x] + ("-" if s < 0 else "") for x, s in letters)
    code, out = run(capsys, ["dihedral", "nf", "--m", "5", "--word", word])
    assert code == 0
    assert out.startswith("power")


def test_dihedral_nf_80000_letters(capsys):
    # spelling is linear too: the left fraction is written down, not cancelled
    # one simple at a time
    rng = random.Random(8)
    letters = [(rng.randint(0, 1), rng.choice((1, -1))) for _ in range(80000)]
    word = " ".join("ab"[x] + ("-" if s < 0 else "") for x, s in letters)
    code, out = run(capsys, ["dihedral", "nf", "--m", "5", "--word", word])
    assert code == 0
    assert out.startswith("power")


def test_dihedral_header_echoes_only_the_radius_it_reads(capsys):
    for argv in (["nf", "--word", "a b"], ["fix", "--aut", "conj a"]):
        code, out = run(capsys, ["dihedral", *argv, "--m", "3", "--radius", "2",
                                 "--format", "json"])
        assert code == 0
        assert json.loads(out)["budgets"] == {}
    code, out = run(capsys, ["dihedral", "tree", "--m", "4", "--aut", "conj a",
                             "--radius", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["budgets"] == {"radius": 2}


def test_dihedral_fix(capsys):
    code, out = run(
        capsys,
        ["dihedral", "fix", "--m", "4", "--aut", "graph a>b b>a ; invert", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "Z"
    assert data["generators"][0] in ("a- b- a b", "a b a- b-", "b a b- a-", "b- a- b a")


def test_dihedral_fix_long_conjugator_is_exact(capsys):
    # the root of the twisted product is far outside any small ball
    code, out = run(capsys, ["dihedral", "fix", "--m", "3", "--aut", "conj a^40 b^-40 ; invert"])
    assert code == 0
    assert "span        the fixed subgroup" in out


def test_dihedral_tree(capsys):
    code, out = run(
        capsys,
        ["dihedral", "tree", "--m", "4", "--aut", "graph a>b b>a", "--radius", "2"],
    )
    assert code == 0
    assert "inverted midpoints (1)" in out


def test_deligne_ball_and_fixed(capsys):
    code, out = run(
        capsys,
        ["deligne", "ball", "--graph-text", TRI, "--radius", "1", "--format", "json"],
    )
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 7
    code, out = run(
        capsys,
        [
            "deligne", "fixed", "--graph-text", TRI, "--radius", "1",
            "--aut", "graph a>b b>a",
        ],
    )
    assert code == 0
    assert "1|ab" in out and "1|c" in out


def test_graph_emit(capsys):
    code, out = run(capsys, ["graph", "emit", "--graph-text", TRI])
    assert code == 0 and "graph G {" in out
    code, out = run(
        capsys,
        ["graph", "emit", "--graph-text", TRI, "--odd-base", "a", "--sigma", ""],
    )
    assert code == 0 and "label" in out


def test_oracle_eq(capsys):
    code, out = run(capsys, ["oracle", "eq", "--graph-text", TRI, "a b a", "b a b"])
    assert code == 0
    assert out.startswith("EQUAL")


def test_oracle_eq_coxeter_refutation(capsys):
    # a b c and a c b have the same height and abelianization; their images
    # in the Coxeter group differ, so the verdict is definite and --strict passes
    code, out = run(capsys, ["oracle", "eq", "--graph-text", TRI, "a b c", "a c b", "--strict"])
    assert code == 0
    assert out.splitlines()[0] == "NOT_EQUAL (coxeter, 0 expansions)"


def test_strict_exit_code(capsys):
    code, out = run(
        capsys,
        ["oracle", "eq", "--graph-text", TRI, "--budget", "1", "--strict",
         "a b c a b c a", "a a b c a b c"],
    )
    assert code in (0, 2)  # 2 exactly when the verdict stayed UNKNOWN
    if "UNKNOWN" in out:
        assert code == 2


def test_byte_identical_reruns(capsys):
    argv = ["classify", "--graph-text", TRI, "--aut", "conj a", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_graph_file_input(tmp_path, capsys):
    gfile = tmp_path / "tri.g"
    gfile.write_text("edge a b 3\nedge a c 3\nedge b c 3\n")
    code, out = run(capsys, ["classify", "--graph", str(gfile), "--aut", "conj a"])
    assert code == 0
    assert "Z x F_4" in out


def test_cross_process_determinism(tmp_path):
    # same invocation, different interpreter processes and hash seeds:
    # byte-identical output
    import os
    import subprocess
    import sys

    gfile = tmp_path / "tri.g"
    gfile.write_text("edge a b 3\nedge a c 3\nedge b c 3\n")
    argv = [
        sys.executable, "-m", "artinfix.cli", "classify",
        "--graph", str(gfile), "--aut", "conj a", "--format", "json",
    ]
    outputs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        # input faults
        ["dihedral", "nf", "--m", "3"],
        ["oracle", "eq", "--graph-text", TRI, "d", "a"],
        ["deligne", "ball", "--graph-text", TRI, "--radius", "1", "--displacement", "d"],
        ["validate", "--graph", "{missing}"],
        ["graph", "emit", "--graph-text", TRI, "--odd-base", "d"],
        # negative knobs
        ["deligne", "ball", "--graph-text", TRI, "--radius", "-2"],
        ["dihedral", "tree", "--m", "4", "--radius", "-1"],
        ["verify", "--graph-text", TRI, "--aut", "conj a", "--budget", "-1"],
        ["classify", "--graph-text", TRI, "--aut", "conj a", "--search-len", "-1"],
        ["deligne", "ball", "--graph-text", TRI, "--radius", "1", "--local-bound", "-1"],
        # usage errors, including options the subcommand does not read
        ["classify", "--graph-text", TRI, "--aut", "conj a", "--budget", "5"],
        ["classify", "--graph-text", TRI, "--aut", "conj a", "--radius", "3"],
        ["validate", "--graph-text", TRI, "--budget", "5"],
        ["validate", "--graph-text", TRI, "--format", "dot"],
        ["classify", "--graph-text", TRI],
        ["no-such-command"],
    ],
)
def test_bad_input_is_a_coded_error(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing.g") for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_each_command_registers_only_the_options_it_reads(capsys):
    graph = {"graph", "graph_text"}
    classify_opts = graph | {"format", "aut", "search_len", "strict"}
    expected = {
        "validate": graph | {"format"},
        "autgen": graph | {"format"},
        "classify": classify_opts,
        "fix-gens": classify_opts,
        "verify": classify_opts | {"budget"},
        "dihedral": {"m", "word", "aut", "radius", "format", "strict"},
        "deligne": graph | {"budget", "radius", "format", "strict", "aut", "local_bound",
                            "displacement"},
        "graph": graph | {"sigma", "odd_base", "style"},
        "oracle": graph | {"budget", "format", "strict"},
    }
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    got = {
        name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        for name, p in subparsers.choices.items()
    }
    assert got == expected
    assert sum(len(d) for d in got.values()) == 50
    dot = {name for name, p in subparsers.choices.items()
           for a in p._actions if a.dest == "format" and "dot" in a.choices}
    assert dot == {"dihedral", "deligne"}

    code, out = run(capsys, ["classify", "--graph-text", TRI, "--aut", "conj a"])
    assert code == 0
    assert "budgets     {'search_len': 4}" in out
    code, out = run(capsys, ["deligne", "ball", "--graph-text", TRI, "--radius", "1",
                             "--local-bound", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["budgets"] == {"radius": 1, "local_bound": 2}
    code, out = run(capsys, ["deligne", "ball", "--graph-text", TRI, "--radius", "1",
                             "--local-bound", "2", "--displacement", "a", "--format", "json"])
    assert code == 0
    assert json.loads(out)["budgets"] == {"budget": 100000, "radius": 1, "local_bound": 2}


def test_single_edge_header_omits_search_len(capsys):
    # a one-edge graph is decided by dihedral_fix, which reads no search length
    argv = ["--graph-text", "edge a b 3", "--aut", "conj a", "--search-len", "0"]
    code, out = run(capsys, ["classify", *argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)["budgets"] == {}
    code, out = run(capsys, ["verify", *argv])
    assert code == 0
    assert "budgets     {'budget': 100000}" in out
    code, out = run(capsys, ["fix-gens", *argv, "--format", "json"])
    assert json.loads(out)["budgets"] == {}


def test_dihedral_tree_large_radius_axis(capsys):
    # the fixed axis is grown from the base vertex: no scan of the radius-40
    # ball, with its 2 * 3^40 - 1 vertices, would finish
    argv = ["dihedral", "tree", "--m", "4", "--aut", "graph a>b b>a ; invert",
            "--radius", "40", "--format", "json"]
    code, out = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert len(data["fixed_vertices"]) == 81
    assert data["midpoints"] == []
