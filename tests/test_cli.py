import itertools
import random

import pytest

from conftest import run_cli
from gcanon import codec, core, filters, generate
from gcanon.canon import canonical_label
from gcanon.core import Graph, Permutation, permute_graph


def c5_relabellings():
    c5 = Graph.cycle(5)
    return [
        codec.encode_graph6(permute_graph(c5, Permutation(p)))
        for p in itertools.permutations(range(5))
    ]


def test_gen_counts_and_exit():
    code, out = run_cli(["gen", "4"])
    assert code == 0
    assert len(out.splitlines()) == 11
    code, out = run_cli(["gen", "1"])
    assert code == 0 and out == "@\n"


def test_gen_zero_vertices_fails(capsys):
    code, _ = run_cli(["gen", "0"])
    assert code == 2
    assert "zero-vertex graphs are not supported" in capsys.readouterr().err


def test_gen_bipartite_count():
    code, out = run_cli(["gen", "6", "--bipartite"])
    assert code == 0 and len(out.splitlines()) == 35


def test_gen_flags():
    code, out = run_cli(["gen", "5", "--connected", "--min-edges", "4", "--max-edges", "5"])
    assert code == 0
    for line in out.splitlines():
        g = codec.decode(line)
        assert g.is_connected() and 4 <= g.num_edges() <= 5


def test_rand_degenerate_and_deterministic():
    code, out = run_cli(["rand", "5", "3", "0", "--seed", "7"])
    assert code == 0
    assert all(codec.decode(line) == Graph.empty(5) for line in out.splitlines())
    code, out = run_cli(["rand", "5", "3", "1", "--seed", "7"])
    assert code == 0 and out == "D~{\nD~{\nD~{\n"
    first = run_cli(["rand", "10", "100", "0.3", "--seed", "1"])
    second = run_cli(["rand", "10", "100", "0.3", "--seed", "1"])
    assert first == second


def test_rand_bad_probability(capsys):
    code, _ = run_cli(["rand", "5", "3", "1.5"])
    assert code == 2


def test_label_identifies_relabellings():
    lines = c5_relabellings()
    code, out = run_cli(["label"], "\n".join(lines[:2]) + "\n")
    assert code == 0
    a, b = out.splitlines()
    assert a == b
    code, out = run_cli(["label"], "\n".join(lines) + "\n")
    assert code == 0
    assert len(set(out.splitlines())) == 1
    assert len(out.splitlines()) == 120


def test_label_idempotent_and_closes_pipeline():
    _, generated = run_cli(["gen", "5"])
    _, labelled = run_cli(["label"], generated)
    assert labelled == generated
    _, twice = run_cli(["label"], labelled)
    assert twice == labelled


def test_short_collapses_isomorphs():
    lines = c5_relabellings()
    code, out = run_cli(["short"], "\n".join(lines) + "\n")
    assert code == 0
    assert out == lines[0] + "\n"
    code, out = run_cli(["short"], "")
    assert code == 0 and out == ""


def test_short_on_shuffled_duplicates():
    import random

    _, generated = run_cli(["gen", "5"])
    lines = generated.splitlines() * 2
    random.Random(1).shuffle(lines)
    code, out = run_cli(["short"], "\n".join(lines) + "\n")
    assert code == 0
    assert len(out.splitlines()) == 34
    _, again = run_cli(["short"], out)
    assert again == out


def test_pick_and_count():
    _, bipartite7 = run_cli(["gen", "7", "--bipartite"])
    code, out = run_cli(["count", "--filter", "NumCycles=0"], bipartite7)
    assert code == 0 and out == "37\n"
    code, out = run_cli(["pick", "--filter", "NumCycles=0"], bipartite7)
    assert code == 0
    assert len(out.splitlines()) == 37
    kept = set(out.splitlines())
    assert kept <= set(bipartite7.splitlines())
    code, out = run_cli(["pick", "--filter", ""], bipartite7)
    assert code == 0 and out == bipartite7


def test_count_tree_filter():
    _, bipartite8 = run_cli(["gen", "8", "--bipartite"])
    code, out = run_cli(["count", "--filter", "NumCycles=0,!Connectivity=0"], bipartite8)
    assert code == 0 and out == "23\n"


def test_bad_filter_spec(capsys):
    code, _ = run_cli(["count", "--filter", "Nope=1"], "")
    assert code == 2
    assert "Nope" in capsys.readouterr().err


def test_iso_exit_codes(capsys):
    code, out = run_cli(["iso", "Dhc", codec.encode_graph6(permute_graph(Graph.cycle(5), Permutation((0, 2, 4, 1, 3))))])
    assert code == 0 and out == "true\n"
    code, out = run_cli(["iso", "Dhc", "D~{"])
    assert code == 1 and out == "false\n"
    code, _ = run_cli(["iso", "Dhc", "not a graph"])
    assert code == 2
    capsys.readouterr()
    # the error names the argument that failed to decode
    for argv, position in ((["iso", "D h", "Dhc"], 1), (["iso", "Dhc", "D h"], 2)):
        code, _ = run_cli(argv)
        assert code == 2
        assert capsys.readouterr().err == f"gcanon: argument {position}: invalid byte 32 (byte offset 1)\n"
    # an argument is read byte for byte too: the first byte of U+00E9 is 195
    assert run_cli(["iso", "D\u00e9", "Dhc"])[0] == 2
    assert capsys.readouterr().err == "gcanon: argument 1: invalid byte 195 (byte offset 1)\n"


def test_iso_pairwise_sweep_subset():
    _, generated = run_cli(["gen", "5"])
    sample = generated.splitlines()[:8]
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            code, out = run_cli(["iso", a, b])
            assert (code == 0) == (i == j)
            assert out == ("true\n" if i == j else "false\n")


def test_stream_errors_carry_line_numbers(capsys):
    # The library names the failing item by its 0-based index, the CLI by its 1-based line.
    with pytest.raises(codec.CodecError, match="^item 1: ") as info:
        filters.filter_graphs(["Dhc", "D c"], filters.GraphFilter())
    message = str(info.value).removeprefix("item 1: ")
    for argv in (["label"], ["pick"], ["count"]):
        code, _ = run_cli(argv, "Dhc\nD c\n")
        assert code == 2
        assert capsys.readouterr().err == f"gcanon: line 2: {message}\n", argv
    code, _ = run_cli(["short"], "\nDhc\n")
    assert code == 2
    assert "line 1" in capsys.readouterr().err
    # One LF or CR LF ends a line, as in codec.decode; a further CR is a stray byte.
    assert run_cli(["label"], "Dhc\r\n") == (0, "DLo\n")
    code, _ = run_cli(["label"], "Dhc\r\r\n")
    assert code == 2
    assert "line 1:" in capsys.readouterr().err


def test_header_line_stripped(capsys):
    code, out = run_cli(["count", "--filter", ""], ">>graph6<<Dhc\nD~{\n")
    assert code == 0 and out == "2\n"
    code, out = run_cli(["count", "--filter", ""], ">>graph6<<\nDhc\n")
    assert code == 0 and out == "1\n"
    code, out = run_cli(["label"], ">>sparse6<<" + codec.encode_sparse6(Graph.cycle(5)) + "\n")
    assert code == 0
    _, from_g6 = run_cli(["label"], "Dhc\n")
    assert out == from_g6  # same class, same canonical line, whatever its string
    # Only the first line may carry a header; on a later line it is data.
    code, _ = run_cli(["label"], "Dhc\n>>graph6<<Dhc\n")
    assert code == 2
    assert "line 2:" in capsys.readouterr().err


def test_repro_tables():
    code, out = run_cli(["repro", "a000088", "--max-n", "6"])
    assert code == 0 and out == "(1, 2, 4, 11, 34, 156)\n"
    code, out = run_cli(["repro", "a000055", "--max-n", "4"])
    assert code == 0 and out == "(1, 1, 1, 2)\n"
    code, out = run_cli(["repro", "a005195", "--max-n", "5"])
    assert code == 0 and out == "(1, 2, 3, 6, 10)\n"


def test_repro_er_connectivity_shape():
    code, out = run_cli(["repro", "er-connectivity", "--max-n", "8", "--trials", "20", "--seed", "3"])
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 2
    high = eval(rows[0])
    low = eval(rows[1])
    assert len(high) == len(low) == 7  # n = 2..8
    assert all(0 <= x <= 20 for x in high + low)


def test_repro_er_connectivity_rejects_a_negative_trial_count_up_front(monkeypatch, capsys):
    # At --max-n 1 no row is built, so only an up-front check sees the count.
    def must_not_run(*args, **kwargs):
        raise AssertionError("sampling ran before the trial count check")

    monkeypatch.setattr(generate, "generate_random_graphs", must_not_run)
    for max_n in ("1", "3"):
        code, out = run_cli(["repro", "er-connectivity", "--max-n", max_n, "--trials", "-1"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "gcanon: sample count must be a non-negative int, got -1\n"
    monkeypatch.undo()
    code, out = run_cli(["repro", "er-connectivity", "--max-n", "3", "--trials", "0"])
    assert code == 0 and "(0, 0)" in out


def test_repro_unknown_experiment():
    code, _ = run_cli(["repro", "a999999"])
    assert code == 2


def test_label_runs_the_deepest_search_the_cap_admits():
    # The empty graph on VERTEX_CAP vertices individualises one vertex per
    # level, 63 levels deep, and twin seeds leave it one leaf.
    g = Graph.empty(core.VERTEX_CAP)
    code, out = run_cli(["label"], codec.encode_graph6(g) + "\n")
    assert code == 0
    assert out == codec.encode_graph6(canonical_label(g).canonical_graph) + "\n"


def test_repro_max_n_above_cap_fails_before_generating(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("generation ran before the cap check")

    monkeypatch.setattr(generate, "generate_graphs", must_not_run)
    monkeypatch.setattr(generate, "generate_random_graphs", must_not_run)
    for experiment in ("a000088", "er-connectivity"):
        for max_n, reason in (("65", "cap"), ("-1", "non-negative")):
            code, out = run_cli(["repro", experiment, "--max-n", max_n])
            assert code == 2 and out == ""
            assert reason in capsys.readouterr().err
    assert run_cli(["repro", "a000088", "--max-n", "0"]) == (0, "()\n")


def test_zero_count_has_one_message_everywhere(capsys):
    message = "zero-vertex graphs are not supported"
    for call in (
        lambda: generate.generate_graphs(0),
        lambda: generate.RandomModel(0, 1, 0.5),
        lambda: codec.decode("?"),
        lambda: codec.decode(":?"),
        lambda: Graph(0, ()),
        lambda: Graph.empty(0),
        lambda: Graph.from_edges(0),
        lambda: Graph.path(0),
        lambda: core.Colouring.unit(0),
    ):
        with pytest.raises(core.ZeroVertexError, match=f"^{message}$"):
            call()
    for argv in (["gen", "0"], ["rand", "0", "1", "0.5"]):
        assert run_cli(argv)[0] == 2
        assert capsys.readouterr().err == f"gcanon: {message}\n"
    assert run_cli(["label"], "?\n")[0] == 2
    assert capsys.readouterr().err == f"gcanon: line 1: {message}\n"


from conftest import run_module_cli as module_cli


def test_console_entry_point_subprocess():
    result = module_cli(["gen", "4"])
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 11
    result = module_cli(["iso", "Dhc", "D~{"])
    assert result.returncode == 1


def test_label_reads_stdin_byte_for_byte():
    # Each input byte is one character whatever the stream encoding, so byte
    # 255 is named by its value and line, after the lines before it are out.
    for env in (None, {"PYTHONIOENCODING": "utf-8"}):
        result = module_cli(["label"], b"Dhc\nDhc\nD\xffc\nDhc\n", env_extra=env)
        assert result.returncode == 2 and result.stdout == b"DLo\nDLo\n"
        assert result.stderr == b"gcanon: line 3: invalid byte 255 (byte offset 1)\n"


def test_vertex_cap_env_override_subprocess():
    # The cap is a constant: a 65-vertex G(65, 1/2) line, like gen 65, exits
    # 2 naming the cap, and GCANON_VERTEX_CAP no longer admits it.
    g6 = codec.graph6_from_key(65, random.Random(65).getrandbits(codec.triangle_bits(65)))
    for env in (None, {"GCANON_VERTEX_CAP": "70"}):
        for argv, stdin_text in ((["label"], g6 + "\n"), (["gen", "65"], "")):
            result = module_cli(argv, stdin_text, env_extra=env)
            assert result.returncode == 2 and result.stdout == ""
            assert "cap" in result.stderr
