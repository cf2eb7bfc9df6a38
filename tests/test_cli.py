import json

from ringlab.cli import main
from ringlab.graphs import from_edge_list, from_json
from ringlab.monomials import presentation_from_json, presentation_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_whisker_k3(capsys):
    code, out = run_cli(capsys, "graph", "whisker", "--name", "k3")
    assert code == 0
    g = from_edge_list(out)
    assert g.n == 6 and len(g.edges) == 6


def test_graph_round_trip_json(tmp_path, capsys):
    code, out = run_cli(capsys, "graph", "build", "--name", "c4", "--output", "json")
    assert code == 0
    g = from_json(out)
    path = tmp_path / "c4.json"
    path.write_text(out)
    code2, out2 = run_cli(capsys, "graph", "complement", "--input", str(path), "--output", "json")
    assert code2 == 0
    assert from_json(out2).n == g.n


def test_graph_edge_list_round_trip(tmp_path, capsys):
    code, out = run_cli(capsys, "graph", "build", "--name", "p4")
    path = tmp_path / "p4.edges"
    path.write_text(out)
    code2, out2 = run_cli(capsys, "graph", "build", "--input", str(path))
    assert code == code2 == 0
    assert out == out2


def test_graph_cliques(capsys):
    code, out = run_cli(capsys, "graph", "cliques", "--name", "k3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["maximal_cliques"] == "[[1, 2, 3]]"


def test_ring_invariants_sigma_k2(capsys):
    code, out = run_cli(capsys, "ring", "invariants", "--name", "sigma:k2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["cm"] is True
    assert payload["depth"] == {"q": 2, "fp:2": 2}
    assert payload["f_vector"] == [1, 4, 3]
    assert payload["multiplicity"] == 3


def test_ring_presentation_file_round_trip(tmp_path, capsys):
    text = '{"vars": ["x", "y"], "gens": ["x^2", "x*y", "y^2"], "field": "q"}'
    pres = presentation_from_json(text)
    assert presentation_from_json(presentation_to_json(pres)) == pres
    path = tmp_path / "ring.json"
    path.write_text(text)
    code, out = run_cli(capsys, "ring", "invariants", "--input", str(path))
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_artin_verb(capsys):
    code, out = run_cli(
        capsys, "artin", "--name", "ex45", "--field", "fp:5", "--trunc", "4", "--mode", "full"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_k"] == 7
    assert payload["socle_dim"] == 2
    assert payload["decomposition"]["found"] is True
    assert payload["gorenstein"] is None  # non-monomial: precondition unverifiable


def test_artin_over_q_has_no_search(capsys):
    code, out = run_cli(capsys, "artin", "--name", "kprime:p3", "--field", "q", "--trunc", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"]["found"] is None
    assert payload["gorenstein"] is False
    assert payload["hilbert"] == [1, 3, 1]


def test_resolve_verb(capsys):
    code, out = run_cli(
        capsys,
        "resolve",
        "--name",
        "ex54R",
        "--field",
        "fp:2",
        "--trunc",
        "3",
        "--module",
        "cyclic:z",
        "--bound",
        "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 1, 1, 1]
    assert payload["totally_reflexive_up_to"] == 3
    assert payload["semidualizing_up_to"] is False


def test_resolve_k_module(capsys):
    code, out = run_cli(
        capsys, "resolve", "--name", "kprime:k2", "--field", "fp:2", "--trunc", "3",
        "--module", "k", "--bound", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"][0] == 1


def test_verify_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "thmB", "--max-n", "3")
    assert code == 0
    assert "passed" in out


def test_verify_json_schema_stable(capsys):
    code1, out1 = run_cli(capsys, "verify", "ex311", "--output", "json")
    code2, out2 = run_cli(capsys, "verify", "ex311", "--output", "json")
    assert code1 == code2 == 0
    r1 = json.loads(out1)
    r2 = json.loads(out2)
    for a, b in zip(r1, r2):
        a.pop("seconds")
        b.pop("seconds")
    assert r1 == r2
    assert {"check", "instance", "passed", "witness"} <= set(r1[0].keys())


def test_usage_error_exit_two(capsys):
    code = main(["ring", "invariants"])  # neither --input nor --name
    assert code == 2
    code = main(["artin", "--name", "nosuchring"])
    assert code == 2


def test_golden_ring_invariants(capsys):
    """Golden-file style: the exact JSON the CLI prints for a fixed input.

    The vertex-square quotient is artinian (dim 0); its Hilbert data refer to
    the polarized ring, and the non-squarefree input carries no f-vector.
    """
    code, out = run_cli(capsys, "ring", "invariants", "--name", "kprime:p3", "--field", "fp:2")
    assert code == 0
    assert json.loads(out) == {
        "cm": True,
        "depth": {"fp:2": 0},
        "dim": 0,
        "hilbert_numerator": [1, 3, 1],
        "multiplicity": 5,
    }


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_presentation_without_vars_exits_two(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text('{"gens": ["x^2"]}')
    code, err = run_cli_error(capsys, "ring", "invariants", "--input", str(path))
    assert code == 2
    assert err.startswith("error:") and "vars" in err


def test_zero_denominator_exits_two(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x"], "gens": ["1/0*x^2"]}')
    code, err = run_cli_error(capsys, "ring", "invariants", "--input", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_denominator_divisible_by_p_exits_two(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x"], "gens": ["1/3*x^2"], "field": "fp:3"}')
    code, err = run_cli_error(capsys, "artin", "--input", str(path), "--field", "fp:3")
    assert code == 2
    assert err.startswith("error:") and "mod 3" in err


def test_input_directory_exits_two(tmp_path, capsys):
    code, err = run_cli_error(capsys, "ring", "invariants", "--input", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_verify_oversized_corpus_exits_two_without_enumerating(monkeypatch, capsys):
    import ringlab.verify

    def refuse(n):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ringlab.verify, "enumerate_graphs", refuse)
    code, err = run_cli_error(capsys, "verify", "thmA", "--max-n", "9")
    assert code == 2
    assert err.startswith("error:") and "n <= 8" in err
