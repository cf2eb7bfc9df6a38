import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.cli import main
from ringlab.graphs import from_edge_list, from_json
from ringlab.fields import QQ
from ringlab.monomials import (
    Presentation,
    fiber_product_presentation,
    format_monomial,
    parse_poly,
    presentation_from_json,
)
from test_sr_invariants import projective_plane_ideal


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


def test_graph_cliques_of_a_large_clique(capsys):
    code, out = run_cli(capsys, "graph", "cliques", "--name", "k1100")
    assert code == 0
    assert out.startswith("n: 1100\nmaximal_cliques: [[1, 2, 3,")


def test_ring_invariants_sigma_k2(capsys):
    code, out = run_cli(capsys, "ring", "invariants", "--name", "sigma:k2")
    assert code == 0
    assert json.loads(out) == {
        "cm": True,
        "depth": {"fp:2": 2, "q": 2},
        "dim": 2,
        "f_vector": [1, 4, 3],
        "hilbert_numerator": [1, 2],
        "multiplicity": 3,
    }


def test_ring_presentation_file_round_trip(tmp_path, capsys):
    text = '{"vars": ["x", "y"], "gens": ["x^2", "x*y", "y^2"], "field": "q"}'
    pres = presentation_from_json(text)
    again = json.dumps({"vars": list(pres.ambient), "gens": pres.gen_strings(), "field": str(pres.field)})
    assert presentation_from_json(again) == pres
    path = tmp_path / "ring.json"
    path.write_text(text)
    code, out = run_cli(capsys, "ring", "invariants", "--input", str(path))
    assert code == 0
    assert json.loads(out)["dim"] == 0


def _projective_plane_json() -> dict:
    ideal = projective_plane_ideal()
    return {"vars": list(ideal.ambient), "gens": [format_monomial(ideal.ambient, g) for g in ideal.gens]}


@pytest.mark.parametrize(
    "ring, field, expected",
    [
        (
            {"vars": ["a", "b", "c", "d", "e"], "gens": ["a*b", "b*c", "c*d", "d*e", "a*e"]},
            None,
            {"cm": True, "depth": {"fp:2": 2, "q": 2}, "dim": 2, "f_vector": [1, 5, 5],
             "hilbert_numerator": [1, 3, 1], "multiplicity": 5},
        ),
        (
            _projective_plane_json(),
            None,
            {"cm": False, "depth": {"fp:2": 2, "q": 3}, "dim": 3, "f_vector": [1, 6, 15, 10],
             "hilbert_numerator": [1, 3, 6], "multiplicity": 10},
        ),
        (
            _projective_plane_json(),
            "fp:3",
            {"cm": True, "depth": {"fp:3": 3}, "dim": 3, "f_vector": [1, 6, 15, 10],
             "hilbert_numerator": [1, 3, 6], "multiplicity": 10},
        ),
    ],
    ids=["c5", "rp2", "rp2-fp3"],
)
def test_uncertified_rings_reach_the_hochster_scan(ring, field, expected, tmp_path, capsys, monkeypatch):
    # the pentagon (a CM circle) has no shedding certificate and the
    # projective plane is not flag, so depth and the CM check scan subsets
    from ringlab.sr_invariants import _Scan

    scans = []
    top_hochster = _Scan.top_hochster
    monkeypatch.setattr(_Scan, "top_hochster", lambda scan, *args: scans.append(args) or top_hochster(scan, *args))
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    code, out = run_cli(capsys, "ring", "invariants", "--input", str(path), *(["--field", field] if field else []))
    assert code == 0
    assert json.loads(out) == expected
    assert scans


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


@pytest.mark.parametrize(
    "gen, dim_k, hilbert, socle_dim",
    [("x^2 - y^3", 9, [1, 2, 2, 2, 2], 2), ("x - y^2", 5, [1, 1, 1, 1, 1], 1)],
    ids=["cusp", "smooth"],
)
def test_artin_input_reads_the_filtration_off_the_normal_forms(gen, dim_k, hilbert, socle_dim, tmp_path, capsys):
    # non-monomial presentations: the Hilbert function is not a count of the
    # basis monomials by degree, and the search probes m/m^2 off the normal forms
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "gens": [gen], "field": "fp:3"}))
    code, out = run_cli(capsys, "artin", "--input", str(path), "--trunc", "5", "--mode", "full")
    assert code == 0
    assert json.loads(out) == {
        "decomposition": {"found": False, "mode": "full", "order": 5, "witness": None},
        "dim_k": dim_k,
        "gorenstein": None,
        "hilbert": hilbert,
        "order": 5,
        "socle_dim": socle_dim,
    }


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


def test_resolve_builds_hom_of_the_module_and_its_dual_only(monkeypatch, capsys):
    # Hom(M, A) once and Hom(M*, A) once; semidualizing builds no Hom(M, M)
    import ringlab.modules

    built = []
    real = ringlab.modules.hom_module
    monkeypatch.setattr(ringlab.modules, "hom_module", lambda m, n: built.append(n.label) or real(m, n))
    code, _ = run_cli(
        capsys, "resolve", "--name", "ex54R", "--field", "fp:2", "--trunc", "3", "--module", "cyclic:z", "--bound", "5"
    )
    assert code == 0
    assert built == ["A", "A"]


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


def test_verify_ex54_at_the_bound_cap(capsys):
    # the cap admits 12: Ext^12 needs the resolution to degree 13 internally
    code, out = run_cli(capsys, "verify", "ex54", "--bound", "12")
    assert code == 0
    assert "1/1 passed" in out


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


def test_ring_invariants_enumerates_the_full_complex_once(monkeypatch, capsys):
    # the f-vector, Hilbert series and multiplicity share one count of the faces
    from ringlab.sr_invariants import _Scan

    full_scans = []
    faces_by_size = _Scan.faces_by_size

    def counting(scan, wfv, smax):
        if wfv == scan.face_verts and smax == scan.n:
            full_scans.append(scan)
        return faces_by_size(scan, wfv, smax)

    monkeypatch.setattr(_Scan, "faces_by_size", counting)
    code, out = run_cli(capsys, "ring", "invariants", "--name", "sigma:k2", "--field", "fp:2")
    assert code == 0
    assert json.loads(out)["f_vector"] == [1, 4, 3]
    assert len(full_scans) == 1


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


def test_field_option_reads_the_generators_in_that_field(tmp_path, capsys):
    # x^2 - y^2 = (x - y)(x + y) over GF(3) has a zero-product pair of linear
    # forms; read as x^2 + y^2 (its GF(5) reduction, reformatted) it has none
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x", "y"], "gens": ["x^2 - y^2"], "field": "fp:5"}')
    code, out = run_cli(capsys, "artin", "--input", str(path), "--field", "fp:3", "--trunc", "4", "--mode", "full")
    assert code == 0
    assert json.loads(out)["decomposition"]["found"] is True


def test_field_option_skips_the_files_own_field(tmp_path, capsys):
    # 1/2 has no value in GF(2), but the generators are read only over q
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x", "y"], "gens": ["1/2*x^2 + y^2"], "field": "fp:2"}')
    code, out = run_cli(capsys, "artin", "--input", str(path), "--field", "q", "--trunc", "3")
    assert code == 0
    assert json.loads(out)["dim_k"] == 5


def test_fiber_product_with_a_renamed_variable_is_read_back(tmp_path, capsys):
    # k[x]/(x^2) times itself over k renames the right factor's x to x_
    square = Presentation(["x"], [parse_poly(["x"], "x^2", QQ)], QQ)
    fp = fiber_product_presentation(square, square)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"vars": list(fp.ambient), "gens": fp.gen_strings(), "field": "q"}))
    code, out = run_cli(capsys, "artin", "--input", str(path), "--trunc", "3")
    assert code == 0
    assert json.loads(out)["dim_k"] == 3


def test_file_keeps_its_own_field_without_the_option(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x", "y"], "gens": ["x^2 - y^2"], "field": "fp:3"}')
    code, out = run_cli(capsys, "artin", "--input", str(path), "--trunc", "4", "--mode", "full")
    assert code == 0
    decomposition = json.loads(out)["decomposition"]
    # over q the search is refused with a reason; over GF(3) it runs
    assert "reason" not in decomposition
    assert decomposition["mode"] == "full" and decomposition["found"] is True


@pytest.mark.parametrize("verb", ["ring", "artin", "resolve"])
def test_file_field_is_checked_when_the_option_replaces_it(verb, tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x", "y"], "gens": ["x*y"], "field": "fp:4"}')
    argv = [verb] + (["invariants"] if verb == "ring" else []) + ["--input", str(path), "--field", "q"]
    code, err = run_cli_error(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "4 is not prime" in err


def test_input_directory_exits_two(tmp_path, capsys):
    code, err = run_cli_error(capsys, "ring", "invariants", "--input", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_verify_oversized_corpus_exits_two_without_enumerating(monkeypatch, capsys):
    import ringlab.verify

    def refuse(n):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ringlab.verify, "enumerate_graphs", refuse)
    # 2^28 labeled graphs at n = 8: the starred ones alone outgrow memory
    for suite, max_n in (("thmA", "9"), ("thmA", "8"), ("all", "8")):
        code, err = run_cli_error(capsys, "verify", suite, "--max-n", max_n)
        assert code == 2
        assert err.startswith("error:") and "n <= 7" in err


def test_oversized_truncation_exits_two_without_building(monkeypatch, capsys):
    import ringlab.artin

    def refuse(p, n):
        raise AssertionError("truncation started")

    monkeypatch.setattr(ringlab.artin, "_truncate_monomial", refuse)
    monkeypatch.setattr(ringlab.artin, "_truncate_general", refuse)
    code, err = run_cli_error(capsys, "artin", "--name", "kprime:p3", "--trunc", "1000000")
    assert code == 2
    assert err.startswith("error:") and "monomials below the order" in err


@pytest.mark.parametrize(
    "names, field, order, shape",
    [
        # 12,870 monomials below order 9 in 8 variables pass the monomial cap,
        # but one quadric needs 3,003 relation rows: ~3.9e7 dense cells
        ("abcdefgh", "fp:2", "9", "3003 x 12870"),
        # 2.0e5 cells pass the GF(p) cap but take ~30 s over the rationals
        ("abcde", "q", "8", "252 x 792"),
    ],
    ids=["fp:2", "q"],
)
def test_oversized_relation_matrix_exits_two_without_building(names, field, order, shape, tmp_path, monkeypatch, capsys):
    import ringlab.artin

    def refuse(p, n):
        raise AssertionError("truncation started")

    monkeypatch.setattr(ringlab.artin, "_truncate_general", refuse)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"vars": list(names), "gens": ["a^2 + b*c"], "field": field}))
    code, err = run_cli_error(capsys, "artin", "--input", str(path), "--field", field, "--trunc", order)
    assert code == 2
    assert err.startswith("error:") and f"{shape} relation matrix" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ring", "invariants", "--name", "kdprime:p3:9"), "out of range"),
        (("resolve", "--name", "kprime:p3", "--bound", "-1"), "negative"),
        (("verify", "thmA", "--max-n", "0"), "empty corpus"),
        (("verify", "ex54", "--bound", "-1"), "negative"),
        (("resolve", "--name", "ex54R", "--module", "cyclic:w"), "unknown variable 'w'"),
        # an empty name list would resolve A/(0), the free module
        (("resolve", "--name", "ex54R", "--module", "cyclic:"), "names no variable"),
        (("resolve", "--name", "ex54R", "--module", "cyclic:,"), "names no variable"),
    ],
)
def test_out_of_range_argument_exits_two(argv, message, capsys):
    code, err = run_cli_error(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err


def test_resolve_refuses_an_oversized_hom_system_before_any_elimination(monkeypatch, capsys):
    # sigma(P3) at order 4 has dimension 54, so Hom(A, A) would be a
    # 17496 x 2916 system (5.1e7 cells); uncapped, the command ran for minutes
    import ringlab.modules

    def refuse(*args):
        raise AssertionError("elimination started")

    monkeypatch.setattr(ringlab.modules, "null_space", refuse)
    code, err = run_cli_error(
        capsys, "resolve", "--name", "sigma:p3", "--field", "fp:2", "--trunc", "4", "--module", "free", "--bound", "1"
    )
    assert code == 2
    assert err.startswith("error:") and "17496 x 2916 system" in err


def test_resolve_refuses_the_double_dual_hom_system_before_any_resolution(monkeypatch, capsys):
    # Hom(M*, A) is sized only once M* = Hom(k, A) exists; its 10044 x 1674
    # system was refused only after the resolutions, 66 s in at bound 4
    import ringlab.modules

    def refuse(*args):
        raise AssertionError("resolution started")

    monkeypatch.setattr(ringlab.modules, "_resolution_step", refuse)
    code, err = run_cli_error(
        capsys, "resolve", "--name", "sigma:p3", "--field", "fp:2", "--trunc", "4", "--module", "k", "--bound", "6"
    )
    assert code == 2
    assert err.startswith("error:") and "Hom(Hom(k,A),A)" in err


def test_ring_invariants_refuses_a_huge_exponent_before_polarizing(tmp_path, monkeypatch, capsys):
    # x^3000000 would polarize to three million variables: the CLI refuses
    # with exit 2 without building them
    import ringlab.sr_invariants

    def refuse(ideal):
        raise AssertionError("polarized before the size refusal")

    monkeypatch.setattr(ringlab.sr_invariants, "polarize", refuse)
    path = tmp_path / "ring.json"
    path.write_text('{"vars": ["x"], "gens": ["x^3000000"]}')
    code, err = run_cli_error(capsys, "ring", "invariants", "--input", str(path))
    assert code == 2
    assert err.startswith("error:") and "size limit exceeded: 3000000 variables after polarization" in err


def test_ring_invariants_refuses_an_oversized_ring_before_the_face_search(monkeypatch, capsys):
    # sigma(E8) polarizes to 16 variables: depth refuses it, and krull_dim's
    # face search must not run first (on sigma(E20) it took 7 s before the
    # refusal)
    import ringlab.sr_invariants

    def refuse(*args):
        raise AssertionError("face search started")

    monkeypatch.setattr(ringlab.sr_invariants._Scan, "max_face_size", refuse)
    code, err = run_cli_error(capsys, "ring", "invariants", "--name", "sigma:e8")
    assert code == 2
    assert err.startswith("error:") and "size limit exceeded" in err


def _refuse_enumeration_and_pools(monkeypatch, cpus):
    import ringlab.verify

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration or a worker pool started")

    monkeypatch.setattr(ringlab.verify.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(ringlab.verify, "enumerate_graphs", refuse)
    monkeypatch.setattr(ringlab.verify, "ProcessPoolExecutor", refuse)


@pytest.mark.parametrize("threads", ["0", "-2", "5"])
def test_verify_thread_count_is_refused_before_enumerating(threads, monkeypatch, capsys):
    _refuse_enumeration_and_pools(monkeypatch, 4)
    code, err = run_cli_error(capsys, "verify", "thmA", "--threads", threads)
    assert code == 2
    assert err.startswith("error:") and "--threads must lie in 1..4" in err


@pytest.mark.parametrize("threads", ["1", "4"])
def test_verify_accepts_thread_counts_up_to_the_cpu_count(threads, monkeypatch):
    # the check lets these through to the enumeration, which comes before any pool
    _refuse_enumeration_and_pools(monkeypatch, 4)
    with pytest.raises(AssertionError, match="enumeration"):
        main(["verify", "thmA", "--threads", threads])


def _refuse_suites(monkeypatch):
    import ringlab.verify

    def refuse(*args, **kwargs):
        raise AssertionError("a suite started")

    # `verify all` runs theorem A's corpus first
    monkeypatch.setattr(ringlab.verify, "run_theorem_A_corpus", refuse)


@pytest.mark.parametrize("bound, message", [("-1", "negative bound"), ("13", "capped at 12")])
def test_verify_bound_is_refused_before_any_suite(bound, message, monkeypatch, capsys):
    _refuse_suites(monkeypatch)
    code, err = run_cli_error(capsys, "verify", "all", "--max-n", "5", "--bound", bound)
    assert code == 2
    assert err.startswith("error:") and message in err


def test_verify_empty_thmB_corpus_is_refused_before_any_suite(monkeypatch, capsys):
    # theorem A's corpus starts at one vertex and theorem B's at two, so
    # --max-n 1 leaves theorem B nothing to check
    _refuse_suites(monkeypatch)
    code, err = run_cli_error(capsys, "verify", "all", "--max-n", "1")
    assert code == 2
    assert err.startswith("error:") and "empty corpus: max_n = 1 < 2" in err


@pytest.mark.parametrize(
    "verb, text",
    [
        (("graph", "build"), '{"edges": []}'),
        (("graph", "build"), '{"n": 3}'),
        (("graph", "build"), '{"n": 3, "edges": 5}'),
        (("ring", "invariants"), '{"vars": 5, "gens": []}'),
        (("ring", "invariants"), '{"vars": ["x"], "gens": 5}'),
        (("ring", "invariants"), '{"vars": ["x"], "gens": [5]}'),
        (("ring", "invariants"), '{"vars": ["x"], "gens": ["x^2"], "field": 7}'),
    ],
)
def test_malformed_json_input_exits_two(verb, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, err = run_cli_error(capsys, *verb, "--input", str(path))
    assert code == 2
    assert err.startswith("error:")


_json_leaf = st.none() | st.integers(-2, 6) | st.text("xy12^*+-/:fpq", max_size=4)
_json_value = st.recursive(_json_leaf, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_json_object = st.dictionaries(
    st.sampled_from(["n", "edges", "vars", "gens", "field", "other"]), _json_value, max_size=5
)


@settings(max_examples=300, deadline=None)
@given(obj=_json_object | _json_value)
def test_json_loaders_load_or_raise_value_error(obj):
    text = json.dumps(obj)
    for load in (from_json, presentation_from_json):
        try:
            load(text)
        except ValueError:
            pass
