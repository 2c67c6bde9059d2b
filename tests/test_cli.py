import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import tropstiefel.cli
from reference import J_of, cocircuit, entries, graph_to_json, plucker_proj_eq, plucker_vector, support_graph, values
from tropstiefel.cli import main
from tropstiefel.core import DomainError, TropMatrix, matrix_from_json, matrix_to_json
from tropstiefel.bipartite import (
    is_support_set,
    matching_multifield,
    multifield_to_json,
    random_support_set,
)
from tropstiefel.plucker import plucker_from_json, plucker_to_json, stiefel_map

STAIR = TropMatrix([[0, 0, "inf", "inf"], ["inf", 0, 0, "inf"], ["inf", "inf", 0, 0]])
FIG = TropMatrix([[0, 3, 0, "inf", "inf"], ["inf", 0, 0, 2, "inf"], ["inf", "inf", 0, 0, 0]])
TWO_ROW = TropMatrix([[0, 0, 0, 0], [0, 0, 1, 1]])


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_input(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_stiefel_command(tmp_path, capsys):
    path = write_input(tmp_path, matrix_to_json(STAIR))
    code, out = run(capsys, ["stiefel", "--input", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 3 and obj["n"] == 4
    assert all(v == "0" for v in obj["values"].values())


def test_stiefel_stdin(capsys, monkeypatch):
    code, out = run(
        capsys,
        ["stiefel", "--input", "-"],
        stdin=json.dumps(matrix_to_json(TWO_ROW)),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out) == plucker_to_json(stiefel_map(TWO_ROW))


def test_plucker_check_roundtrip(tmp_path, capsys):
    path = write_input(tmp_path, plucker_to_json(stiefel_map(FIG)))
    code, out = run(capsys, ["plucker-check", "--input", path])
    assert code == 0
    assert json.loads(out) == {"is_plucker": True}
    # rank 0: the one coordinate, on the empty set, has no relation to meet
    for doc in ({"d": 0, "n": 2, "values": {"": "0"}}, {"d": 0, "n": 0, "values": {"": "3"}}):
        code, out = run(capsys, ["plucker-check", "--input", write_input(tmp_path, doc, "rank0.json")])
        assert (code, json.loads(out)) == (0, {"is_plucker": True}), doc


def test_multifield_and_coherent(tmp_path, capsys):
    path = write_input(tmp_path, matrix_to_json(FIG))
    code, out = run(capsys, ["multifield", "--input", path])
    assert code == 0
    mf_obj = json.loads(out)
    path2 = write_input(tmp_path, mf_obj, "mf.json")
    code, out = run(capsys, ["coherent", "--input", path2])
    assert code == 0
    res = json.loads(out)
    assert res["coherent"] is True
    witness = matrix_from_json(res["witness"])
    assert witness.support() == FIG.support()
    # cyclic strict preferences on {1,2}, {2,3}, {1,3}: no height induces them
    cyclic = {frozenset(J): {cols} for J, cols in
              (((1, 2), (1, 2)), ((2, 3), (2, 3)), ((1, 3), (3, 1)), ((1, 4), (1, 4)), ((2, 4), (2, 4)), ((3, 4), (3, 4)))}
    path3 = write_input(tmp_path, multifield_to_json(cyclic), "cyclic.json")
    code, out = run(capsys, ["coherent", "--input", path3])
    assert code == 0 and json.loads(out) == {"coherent": False}


def test_support_set_command(tmp_path, capsys):
    G = support_graph(FIG)
    path = write_input(tmp_path, graph_to_json(G))
    code, out = run(capsys, ["support-set", "--input", path])
    assert code == 0
    assert json.loads(out) == {"h1": 2, "is_support_set": True}


def test_covectors_and_facets(tmp_path, capsys):
    path = write_input(tmp_path, matrix_to_json(TWO_ROW))
    code, out = run(capsys, ["covectors", "--input", path])
    assert code == 0
    cells = json.loads(out)
    assert len(cells) == 5
    code, out = run(capsys, ["facets", "--input", path])
    assert code == 0
    facets = json.loads(out)
    assert len(facets) == 2


def test_member_decompose_bounded(tmp_path, capsys):
    payload = {
        "matrix": matrix_to_json(STAIR),
        "vector": {"entries": ["-1", "0", "0", "0"]},
    }
    path = write_input(tmp_path, payload)
    code, out = run(capsys, ["member", "--input", path])
    assert code == 0
    assert json.loads(out) == {"in_L": False}

    payload["vector"] = {"entries": ["0", "1", "1", "0"]}
    path = write_input(tmp_path, payload, "in2.json")
    code, out = run(capsys, ["decompose", "--input", path])
    assert code == 0
    res = json.loads(out)
    assert res["in_L"] is True
    assert res["certificate"]["J"] == [2, 3]

    payload["vector"] = {"entries": ["0", "0", "0", "0"]}
    path = write_input(tmp_path, payload, "in3.json")
    code, out = run(capsys, ["bounded", "--input", path])
    assert code == 0
    assert json.loads(out) == {"in_bounded_part": True}


def test_recover_command(tmp_path, capsys):
    payload = {
        "plucker": plucker_to_json(stiefel_map(FIG)),
        "support": graph_to_json(support_graph(FIG)),
    }
    path = write_input(tmp_path, payload)
    code, out = run(capsys, ["recover", "--input", path])
    assert code == 0
    B = matrix_from_json(json.loads(out))
    assert plucker_proj_eq(stiefel_map(B), stiefel_map(FIG))


def test_recover_prints_only_a_matrix_that_maps_to_p(capsys, monkeypatch):
    """recover prints a matrix only when its Stiefel image is p up to one
    constant; otherwise it refuses with NOT_STIEFEL_ON_SUPPORT.  On 400
    seeded dense A, d in 2..3 and n <= 6, each with a random support set G
    (200 with whole entries, 100 with halves and thirds, and 100 with one
    offset per row, whose π has one denominator and the image of the
    recovered matrix often another): every printed matrix maps to π(A);
    every refusal is of a p whose rows read off G, the cocircuits of
    [n] ∖ J_i, do not map to it; and π of A cut down to G is always
    recovered.  Near-misses move one of the first two coordinates of that π
    by 1/2: one that recover does not read is refused, since the rows, and
    so their image, are those of π; one that it reads may be either."""
    rng = random.Random(36)
    refused, near = Counter(), Counter()
    for k in range(400):
        whole = k < 200
        d = rng.randint(2, 3)
        n = rng.randint(d, 6)
        if whole:
            A = TropMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(d)])
        elif k % 2:
            A = TropMatrix([[Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(d)])
        else:  # each row an int plus its own offset: π's coordinates share theirs, which d of them may not
            offsets = [rng.choice((0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))) for _ in range(d)]
            A = TropMatrix([[rng.randint(-20, 20) + c for _ in range(n)] for c in offsets])
        G = (d, n, random_support_set(rng, d, n))
        on_G = TropMatrix([[v if (i, j) in G[2] else "inf" for j, v in enumerate(row, 1)] for i, row in enumerate(entries(A), 1)])
        for M in (A, on_G):
            p = stiefel_map(M)
            code, out = run(capsys, ["recover"], stdin=json.dumps({"plucker": plucker_to_json(p), "support": graph_to_json(G)}), monkeypatch=monkeypatch)
            if code == 0:
                q = stiefel_map(matrix_from_json(json.loads(out)))
                assert plucker_proj_eq(q, p)
                near["other denom"] += q.denom != p.denom
                continue
            assert M is A and (code, json.loads(out)) == (1, {"error": "NOT_STIEFEL_ON_SUPPORT"})
            rows = [entries(cocircuit(p, set(range(1, n + 1)) - J_of(G, {i}))) for i in range(1, d + 1)]
            assert not plucker_proj_eq(stiefel_map(TropMatrix(rows)), p)
            refused[whole] += 1
        near["fractional p"] += p.denom > 1
        if n == d:
            continue  # one coordinate: moving it moves p by a constant
        ground = frozenset(range(1, n + 1))
        read = {(ground - J_of(G, {i})) | {j} for i in range(1, d + 1) for j in J_of(G, {i})}
        pv = values(p)
        for J in list(pv)[:2]:
            moved = plucker_vector(n, d, {**pv, J: pv[J] + Fraction(1, 2)})
            code, out = run(capsys, ["recover"], stdin=json.dumps({"plucker": plucker_to_json(moved), "support": graph_to_json(G)}), monkeypatch=monkeypatch)
            if J in read and code == 0:
                assert plucker_proj_eq(stiefel_map(matrix_from_json(json.loads(out))), moved)
            else:
                assert (code, json.loads(out)) == (1, {"error": "NOT_STIEFEL_ON_SUPPORT"})
            near[J in read, code] += 1
    assert 0 < refused[True] < 200 and 0 < refused[False] < 200, refused
    assert near["fractional p"] > 100 and near["other denom"] > 20 and near[False, 1] > 20 and near[True, 0] > 20 and near[True, 1] > 20, near


def test_gen_modes(capsys):
    code, out = run(capsys, ["gen", "2", "3", "--seed", "1", "--mode", "support-set"])
    assert code == 0
    A = matrix_from_json(json.loads(out))
    assert is_support_set(*support_graph(A))

    code, out = run(capsys, ["gen", "3", "5", "--seed", "7", "--mode", "pointed"])
    assert code == 0
    A = matrix_from_json(json.loads(out))
    expected = frozenset(
        [(i, i) for i in range(1, 4)] + [(i, j) for i in range(1, 4) for j in (4, 5)]
    )
    assert A.support() == expected


def test_gen_determinism(capsys):
    for mode in ("dense", "support-set", "pointed"):
        code1, out1 = run(capsys, ["gen", "3", "6", "--seed", "42", "--mode", mode])
        code2, out2 = run(capsys, ["gen", "3", "6", "--seed", "42", "--mode", mode])
        code3, out3 = run(capsys, ["gen", "3", "6", "--seed", "43", "--mode", mode])
        assert code1 == code2 == code3 == 0
        assert out1 == out2, mode
        assert out1 != out3, mode


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _ = run(
        capsys,
        ["gen", "2", "4", "--seed", "5", "--output", str(out_path)],
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["d"] == 2 and obj["n"] == 4


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    """An --output in a missing directory, or naming a directory, exits 2
    with a usage error, as an unreadable --input does, for an answer and
    for a domain error alike."""
    good = write_input(tmp_path, matrix_to_json(STAIR))
    bad = write_input(tmp_path, matrix_to_json(TropMatrix([[0, "inf"], [0, "inf"]])), "bad.json")
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        for path in (good, bad):
            code = main(["stiefel", "--input", path, "--output", str(out)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("usage error: cannot write output: ")
    assert not (tmp_path / "missing").exists()


def test_domain_error_exit_code(tmp_path, capsys):
    def matrix(rows):
        return {"entries": rows}

    def point(rows, y):
        return {"matrix": matrix(rows), "vector": {"entries": y}}

    def field(choices):
        return {"d": 2, "n": 2, "choices": choices}

    one_one = {"d": 1, "n": 2, "values": {"1": "0", "2": "inf"}}
    zero_2_4 = {"d": 2, "n": 4, "values": {f"{a},{b}": "0" for a, b in itertools.combinations(range(1, 5), 2)}}
    long_diagonal = ["1/1" + "0" * 2499 + "1", "1/1" + "0" * 2499 + "3"]
    rng = random.Random(11)
    dense_5x8 = [[rng.randint(-50, 50) for _ in range(8)] for _ in range(5)]
    cases = [
        # a column of infinities: no matching in the support
        (["stiefel"], matrix([[0, "inf"], [0, "inf"]]), "NO_MATCHING_IN_SUPPORT"),
        (["facets"], matrix([[0, 0], ["inf", "inf"]]), "NO_MATCHING_IN_SUPPORT"),
        (["covectors"], matrix([[0, "inf"], [1, "inf"]]), "EMPTY_COLUMN"),
        (["multifield"], matrix([[0, "inf", 1], [0, "inf", 1]]), "NO_MATCHING_ON_SUBSET"),
        (["stiefel"], matrix([["0", "1"], ["2"]]), "BAD_SHAPE"),
        (["stiefel"], matrix([[True, "1"]]), "BAD_SCALAR"),
        # every input scalar fits the int/str digit limit, the minor does not
        (["stiefel"], matrix([[long_diagonal[0], "9"], ["9", long_diagonal[1]]]), "BUDGET_EXCEEDED"),
        (["support-set"], {"d": 2, "n": 3, "edges": [[1, 1], [3, 1]]}, "BAD_EDGE"),
        (["coherent"], field({"1,2": [[[1, 1], [2, 1]]]}), "BAD_MATCHING"),
        # an edge list names each row of [d] once, or the document is malformed
        (["coherent"], field({"1,2": [[[1, 1]]]}), "BAD_MULTIFIELD_JSON"),
        (["coherent"], field({"1,2": [[[1, 1], [2, 3]]]}), "BAD_CHOICE"),
        (["coherent"], field({"1,2": []}), "EMPTY_CHOICE"),
        # two faults each: subsets are checked in lexicographic order, EMPTY_CHOICE
        # before BAD_CHOICE on each, and both only after every key and edge list parses
        (["coherent"], {"d": 1, "n": 2, "choices": {"2": [[[1, 1]]]}}, "EMPTY_CHOICE"),
        (["coherent"], {"d": 2, "n": 3, "choices": {"1,3": [[[1, 1], [2, 2]]], "1,2": []}}, "EMPTY_CHOICE"),
        (["coherent"], {"d": 2, "n": 3, "choices": {"2,3": [[[1, 2], [2, 3]]], "1,2": [[[1, 1], [2, 3]]], "1,3": []}}, "BAD_CHOICE"),
        (["coherent"], {"d": 2, "n": 3, "choices": {"1,2": [[[1, 1], [2, 1]]], "9,9": []}}, "BAD_MATCHING"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[1, 1]]], "01": [[[1, 1]]]}}, "BAD_MULTIFIELD_JSON"),
        # rank 0: the one empty matching has no 0-row witness matrix
        (["coherent"], {"d": 0, "n": 2, "choices": {"": [[]]}}, "BAD_SHAPE"),
        (["coherent"], {"d": 0, "n": 0, "choices": {"": [[]]}}, "BAD_SHAPE"),
        # (12, 13) keeps about 1.6% of its draws, and seed 0's first fails
        (["gen", "12", "13", "--mode", "support-set", "--budget", "1"], None, "BUDGET_EXCEEDED"),
        # refused before drawing: d·n = 10^9 entries, and d³n for one Hall check
        (["gen", "1", "1000000000"], None, "BUDGET_EXCEEDED"),
        (["gen", "1000", "1001", "--mode", "pointed"], None, "BUDGET_EXCEEDED"),
        (["gen", "200", "400", "--mode", "support-set"], None, "BUDGET_EXCEEDED"),
        (["gen", "3", "2"], None, "BAD_SHAPE"),
        (["render"], matrix([[0] * 4] * 4), "BAD_FORMAT"),
        (["render", "--kind", "tree"], matrix([[0] * 4] * 3), "BAD_FORMAT"),
        # d > 3 is refused before TC(A), past the cell budget here, is built
        (["render"], matrix(dense_5x8), "BAD_FORMAT"),
        # d > n: no column d-set, so no matching
        (["multifield"], matrix([[0, 1], [2, 0], [1, 1]]), "NO_MATCHING_IN_SUPPORT"),
        (["bounded", "--format", "svg"], matrix([[0], [1]]), "NO_MATCHING_IN_SUPPORT"),
        (["render", "--kind", "tree"], matrix([[0], [1]]), "NO_MATCHING_IN_SUPPORT"),
        # every column d-set matchable: one check, one pair of codes, for all three
        (["bounded"], point([[0, "inf", "inf"], [0, "inf", "inf"]], ["0", "0", "0"]), "NO_MATCHING_IN_SUPPORT"),
        (["bounded", "--format", "svg"], matrix([[0, "inf", "inf"], [0, "inf", "inf"]]), "NO_MATCHING_IN_SUPPORT"),
        (["render", "--kind", "tree"], matrix([[0, "inf", "inf"], [0, "inf", "inf"]]), "NO_MATCHING_IN_SUPPORT"),
        (["bounded"], point([[0, 0, "inf"], [0, 0, "inf"]], ["0", "0", "0"]), "NOT_UNIFORM"),
        (["bounded", "--format", "svg"], matrix([[0, 0, "inf"], [0, 0, "inf"]]), "NOT_UNIFORM"),
        (["render", "--kind", "tree"], matrix([[0, 0, "inf"], [0, 0, "inf"]]), "NOT_UNIFORM"),
        (["member"], point([[0, 1], [1, 0]], ["0"]), "LENGTH_MISMATCH"),
        (["member"], point([[0, 1], [1, 0]], []), "EMPTY_VECTOR"),
        (["bounded"], point([[0, 1, 2], [1, 0, 2]], ["0"]), "BAD_POINT"),
        (["recover"], {"plucker": one_one, "support": {"d": 1, "n": 2, "edges": [[1, 1], [1, 2]]}}, "NOT_UNIFORM"),
        (["recover"], {"plucker": one_one, "support": {"d": 1, "n": 2, "edges": [[1, 1]]}}, "NOT_SUPPORT_SET"),
        # support sets on another [d] ⊔ [n] than the Plücker vector's
        (["recover"], {"plucker": zero_2_4, "support": {"d": 1, "n": 3, "edges": [[1, 1], [1, 2], [1, 3]]}}, "NOT_SUPPORT_SET"),
        (["recover"], {"plucker": zero_2_4, "support": {"d": 2, "n": 5, "edges": [[1, 1], [1, 2], [1, 3], [1, 4], [2, 2], [2, 3], [2, 4], [2, 5]]}}, "NOT_SUPPORT_SET"),
        (["recover"], {"plucker": zero_2_4, "support": {"d": 1, "n": 4, "edges": [[1, 1], [1, 2], [1, 3], [1, 4]]}}, "NOT_SUPPORT_SET"),
        (["plucker-check"], {"d": 2, "n": 3, "values": {"1,2": "0", "1,3": "0"}}, "MISSING_COORDINATE"),
        (["plucker-check"], {"d": 1, "n": 2, "values": {"1": "inf", "2": "inf"}}, "ALL_INF"),
    ]
    for argv, obj, error in cases:
        if obj is not None:
            argv = argv + ["--input", write_input(tmp_path, obj)]
        code, out = run(capsys, argv)
        assert code == 1, argv
        assert json.loads(out) == {"error": error}, argv


def test_graph_errors_come_shape_first_then_edges(tmp_path, capsys):
    """``graph_from_json`` is the one check of a graph: every shape fault
    (BAD_GRAPH_JSON) comes before any edge outside [d] × [n] (BAD_EDGE),
    and recover reports its Plücker vector's faults before either."""
    outside = [[0, 1]]  # row 0: BAD_EDGE once the document's shape holds
    cases = [
        ([[1, 1]], "BAD_GRAPH_JSON"),
        ({"d": 2, "n": 3}, "BAD_GRAPH_JSON"),
        ({"d": "2", "n": 3, "edges": outside}, "BAD_GRAPH_JSON"),
        ({"d": 2, "n": -1, "edges": outside}, "BAD_GRAPH_JSON"),
        ({"d": True, "n": 3, "edges": outside}, "BAD_GRAPH_JSON"),
        ({"d": 2, "n": 3, "edges": outside + [[1, True]]}, "BAD_GRAPH_JSON"),
        ({"d": 2, "n": 3, "edges": outside + [[1, 2, 3]]}, "BAD_GRAPH_JSON"),
        ({"d": 2, "n": 3, "edges": [[1, 1], [0, 1]]}, "BAD_EDGE"),
        ({"d": 2, "n": 3, "edges": [[1, 1], [2, 4]]}, "BAD_EDGE"),
        ({"d": 0, "n": 3, "edges": [[1, 1]]}, "BAD_EDGE"),
        ({"d": 2, "n": 3, "edges": [[1, 1], [2, 2], [1, 3], [2, 3]]}, None),
    ]
    for graph, error in cases:
        code, out = run(capsys, ["support-set", "--input", write_input(tmp_path, graph)])
        assert (code, json.loads(out).get("error")) == (1 if error else 0, error), graph
    two_row = plucker_to_json(stiefel_map(TWO_ROW))
    bad_support = {"d": 2, "n": 4, "edges": [[3, 1]]}
    for plucker, error in (
        ({"d": 2, "n": 4, "values": 5}, "BAD_PLUCKER_JSON"),
        ({**two_row, "values": {"1,2": "0"}}, "MISSING_COORDINATE"),
        ({"d": 1, "n": 2, "values": {"1": "inf", "2": "inf"}}, "ALL_INF"),
        (two_row, "BAD_EDGE"),
    ):
        code, out = run(capsys, ["recover", "--input", write_input(tmp_path, {"plucker": plucker, "support": bad_support})])
        assert (code, json.loads(out)) == (1, {"error": error}), plucker


def test_plucker_errors_come_shape_then_keys_then_coordinates(tmp_path, capsys):
    """``plucker_from_json`` is the one check of a Plücker vector: the
    document's shape (BAD_PLUCKER_JSON), then entry by entry its key
    (BAD_PLUCKER_JSON) before its value, null or unparsed (BAD_SCALAR),
    then two keys naming one subset (BAD_PLUCKER_JSON), the first d-subset
    in ``subsets`` order with no value (MISSING_COORDINATE), and last a map
    that is ∞ everywhere (ALL_INF).  Each case below also holds every later
    fault; ``plucker-check`` and ``recover`` refuse it with the earliest,
    ``recover`` before its support's BAD_EDGE."""
    later = {"2": "inf", "02": "inf"}  # on [3] at d = 1: {2} twice, {1} and {3} missing, no finite value
    cases = [
        ({"d": 4, "n": 3, "values": {**later, "4": None}}, "BAD_PLUCKER_JSON", "0 <= d <= n"),
        ({"d": 1, "n": 3, "values": {**later, "4": None}}, "BAD_PLUCKER_JSON", "bad subset key '4'"),
        ({"d": 1, "n": 3, "values": {**later, "3": None}}, "BAD_SCALAR", "null"),
        ({"d": 1, "n": 3, "values": {**later, "3": "1/0"}}, "BAD_SCALAR", "'1/0'"),
        ({"d": 1, "n": 3, "values": later}, "BAD_PLUCKER_JSON", "two keys"),
        ({"d": 1, "n": 3, "values": {"3": "inf"}}, "MISSING_COORDINATE", "[1]"),
        ({"d": 2, "n": 3, "values": {"2,3": "inf"}}, "MISSING_COORDINATE", "[1, 2]"),
        ({"d": 1, "n": 3, "values": {"3": "inf", "1": "inf", "2": "inf"}}, "ALL_INF", "∞"),
        ({"d": 1, "n": 3, "values": {"3": "inf", "1": "1/2", "2": "inf"}}, None, None),
    ]
    bad_support = {"d": 1, "n": 3, "edges": [[2, 1]]}
    for plucker, error, message in cases:
        if error:
            with pytest.raises(DomainError) as exc:
                plucker_from_json(plucker)
            assert exc.value.code == error and message in str(exc.value), (plucker, exc.value)
        code, out = run(capsys, ["plucker-check", "--input", write_input(tmp_path, plucker)])
        assert (code, json.loads(out).get("error")) == (1 if error else 0, error), plucker
        code, out = run(capsys, ["recover", "--input", write_input(tmp_path, {"plucker": plucker, "support": bad_support})])
        assert (code, json.loads(out)) == (1, {"error": error or "BAD_EDGE"}), plucker


def test_rank_0_coherent_refuses_before_any_work(tmp_path, capsys, monkeypatch):
    """A rank-0 multifield has no witness matrix, so ``is_coherent``
    refuses it with BAD_SHAPE before the matching engine, the budget count
    or the simplex runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("rank 0 reached the coherence work")

    monkeypatch.setattr("tropstiefel.simplex.argmin_witness", refuse)
    monkeypatch.setattr("tropstiefel.bipartite.optimal_matchings", refuse)
    for n in (2, 0):
        path = write_input(tmp_path, {"d": 0, "n": n, "choices": {"": [[]]}})
        code, out = run(capsys, ["coherent", "--input", path])
        assert (code, json.loads(out)) == (1, {"error": "BAD_SHAPE"}), n


def test_usage_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("this is not json")
    code, _ = run(capsys, ["stiefel", "--input", str(path)])
    assert code == 2
    path.write_text("[[" + "9" * 5000 + "]]")  # past the int/str digit limit of json.loads
    code, _ = run(capsys, ["stiefel", "--input", str(path)])
    assert code == 2
    code, _ = run(capsys, ["no-such-command"])
    assert code == 2
    code, _ = run(capsys, ["stiefel", "--input", str(tmp_path / "missing.json")])
    assert code == 2
    code, _ = run(capsys, ["gen", "2", "3", "--min", "5", "--max", "1"])
    assert code == 2
    # --seed, --budget and --format exist only on the commands that read
    # them; the inputs are valid, so the flag alone makes these exit 2
    matrix = matrix_to_json(STAIR)
    for argv, obj in (
        (["stiefel", "--budget", "10"], matrix),
        (["member", "--seed", "1"], {"matrix": matrix, "vector": {"entries": ["0", "0", "0", "0"]}}),
        (["facets", "--format", "svg"], matrix),
    ):
        code, _ = run(capsys, argv + ["--input", write_input(tmp_path, obj, "valid.json")])
        assert code == 2, argv


def test_render_svg(tmp_path, capsys):
    path = write_input(tmp_path, matrix_to_json(FIG))
    code, out = run(capsys, ["render", "--input", path])
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    path2 = write_input(tmp_path, matrix_to_json(TWO_ROW), "t.json")
    code, out = run(capsys, ["render", "--input", path2, "--kind", "tree"])
    assert code == 0
    assert out.startswith("<svg")
    code, out = run(capsys, ["bounded", "--input", path2, "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg")
    # one 1-cell, the whole line, with no vertex at either end: a label only
    path3 = write_input(tmp_path, {"entries": [[0, 0], ["inf", "inf"]]}, "line.json")
    code, out = run(capsys, ["render", "--input", path3])
    assert code == 0
    assert out.count("<text") == 1 and "<line" not in out and "<circle" not in out


def test_render_draws_inside_the_canvas(capsys, monkeypatch):
    """Every line end and vertex that ``render`` draws lies in its 480×480
    view box: the pixel bounds span the far ends of the rays as well as
    the cells' points.  200 seeded matrices, d 2–3, n from d to 6, entries
    −9..9."""
    rng = random.Random(5)
    drawn = 0
    for _ in range(200):
        d = rng.randint(2, 3)
        n = rng.randint(d, 6)
        A = {"entries": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(d)]}
        code, out = run(capsys, ["render"], stdin=json.dumps(A), monkeypatch=monkeypatch)
        assert code == 0
        for value in re.findall(r' (?:x1|y1|x2|y2|cx|cy)="(-?\d+)"', out):
            assert 0 <= int(value) <= 480, A
            drawn += 1
    assert drawn > 10000


def test_determinism_of_covectors_output(tmp_path, capsys):
    path = write_input(tmp_path, matrix_to_json(FIG))
    _, out1 = run(capsys, ["covectors", "--input", path])
    _, out2 = run(capsys, ["covectors", "--input", path])
    assert out1 == out2
    # output must not follow hash order: the same commands in fresh
    # interpreters under two hash seeds print the same bytes
    src = str(Path(tropstiefel.cli.__file__).resolve().parents[1])
    tied = TropMatrix([[0, 0, 0, 1, "inf"], [0, 1, 0, 0, 2], ["inf", 0, 1, 0, 0]])
    matrix = write_input(tmp_path, matrix_to_json(tied), "m.json")
    two_row = write_input(tmp_path, matrix_to_json(TWO_ROW), "t.json")
    field = write_input(tmp_path, multifield_to_json(matching_multifield(tied)), "f.json")
    point = write_input(tmp_path, {"matrix": matrix_to_json(tied), "vector": {"entries": ["0", "1", "0", "1", "2"]}},
                        "p.json")
    commands = [
        ["covectors", "--input", matrix], ["facets", "--input", matrix], ["multifield", "--input", matrix],
        ["coherent", "--input", field], ["decompose", "--input", point], ["render", "--input", matrix],
        ["bounded", "--format", "svg", "--input", two_row],
        ["gen", "4", "7", "--seed", "3", "--mode", "support-set"],
    ]
    for command in commands:
        outputs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "tropstiefel.cli", *command],
                capture_output=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, command
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], command


def test_bad_scalar_exit_code(tmp_path):
    # the library reads None as ∞, but in JSON ∞ is only "inf": each of the
    # three scalar readers refuses null, where the input is otherwise valid
    src = str(Path(tropstiefel.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cases = [("covectors", {"entries": [[bad, "1"]]}) for bad in ("abc", "1/0", "1e5000", "1e100000000")] + [
        ("stiefel", {"entries": [[None, "1"], ["0", "0"]]}),
        ("member", {"matrix": {"entries": [["0", "1"], ["1", "0"]]}, "vector": {"entries": [None, "0"]}}),
        ("plucker-check", {"d": 1, "n": 2, "values": {"1": None, "2": "0"}}),
    ]
    for command, obj in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "tropstiefel.cli", command, "--input", write_input(tmp_path, obj)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, obj
        assert json.loads(proc.stdout) == {"error": "BAD_SCALAR"}, obj
        assert "Traceback" not in proc.stderr, obj


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """Without kept bytecode a cold process compiles every module it
    imports, so the CLI imports the library per command: in a fresh
    interpreter each, ``import tropstiefel.cli`` loads only the package,
    ``cli`` and ``core``, and no ``argparse``; covectors and render
    (arrangement) load no bipartite, plucker or linspace; facets loads no
    plucker or linspace; covectors and facets load neither ``svg`` nor
    ``simplex``, render loads ``svg`` and not ``simplex``, and coherent
    loads ``simplex``.  Covectors, facets, ``bounded --format svg`` and
    ``render --kind tree`` on an integer matrix load no ``fractions``, which
    imports ``decimal``: the SVG pixels are integer arithmetic.  Nor do
    stiefel, plucker-check and gen on whole values, which print through
    ``core.scalars`` and ``quotient``."""
    src = str(Path(tropstiefel.cli.__file__).resolve().parents[1])
    script = (
        "import sys\nimport tropstiefel.cli\n"
        "code = tropstiefel.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('tropstiefel') or m in ('argparse', 'fractions')), file=sys.stderr)"
    )
    path = write_input(tmp_path, matrix_to_json(FIG))
    field = write_input(tmp_path, multifield_to_json(matching_multifield(FIG)), "field.json")
    two_row = write_input(tmp_path, matrix_to_json(TWO_ROW), "two_row.json")
    plucker = write_input(tmp_path, plucker_to_json(stiefel_map(FIG)), "plucker.json")

    def loaded(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        code, *modules = proc.stderr.split()
        assert code == "0", (argv, proc.stderr)
        return set(modules)

    svg, lp = "tropstiefel.svg", "tropstiefel.simplex"
    assert loaded() == {"tropstiefel", "tropstiefel.cli", "tropstiefel.core"}
    assert "fractions" not in loaded("covectors", "--input", path) | loaded("facets", "--input", path)
    assert "fractions" not in loaded("bounded", "--format", "svg", "--input", two_row) | loaded("render", "--kind", "tree", "--input", two_row)
    assert "fractions" not in loaded("stiefel", "--input", path) | loaded("plucker-check", "--input", plucker) | loaded("gen", "3", "5", "--seed", "7")
    for argv in (["covectors"], ["render"]):
        assert not loaded(*argv, "--input", path) & {"tropstiefel.bipartite", "tropstiefel.plucker", "tropstiefel.linspace"}, argv
    facets = loaded("facets", "--input", path)
    assert "tropstiefel.bipartite" in facets and not facets & {"tropstiefel.plucker", "tropstiefel.linspace"}
    assert not (loaded("covectors", "--input", path) | facets) & {svg, lp}
    render = loaded("render", "--input", path)
    assert svg in render and lp not in render
    assert lp in loaded("coherent", "--input", field)


def test_parser_refuses_with_a_usage_error(capsys):
    """Each command line the option table refuses exits 2 with ``usage
    error: `` on stderr and nothing on stdout, before any input is read."""
    cases = [
        ["bogus"], [], ["--bogus"],
        ["covectors", "--bogus", "1"], ["covectors", "--inp", "-"], ["stiefel", "--seed", "3"], ["gen", "2", "3", "--input", "-"],
        ["covectors", "--input"], ["gen", "2", "3", "--min"], ["covectors", "--output", "--budget", "3"],
        ["bounded", "--format", "png"], ["render", "--kind", "svg"], ["gen", "2", "3", "--mode", "sparse"],
        ["covectors", "--format", "svg"],
        ["covectors", "--budget", "x"], ["covectors", "--budget=1.5"], ["gen", "2", "3", "--seed", ""],
        ["gen", "3"], ["gen", "3", "5", "7"], ["gen", "x", "5"], ["gen"], ["stiefel", "extra"], ["gen", "2", "--", "3", "--seed", "1"],
    ]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("usage error: "), (argv, captured.err)
        assert captured.out == "", argv


def test_parser_reads_values_as_argparse_did(capsys):
    """``--flag=value``, negative ints as values and positionals, options
    before and after the positionals, the last of a repeated flag, and
    positionals after ``--``."""
    gen = lambda *argv: run(capsys, ["gen", *argv])
    code, out = gen("2", "3", "--min", "-5", "--max", "-1")
    assert code == 0 and all(-5 <= int(x) <= -1 for row in json.loads(out)["entries"] for x in row)
    assert gen("2", "3", "--seed", "4", "--budget=7") == gen("--seed=4", "2", "--budget", "7", "3") == gen("--seed", "1", "2", "3", "--seed=4")
    assert gen("2", "3", "--seed", "4") != gen("2", "3", "--seed", "5")
    assert gen("--seed", "4", "--", "2", "3") == gen("2", "3", "--seed", "4")
    assert gen("-1", "3") == (1, json.dumps({"error": "BAD_SHAPE"}) + "\n")
    args = tropstiefel.cli.parse_args(["render", "--budget=7", "--kind", "tree", "--kind=arrangement"])
    assert (args.command, args.input, args.output, args.budget, args.kind) == ("render", "-", None, 7, "arrangement")
    args = tropstiefel.cli.parse_args(["gen", "3", "5"])
    assert (args.d, args.n, args.seed, args.mode, args.min, args.max, args.budget) == (3, 5, 0, "dense", 0, 9, None)


def test_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"], ["covectors", "--help"], ["gen", "2", "-h"]):
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        listed = [line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")]
        assert listed == list(tropstiefel.cli.COMMANDS), argv


def test_an_edge_list_names_each_row_once(tmp_path, capsys):
    """``coherent`` reads an edge list only when it names each row of [d]
    exactly once: a list with a row left out, an empty list, a list naming
    a row twice and a list naming a row outside [d] answer
    BAD_MULTIFIELD_JSON for every d, in any edge order and at any place in
    its key's list, and a full list whose rows share a column answers
    BAD_MATCHING.  Seeded multifields of dense d × (d + 2) matrices, d = 2..5."""
    rng = random.Random(23)
    for d in range(2, 6):
        for _ in range(4):
            A = TropMatrix([[rng.randint(-3, 3) for _ in range(d + 2)] for _ in range(d)])
            doc = multifield_to_json(matching_multifield(A))
            key = rng.choice(sorted(doc["choices"]))
            edges = doc["choices"][key][0]
            i, k = rng.sample(range(d), 2)
            cases = [
                (edges[:i] + edges[i + 1:], "BAD_MULTIFIELD_JSON"),
                ([], "BAD_MULTIFIELD_JSON"),
                (edges + [[edges[i][0], edges[k][1]]], "BAD_MULTIFIELD_JSON"),
                ([[d + 1, j] if row == edges[i][0] else [row, j] for row, j in edges], "BAD_MULTIFIELD_JSON"),
                ([[row, edges[k][1]] if row == edges[i][0] else [row, j] for row, j in edges], "BAD_MATCHING"),
            ]
            for bad, error in cases:
                rng.shuffle(bad)
                lists = list(doc["choices"][key])
                lists.insert(rng.randint(0, len(lists)), bad)
                path = write_input(tmp_path, {**doc, "choices": {**doc["choices"], key: lists}})
                code, out = run(capsys, ["coherent", "--input", path])
                assert (code, json.loads(out)) == (1, {"error": error}), (d, bad)


def test_malformed_json_shapes_exit_code(tmp_path):
    src = str(Path(tropstiefel.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cases = [
        (["covectors"], {"entries": 5}, "BAD_MATRIX_JSON"),
        (["covectors"], {"entries": ["01", "10"]}, "BAD_MATRIX_JSON"),
        (["decompose"], {"matrix": matrix_to_json(STAIR), "vector": {"entries": 5}}, "BAD_VECTOR_JSON"),
        (["bounded", "--format", "svg"], 5, "BAD_MATRIX_JSON"),
        (["support-set"], {"d": 1, "n": 1, "edges": 5}, "BAD_GRAPH_JSON"),
        (["support-set"], {"d": 1, "n": 1, "edges": [["x", 1]]}, "BAD_GRAPH_JSON"),
        (["support-set"], {"d": 1, "n": 1, "edges": [[1]]}, "BAD_GRAPH_JSON"),
        (["plucker-check"], {"d": 1, "n": 2, "values": 5}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 1, "n": 2, "values": {"x": 0}}, "BAD_PLUCKER_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": 5}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"a": []}}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[2, 1]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[0, 1]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        # an edge list names each row once: none wins by coming last
        (["coherent"], {"d": 2, "n": 2, "choices": {"1,2": [[[1, 1], [1, 2], [2, 1]]]}}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[1, 1], [1, 1]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        (["recover"], {"plucker": plucker_to_json(stiefel_map(TWO_ROW)), "support": {"d": 2, "n": 4, "edges": 5}},
         "BAD_GRAPH_JSON"),
        # edge indices are JSON integers: no splitting of strings or keys,
        # no truncation of floats, no booleans
        (["support-set"], {"d": 1, "n": 2, "edges": ["11", "12"]}, "BAD_GRAPH_JSON"),
        (["support-set"], {"d": 1, "n": 2, "edges": {"11": 0, "12": 0}}, "BAD_GRAPH_JSON"),
        (["support-set"], {"d": 2, "n": 3, "edges": [[1.9, 2.2]]}, "BAD_GRAPH_JSON"),
        (["support-set"], {"d": 1, "n": 2, "edges": [[True, 2]]}, "BAD_GRAPH_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[True, 1]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[1, 1.5]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[1, True]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        # d and n are JSON integers, not booleans
        (["support-set"], {"d": True, "n": 2, "edges": [[1, 1], [1, 2]]}, "BAD_GRAPH_JSON"),
        (["plucker-check"], {"d": True, "n": 2, "values": {"1": 0, "2": 1}}, "BAD_PLUCKER_JSON"),
        (["coherent"], {"d": True, "n": 2, "choices": {"1": [[[1, 1]]], "2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        # 0 <= d <= n for a Plücker vector, as for a multifield
        (["plucker-check"], {"d": 0, "n": -1, "values": {"": "0"}}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 3, "n": 2, "values": {}}, "BAD_PLUCKER_JSON"),
        # a subset key is d distinct ASCII decimal indices in [n], comma-separated
        (["plucker-check"], {"d": 1, "n": 2, "values": {"1": 0, "0_2": 1}}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 1, "n": 2, "values": {"1": 0, " 2 ": 1}}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 1, "n": 2, "values": {"1": 0, "+2": 1}}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 1, "n": 2, "values": {"1": 0, "2": 1, "3": 5}}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 2, "n": 2, "values": {"1,2": 0, "1,1": 1}}, "BAD_PLUCKER_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[1, 1]]], "0_2": [[[1, 2]]]}}, "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 1, "n": 2, "choices": {"1": [[[1, 1]]], "2": [[[1, 2]]], "3": [[[1, 3]]]}},
         "BAD_MULTIFIELD_JSON"),
        # no two keys name one subset, in either order
        (["plucker-check"], {"d": 2, "n": 4, "values": {"1,2": 0, "1,3": 0, "1,4": 0, "2,3": 0, "2,4": 0, "3,4": 0,
                                                        "2,1": -1}}, "BAD_PLUCKER_JSON"),
        (["plucker-check"], {"d": 2, "n": 4, "values": {"2,1": -1, "1,2": 0, "1,3": 0, "1,4": 0, "2,3": 0, "2,4": 0,
                                                        "3,4": 0}}, "BAD_PLUCKER_JSON"),
        (["coherent"], {"d": 2, "n": 2, "choices": {"1,2": [[[1, 1], [2, 2]]], "2,1": [[[1, 2], [2, 1]]]}},
         "BAD_MULTIFIELD_JSON"),
        (["coherent"], {"d": 2, "n": 2, "choices": {"2,1": [[[1, 2], [2, 1]]], "1,2": [[[1, 1], [2, 2]]]}},
         "BAD_MULTIFIELD_JSON"),
        # a declared d or n of a matrix is the JSON integer of its entries
        (["stiefel"], {"d": 2.0, "n": 3, "entries": [[0, 1, 2], [1, 0, 2]]}, "BAD_MATRIX_JSON"),
        (["stiefel"], {"d": 2, "n": 3.0, "entries": [[0, 1, 2], [1, 0, 2]]}, "BAD_MATRIX_JSON"),
        (["stiefel"], {"d": True, "entries": [[0, 1, 2]]}, "BAD_MATRIX_JSON"),
        (["multifield"], {"n": "3", "entries": [[0, 1, 2]]}, "BAD_MATRIX_JSON"),
    ]
    for command, obj, code in cases:
        path = write_input(tmp_path, obj)
        proc = subprocess.run(
            [sys.executable, "-m", "tropstiefel.cli", *command, "--input", path],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"error": code}
        assert "Traceback" not in proc.stderr


def test_covectors_budget_on_dense_4x8(tmp_path, capsys):
    rng = random.Random(48)
    dense = TropMatrix([[rng.randint(0, 9) for _ in range(8)] for _ in range(4)])
    path = write_input(tmp_path, matrix_to_json(dense))
    code, out = run(capsys, ["covectors", "--input", path, "--budget", "10"])
    assert code == 1
    assert json.loads(out) == {"error": "BUDGET_EXCEEDED"}
    code, out = run(capsys, ["covectors", "--input", path])
    assert code == 0
    cells = json.loads(out)
    # the relatively open cells partition R^3
    assert sum((-1) ** c["dim"] for c in cells) == -1


def test_render_tree_is_bounded_by_budget(tmp_path, capsys):
    # both kinds of render enumerate TC(A), so --budget bounds both; bounded
    # --format svg has no --budget and draws the same tree at the default
    path = write_input(tmp_path, {"entries": [[0, 3, 1, 5], [2, 0, 4, 1]]})
    cells = len(json.loads(run(capsys, ["covectors", "--input", path])[1]))
    for kind in ("arrangement", "tree"):
        for budget in (1, cells - 1):
            code, out = run(capsys, ["render", "--kind", kind, "--budget", str(budget), "--input", path])
            assert code == 1 and json.loads(out) == {"error": "BUDGET_EXCEEDED"}, (kind, budget)
        code, out = run(capsys, ["render", "--kind", kind, "--budget", str(cells), "--input", path])
        assert code == 0 and out.startswith("<svg")
    assert run(capsys, ["bounded", "--format", "svg", "--input", path]) == (0, out)


def test_bounded_svg_is_the_render_tree(capsys, monkeypatch):
    """``bounded --format svg``, on A or on a document {"matrix": A,
    "vector": y}, gives the exit code and stdout of ``render --kind tree`` on
    A: on 300 seeded matrices, d 1–3 and n <= 6, about 15% ∞, entries k or
    k/2, refusals included."""
    rng = random.Random(51)
    seen = Counter()
    for _ in range(300):
        d = rng.randint(1, 3)
        n = rng.randint(1, 6)
        A = {"entries": [["inf" if rng.random() < 0.15 else f"{rng.randint(-6, 6)}/{rng.choice([1, 2])}" for _ in range(n)] for _ in range(d)]}
        point = {"matrix": A, "vector": {"entries": [str(rng.randint(-6, 6)) for _ in range(n)]}}
        tree = run(capsys, ["render", "--kind", "tree"], stdin=json.dumps(A), monkeypatch=monkeypatch)
        for obj in (A, point):
            assert run(capsys, ["bounded", "--format", "svg"], stdin=json.dumps(obj), monkeypatch=monkeypatch) == tree, obj
        seen["svg" if tree[0] == 0 else json.loads(tree[1])["error"]] += 1
    # drawings and each refusal, of d != 2 and of the support, occur often
    assert seen["svg"] >= 50 and min(seen[code] for code in ("BAD_FORMAT", "NO_MATCHING_IN_SUPPORT", "NOT_UNIFORM")) >= 10, seen


def test_matching_engine_budget_on_dense_14x40(tmp_path):
    # Σ_{k≤14} C(40, k) column sets: refused before the engine starts, so
    # the process exits at once rather than running for minutes
    rng = random.Random(1440)
    dense = TropMatrix([[rng.randint(0, 9) for _ in range(40)] for _ in range(14)])
    path = write_input(tmp_path, matrix_to_json(dense))
    src = str(Path(tropstiefel.cli.__file__).resolve().parents[1])
    for command in ("stiefel", "multifield"):
        proc = subprocess.run(
            [sys.executable, "-m", "tropstiefel.cli", command, "--input", path],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"error": "BUDGET_EXCEEDED"}


def test_coherent_golden_stdout(tmp_path, capsys):
    # The witness is the simplex's point, pinned byte for byte on a dense 2x4,
    # a 3x5 with ∞, and the 3x5 with one of its two matchings on {2, 3, 4}
    # dropped.
    with_inf = matching_multifield(TropMatrix([[0, 1, "inf", 2, 0], ["1/2", 0, 0, "inf", 1], [2, "inf", 0, 1, 0]]))
    dropped = {**with_inf, frozenset({2, 3, 4}): {(4, 2, 3)}}
    golden = [
        (matching_multifield(TWO_ROW),
         '{"coherent": true, "witness": {"d": 2, "entries": [["1", "1", "0", "0"], ["0", "0", "0", "0"]], "n": 4}}'),
        (with_inf,
         '{"coherent": true, "witness": {"d": 3, "entries": [["0", "2", "inf", "2", "1"], ["0", "0", "0", "inf", "inf"],'
         ' ["inf", "inf", "0", "0", "0"]], "n": 5}}'),
        (dropped,
         '{"coherent": true, "witness": {"d": 3, "entries": [["0", "inf", "inf", "2", "1"], ["0", "0", "0", "inf", "inf"],'
         ' ["inf", "inf", "0", "0", "0"]], "n": 5}}'),
    ]
    for mf, expected in golden:
        code, out = run(capsys, ["coherent", "--input", write_input(tmp_path, multifield_to_json(mf))])
        assert code == 0 and out == expected + "\n"


def test_cell_outputs_golden_stdout(tmp_path, capsys):
    # covectors, render, decompose and the bounded tree, each
    # on a matrix with ∞ and fractions; the cells' matrices must not depend
    # on how they are built
    A = {"entries": [[0, "1/2", "inf", 2], ["inf", 0, "3/2", 1], [1, "inf", 0, "-1/2"]]}
    code, out = run(capsys, ["covectors", "--input", write_input(tmp_path, A)])
    assert code == 0 and out == (
        '[{"covector": [[1], [1], [2], [1]], "dim": 2}, {"covector": [[1], [1], [2], [1, 2]], "dim": 1}, '
        '{"covector": [[1], [1], [2, 3], [1, 2, 3]], "dim": 0}, {"covector": [[1], [1], [2, 3], [1]], "dim": 1}, '
        '{"covector": [[1], [1], [3], [1]], "dim": 2}, {"covector": [[1], [1], [3], [1, 3]], "dim": 1}, '
        '{"covector": [[1], [1, 2], [2], [2]], "dim": 1}, {"covector": [[1], [1, 2], [2, 3], [2, 3]], "dim": 0}, '
        '{"covector": [[1, 3], [1, 2], [3], [3]], "dim": 0}, {"covector": [[1], [1, 2], [3], [3]], "dim": 1}, '
        '{"covector": [[1], [1], [2], [2]], "dim": 2}, {"covector": [[1], [1], [2, 3], [2, 3]], "dim": 1}, '
        '{"covector": [[1, 3], [1], [3], [3]], "dim": 1}, {"covector": [[1], [1], [3], [3]], "dim": 2}, '
        '{"covector": [[1], [2], [2], [2]], "dim": 2}, {"covector": [[1, 3], [2], [2], [2]], "dim": 1}, '
        '{"covector": [[1, 3], [2], [2, 3], [2, 3]], "dim": 0}, {"covector": [[1], [2], [2, 3], [2, 3]], "dim": 1}, '
        '{"covector": [[1, 3], [2], [3], [3]], "dim": 1}, {"covector": [[1], [2], [3], [3]], "dim": 2}, '
        '{"covector": [[3], [1, 2], [3], [3]], "dim": 1}, {"covector": [[3], [1], [3], [3]], "dim": 2}, '
        '{"covector": [[3], [2], [2], [2]], "dim": 2}, {"covector": [[3], [2], [2, 3], [2, 3]], "dim": 1}, '
        '{"covector": [[3], [2], [3], [3]], "dim": 2}]\n'
    )
    for y, expected in [
        (["0", "1", "2", "2"], '{"certificate": {"J": [2, 4], "covector": [[1], [1, 2], [2, 3], [2, 3]], '
                               '"slack": ["0", "1/2", "0", "1/2"], "x": ["0", "1/2", "2"]}, "in_L": true}'),
        (["0", "0", "0", "0"], '{"in_L": false}'),
    ]:
        path = write_input(tmp_path, {"matrix": A, "vector": {"entries": y}})
        code, out = run(capsys, ["decompose", "--input", path])
        assert code == 0 and out == expected + "\n"
    # the arrangement SVG places each cell at its point
    code, out = run(capsys, ["render", "--input", write_input(tmp_path, A)])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == "64b797c79a6df6087a972378f80218bf3fc70bfc3100fb2345b56008d7d4af96"
    B = {"entries": [[0, 1, "1/2", 3, 0], [2, 0, 1, "-1", "inf"]]}
    code, out = run(capsys, ["bounded", "--format", "svg", "--input", write_input(tmp_path, B)])
    assert code == 0 and out == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="260" height="120" viewBox="0 0 260 120">'
        '<line x1="40" y1="60" x2="130" y2="60" stroke="black"/><line x1="130" y1="60" x2="220" y2="60" stroke="black"/>'
        '<circle cx="40" cy="60" r="4" fill="black"/><circle cx="130" cy="60" r="4" fill="black"/>'
        '<circle cx="220" cy="60" r="4" fill="black"/></svg>\n'
    )


SEEDED_DIGEST = "22258e5c4a297504965222fb65fa3c4836f5623bfcde9ea299fe1803ee2780c0"


def test_seeded_output_digest(capsys, monkeypatch):
    """One sha256 over the exit codes and stdout of six commands on 100
    seeded matrices, 1 <= d <= 4 and n <= 6, with ∞ and fractional entries:
    covectors, facets, render, bounded --format svg, and decompose and
    bounded on a point y that is x ⊙ A, raised on some columns, or drawn
    at random.  A refactor of the cells must leave every byte as it was."""
    rng = random.Random(32)
    digest = hashlib.sha256()
    for _ in range(100):
        d = rng.randint(1, 4)
        n = rng.randint(d, 6)
        p_inf = rng.choice([0, 0.15, 0.3])
        rows = [["inf" if rng.random() < p_inf else f"{rng.randint(-6, 6)}/{rng.choice([1, 1, 2, 3])}" for _ in range(n)] for _ in range(d)]
        x = [Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(d)]
        if rng.random() < 0.5:
            y = [min((x[i] + Fraction(rows[i][j]) for i in range(d) if rows[i][j] != "inf"), default=0) + rng.choice([0, 0, 1]) for j in range(n)]
        else:
            y = [Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(n)]
        A = json.dumps({"entries": rows})
        point = json.dumps({"matrix": {"entries": rows}, "vector": {"entries": [str(v) for v in y]}})
        for argv, text in ((["covectors"], A), (["facets"], A), (["render"], A), (["bounded", "--format", "svg"], A),
                           (["decompose"], point), (["bounded"], point)):
            code, out = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == SEEDED_DIGEST


MATCHING_DIGEST = "566c517a50eed2842e96a413f87f4baed9e768a78ded4bd9ae1d9ac595510b81"


def test_seeded_matching_digest(capsys, monkeypatch):
    """One sha256 over the exit codes and stdout of the matching commands on
    120 seeded matrices, 1 <= d <= 3 and n <= 5, with ∞ and fractional
    entries: stiefel, plucker-check on its output, multifield, and coherent
    on each multifield, on a copy with one chosen matching dropped from the
    first J that has two, and on a copy with a repeated column; then
    recover on the Stiefel image of a matrix drawn on a random support
    set.  A refactor of matchings and matroids must leave every byte as it
    was."""
    rng = random.Random(33)
    digest = hashlib.sha256()

    def record(argv, obj):
        code, out = run(capsys, argv, stdin=json.dumps(obj), monkeypatch=monkeypatch)
        digest.update(f"{code}\n{out}".encode())
        return code, out

    def scalar():
        return f"{rng.randint(-6, 6)}/{rng.choice([1, 1, 2, 3])}"

    for _ in range(120):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        p_inf = rng.choice([0, 0.15, 0.3])
        A = {"entries": [["inf" if rng.random() < p_inf else scalar() for _ in range(n)] for _ in range(d)]}
        code, out = record(["stiefel"], A)
        if code == 0:
            record(["plucker-check"], json.loads(out))
        code, out = record(["multifield"], A)
        if code == 0:
            mf = json.loads(out)
            record(["coherent"], mf)
            ties = [J for J, ms in mf["choices"].items() if len(ms) >= 2]
            if ties:
                ms, k = mf["choices"][ties[0]], rng.randrange(len(mf["choices"][ties[0]]))
                record(["coherent"], {**mf, "choices": {**mf["choices"], ties[0]: ms[:k] + ms[k + 1:]}})
            if d >= 2:
                J = next(iter(mf["choices"]))
                (i, j), *rest = mf["choices"][J][0]
                repeated = [[i, j], [rest[0][0], j], *rest[1:]]
                record(["coherent"], {**mf, "choices": {**mf["choices"], J: [repeated]}})
        G = (d, n, random_support_set(rng, d, n))
        B = TropMatrix([[scalar() if (i, j) in G[2] else "inf" for j in range(1, n + 1)] for i in range(1, d + 1)])
        record(["recover"], {"plucker": plucker_to_json(stiefel_map(B)), "support": graph_to_json(G)})
    assert digest.hexdigest() == MATCHING_DIGEST


QUERY_DIGEST = "3721bcfab71a8dbd2a28208da2271e22940a4d098df7217bcf4f6d64081e6ec7"


def test_seeded_query_digest(capsys, monkeypatch):
    """One sha256 over the exit codes and stdout of the query commands on
    100 seeded matrices, 1 <= d <= 4 and n <= 6, with ∞ and fractional
    entries: member on a point y that is x ⊙ A, x ⊙ A with some coordinates
    ∞, x ⊙ A raised on one column, or drawn at random; support-set on a
    seeded graph, some with d > n + 1; and gen d n in each mode.  A refactor
    must leave every byte as it was."""
    rng = random.Random(35)
    digest = hashlib.sha256()

    def record(argv, text=None):
        code, out = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        digest.update(f"{code}\n{out}".encode())

    def scalar():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))

    for _ in range(100):
        d = rng.randint(1, 4)
        n = rng.randint(d, 6)
        p_inf = rng.choice([0, 0.15, 0.3])
        rows = [[None if rng.random() < p_inf else scalar() for _ in range(n)] for _ in range(d)]
        x = [scalar() for _ in range(d)]
        image = [min((x[i] + rows[i][j] for i in range(d) if rows[i][j] is not None), default=None) for j in range(n)]
        with_inf = [None if rng.random() < 0.4 else v for v in image]
        raised = list(image)
        k = rng.randrange(n)
        raised[k] = None if raised[k] is None else raised[k] + rng.choice([Fraction(1, 2), 1, 2])
        drawn = [scalar() for _ in range(n)]
        entries = [["inf" if v is None else str(v) for v in row] for row in rows]
        for y in (image, with_inf, raised, drawn):
            point = {"matrix": {"entries": entries}, "vector": {"entries": ["inf" if v is None else str(v) for v in y]}}
            record(["member"], json.dumps(point))
        gd, gn = rng.randint(1, 5), rng.randint(1, 6)
        p_edge = rng.choice([0.5, 0.8, 1])
        G = {"d": gd, "n": gn, "edges": [[i, j] for i in range(1, gd + 1) for j in range(1, gn + 1) if rng.random() < p_edge]}
        record(["support-set"], json.dumps(G))
        seed = str(rng.randrange(1000))
        for mode in ("dense", "support-set", "pointed"):
            record(["gen", str(d), str(n), "--seed", seed, "--mode", mode])
    assert digest.hexdigest() == QUERY_DIGEST


def test_support_set_answers_on_complete_24x25(tmp_path, capsys):
    # 2^24 − 1 row subsets, which a scan would take tens of minutes over:
    # the surplus condition is 24 assignment problems, and holds, but no
    # row has the n − d + 1 = 2 columns of a support set
    G = {"d": 24, "n": 25, "edges": [[i, j] for i in range(1, 25) for j in range(1, 26)]}
    start = time.monotonic()
    code, out = run(capsys, ["support-set", "--input", write_input(tmp_path, G)])
    assert code == 0 and json.loads(out) == {"h1": 24 * 25 - 49 + 1, "is_support_set": False}
    assert time.monotonic() - start < 5


def test_coherence_and_plucker_budgets_refuse_up_front(tmp_path, capsys):
    # the multifield of the zero 5x8, supported on every edge, has 56 · 120
    # supported matchings for the coherence LP, and the zero rank-8 vector
    # on [16] about 1.2·10^9 Plücker terms: both are refused before any LP
    # or circuit work
    dense = TropMatrix([[0] * 8 for _ in range(5)])
    zero = plucker_vector(16, 8, {frozenset(J): 0 for J in itertools.combinations(range(1, 17), 8)})
    for command, obj in (("coherent", multifield_to_json(matching_multifield(dense))), ("plucker-check", plucker_to_json(zero))):
        path = write_input(tmp_path, obj)
        start = time.monotonic()
        code, out = run(capsys, [command, "--input", path])
        assert code == 1 and json.loads(out) == {"error": "BUDGET_EXCEEDED"}
        assert time.monotonic() - start < 5


def test_fuzzed_json_documents_exit_cleanly(capsys, monkeypatch):
    """Each key of a small valid document per command, at any depth,
    replaced in turn by a value of the wrong shape: the CLI exits 0, 1 or 2,
    and every exit 1 prints a JSON error object."""
    M = matrix_to_json(TWO_ROW)
    on_support = TropMatrix([[0, 0, 0, "inf"], ["inf", 0, 1, 0]])
    point = {"matrix": M, "vector": {"entries": ["0", "1", "1", "0"]}}
    documents = [
        (["stiefel"], M), (["multifield"], M), (["covectors"], M), (["facets"], M), (["render"], M), (["render", "--kind", "tree"], M), (["bounded", "--format", "svg"], M),
        (["member"], point), (["decompose"], point), (["bounded"], point),
        (["plucker-check"], plucker_to_json(stiefel_map(TWO_ROW))),
        (["coherent"], multifield_to_json(matching_multifield(TWO_ROW))),
        (["support-set"], graph_to_json(support_graph(TWO_ROW))),
        (["recover"], {"plucker": plucker_to_json(stiefel_map(on_support)),
                       "support": graph_to_json(support_graph(on_support))}),
    ]

    def paths(obj, prefix=()):
        yield prefix
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield from paths(value, prefix + (key,))

    def replaced(obj, path, value):
        if not path:
            return value
        return {**obj, path[0]: replaced(obj[path[0]], path[1:], value)}

    for argv, doc in documents:
        code, _ = run(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0, argv
        for path in paths(doc):
            for value in (5, "x", None, [], {}, [[1]]):
                stdin = json.dumps(replaced(doc, path, value))
                code, out = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
                assert code in (0, 1, 2), (argv, stdin)
                if code == 1:
                    error = json.loads(out)
                    assert list(error) == ["error"] and isinstance(error["error"], str), (argv, stdin)
