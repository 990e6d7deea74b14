"""Tests for the benchmark's output checks, on hand-computed products.

Run from the repository root: python3 -m pytest -q perfbench
"""

import copy
import json

import pytest

import checks


def _mul_doc(type_name, u, v, terms):
    return {"type": type_name, "parabolic": [], "u": u, "v": v, "terms": terms}


def _term(w, q, c=1):
    return {"w": w, "q": q, "c": c}


# P^1 = A1/B: pt * pt = q
P1_PT_PT = _mul_doc("A1", "s1", "s1", [_term("e", [1])])
# A2/B: w0 * w0 = q1 q2 (sigma[s1s2] + sigma[s2s1])
A2_W0_W0 = _mul_doc(
    "A2", "s1s2s1", "s2s1s2", [_term("s1s2", [1, 1]), _term("s2s1", [1, 1])]
)


def _p2_table():
    """QH*(P^2) = QH*(A2/{2}) with h = sigma[s1], pt = sigma[s2s1]:
    h*h = pt, h*pt = q, pt*pt = q h."""
    basis = ["e", "s1", "s2s1"]
    products = {
        ("s1", "s1"): [_term("s2s1", [0])],
        ("s1", "s2s1"): [_term("e", [1])],
        ("s2s1", "s1"): [_term("e", [1])],
        ("s2s1", "s2s1"): [_term("s1", [1])],
    }
    entries = []
    for u in basis:
        for v in basis:
            if u == "e" or v == "e":
                terms = [_term(v if u == "e" else u, [0])]
            else:
                terms = products[(u, v)]
            entries.append({"u": u, "v": v, "terms": terms})
    return {"version": 1, "type": "A2", "parabolic": [2], "entries": entries}


def _check_mul(doc):
    return checks.check_mul_json(json.dumps(doc), doc["type"], doc["u"], doc["v"])


def _check_p2(doc):
    return checks.check_table_json(json.dumps(doc), "A2", (2,), seed=0)


def test_accepts_hand_computed_products():
    assert _check_mul(P1_PT_PT) == []
    assert _check_mul(A2_W0_W0) == []
    assert _check_p2(_p2_table()) == []


def _entry(doc, u, v):
    return next(e for e in doc["entries"] if (e["u"], e["v"]) == (u, v))


def _change_coefficient(terms):
    terms[0]["c"] += 1


def _drop_term(terms):
    terms.pop()


def _shift_degree(terms):
    terms[0]["q"][0] += 1


CORRUPTIONS = [_change_coefficient, _drop_term, _shift_degree]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("pair", [("s2s1", "s2s1"), ("s1", "s1"), ("s1", "s2s1")])
def test_rejects_corrupted_table_entry(corrupt, pair):
    doc = _p2_table()
    corrupt(_entry(doc, *pair)["terms"])
    assert _check_p2(doc)


@pytest.mark.parametrize("corrupt", [_drop_term, _shift_degree])
def test_rejects_corrupted_point_square_on_p1(corrupt):
    doc = copy.deepcopy(P1_PT_PT)
    corrupt(doc["terms"])
    assert _check_mul(doc)


def test_rejects_shifted_degree_on_a2():
    doc = copy.deepcopy(A2_W0_W0)
    _shift_degree(doc["terms"])
    assert _check_mul(doc)


def test_rejects_non_integer_and_non_reduced_terms():
    doc = copy.deepcopy(A2_W0_W0)
    doc["terms"][0]["c"] = 1.0
    assert _check_mul(doc)
    doc = copy.deepcopy(A2_W0_W0)
    doc["terms"][0]["w"] = "s1s1s1s2"
    assert _check_mul(doc)


def test_minimal_degree_is_the_quantum_bruhat_graph_weight():
    # w0 * w0 on A2: the shortest path from w0 to w0 w0 = e has weight (1, 1)
    rd = checks.root_data("A2")
    w0 = rd.longest()
    assert rd.qbg_weights(w0)[rd.identity] == (1, 1)
    # on P^1 the path s1 -> e is one quantum edge of weight 1
    rd = checks.root_data("A1")
    assert rd.qbg_weights(rd.from_word((1,)))[rd.identity] == (1,)


def test_projective_closed_form():
    good = {"classes": ["s1", "s2s1", "s2s1"], "degree": [1], "invariant": 1}
    assert checks.check_projective_gw_json(json.dumps(good), 2, ["s1", "s2s1", "s2s1"], 1) == []
    # s1s2 is a non-minimal representative of the class of s1
    good = {"classes": ["s1", "s1", "e"], "degree": [0], "invariant": 1}
    assert checks.check_projective_gw_json(json.dumps(good), 2, ["s1s2", "s1", "s2"], 0) == []
    bad = dict(good, invariant=0)
    assert checks.check_projective_gw_json(json.dumps(bad), 2, ["s1s2", "s1", "s2"], 0)


def test_text_table_agrees_with_json():
    doc = _p2_table()
    lines = ["type: A2  parabolic: [2]  basis: 3  entries: 9"]
    rendered = {("s1", "s1"): "sigma[s2s1]", ("s1", "s2s1"): "q1",
                ("s2s1", "s1"): "q1", ("s2s1", "s2s1"): "q1 * sigma[s1]"}
    for e in doc["entries"]:
        other = e["v"] if e["u"] == "e" else e["u"]
        text = rendered.get((e["u"], e["v"]), "sigma[e]" if other == "e" else f"sigma[{other}]")
        lines.append(f"sigma[{e['u']}] * sigma[{e['v']}] = {text}")
    assert checks.check_table_text("\n".join(lines) + "\n", json.dumps(doc)) == []
    lines[-1] = lines[-1].replace("q1 * sigma[s1]", "2 * q1 * sigma[s1]")
    assert checks.check_table_text("\n".join(lines) + "\n", json.dumps(doc))


def test_comparison_suite_lines():
    lines = [
        f"PASS d=[{d}]: permutation-symmetry "
        f"({checks.graded_triples('A2', (2,), (d,))} graded triples, 0 asymmetric)"
        for d in range(3)
    ]
    text = "\n".join(lines + ["suite comparison: PASS"]) + "\n"
    assert checks.check_comparison_text(text, "A2", (2,), 2) == []
    assert checks.check_comparison_text(text.replace("PASS d=[1]", "FAIL d=[1]"), "A2", (2,), 2)
    assert checks.check_comparison_text(text, "A2", (2,), 3)
