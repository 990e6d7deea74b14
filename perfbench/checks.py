"""Output checks for qflag commands, made from independent mathematics.

Every check below is a property the method must have, computed with
``oracle.RootData`` and never with qflag itself or a stored copy of earlier
output:

* integrality, positivity and grading of every term;
* commutativity and the unit row of every table;
* Poincare duality at q^0: the point class appears classically in
  sigma_u * sigma_v exactly when v is dual to u, with coefficient 1;
* associativity on seeded triples, computed from the table's own entries;
* on full flags, a unique minimal q-degree equal to the weight of a shortest
  path from u to w0 v in the quantum Bruhat graph (Postnikov, PAMS 2005);
* on projective space, the three-point invariant is 1 exactly when
  a + b + c = n + d (n + 1), and 0 otherwise;
* every line of a comparison suite reports PASS, one degree at a time, with
  the number of graded triples the oracle counts.

Each checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import random
import re
from itertools import product as iter_product

from oracle import RootData, format_word, parse_word, reduced_word

# triples audited for associativity when a table's basis has more than 10 classes
ASSOCIATIVITY_SAMPLES = 40

_ROOT_DATA = {}
_QBG = {}


def guarded(check, *args):
    """Run one check; a checker that trips over malformed output reports
    that as a problem instead of ending the run."""
    try:
        return check(*args)
    except Exception as exc:  # any malformed output fails its command
        return [f"output could not be checked: {exc!r}"]


def root_data(name: str) -> RootData:
    rd = _ROOT_DATA.get(name)
    if rd is None:
        rd = _ROOT_DATA[name] = RootData(name)
    return rd


def _qbg_weight(rd, u, target):
    key = (rd.name, u)
    weights = _QBG.get(key)
    if weights is None:
        weights = _QBG[key] = rd.qbg_weights(u)
    return weights[target]


class Ring:
    """Basis data of QH*(G/P) from the oracle: minimal coset
    representatives, lengths, degree weights, point class and duality."""

    def __init__(self, type_name, parabolic):
        rd = root_data(type_name)
        self.rd = rd
        self.parabolic = tuple(sorted(parabolic))
        self.basis = rd.min_reps(self.parabolic)
        self.basis_set = set(self.basis)
        self.weights = rd.degree_weights(self.parabolic)
        self.zero = (0,) * len(self.weights)
        self.w0 = rd.longest()
        self.point = rd.min_rep(self.w0, self.parabolic)
        self._words = {}

    def element(self, text):
        """Element named by a word, or None when the word does not parse."""
        w = self._words.get(text)
        if w is None:
            try:
                w = self.rd.from_word(parse_word(text))
            except ValueError:
                return None
            self._words[text] = w
        return w

    def dual(self, u):
        return self.rd.min_rep(self.rd.compose(self.w0, u), self.parabolic)

    def length(self, w):
        return self.rd.length(w)


def parse_terms(ring, terms):
    """Read a JSON term list into {(element, degree): coefficient}, with the
    problems found in the individual terms."""
    problems, poly = [], {}
    if not isinstance(terms, list):
        return poly, ["terms is not a list"]
    for term in terms:
        if not isinstance(term, dict) or set(term) != {"w", "q", "c"}:
            problems.append(f"malformed term {term!r}")
            continue
        w, q, c = ring.element(str(term["w"])), term["q"], term["c"]
        if w is None:
            problems.append(f"term word {term['w']!r} does not parse")
            continue
        if len(parse_word(term["w"])) != ring.length(w):
            problems.append(f"term word {term['w']} is not reduced")
        if w not in ring.basis_set:
            problems.append(f"term class {term['w']} is not a minimal coset representative")
        if type(c) is not int or c <= 0:
            problems.append(f"coefficient {c!r} at {term['w']} is not a positive integer")
        if (
            not isinstance(q, list)
            or len(q) != len(ring.zero)
            or any(type(x) is not int or x < 0 for x in q)
        ):
            problems.append(f"degree {q!r} at {term['w']} is not a nonnegative degree vector")
            continue
        key = (w, tuple(q))
        if key in poly:
            problems.append(f"duplicate term ({term['w']}, {q})")
        poly[key] = c
    return poly, problems


def product_problems(ring, u, v, poly):
    """Grading, duality at q^0 and, on G/B, Postnikov's minimal degree."""
    problems = []
    grade = ring.length(u) + ring.length(v)
    for (w, q) in poly:
        if ring.length(w) + sum(a * b for a, b in zip(q, ring.weights)) != grade:
            problems.append(f"term ({_word(ring, w)}, {list(q)}) breaks the grading")
    expected = 1 if v == ring.dual(u) else 0
    if poly.get((ring.point, ring.zero), 0) != expected:
        problems.append(f"classical point coefficient is not {expected} (Poincare duality)")
    if not ring.parabolic:
        degrees = {q for (_, q) in poly}
        minimal = [
            d for d in degrees
            if not any(e != d and all(a <= b for a, b in zip(e, d)) for e in degrees)
        ]
        target = _qbg_weight(ring.rd, u, ring.rd.compose(ring.w0, v))
        if minimal != [target]:
            problems.append(
                f"minimal q-degrees {sorted(minimal)} != quantum Bruhat graph weight {list(target)}"
            )
    return problems


def _word(ring, w):
    return format_word(reduced_word(ring.rd, w))


def _star(table, left, right):
    """Bilinear product of two q-polynomials, read off the table."""
    out = {}
    for (x, dx), cx in left.items():
        for (y, dy), cy in right.items():
            for (w, d), c in table[(x, y)].items():
                key = (w, tuple(p + q + r for p, q, r in zip(dx, dy, d)))
                out[key] = out.get(key, 0) + cx * cy * c
    return out


def check_table_json(text, type_name, parabolic, seed):
    """A whole structure-constant table printed by ``qflag table --json``.
    Associativity is checked on every triple of a small basis, else on
    ASSOCIATIVITY_SAMPLES triples drawn with the seed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["table document is not an object"]
    ring = Ring(type_name, parabolic)
    problems = []
    if doc.get("type") != type_name or doc.get("parabolic") != list(ring.parabolic):
        problems.append("type/parabolic header does not echo the command")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        return problems + ["entries is not a list"]
    table = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"u", "v", "terms"}:
            problems.append(f"malformed entry {entry!r:.80}")
            continue
        u, v = ring.element(entry["u"]), ring.element(entry["v"])
        if u not in ring.basis_set or v not in ring.basis_set:
            problems.append(f"entry ({entry['u']}, {entry['v']}) is not a basis pair")
            continue
        if (u, v) in table:
            problems.append(f"entry ({entry['u']}, {entry['v']}) repeats")
        poly, bad = parse_terms(ring, entry["terms"])
        problems += bad
        problems += product_problems(ring, u, v, poly)
        table[(u, v)] = poly
    if len(table) != len(ring.basis) ** 2:
        return problems + [f"{len(table)} entries, expected {len(ring.basis) ** 2}"]
    for (u, v), poly in table.items():
        if table[(v, u)] != poly:
            problems.append(f"not commutative at ({_word(ring, u)}, {_word(ring, v)})")
    e = ring.rd.identity
    for v in ring.basis:
        if table[(e, v)] != {(v, ring.zero): 1}:
            problems.append(f"unit row fails at {_word(ring, v)}")
    if len(ring.basis) ** 3 <= 1000:
        triples = list(iter_product(ring.basis, repeat=3))
    else:
        rng = random.Random(seed)
        triples = [tuple(rng.choice(ring.basis) for _ in range(3)) for _ in range(ASSOCIATIVITY_SAMPLES)]
    for a, b, c in triples:
        left = _star(table, table[(a, b)], {(c, ring.zero): 1})
        if left != _star(table, {(a, ring.zero): 1}, table[(b, c)]):
            problems.append(f"not associative at ({_word(ring, a)}, {_word(ring, b)}, {_word(ring, c)})")
    return problems


def parse_rendered(text, nq):
    """Terms of one rendered product, "2 * q1^2*q2 * sigma[s1] + q1", as
    {(word, degree): coefficient}; None when the text does not parse."""
    if text == "0":
        return {}
    out = {}
    for bit in text.split(" + "):
        parts = bit.split(" * ")
        c = int(parts.pop(0)) if parts[0].isdigit() else 1
        q = [0] * nq
        if parts and re.fullmatch(r"q\d+(\^\d+)?(\*q\d+(\^\d+)?)*", parts[0]):
            for factor in parts.pop(0).split("*"):
                t, _, e = factor[1:].partition("^")
                if not 1 <= int(t) <= nq:
                    return None
                q[int(t) - 1] = int(e or 1)
        word = "e"
        if parts and (m := re.fullmatch(r"sigma\[(\w+)\]", parts[0])):
            word = m.group(1)
            parts.pop(0)
        if parts or not bit:
            return None
        out[(word, tuple(q))] = c
    return out


def check_table_text(text, json_text):
    """A table printed as text must list the same products, in the same
    order, as the JSON table of the same command."""
    doc = json.loads(json_text)
    lines = text.splitlines()
    entries = doc["entries"]
    problems = []
    header = f"type: {doc['type']}  parabolic: {doc['parabolic']}  "
    if not lines or not lines[0].startswith(header) or not lines[0].endswith(f"entries: {len(entries)}"):
        return ["header line does not match the table"]
    if len(lines) != len(entries) + 1:
        return [f"{len(lines) - 1} product lines, expected {len(entries)}"]
    nq = int(doc["type"][1:]) - len(doc["parabolic"])
    for line, entry in zip(lines[1:], entries):
        prefix = f"sigma[{entry['u']}] * sigma[{entry['v']}] = "
        if not line.startswith(prefix):
            problems.append(f"line {line[:60]!r} is out of order")
            continue
        expected = {(t["w"], tuple(t["q"])): t["c"] for t in entry["terms"]}
        if parse_rendered(line[len(prefix):], nq) != expected:
            problems.append(f"line {line[:60]!r} disagrees with the JSON table")
    return problems


def check_mul_json(text, type_name, u_word, v_word):
    """One full-flag product printed by ``qflag mul --json``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    ring = Ring(type_name, ())
    u, v = ring.element(u_word), ring.element(v_word)
    problems = []
    if doc.get("type") != type_name or doc.get("parabolic") != []:
        problems.append("type/parabolic does not echo the command")
    if ring.element(str(doc.get("u"))) != u or ring.element(str(doc.get("v"))) != v:
        problems.append("u/v do not name the input classes")
    poly, bad = parse_terms(ring, doc.get("terms"))
    return problems + bad + product_problems(ring, u, v, poly)


def same_terms(text_a, text_b):
    """Whether two ``mul --json`` outputs hold the same terms, as the
    products sigma_u * sigma_v and sigma_v * sigma_u must."""
    try:
        return json.loads(text_a)["terms"] == json.loads(text_b)["terms"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return False


def graded_triples(type_name, parabolic, degree):
    """Number of basis triples whose lengths add up to dim G/P + c_1(d)."""
    ring = Ring(type_name, parabolic)
    target = ring.rd.flag_dimension(ring.parabolic) + sum(
        a * b for a, b in zip(degree, ring.weights)
    )
    counts = {}
    for w in ring.basis:
        counts[ring.length(w)] = counts.get(ring.length(w), 0) + 1
    return sum(
        counts[a] * counts[b] * counts.get(target - a - b, 0)
        for a in counts for b in counts
    )


def comparison_degrees(type_name, parabolic, max_degree):
    ring = Ring(type_name, parabolic)
    return list(iter_product(range(max_degree + 1), repeat=len(ring.weights)))


def check_comparison_text(text, type_name, parabolic, max_degree):
    """``qflag check --suite comparison`` in text: every line PASS, and one
    permutation-symmetry line per degree with the oracle's triple count."""
    lines = text.splitlines()
    if not lines or lines[-1] != "suite comparison: PASS":
        return ["suite does not end with 'suite comparison: PASS'"]
    problems = [f"line {line!r} does not pass" for line in lines[:-1] if not line.startswith("PASS ")]
    for degree in comparison_degrees(type_name, parabolic, max_degree):
        count = graded_triples(type_name, parabolic, degree)
        want = f"PASS d={list(degree)}: permutation-symmetry ({count} graded triples, "
        if not any(line.startswith(want) for line in lines):
            problems.append(f"no permutation-symmetry line with the graded-triple count at d={list(degree)}")
    return problems


def check_projective_gw_json(text, n, words, degree):
    """``qflag gw --json`` on P^n = A_n/{2..n}: classes normalized to
    minimal representatives, and the invariant equal to the closed form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    ring = Ring(f"A{n}", range(2, n + 1))
    reps = [ring.rd.min_rep(ring.element(w), ring.parabolic) for w in words]
    problems = []
    got = [ring.element(str(w)) for w in doc.get("classes", ())]
    if got != reps:
        problems.append("classes are not the minimal representatives of the input")
    if doc.get("degree") != [degree]:
        problems.append("degree does not echo the command")
    lengths = [ring.length(w) for w in reps]
    expected = 1 if sum(lengths) == n + degree * (n + 1) else 0
    if doc.get("invariant") != expected:
        problems.append(
            f"invariant {doc.get('invariant')!r} != {expected} for codimensions {lengths}, d={degree}"
        )
    return problems
