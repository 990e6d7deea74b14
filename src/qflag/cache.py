"""Persistence and encoding of structure-constant tables.

One JSON document per (type, parabolic), format version 1.  The cache file
is byte for byte the stdout of `table --json` (plus a final newline): both
are the one string of `encode_document`, the schema writer, which gives the
bytes of json.dumps(doc, indent=2, sort_keys=True) without running json's
pure-Python indent encoder.

A cached document is trusted only after one pass over all of it: the format
version, the type/parabolic header, one entry per (u, v) pair of basis words
in the basis order, exactly the keys {u, v, terms} on an entry and
{w, q, c} on a term, every term word a basis word, non-negative int
q-degrees with one coordinate per free node, positive int coefficients, and
the grading l(w) + c_1(q) = l(u) + l(v) on every term.  Anything else is
reported back and never trusted.  Writes are whole-file atomic, and a cache
file gets mode 0666 less the umask.
"""

from __future__ import annotations

import json
import os
from functools import cache

from .compare import anticanonical_pairing
from .root_system import build_root_system
from .weyl import parse_word

TABLE_FORMAT_VERSION = 1


def default_cache_dir() -> str:
    return os.environ.get("QFLAG_CACHE_DIR", ".qflag-cache")


def table_path(cache_dir, type_name, parabolic) -> str:
    tag = "-".join(str(j) for j in parabolic.indices) or "borel"
    return os.path.join(cache_dir, f"{type_name}-{tag}.json")


def make_document(type_name, parabolic, entries) -> dict:
    return {
        "version": TABLE_FORMAT_VERSION,
        "type": type_name,
        "parabolic": list(parabolic.indices),
        "entries": entries,
    }


def _int_list(values, pad):
    """A list of ints as json's indent=2 encoder writes it at indent `pad`."""
    if not values:
        return "[]"
    inner = f",\n{pad}  ".join(json.dumps(x) for x in values)
    return f"[\n{pad}  {inner}\n{pad}]"


def encode_document(doc) -> str:
    """The string json.dumps(doc, indent=2, sort_keys=True) gives for a table
    document (str words, int degrees and coefficients), built with f-strings.
    Each distinct word and q vector is encoded once, through json.dumps."""
    words = cache(json.dumps)
    degrees = cache(lambda q: _int_list(q, " " * 10))
    entries = []
    for entry in doc["entries"]:
        terms = ",\n".join(
            f'        {{\n          "c": {t["c"]},\n'
            f'          "q": {degrees(tuple(t["q"]))},\n'
            f'          "w": {words(t["w"])}\n        }}'
            for t in entry["terms"]
        )
        terms = f"[\n{terms}\n      ]" if terms else "[]"
        entries.append(
            f'    {{\n      "terms": {terms},\n      "u": {words(entry["u"])},\n'
            f'      "v": {words(entry["v"])}\n    }}'
        )
    body = ",\n".join(entries)
    body = f"[\n{body}\n  ]" if entries else "[]"
    return (
        f'{{\n  "entries": {body},\n'
        f'  "parabolic": {_int_list(doc["parabolic"], "  ")},\n'
        f'  "type": {json.dumps(doc["type"])},\n'
        f'  "version": {json.dumps(doc["version"])}\n}}'
    )


def _well_formed(doc, type_name, parabolic, words):
    """The header, then one entry per (u, v) pair of basis words in order,
    with exact key sets, each term a basis word, non-negative integer
    degrees, a positive coefficient and the grading of G/P."""
    if not isinstance(doc, dict):
        return "not a JSON object"
    if doc.get("version") != TABLE_FORMAT_VERSION:
        return f"format version {doc.get('version')!r} != {TABLE_FORMAT_VERSION}"
    if doc.get("type") != type_name or doc.get("parabolic") != list(parabolic.indices):
        return "type/parabolic header mismatch"
    entries = doc.get("entries")
    if not isinstance(entries, list):
        return "entries is not a list"
    if len(entries) != len(words) ** 2:
        return "basis mismatch"
    rs = build_root_system(type_name)
    length = {w: len(parse_word(w)) for w in words}
    pairs = ((u, v) for u in words for v in words)
    free = rs.rank - len(parabolic)
    c1 = {}  # c_1(q) per distinct degree
    for entry, pair in zip(entries, pairs):
        # exactly the keys u, v, terms: all three present, and no other
        try:
            u, v, terms = entry["u"], entry["v"], entry["terms"]
        except (KeyError, TypeError):  # a key missing, or not an object
            return "malformed entry"
        if len(entry) != 3 or type(terms) is not list:
            return "malformed entry"
        if (u, v) != pair:
            return "basis mismatch"
        grade = length[u] + length[v]
        for term in terms:
            try:  # likewise exactly w, q, c
                w, q, c = term["w"], term["q"], term["c"]
            except (KeyError, TypeError):
                return "malformed term"
            if len(term) != 3:
                return "malformed term"
            if (
                type(w) is not str or type(c) is not int
                or type(q) is not list or len(q) != free
            ):
                return "malformed term payload"
            lw = length.get(w)
            if lw is None:
                return f"term word {w!r} is not a basis word"
            if c < 1:
                return f"non-positive coefficient {c}"
            for x in q:  # a loop, not all(...): this runs once per cached term
                if type(x) is not int:
                    return "malformed term payload"
            key = tuple(q)
            degree = c1.get(key)
            if degree is None:
                if min(key, default=0) < 0:
                    return f"negative q-degree {q}"
                # c_1 pairs to at least 2 with each free coroot, so a larger
                # degree is off the grading; it is never lifted
                if sum(key) <= grade:
                    degree = c1[key] = anticanonical_pairing(rs, parabolic, key)
            if degree is None or lw + degree != grade:
                return f"term {w!r} q^{q} of {pair} breaks the grading"
    return None


def load_document(path, type_name, parabolic, words):
    """Return (entries, problem).  entries is None unless the file exists and
    passes every check, against `words`, the basis words in order; problem
    describes why it was rejected."""
    if not os.path.exists(path):
        return None, None
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"unreadable cache {path}: {exc}"
    problem = _well_formed(doc, type_name, parabolic, words)
    if problem:
        return None, f"ignoring cache {path}: {problem}"
    return doc["entries"], None


def store_document(path, encoded):
    """Write an encoded document and a final newline atomically."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".qflag-{os.urandom(8).hex()}.tmp")
    # mode 0666 less the umask, like any other file the user writes
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(encoded)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
