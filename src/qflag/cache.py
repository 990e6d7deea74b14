"""Persistence and encoding of structure-constant tables.

One JSON document per (type, parabolic), format version 1.  The cache file
is byte for byte the stdout of `table --json`: `write_document`, the one
schema writer, streams the bytes of json.dumps(doc, indent=2, sort_keys=True)
and a final newline entry by entry, without running json's pure-Python
indent encoder and without holding the document.  A fresh table is streamed
into a new file in the cache directory, renamed onto the cache file when it
is complete, and then copied to stdout; a failure removes the new file.

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
from contextlib import contextmanager
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


def _int_list(values, pad):
    """A list of ints as json's indent=2 encoder writes it at indent `pad`."""
    if not values:
        return "[]"
    inner = f",\n{pad}  ".join(json.dumps(x) for x in values)
    return f"[\n{pad}  {inner}\n{pad}]"


def terms_encoder():
    """A function that encodes an entry's terms, given as (word, q-degree,
    coefficient) triples, as json's indent=2 encoder writes the entry's
    "terms" list.  Each distinct word and degree is encoded once."""
    words = cache(json.dumps)
    degrees = cache(lambda q: _int_list(q, " " * 10))

    def encode(terms):
        body = ",\n".join(
            f'        {{\n          "c": {c},\n'
            f'          "q": {degrees(tuple(q))},\n'
            f'          "w": {words(w)}\n        }}'
            for w, q, c in terms
        )
        return f"[\n{body}\n      ]" if body else "[]"

    return encode


def write_document(handle, type_name, parabolic, entries):
    """Write a table document to `handle` as print(json.dumps(doc, indent=2,
    sort_keys=True)) gives it, one entry at a time.  `entries` yields each
    entry as (u, v, terms), with the terms encoded by a `terms_encoder`;
    `parabolic` is the list of parabolic nodes."""
    words = cache(json.dumps)
    handle.write('{\n  "entries": ')
    opening = "[\n"
    for u, v, terms in entries:
        handle.write(
            f'{opening}    {{\n      "terms": {terms},\n      "u": {words(u)},\n'
            f'      "v": {words(v)}\n    }}'
        )
        opening = ",\n"
    handle.write("[]" if opening == "[\n" else "\n  ]")
    handle.write(
        f',\n  "parabolic": {_int_list(parabolic, "  ")},\n'
        f'  "type": {json.dumps(type_name)},\n'
        f'  "version": {TABLE_FORMAT_VERSION}\n}}\n'
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


@contextmanager
def new_document(path):
    """Yield (handle, tmp): a new text file named `tmp` in the cache
    directory, with mode 0666 less the umask, to stream a table document
    bound for the cache file at `path` into, for `store_document` to rename
    onto `path`.  On the way out the file is removed unless it was stored."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".qflag-{os.urandom(8).hex()}.tmp")
    try:
        # mode 0666 less the umask, like any other file the user writes; in
        # the try, so that a signal handled as the file appears removes it
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle, tmp
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def store_document(path, handle, tmp):
    """Make the document streamed into `handle`, the file `tmp` of
    `new_document`, the cache file at `path`, atomically."""
    handle.flush()
    os.replace(tmp, path)
