"""Persistence for structure-constant tables.

One JSON document per (type, parabolic).  Documents carry a format version
and echo their type and parabolic; anything corrupted or mismatched is
reported back and never trusted.  Writes are whole-file atomic.
"""

from __future__ import annotations

import json
import os
import tempfile

from .root_system import CartanType

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


def _well_formed(doc, type_name, parabolic, words):
    """The header, then one entry per (u, v) pair of basis words in order,
    each term a basis word, integer degrees and a positive coefficient."""
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
    basis = set(words)
    pairs = ((u, v) for u in words for v in words)
    free = CartanType.parse(type_name).rank - len(parabolic)
    for entry, pair in zip(entries, pairs):
        if not (
            isinstance(entry, dict)
            and {"u", "v", "terms"} <= set(entry)
            and type(entry["terms"]) is list
        ):
            return "malformed entry"
        if (entry["u"], entry["v"]) != pair:
            return "basis mismatch"
        for term in entry["terms"]:
            if not isinstance(term, dict) or not {"w", "q", "c"} <= set(term):
                return "malformed term"
            w, q, c = term["w"], term["q"], term["c"]
            if (
                type(w) is not str or type(c) is not int
                or type(q) is not list or len(q) != free
            ):
                return "malformed term payload"
            if w not in basis:
                return f"term word {w!r} is not a basis word"
            if c < 1:
                return f"non-positive coefficient {c}"
            for x in q:  # a loop, not all(...): this runs once per cached term
                if type(x) is not int:
                    return "malformed term payload"
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
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qflag-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(encoded)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
