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


def _well_formed(doc, type_name, parabolic):
    if not isinstance(doc, dict):
        return "not a JSON object"
    if doc.get("version") != TABLE_FORMAT_VERSION:
        return f"format version {doc.get('version')!r} != {TABLE_FORMAT_VERSION}"
    if doc.get("type") != type_name or doc.get("parabolic") != list(parabolic.indices):
        return "type/parabolic header mismatch"
    entries = doc.get("entries")
    if not isinstance(entries, list):
        return "entries is not a list"
    free = CartanType.parse(type_name).rank - len(parabolic)
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and {"u", "v", "terms"} <= set(entry)
            and type(entry["u"]) is type(entry["v"]) is str
            and type(entry["terms"]) is list
        ):
            return "malformed entry"
        for term in entry["terms"]:
            if not isinstance(term, dict) or not {"w", "q", "c"} <= set(term):
                return "malformed term"
            q = term["q"]
            if (
                type(term["w"]) is not str or type(term["c"]) is not int
                or type(q) is not list or len(q) != free
            ):
                return "malformed term payload"
            for x in q:  # a loop, not all(...): this runs once per cached term
                if type(x) is not int:
                    return "malformed term payload"
    return None


def load_document(path, type_name, parabolic):
    """Return (entries, problem).  entries is None unless the file exists and
    passes every structural check; problem describes why it was rejected."""
    if not os.path.exists(path):
        return None, None
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"unreadable cache {path}: {exc}"
    problem = _well_formed(doc, type_name, parabolic)
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
