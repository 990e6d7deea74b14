"""Persistence and encoding of structure-constant tables.

One JSON document per (type, parabolic), format version 1.  The cache file
is byte for byte the stdout of `table --json`: `write_document`, the one
schema writer, streams the bytes of json.dumps(doc, indent=2, sort_keys=True)
and a final newline a row of entries at a time, with one write per row,
without running json's pure-Python indent encoder and without holding the
document.
`terms_encoder` writes each term of an entry as its coefficient followed
by the text of its key, which it builds once per key.  A fresh table is
streamed into a new file in the cache directory and renamed onto the cache
file when it is complete; a failure removes the new file.

`check_document`, one pass over a document that reads the basis lengths and
the c_1 weights of the free nodes off the G/P context, checks that its bytes
are exactly the canonical document the writer gives for its content: the
format version, the type/parabolic header, one entry per (u, v) pair of
basis words in the basis order, exactly the keys {u, v, terms} on an entry
and {w, q, c} on a term, at least one term on an entry, every term word a
basis word, non-negative int q-degrees with one coordinate per free node,
positive int coefficients, the grading l(w) + c_1(q) = l(u) + l(v) on every
term, and the unit row: the entries (e, v) and (v, e) are the single term
sigma_v.  c_1 is linear in the degree, so c_1(q) is the sum of q_t c_1(e_t)
and the pass lifts no degree but the unit ones.  It reads the file in
chunks, splits them at the fixed text between entries, compares the text
after an entry's terms with the one built for its row and word, and reads
each distinct term text once, through one pattern of the canonical term
layout; it never decodes the file as JSON, and it rejects the file as soon
as the text after the last split outgrows the longest entry the basis
allows.  A cache file is trusted only after this pass; anything else, a file
that decodes to a valid table in another layout included, is reported back.
The pass also writes every text table, fresh or cached, line by line, so
the text format lives here, beside its term rendering.  A table
is copied out of the file it was checked or written through, from the same
handle, so no document is held in memory.  Writes are whole-file atomic, and
a cache file gets mode 0666 less the umask.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain
from math import comb, inf
from operator import mul

from .quantum import format_terms

TABLE_FORMAT_VERSION = 1


def default_cache_dir() -> str:
    # an empty variable is unset, as an empty --cache-dir is
    return os.environ.get("QFLAG_CACHE_DIR") or ".qflag-cache"


def table_path(cache_dir, type_name, parabolic) -> str:
    tag = "-".join(str(j) for j in parabolic.indices) or "borel"
    return os.path.join(cache_dir, f"{type_name}-{tag}.json")


def _int_list(values, pad):
    """A list of ints as json's indent=2 encoder writes it at indent `pad`."""
    if not values:
        return "[]"
    inner = f",\n{pad}  ".join(json.dumps(x) for x in values)
    return f"[\n{pad}  {inner}\n{pad}]"


def terms_encoder(term_of):
    """A function that encodes an entry's terms, given in order as (key,
    coefficient) pairs, as json's indent=2 encoder writes the entry's
    "terms" list.  term_of(key) gives the term's word and q-degree, a
    tuple; the text of each key's "q" and "w" fields is built once, on
    first use, and kept as long as the encoder, and so is the text of each
    distinct word and degree."""
    texts, words = {}, cache(json.dumps)
    degrees = cache(lambda q: _int_list(q, _PAD))
    opening, separator = f'[\n        {{\n{_PAD}"c": ', f'{_TERM_SEP}{_PAD}"c": '

    def text(key):
        """The text of the term of `key` after its coefficient."""
        w, q = term_of(key)
        got = texts[key] = f',\n{_PAD}"q": {degrees(q)},\n{_PAD}"w": {words(w)}'
        return got

    def encode(terms):
        if not terms:
            return "[]"
        body = separator.join([f"{c}{texts.get(key) or text(key)}" for key, c in terms])
        return f"{opening}{body}\n        }}\n      ]"

    return encode


def write_document(handle, type_name, parabolic, rows):
    """Write a table document to `handle` as print(json.dumps(doc, indent=2,
    sort_keys=True)) gives it, a row at a time: each row of `rows` yields
    its entries as (u, v, terms), with the terms encoded by a
    `terms_encoder`, and is written with one join and one write; a row may
    be empty.  `parabolic` is the list of parabolic nodes."""
    words = cache(json.dumps)
    handle.write('{\n  "entries": ')
    opening = "[\n"
    for row in rows:
        # an entry's text is never empty, so a row's is empty only without entries
        text = ",\n".join([
            f'    {{\n      "terms": {terms},\n      "u": {words(u)},\n'
            f'      "v": {words(v)}\n    }}'
            for u, v, terms in row
        ])
        if text:
            handle.write(opening + text)
            opening = ",\n"
    handle.write("[]" if opening == "[\n" else "\n  ]")
    handle.write(_trailer(type_name, parabolic))


def _trailer(type_name, parabolic):
    """A document's text after its entries list."""
    return (
        f',\n  "parabolic": {_int_list(parabolic, "  ")},\n'
        f'  "type": {json.dumps(type_name)},\n'
        f'  "version": {TABLE_FORMAT_VERSION}\n}}\n'
    )


# the fixed text of a canonical document around its entries and terms
_HEAD = '{\n  "entries": [\n    {\n'
_ENTRY_SEP = "\n    },\n    {\n"
_ENTRIES_END = "\n    }\n  ]"
_TERMS = '      "terms": '
_TERMS_OPEN, _TERMS_CLOSE = _TERMS + "[\n        {\n", "\n        }\n      ]"
_TERM_SEP = "\n        },\n        {\n"
_Q_SEP = ",\n" + " " * 12
_PAD = " " * 10  # the indent of a term's keys
# patterns, compiled on first use.  A term text: the keys c, q and w at
# indent 10, each value any text up to the next key.  The groups are c, q,
# the ints of q's list and w; c, q and w are None unless their value has its
# type as json writes it: an int, a list of ints on lines of their own, a
# string that needs no escape
_INT = "(?:0|-?[1-9][0-9]*)"
_VALUE = r'[^,]*(?:,(?!\n {10}")[^,]*)*'
_TERM_TEXT = (
    r' {10}"c": (?:(' + _INT + ")|" + _VALUE + ")"
    + r',\n {10}"q": (?:(\[(?:\n {12}(' + _INT + r'(?:,\n {12}' + _INT + r')*)\n {10})?\])|'
    + _VALUE + ")"
    + r',\n {10}"w": (?:("[^"\\\x00-\x1f]*")|' + _VALUE + ")"
)
# the document's trailer, on a rejecting path
_TRAILER = r',\n  "parabolic": (.*),\n  "type": (.*),\n  "version": (.*)\n\}\n'
_CHUNK = 1 << 14
_LAYOUT = "not the canonical layout of table --json"


def _fields(body, pad, keys):
    """The values of an object body that json's indent=2 encoder wrote at
    indent `pad`, or None unless its keys are `keys` in order.  A nested
    value is indented deeper, so only the object's own keys start a line
    at `pad`."""
    if not body.startswith(f'{pad}"'):
        return None
    fields = [f.partition('": ') for f in body[len(pad) + 1:].split(f',\n{pad}"')]
    if [name for name, _, _ in fields] != list(keys) or not all(sep for _, sep, _ in fields):
        return None
    return [value for _, _, value in fields]


def check_document(handle, ctx, words, text=None):
    """The first problem of the table document open at `handle` as a cache
    file of the G/P context `ctx`, or None.  `words` are the basis words in
    order.  The check is one pass that holds an entry at a time; given the
    file `text`, it writes the table's header line there, then one line
    `sigma[u] * sigma[v] = terms` per entry as it goes, with the terms
    rendered as format_terms renders them."""
    free = len(ctx.free)
    weights = ctx.c1_weights
    n = len(words)
    lengths = [w.length for w in ctx.basis]
    quoted = [json.dumps(w) for w in words]
    length_of = dict(zip(quoted, lengths))  # a basis word's length by its text
    # the term texts checked on each grade l(u) + l(v); a term's grade is
    # l(w) + c_1(q), so each distinct text is checked once
    top = 2 * max(lengths)
    on_grade = [set() for _ in range(top + 1)]
    rendered = {}  # term text -> the term as format_terms renders it
    # the text of the term sigma_v of a unit-row entry, less the word v
    unit = f'{_PAD}"c": 1,\n{_PAD}"q": {_int_list((0,) * free, _PAD)},\n{_PAD}"w": '
    tail = _ENTRIES_END + _trailer(str(ctx.rs.cartan_type), ctx.parabolic.indices)
    # the longest pending text: one term per basis word and degree on the top
    # grade (c_1 >= 2 sum(q)), each at most as long as the longest word and
    # degree with as many digits as int() converts, one more for the keys
    longest = (len(unit + _TERM_SEP + _int_list((top,) * free, _PAD)) + max(map(len, quoted))
               + (sys.get_int_max_str_digits() or inf))
    bound = (n * comb(top // 2 + free, free) + 1) * longest + len(tail)

    term_text = re.compile(_TERM_TEXT)

    def term(item, grade, pair):
        """The problem of a term text on the grading `grade`, or None."""
        match = term_text.fullmatch(item)
        if match is None:
            return "malformed term"
        c, q, ints, w = match.groups()
        try:  # int() refuses more digits than it converts
            c = int(c) if c else None
            if q is not None:
                q = list(map(int, ints.split(_Q_SEP))) if ints else []
        except ValueError:
            c = None
        if c is None or q is None or len(q) != free or w is None:
            return "malformed term payload"
        lw = length_of.get(w)
        w = w[1:-1]
        if lw is None:
            return f"term word {w!r} is not a basis word"
        if c < 1:
            return f"non-positive coefficient {c}"
        if min(q, default=0) < 0:
            return f"negative q-degree {q}"
        if lw + sum(map(mul, q, weights)) != grade:
            return f"term {w!r} q^{q} of {pair} breaks the grading"
        if text is not None:
            rendered[item] = format_terms([(w, q, c)])
        return None

    # per entry in order: the text after its terms, the set of term texts
    # checked on its grade, and its row and column; built a row at a time
    layout = chain.from_iterable(
        [(f'{_TERMS_CLOSE},\n      "u": {u},\n      "v": {v}', on_grade[lu + lv], i, j)
         for j, (v, lv) in enumerate(zip(quoted, lengths))]
        for i, (u, lu) in enumerate(zip(quoted, lengths))
    )

    def check(bodies):
        """The problem of the next entries, given as their texts `bodies`,
        or None."""
        for body, (end, known, i, j) in zip(bodies, layout):
            if not (body.startswith(_TERMS_OPEN) and body.endswith(end)):
                keys = end[len(_TERMS_CLOSE):]
                if body == f"{_TERMS}[]{keys}":
                    # a product of two Schubert classes has a term of least q-degree
                    return f"sigma[{words[i]}] * sigma[{words[j]}] has no terms"
                if _fields(body, " " * 6, ("terms", "u", "v")) is None:
                    return "malformed entry"
                if not body.endswith(keys):
                    return "basis mismatch"
                # a terms value other than a list of objects
                return "malformed term" if body.startswith(f"{_TERMS}[") else "malformed entry"
            items = body[len(_TERMS_OPEN):-len(end)].split(_TERM_SEP)
            if not known.issuperset(items):
                grade = lengths[i] + lengths[j]
                for item in items:
                    if item not in known:
                        problem = term(item, grade, (words[i], words[j]))
                        if problem:
                            return problem
                        known.add(item)
            if 0 in (i, j) and items != [unit + quoted[i + j]]:
                return f"sigma[{words[i]}] * sigma[{words[j]}] is not sigma[{words[i + j]}]"
            if text is not None:
                # as format_terms joins the renderings of its terms
                terms = " + ".join(map(rendered.__getitem__, items))
                text.write(f"sigma[{words[i]}] * sigma[{words[j]}] = {terms}\n")
        return None

    if handle.read(len(_HEAD)) != _HEAD:
        return _LAYOUT
    if text is not None:
        text.write(
            f"type: {ctx.rs.cartan_type}  parabolic: {list(ctx.parabolic.indices)}  "
            f"basis: {n}  entries: {n * n}\n"
        )
    k, rest, last = 0, "", n * n - 1  # the last entry is followed by the trailer
    # a read at least as long as the unsplit text keeps an entry longer
    # than a chunk from being copied once per chunk
    while chunk := handle.read(max(_CHUNK, len(rest))):
        *bodies, rest = (rest + chunk).split(_ENTRY_SEP)
        problem = check(bodies[:last - k])
        if problem:
            return problem
        if k + len(bodies) > last:
            return "basis mismatch"
        k += len(bodies)
        if len(rest) > bound:
            return "an entry longer than the basis allows"
    if not rest.endswith(tail):
        trailer = re.fullmatch(_TRAILER, rest.rpartition(_ENTRIES_END)[2], re.S)
        if trailer is None:
            return _LAYOUT
        if trailer[3] != str(TABLE_FORMAT_VERSION):
            return f"format version {trailer[3]} != {TABLE_FORMAT_VERSION}"
        return "type/parabolic header mismatch"
    if k != last:
        return "basis mismatch"
    return check([rest[:-len(tail)]])


def load_document(path, ctx, words, text=None):
    """Return (handle, problem).  handle is None unless the cache file at
    `path` exists and passes `check_document`, which gets `ctx`, `words` and
    `text`; it is then the file, open at its start.  problem says why a
    file was rejected."""
    try:
        handle = open(path, encoding="utf-8", newline="")
    except FileNotFoundError:
        return None, None
    except OSError as exc:
        return None, f"unreadable cache {path}: {exc}"
    try:
        problem = check_document(handle, ctx, words, text)
        if problem:
            problem = f"ignoring cache {path}: {problem}"
    except (OSError, UnicodeDecodeError) as exc:
        problem = f"unreadable cache {path}: {exc}"
    except BaseException:
        handle.close()
        raise
    if problem:
        handle.close()
        return None, problem
    handle.seek(0)
    return handle, None


@contextmanager
def new_document(path):
    """Yield (handle, tmp): a new text file named `tmp` in the cache
    directory, with mode 0666 less the umask, open for reading and writing
    with no newline translation, to stream a table document bound for the
    cache file at `path` into, for `store_document` to rename onto `path`.
    On the way out the file is closed, and removed unless it was stored."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".qflag-{os.urandom(8).hex()}.tmp")
    try:
        # mode 0666 less the umask, like any other file the user writes; in
        # the try, so that a signal handled as the file appears removes it
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o666)
        with os.fdopen(fd, "w+", encoding="utf-8", newline="") as handle:
            yield handle, tmp
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def store_document(path, handle, tmp):
    """Make the document streamed into `handle`, the file `tmp` of
    `new_document`, the cache file at `path`, atomically."""
    handle.flush()
    os.replace(tmp, path)
