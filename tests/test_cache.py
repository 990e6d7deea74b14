"""The table schema writer gives the bytes of json's indent encoder."""

import contextlib
import io
import json
import os
import stat
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from qflag import ParabolicSubset, build_root_system, compare, format_word
from qflag.cache import check_document, new_document, terms_encoder, write_document
from qflag.cli import main
from qflag.compare import _Context, _context
from qflag.degrees import peterson_lift


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def encode(doc, lengths=()):
    """The document as the schema writer streams it, its entries fed as rows
    of the given lengths, then one row of the rest; a row past the last
    entry is empty.  Each row is an iterator over one shared stream of
    entries, as the writer consumes it."""
    out = io.StringIO()
    # a term's key is its (word, q-degree)
    terms = terms_encoder(lambda key: key)
    entries = (
        (e["u"], e["v"], terms([((t["w"], tuple(t["q"])), t["c"]) for t in e["terms"]]))
        for e in doc["entries"]
    )
    rows = [islice(entries, n) for n in lengths] + [entries]
    write_document(out, doc["type"], doc["parabolic"], rows)
    return out.getvalue()


# basis-like words, and words that need JSON escapes: quote, backslash,
# control and non-ASCII characters
words = st.one_of(
    st.sampled_from(["e", "s1", "s2s1", "s10s3", '"', "\\", "sé", "σ", "\n\t"]),
    st.text(max_size=6),
)
terms = st.fixed_dictionaries(
    {
        "w": words,
        "q": st.lists(st.integers(min_value=0, max_value=10**6), max_size=4),
        "c": st.integers(min_value=1, max_value=10**30),
    }
)
entries = st.fixed_dictionaries(
    {"u": words, "v": words, "terms": st.lists(terms, max_size=4)}
)
documents = st.fixed_dictionaries(
    {
        "version": st.just(1),
        "type": st.sampled_from(["A2", "B3", "G2", "D4"]),
        "parabolic": st.lists(st.integers(min_value=1, max_value=8), max_size=4),
        "entries": st.lists(entries, max_size=5),
    }
)


@settings(deadline=None)  # a timing limit would make a slow machine fail it
@given(documents, st.lists(st.integers(min_value=0, max_value=3), max_size=6))
@example({"version": 1, "type": "A2", "parabolic": [], "entries": []}, [])
@example({"version": 1, "type": "A2", "parabolic": [], "entries": []}, [0, 2])
@example(
    {"version": 1, "type": "A2", "parabolic": [2],
     "entries": [{"u": "e", "v": "e", "terms": []}]},
    [0],
)
def test_writer_matches_json_indent_encoder(doc, lengths):
    assert encode(doc, lengths) == reference(doc)


@pytest.mark.parametrize(
    "type_name, parabolic, name",
    [("B3", "", "B3-borel.json"), ("A3", "1,3", "A3-1-3.json"),
     ("D4", "1,3,4", "D4-1-3-4.json")],
)
def test_cache_file_is_the_writer_output_on_real_tables(
    tmp_path, capsys, type_name, parabolic, name
):
    argv = ["table", "--type", type_name, "--parabolic", parabolic,
            "--cache-dir", str(tmp_path), "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    text = (tmp_path / name).read_text(encoding="utf-8")
    doc = json.loads(text)
    assert encode(doc) == reference(doc)
    assert text == out == reference(doc)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cache_file_mode_follows_the_umask(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        assert main(["table", "--type", "A2", "--parabolic", "2",
                     "--cache-dir", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "A2-2.json").stat().st_mode) == 0o666 & ~umask


def test_a_fresh_table_is_streamed_not_held(tmp_path):
    # with the engine warm, a cold-cache table allocates little beyond the
    # entries a later row still mirrors, about a quarter of its document:
    # less than half of it, which holding every computed entry exceeds
    argv = ["table", "--type", "B3", "--json", "--cache-dir"]
    with open(tmp_path / "warm.json", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + [str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        with open(tmp_path / "cold.json", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + [str(tmp_path / "cold")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "cold.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "warm.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "cold" / "B3-borel.json").read_text(encoding="utf-8")
    assert len(text) == 1_438_033
    assert peak < len(text) // 2


def test_a_signal_as_the_temporary_file_appears_removes_it(tmp_path, monkeypatch):
    # SIGTERM becomes SystemExit in the console script; handled as soon as
    # os.open has created the file, before the call returns, it must still
    # remove the file
    real_open = os.open

    def open_then_terminate(*args):
        os.close(real_open(*args))
        raise SystemExit(143)

    with monkeypatch.context() as patched:
        patched.setattr(os, "open", open_then_terminate)
        with pytest.raises(SystemExit), new_document(str(tmp_path / "A2-2.json")):
            pass
    assert list(tmp_path.iterdir()) == []


A2 = ["table", "--type", "A2", "--parabolic", "2", "--json", "--cache-dir"]


def fill(tmp_path, capsys):
    """Fill the A2/{2} cache in tmp_path; return the cache file and stdout."""
    assert main(A2 + [str(tmp_path)]) == 0
    return tmp_path / "A2-2.json", capsys.readouterr().out


def rejected(tmp_path, capsys, path, expected):
    """Run the A2/{2} table on a cache file it must reject; return the
    problem it reports."""
    assert main(A2 + [str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out == expected
    warning, write = err.splitlines()
    assert write == f"cache write: {path}"
    assert path.read_text(encoding="utf-8") == expected
    return warning


def test_a_cache_file_that_is_not_utf8_is_recomputed(tmp_path, capsys):
    path, expected = fill(tmp_path, capsys)
    path.write_bytes(b"\xff\xfe{")
    warning = rejected(tmp_path, capsys, path, expected)
    assert warning.startswith(f"warning: unreadable cache {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("where", ["document", "term word"])
def test_a_deeply_nested_cache_file_is_recomputed(tmp_path, capsys, where):
    # far deeper than the interpreter's recursion limit: the check must
    # not decode the file recursively
    path, expected = fill(tmp_path, capsys)
    if where == "document":
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        problem = "not the canonical layout of table --json"
    else:
        # short enough for an entry of A2/{2}, so the term check rejects it
        nested = "[" * 10_000 + "]" * 10_000
        path.write_text(expected.replace('"w": "e"', f'"w": {nested}', 1), encoding="utf-8")
        problem = "malformed term payload"
    warning = rejected(tmp_path, capsys, path, expected)
    assert warning == f"warning: ignoring cache {path}: {problem}"


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_set("version", 99), "format version 99 != 1"),
        (_set("type", "B2"), "type/parabolic header mismatch"),
        (_set("parabolic", [1]), "type/parabolic header mismatch"),
        (lambda doc: doc["entries"].append(doc["entries"][0]), "basis mismatch"),
        (lambda doc: doc["entries"].pop(), "basis mismatch"),
        (lambda doc: doc["entries"].pop(4), "basis mismatch"),
    ],
    ids=["version", "type", "parabolic", "extra-entry", "last-entry-missing", "entry-missing"],
)
def test_a_canonical_cache_with_a_wrong_header_or_basis_is_recomputed(
    tmp_path, capsys, edit, problem
):
    path, expected = fill(tmp_path, capsys)
    doc = json.loads(expected)
    edit(doc)
    path.write_text(reference(doc), encoding="utf-8")
    warning = rejected(tmp_path, capsys, path, expected)
    assert warning == f"warning: ignoring cache {path}: {problem}"


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text[:-1],
        lambda text: text + "\n",
        lambda text: text + "x" * 100_000,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace('"c": 1', '"c": 01', 1),
        lambda text: text.replace('"c": 1', '"c": 1' + "0" * 5000, 1),
        lambda text: text.replace('"u": "e"', '"u": "\\u0065"', 1),
        lambda text: text.replace(" " * 12 + "0", " " * 12 + "-0", 1),
        lambda text: text.replace("    },\n    {", "    }, {", 1),
        lambda text: text[: len(text) // 2],
    ],
    ids=["no-final-newline", "extra-newline", "trailing-bytes", "crlf", "leading-zero",
         "5001-digit-int", "escaped-word", "minus-zero", "joined-entries", "truncated"],
)
def test_a_cache_file_other_than_the_canonical_bytes_is_recomputed(tmp_path, capsys, edit):
    # each of these decodes as JSON to the same table, is cut short, or
    # holds an int with more digits than int() converts by default
    path, expected = fill(tmp_path, capsys)
    text = edit(expected)
    assert text != expected
    path.write_bytes(text.encode())
    warning = rejected(tmp_path, capsys, path, expected)
    assert warning.startswith(f"warning: ignoring cache {path}: ")


@pytest.mark.parametrize(
    "k, pair", [(0, "sigma[e] * sigma[e] is not sigma[e]"),
                (1, "sigma[e] * sigma[s1] is not sigma[s1]"),
                (3, "sigma[s1] * sigma[e] is not sigma[s1]")],
    ids=["e-e", "e-v", "v-e"],
)
def test_a_cache_file_off_the_unit_row_is_recomputed(tmp_path, capsys, k, pair):
    # a coefficient edit that keeps the grading and the layout
    path, expected = fill(tmp_path, capsys)
    doc = json.loads(expected)
    doc["entries"][k]["terms"][0]["c"] = 2
    path.write_text(reference(doc), encoding="utf-8")
    warning = rejected(tmp_path, capsys, path, expected)
    assert warning == f"warning: ignoring cache {path}: {pair}"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_a_cache_entry_with_no_terms_is_recomputed(tmp_path, capsys, fmt):
    # a quantum product of two Schubert classes is never 0: its q-degrees
    # have a unique minimum, so an emptied entry off the unit row is refused
    argv = ["table", "--type", "A2", "--parabolic", "2", *fmt, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "A2-2.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    entry = doc["entries"][4]
    assert (entry["u"], entry["v"]) == ("s1", "s1")
    entry["terms"] = []
    path.write_text(reference(doc), encoding="utf-8")
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err.splitlines() == [
        f"warning: ignoring cache {path}: sigma[s1] * sigma[s1] has no terms",
        f"cache write: {path}",
    ]


def test_an_edited_unit_coefficient_of_b3_is_recomputed(tmp_path, capsys):
    argv = ["table", "--type", "B3", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "B3-borel.json"
    path.write_text(path.read_text(encoding="utf-8").replace('"c": 1,', '"c": 2,', 1),
                    encoding="utf-8")
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert "sigma[e] * sigma[e] = sigma[e]\n" in out
    assert err.splitlines() == [
        f"warning: ignoring cache {path}: sigma[e] * sigma[e] is not sigma[e]",
        f"cache write: {path}",
    ]


def test_a_run_on_cache_file_is_rejected_early(tmp_path, capsys):
    # 30 MiB after the canonical head, with no entry separator: the check
    # stops as soon as its pending text outgrows the longest entry of the
    # basis, long before the end of the file
    path, expected = fill(tmp_path, capsys)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(expected[:expected.index('"c"')])
        for _ in range(30):
            handle.write("x" * (1 << 20))

    class Counting:
        """A handle that counts the characters read through it."""

        def __init__(self, handle):
            self.handle, self.count = handle, 0

        def read(self, size):
            text = self.handle.read(size)
            self.count += len(text)
            return text

    ctx = _context(build_root_system("A2"), ParabolicSubset.of([2]))
    words = [format_word(w.word) for w in ctx.basis]
    with open(path, encoding="utf-8", newline="") as handle:
        counting = Counting(handle)
        assert check_document(counting, ctx, words) == "an entry longer than the basis allows"
    assert counting.count < 1 << 20
    warning = rejected(tmp_path, capsys, path, expected)
    assert warning == f"warning: ignoring cache {path}: an entry longer than the basis allows"


def test_a_cache_hit_lifts_only_the_unit_degrees(tmp_path, capsys, monkeypatch):
    # the check grades a term by c_1(q) = sum of q_t c_1(e_t), so it lifts
    # the unit degrees and no other, whatever degrees the table holds
    assert main(["table", "--type", "B3", "--json", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    lifted = []

    def counted(rs, parabolic, degree):
        lifted.append(degree)
        return peterson_lift(rs, parabolic, degree)

    monkeypatch.setattr(compare, "peterson_lift", counted)
    ctx = _Context(build_root_system("B3"), ParabolicSubset.of([]))
    words = [format_word(w.word) for w in ctx.basis]
    with open(tmp_path / "B3-borel.json", encoding="utf-8", newline="") as handle:
        assert check_document(handle, ctx, words) is None
    assert sorted(lifted) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert set(ctx.degrees) == set(lifted)


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_a_cache_hit_holds_no_document(tmp_path, fmt):
    # with the engine warm, serving B3's 1.4 MB document from the cache
    # allocates a small part of it: the check holds one entry at a time,
    # and the file is copied out as it stands
    argv = ["table", "--type", "B3", *fmt, "--cache-dir", str(tmp_path)]
    outputs = []
    for traced in (False, True):
        with open(tmp_path / f"out-{traced}", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            if traced:
                tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        outputs.append((tmp_path / f"out-{traced}").read_text(encoding="utf-8"))
    assert "cache hit" in err.getvalue()
    assert outputs[0] == outputs[1]
    size = (tmp_path / "B3-borel.json").stat().st_size
    assert size == 1_438_033
    assert peak < size // 4
