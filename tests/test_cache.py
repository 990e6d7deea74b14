"""The table schema writer gives the bytes of json's indent encoder."""

import contextlib
import io
import json
import os
import stat
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qflag.cache import new_document, terms_encoder, write_document
from qflag.cli import main


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def encode(doc):
    """The document as the schema writer streams it."""
    out = io.StringIO()
    terms = terms_encoder()
    entries = (
        (e["u"], e["v"], terms((t["w"], t["q"], t["c"]) for t in e["terms"]))
        for e in doc["entries"]
    )
    write_document(out, doc["type"], doc["parabolic"], entries)
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
@given(documents)
@example({"version": 1, "type": "A2", "parabolic": [], "entries": []})
@example(
    {"version": 1, "type": "A2", "parabolic": [2],
     "entries": [{"u": "e", "v": "e", "terms": []}]}
)
def test_writer_matches_json_indent_encoder(doc):
    assert encode(doc) == reference(doc)


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
