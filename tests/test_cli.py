import argparse
import contextlib
import errno
import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qflag
from qflag import cli
from qflag.cli import main
from qflag.compare import _Context, _context
from qflag.quantum import BOREL, _Engine, _oriented_product
from qflag.root_system import CartanType, ParabolicSubset, RootSystem
from qflag.weyl import from_word, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lift_text(capsys):
    code, out, _ = run(capsys, "lift", "--type", "A2", "--parabolic", "2", "--degree", "1")
    assert code == 0
    assert "d_B: [1, 0]" in out
    assert "P_prime: []" in out
    assert "w_prime: e" in out


def test_lift_json_cases(capsys):
    code, out, _ = run(
        capsys, "lift", "--type", "A2", "--parabolic", "2", "--degree", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dB"] == [2, 1]
    assert payload["Pprime"] == [2]
    assert payload["wPrime"] == "s2"
    assert payload["dPprime"] == [2]

    code, out, _ = run(
        capsys, "lift", "--type", "A2", "--parabolic", "2", "--degree", "0", "--json"
    )
    payload = json.loads(out)
    assert payload["dB"] == [0, 0]
    assert payload["Pprime"] == [2]


def test_lift_validation_errors(capsys):
    code, _, err = run(capsys, "lift", "--type", "A2", "--parabolic", "2", "--degree", "-1")
    assert code == 2 and "effective" in err
    code, _, err = run(capsys, "lift", "--type", "A2", "--parabolic", "2", "--degree", "1,1")
    assert code == 2
    code, _, err = run(capsys, "lift", "--type", "Q9", "--parabolic", "", "--degree", "1")
    assert code == 2


def test_gw_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "gw",
        "--type", "A2", "--parabolic", "2",
        "--classes", "s1,s2s1,s2s1", "--degree", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] == 1
    assert payload["dB"] == [1, 0]
    assert payload["route"] == "comparison"
    # round trip: parse and re-serialize is identity
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()


def test_gw_permuted_classes(capsys):
    code, out, _ = run(
        capsys,
        "gw",
        "--type", "A2", "--parabolic", "2",
        "--classes", "s2s1,s2s1,s1", "--degree", "1", "--json",
    )
    assert json.loads(out)["invariant"] == 1


def test_gw_non_effective_note(capsys):
    code, out, _ = run(
        capsys,
        "gw",
        "--type", "A2", "--parabolic", "2",
        "--classes", "s1,s2s1,s2s1", "--degree", "-1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] == 0
    assert payload["note"] == "non-effective degree"


def test_gw_borel_route(capsys):
    code, out, _ = run(
        capsys,
        "gw",
        "--type", "A2", "--parabolic", "",
        "--classes", "s1,s2s1,s2s1", "--degree", "1,0", "--json",
    )
    payload = json.loads(out)
    assert payload["invariant"] == 1
    assert payload["route"] == "borel"


def test_gw_warns_on_non_minimal_classes(capsys):
    code, out, _ = run(
        capsys,
        "gw",
        "--type", "A2", "--parabolic", "2",
        "--classes", "s1s2,s2s1,s2s1", "--degree", "1", "--json",
    )
    payload = json.loads(out)
    assert payload["invariant"] == 1
    assert payload["classes"][0] == "s1"
    assert any("minimal" in w for w in payload["warnings"])


def test_gw_rejects_bad_input(capsys):
    code, _, err = run(
        capsys, "gw", "--type", "A2", "--parabolic", "2",
        "--classes", "s1,s2s1", "--degree", "1",
    )
    assert code == 2
    code, _, err = run(
        capsys, "gw", "--type", "A2", "--parabolic", "2",
        "--classes", "s9,s2s1,s2s1", "--degree", "1",
    )
    assert code == 2 and "out of range" in err


def test_empty_degree_and_class_list_are_input_errors(capsys):
    code, out, err = run(
        capsys, "gw", "--type", "A2", "--parabolic", "2",
        "--classes", "s1,s2s1,s2s1", "--degree", "",
    )
    assert (code, out, err) == (2, "", "error: missing degree vector\n")
    code, out, err = run(capsys, "mul", "--type", "A2", "--u", "", "--v", "s1")
    assert (code, out, err) == (2, "", "error: missing class list\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", "--type", "A2", "--parabolic", "2", "--degree", "1,2"],
         "degree vector has 2 coordinates, expected 1"),
        (["gw", "--type", "A2", "--parabolic", "2", "--classes", "s1,s2s1,s2s1", "--degree", "1,0"],
         "degree vector has 2 coordinates, expected 1"),
        (["lift", "--type", "A2", "--parabolic", "1,2", "--degree", "1"],
         "the full parabolic has no curve classes (H_2 = 0)"),
        (["gw", "--type", "A2", "--parabolic", "1,2", "--classes", "e,e,e", "--degree", "1"],
         "the full parabolic has no curve classes (H_2 = 0)"),
        (["lift", "--type", "A3", "--parabolic", "2", "--degree", "1,-1"],
         "degree (1, -1) is not effective"),
        (["gw", "--type", "A2", "--parabolic", "2", "--classes", "s9,s2s1,s2s1", "--degree", "1"],
         "generator index 9 out of range for A2"),
        (["mul", "--type", "A2", "--u", "s1", "--v", "s3"], "generator index 3 out of range for A2"),
    ],
)
def test_input_errors_are_the_library_checks(capsys, argv, message):
    # the CLI parses degrees and words and leaves every other check to the
    # library: `_as_degree` counts the coordinates and refuses the full
    # parabolic, `comparison_data` refuses a non-effective lift and
    # `from_word` a generator outside the rank
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "classes, item", [("s1,,s2s1", 2), ("s1,s2,s1s2s1,", 4), (" ,s1,s2,s2s1", 1)]
)
def test_an_empty_class_item_is_an_input_error(capsys, classes, item):
    # the identity class is written e; an empty item is refused, as an empty
    # item of --parabolic or --degree is, not read as e
    code, out, err = run(capsys, "gw", "--type", "A2", "--classes", classes, "--degree", "0,0")
    assert (code, out, err) == (2, "", f"error: empty item {item} in class list {classes!r}\n")
    code, out, _ = run(capsys, "gw", "--type", "A2", "--classes", "e,s2,s2s1", "--degree", "0,0")
    assert (code, out) == (0, "invariant: 1\nroute: borel  dB: [0, 0]\n")


def test_normalized_classes_are_the_enumeration_elements():
    # the enumeration lent their words, so printing them forms no product;
    # the warning for a class that is not minimal names its own word
    rs = qflag.build_root_system("A2")
    ctx = _context(rs, ParabolicSubset.of([2]))
    given = [from_word(rs, (1, 2)), from_word(rs, (2, 1))]
    got, warnings = cli._normalize_classes(ctx, given)
    assert got[0] is ctx.basis[1] and got[1] is ctx.basis[2]
    assert warnings == ["class s1s2 is not a minimal representative; using s1"]


def test_mul_json_warns_on_non_minimal_classes(capsys):
    code, out, _ = run(
        capsys, "mul", "--type", "A2", "--parabolic", "2", "--u", "s1s2", "--v", "s1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == "s1" and payload["product"] == "sigma[s2s1]"
    assert payload["warnings"] == ["class s1s2 is not a minimal representative; using s1"]


def test_mul_text_examples(capsys):
    code, out, _ = run(capsys, "mul", "--type", "A2", "--parabolic", "", "--u", "s1", "--v", "s1")
    assert code == 0
    assert "sigma[s2s1] + q1" in out

    code, out, _ = run(capsys, "mul", "--type", "A2", "--parabolic", "", "--u", "e", "--v", "s1s2")
    assert "= sigma[s1s2]" in out

    code, out, _ = run(capsys, "mul", "--type", "A2", "--parabolic", "2", "--u", "s2s1", "--v", "s2s1")
    assert "q1 * sigma[s1]" in out


@pytest.mark.parametrize("u, v", [("s1,s2", "s1"), ("s1", "s1,e"), ("s1,s1", "s2,s2")])
def test_mul_takes_one_word_per_factor(capsys, u, v):
    code, out, err = run(capsys, "mul", "--type", "A2", "--u", u, "--v", v)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "one Weyl word" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", "--parabolic", "2", "--degree", "1_0"], "cannot parse degree '1_0'"),
        (["lift", "--parabolic", "2", "--degree", "\u0661"], "cannot parse degree"),
        (["lift", "--parabolic", "1_0", "--degree", "1"], "cannot parse parabolic node list"),
        (["lift", "--parabolic", "\u0662", "--degree", "1"], "cannot parse parabolic node list"),
        (["mul", "--u", "s\u0661", "--v", "s1"], "cannot parse Weyl word"),
        (["mul", "--u", "s1", "--v", "s\uff11"], "cannot parse Weyl word"),
        (["mul", "--type", "A\u0662", "--u", "s1", "--v", "s1"], "cannot parse Cartan type"),
    ],
    ids=["degree-separator", "degree-arabic-indic", "parabolic-separator",
         "parabolic-arabic-indic", "word-arabic-indic", "word-fullwidth", "type-arabic-indic"],
)
def test_numbers_take_ascii_digits_only(capsys, argv, message):
    # int() also reads "1_0" as 10 and any Unicode decimal digit as a digit;
    # a later --type overrides the A2 given first
    code, out, err = run(capsys, argv[0], "--type", "A2", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("value", ["1_0", "\u0661", "\u0663"])
@pytest.mark.parametrize("option", ["--max-degree", "--samples", "--window"])
def test_check_options_take_ascii_digits_only(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
              option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid integer value" in captured.err


def test_numbers_keep_their_sign_and_spaces(capsys):
    lift = ("lift", "--type", "A2", "--json")
    expected = run(capsys, *lift, "--parabolic", "2", "--degree", "1")
    assert expected[0] == 0
    assert run(capsys, *lift, "--parabolic", " +2 ", "--degree", " +1 ") == expected


def test_mul_json_terms(capsys):
    code, out, _ = run(
        capsys, "mul", "--type", "A2", "--parabolic", "", "--u", "s1", "--v", "s1", "--json"
    )
    payload = json.loads(out)
    assert payload["terms"] == [
        {"w": "s2s1", "q": [0, 0], "c": 1},
        {"w": "e", "q": [1, 0], "c": 1},
    ]


def test_table_cache_round_trip(tmp_path, capsys):
    args = ("table", "--type", "A2", "--parabolic", "2", "--cache-dir", str(tmp_path), "--json")
    code, first, err1 = run(capsys, *args)
    assert code == 0
    assert "cache write" in err1
    code, second, err2 = run(capsys, *args)
    assert code == 0
    assert "cache hit" in err2
    assert first == second  # byte-identical payload
    assert (tmp_path / "A2-2.json").read_bytes() == first.encode()
    doc = json.loads(first)
    assert doc["version"] == 1
    assert doc["type"] == "A2"
    assert doc["parabolic"] == [2]
    assert len(doc["entries"]) == 9


def test_table_borel_size(tmp_path, capsys):
    code, out, _ = run(
        capsys, "table", "--type", "A2", "--parabolic", "", "--cache-dir", str(tmp_path), "--json"
    )
    doc = json.loads(out)
    assert len(doc["entries"]) == 36


def test_table_ignores_corrupt_cache(tmp_path, capsys):
    args = ("table", "--type", "A2", "--parabolic", "2", "--cache-dir", str(tmp_path), "--json")
    code, first, _ = run(capsys, *args)
    path = tmp_path / "A2-2.json"
    path.write_text("{ not json", encoding="utf-8")
    code, second, err = run(capsys, *args)
    assert code == 0
    assert "warning" in err and "cache" in err
    assert first == second

    # version mismatch is also rejected
    doc = json.loads(first)
    doc["version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, third, err = run(capsys, *args)
    assert "warning" in err
    assert first == third


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("blocker", ["file-above", "directory-at-path", "disk-full-midway"])
def test_table_survives_an_unwritable_cache(tmp_path, capsys, monkeypatch, fmt, blocker):
    # a cache that cannot be written costs the reuse, not the table; a
    # regular file above the cache directory blocks the write even for root
    args = ["table", "--type", "A2", "--parabolic", "2", *fmt]
    code, expected, _ = run(capsys, *args, "--cache-dir", str(tmp_path / "ok"))
    assert code == 0
    blocked = tmp_path / "blocked"
    if blocker == "file-above":
        blocked.write_text("", encoding="utf-8")
        cache_dir = blocked / "sub"
    elif blocker == "directory-at-path":
        (blocked / "A2-2.json").mkdir(parents=True)
        cache_dir = blocked
    else:
        # the cache's file takes three writes, then its disk is full
        cache_dir = blocked
        real = cli.cache_io.new_document

        @contextlib.contextmanager
        def filling_up(path):
            with real(path) as (handle, tmp):
                writes, write = iter(range(3)), handle.write

                def write_or_fail(text):
                    if next(writes, None) is None:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    return write(text)

                handle.write = write_or_fail
                yield handle, tmp

        monkeypatch.setattr(cli.cache_io, "new_document", filling_up)
    code, out, err = run(capsys, *args, "--cache-dir", str(cache_dir))
    assert code == 0
    assert out == expected
    assert f"warning: cannot write cache {cache_dir / 'A2-2.json'}: " in err
    assert "cache write" not in err
    assert not list(tmp_path.rglob(".qflag-*.tmp"))
    assert not (cache_dir / "A2-2.json").is_file()


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_table_refuses_the_full_parabolic_before_opening_a_file(tmp_path, capsys, fmt):
    cache_dir = tmp_path / "cache"
    code, out, err = run(
        capsys, "table", "--type", "A2", "--parabolic", "1,2", *fmt,
        "--cache-dir", str(cache_dir),
    )
    assert code == 2
    assert out == ""
    assert err == "error: the full parabolic has no quantum parameters\n"
    assert not cache_dir.exists()
    assert not list(tmp_path.rglob(".qflag-*.tmp"))


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_table_failing_midway_prints_nothing_and_leaves_no_file(
    tmp_path, capsys, monkeypatch, fmt
):
    real = _Context.int_terms
    calls = iter(range(3))

    def product_or_fail(self, i, j):
        # the fourth of the six products of A2/{2} fails, after the first
        # entries were streamed into the cache directory
        if next(calls, None) is None:
            raise RuntimeError("injected failure")
        return real(self, i, j)

    monkeypatch.setattr(_Context, "int_terms", product_or_fail)
    code, out, err = run(
        capsys, "table", "--type", "A2", "--parabolic", "2", *fmt,
        "--cache-dir", str(tmp_path),
    )
    assert code == 1
    assert out == ""
    assert "injected failure" in err and "cache write" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_fresh_text_table_passes_the_cache_check_before_it_is_printed(
    tmp_path, capsys, monkeypatch
):
    real = cli.cache_io.terms_encoder

    def writing_one_01(term_of):
        # the first coefficient 1 of the document is written as 01
        encode, first = real(term_of), iter([True])

        def encode_with_01(terms):
            text = encode(terms)
            if '"c": 1,' in text and next(first, False):
                text = text.replace('"c": 1,', '"c": 01,', 1)
            return text

        return encode_with_01

    monkeypatch.setattr(cli.cache_io, "terms_encoder", writing_one_01)
    code, out, err = run(
        capsys, "table", "--type", "A2", "--parabolic", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    assert "malformed term payload" in err


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_a_fresh_table_prints_the_bytes_this_command_wrote(tmp_path, capsys, monkeypatch, fmt):
    args = ["table", "--type", "A2", "--parabolic", "2", *fmt]
    code, expected, _ = run(capsys, *args, "--cache-dir", str(tmp_path / "reference"))
    assert code == 0
    real = cli.cache_io.store_document

    def stored_then_replaced(path, handle, tmp):
        real(path, handle, tmp)
        # another process renames its own table onto the cache file
        other = tmp_path / "other.json"
        other.write_text('{\n  "entries": []\n}\n', encoding="utf-8")
        os.replace(other, path)

    monkeypatch.setattr(cli.cache_io, "store_document", stored_then_replaced)
    code, out, err = run(capsys, *args, "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert out == expected
    assert "cache write" in err


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_a_table_prints_the_same_text_to_any_stdout(tmp_path, capsys, fmt):
    # a table reaches any text stream whole and after what was printed
    # before it: the stdout of the process, an io.StringIO under
    # redirect_stdout, and a buffered TextIOWrapper
    args = ["table", "--type", "A2", "--parabolic", "2", *fmt, "--cache-dir"]
    code, expected, _ = run(capsys, *args, str(tmp_path / "capsys"))
    assert code == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(args + [str(tmp_path / "text")]) == 0
    assert out.getvalue() == expected
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="") as out:
        with contextlib.redirect_stdout(out):
            print("before")
            assert main(args + [str(tmp_path / "bytes")]) == 0
        out.flush()
        assert out.buffer.getvalue().decode("utf-8") == "before\n" + expected


def test_associativity_suite_audits_the_named_ring(capsys):
    # P^2 = A2/{2} has three classes, so the audit covers all 27 triples of
    # its own ring, not the 216 of the full flag variety
    code, out, _ = run(
        capsys, "check", "--suite", "associativity", "--type", "A2", "--parabolic", "2"
    )
    assert code == 0
    assert out.splitlines() == [
        "PASS associativity (all 27 triples)",
        "PASS commutativity (all 27 triples)",
        "suite associativity: PASS",
    ]


@pytest.mark.parametrize("samples, count", [([], 200), (["--samples", "3"], 3)])
def test_associativity_suite_samples_a_large_ring(capsys, samples, count):
    # A3 has 24 classes, so 13,824 triples: more than the 1000 audited in full
    code, out, _ = run(capsys, "check", "--suite", "associativity", "--type", "A3", *samples)
    assert code == 0
    assert out.splitlines() == [
        f"PASS associativity ({count} seeded random triples)",
        f"PASS commutativity ({count} seeded random triples)",
        "suite associativity: PASS",
    ]


@pytest.mark.parametrize("parabolic, triples", [("", 216), ("2", 27)])
def test_commutativity_audit_compares_two_recursions(capsys, monkeypatch, parabolic, triples):
    # a private engine, so that the corruption stays in this test
    rs = RootSystem(CartanType.parse("A2"))
    monkeypatch.setattr(cli, "build_root_system", lambda ctype: rs)
    ctx = _context(rs, ParabolicSubset.parse(parabolic))
    ring = ctx.ring
    s1, s2s1 = (ctx.position[from_word(rs, parse_word(w)).perm] for w in ("s1", "s2s1"))
    # run s1's own table of the audited ring to the top level, then corrupt
    # sigma_{s2s1} * sigma_{s1} in it: products in their usual order read
    # s2s1's table
    _oriented_product(ring, ring.size - 1, s1)
    corrupted = ring.tables[s1][s2s1]
    corrupted[next(iter(corrupted))] += 1
    code, out, _ = run(
        capsys, "check", "--suite", "associativity", "--type", "A2", "--parabolic", parabolic
    )
    assert code == 1
    assert out.splitlines() == [
        f"PASS associativity (all {triples} triples)",
        f"FAIL commutativity (all {triples} triples)",
        "suite associativity: FAIL",
    ]


def test_associativity_audit_counts_a_failing_triple(capsys, monkeypatch):
    # a private engine, so that the corruption stays in this test
    rs = RootSystem(CartanType.parse("B2"))
    monkeypatch.setattr(cli, "build_root_system", lambda ctype: rs)
    ctx = _context(rs, BOREL)
    ring = ctx.ring
    s1 = ctx.position[from_word(rs, (1,)).perm]
    # Z/2 leaves four orbits on W(B2), with representatives e, s1, s2 and
    # s2s1 (at least two besides e: with one, any value of its square would
    # give an associative ring); every product of two classes of s1's orbit
    # is read off sigma_{s1} * sigma_{s1}.  One more in a coefficient of it,
    # in s1's own table, taken to the top level first, so that no level of
    # it reads the corruption and the two recursions still agree
    assert sorted({ctx.representative(x)[0] for x in range(ring.size)}) == [0, 1, 2, 4]
    _oriented_product(ring, ring.size - 1, s1)
    corrupted = ring.tables[s1][s1]
    corrupted[next(iter(corrupted))] += 1
    code, out, _ = run(
        capsys, "check", "--suite", "associativity", "--type", "B2", "--parabolic", ""
    )
    assert code == 1
    assert out.splitlines() == [
        "FAIL associativity (all 512 triples)",
        "PASS commutativity (all 512 triples)",
        "suite associativity: FAIL",
    ]


def test_associativity_audit_reads_one_side_off_the_readout(capsys, monkeypatch):
    # a private engine, so that the corruption stays in this test
    rs = RootSystem(CartanType.parse("A2"))
    monkeypatch.setattr(cli, "build_root_system", lambda ctype: rs)
    ctx = _context(rs, BOREL)
    ring = ctx.ring
    s1 = ctx.position[from_word(rs, (1,)).perm]
    # Z/3 leaves two orbits on W(A2), with representatives e and s1, so by
    # the orbit route every product is read off sigma_e * sigma_e,
    # sigma_e * sigma_{s1} and sigma_{s1} * sigma_{s1}, and any value of
    # the last gives an associative ring.  a * (b * c) is read by the direct
    # readout, which reads that entry only for the pair (s1, s1) itself
    assert sorted({ctx.representative(x)[0] for x in range(ring.size)}) == [0, 1]
    _oriented_product(ring, ring.size - 1, s1)
    corrupted = ring.tables[s1][s1]
    corrupted[next(iter(corrupted))] += 1
    code, out, _ = run(
        capsys, "check", "--suite", "associativity", "--type", "A2", "--parabolic", ""
    )
    assert code == 1
    assert out.splitlines() == [
        "FAIL associativity (all 216 triples)",
        "PASS commutativity (all 216 triples)",
        "suite associativity: FAIL",
    ]


# (type, parabolic, number of classes): the spaces the recursion suite pins
_RECURSION_SPACES = [
    ("A3", "2", 12), ("A4", "1,4", 30), ("A4", "2,3", 20), ("A4", "2,3,4", 5),
    ("B3", "1", 24), ("C3", "3", 24), ("D4", "1", 96), ("G2", "1", 6), ("G2", "2", 6),
]


@pytest.mark.parametrize("name, parabolic, order", _RECURSION_SPACES)
def test_recursion_suite_matches_the_readout(capsys, name, parabolic, order):
    code, out, _ = run(
        capsys, "check", "--suite", "recursion", "--type", name, "--parabolic", parabolic
    )
    assert code == 0
    assert out.splitlines() == [
        f"PASS recursion ({order * order} ordered pairs, 0 mismatched)",
        "suite recursion: PASS",
    ]


def test_recursion_suite_catches_one_bad_table_entry(capsys, monkeypatch):
    # a private ring, so that the corruption stays in this test; Z/3 acts
    # transitively on the three classes of P^2, so every ordered pair is
    # read off sigma_e * sigma_e in the identity's table and mapped through
    # the orbit maps, while the readout reads the Borel product
    rs = RootSystem(CartanType.parse("A2"))
    monkeypatch.setattr(cli, "build_root_system", lambda ctype: rs)
    ctx = _context(rs, ParabolicSubset.of([2]))
    assert all(ctx.representative(x)[0] == 0 for x in range(3))
    ctx.int_terms(0, 0)
    corrupted = ctx.ring.tables[0][0]
    corrupted[next(iter(corrupted))] += 1
    code, out, _ = run(capsys, "check", "--suite", "recursion", "--type", "A2", "--parabolic", "2")
    assert code == 1
    assert out.splitlines() == [
        "FAIL recursion (9 ordered pairs, 9 mismatched)",
        "suite recursion: FAIL",
    ]


def test_a_cache_hit_builds_no_product_table(tmp_path, capsys, monkeypatch):
    # the cache check reads the basis and the degrees' c_1, never a product
    args = ("table", "--type", "A4", "--parabolic", "1,4", "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    rs = RootSystem(CartanType.parse("A4"))
    monkeypatch.setattr(cli, "build_root_system", lambda ctype: rs)
    code, _, err = run(capsys, *args)
    assert code == 0 and "cache hit" in err
    ctx = _context(rs, ParabolicSubset.of([1, 4]))
    assert "ring" not in vars(ctx) and "engine" not in vars(ctx)


def test_table_bound_exceeded(tmp_path, capsys):
    code, _, err = run(
        capsys, "table", "--type", "E7", "--parabolic", "", "--cache-dir", str(tmp_path)
    )
    assert code == 3
    assert "bound" in err


def test_check_suites_pass(capsys):
    code, out, _ = run(capsys, "check", "--suite", "associativity", "--type", "A2")
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
        "--max-degree", "2",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "check", "--suite", "lift-oracle", "--type", "B2", "--parabolic", "1",
        "--max-degree", "2",
    )
    assert code == 0


def test_check_json_lists_each_result_as_name_passed_detail(capsys):
    # the payload, byte for byte: each check is an object of the fields
    # name, passed and detail of its result, keys sorted on output
    code, out, _ = run(
        capsys, "check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
        "--max-degree", "1", "--json",
    )
    assert code == 0
    checks = [
        ("d=[0]: permutation-symmetry", "6 graded triples, 0 asymmetric"),
        ("d=[0]: derived-parabolic-factorization", "lift stable: True; 6 triples, 0 mismatched"),
        ("d=[0]: classical-degree-zero", "6 triples, 0 mismatched"),
        ("d=[1]: permutation-symmetry", "3 graded triples, 0 asymmetric"),
        ("d=[1]: derived-parabolic-factorization", "lift stable: True; 3 triples, 0 mismatched"),
    ]
    entries = ",\n".join(
        f'    {{\n      "detail": "{detail}",\n      "name": "{name}",\n'
        f'      "passed": true\n    }}'
        for name, detail in checks
    )
    assert out == (
        f'{{\n  "checks": [\n{entries}\n  ],\n  "passed": true,\n  "suite": "comparison"\n}}\n'
    )


def test_importing_the_cli_loads_no_introspection_modules():
    # a record decorator from the standard library would load the first
    # five at every start, and only `table` and the sampled associativity
    # audit need the last three; -S keeps site-packages' .pth files from
    # preloading modules of their own
    path = [str(Path(qflag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys\n"
        "import qflag.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'random', 'shutil',\n"
        "              'tempfile'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cache_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QFLAG_CACHE_DIR", str(tmp_path / "env-cache"))
    code, _, err = run(capsys, "table", "--type", "A2", "--parabolic", "2")
    assert code == 0
    assert (tmp_path / "env-cache" / "A2-2.json").exists()


def test_empty_cache_dir_env_is_unset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QFLAG_CACHE_DIR", "")
    code, _, err = run(capsys, "table", "--type", "A2", "--parabolic", "2")
    assert code == 0
    assert (tmp_path / ".qflag-cache" / "A2-2.json").exists()
    assert not (tmp_path / "A2-2.json").exists()


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "--suite", "nope", "--type", "A2")
    assert code == 2


def test_byte_identical_reruns(capsys):
    args = ("mul", "--type", "B2", "--parabolic", "2", "--u", "s1", "--v", "s1", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_argparse_rejects_missing_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--type", "A2"])
    assert exc.value.code == 2


def test_repeated_commands_share_one_engine(capsys):
    for _ in range(3):
        code, out, _ = run(
            capsys, "mul", "--type", "B4", "--parabolic", "", "--u", "s1", "--v", "s2"
        )
        assert code == 0
        assert out == "s1 * s2 = sigma[s1s2] + sigma[s2s1]\n"
    gc.collect()
    engines = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, _Engine) and str(obj.rs.cartan_type) == "B4"
    ]
    assert len(engines) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("terms", 5),
        ("u", 7),
        ("v", None),
        ("w", 7),
        ("c", True),
        ("q", ["x"]),
        ("q", [0, 0]),
        ("q", [True]),
        ("q", 0),
        ("w", "banana"),
        ("w", "s2"),  # reduced, but not a minimal representative of A2/{2}
        ("w", [1]),
        ("c", 0),
        ("c", -1),
        ("u", "s2s1"),  # a basis word at the wrong (u, v) position
        ("note", "x"),  # a key outside {u, v, terms} on an entry
        ("extra", 1),  # a key outside {w, q, c} on a term
        ("q", [-1]),
        ("q", [1]),  # sigma[e] * sigma[s1] = q1 * sigma[s1] is off the grading
        ("q", [10**9]),
    ],
)
def test_table_rejects_mistyped_cache_fields(tmp_path, capsys, field, value):
    args = ("table", "--type", "A2", "--parabolic", "2", "--cache-dir", str(tmp_path))
    code, first, _ = run(capsys, *args)
    path = tmp_path / "A2-2.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    entry = doc["entries"][1]
    if field in ("terms", "u", "v", "note"):
        entry[field] = value
    else:
        entry["terms"][0][field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, second, err = run(capsys, *args)
    assert code == 0
    assert "ignoring cache" in err and "cache write" in err
    assert second == first


def canonical(doc):
    """A document as `table --json` writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("terms", 5, "malformed entry"),
        ("u", 7, "basis mismatch"),
        ("v", None, "basis mismatch"),
        ("w", 7, "malformed term payload"),
        ("c", True, "malformed term payload"),
        ("q", ["x"], "malformed term payload"),
        ("q", [0, 0], "malformed term payload"),
        ("q", [True], "malformed term payload"),
        ("q", 0, "malformed term payload"),
        ("w", "banana", "term word 'banana' is not a basis word"),
        ("w", "s2", "term word 's2' is not a basis word"),
        ("w", [1], "malformed term payload"),
        ("c", 0, "non-positive coefficient 0"),
        ("c", -1, "non-positive coefficient -1"),
        ("u", "s2s1", "basis mismatch"),
        ("note", "x", "malformed entry"),
        ("extra", 1, "malformed term"),
        ("q", [-1], "negative q-degree [-1]"),
        ("q", [1], "term 's1' q^[1] of ('e', 's1') breaks the grading"),
        ("q", [10**9], "term 's1' q^[1000000000] of ('e', 's1') breaks the grading"),
    ],
)
def test_table_names_the_mistyped_field_of_a_canonical_cache(
    tmp_path, capsys, field, value, reason
):
    # the mutations of test_table_rejects_mistyped_cache_fields, written in
    # the canonical layout, so that each one reaches its own check
    args = ("table", "--type", "A2", "--parabolic", "2", "--cache-dir", str(tmp_path))
    code, first, _ = run(capsys, *args)
    path = tmp_path / "A2-2.json"
    good = path.read_text(encoding="utf-8")
    doc = json.loads(good)
    assert canonical(doc) == good
    entry = doc["entries"][1]
    if field in ("terms", "u", "v", "note"):
        entry[field] = value
    else:
        entry["terms"][0][field] = value
    path.write_text(canonical(doc), encoding="utf-8")
    code, second, err = run(capsys, *args)
    assert code == 0
    assert err == f"warning: ignoring cache {path}: {reason}\ncache write: {path}\n"
    assert second == first
    assert path.read_text(encoding="utf-8") == good


@pytest.mark.parametrize(
    "q, reason",
    [
        ([0, 1], "term 'e' q^[0, 1] of ('s1', 's1') breaks the grading"),
        ([1, -1], "negative q-degree [1, -1]"),
        ([1], "malformed term payload"),
    ],
)
def test_table_names_the_mistyped_degree_of_a_canonical_cache_on_two_free_nodes(
    tmp_path, capsys, q, reason
):
    # C3/{3} has two free nodes, of c_1 weights 2 and 4, so swapping the
    # coordinates of a degree keeps its sum and breaks the grading; each
    # edit of sigma[s1] * sigma[s1] = sigma[s2s1] + q1 reaches its own check
    args = ("table", "--type", "C3", "--parabolic", "3", "--cache-dir", str(tmp_path))
    code, first, _ = run(capsys, *args)
    path = tmp_path / "C3-3.json"
    good = path.read_text(encoding="utf-8")
    doc = json.loads(good)
    entry = doc["entries"][25]
    assert (entry["u"], entry["v"], entry["terms"][1]) == ("s1", "s1", {"c": 1, "q": [1, 0], "w": "e"})
    entry["terms"][1]["q"] = q
    path.write_text(canonical(doc), encoding="utf-8")
    code, second, err = run(capsys, *args)
    assert code == 0
    assert err == f"warning: ignoring cache {path}: {reason}\ncache write: {path}\n"
    assert second == first
    assert path.read_text(encoding="utf-8") == good


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_table_rewrites_a_valid_compact_cache(tmp_path, capsys, fmt):
    # the compact document passes every check but the canonical layout, so
    # it is recomputed, written canonically and then served as it stands
    args = ("table", "--type", "A2", "--parabolic", "2", *fmt, "--cache-dir", str(tmp_path))
    code, first, _ = run(capsys, *args)
    path = tmp_path / "A2-2.json"
    good = path.read_text(encoding="utf-8")
    path.write_text(json.dumps(json.loads(good)), encoding="utf-8")
    code, second, err = run(capsys, *args)
    assert code == 0 and second == first
    assert err == (
        f"warning: ignoring cache {path}: not the canonical layout of table --json\n"
        f"cache write: {path}\n"
    )
    assert path.read_text(encoding="utf-8") == good
    code, third, err = run(capsys, *args)
    assert code == 0 and third == first
    assert err == f"cache hit: {path}\n"


@pytest.mark.parametrize(
    "type_name, parabolic, name",
    [("A2", "2", "A2-2.json"), ("B3", "", "B3-borel.json"), ("G2", "1", "G2-1.json"),
     ("A4", "1,4", "A4-1-4.json")],
)
def test_a_cache_hit_serves_the_cache_file_as_it_stands(
    tmp_path, capsys, type_name, parabolic, name
):
    table = ("table", "--type", type_name, "--parabolic", parabolic)
    warm = ("--cache-dir", str(tmp_path / "warm"))
    code, cold_json, err = run(capsys, *table, "--json", *warm)
    assert code == 0 and "cache write" in err
    code, cold_text, err = run(capsys, *table, "--cache-dir", str(tmp_path / "cold"))
    assert code == 0 and "cache write" in err
    code, warm_json, err = run(capsys, *table, "--json", *warm)
    assert code == 0 and "cache hit" in err
    code, warm_text, err = run(capsys, *table, *warm)
    assert code == 0 and "cache hit" in err
    assert warm_json == cold_json == (tmp_path / "warm" / name).read_text(encoding="utf-8")
    assert warm_text == cold_text


@pytest.mark.parametrize(
    "option, value",
    [("--max-degree", "-1"), ("--samples", "0"), ("--samples", "-3"), ("--window", "-1")],
)
def test_check_rejects_vacuous_options(capsys, option, value):
    code, out, err = run(
        capsys, "check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
        option, value,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and option in err


def _fresh_process(*argv, **kwargs):
    """Run the console script's entry point in a new interpreter on this
    checkout's package."""
    src = str(Path(qflag.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.Popen([sys.executable, "-m", "qflag.cli", *argv], env=env, **kwargs)


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    table = ("table", "--type", "A2", "--parabolic", "2", "--cache-dir", cache_dir)
    gw = ("gw", "--type", "A4", "--parabolic", "2,3,4", "--classes", "s4s3s2s1,s4s3s2s1,s1",
          "--degree", "1", "--json")
    commands = [
        gw,
        ("mul", "--type", "B2", "--parabolic", "2", "--u", "s1", "--v", "s1"),
        ("check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
         "--max-degree", "1"),
        table,  # cold
        table,  # warm
        ("lift", "--type", "A2"),  # argparse rejects it: no --degree
        gw,
    ]
    fresh = []
    for argv in commands:
        proc = _fresh_process(
            *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        out, err = proc.communicate(timeout=60)
        fresh.append((proc.returncode, out, err))
    shutil.rmtree(cache_dir)

    in_process = []
    for argv in commands:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 2, 0]
    assert "cache write" in in_process[3][2] and "cache hit" in in_process[4][2]
    assert in_process == fresh


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    argv = ["mul", "--type", "A2", "--u", "s1", "--v", "s1"]
    assert main(argv) == 0
    assert len(built) == 6  # the top level and its five subcommands
    assert main(argv) == 0
    assert len(built) == 6
    assert capsys.readouterr().out == "s1 * s1 = sigma[s2s1] + q1\n" * 2


@pytest.mark.parametrize("command", [[], ["lift"], ["gw"], ["mul"], ["table"], ["check"]])
def test_help_of_the_reused_parser_matches_a_fresh_one(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for parse in (cli.build_parser().parse_args, main, main):
        with pytest.raises(SystemExit) as exc:
            parse([*command, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0].out.startswith("usage: qflag ") and not helps[0].err
    assert helps[1] == helps[0] and helps[2] == helps[0]


def test_sigterm_removes_the_temporary_cache_file(tmp_path):
    proc = _fresh_process(
        "table", "--type", "D4", "--json", "--cache-dir", str(tmp_path),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".qflag-*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert list(tmp_path.iterdir()) == []


def test_a_closed_stdout_exits_141_quietly(tmp_path):
    # the reader stops after one line, as `| head -1` does; the text is
    # 328 KB, more than a pipe buffer holds, so the pipe breaks while the
    # table is written out
    with _fresh_process(
        "table", "--type", "B3", "--cache-dir", str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert proc.stdout.readline() == "type: B3  parabolic: []  basis: 48  entries: 2304\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 128 + signal.SIGPIPE
    assert err == f"cache write: {tmp_path / 'B3-borel.json'}\n"


@pytest.mark.parametrize(
    "classes, degree",
    [
        ("s2s1s2,s2s1,s1s2", "1"),
        ("s1s2,s1,s1,s2s1s2", "1"),
        ("s2s1s2,s2s1,s2s1,s1s2,s1", "2"),
    ],
    ids=["3", "4", "5"],
)
def test_gw_normalizes_each_class_once(monkeypatch, capsys, classes, degree):
    # on P^2 = A2/{2}, with the context warm, the command maps each class to
    # its minimal representative once, and nothing else does; s1s2 and
    # s2s1s2 are not minimal
    argv = ["gw", "--type", "A2", "--parabolic", "2", "--classes", classes,
            "--degree", degree, "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    calls = []
    real = qflag.weyl.min_coset_rep

    def counted(w, parabolic):
        calls.append(w)
        return real(w, parabolic)

    for name, module in list(sys.modules.items()):
        if name.startswith("qflag") and getattr(module, "min_coset_rep", None) is real:
            monkeypatch.setattr(module, "min_coset_rep", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["invariant"] == 1
    assert len(calls) == len(classes.split(","))
