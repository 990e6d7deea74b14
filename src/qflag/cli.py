"""Command-line interface: degree lifts, invariants, products, structure
tables and self-check suites.

Exit codes: 0 success, 1 internal assertion or failed check, 2 input
validation, 3 enumeration bound exceeded.  The console script also exits
143 (128 + SIGTERM) when it is terminated, after removing its temporary
cache file, and 141 (128 + SIGPIPE), with nothing on stderr, when the
reader of its stdout has closed it (`qflag table ... | head -1`).

`main(argv)` returns the exit code and can be called repeatedly in one
process: the parser is built on the first call and reused, and argparse
gives every call a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from contextlib import ExitStack
from functools import cache, partial
from itertools import product as iter_product

from . import cache as cache_io
from .compare import CheckResult, _consistency, _context, comparison_data
from .degrees import _as_degree, enumerate_alcove_lifts, peterson_lift
from .quantum import _oriented_product, format_terms
from .root_system import CartanType, ParabolicSubset, _parse_ints, build_root_system
from .weyl import EnumerationBoundError, format_word, from_word, min_coset_rep, parse_word


def _parse_ring(args):
    ctype = CartanType.parse(args.type)
    rs = build_root_system(ctype)
    parabolic = ParabolicSubset.parse(args.parabolic)
    rs.check_parabolic(parabolic)
    return rs, parabolic


def _parse_degree(rs, parabolic, text):
    text = (text or "").strip()
    if not text:
        raise ValueError("missing degree vector")
    try:
        degree = _parse_ints(text)
    except ValueError:
        raise ValueError(f"cannot parse degree {text!r}") from None
    return _as_degree(rs, parabolic, degree)


def _parse_classes(rs, text):
    words = [part.strip() for part in (text or "").split(",")]
    if words == [""]:
        raise ValueError("missing class list")
    if "" in words:
        raise ValueError(f"empty item {words.index('') + 1} in class list {text!r}")
    return [from_word(rs, parse_word(wtext)) for wtext in words]


def _parse_class(rs, text):
    elements = _parse_classes(rs, text)
    if len(elements) != 1:
        raise ValueError(f"expected one Weyl word, got {text!r}")
    return elements[0]


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _normalize_classes(ctx, elements):
    """The minimal representatives, as the basis elements of `ctx`, which
    carry the enumeration's words, plus warnings for inputs that were not."""
    normalized, warnings = [], []
    for w in elements:
        rep = ctx.basis[ctx.position[min_coset_rep(w, ctx.parabolic).perm]]
        if rep != w:
            warnings.append(
                f"class {format_word(w.word)} is not a minimal representative; "
                f"using {format_word(rep.word)}"
            )
        normalized.append(rep)
    return normalized, warnings


def cmd_lift(args):
    rs, parabolic = _parse_ring(args)
    degree = _parse_degree(rs, parabolic, args.degree)
    cd = comparison_data(rs, parabolic, degree)
    payload = {
        "type": str(rs.cartan_type),
        "parabolic": list(parabolic.indices),
        "degree": list(degree),
        "dB": list(cd.d_B),
        "Pprime": list(cd.j_prime.indices),
        "wPrime": format_word(cd.w_prime.word),
        "dPprime": list(cd.d_pprime),
    }
    _emit(
        args,
        payload,
        [
            f"type: {payload['type']}  parabolic: {payload['parabolic']}  degree: {payload['degree']}",
            f"lambda_B: {payload['dB']}",
            f"d_B: {payload['dB']}",
            f"P_prime: {payload['Pprime']}",
            f"w_prime: {payload['wPrime']}",
            f"d_Pprime: {payload['dPprime']}",
        ],
    )
    return 0


def cmd_gw(args):
    rs, parabolic = _parse_ring(args)
    elements = _parse_classes(rs, args.classes)
    if len(elements) < 3:
        raise ValueError("need at least three classes")
    degree = _parse_degree(rs, parabolic, args.degree)
    ctx = _context(rs, parabolic)
    elements, warnings = _normalize_classes(ctx, elements)
    note = None
    if all(x >= 0 for x in degree):
        value = ctx.invariant(elements, degree)
        d_b = list(ctx.degree(degree).d_B)
    else:
        value, d_b, note = 0, None, "non-effective degree"
    route = "comparison" if len(parabolic) else "borel"
    payload = {
        "type": str(rs.cartan_type),
        "parabolic": list(parabolic.indices),
        "classes": [format_word(w.word) for w in elements],
        "degree": list(degree),
        "invariant": value,
        "dB": d_b,
        "route": route,
    }
    if note:
        payload["note"] = note
    if warnings:
        payload["warnings"] = warnings
    lines = [f"invariant: {value}", f"route: {route}  dB: {d_b}"]
    if note:
        lines.append(f"note: {note}")
    lines.extend(f"note: {w}" for w in warnings)
    _emit(args, payload, lines)
    return 0


def cmd_mul(args):
    rs, parabolic = _parse_ring(args)
    u, v = (_parse_class(rs, text) for text in (args.u, args.v))
    ctx = _context(rs, parabolic)
    (u, v), warnings = _normalize_classes(ctx, [u, v])
    terms = []
    for key, c in ctx.int_terms(ctx.position[u.perm], ctx.position[v.perm]):
        y, d = ctx.ring.term(key)
        terms.append((format_word(ctx.basis[y].word), d, c))
    payload = {
        "type": str(rs.cartan_type),
        "parabolic": list(parabolic.indices),
        "u": format_word(u.word),
        "v": format_word(v.word),
        "product": format_terms(terms),
        "terms": [{"w": w, "q": list(d), "c": c} for w, d, c in terms],
    }
    if warnings:
        payload["warnings"] = warnings
    lines = [f"{payload['u']} * {payload['v']} = {payload['product']}"]
    lines.extend(f"note: {w}" for w in warnings)
    _emit(args, payload, lines)
    return 0


def _mirrored(n, value):
    """value(i, j) for every pair of positions below n in row-major order,
    computed once per unordered pair: the ring is commutative, so entry
    (j, i) reuses the value of (i, j).  A value is kept only until row j has
    used it, so at most about a quarter of them are held at once."""
    upper = [[] for _ in range(n)]  # upper[j]: the values of (i, j), i < j
    for i in range(n):
        yield from upper[i]
        upper[i] = None
        for j in range(i, n):
            got = value(i, j)
            if j > i:
                upper[j].append(got)
            yield got


def cmd_table(args):
    import shutil
    import tempfile

    rs, parabolic = _parse_ring(args)
    type_name = str(rs.cartan_type)
    ctx = _context(rs, parabolic)
    cache_dir = args.cache_dir or cache_io.default_cache_dir()
    path = cache_io.table_path(cache_dir, type_name, parabolic)
    words = [format_word(w.word) for w in ctx.basis]
    n = len(words)

    def term_of(key):
        y, d = ctx.ring.term(key)
        return words[y], d

    encode = cache_io.terms_encoder(term_of)

    def entry(i, j):
        return encode(ctx.int_terms(i, j))

    def write(handle):
        pairs = iter_product(words, repeat=2)
        cache_io.write_document(
            handle, type_name, parabolic.indices,
            ((u, v, terms) for (u, v), terms in zip(pairs, _mirrored(n, entry))),
        )

    # stdout gets nothing until the table is complete and checked: a
    # document is served from the handle it was checked or written through,
    # and a text run's lines are written by the check pass into a file
    with ExitStack() as files:
        anonymous = partial(tempfile.TemporaryFile, "w+", encoding="utf-8", newline="")
        text = None if args.json else files.enter_context(anonymous())
        doc, problem = cache_io.load_document(path, ctx, words, text)
        if problem:
            print(f"warning: {problem}", file=sys.stderr)
        if doc is not None:
            print(f"cache hit: {path}", file=sys.stderr)
            files.enter_context(doc)
        else:
            try:
                doc, tmp = files.enter_context(cache_io.new_document(path))
                write(doc)
                cache_io.store_document(path, doc, tmp)
            except OSError as exc:
                # like an unreadable cache, an unwritable one costs only the
                # reuse: the table is written again, into an anonymous file
                print(f"warning: cannot write cache {path}: {exc}", file=sys.stderr)
                doc = files.enter_context(anonymous())
                write(doc)
            else:
                print(f"cache write: {path}", file=sys.stderr)
            if text is not None:
                text.seek(0)  # drop the lines of a rejected cache file, if any
                text.truncate()
                doc.seek(0)
                problem = cache_io.check_document(doc, ctx, words, text)
                if problem:
                    raise RuntimeError(f"a fresh table fails the cache check: {problem}")
        out = doc if args.json else text
        out.seek(0)
        shutil.copyfileobj(out, sys.stdout)
    return 0


def _suite_associativity(args):
    ctx = _context(*_parse_ring(args))
    order = len(ctx.basis)
    if order**3 <= 1000:
        triples = list(iter_product(range(order), repeat=3))
        how = f"all {len(triples)} triples"
    else:
        import random

        rng = random.Random(0)
        count = args.samples or 200
        triples = [tuple(rng.randrange(order) for _ in range(3)) for _ in range(count)]
        how = f"{count} seeded random triples"
    ring, times, int_terms, rows = ctx.ring, ctx.times, ctx.int_terms, ctx.rows
    unit = [{(k, (0,) * len(ctx.free)): 1} for k in range(order)]
    bad_assoc = 0
    bad_comm = 0
    for a, b, c in triples:
        # (a * b) * c by the orbit route, a * (b * c) by the direct readout,
        # which no orbit map reaches: on a ring with one orbit representative
        # besides e, the orbit route alone is associative whatever that
        # representative's square is
        ab_c = times(times(unit[a], unit[b], int_terms), unit[c], int_terms)
        if ab_c != times(unit[a], times(unit[b], unit[c], rows), rows):
            bad_assoc += 1
        # both orders of a product read one table, so compare the two
        # recursions instead
        if _oriented_product(ring, a, b) != _oriented_product(ring, b, a):
            bad_comm += 1
    return [
        CheckResult("associativity", bad_assoc == 0, how),
        CheckResult("commutativity", bad_comm == 0, how),
    ]


def _suite_recursion(args):
    # the level recursion on W^J against Peterson's readout of the Borel
    # product, on every ordered pair of basis classes
    ctx = _context(*_parse_ring(args))
    n = len(ctx.basis)
    mismatched = sum(ctx.int_terms(i, j) != ctx.rows(i, j) for i in range(n) for j in range(n))
    return [CheckResult("recursion", mismatched == 0,
                        f"{n * n} ordered pairs, {mismatched} mismatched")]


def _degree_box(rs, parabolic, max_degree):
    """Every degree with coordinates in [0, max_degree]."""
    r = len(parabolic.free_nodes(rs.rank))
    return iter_product(range(max_degree + 1), repeat=r)


def _suite_comparison(args):
    rs, parabolic = _parse_ring(args)
    reads = {}  # each ordered product is read once for every degree of the box
    return [
        result._replace(name=f"d={list(degree)}: {result.name}")
        for degree in _degree_box(rs, parabolic, args.max_degree)
        for result in _consistency(rs, parabolic, degree, reads)
    ]


def _suite_lift_oracle(args):
    rs, parabolic = _parse_ring(args)
    results = []
    for degree in _degree_box(rs, parabolic, args.max_degree):
        hits = enumerate_alcove_lifts(rs, parabolic, degree, window=args.window)
        lam = peterson_lift(rs, parabolic, degree)
        results.append(
            CheckResult(
                f"d={list(degree)}: lift-uniqueness",
                hits == [lam],
                f"{len(hits)} lattice points in window {args.window}",
            )
        )
    return results


_SUITES = {
    "associativity": _suite_associativity,
    "comparison": _suite_comparison,
    "lift-oracle": _suite_lift_oracle,
    "recursion": _suite_recursion,
}


def cmd_check(args):
    if args.suite not in _SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}")
    bounds = (("--max-degree", args.max_degree, 0), ("--samples", args.samples, 1),
              ("--window", args.window, 0))
    for option, value, least in bounds:
        if value is not None and value < least:
            raise ValueError(f"{option} must be at least {least}, got {value}")
    results = _SUITES[args.suite](args)
    ok = all(r.passed for r in results)
    payload = {"suite": args.suite, "passed": ok, "checks": [r._asdict() for r in results]}
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})" for r in results]
    lines.append(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qflag",
        description=(
            "Exact small quantum cohomology of flag varieties in the Schubert "
            "basis. Nodes use the standard Bourbaki numbering; Weyl words are "
            "'e' or concatenated generators like 's1s2s1'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help="Cartan type, e.g. A2")
        p.add_argument(
            "--parabolic", default="", help="comma list of parabolic nodes (empty = Borel)"
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("lift", help="lift a degree to the Borel level")
    common(p)
    p.add_argument("--degree", required=True, help="comma list of integers")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("gw", help="Gromov-Witten invariant")
    common(p)
    p.add_argument("--classes", required=True, help=(
        "comma list of >= 3 Weyl words; with four or more, the value is the coefficient "
        "of the iterated product on the dual of the last class, checked with the "
        "three-point grading, not the n-point invariant"))
    p.add_argument("--degree", required=True, help="comma list of integers")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("mul", help="quantum product of two Schubert classes")
    common(p)
    p.add_argument("--u", required=True, help="first class (Weyl word)")
    p.add_argument("--v", required=True, help="second class (Weyl word)")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("table", help="full structure-constant table with caching")
    common(p)
    p.add_argument("--cache-dir", default=None, help="cache directory (default: QFLAG_CACHE_DIR or .qflag-cache)")
    p.set_defaults(func=cmd_table)

    def integer(text):
        # the ASCII rule of the comma lists; type=int would also take digit
        # separators and non-ASCII digits
        (value,) = _parse_ints(text)
        return value

    p = sub.add_parser("check", help="run a self-check suite")
    common(p)
    p.add_argument("--suite", required=True, help="|".join(sorted(_SUITES)))
    p.add_argument("--max-degree", type=integer, default=3)
    p.add_argument("--samples", type=integer, default=None)
    p.add_argument("--window", type=integer, default=6)
    p.set_defaults(func=cmd_check)
    return parser


@cache
def _parser():
    # built on first use, not at import, so that it holds the cmd_*
    # functions the module has when the first command runs
    return build_parser()


def main(argv=None, *, propagate=()) -> int:
    """Run one command and return its exit code; an exception of a class in
    `propagate` is raised instead."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except propagate:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal assertion
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def entry():
    # a terminated process unwinds like any other exit, so `table` removes
    # its temporary cache file; in-process callers of `main` keep their own
    # signal handling, and a broken pipe is an internal error there
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code = main(propagate=(BrokenPipeError,))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; /dev/null takes the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
