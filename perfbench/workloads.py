"""The four workloads: the qflag commands of one round, made from a seed.

A round is the same list of commands every time in a run.  Each command
carries the number of operations it performs, counted from its inputs (a
table entry produced or served, a product, or a graded triple audited), and
a check of its stdout made by ``checks`` from independent mathematics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import checks
from oracle import format_word, reduced_word

# (type, parabolic): full flags of rank-3 types and two-step flags of A4
TABLES = (("B3", ()), ("C3", ()), ("A4", (2, 3)), ("A4", (1, 4)))
# (type, parabolic, max degree): the third is projective space P^4
SUITES = (("A3", (2,), 3), ("B3", (1,), 1), ("A4", (2, 3, 4), 2))
TOP_TYPES = ("D4", "B4", "C4")
PROJECTIVE_N = 4


@dataclass
class Command:
    argv: list
    ops: int
    check: object  # stdout text -> list of problems
    partner: int | None = None  # index of the same product with factors swapped


@dataclass
class Workload:
    commands: list
    # commands run once, before any timing, by a fresh interpreter; set_cold
    # receives their stdout.  The first setup_commands of them (table-warm's
    # cache fill) count in setup_s; the rest only make reference output.
    prepare: list = field(default_factory=list)
    setup_commands: int = 0
    set_cold: object = None
    cold_dir: str | None = None  # emptied before every round


def _parabolic_arg(parabolic):
    return ",".join(str(j) for j in parabolic)


def _table_argv(type_name, parabolic, cache_dir, as_json):
    argv = ["table", "--type", type_name, "--parabolic", _parabolic_arg(parabolic)]
    return argv + (["--json"] if as_json else []) + ["--cache-dir", cache_dir]


def _entries(type_name, parabolic):
    return len(checks.Ring(type_name, parabolic).basis) ** 2


def _random_reduced_word(rd, w, rng):
    """A reduced word of w, peeling a seeded choice of right descent."""
    rev = []
    while True:
        descents = [i for i in range(1, rd.rank + 1) if rd.is_right_descent(w, i)]
        if not descents:
            return format_word(tuple(reversed(rev)))
        i = rng.choice(descents)
        rev.append(i)
        w = rd.compose(w, rd.simple_refl[i - 1])


def table_cold(seed, work):
    """The tables from an empty cache, in a fixed order: the order decides
    which engines are alive when the largest one is built, and so the peak
    memory.  The seed draws the triples the associativity check audits."""
    cold = f"{work}/cold"
    commands = [
        Command(
            _table_argv(t, j, cold, True),
            _entries(t, j),
            lambda text, t=t, j=j: checks.check_table_json(text, t, j, seed),
        )
        for t, j in TABLES
    ]
    return Workload(commands, cold_dir=cold)


def table_warm(seed, work):
    """The table-cold commands served from a cache that the same code filled
    before timing, in JSON and in text, in a fixed order; each warm stdout
    must be byte-identical to the cold stdout of the same command."""
    warm, scratch = f"{work}/warm", f"{work}/cold-json"
    cold = {}  # (type, parabolic, as_json) -> (cold stdout, its problems)

    def check(text, key):
        expected, problems = cold[key]
        if problems:
            return ["the cold output of this command failed its checks"] + problems
        return [] if text == expected else ["warm stdout differs from the cold stdout"]

    # the text commands fill the warm cache; the JSON ones compute afresh
    prepare = [_table_argv(t, j, warm, False) for t, j in TABLES]
    prepare += [_table_argv(t, j, scratch, True) for t, j in TABLES]
    commands = [
        Command(
            _table_argv(t, j, warm, as_json), _entries(t, j),
            lambda text, key=(t, j, as_json): check(text, key),
        )
        for t, j in TABLES
        for as_json in (True, False)
    ]

    def set_cold(outputs):
        n = len(TABLES)
        for (t, j), (text_rc, text), (json_rc, json_text) in zip(TABLES, outputs[:n], outputs[n:]):
            problems = [] if json_rc == 0 else [f"cold JSON command exited {json_rc}"]
            problems += checks.guarded(checks.check_table_json, json_text, t, j, seed)
            cold[(t, j, True)] = (json_text, problems)
            if text_rc != 0:
                problems = problems + [f"cold text command exited {text_rc}"]
            elif not problems:
                problems = checks.guarded(checks.check_table_text, text, json_text)
            cold[(t, j, False)] = (text, problems)

    return Workload(commands, prepare=prepare, setup_commands=len(TABLES), set_cold=set_cold)


def borel_top(seed, work):
    """w0 * w0 on D4, B4 and C4, and seeded pairs of top-length classes of A4
    in both orders, each class given by a seeded reduced word."""
    rng = random.Random(seed)
    commands = []

    def mul(type_name, u, v):
        rd = checks.root_data(type_name)
        uw, vw = _random_reduced_word(rd, u, rng), _random_reduced_word(rd, v, rng)
        argv = ["mul", "--type", type_name, "--u", uw, "--v", vw, "--json"]
        return Command(
            argv, 1, lambda text: checks.check_mul_json(text, type_name, uw, vw)
        )

    for type_name in TOP_TYPES:
        w0 = checks.root_data(type_name).longest()
        commands.append(mul(type_name, w0, w0))
    rd = checks.root_data("A4")
    top = rd.length(rd.longest())
    pool = [w for w in rd.elements() if rd.length(w) >= top - 1]
    for _ in range(4):
        u, v = rng.choice(pool), rng.choice(pool)
        commands.append(mul("A4", u, v))
        commands.append(mul("A4", v, u))
        commands[-1].partner, commands[-2].partner = len(commands) - 2, len(commands) - 1
    return Workload(commands)


def gw_audit(seed, work):
    """Comparison suites, and three-point invariants of P^4 whose classes
    are given by seeded non-minimal coset representatives."""
    rng = random.Random(seed)
    commands = []
    for t, j, max_degree in SUITES:
        triples = sum(
            checks.graded_triples(t, j, d) for d in checks.comparison_degrees(t, j, max_degree)
        )
        argv = ["check", "--suite", "comparison", "--type", t, "--parabolic",
                _parabolic_arg(j), "--max-degree", str(max_degree)]
        commands.append(
            Command(argv, triples, lambda text, t=t, j=j, m=max_degree:
                    checks.check_comparison_text(text, t, j, m))
        )
    n = PROJECTIVE_N
    ring = checks.Ring(f"A{n}", range(2, n + 1))
    rd = ring.rd
    by_codim = {ring.length(w): w for w in ring.basis}
    levi = [w for w in rd.elements() if set(reduced_word(rd, w)) <= set(ring.parabolic)]
    for degree in (0, 1):
        for codims in combinations_with_replacement(range(n + 1), 3):
            words = [
                _random_reduced_word(rd, rd.compose(by_codim[a], rng.choice(levi)), rng)
                for a in codims
            ]
            argv = ["gw", "--type", f"A{n}", "--parabolic", _parabolic_arg(ring.parabolic),
                    "--classes", ",".join(words), "--degree", str(degree), "--json"]
            commands.append(
                Command(argv, 1, lambda text, w=words, d=degree:
                        checks.check_projective_gw_json(text, n, w, d))
            )
    rng.shuffle(commands)
    return Workload(commands)


WORKLOADS = {
    "table-cold": table_cold,
    "borel-top": borel_top,
    "gw-audit": gw_audit,
    "table-warm": table_warm,
}
