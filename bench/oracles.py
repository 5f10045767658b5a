"""Closed-form oracles for the benchmark, independent of monvar.

Words are plain strings over the letters x and y ("" is the empty word).
Nothing here imports monvar: every verdict the benchmark checks is compared
against these invariants, never against the program's own deciders.

  T    every identity holds
  SL   u = v  iff  content(u) = content(v)
  C    u = v  iff  letters sorted with exponents capped at 2 agree
  LRB  u = v  iff  ini(u) = ini(v)   (first occurrences, in order)
  RRB  u = v  iff  fin(u) = fin(v)   (last occurrences, in order)
  MON  u = v  iff  u and v are the same word
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re

LETTERS = "xy"
KINDS = ("SL", "C", "LRB", "RRB")
BUILTINS = ("T", "SL", "C", "LRB", "RRB", "MON")

# Every word of length <= 4 over {x, y}, shortlex order: 31 words.
ALL_WORDS = tuple("".join(p) for n in range(5) for p in itertools.product(LETTERS, repeat=n))

# Defining identities, written out here rather than read from the program.
REFERENCE_BASIS = {
    "SL": ("x^2 = x", "xy = yx"),
    "C": ("x^2 = x^3", "xy = yx"),
    "LRB": ("xy = xyx",),
    "RRB": ("xy = yxy",),
}

# Decider-Yes pairs among ALL_WORDS x ALL_WORDS per reference presentation.
EXPECTED_YES_PAIRS = {"SL": 517, "C": 159, "LRB": 275, "RRB": 275}
# SHA-256 of closure_sweep's certificate texts (max_word_length 8, max_depth
# 8) as of the first benchmarked commit; serialized certificates must stay
# byte-identical unless a change says why not.
CLOSURE_CERTIFICATES_SHA256 = "2988d2e44a688e5303fc29baf817cf33694b95dd1ebf2724eb78693ad7ab39ec"


def word_text(w: str) -> str:
    """monvar's text form of a word: the letters, or '1' for the empty word."""
    return w or "1"


def ini(w: str) -> str:
    return "".join(dict.fromkeys(w))


def fin(w: str) -> str:
    return ini(w[::-1])[::-1]


def c_normal(w: str) -> str:
    return "".join(ch * min(w.count(ch), 2) for ch in sorted(set(w)))


INVARIANT = {
    "T": lambda w: None,
    "SL": frozenset,
    "C": c_normal,
    "LRB": ini,
    "RRB": fin,
    "MON": lambda w: w,
}


def holds(kind: str, u: str, v: str) -> bool:
    """Whether the builtin variety `kind` satisfies u = v."""
    return INVARIANT[kind](u) == INVARIANT[kind](v)


# A handle's variety is described by the set of builtin kinds it is the join
# of; a join satisfies exactly the identities every component satisfies.


def meet_kinds(*parts) -> frozenset[str]:
    """The join-set of the meet of single builtin varieties (one-kind sets).

    T is the least variety and MON the greatest.  SL lies below C, LRB and
    RRB, and any two distinct ones among SL, C, LRB, RRB meet in SL: with
    y = 1, xy = xyx and xy = yxy give x = x^2, and commutativity then gives
    SL; LRB and RRB together give xy = xyx = yx.
    """
    kinds = set().union(*parts)
    if "T" in kinds:
        return frozenset({"T"})
    kinds.discard("MON")
    if not kinds:
        return frozenset({"MON"})
    if len(kinds) == 1:
        return frozenset(kinds)
    return frozenset({"SL"})


def join_kinds(*parts) -> frozenset[str]:
    return frozenset().union(*parts)


def satisfies(kinds, u: str, v: str) -> bool:
    return all(holds(kind, u, v) for kind in kinds)


def isoterm(kinds, w: str) -> bool:
    """Whether the class of w under the join of `kinds` is {w}.

    The class under a join is the intersection of the component classes,
    i.e. the words agreeing with w on every component's invariant.  MON
    pins w.  Without C, w.w shares content, ini and fin with any non-empty
    w.  With C, a letter occurring twice can be doubled in place without
    moving any first or last occurrence; a linear word (every letter once)
    can only be permuted, which ini or fin forbids and C alone allows.
    """
    kinds = set(kinds)
    if "MON" in kinds:
        return True
    kinds.discard("T")
    if not kinds:
        return False
    if "C" not in kinds:
        return w == ""
    linear = len(set(w)) == len(w)
    return linear and (len(w) <= 1 or "LRB" in kinds or "RRB" in kinds)


def equivalent_identity(kind: str, rng: random.Random) -> str:
    """A random non-trivial identity over words of length <= 4 that `kind`
    satisfies, as identity text.  Added to the reference basis it presents
    the same variety, so the closed form stays a valid oracle."""
    while True:
        u, v = rng.choice(ALL_WORDS), rng.choice(ALL_WORDS)
        if u != v and holds(kind, u, v):
            break
    if set(u) != set(v):
        raise AssertionError(f"generated identity {u} = {v} is not content-balanced")
    return f"{word_text(u)} = {word_text(v)}"


# `monvar verify` as of the first benchmarked commit.  The digest pins the
# byte-identity of the rendered reports.
VERIFY_STATUSES = ("PASS", "PASS", "PASS_WITH_ASSUMPTIONS", "PASS")
VERIFY_CHECK_LINES = (8, 6, 7, 4)
VERIFY_STDOUT_SHA256 = "7a1622d5e12f897f3198edfc9d35fb7f7e64bc01c1e5fd2d24b8bd73430140d4"


def verify_output_problems(exit_code: int, stdout: bytes) -> list[str]:
    """Everything wrong with one `monvar verify` run; [] when it matches."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    reports = stdout.decode("utf-8", errors="replace").split("SCENARIO ")[1:]
    statuses = tuple(",".join(re.findall(r"^STATUS: (\S+)$", r, re.M)) for r in reports)
    checks = tuple(len(re.findall(r"^CHECK ", r, re.M)) for r in reports)
    if statuses != VERIFY_STATUSES:
        problems.append(f"statuses {statuses}")
    if checks != VERIFY_CHECK_LINES:
        problems.append(f"CHECK lines per scenario {checks}")
    if hashlib.sha256(stdout).hexdigest() != VERIFY_STDOUT_SHA256:
        problems.append("stdout digest differs from the pinned one")
    return problems
