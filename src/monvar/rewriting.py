"""One-step rewriting modulo substitution, bounded derivation search with
replayable certificates, and exact congruence-class verification.

An identity s = t rewrites p to q when p = a.s'.b and q = a.t'.b for a common
prefix a, suffix b, and substitution instance (s', t') of (s, t) or (t, s).
An identity u = v is derivable from a finite system exactly when u and v are
connected by a chain of such steps, so bounded breadth-first search yields
derivation certificates, and a finite set that is closed under all one-step
successors and connected through them is precisely the class of its base word
under the fully invariant congruence of the presented variety.

Exact operations (successor enumeration, class closure, isoterm checks, class
enumeration) require every identity to be content-balanced, i.e. both sides
use the same variable set.  A variable private to one side admits arbitrary
images, which makes the successor set of a word infinite; such systems are
rejected with ContentUnbalancedError instead of being silently truncated.

Inside the engine a word is a code: a str with one character per letter,
the i-th variable of its content in name order being chr(i), so shortlex
order is string order.  Word stays the public type, and a RewriteStep is
built only for a certificate or for one_step_successors.  An Exploration
keeps each edge's step once built, so every certificate through that edge
shares one RewriteStep.

All searches go through one Rewriter per presentation, which holds both
orientations of every identity as rules.  Each rule runs as a kernel: its
rewritten side's matcher, generated as Python source and compiled once per
side, with the replacing side bound as data.  kernel(s, limit, found) ->
over, for a limit of at least len(s), takes every start in ascending order
and every match there, and computes the successor's length before building
it.  A successor within limit is built and, if new to found, recorded as
found[q] = (start, l0, ..., l(m-1)), its link: the image length of each
variable by slot, not its text, so one link holds for every renaming of s's
letters.  A longer successor is never built; it only sets over.  The matches
within any limit come in one order, so q's link is the same under every
limit of at least len(q), and Rewriter._step slices the images back out of
s, from start to where the rewritten side's runs end.

Successors are memoised in one dict keyed by (owner, code), and every entry
holds the codes of the word's successors other than itself, and a cap.
Rewriting commutes with renaming letters, so a rule shape's entry, under the
shape and the word's first-occurrence renaming (its k-th distinct letter
becomes chr(k)), maps each code its kernel gave that renaming to its link, for
every word with that renaming in every presentation with a rule of that shape.
A rewriter's entry, under the repr of its rule shapes in order and the word's
own code, lists the union of its rules' codes, renamed back, in shortlex
order, for every rewriter with the same shapes in the same order.  It names no
rule: the shape entries are the only record of how a successor arises, and a
RewriteStep is read from the first rule whose entry holds it, built again if
it was evicted.  A request caps successor length by a number, math.inf for all
of them.  An entry holds a word's successors within the cap it was built
under, and keeps that cap only when a longer successor exists.  An entry that
left out nothing is complete and serves every cap; a request for a larger cap
builds the entry again.  Entries count one per word and one per successor
held, at most MAX_MEMO_ENTRIES in all; past that the oldest entry leaves
first, and a rebuilt entry counts as new.  Entries are hash-consed: each holds
_SHARED's object for every code and link it stores, so a value that recurs
across entries is stored once, and _SHARED is emptied before an entry is
shared once it holds MAX_MEMO_ENTRIES objects.

isoterm_exact reads one memo entry, and every other exact operation wraps one
search, explore, whose Exploration answers whether it reached a word (`in`):
derive stops it at its target (where it ends at once, with no successor
lookup, for its start and for a word of other content, which no
content-balanced rule reaches), and class_closure_verify reads each member's
complete successor list for closure and runs explore for connectivity.  A
caller that can use only a complete class asks explore with complete_only,
which gives up the first time the search prunes (a memo entry with a cap, a
successor past the length cap, or the state cap): a closure that prunes
never saturates, so the rest of the search is wasted.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from itertools import groupby
from operator import attrgetter, itemgetter, mul
from typing import NamedTuple

from .words import (
    EMPTY,
    Substitution,
    Variable,
    Word,
    content,
    format_word,
    parse_word,
)

__all__ = [
    "ContentUnbalancedError",
    "Identity",
    "Presentation",
    "Rewriter",
    "RewriteStep",
    "DerivationCertificate",
    "CertificateCheck",
    "SearchBounds",
    "ExactClass",
    "NotClosed",
    "NotConnected",
    "Exploration",
    "match_pattern",
    "one_step_successors",
    "explore",
    "derive",
    "default_bounds",
    "verify_certificate",
    "class_closure_verify",
    "isoterm_exact",
    "format_certificate",
    "parse_certificate",
]


class ContentUnbalancedError(ValueError):
    """An identity whose two sides use different variable sets."""

    def __init__(self, identity: "Identity"):
        self.identity = identity
        super().__init__(f"identity {identity} is not content-balanced")


@dataclass(frozen=True)
class Identity:
    """An unordered identity, stored with the lexicographically smaller side first."""

    lhs: Word
    rhs: Word

    def __post_init__(self):
        if self.rhs.letters < self.lhs.letters:
            lhs, rhs = self.rhs, self.lhs
            object.__setattr__(self, "lhs", lhs)
            object.__setattr__(self, "rhs", rhs)

    @property
    def content_balanced(self) -> bool:
        return content(self.lhs) == content(self.rhs)

    @classmethod
    def parse(cls, text: str) -> "Identity":
        parts = text.split("=")
        if len(parts) != 2:
            raise ValueError(f"identity text must be '<word> = <word>', got {text!r}")
        return cls(parse_word(parts[0]), parse_word(parts[1]))

    def __str__(self) -> str:
        return f"{format_word(self.lhs)} = {format_word(self.rhs)}"


@dataclass(frozen=True)
class Presentation:
    """A finite identity system.  Identity order is first-seen order after
    canonical orientation and deduplication, and rewrite steps refer to
    identities by their index in that order."""

    identities: tuple[Identity, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "identities", tuple(dict.fromkeys(self.identities)))

    @classmethod
    def of(cls, *texts: str) -> "Presentation":
        return cls(tuple(Identity.parse(t) for t in texts))

    @classmethod
    def parse(cls, text: str) -> "Presentation":
        """Parse the identity-system file format: one '<word> = <word>' per
        line, '#' starts a comment, blank lines ignored."""
        identities = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            identities.append(Identity.parse(line))
        return cls(tuple(identities))

    @classmethod
    def read(cls, path: str) -> "Presentation":
        """Parse the identity-system file at path (UTF-8, with or without a
        byte-order mark)."""
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.parse(fh.read())

    def format(self) -> str:
        return "".join(f"{ident}\n" for ident in self.identities)

    def require_content_balanced(self) -> None:
        for ident in self.identities:
            if not ident.content_balanced:
                raise ContentUnbalancedError(ident)

    @cached_property
    def _rewriter(self) -> "Rewriter":
        """Built on first use; an unbalanced system raises and caches nothing."""
        return Rewriter(self)

    def __or__(self, other: "Presentation") -> "Presentation":
        return Presentation(self.identities + other.identities)

    def __len__(self) -> int:
        return len(self.identities)

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.identities) + "}"


@dataclass(frozen=True)
class SearchBounds:
    """Caps making breadth-first derivation search terminate.  Derivability
    itself is unbounded, so exhausting these bounds never refutes anything.
    A length cap left unset is filled by each search from its own words, as
    default_bounds does, so SearchBounds() means every default."""

    max_word_length: int | None = None
    max_depth: int = 10
    max_states: int = 1_000_000

    def __post_init__(self):
        if any(cap is not None and cap <= 0 for cap in (self.max_word_length, self.max_depth, self.max_states)):
            raise ValueError("all search bounds must be strictly positive")


def default_bounds(sigma: Presentation, *words: Word) -> SearchBounds:
    """Twice the longest word in sight (arguments or identity sides)."""
    longest = 1
    for w in words:
        longest = max(longest, len(w))
    for ident in sigma.identities:
        longest = max(longest, len(ident.lhs), len(ident.rhs))
    return SearchBounds(max_word_length=2 * longest)


@dataclass(frozen=True)
class RewriteStep:
    """One rewrite p -> q: p = prefix . subst(s) . suffix and
    q = prefix . subst(t) . suffix, where (s, t) is the referenced identity
    read left-to-right when forward and right-to-left otherwise."""

    prefix: Word
    suffix: Word
    identity_index: int
    forward: bool
    subst: Substitution

    def sides(self, sigma: Presentation) -> tuple[Word, Word]:
        ident = sigma.identities[self.identity_index]
        return (ident.lhs, ident.rhs) if self.forward else (ident.rhs, ident.lhs)

    def source(self, sigma: Presentation) -> Word:
        src, _ = self.sides(sigma)
        return self.prefix * self.subst.apply(src) * self.suffix

    def target(self, sigma: Presentation) -> Word:
        _, dst = self.sides(sigma)
        return self.prefix * self.subst.apply(dst) * self.suffix


@dataclass(frozen=True)
class DerivationCertificate:
    """A replayable chain of rewrite steps starting at a fixed word."""

    start: Word
    steps: tuple[RewriteStep, ...] = ()

    def words(self, sigma: Presentation) -> list[Word]:
        chain = [self.start]
        for step in self.steps:
            chain.append(step.target(sigma))
        return chain

    def reversed(self, sigma: Presentation) -> "DerivationCertificate":
        chain = self.words(sigma)
        steps = tuple(replace(s, forward=not s.forward) for s in reversed(self.steps))
        return DerivationCertificate(chain[-1], steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    step_index: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# Verdicts of exact class verification.


@dataclass(frozen=True)
class ExactClass:
    words: frozenset[Word]


@dataclass(frozen=True)
class NotClosed:
    member: Word
    successor: Word


@dataclass(frozen=True)
class NotConnected:
    member: Word


# Internal word codes.  Coding preserves order, so (len(s), s) sorts exactly
# as Word.key does (x10 before x2 included), and slicing, startswith, hashing
# and equality run in C.  Content-balanced rules preserve content, so every
# word of one closure shares the alphabet of its start word.


@lru_cache(maxsize=4096)
def _alphabet(letters: frozenset[Variable]) -> tuple[tuple[Variable, ...], dict[Variable, str]]:
    ordered = tuple(sorted(letters))
    return ordered, {v: chr(i) for i, v in enumerate(ordered)}


def _encode(w: Word) -> tuple[tuple[Variable, ...], str]:
    """The alphabet and code of w, cached on w."""
    if w._code is None:
        alphabet, codes = _alphabet(frozenset(w.letters))
        w._code = (alphabet, "".join([codes[v] for v in w.letters]))
    return w._code


def _word(alphabet: tuple[Variable, ...], s: str) -> Word:
    """The word a code spells; s may use only part of the alphabet."""
    return Word([alphabet[ord(c)] for c in s])


def _shortlex_sort(codes: list[str]) -> None:
    """Sort codes in place by (len(s), s), with both passes keyed in C."""
    codes.sort()
    codes.sort(key=len)


def _pattern(letters: tuple[Variable, ...]) -> tuple[tuple, tuple[Variable, ...]]:
    """A pattern as runs (slot, repeat, first, occurrences) and its variables
    by slot: slots number the variables in order of first occurrence, `first`
    marks the run where a variable first occurs, and `occurrences` counts all
    its letters in the pattern."""
    slots: dict[Variable, int] = {}
    counts = Counter(letters)
    runs = []
    for letter, group in groupby(letters):
        first = letter not in slots
        if first:
            slots[letter] = len(slots)
        runs.append((slots[letter], len(list(group)), first, counts[letter]))
    return tuple(runs), tuple(slots)


# Rule kernels.  A matcher is built from its side's runs, so rules that differ
# only in their variables' names or in their replacing sides share one.  Its
# source is built from integers and fixed identifiers only; no variable name
# or other user text ever enters it.  It holds one for loop per variable, in
# order of first occurrence, trying images of increasing length, and one
# startswith per later run of a bound variable, so matches come in
# depth-first order.  CPython allows 20 statically nested blocks, so the loops
# are cut into chained functions of _NEST variables each.  A repeated image is
# one string multiplication, never a + chain, whose compilation would recurse
# once per term.
_NEST = 18


def _drop(runs, slot: int) -> list[tuple[int, int]]:
    """The (slot, repeat) runs of a side with one slot's letters removed."""
    kept = [(j, r) for j, r in runs if j != slot]
    return [(j, sum(r for _, r in group)) for j, group in groupby(kept, key=itemgetter(0))]


def _times(name: str, repeat: int) -> str:
    return name if repeat == 1 else f"{name} * {repeat}"


def _replacing(runs: tuple, dst: tuple) -> tuple[tuple[int, ...], tuple[bool, ...], tuple[int, ...]]:
    """For the rewritten side's runs and the replacing side's (slot, repeat)
    runs dst, per slot: its growth (dst letters - src letters), whether its
    loop may stop at the first successor over the limit (every later slot
    grows too), and the least image length its loop tries: 1 when the slot's
    other letters read alike on both sides, since every such binding with the
    empty image rewrites s to itself, and the caller records s before any
    kernel runs."""
    src = [(slot, repeat) for slot, repeat, _, _ in runs]
    growth = [-count for _, _, first, count in runs if first]
    for j, r in dst:
        growth[j] += r
    breaks = tuple(g > 0 and min(growth[k:]) >= 0 for k, g in enumerate(growth))
    starts = tuple(int(_drop(src, k) == _drop(dst, k)) for k in range(len(growth)))
    return tuple(growth), breaks, starts


@lru_cache(maxsize=1024)
def _matcher(runs: tuple) -> Callable:
    """The compiled matcher k0(growth, breaks, starts, pick, repeats, s,
    limit, found) -> over of the pattern given as runs by _pattern.  It reads
    the replacing side from _replacing's tuples and the successor's parts
    from pick, an itemgetter over (s[:i], the images by slot, s[end:]), each
    part repeated by repeats unless that is None."""
    levels: list[tuple[int, list[tuple[int, int]]]] = []  # per slot: first repeat, later runs
    occurrences: list[int] = []
    for slot, repeat, first, count in runs:
        if first:
            levels.append((repeat, []))
            occurrences.append(count)
        else:
            levels[-1][1].append((slot, repeat))
    m = len(levels)
    # ahead[k][j]: letters of slot j in the runs from slot k's first run on
    ahead = [[0] * m for _ in range(m + 1)]
    for k in reversed(range(m)):
        ahead[k][:] = ahead[k + 1]
        repeat, later = levels[k]
        ahead[k][k] += repeat
        for j, r in later:
            ahead[k][j] += r
    data = "growth, breaks, starts, pick, repeats, "
    lines: list[str] = []

    def emit(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    def carried(k: int) -> str:  # what a chained function takes of the bound slots
        return "".join(f"v{j}, l{j}, " for j in range(k))

    g = "n"
    for c, low in enumerate(range(0, m, _NEST) if m else [0]):
        high = min(low + _NEST, m)
        if c == 0:
            emit(0, f"def k0({data}s, limit, found):")
            emit(1, "n = len(s)")
            emit(1, "over = False")
        else:
            emit(0, f"def k{c}({data}s, n, limit, found, i, h, over, g{low}, {carried(low)}a{low}):")
            g = f"g{low}"
        if high > low:
            for name, values in (("d", "growth"), ("b", "breaks"), ("e", "starts")):
                emit(1, f"{''.join(f'{name}{k}, ' for k in range(low, high))}= {values}[{low}:{high}]")
        depth = 1
        if c == 0:
            emit(1, "for i in range(n + 1):")
            emit(2, "h = s[:i]")
            emit(2, "a0 = i")
            depth = 2
        for k in range(low, high):
            repeat, later = levels[k]
            room = f"n - a{k}" + "".join(f" - {_times(f'l{j}', ahead[k][j])}" for j in range(k) if ahead[k][j])
            if occurrences[k] > 1:
                room = f"({room}) // {occurrences[k]}"
            emit(depth, f"for l{k} in range(e{k}, {room} + 1):")
            depth += 1
            emit(depth, f"g{k + 1} = {g} + d{k} * l{k}")
            g = f"g{k + 1}"
            # every later match at this position is longer still
            emit(depth, f"if b{k} and over and {g} > limit:")
            emit(depth + 1, "break")
            emit(depth, f"a{k + 1} = a{k} + l{k}")
            emit(depth, f"v{k} = s[a{k}:a{k + 1}]")
            for j, r in ([(k, repeat - 1)] if repeat > 1 else []) + later:
                emit(depth, f"if not s.startswith({_times(f'v{j}', r)}, a{k + 1}):")
                emit(depth + 1, "continue")
                emit(depth, f"a{k + 1} += {_times(f'l{j}', r)}")
        if high < m:
            emit(depth, f"over = k{c + 1}({data}s, n, limit, found, i, h, over, {g}, {carried(high)}a{high})")
        else:
            emit(depth, f"if {g} > limit:")
            emit(depth + 1, "over = True")
            emit(depth, "else:")
            emit(depth + 1, f"parts = (h, {''.join(f'v{j}, ' for j in range(m))}s[a{m}:])")
            emit(depth + 1, 'q = "".join(pick(parts) if repeats is None else map(mul, pick(parts), repeats))')
            emit(depth + 1, "if q not in found:")
            emit(depth + 2, f"found[q] = (i, {''.join(f'l{j}, ' for j in range(m))})")
        emit(1, "return over")
    namespace: dict = {"mul": mul}
    exec(compile("\n".join(lines) + "\n", "<monvar kernel>", "exec"), namespace)
    return namespace["k0"]


@lru_cache(maxsize=1024)
def _kernel(runs: tuple, dst: tuple) -> Callable:
    """The kernel of a pattern given as runs by _pattern, rewritten to dst,
    the (slot, repeat) runs of the replacing side; building it compiles
    nothing once the side's matcher exists."""
    growth, breaks, starts = _replacing(runs, dst)
    # (s[:i], v0 .. v(m-1), s[end:]) picked in dst's order, h and the tail
    # too, so that pick always returns a tuple
    pick = itemgetter(0, *(1 + j for j, _ in dst), len(growth) + 1)
    repeats = None if all(r == 1 for _, r in dst) else (1, *(r for _, r in dst), 1)
    return partial(_matcher(runs), growth, breaks, starts, pick, repeats)


class _Rule(NamedTuple):
    """One orientation of an identity, compiled for matching."""

    identity_index: int
    forward: bool
    variables: tuple[Variable, ...]  # by slot
    shape: tuple  # (runs of the rewritten side, slot runs of the replacing side)
    kernel: Callable  # _kernel(*shape)


def _compile(sigma: Presentation) -> tuple[_Rule, ...]:
    """Both orientations of every identity, in the order successors are
    searched.  Slots follow first occurrence, so the kernel's shape names a
    rule up to renaming its variables; a rule equal to an earlier one in that
    sense (xy = yx read backward, say) rewrites nothing new and is dropped."""
    rules = []
    seen = set()
    for index, ident in enumerate(sigma.identities):
        for forward in (True, False):
            src, dst = (ident.lhs, ident.rhs) if forward else (ident.rhs, ident.lhs)
            runs, variables = _pattern(src.letters)
            slot = {v: j for j, v in enumerate(variables)}
            shape = (runs, tuple((slot[v], len(list(group))) for v, group in groupby(dst.letters)))
            if shape not in seen:
                seen.add(shape)
                rules.append(_Rule(index, forward, variables, shape, _kernel(*shape)))
    return tuple(rules)


class _Entry(NamedTuple):
    """A memo entry: a rewriter's successor codes as a tuple, or a rule
    shape's as a dict to their links in the order its kernel found them, and
    the cap, None when the entry is complete.  A complete entry may hold
    successors longer than a request's cap."""

    successors: tuple[str, ...] | dict[str, tuple]
    cap: int | None


# The memo, its entry count and the hash-consing table.  A rewriter's owner is
# a str and a shape's a tuple, so the two never share a key; the oldest entry
# is the dict's first.
MAX_MEMO_ENTRIES = 1 << 20
_MEMO: dict[tuple, _Entry] = {}
_memo_entries = 0
_SHARED: dict = {}


def _shared() -> dict:
    """_SHARED, emptied first if it has reached MAX_MEMO_ENTRIES objects."""
    if len(_SHARED) >= MAX_MEMO_ENTRIES:
        _SHARED.clear()
    return _SHARED


def _memoise(key: tuple, entry: _Entry) -> None:
    """Store entry under key as the newest, in place of key's old entry, then
    evict the oldest entries until the count is within MAX_MEMO_ENTRIES."""
    global _memo_entries
    old = _MEMO.pop(key, None)
    if old is not None:
        _memo_entries -= 1 + len(old.successors)
    _MEMO[key] = entry
    _memo_entries += 1 + len(entry.successors)
    while _memo_entries > MAX_MEMO_ENTRIES:
        _memo_entries -= 1 + len(_MEMO.pop(next(iter(_MEMO))).successors)


def clear_successor_cache() -> None:
    """Empty the memo and the shared codes and links.  Every rewriter stays
    with its presentation, counters and all, and expands each word afresh."""
    global _memo_entries
    _MEMO.clear()
    _SHARED.clear()
    _memo_entries = 0


class Rewriter:
    """The rewriting engine of one presentation: its compiled rules and its
    memo counters.  Get it with Rewriter.of(sigma): each Presentation object
    builds its own once and keeps it, so its counters count that object's
    lookups.  Its memo entries serve an equal presentation's rewriter too, or
    that of a renaming that keeps each identity's orientation."""

    def __init__(self, sigma: Presentation):
        sigma.require_content_balanced()
        self._rules = _compile(sigma)
        self._owner = repr(tuple(rule.shape for rule in self._rules))
        self.calls = 0  # successor lookups
        self.misses = 0  # lookups that ran the rules
        self.kernel_runs = 0  # rule kernels run, past the shape entries the memo held

    @staticmethod
    def of(sigma: Presentation) -> "Rewriter":
        """The rewriter of sigma; raises ContentUnbalancedError for a system
        that is not content-balanced."""
        return sigma._rewriter

    @property
    def hits(self) -> int:
        """Lookups answered from the memo."""
        return self.calls - self.misses

    def _successors(self, s: str, cap: float = math.inf) -> _Entry:
        """The memo entry of the word code s for a request for its successors
        no longer than cap, which is at least len(s); the default asks for
        all of them.  An entry that left out successors the request wants is
        expanded again, which counts as a miss."""
        self.calls += 1
        key = (self._owner, s)
        entry = _MEMO.get(key)
        if entry is None or entry.cap is not None and cap > entry.cap:
            self.misses += 1
            entry = self._expand(s, cap)
            _memoise(key, entry)
        return entry

    def _expand(self, s: str, cap: float) -> _Entry:
        """The memo entry of s for cap, which is at least len(s)."""
        # the rules match c, s renamed by first occurrence, and their
        # successors are renamed back
        letters = "".join(dict.fromkeys(s))
        c = s.translate({ord(a): k for k, a in enumerate(letters)})
        found: set[str] = set()
        overflow = False
        for rule in self._rules:
            match = self._match(rule, c, cap)
            found.update(match.successors)
            overflow = overflow or match.cap is not None
        # a match built for a larger cap may hold longer successors
        order = [q.translate(letters) for q in found if len(q) <= cap]
        overflow = overflow or len(order) < len(found)
        _shortlex_sort(order)
        share = _shared().setdefault
        return _Entry(tuple([share(q, q) for q in order]), cap if overflow else None)

    def _match(self, rule: _Rule, s: str, cap: float) -> _Entry:
        """The entry of rule's shape for s within cap, s itself left out, from
        the memo; one that left out successors the request wants is rebuilt."""
        key = (rule.shape, s)
        match = _MEMO.get(key)
        if match is None or match.cap is not None and cap > match.cap:
            self.kernel_runs += 1
            found: dict[str, tuple] = {s: ()}  # so the kernel skips s
            over = rule.kernel(s, cap, found)
            del found[s]
            share = _shared().setdefault
            match = _Entry({share(q, q): share(link, link) for q, link in found.items()}, cap if over else None)
            _memoise(key, match)
        return match

    def _step(self, alphabet: tuple[Variable, ...], p: str, q: str) -> RewriteStep:
        """The RewriteStep by which the word code p over alphabet rewrites to
        its successor q: the first step found, that is the earliest rule
        (identities in order, forward before backward) whose shape entry for
        p's first-occurrence renaming holds q, at its kernel's first match,
        whatever cap built that entry."""
        renaming = {ord(a): k for k, a in enumerate(dict.fromkeys(p))}
        c, d = p.translate(renaming), q.translate(renaming)
        limit = max(len(p), len(q))
        for rule in self._rules:
            link = self._match(rule, c, limit).successors.get(d)
            if link is not None:
                break
        i, *lengths = link
        images, at = [], i
        for slot, repeat, first, _ in rule.shape[0]:  # the rewritten side's runs
            if first:
                images.append(_word(alphabet, p[at : at + lengths[slot]]))
            at += repeat * lengths[slot]
        subst = Substitution(dict(zip(rule.variables, images)))
        prefix, suffix = _word(alphabet, p[:i]), _word(alphabet, p[at:])
        return RewriteStep(prefix, suffix, rule.identity_index, rule.forward, subst)


def match_pattern(pattern: Word, target: Word) -> set[Substitution]:
    """All substitutions with domain content(pattern) mapping pattern to
    target, by depth-first search over the pattern's runs."""
    runs, variables = _pattern(pattern.letters)
    alphabet, s = _encode(target)
    n = len(s)
    matches = set()
    stack = [(0, 0, ())]  # (next run, where it starts in s, images by slot so far)
    while stack:
        k, i, images = stack.pop()
        for slot, repeat, first, occurrences in runs[k:]:
            if first:  # every image length that leaves room for its later letters
                for length in range((n - i) // occurrences + 1):
                    image = s[i : i + length]
                    if s.startswith(image * repeat, i):
                        stack.append((k + 1, i + repeat * length, (*images, image)))
                break
            if not s.startswith(images[slot] * repeat, i):
                break
            k, i = k + 1, i + repeat * len(images[slot])
        else:
            if i == n:
                matches.add(Substitution({v: _word(alphabet, image) for v, image in zip(variables, images)}))
    return matches


def one_step_successors(p: Word, sigma: Presentation) -> dict[Word, RewriteStep]:
    """The complete finite set of one-step rewrites of p, as a map from each
    distinct successor word to one replayable step producing it.

    When sigma has an identity, p is among them too, by the first rule with
    every image empty (prefix 1, suffix p): such trivial steps never matter
    for closure or reachability, since p is reachable from itself in zero
    steps.
    """
    rewriter = Rewriter.of(sigma)
    alphabet, s = _encode(p)
    steps = {_word(alphabet, q): rewriter._step(alphabet, s, q) for q in rewriter._successors(s).successors}
    if rewriter._rules:
        first = rewriter._rules[0]
        subst = Substitution(dict.fromkeys(first.variables, EMPTY))
        steps[p] = RewriteStep(EMPTY, p, first.identity_index, first.forward, subst)
    return steps


@dataclass
class Exploration:
    """The breadth-first closure of a start word under one-step rewriting,
    with parent links for certificate extraction.

    ``saturated`` is True only when the closure stabilised with no successor
    pruned and no cap reached, in which case ``words`` is exactly the class
    of the start word under the fully invariant congruence of the presented
    variety.  ``parents`` maps the engine's internal code of each visited
    word over ``alphabet`` to its parent's code (None for the start), and
    ``rewriter`` reads the step between them; ``w in`` an Exploration tells
    whether the search reached w, and ``words`` and ``certificate_to`` give
    Words and steps.  Each step is built once, the first time a certificate
    passes through it, and kept in a table keyed by the child's code, so
    certificates that share a path share its RewriteStep objects.
    """

    start: Word
    bounds: SearchBounds
    parents: dict[str, str | None]
    saturated: bool
    alphabet: tuple[Variable, ...]
    rewriter: Rewriter = field(compare=False)
    _steps: dict[str, RewriteStep] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def words(self) -> frozenset[Word]:
        return frozenset(_word(self.alphabet, s) for s in self.parents)

    def __contains__(self, w: Word) -> bool:
        """Whether the search reached w."""
        alphabet, s = _encode(w)
        return alphabet == self.alphabet and s in self.parents

    def certificate_to(self, target: Word) -> DerivationCertificate | None:
        if target not in self:
            return None
        _, cursor = _encode(target)
        steps: list[RewriteStep] = []
        parent = self.parents[cursor]
        while parent is not None:
            step = self._steps.get(cursor)
            if step is None:
                step = self._steps[cursor] = self.rewriter._step(self.alphabet, parent, cursor)
            steps.append(step)
            cursor, parent = parent, self.parents[parent]
        steps.reverse()
        return DerivationCertificate(self.start, tuple(steps))


def explore(
    sigma: Presentation,
    start: Word,
    bounds: SearchBounds | None = None,
    stop_at: Word | None = None,
    *,
    complete_only: bool = False,
) -> Exploration:
    """Breadth-first search over one-step successors from start.

    Words are visited in shortlex order within each level, and the search
    stops early when stop_at is discovered.  It ends at once, with no
    successor lookup, when stop_at is start, which it has then reached, or
    has other content, which it never reaches: content-balanced rules keep
    content.  A search that ends early is never saturated.  Successors
    longer than the length cap are never visited.  A word expanded for this
    search keeps only its successors within max(cap, len(start)), and its
    memo entry notes that a longer one exists, which keeps the closure from
    counting as saturated; an entry built earlier for a larger cap may hold
    longer ones, and those are pruned by their length.  An unset length cap
    is default_bounds(sigma, start, stop_at)'s, and the Exploration records
    the caps used.

    With complete_only, the search gives up the first time it prunes: at a
    word whose memo entry has a cap, before taking any of its successors, or
    at a new successor longer than the length cap or past the state cap.  It
    then returns the words visited so far, unsaturated, which are a prefix of
    the full search's.  A closure that saturates never prunes, so it comes
    back whole.
    """
    rewriter = Rewriter.of(sigma)
    bounds = bounds or SearchBounds()
    if bounds.max_word_length is None:
        extra = (stop_at,) if stop_at is not None else ()
        bounds = replace(bounds, max_word_length=default_bounds(sigma, start, *extra).max_word_length)
    alphabet, origin = _encode(start)
    parents: dict[str, str | None] = {origin: None}
    stopped = partial(Exploration, start, bounds, parents, False, alphabet, rewriter)
    target = None
    if stop_at is not None:
        stop_alphabet, target = _encode(stop_at)
        # the start is reached at once; rewriting keeps content, so a word of
        # other content never is
        if stop_alphabet != alphabet or target == origin:
            return stopped()
    max_length, max_states = bounds.max_word_length, bounds.max_states
    # Every visited word is at most limit long, so a successor longer than
    # limit, which the memo leaves out, is never a visited one: its existence
    # (the entry's cap) prunes exactly as its length would.
    limit = max(max_length, len(origin))
    frontier = [origin]
    pruned = False
    depth = 0
    while frontier and depth < bounds.max_depth:
        next_frontier: list[str] = []
        for p in frontier:
            successors, overflow_cap = rewriter._successors(p, limit)
            if overflow_cap is not None:
                pruned = True
                if complete_only:
                    return stopped()
            for q in successors:
                if q in parents:
                    continue
                if len(q) > max_length or len(parents) >= max_states:
                    pruned = True
                    if complete_only:
                        return stopped()
                    continue
                parents[q] = p
                next_frontier.append(q)
                if q == target:
                    return stopped()
        _shortlex_sort(next_frontier)
        frontier = next_frontier
        depth += 1
    saturated = not frontier and not pruned
    return Exploration(start, bounds, parents, saturated, alphabet, rewriter)


def derive(
    sigma: Presentation,
    u: Word,
    v: Word,
    bounds: SearchBounds | None = None,
) -> DerivationCertificate | None:
    """Search for a derivation of u = v from sigma within bounds; an unset
    length cap is default_bounds(sigma, u, v)'s.

    Returns a certificate whose replay starts at u and ends at v, or None
    when the bounded search exhausts.  None is never a refutation; exact
    non-derivability only ever comes from a saturated class enumeration.
    Two equal words, and two words of different content, are answered with
    no search, by explore's early ends: the empty certificate, and None.
    """
    return explore(sigma, u, bounds, stop_at=v).certificate_to(v)


def verify_certificate(
    sigma: Presentation,
    cert: DerivationCertificate,
    expect_start: Word | None = None,
    expect_end: Word | None = None,
) -> CertificateCheck:
    """Replay a certificate against sigma.

    Accepts only if every step rewrites the running word correctly and the
    visited words are pairwise distinct; optional expected endpoints let the
    caller pin the claimed identity.
    """
    if expect_start is not None and cert.start != expect_start:
        return CertificateCheck(False, None, f"certificate starts at {cert.start}, expected {expect_start}")
    current = cert.start
    seen = {current.letters}
    for index, step in enumerate(cert.steps):
        if not 0 <= step.identity_index < len(sigma.identities):
            return CertificateCheck(False, index, f"identity index {step.identity_index} out of range")
        src, dst = step.sides(sigma)
        prefix, suffix = step.prefix.letters, step.suffix.letters
        if prefix + step.subst.apply(src).letters + suffix != current.letters:
            return CertificateCheck(False, index, f"step does not replay from {current}")
        current = Word(prefix + step.subst.apply(dst).letters + suffix)
        if current.letters in seen:
            return CertificateCheck(False, index, f"repeated word {current} in the chain")
        seen.add(current.letters)
    if expect_end is not None and current != expect_end:
        return CertificateCheck(False, None, f"certificate ends at {current}, expected {expect_end}")
    return CertificateCheck(True)


def class_closure_verify(candidate: set[Word] | frozenset[Word], w: Word, sigma: Presentation):
    """Check that candidate is exactly the congruence class of w.

    ExactClass(candidate) certifies both closure (no one-step successor of a
    member escapes) and connectivity (every member is reachable from w inside
    the candidate); otherwise a NotClosed or NotConnected witness is returned.
    """
    members = frozenset(candidate)
    if w not in members:
        raise ValueError(f"base word {w} is not in the candidate set")
    rewriter = Rewriter.of(sigma)
    ordered = sorted(members, key=attrgetter("key"))
    # Successors keep content, so a successor is a member exactly when its
    # (alphabet, code) pair is a member's.
    codes = {_encode(member) for member in ordered}
    for member in ordered:
        alphabet, s = _encode(member)
        for q in rewriter._successors(s).successors:
            if (alphabet, q) not in codes:
                return NotClosed(member, _word(alphabet, q))
    # The candidate is closed, so everything reachable from w is a member and
    # these caps prune nothing: the search reaches exactly w's class.
    n = len(members)
    reached = explore(sigma, w, SearchBounds(max(1, *map(len, members)), n, n))
    for member in ordered:
        if member not in reached:
            return NotConnected(member)
    return ExactClass(members)


def isoterm_exact(w: Word, sigma: Presentation) -> bool:
    """Whether the congruence class of w for the presented variety is {w}:
    exactly when w has no one-step successor other than itself, which one
    memo entry tells, capped at len(w) (a cap means a longer one exists)."""
    _, s = _encode(w)
    successors, cap = Rewriter.of(sigma)._successors(s, max(1, len(s)))
    return not successors and cap is None


# Certificate serialization: a structured text document listing the start
# word and, per step, prefix, identity index, direction, substitution
# bindings, and suffix.  Enough for independent replay given the system.

_STEP_RE = re.compile(
    r"step:\s*prefix=(?P<prefix>\S+)\s+identity=(?P<identity>[0-9]+)"
    r"\s+direction=(?P<direction>forward|backward)\s+subst=(?P<subst>\S*)\s+suffix=(?P<suffix>\S+)\s*$"
)


def _format_subst(subst: Substitution) -> str:
    return ",".join(f"{v}={format_word(img)}" for v, img in subst.items())


def _parse_subst(text: str) -> Substitution:
    if not text:
        return Substitution()
    mapping: dict[Variable, Word] = {}
    for chunk in text.split(","):
        name, _, image = chunk.partition("=")
        if not _:
            raise ValueError(f"bad substitution binding {chunk!r}")
        variable = Variable(name)
        if variable in mapping:
            raise ValueError(f"repeated substitution binding of {name}")
        mapping[variable] = parse_word(image)
    return Substitution(mapping)


def format_certificate(cert: DerivationCertificate) -> str:
    lines = [f"start: {format_word(cert.start)}"]
    for step in cert.steps:
        direction = "forward" if step.forward else "backward"
        lines.append(
            "step: "
            f"prefix={format_word(step.prefix)} "
            f"identity={step.identity_index} "
            f"direction={direction} "
            f"subst={_format_subst(step.subst)} "
            f"suffix={format_word(step.suffix)}"
        )
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> DerivationCertificate:
    start: Word | None = None
    steps: list[RewriteStep] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("start:"):
            if start is not None:
                raise ValueError("duplicate start line in certificate")
            start = parse_word(line.split(":", 1)[1])
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise ValueError(f"bad certificate line {line!r}")
        if start is None:
            raise ValueError("certificate step before start line")
        steps.append(
            RewriteStep(
                prefix=parse_word(m.group("prefix")),
                suffix=parse_word(m.group("suffix")),
                identity_index=int(m.group("identity")),
                forward=m.group("direction") == "forward",
                subst=_parse_subst(m.group("subst")),
            )
        )
    if start is None:
        raise ValueError("certificate has no start line")
    return DerivationCertificate(start, tuple(steps))
