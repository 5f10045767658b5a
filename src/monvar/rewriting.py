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

All searches go through one Rewriter per presentation, shared by equal
presentations through a bounded registry.  It holds the compiled rules (both
orientations, as variable-slot patterns), a memo of successor sets and the
memo's counters.  A memo entry holds a word's successors within the length
cap it was built under, and keeps that cap only when a longer successor
was left out.  An entry that left out nothing is complete and serves every
cap, and a request for a larger cap, or for no cap, expands the word again,
which counts as a miss.  Internally a word is a str with one character per
letter, coded in the name order of its content, so shortlex order is string
order; Word stays the public type, and a RewriteStep is built only for a
certificate or for one_step_successors.

Every exact operation wraps one search, explore: derive stops it at its
target, enumerate_class reads its closure, and class_closure_verify (with
isoterm_exact on top) reads successor sets for closure and runs explore for
connectivity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .words import (
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
    "ClassEnumeration",
    "Exploration",
    "match_pattern",
    "one_step_successors",
    "explore",
    "derive",
    "default_bounds",
    "verify_certificate",
    "class_closure_verify",
    "isoterm_exact",
    "enumerate_class",
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
        deduped: list[Identity] = []
        seen: set[Identity] = set()
        for ident in self.identities:
            if ident not in seen:
                seen.add(ident)
                deduped.append(ident)
        object.__setattr__(self, "identities", tuple(deduped))

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

    def format(self) -> str:
        return "".join(f"{ident}\n" for ident in self.identities)

    def require_content_balanced(self) -> None:
        for ident in self.identities:
            if not ident.content_balanced:
                raise ContentUnbalancedError(ident)

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


@dataclass(frozen=True)
class ClassEnumeration:
    words: frozenset[Word]
    complete: bool


# Internal word codes.  Inside the engine a word is a str with one character
# per letter: the i-th variable of the word's content, in name order, is
# chr(i).  The map preserves order, so (len(s), s) sorts exactly as Word.key
# does (x10 before x2 included), and slicing, startswith, hashing and equality
# run in C.  Content-balanced rules preserve content, so every word of one
# closure shares the alphabet of its start word.  Rewriting commutes with
# renaming letters, so one code's successors serve every word it encodes.


@lru_cache(maxsize=4096)
def _alphabet(letters: frozenset[Variable]) -> tuple[tuple[Variable, ...], dict[Variable, str]]:
    ordered = tuple(sorted(letters, key=attrgetter("name")))
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
    runs = []
    for letter, group in groupby(letters):
        first = letter not in slots
        if first:
            slots[letter] = len(slots)
        runs.append((slots[letter], len(list(group)), first, letters.count(letter)))
    return tuple(runs), tuple(slots)


def _matches(runs: tuple, slots: int, s: str, start: int) -> list[tuple[int, tuple[str, ...]]]:
    """Every (end, images) with the pattern matching s[start:end] under the
    binding slot j -> images[j], in depth-first order: each variable's first
    run tries images of increasing length, and later runs must repeat the
    chosen image.  The search keeps an explicit stack with one frame per
    variable, so its depth does not grow with the pattern's length."""
    n = len(s)
    last = len(runs) - 1
    images = [""] * slots
    found = []
    frames: list[tuple[int, int, int]] = []  # (run index, position, image length)
    k, pos = 0, start
    while True:
        while k <= last:
            slot, repeat, first, _ = runs[k]
            if first and k == last:
                # The final run holds the last slot's only occurrences: every
                # image that fits ends a match, so they are listed without frames.
                bound = tuple(images[:-1])
                if repeat == 1:
                    found += [(end, (*bound, s[pos:end])) for end in range(pos, n + 1)]
                else:
                    for length in range((n - pos) // repeat + 1):
                        image = s[pos : pos + length]
                        if s.startswith(image * repeat, pos):
                            found.append((pos + repeat * length, (*bound, image)))
                break
            if first:
                frames.append((k, pos, 0))
                images[slot] = ""
            else:
                image = images[slot] * repeat
                if not s.startswith(image, pos):
                    break
                pos += len(image)
            k += 1
        else:
            found.append((pos, tuple(images)))
        # Backtrack to the latest first run that can take a longer image; its
        # image fits only if every occurrence of the variable still fits.
        while frames:
            k, pos, length = frames.pop()
            slot, repeat, _, occurrences = runs[k]
            for length in range(length + 1, (n - pos) // occurrences + 1):
                image = s[pos : pos + length]
                if repeat == 1 or s.startswith(image * (repeat - 1), pos + length):
                    break
            else:
                continue
            frames.append((k, pos, length))
            images[slot] = image
            pos += repeat * length
            k += 1
            break
        else:
            return found


class _Rule(NamedTuple):
    """One orientation of an identity, compiled for matching."""

    identity_index: int
    forward: bool
    src: tuple  # runs of the rewritten side, as made by _pattern
    image: str  # format template of the replacing side, fields by slot
    variables: tuple[Variable, ...]  # by slot


def _compile(sigma: Presentation) -> tuple[_Rule, ...]:
    """Both orientations of every identity, in the order successors are
    searched.  Slots follow first occurrence, so (src, image) names a rule up
    to renaming its variables; a rule equal to an earlier one in that sense
    (xy = yx read backward, say) rewrites nothing new and is dropped."""
    rules = []
    seen = set()
    for index, ident in enumerate(sigma.identities):
        for forward in (True, False):
            src, dst = (ident.lhs, ident.rhs) if forward else (ident.rhs, ident.lhs)
            runs, variables = _pattern(src.letters)
            slot = {v: j for j, v in enumerate(variables)}
            image = "".join(f"{{{slot[v]}}}" for v in dst.letters)
            if (runs, image) not in seen:
                seen.add((runs, image))
                rules.append(_Rule(index, forward, runs, image, variables))
    return tuple(rules)


class _Entry(NamedTuple):
    """A memo entry: a word's successor codes, each with its link, in
    shortlex order.  cap is None when they are all there, and an entry
    serves every cap; otherwise the word has a successor longer than cap,
    and only those no longer than cap are held."""

    successors: tuple[tuple[str, tuple], ...]
    cap: int | None


def _step(alphabet: tuple[Variable, ...], source: str, link: tuple) -> RewriteStep:
    """The RewriteStep behind a memoised successor link of the code source."""
    i, end, rule, images = link
    subst = Substitution({v: _word(alphabet, image) for v, image in zip(rule.variables, images)})
    prefix, suffix = _word(alphabet, source[:i]), _word(alphabet, source[end:])
    return RewriteStep(prefix, suffix, rule.identity_index, rule.forward, subst)


class Rewriter:
    """The rewriting engine of one presentation: its compiled rules, its
    successor memo and the memo's counters.

    Get it with Rewriter.of(sigma), which returns one shared instance for
    all equal presentations; a Rewriter(sigma) built directly is not shared
    and memoises nothing.  The memo maps a word code to an _Entry: its
    successor codes within the length cap it was built under, in shortlex
    order, each with a link (prefix end, suffix start, rule, images) from
    which the RewriteStep is built on demand, and that cap if a longer
    successor was left out, else None.
    """

    def __init__(self, sigma: Presentation):
        sigma.require_content_balanced()
        self.presentation = sigma
        self._rules = _compile(sigma)
        self._memo: dict[str, _Entry] = {}
        self._calls = 0
        self._misses = 0

    @classmethod
    def of(cls, sigma: Presentation) -> "Rewriter":
        """The shared rewriter of sigma; raises ContentUnbalancedError for a
        system that is not content-balanced."""
        rewriter = _REGISTRY.get(sigma)
        if rewriter is None:
            rewriter = cls(sigma)
            _register(rewriter)
        return rewriter

    @property
    def calls(self) -> int:
        """Successor lookups made."""
        return self._calls

    @property
    def hits(self) -> int:
        """Lookups answered from the memo."""
        return self._calls - self._misses

    @property
    def misses(self) -> int:
        """Lookups that computed successors."""
        return self._misses

    @property
    def memoised(self) -> int:
        """Words whose successors the memo holds now."""
        return len(self._memo)

    def _successors(self, s: str, cap: int | None = None) -> _Entry:
        """The memo entry of the word code s for a request for its successors
        no longer than cap, which is at least len(s), or for all of them when
        cap is None.  An entry that left out successors the request wants is
        expanded again, which counts as a miss."""
        self._calls += 1
        entry = self._memo.get(s)
        if entry is None or entry.cap is not None and (cap is None or cap > entry.cap):
            self._misses += 1
            if entry is not None:
                _release(self, s)
            entry = self._expand(s, cap)
            if _admit(self, 1 + len(entry.successors)):
                self._memo[s] = entry
        return entry

    def _expand(self, s: str, cap: int | None) -> _Entry:
        # The first step found for a successor is kept: identities in order,
        # forward before backward, prefixes by length, bindings depth-first.
        # A successor longer than cap is built, then left out: measuring it
        # costs less than summing a match's growth first.
        limit = math.inf if cap is None else cap
        found: dict[str, tuple] = {}
        overflow = False
        for rule in self._rules:
            runs, slots, image = rule.src, len(rule.variables), rule.image.format
            for i in range(len(s) + 1):
                head = s[:i]
                for end, images in _matches(runs, slots, s, i):
                    q = head + image(*images) + s[end:]
                    if len(q) > limit:
                        overflow = True
                    elif q not in found:
                        found[q] = (i, end, rule, images)
        order = list(found)
        _shortlex_sort(order)
        return _Entry(tuple([(q, found[q]) for q in order]), cap if overflow else None)


# The registry shares one Rewriter between equal presentations.  It holds at
# most _MAX_REWRITERS of them, dropping the oldest first, and all their memos
# together hold at most MAX_MEMO_ENTRIES entries, one per memoised word and
# one per successor it holds.  An entry holds only the successors within the
# cap it was built under, and keeps that cap when it left a longer one out;
# an entry that left out nothing serves every cap, and one re-expanded for a
# larger cap replaces the old entry in the count.  When the budget is spent
# every memo is emptied.  A rewriter that has left the registry memoises
# nothing.
MAX_MEMO_ENTRIES = 1 << 20
_MAX_REWRITERS = 256
_REGISTRY: dict[Presentation, Rewriter] = {}
_memo_entries = 0


def _register(rewriter: Rewriter) -> None:
    global _memo_entries
    if len(_REGISTRY) >= _MAX_REWRITERS:
        oldest = _REGISTRY.pop(next(iter(_REGISTRY)))
        _memo_entries -= sum(1 + len(entry.successors) for entry in oldest._memo.values())
        oldest._memo.clear()
    _REGISTRY[rewriter.presentation] = rewriter


def _admit(rewriter: Rewriter, entries: int) -> bool:
    """Whether rewriter may memoise a word holding entries - 1 successors,
    whose entries are then counted."""
    global _memo_entries
    if _REGISTRY.get(rewriter.presentation) is not rewriter or entries > MAX_MEMO_ENTRIES:
        return False
    if _memo_entries + entries > MAX_MEMO_ENTRIES:
        for registered in _REGISTRY.values():
            registered._memo.clear()
        _memo_entries = 0
    _memo_entries += entries
    return True


def _release(rewriter: Rewriter, s: str) -> None:
    """Take the memo entry of s out of rewriter's memo and off the count."""
    global _memo_entries
    _memo_entries -= 1 + len(rewriter._memo.pop(s).successors)


def clear_successor_cache() -> None:
    """Empty the registry, and with it every successor memo."""
    global _memo_entries
    for rewriter in _REGISTRY.values():
        rewriter._memo.clear()
    _REGISTRY.clear()
    _memo_entries = 0


def match_pattern(pattern: Word, target: Word) -> set[Substitution]:
    """All substitutions with domain content(pattern) mapping pattern to target."""
    runs, variables = _pattern(pattern.letters)
    alphabet, s = _encode(target)
    return {
        Substitution({v: _word(alphabet, image) for v, image in zip(variables, images)})
        for end, images in _matches(runs, len(variables), s, 0)
        if end == len(s)
    }


def one_step_successors(p: Word, sigma: Presentation) -> dict[Word, RewriteStep]:
    """The complete finite set of one-step rewrites of p, as a map from each
    distinct successor word to one replayable step producing it.

    Trivial entries with successor equal to p appear whenever some instance
    yields them (they never matter for closure or reachability, since p is
    reachable from itself in zero steps).
    """
    rewriter = Rewriter.of(sigma)
    alphabet, s = _encode(p)
    return {_word(alphabet, q): _step(alphabet, s, link) for q, link in rewriter._successors(s).successors}


@dataclass
class Exploration:
    """The breadth-first closure of a start word under one-step rewriting,
    with parent links for certificate extraction.

    ``saturated`` is True only when the closure stabilised with no successor
    pruned and no cap reached, in which case ``words`` is exactly the class
    of the start word under the fully invariant congruence of the presented
    variety.  ``parents`` is keyed on the engine's internal word codes over
    ``alphabet`` (one entry per visited word); use ``words`` and
    ``certificate_to`` for Words and steps.
    """

    start: Word
    presentation: Presentation
    bounds: SearchBounds
    parents: dict[str, tuple[str, tuple] | None]
    saturated: bool
    alphabet: tuple[Variable, ...]

    @property
    def words(self) -> frozenset[Word]:
        return frozenset(_word(self.alphabet, s) for s in self.parents)

    def certificate_to(self, target: Word) -> DerivationCertificate | None:
        alphabet, cursor = _encode(target)
        if alphabet != self.alphabet or cursor not in self.parents:
            return None
        steps: list[RewriteStep] = []
        while True:
            link = self.parents[cursor]
            if link is None:
                break
            parent, step = link
            steps.append(_step(alphabet, parent, step))
            cursor = parent
        steps.reverse()
        return DerivationCertificate(self.start, tuple(steps))


def explore(
    sigma: Presentation,
    start: Word,
    bounds: SearchBounds | None = None,
    stop_at: Word | None = None,
) -> Exploration:
    """Breadth-first search over one-step successors from start.

    Words are visited in shortlex order within each level, and the search
    stops early when stop_at is discovered.  Successors longer than the
    length cap are never visited.  A word expanded for this search keeps
    only its successors within max(cap, len(start)), and its memo entry
    notes that a longer one exists, which keeps the closure from counting
    as saturated; an entry built earlier for a larger cap may hold longer
    ones, and those are pruned by their length.  An unset length cap is
    default_bounds(sigma, start, stop_at)'s, and the Exploration records the
    caps used.  Every exact operation of this module wraps this search.
    """
    rewriter = Rewriter.of(sigma)
    bounds = bounds or SearchBounds()
    if bounds.max_word_length is None:
        extra = (stop_at,) if stop_at is not None else ()
        bounds = replace(bounds, max_word_length=default_bounds(sigma, start, *extra).max_word_length)
    alphabet, origin = _encode(start)
    target = None
    if stop_at is not None:
        stop_alphabet, stop_code = _encode(stop_at)
        if stop_alphabet == alphabet:  # rewriting preserves content
            target = stop_code
    max_length, max_states = bounds.max_word_length, bounds.max_states
    # Every visited word is at most limit long, so a successor longer than
    # limit, which the memo leaves out, is never a visited one: its existence
    # (the entry's cap) prunes exactly as its length would.
    limit = max(max_length, len(origin))
    parents: dict[str, tuple[str, tuple] | None] = {origin: None}
    frontier = [origin]
    pruned = False
    depth = 0
    while frontier and depth < bounds.max_depth:
        next_frontier: list[str] = []
        for p in frontier:
            successors, overflow_cap = rewriter._successors(p, limit)
            if overflow_cap is not None:
                pruned = True
            for q, link in successors:
                if q in parents:  # p itself included
                    continue
                if len(q) > max_length:
                    pruned = True
                    continue
                if len(parents) >= max_states:
                    pruned = True
                    continue
                parents[q] = (p, link)
                next_frontier.append(q)
                if q == target:
                    return Exploration(start, sigma, bounds, parents, False, alphabet)
        _shortlex_sort(next_frontier)
        frontier = next_frontier
        depth += 1
    saturated = not frontier and not pruned
    return Exploration(start, sigma, bounds, parents, saturated, alphabet)


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
    """
    if u == v:
        Rewriter.of(sigma)  # rejects a system that is not content-balanced
        return DerivationCertificate(u)
    result = explore(sigma, u, bounds, stop_at=v)
    return result.certificate_to(v)



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
    seen = {current}
    for index, step in enumerate(cert.steps):
        if not 0 <= step.identity_index < len(sigma.identities):
            return CertificateCheck(False, index, f"identity index {step.identity_index} out of range")
        if step.source(sigma) != current:
            return CertificateCheck(False, index, f"step does not replay from {current}")
        current = step.target(sigma)
        if current in seen:
            return CertificateCheck(False, index, f"repeated word {current} in the chain")
        seen.add(current)
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
    longest = max(1, *map(len, members))
    for member in ordered:
        alphabet, s = _encode(member)
        # An entry within a cap holds a shortlex prefix of the successors, and
        # those it leaves out are longer than every member: the first of them
        # is the witness only when every successor held is a member.
        successors, overflow_cap = rewriter._successors(s, longest)
        for q, _link in successors:
            if (alphabet, q) not in codes:
                return NotClosed(member, _word(alphabet, q))
        if overflow_cap is not None:
            # This uncapped request replaces the capped entry (a miss), so later
            # requests for s at any cap are served from the full list.
            q, _link = rewriter._successors(s).successors[len(successors)]
            return NotClosed(member, _word(alphabet, q))
    # The candidate is closed, so everything reachable from w is a member and
    # these caps prune nothing: the search reaches exactly w's class.
    n = len(members)
    reached = explore(sigma, w, SearchBounds(longest, n, n)).words
    for member in ordered:
        if member not in reached:
            return NotConnected(member)
    return ExactClass(members)


def isoterm_exact(w: Word, sigma: Presentation) -> bool:
    """Whether the congruence class of w for the presented variety is {w}."""
    return isinstance(class_closure_verify(frozenset([w]), w, sigma), ExactClass)


def enumerate_class(w: Word, sigma: Presentation, bounds: SearchBounds | None = None) -> ClassEnumeration:
    """Enumerate the congruence class of w by breadth-first closure.

    The result is complete only when the closure saturated without touching
    any bound; only then is the word set exactly the class of w.
    """
    result = explore(sigma, w, bounds)
    return ClassEnumeration(result.words, result.saturated)


# Certificate serialization: a structured text document listing the start
# word and, per step, prefix, identity index, direction, substitution
# bindings, and suffix.  Enough for independent replay given the system.

_STEP_RE = re.compile(
    r"step:\s*prefix=(?P<prefix>\S+)\s+identity=(?P<identity>[0-9]+)"
    r"\s+direction=(?P<direction>forward|backward)\s+subst=(?P<subst>\S*)\s+suffix=(?P<suffix>\S+)\s*$"
)


def _format_subst(subst: Substitution) -> str:
    return ",".join(f"{v.name}={format_word(img)}" for v, img in subst.items())


def _parse_subst(text: str) -> Substitution:
    if not text:
        return Substitution()
    mapping: dict[Variable, Word] = {}
    for chunk in text.split(","):
        name, _, image = chunk.partition("=")
        if not _:
            raise ValueError(f"bad substitution binding {chunk!r}")
        mapping[Variable(name)] = parse_word(image)
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
