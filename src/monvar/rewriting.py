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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache

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
    def trivial(self) -> bool:
        return self.lhs == self.rhs

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
    itself is unbounded, so exhausting these bounds never refutes anything."""

    max_word_length: int
    max_depth: int = 10
    max_states: int = 1_000_000

    def __post_init__(self):
        if self.max_word_length <= 0 or self.max_depth <= 0 or self.max_states <= 0:
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


def _match_prefix(pattern: tuple[Variable, ...], target: tuple[Variable, ...], start: int):
    """Yield (binding, end) for every way pattern matches target[start:end].

    Bindings map variables to letter tuples and are yielded as a shared
    mutable dict; callers must copy whatever they keep.  The first occurrence
    of each variable tries every remaining segment (including the empty one)
    as its image, and later occurrences must reproduce the chosen image.
    """
    total = len(target)
    size = len(pattern)
    binding: dict[Variable, tuple[Variable, ...]] = {}

    def extend(i: int, pos: int):
        if i == size:
            yield pos
            return
        v = pattern[i]
        bound = binding.get(v)
        if bound is not None:
            step = len(bound)
            if pos + step <= total and target[pos : pos + step] == bound:
                yield from extend(i + 1, pos + step)
            return
        for step in range(total - pos + 1):
            binding[v] = target[pos : pos + step]
            yield from extend(i + 1, pos + step)
        del binding[v]

    for end in extend(0, start):
        yield binding, end


def match_pattern(pattern: Word, target: Word) -> set[Substitution]:
    """All substitutions with domain content(pattern) mapping pattern to target."""
    total = len(target.letters)
    results: set[Substitution] = set()
    for binding, end in _match_prefix(pattern.letters, target.letters, 0):
        if end == total:
            results.add(Substitution({v: Word(img) for v, img in binding.items()}))
    return results


@lru_cache(maxsize=65536)
def _successor_items(sigma: Presentation, word: Word) -> tuple[tuple[Word, RewriteStep], ...]:
    letters = word.letters
    n = len(letters)
    found: dict[tuple, tuple] = {}
    for index, ident in enumerate(sigma.identities):
        for forward in (True, False):
            src, dst = (ident.lhs, ident.rhs) if forward else (ident.rhs, ident.lhs)
            if not forward and src == dst:
                continue
            src_letters, dst_letters = src.letters, dst.letters
            for i in range(n + 1):
                head = letters[:i]
                for binding, end in _match_prefix(src_letters, letters, i):
                    image: list[Variable] = []
                    for letter in dst_letters:
                        bound = binding.get(letter)
                        if bound is None:
                            image.append(letter)
                        else:
                            image.extend(bound)
                    q_letters = head + tuple(image) + letters[end:]
                    if q_letters not in found:
                        found[q_letters] = (i, end, index, forward, dict(binding))
    items = []
    for q_letters, (i, end, index, forward, binding) in found.items():
        subst = Substitution({v: Word(img) for v, img in binding.items()})
        step = RewriteStep(Word(letters[:i]), Word(letters[end:]), index, forward, subst)
        items.append((Word(q_letters), step))
    items.sort(key=lambda item: item[0].key)
    return tuple(items)


def clear_successor_cache() -> None:
    _successor_items.cache_clear()


def one_step_successors(p: Word, sigma: Presentation) -> dict[Word, RewriteStep]:
    """The complete finite set of one-step rewrites of p, as a map from each
    distinct successor word to one replayable step producing it.

    Trivial entries with successor equal to p appear whenever some instance
    yields them (they never matter for closure or reachability, since p is
    reachable from itself in zero steps).
    """
    sigma.require_content_balanced()
    return dict(_successor_items(sigma, p))


@dataclass
class Exploration:
    """The breadth-first closure of a start word under one-step rewriting,
    with parent links for certificate extraction.

    ``saturated`` is True only when the closure stabilised with no successor
    pruned and no cap reached, in which case ``words`` is exactly the class
    of the start word under the fully invariant congruence of the presented
    variety.
    """

    start: Word
    presentation: Presentation
    bounds: SearchBounds
    parents: dict[Word, tuple[Word, RewriteStep] | None]
    saturated: bool

    @property
    def words(self) -> frozenset[Word]:
        return frozenset(self.parents)

    def certificate_to(self, target: Word) -> DerivationCertificate | None:
        if target not in self.parents:
            return None
        steps: list[RewriteStep] = []
        cursor = target
        while True:
            link = self.parents[cursor]
            if link is None:
                break
            parent, step = link
            steps.append(step)
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

    Words are visited in shortlex order within each level, successors longer
    than the length cap are pruned, and the search stops early when stop_at
    is discovered.  All other operations of this module are wrappers over
    this search.
    """
    sigma.require_content_balanced()
    if bounds is None:
        extra = (stop_at,) if stop_at is not None else ()
        bounds = default_bounds(sigma, start, *extra)
    parents: dict[Word, tuple[Word, RewriteStep] | None] = {start: None}
    frontier = [start]
    pruned = False
    depth = 0
    while frontier and depth < bounds.max_depth:
        next_frontier: list[Word] = []
        for p in frontier:
            for q, step in _successor_items(sigma, p):
                if q == p or q in parents:
                    continue
                if len(q) > bounds.max_word_length:
                    pruned = True
                    continue
                if len(parents) >= bounds.max_states:
                    pruned = True
                    continue
                parents[q] = (p, step)
                next_frontier.append(q)
                if q == stop_at:
                    return Exploration(start, sigma, bounds, parents, saturated=False)
        frontier = sorted(next_frontier, key=lambda w: w.key)
        depth += 1
    saturated = not frontier and not pruned
    return Exploration(start, sigma, bounds, parents, saturated=saturated)


def derive(
    sigma: Presentation,
    u: Word,
    v: Word,
    bounds: SearchBounds | None = None,
) -> DerivationCertificate | None:
    """Search for a derivation of u = v from sigma within bounds (default_bounds(sigma, u, v) by default).

    Returns a certificate whose replay starts at u and ends at v, or None
    when the bounded search exhausts.  None is never a refutation; exact
    non-derivability only ever comes from a saturated class enumeration.
    """
    if u == v:
        sigma.require_content_balanced()
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
    sigma.require_content_balanced()
    neighbours: dict[Word, list[Word]] = {}
    for member in sorted(members, key=lambda x: x.key):
        inside: list[Word] = []
        for q, _step in _successor_items(sigma, member):
            if q not in members:
                return NotClosed(member, q)
            if q != member:
                inside.append(q)
        neighbours[member] = inside
    reached = {w}
    frontier = [w]
    while frontier:
        nxt: list[Word] = []
        for p in frontier:
            for q in neighbours[p]:
                if q not in reached:
                    reached.add(q)
                    nxt.append(q)
        frontier = nxt
    for member in sorted(members, key=lambda x: x.key):
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
