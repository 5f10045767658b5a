"""Varieties as queryable handles.

A handle is a built-in benchmark variety with an exact word-problem decider,
a finitely presented variety answered by bounded derivation search, or a
meet/join composite.  Query verdicts are three-valued: No answers are only
ever produced from exact evidence, and Unknown records whether bounds or
composition is the obstacle.

Every handle knows built-ins that lie in it, its models: by Birkhoff a
built-in lies in var(S) exactly when it satisfies S, so a built-in's models
are those satisfying its basis (T, which has none, contains only T), and a
presented handle's those satisfying its presentation; a meet's are those of
every part, a join's those of some part.  When a model fails u = v, so does
the variety, and a handle other than a built-in answers an exact No without
any search.  A presented Yes reads the search (whether it reached v);
certificates come only from derive.
Composite handles evaluate their parts in the order given and stop at the
first part whose answer decides the composite.  A join isoterm reads only
complete part classes, so the search for a part's class is abandoned at its
first pruned successor.

The built-in handles are the members of the enum `Builtin`; each carries its
reference basis, its canonical invariant and its longest isoterm's length:

  T    trivial monoids          every identity holds
  SL   semilattice monoids      u = v  iff  content(u) = content(v)
  C    var{x^2 = x^3, xy = yx}  u = v  iff  c_normal_form(u) = c_normal_form(v)
  LRB  var{xy = xyx}            u = v  iff  ini(u) = ini(v)
  RRB  var{xy = yxy}            u = v  iff  fin(u) = fin(v)
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .rewriting import (
    Identity,
    Presentation,
    SearchBounds,
    explore,
    isoterm_exact,
)
from .words import Variable, Word, content, fin, ini

__all__ = [
    "Builtin",
    "Presented",
    "Meet",
    "Join",
    "VarietyHandle",
    "Verdict",
    "T",
    "SL",
    "C",
    "LRB",
    "RRB",
    "MON",
    "c_normal_form",
    "satisfies",
    "isoterm_for",
    "parse_variety",
]


def c_normal_form(w: Word) -> Word:
    """Normal form for C: variables in token order, exponents capped at two.

    Two words are C-equivalent exactly when their normal forms coincide,
    since commutativity sorts letters and x^2 = x^3 collapses every
    occurrence count of at least two.
    """
    counts: dict[Variable, int] = {}
    for letter in w.letters:
        counts[letter] = counts.get(letter, 0) + 1
    out: list[Variable] = []
    for letter in sorted(counts):
        out.extend([letter] * min(counts[letter], 2))
    return Word(out)


class Builtin(Enum):
    """A built-in variety: its defining identities (basis; None for T, whose
    x = y is not content-balanced, so everything holds axiomatically), its
    invariant (u = v holds exactly when invariant(u) == invariant(v)) and
    longest_isoterm (the isoterms are exactly the words of at most that length).

    T collapses every word.  The SL class of w is every word with its content,
    and the LRB class shares ini(w) with padded variants (RRB dually), so only
    the empty word is a singleton.  In C a letter occurring twice pumps and
    two once-occurring letters commute, so words of length <= 1 are isoterms.
    """

    T = (None, lambda w: None, -1)
    SL = (Presentation.of("x^2 = x", "xy = yx"), content, 0)
    C = (Presentation.of("x^2 = x^3", "xy = yx"), c_normal_form, 1)
    LRB = (Presentation.of("xy = xyx"), ini, 0)
    RRB = (Presentation.of("xy = yxy"), fin, 0)

    def __init__(self, basis: Presentation | None, invariant: Callable[[Word], object], longest_isoterm: int):
        self.basis = basis
        self.invariant = invariant
        self.longest_isoterm = longest_isoterm

    def __repr__(self) -> str:
        return f"Builtin.{self.name}"

    @cached_property
    def _models(self) -> frozenset[Builtin]:
        """The built-ins that lie in this one."""
        return frozenset({Builtin.T}) if self.basis is None else _models_of(self.basis)


@dataclass(frozen=True)
class Presented:
    """The variety of a presentation, which must be content-balanced:
    anything else raises ContentUnbalancedError."""

    presentation: Presentation

    def __post_init__(self):
        self.presentation.require_content_balanced()

    @cached_property
    def _models(self) -> frozenset[Builtin]:
        return _models_of(self.presentation)


@dataclass(frozen=True)
class Meet:
    parts: tuple["VarietyHandle", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("meet of an empty list")

    @cached_property
    def _models(self) -> frozenset[Builtin]:
        return frozenset.intersection(*(part._models for part in self.parts))

    @cached_property
    def _union(self) -> Presented | None:
        """The union of the parts' presentations, when every part is presented."""
        if not all(isinstance(part, Presented) for part in self.parts):
            return None
        return Presented(Presentation(tuple(i for part in self.parts for i in part.presentation.identities)))


@dataclass(frozen=True)
class Join:
    parts: tuple["VarietyHandle", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("join of an empty list")

    @cached_property
    def _models(self) -> frozenset[Builtin]:
        return frozenset().union(*(part._models for part in self.parts))


VarietyHandle = Builtin | Presented | Meet | Join

T, SL, C, LRB, RRB = Builtin
MON = Presented(Presentation())


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN_BOUNDS = "unknown (bounds)"
    UNKNOWN_COMPOSITION = "unknown (composition)"

    @property
    def is_yes(self) -> bool:
        return self is Verdict.YES

    @property
    def is_no(self) -> bool:
        return self is Verdict.NO

    @property
    def is_unknown(self) -> bool:
        return self in (Verdict.UNKNOWN_BOUNDS, Verdict.UNKNOWN_COMPOSITION)

    def __str__(self) -> str:
        return self.value.capitalize()


def _holds(builtin: Builtin, identity: Identity) -> bool:
    return builtin.invariant(identity.lhs) == builtin.invariant(identity.rhs)


def _models_of(sigma: Presentation) -> frozenset[Builtin]:
    """The built-ins that satisfy every identity of sigma, so lie in its variety."""
    return frozenset(builtin for builtin in Builtin if all(_holds(builtin, ident) for ident in sigma.identities))


def _every_part(answers: Iterable[Verdict]) -> Verdict:
    """No if some answer is No, Yes if all are Yes, otherwise Unknown
    (composition).  Stops at the first No."""
    verdict = Verdict.YES
    for answer in answers:
        if answer.is_no:
            return Verdict.NO
        if not answer.is_yes:
            verdict = Verdict.UNKNOWN_COMPOSITION
    return verdict


def _derived(handle: Presented, identity: Identity, bounds: SearchBounds | None) -> Verdict:
    """Yes when the bounded search from one side reaches the other, else
    Unknown (bounds); the caller has asked the handle's models."""
    u, v = identity.lhs, identity.rhs
    if v in explore(handle.presentation, u, bounds, stop_at=v):
        return Verdict.YES
    return Verdict.UNKNOWN_BOUNDS


def satisfies(handle: VarietyHandle, identity: Identity, bounds: SearchBounds | None = None) -> Verdict:
    """Whether the variety satisfies the identity.

    Built-ins answer exactly.  Every other handle answers No, without any
    search, when one of its models (a built-in in the variety) fails the
    identity.  Otherwise a presented handle answers Yes when a bounded search
    from one side reaches the other and Unknown (bounds) when it does not.
    A join satisfies exactly the identities all its components satisfy; a
    meet satisfies at least the identities of each component and everything
    derivable from the union of component presentations.  Components are
    asked in order, and a join stops at the first No, a meet at the first
    Yes.
    """
    if isinstance(handle, Builtin):
        return Verdict.YES if _holds(handle, identity) else Verdict.NO
    if not isinstance(handle, (Presented, Meet, Join)):
        raise TypeError(f"not a variety handle: {handle!r}")
    if not all(_holds(model, identity) for model in handle._models):
        return Verdict.NO
    if isinstance(handle, Presented):
        return _derived(handle, identity, bounds)
    if isinstance(handle, Join):
        return _every_part(satisfies(part, identity, bounds) for part in handle.parts)
    if any(satisfies(part, identity, bounds).is_yes for part in handle.parts):
        return Verdict.YES
    if handle._union is not None:
        return _derived(handle._union, identity, bounds)
    return Verdict.UNKNOWN_COMPOSITION


def isoterm_for(handle: VarietyHandle, w: Word, bounds: SearchBounds | None = None) -> Verdict:
    """Whether the class of w under the variety's fully invariant congruence
    is the singleton {w}.

    The class under a meet contains the class under each component, and the
    congruence generated by the component congruences cannot move a word all
    of whose component classes are singletons, so a meet answers Yes exactly
    when every component does.  The class under a join is the intersection
    of the component classes, so a finite complete class from one presented
    component, filtered by the other components' satisfaction answers,
    decides the join.  Components are asked in order, and a meet stops at
    the first No, as does each filter of a join.  A class that would not be
    complete within bounds is abandoned at its first pruned successor
    (explore's complete_only).
    """
    if isinstance(handle, Builtin):
        return Verdict.YES if len(w) <= handle.longest_isoterm else Verdict.NO
    if isinstance(handle, Presented):
        return Verdict.YES if isoterm_exact(w, handle.presentation) else Verdict.NO
    if isinstance(handle, Meet):
        return _every_part(isoterm_for(part, w, bounds) for part in handle.parts)
    if isinstance(handle, Join):
        for index, part in enumerate(handle.parts):
            if not isinstance(part, Presented):
                continue
            closure = explore(part.presentation, w, bounds, complete_only=True)
            if not closure.saturated:
                continue
            others = [p for k, p in enumerate(handle.parts) if k != index]
            undecided = False
            for other_word in sorted(closure.words, key=lambda x: x.key):
                if other_word == w:
                    continue
                verdict = _every_part(satisfies(other, Identity(w, other_word), bounds) for other in others)
                if verdict.is_yes:
                    return Verdict.NO
                undecided = undecided or verdict.is_unknown
            return Verdict.UNKNOWN_COMPOSITION if undecided else Verdict.YES
        return Verdict.UNKNOWN_COMPOSITION
    raise TypeError(f"not a variety handle: {handle!r}")


_BUILTIN_NAMES = {**Builtin.__members__, "MON": MON}


# parse_variety rejects meet(...)/join(...) nested deeper than this many
# levels with ValueError, well before the parser could exhaust Python's stack.
MAX_NESTING = 100


def parse_variety(text: str) -> VarietyHandle:
    """Parse a handle expression: builtin names, '@file' presentation
    references (a relative path resolves against the working directory), and
    meet(...)/join(...) composition nested at most MAX_NESTING levels deep.
    Malformed text raises ValueError."""
    expr = text.strip()
    handle, rest = _parse_expr(expr, 0)
    if rest.strip():
        raise ValueError(f"trailing input in variety expression: {rest!r}")
    return handle


def _parse_expr(s: str, depth: int) -> tuple[VarietyHandle, str]:
    s = s.lstrip()
    for combiner, cls in (("meet(", Meet), ("join(", Join)):
        if s.startswith(combiner):
            if depth == MAX_NESTING:
                raise ValueError(f"variety expression nested deeper than {MAX_NESTING} levels")
            rest = s[len(combiner) :]
            parts = []
            while True:
                part, rest = _parse_expr(rest, depth + 1)
                parts.append(part)
                rest = rest.lstrip()
                if rest.startswith(","):
                    rest = rest[1:]
                    continue
                if rest.startswith(")"):
                    return cls(tuple(parts)), rest[1:]
                raise ValueError(f"expected ',' or ')' in variety expression near {rest!r}")
    stop = len(s)
    for k, ch in enumerate(s):
        if ch in ",)":
            stop = k
            break
    if s.startswith("@"):
        path = s[1:stop].strip()
        if not path:
            raise ValueError("empty file reference in variety expression")
        return Presented(Presentation.read(path)), s[stop:]
    name = s[:stop].strip()
    if name in _BUILTIN_NAMES:
        return _BUILTIN_NAMES[name], s[stop:]
    raise ValueError(f"unknown variety name {name!r} (expected one of {sorted(_BUILTIN_NAMES)}, '@file', meet(...), join(...))")
