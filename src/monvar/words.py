"""Words over a countable variable alphabet, their statistics, and substitutions.

The free monoid here consists of finite words over variables named by a
lowercase letter with an optional decimal index (x, y, t, x1, x2, ...).
The empty word is written "1" in every text format, and runs of a letter
compress to caret exponents, so the thirteen-letter word xxxxxxxxxyxxx
prints as x^9yx^3.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

__all__ = [
    "WordSyntaxError",
    "Variable",
    "Word",
    "EMPTY",
    "parse_word",
    "format_word",
    "content",
    "occ",
    "ini",
    "fin",
    "has_kth_power_factor",
    "Substitution",
]

_TOKEN_RE = re.compile(r"[a-z][0-9]*")
_FACTOR_RE = re.compile(r"([a-z][0-9]*)(?:\^([0-9]+))?")

# parse_word rejects text spelling a word longer than this many letters, so
# that a short text such as "x^999999999" cannot demand a huge allocation.
# Every word the searches here handle is orders of magnitude shorter.
MAX_WORD_LENGTH = 100_000


class WordSyntaxError(ValueError):
    """Malformed word text: bad token, zero exponent, empty input, or a word
    longer than MAX_WORD_LENGTH."""


class Variable:
    """A single variable; two variables are equal exactly when their tokens
    are, since each token is interned to one object."""

    __slots__ = ("name",)
    _interned: dict[str, "Variable"] = {}

    def __new__(cls, name: str) -> "Variable":
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        if not _TOKEN_RE.fullmatch(name):
            raise WordSyntaxError(f"bad variable token {name!r}")
        obj = object.__new__(cls)
        obj.name = name
        cls._interned[name] = obj
        return obj

    # Interning makes equality identity and the hash object's own.  __eq__ is
    # still spelled out: with __lt__ defined, == on two distinct variables
    # would otherwise go through the slower generic comparison slot.
    def __eq__(self, other: object) -> bool:
        return self is other

    __hash__ = object.__hash__

    def __lt__(self, other: "Variable") -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Word:
    """An immutable word of the free monoid.

    Words multiply by concatenation, support slicing, and order by shortlex
    (length first, then letter tokens), which is the canonical visiting
    order of every search in this package.
    """

    # _code caches the rewriting engine's internal string code of the word.
    __slots__ = ("letters", "_hash", "_key", "_code")

    def __init__(self, letters: Iterable[Variable] = ()):
        self.letters = tuple(letters)
        self._hash = None
        self._key = None
        self._code = None

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (len(self.letters), tuple(v.name for v in self.letters))
        return self._key

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.letters)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self.letters[idx])
        return self.letters[idx]

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            raise ValueError("negative word power")
        return Word(self.letters * k)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __lt__(self, other: "Word") -> bool:
        return self.key < other.key

    def __le__(self, other: "Word") -> bool:
        return self.key <= other.key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.letters)
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


EMPTY = Word()


def parse_word(text: str) -> Word:
    """Parse word text: variable tokens, optional ^k with k >= 1, "1" for the
    empty word.  At most MAX_WORD_LENGTH letters."""
    s = text.strip()
    if not s:
        raise WordSyntaxError("empty word text (write the empty word as '1')")
    if s == "1":
        return EMPTY
    letters: list[Variable] = []
    pos = 0
    while pos < len(s):
        m = _FACTOR_RE.match(s, pos)
        if not m:
            raise WordSyntaxError(f"bad token at position {pos} in {text!r}")
        exponent = 1
        if m.group(2) is not None:
            digits = m.group(2).lstrip("0")
            if not digits:
                raise WordSyntaxError(f"zero exponent at position {pos} in {text!r}")
            # an exponent with more digits than the cap exceeds it; skip int() on it
            exponent = int(digits) if len(digits) <= len(str(MAX_WORD_LENGTH)) else MAX_WORD_LENGTH + 1
        if len(letters) + exponent > MAX_WORD_LENGTH:
            raise WordSyntaxError(f"word text {text[:40]!r} spells more than {MAX_WORD_LENGTH} letters")
        letters.extend([Variable(m.group(1))] * exponent)
        pos = m.end()
    return Word(letters)


def format_word(w: Word) -> str:
    """Canonical text of a word, with maximal runs compressed to ^k."""
    if not w:
        return "1"
    parts: list[str] = []
    run_letter = w.letters[0]
    run_length = 1
    for letter in w.letters[1:]:
        if letter == run_letter:
            run_length += 1
        else:
            parts.append(run_letter.name if run_length == 1 else f"{run_letter.name}^{run_length}")
            run_letter, run_length = letter, 1
    parts.append(run_letter.name if run_length == 1 else f"{run_letter.name}^{run_length}")
    return "".join(parts)


def content(w: Word) -> frozenset[Variable]:
    """The set of variables occurring in w."""
    return frozenset(w.letters)


def occ(w: Word, v: Variable) -> int:
    """The number of occurrences of v in w."""
    return w.letters.count(v)


def ini(w: Word) -> Word:
    """The subsequence of w retaining only the first occurrence of each variable."""
    seen: set[Variable] = set()
    out: list[Variable] = []
    for letter in w.letters:
        if letter not in seen:
            seen.add(letter)
            out.append(letter)
    return Word(out)


def fin(w: Word) -> Word:
    """The subsequence of w retaining only the last occurrence of each variable."""
    seen: set[Variable] = set()
    out: list[Variable] = []
    for letter in reversed(w.letters):
        if letter not in seen:
            seen.add(letter)
            out.append(letter)
    out.reverse()
    return Word(out)


def has_kth_power_factor(w: Word, k: int) -> bool:
    """Whether some non-empty word t has t^k as a factor of w."""
    if k < 1:
        raise ValueError("power must be >= 1")
    n = len(w)
    for base_len in range(1, n // k + 1):
        span = base_len * k
        for start in range(n - span + 1):
            base = w.letters[start : start + base_len]
            if w.letters[start : start + span] == base * k:
                return True
    return False


class Substitution:
    """A finite map variable -> word, applied letterwise as a monoid endomorphism.

    Variables absent from the map are fixed.  Substitutions are immutable,
    hashable values so that pattern matching can return them in sets.
    """

    __slots__ = ("_map", "_items")

    def __init__(self, mapping: Mapping[Variable, Word] | Iterable[tuple[Variable, Word]] = ()):
        as_dict = dict(mapping)
        for var, image in as_dict.items():
            if not isinstance(var, Variable) or not isinstance(image, Word):
                raise TypeError("substitution maps Variable to Word")
        self._map = as_dict
        self._items = tuple(sorted(as_dict.items(), key=lambda item: item[0].name))

    def apply(self, w: Word) -> Word:
        out: list[Variable] = []
        for letter in w.letters:
            image = self._map.get(letter)
            if image is None:
                out.append(letter)
            else:
                out.extend(image.letters)
        return Word(out)

    @property
    def domain(self) -> frozenset[Variable]:
        return frozenset(self._map)

    def items(self) -> tuple[tuple[Variable, Word], ...]:
        return self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}->{format_word(w)}" for v, w in self._items)
        return f"Substitution({inner})"
