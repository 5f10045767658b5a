"""Finite lattices from Hasse data, with brute-force special-element predicates.

Nine element properties are checked by evaluating their defining
universally-quantified formulas over all pairs; the dual properties
(costandard, codistributive, upper-modular) reuse the primal code on the
order dual, so each formula is transcribed exactly once.  Bounds use the
same duality: one routine builds the greatest-lower-bound table of an
order, and the join table is that routine run on the transposed order.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cache

import numpy as np

__all__ = [
    "LatticeError",
    "FiniteLattice",
    "ElementProperty",
    "PROPERTY_IMPLICATIONS",
    "build_lattice",
    "has_property",
    "elements_with",
    "is_sublattice",
    "check_implications",
    "search_element_counterexample",
    "lattice_from_json",
    "load_lattice_file",
    "chain",
    "m3",
    "n5",
    "boolean_cube",
    "with_new_top",
    "with_new_bottom",
    "product",
    "builtin_catalog",
]


class LatticeError(ValueError):
    pass


class ElementProperty(Enum):
    NEUTRAL = "neutral"
    STANDARD = "standard"
    COSTANDARD = "costandard"
    DISTRIBUTIVE = "distributive"
    CODISTRIBUTIVE = "codistributive"
    MODULAR = "modular"
    LOWER_MODULAR = "lower-modular"
    UPPER_MODULAR = "upper-modular"
    CANCELLABLE = "cancellable"


# Element-wise implications that hold in every lattice.
PROPERTY_IMPLICATIONS: tuple[tuple[ElementProperty, ElementProperty], ...] = (
    (ElementProperty.NEUTRAL, ElementProperty.STANDARD),
    (ElementProperty.NEUTRAL, ElementProperty.COSTANDARD),
    (ElementProperty.STANDARD, ElementProperty.CANCELLABLE),
    (ElementProperty.COSTANDARD, ElementProperty.CANCELLABLE),
    (ElementProperty.CANCELLABLE, ElementProperty.MODULAR),
    (ElementProperty.STANDARD, ElementProperty.DISTRIBUTIVE),
    (ElementProperty.COSTANDARD, ElementProperty.CODISTRIBUTIVE),
    (ElementProperty.DISTRIBUTIVE, ElementProperty.LOWER_MODULAR),
    (ElementProperty.CODISTRIBUTIVE, ElementProperty.UPPER_MODULAR),
)

_DUAL_OF = {
    ElementProperty.COSTANDARD: ElementProperty.STANDARD,
    ElementProperty.CODISTRIBUTIVE: ElementProperty.DISTRIBUTIVE,
    ElementProperty.UPPER_MODULAR: ElementProperty.LOWER_MODULAR,
}


class FiniteLattice:
    """An explicit finite lattice: labels, order matrix, meet/join tables."""

    def __init__(self, labels: tuple[str, ...], order: np.ndarray, name: str = ""):
        self.labels = tuple(labels)
        self.name = name or ",".join(self.labels)
        self.index = {label: k for k, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise LatticeError("duplicate element labels")
        if not self.labels:
            raise LatticeError("a lattice needs at least one element")
        self.order = order
        # joins first: where an order lacks both bounds of a pair, the error names the join
        self.join_table = _glb_table(order.T, self.labels, "least upper")
        self.meet_table = _glb_table(order, self.labels, "greatest lower")
        self._dual: FiniteLattice | None = None
        self._props: dict[ElementProperty, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"FiniteLattice({self.name!r}, {len(self)} elements)"

    def _check(self, label: str) -> int:
        if label not in self.index:
            raise LatticeError(f"unknown element {label!r} in lattice {self.name}")
        return self.index[label]

    def le(self, a: str, b: str) -> bool:
        return bool(self.order[self._check(a), self._check(b)])

    def meet(self, a: str, b: str) -> str:
        return self.labels[self.meet_table[self._check(a), self._check(b)]]

    def join(self, a: str, b: str) -> str:
        return self.labels[self.join_table[self._check(a), self._check(b)]]

    @property
    def bottom(self) -> str:
        return self.labels[int(np.flatnonzero(self.order.all(axis=1))[0])]

    @property
    def top(self) -> str:
        return self.labels[int(np.flatnonzero(self.order.all(axis=0))[0])]

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (lower, upper) recovered from the order."""
        n = len(self)
        strict = self.order & ~np.eye(n, dtype=bool)
        through = strict @ strict
        return [(self.labels[a], self.labels[b]) for a, b in np.argwhere(strict & ~through)]

    def dual(self) -> "FiniteLattice":
        if self._dual is None:
            flipped = FiniteLattice(self.labels, self.order.T.copy(), name=f"{self.name}^op")
            flipped._dual = self
            self._dual = flipped
        return self._dual

    def _property_vector(self, prop: ElementProperty) -> np.ndarray:
        cached = self._props.get(prop)
        if cached is not None:
            return cached
        M, J, leq, primal = self.meet_table, self.join_table, self.order, prop
        if prop in _DUAL_OF:  # read the order dual off this lattice's own tables
            M, J, leq, primal = J, M, leq.T, _DUAL_OF[prop]
        vector = np.array([_primal_check(M, J, leq, x, primal) for x in range(len(self))], dtype=bool)
        self._props[prop] = vector
        return vector


def _glb_table(order: np.ndarray, labels: tuple[str, ...], kind: str) -> np.ndarray:
    """Greatest lower bound of every pair under order[i, j] = (i <= j), one row
    at a time so that no step allocates more than an n x n array.  A pair's
    candidate is its common lower bound with the largest down-set; it is
    accepted if every common lower bound lies below it and no other above."""
    n = len(labels)
    down_size = order.sum(axis=0)
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        common = order[:, a, None] & order
        best = np.where(common, down_size[:, None], -1).argmax(axis=0)
        bad = (common & ~order[:, best]).any(axis=0) | ((common & order[best].T).sum(axis=0) != 1)
        if bad.any():
            b = int(np.flatnonzero(bad)[0])
            raise LatticeError(f"no {kind} bound of {{{labels[a]}, {labels[b]}}}")
        table[a] = best
    return table


def _primal_check(M: np.ndarray, J: np.ndarray, leq: np.ndarray, x: int, prop: ElementProperty) -> bool:
    n = len(leq)
    jx = J[x]
    mx = M[x]
    if prop is ElementProperty.NEUTRAL:
        lhs = M[M[jx[:, None], J], jx[None, :]]
        rhs = J[J[mx[:, None], M], mx[None, :]]
        return bool((lhs == rhs).all())
    if prop is ElementProperty.STANDARD:
        lhs = M[jx]
        rhs = J[mx[None, :], M]
        return bool((lhs == rhs).all())
    if prop is ElementProperty.DISTRIBUTIVE:
        lhs = jx[M]
        rhs = M[jx[:, None], jx[None, :]]
        return bool((lhs == rhs).all())
    if prop is ElementProperty.MODULAR:
        lhs = M[jx]
        rhs = J[np.arange(n)[:, None], mx[None, :]]
        return bool(((lhs == rhs) | ~leq).all())
    if prop is ElementProperty.LOWER_MODULAR:
        lhs = jx[M]
        rhs = M[np.arange(n)[:, None], jx[None, :]]
        return bool(((lhs == rhs) | ~leq[x][:, None]).all())
    if prop is ElementProperty.CANCELLABLE:
        fingerprints = jx.astype(np.int64) * n + mx
        return int(np.unique(fingerprints).size) == n
    raise AssertionError(f"{prop} is not a primal property")


def build_lattice(elements, covers, name: str = "") -> FiniteLattice:
    """Validate Hasse data (elements plus cover pairs) into a lattice.

    The order is the reflexive-transitive closure of the covers; cycles,
    duplicate labels, unknown labels, and missing or ambiguous bounds are
    all rejected.
    """
    labels = tuple(elements)
    if len(set(labels)) != len(labels):
        raise LatticeError("duplicate element labels")
    index = {label: k for k, label in enumerate(labels)}
    n = len(labels)
    adjacency = np.zeros((n, n), dtype=bool)
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise LatticeError(f"cover ({lo!r}, {hi!r}) mentions an unknown element")
        if lo == hi:
            raise LatticeError(f"cover ({lo!r}, {hi!r}) is reflexive")
        adjacency[index[lo], index[hi]] = True
    reach = adjacency.copy()
    while True:
        expanded = reach | (reach @ reach)
        if (expanded == reach).all():
            break
        reach = expanded
    if reach.diagonal().any():
        raise LatticeError("cover relation has a cycle")
    order = reach | np.eye(n, dtype=bool)
    return FiniteLattice(labels, order, name=name)


def has_property(L: FiniteLattice, x: str, p: ElementProperty) -> bool:
    """Brute-force evaluation of the defining formula of p at element x."""
    return bool(L._property_vector(p)[L._check(x)])


def elements_with(L: FiniteLattice, p: ElementProperty) -> set[str]:
    vector = L._property_vector(p)
    return {L.labels[k] for k in np.flatnonzero(vector)}


def is_sublattice(L: FiniteLattice, subset) -> bool:
    inside = np.zeros(len(L), dtype=bool)
    for label in subset:
        inside[L._check(label)] = True
    pairs = np.ix_(inside, inside)
    return bool(inside[L.meet_table[pairs]].all() and inside[L.join_table[pairs]].all())


def check_implications(L: FiniteLattice) -> list[str]:
    """Violations of the standard implication chain between the nine
    properties, elementwise; a correct implementation returns []."""
    violations = []
    for weak, strong in PROPERTY_IMPLICATIONS:
        have = L._property_vector(weak)
        need = L._property_vector(strong)
        for k in np.flatnonzero(have & ~need):
            violations.append(
                f"{L.name}: element {L.labels[k]} is {weak.value} but not {strong.value}"
            )
    return violations


def search_element_counterexample(catalog, has: ElementProperty, lacks: ElementProperty):
    """First (lattice, element) in catalog order having one property and
    lacking the other, or None."""
    for L in catalog:
        have = L._property_vector(has)
        missing = ~L._property_vector(lacks)
        hits = np.flatnonzero(have & missing)
        if hits.size:
            return L, L.labels[int(hits[0])]
    return None


def lattice_from_json(text: str, name: str = "") -> FiniteLattice:
    """Lattice file format: {"elements": [labels], "covers": [[lower, upper], ...]},
    every label a string.  Any malformed input raises LatticeError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise LatticeError(f"bad lattice JSON: {exc}") from None
    if not isinstance(data, dict) or "elements" not in data or "covers" not in data:
        raise LatticeError("lattice JSON needs 'elements' and 'covers' fields")
    elements, covers = data["elements"], data["covers"]
    if not isinstance(elements, list) or not all(isinstance(label, str) for label in elements):
        raise LatticeError("'elements' must be a list of string labels")
    if not isinstance(covers, list):
        raise LatticeError("'covers' must be a list of [lower, upper] pairs")
    for pair in covers:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(label, str) for label in pair)):
            raise LatticeError(f"bad cover pair {pair!r}")
    return build_lattice(elements, [tuple(pair) for pair in covers], name=name)


def load_lattice_file(path: str) -> FiniteLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return lattice_from_json(fh.read(), name=path)


# Built-in catalog.


def chain(k: int) -> FiniteLattice:
    labels = [str(i) for i in range(k)]
    covers = [(str(i), str(i + 1)) for i in range(k - 1)]
    return build_lattice(labels, covers, name=f"C{k}")


def m3() -> FiniteLattice:
    return build_lattice(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
        name="M3",
    )


def n5() -> FiniteLattice:
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        name="N5",
    )


def boolean_cube(d: int) -> FiniteLattice:
    labels = [format(k, f"0{d}b") for k in range(2**d)]
    covers = []
    for label in labels:
        for bit in range(d):
            if label[bit] == "0":
                upper = label[:bit] + "1" + label[bit + 1 :]
                covers.append((label, upper))
    return build_lattice(labels, covers, name=f"B{d}")


def with_new_top(L: FiniteLattice) -> FiniteLattice:
    top = "T*"
    labels = L.labels + (top,)
    covers = L.covers() + [(L.top, top)]
    return build_lattice(labels, covers, name=f"{L.name}+top")


def with_new_bottom(L: FiniteLattice) -> FiniteLattice:
    bottom = "B*"
    labels = (bottom,) + L.labels
    covers = L.covers() + [(bottom, L.bottom)]
    return build_lattice(labels, covers, name=f"{L.name}+bot")


def product(A: FiniteLattice, B: FiniteLattice) -> FiniteLattice:
    labels = tuple(f"({a},{b})" for a in A.labels for b in B.labels)
    order = np.kron(A.order.astype(np.int8), B.order.astype(np.int8)).astype(bool)
    return FiniteLattice(labels, order, name=f"{A.name}x{B.name}")


@cache
def builtin_catalog() -> tuple[FiniteLattice, ...]:
    """Chains up to six elements, M3, N5, boolean cubes B2/B3, M3 and N5
    with a fresh top or bottom adjoined, and direct products of pairs of
    these with at most 36 elements."""
    singles: list[FiniteLattice] = [chain(k) for k in range(1, 7)]
    singles += [m3(), n5(), boolean_cube(2), boolean_cube(3)]
    singles += [with_new_top(m3()), with_new_bottom(m3()), with_new_top(n5()), with_new_bottom(n5())]
    factors = [L for L in singles if len(L) >= 2]
    catalog = list(singles)
    for i, A in enumerate(factors):
        for B in factors[i:]:
            if len(A) * len(B) <= 36:
                catalog.append(product(A, B))
    return tuple(catalog)
