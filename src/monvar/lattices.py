"""Finite lattices from Hasse data, with brute-force special-element predicates.

Nine element properties are checked by evaluating their defining
universally-quantified formulas at every (x, y, z); the dual properties
(costandard, codistributive, upper-modular) reuse the primal code on the
order dual, so each formula is transcribed exactly once, and the join table
is the meet-table routine run on the transposed order.  Both kernels run in
blocks of (x, y) pairs holding at most _BLOCK entries; n <= 64 is one block.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

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

# numpy loads with the first lattice and json with the first lattice text, not
# with this module. FiniteLattice.__init__ and build_lattice are the only code
# that makes an array before a lattice exists, so they call _load_numpy; every
# other user of np takes a lattice.
np = None


def _load_numpy() -> None:
    global np
    if np is None:
        import numpy

        np = numpy


# build_lattice and product refuse larger lattices before any n x n allocation,
# and the meet and join tables hold element indices as int16.
MAX_ELEMENTS = 1024
# Most entries held by any temporary array of the bound and property kernels.
_BLOCK = 1 << 18

_DUAL_OF = {
    ElementProperty.COSTANDARD: ElementProperty.STANDARD,
    ElementProperty.CODISTRIBUTIVE: ElementProperty.DISTRIBUTIVE,
    ElementProperty.UPPER_MODULAR: ElementProperty.LOWER_MODULAR,
}


class FiniteLattice:
    """An explicit finite lattice: labels, order matrix, meet/join tables."""

    def __init__(self, labels: tuple[str, ...], order: np.ndarray, name: str = ""):
        _load_numpy()
        self.labels = tuple(labels)
        self.name = name or ",".join(self.labels)
        self.index = {label: k for k, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise LatticeError("duplicate element labels")
        if not self.labels:
            raise LatticeError("a lattice needs at least one element")
        order = np.asarray(order, dtype=bool)  # ~ of a 0/1 integer order is never 0
        if order.shape != (len(self), len(self)):
            raise LatticeError(f"order of shape {order.shape} for {len(self)} labels")
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
        vector = _primal_vector(M, J, leq, primal)
        self._props[prop] = vector
        return vector


def _blocks(n: int):
    """Slices (xs, ys) tiling range(n)^2 in row-major order, each so that an
    (xs, ys, n) array holds at most _BLOCK entries (whole rows while n <= 512)."""
    y_step = min(n, max(1, _BLOCK // n))
    x_step = max(1, _BLOCK // (n * y_step))
    for x0 in range(0, n, x_step):
        for y0 in range(0, n, y_step):
            yield slice(x0, x0 + x_step), slice(y0, y0 + y_step)


def _glb_table(order: np.ndarray, labels: tuple[str, ...], kind: str) -> np.ndarray:
    """Greatest lower bound of every pair (a, c) under order[i, j] = (i <= j),
    over candidates b, a block of pairs at a time.  A pair's candidate is its
    common lower bound with the largest down-set; it is accepted if every common
    lower bound lies below it and no other above.  Errors name the first bad pair."""
    below = np.ascontiguousarray(order.T)  # below[a, b] = (b <= a)
    down_size = below.sum(axis=1)
    table = np.empty(below.shape, dtype=np.int16)  # every index is below MAX_ELEMENTS
    for a, c in _blocks(len(labels)):
        common = below[a, None, :] & below[None, c, :]
        best = np.where(common, down_size, -1).argmax(axis=2)
        bad = (common & ~below[best]).any(axis=2) | ((common & order[best]).sum(axis=2) != 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise LatticeError(f"no {kind} bound of {{{labels[a.start + i]}, {labels[c.start + j]}}}")
        table[a, c] = best
    return table


def _primal_vector(M: np.ndarray, J: np.ndarray, leq: np.ndarray, prop: ElementProperty) -> np.ndarray:
    """prop at every element x: its defining formula evaluated as (x, y, z)
    arrays, a block of pairs (x, y) at a time."""
    n = len(leq)
    holds = np.ones(n, dtype=bool)
    for xs, ys in _blocks(n):
        # (x, 1, z) and (x, y, 1) views; J[ys] and M[ys] broadcast as (y, z)
        Jx, Mx = J[xs, None, :], M[xs, None, :]
        Jxy, Mxy = J[xs, ys, None], M[xs, ys, None]
        if prop is ElementProperty.NEUTRAL:
            ok = M[M[Jxy, J[ys]], Jx] == J[J[Mxy, M[ys]], Mx]
        elif prop is ElementProperty.STANDARD:
            ok = M[J[xs, ys]] == J[Mx, M[ys]]
        elif prop is ElementProperty.DISTRIBUTIVE:
            ok = J[xs][:, M[ys]] == M[Jxy, Jx]
        elif prop is ElementProperty.MODULAR:
            ok = (M[J[xs, ys]] == J[ys][:, M[xs]].swapaxes(0, 1)) | ~leq[ys]
        elif prop is ElementProperty.LOWER_MODULAR:
            ok = (J[xs][:, M[ys]] == M[ys][:, J[xs]].swapaxes(0, 1)) | ~leq[xs, ys, None]
        elif prop is ElementProperty.CANCELLABLE:
            ok = (Jx != Jxy) | (Mx != Mxy) | (np.arange(n)[ys, None] == np.arange(n))
        else:
            raise AssertionError(f"{prop} is not a primal property")
        holds[xs] &= ok.all(axis=(1, 2))
    return holds


def build_lattice(elements, covers, name: str = "") -> FiniteLattice:
    """Validate Hasse data (elements plus cover pairs) into a lattice.

    The order is the reflexive-transitive closure of the covers; cycles,
    duplicate labels, unknown labels, and missing or ambiguous bounds are
    all rejected.
    """
    _load_numpy()
    labels = tuple(elements)
    if len(labels) > MAX_ELEMENTS:
        raise LatticeError(f"{len(labels)} elements exceed the limit of {MAX_ELEMENTS}")
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
    import json

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
    if len(A) * len(B) > MAX_ELEMENTS:
        raise LatticeError(f"{len(A) * len(B)} elements exceed the limit of {MAX_ELEMENTS}")
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
