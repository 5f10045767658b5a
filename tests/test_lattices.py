import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from monvar import (
    ElementProperty,
    FiniteLattice,
    LatticeError,
    PROPERTY_IMPLICATIONS,
    boolean_cube,
    build_lattice,
    builtin_catalog,
    chain,
    check_implications,
    elements_with,
    has_property,
    is_sublattice,
    lattice_from_json,
    m3,
    n5,
    product,
    search_element_counterexample,
    with_new_bottom,
    with_new_top,
)
from monvar import lattices
from monvar.lattices import MAX_ELEMENTS

P = ElementProperty


def naive_has_property(L, x, prop):
    """Literal loop transcription of the defining formulas, as an oracle for
    the vectorized implementation."""
    meet, join, le = L.meet, L.join, L.le
    elems = L.labels
    if prop is P.COSTANDARD:
        return naive_has_property(L.dual(), x, P.STANDARD)
    if prop is P.CODISTRIBUTIVE:
        return naive_has_property(L.dual(), x, P.DISTRIBUTIVE)
    if prop is P.UPPER_MODULAR:
        return naive_has_property(L.dual(), x, P.LOWER_MODULAR)
    for y in elems:
        for z in elems:
            if prop is P.NEUTRAL:
                lhs = meet(meet(join(x, y), join(y, z)), join(z, x))
                rhs = join(join(meet(x, y), meet(y, z)), meet(z, x))
                if lhs != rhs:
                    return False
            elif prop is P.STANDARD:
                if meet(join(x, y), z) != join(meet(x, z), meet(y, z)):
                    return False
            elif prop is P.DISTRIBUTIVE:
                if join(x, meet(y, z)) != meet(join(x, y), join(x, z)):
                    return False
            elif prop is P.MODULAR:
                if le(y, z) and meet(join(x, y), z) != join(meet(x, z), y):
                    return False
            elif prop is P.LOWER_MODULAR:
                if le(x, y) and join(x, meet(y, z)) != meet(y, join(x, z)):
                    return False
            elif prop is P.CANCELLABLE:
                if y != z and join(x, y) == join(x, z) and meet(x, y) == meet(x, z):
                    return False
            else:
                raise AssertionError(prop)
    return True


SMALL = [chain(1), chain(3), m3(), n5(), boolean_cube(2), boolean_cube(3), with_new_top(n5()), with_new_bottom(m3())]


class TestConstruction:
    def test_three_chain(self):
        L = build_lattice(["0", "m", "1"], [("0", "m"), ("m", "1")])
        assert L.meet("m", "1") == "m" and L.join("0", "m") == "m"
        assert L.bottom == "0" and L.top == "1"

    def test_pentagon(self):
        L = n5()
        assert L.join("a", "b") == "1" and L.meet("c", "b") == "0"
        assert L.le("a", "c") and not L.le("b", "c")

    def test_antichain_has_no_join(self):
        with pytest.raises(LatticeError, match="least upper bound"):
            build_lattice(["p", "q"], [])

    def test_cycle_rejected(self):
        with pytest.raises(LatticeError, match="cycle"):
            build_lattice(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LatticeError, match="duplicate"):
            build_lattice(["a", "a"], [])
        with pytest.raises(LatticeError, match="duplicate"):
            FiniteLattice(("a", "a"), np.eye(2, dtype=bool))
        with pytest.raises(LatticeError, match="at least one element"):
            FiniteLattice((), np.zeros((0, 0), dtype=bool))

    def test_unknown_cover_label_rejected(self):
        with pytest.raises(LatticeError, match="unknown"):
            build_lattice(["a"], [("a", "b")])
        with pytest.raises(LatticeError, match="reflexive"):
            build_lattice(["a"], [("a", "a")])

    def test_missing_meet_rejected(self):
        # two maximal elements above two minimal ones: no bounds at all
        with pytest.raises(LatticeError):
            build_lattice(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])

    def test_missing_meet_names_the_pair(self):
        with pytest.raises(LatticeError, match="no greatest lower bound of {a, b}"):
            build_lattice(["a", "b", "1"], [("a", "1"), ("b", "1")])

    def test_bounded_non_lattice_rejected(self):
        # a and b have two minimal upper bounds c and d, so the least one is missing
        covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
        with pytest.raises(LatticeError, match="no least upper bound of {a, b}"):
            build_lattice(["0", "a", "b", "c", "d", "1"], covers)

    def test_non_antisymmetric_order_rejected(self):
        with pytest.raises(LatticeError):
            FiniteLattice(("x", "y"), np.ones((2, 2), dtype=bool))

    def test_integer_order_gives_the_same_properties(self):
        # ~ of a 0/1 integer array is -1 or -2, never false
        L = n5()
        I = FiniteLattice(L.labels, L.order.astype(int))
        for prop in P:
            assert elements_with(I, prop) == elements_with(L, prop), prop
        assert not has_property(I, "b", P.MODULAR)

    def test_order_shape_must_match_the_labels(self):
        with pytest.raises(LatticeError, match=r"order of shape \(3, 3\) for 2 labels"):
            FiniteLattice(("a", "b"), np.eye(3, dtype=bool))

    def test_more_than_max_elements_rejected(self):
        labels = [str(k) for k in range(MAX_ELEMENTS + 1)]
        with pytest.raises(LatticeError, match=f"{MAX_ELEMENTS + 1} elements exceed the limit"):
            build_lattice(labels, [])
        with pytest.raises(LatticeError, match=f"{MAX_ELEMENTS + 1} elements exceed the limit"):
            product(chain(25), chain(41))

    def test_bound_tables_hold_every_index_below_max_elements(self):
        # int16 tables: past int8's 127, and every index below MAX_ELEMENTS fits
        L = chain(200)
        for table in (L.meet_table, L.join_table):
            assert table.dtype == np.int16 and np.iinfo(table.dtype).max >= MAX_ELEMENTS - 1
        ranks = np.arange(200)
        assert (L.join_table == np.maximum.outer(ranks, ranks)).all()
        assert (L.meet_table == np.minimum.outer(ranks, ranks)).all()
        assert (L.join("199", "0"), L.meet("199", "0")) == ("199", "0")

    def test_json_format(self):
        text = '{"elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]]}'
        L = lattice_from_json(text)
        assert L.top == "1"
        with pytest.raises(LatticeError):
            lattice_from_json('{"elements": ["a"]}')

    def test_json_rejects_non_string_labels(self):
        with pytest.raises(LatticeError, match="string labels"):
            lattice_from_json('{"elements": [0, 1, 2], "covers": [[0, 1], [1, 2]]}')

    def test_json_rejects_non_list_elements(self):
        with pytest.raises(LatticeError, match="list of string labels"):
            lattice_from_json('{"elements": "ab", "covers": [["a", "b"]]}')
        with pytest.raises(LatticeError, match="'covers' must be a list"):
            lattice_from_json('{"elements": ["a", "b"], "covers": {"a": "b"}}')

    def test_json_rejects_nested_cover_pair(self):
        with pytest.raises(LatticeError, match="bad cover pair"):
            lattice_from_json('{"elements": ["a", "b"], "covers": [["a", ["b"]]]}')

    def test_product_order(self):
        L = product(chain(2), chain(3))
        assert len(L) == 6
        assert L.le("(0,0)", "(1,2)")
        assert not L.le("(1,0)", "(0,2)")

    def test_dual_involution(self):
        L = n5()
        D = L.dual()
        assert D.bottom == L.top and D.top == L.bottom
        assert D.dual() is L


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("prop", list(P))
    def test_all_small_lattices(self, prop):
        for L in SMALL:
            for x in L.labels:
                assert has_property(L, x, prop) == naive_has_property(L, x, prop), (L.name, x, prop)


class TestPropertyFacts:
    def test_bottom_and_top_are_neutral(self):
        for L in SMALL:
            assert has_property(L, L.bottom, P.NEUTRAL)
            assert has_property(L, L.top, P.NEUTRAL)

    def test_pentagon_element_sets(self):
        L = n5()
        assert elements_with(L, P.MODULAR) == {"0", "a", "c", "1"}
        assert not has_property(L, "b", P.MODULAR)
        assert elements_with(L, P.DISTRIBUTIVE) == {"0", "b", "c", "1"}
        assert elements_with(L, P.STANDARD) == {"0", "c", "1"}
        assert elements_with(L, P.CANCELLABLE) == {"0", "a", "c", "1"}

    def test_diamond_element_sets(self):
        L = m3()
        assert elements_with(L, P.DISTRIBUTIVE) == {"0", "1"}
        assert not has_property(L, "p", P.DISTRIBUTIVE)
        assert elements_with(L, P.NEUTRAL) == {"0", "1"}

    def test_chains_are_fully_neutral(self):
        for k in range(1, 7):
            L = chain(k)
            assert elements_with(L, P.NEUTRAL) == set(L.labels)

    def test_boolean_cube_fully_neutral(self):
        L = boolean_cube(3)
        assert elements_with(L, P.NEUTRAL) == set(L.labels)

    def test_distributive_lattices_have_every_property(self):
        for L in SMALL:
            if elements_with(L, P.DISTRIBUTIVE) != set(L.labels):
                continue
            for prop in P:
                assert elements_with(L, prop) == set(L.labels), (L.name, prop)


class TestSublattices:
    def test_bounds_pair(self):
        assert is_sublattice(n5(), {"0", "1"})

    def test_two_atoms_are_not_closed(self):
        assert not is_sublattice(m3(), {"p", "q"})

    def test_unknown_label_rejected(self):
        with pytest.raises(LatticeError):
            is_sublattice(m3(), {"zz"})

    def test_neutral_and_standard_sets_are_sublattices(self):
        for L in SMALL:
            assert is_sublattice(L, elements_with(L, P.NEUTRAL))
            assert is_sublattice(L, elements_with(L, P.STANDARD))


class TestImplications:
    @pytest.mark.parametrize("L", SMALL, ids=lambda L: L.name)
    def test_no_violations(self, L):
        assert check_implications(L) == []

    def test_implication_list_is_the_known_chain(self):
        assert (P.NEUTRAL, P.STANDARD) in PROPERTY_IMPLICATIONS
        assert (P.CANCELLABLE, P.MODULAR) in PROPERTY_IMPLICATIONS
        assert (P.DISTRIBUTIVE, P.LOWER_MODULAR) in PROPERTY_IMPLICATIONS


class TestDuality:
    def test_dual_pairs_and_self_dual_properties(self):
        dual_pairs = [
            (P.STANDARD, P.COSTANDARD),
            (P.DISTRIBUTIVE, P.CODISTRIBUTIVE),
            (P.LOWER_MODULAR, P.UPPER_MODULAR),
        ]
        for L in SMALL:
            D = L.dual()
            for x in L.labels:
                for prop, coprop in dual_pairs:
                    assert has_property(L, x, prop) == has_property(D, x, coprop)
                for prop in (P.NEUTRAL, P.MODULAR, P.CANCELLABLE):
                    assert has_property(L, x, prop) == has_property(D, x, prop)


class TestCounterexampleSearch:
    def test_distributive_need_not_be_costandard(self):
        found = search_element_counterexample(builtin_catalog(), P.DISTRIBUTIVE, P.COSTANDARD)
        assert found is not None
        L, x = found
        assert has_property(L, x, P.DISTRIBUTIVE) and not has_property(L, x, P.COSTANDARD)

    def test_neutral_implies_standard_everywhere(self):
        assert search_element_counterexample(builtin_catalog(), P.NEUTRAL, P.STANDARD) is None

    def test_standard_implies_distributive_everywhere(self):
        assert search_element_counterexample(builtin_catalog(), P.STANDARD, P.DISTRIBUTIVE) is None


class TestRandomLattices:
    """Bound tables, covers and sublattice checks against set-level oracles."""

    def moore_family(self, rng, max_bits=4):
        # subsets of 2^bits containing the top and closed under intersection: always a lattice
        bits = rng.randint(2, max_bits)
        top = 2**bits - 1
        members = {top} | {m for m in range(top) if rng.random() < 0.4}
        while True:
            closed = members | {a & b for a in members for b in members}
            if closed == members:
                break
            members = closed
        return bits, sorted(members)

    def test_moore_families(self):
        rng = random.Random(4)
        for _ in range(150):
            bits, members = self.moore_family(rng)
            labels = tuple(format(m, f"0{bits}b") for m in members)
            label = dict(zip(members, labels))
            order = np.array([[a & b == a for b in members] for a in members])
            L = FiniteLattice(labels, order)
            for a, b in itertools.product(members, repeat=2):
                assert L.meet(label[a], label[b]) == label[a & b]
                least = min((m for m in members if m & (a | b) == a | b), key=lambda m: bin(m).count("1"))
                assert L.join(label[a], label[b]) == label[least]
            assert (build_lattice(L.labels, L.covers()).order == L.order).all()
            for _ in range(5):
                subset = {x for x in labels if rng.random() < 0.5}
                closed = all(L.meet(x, y) in subset and L.join(x, y) in subset for x in subset for y in subset)
                assert is_sublattice(L, subset) == closed, (labels, subset)

    def test_properties_match_the_loop_oracle(self):
        # the oracle reads the dual properties off L.dual(), built through the
        # constructor, while has_property swaps L's own tables
        rng = random.Random(9)
        for _ in range(100):
            bits, members = self.moore_family(rng, max_bits=3)
            labels = tuple(format(m, f"0{bits}b") for m in members)
            order = np.array([[a & b == a for b in members] for a in members])
            L = FiniteLattice(labels, order)
            for prop in P:
                assert [has_property(L, x, prop) for x in labels] == [
                    naive_has_property(L, x, prop) for x in labels
                ], (labels, prop)

    def test_random_posets(self):
        rng = random.Random(6)
        built = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            # half of them get a bottom 0 and a top n-1, so that more of them are lattices
            bounded = rng.random() < 0.5
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = [(i, j) for i, j in pairs if (bounded and (i == 0 or j == n - 1)) or rng.random() < 0.4]
            le = [[i == j or (i, j) in edges for j in range(n)] for i in range(n)]
            for k, i, j in itertools.product(range(n), repeat=3):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])

            def bound(a, b, below):
                common = [k for k in range(n) if below(k, a) and below(k, b)]
                best = [k for k in common if all(below(c, k) for c in common)]
                return best[0] if len(best) == 1 else None

            meets = {(a, b): bound(a, b, lambda x, y: le[x][y]) for a in range(n) for b in range(n)}
            joins = {(a, b): bound(a, b, lambda x, y: le[y][x]) for a in range(n) for b in range(n)}
            labels = [f"e{k}" for k in range(n)]
            covers = [(labels[i], labels[j]) for i, j in edges]
            if None in meets.values() or None in joins.values():
                with pytest.raises(LatticeError, match="bound of"):
                    build_lattice(labels, covers)
                continue
            L = build_lattice(labels, covers)
            built += 1
            for (a, b), m in meets.items():
                assert L.meet(labels[a], labels[b]) == labels[m]
                assert L.join(labels[a], labels[b]) == labels[joins[a, b]]
        assert 0 < built < 300


class TestCatalog:
    def test_tables_and_properties_are_byte_identical(self):
        # SHA-256 first computed with the per-pair bound loops; any change to a
        # catalog lattice's tables, covers or property vectors shows here
        digest = hashlib.sha256()
        for L in builtin_catalog():
            record = {
                "name": L.name,
                "labels": list(L.labels),
                "meet": L.meet_table.tolist(),
                "join": L.join_table.tolist(),
                "covers": L.covers(),
                "properties": {p.value: [has_property(L, x, p) for x in L.labels] for p in P},
            }
            digest.update((json.dumps(record) + "\n").encode())
        assert digest.hexdigest() == "b9c96513c683eb16e0f7f64554d50a0365833a7d2e8dcda5fb0fec101468c86a"

    def test_composition(self):
        names = {L.name for L in builtin_catalog()}
        for expected in ("C1", "C6", "M3", "N5", "B2", "B3", "M3+top", "N5+bot", "C2xC2", "C6xC6"):
            assert expected in names
        assert all(len(L) <= 36 for L in builtin_catalog())

    def test_products_respect_componentwise_properties(self):
        L = product(chain(2), n5())
        # (t, b) with b non-modular in N5 stays non-modular in the product
        assert not has_property(L, "(1,b)", P.MODULAR)
        assert has_property(L, "(0,0)", P.NEUTRAL)


class TestBlockedKernels:
    """The bound and property kernels split lattices of more than 64 elements
    into blocks; products are checked against their factors componentwise."""

    def assert_componentwise(self, A, B):
        L = product(A, B)
        pairs = list(itertools.product(A.labels, B.labels))
        for prop in P:
            expected = [has_property(A, a, prop) and has_property(B, b, prop) for a, b in pairs]
            assert [has_property(L, f"({a},{b})", prop) for a, b in pairs] == expected, prop
        for (a1, b1), (a2, b2) in itertools.product(pairs, repeat=2):
            x, y = f"({a1},{b1})", f"({a2},{b2})"
            assert L.meet(x, y) == f"({A.meet(a1, a2)},{B.meet(b1, b2)})"
            assert L.join(x, y) == f"({A.join(a1, a2)},{B.join(b1, b2)})"

    def test_several_blocks_of_whole_rows(self):
        assert 70**3 > lattices._BLOCK
        self.assert_componentwise(n5(), chain(14))

    def test_blocks_of_partial_rows(self, monkeypatch):
        # a budget below n * n splits every row, as for lattices of over 512 elements
        monkeypatch.setattr(lattices, "_BLOCK", 12)
        self.assert_componentwise(n5(), chain(3))
        self.assert_componentwise(chain(2), m3())
        covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
        with pytest.raises(LatticeError, match="no least upper bound of {a, b}"):
            build_lattice(["0", "a", "b", "c", "d", "1"], covers)

    def test_blocks_tile_every_pair_once_in_row_major_order(self):
        for n in (1, 2, 64, 65, 512, 513, MAX_ELEMENTS):
            seen = []
            for xs, ys in lattices._blocks(n):
                rows, cols = np.arange(n)[xs], np.arange(n)[ys]
                assert len(rows) * len(cols) * n <= lattices._BLOCK
                seen.append((rows[:, None] * n + cols).ravel())
            assert (np.concatenate(seen) == np.arange(n * n)).all(), n

    def test_memory_stays_within_the_block_budget(self):
        # one unblocked n^3 int64 temporary at n = 128 would take 16.8 MB
        tracemalloc.start()
        try:
            check_implications(chain(128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
