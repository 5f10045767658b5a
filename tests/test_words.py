import random

import pytest

from monvar import (
    EMPTY,
    Substitution,
    Variable,
    Word,
    WordSyntaxError,
    content,
    fin,
    format_word,
    has_kth_power_factor,
    ini,
    occ,
    parse_word,
)
from monvar import words
from monvar.words import MAX_WORD_LENGTH

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def rand_word(rng, max_len, alphabet=(X, Y, Z)):
    return Word(rng.choices(alphabet, k=rng.randint(0, max_len)))


# multi-digit indices included, where token order and index order differ
SIX = tuple(map(Variable, ["x", "y", "x1", "x2", "x10", "t"]))


def reference_key(w):
    """Word.key as it was when each variable carried its token in .name."""
    return (len(w.letters), tuple(v.name for v in w.letters))


def reference_fin(w):
    """The last-occurrence scan, written out on its own."""
    seen, out = set(), []
    for letter in reversed(w.letters):
        if letter not in seen:
            seen.add(letter)
            out.append(letter)
    out.reverse()
    return Word(out)


class TestVariable:
    def test_a_variable_is_its_token(self):
        assert Variable("x") == "x"
        assert hash(Variable("x10")) == hash("x10")

    def test_variables_sort_as_tokens(self):
        assert sorted(map(Variable, ["y", "x2", "x10", "x"])) == ["x", "x10", "x2", "y"]

    def test_interned(self):
        assert Variable("x") is Variable("x")

    def test_repr_and_name(self):
        assert repr(Variable("x")) == "Variable('x')"
        assert Variable("x").name == "x" and type(Variable("x").name) is str

    def test_substitution_rejects_a_plain_str_key(self):
        with pytest.raises(TypeError, match="maps Variable to Word"):
            Substitution({"x": parse_word("y")})


class TestParseFormat:
    def test_power_word(self):
        w = parse_word("x^9yx^3")
        assert len(w) == 13
        assert occ(w, X) == 12 and occ(w, Y) == 1

    def test_empty_word_token(self):
        assert parse_word("1") == EMPTY
        assert format_word(EMPTY) == "1"

    def test_plain_word(self):
        assert len(parse_word("xyxyx")) == 5
        assert format_word(parse_word("xyx")) == "xyx"

    def test_run_compression(self):
        assert format_word(Word([X] * 9 + [Y] + [X] * 3)) == "x^9yx^3"

    def test_indexed_variables(self):
        w = parse_word("x1^2x10y")
        assert w.letters == (Variable("x1"), Variable("x1"), Variable("x10"), Y)
        assert parse_word(format_word(w)) == w
        with pytest.raises(WordSyntaxError, match="bad variable token"):
            Variable("X")

    @pytest.mark.parametrize("bad", ["", "  ", "x^0", "X", "2x", "x^", "x y"])
    def test_rejects_malformed(self, bad):
        # on every call: no error is kept in the parse table
        for _ in range(2):
            with pytest.raises(WordSyntaxError):
                parse_word(bad)

    @pytest.mark.parametrize(
        "huge",
        ["x^999999999", "x^" + "9" * 5000, "xy" * (MAX_WORD_LENGTH // 2) + "x"],
        ids=["big-exponent", "5000-digit-exponent", "long-plain-text"],
    )
    def test_rejects_words_over_the_length_cap(self, huge):
        for _ in range(2):
            with pytest.raises(WordSyntaxError, match="more than"):
                parse_word(huge)

    def test_accepts_a_word_at_the_length_cap(self):
        assert len(parse_word(f"x^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH

    def test_cached_text_is_the_canonical_text(self):
        for text in ("xx", "x^02", "x^2"):
            assert format_word(parse_word(text)) == "x^2"
            assert format_word(parse_word(text)) == "x^2"  # served from the table and the cache

    def test_repeated_text_shares_one_word(self):
        assert parse_word("x^3yx") is parse_word("x^3yx") == parse_word(" xxxyx ")

    def test_parse_table_is_bounded(self):
        for i in range(5000):
            assert parse_word(f"x{i}y") == Word([Variable(f"x{i}"), Y])
            assert len(words._PARSED) <= 4096
        for text in (" " * 100 + "x", "x^" + "0" * 100 + "1", "x^100000"):
            assert len(parse_word(text)) in (1, 100000)
            assert text not in words._PARSED

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            w = rand_word(rng, 10)
            assert parse_word(format_word(w)) == w


class TestStatistics:
    def test_content(self):
        assert content(EMPTY) == frozenset()
        assert content(parse_word("xyxyx")) == frozenset({X, Y})
        assert content(parse_word("x^9yx^3")) == frozenset({X, Y})

    def test_occ(self):
        assert occ(EMPTY, X) == 0
        w = parse_word("xyxyx")
        assert occ(w, X) == 3 and occ(w, Y) == 2

    def test_ini(self):
        assert ini(EMPTY) == EMPTY
        assert ini(parse_word("xyxyx")) == parse_word("xy")
        assert ini(parse_word("yxyxx")) == parse_word("yx")
        assert ini(parse_word("xxyxz")) == parse_word("xyz")

    def test_fin(self):
        assert fin(EMPTY) == EMPTY
        assert fin(parse_word("xyxyx")) == parse_word("yx")
        assert fin(parse_word("xxyxz")) == parse_word("yxz")

    def test_occ_sums_to_length(self):
        rng = random.Random(5)
        for _ in range(200):
            w = rand_word(rng, 10)
            assert sum(occ(w, v) for v in content(w)) == len(w)

    def test_ini_properties(self):
        rng = random.Random(7)
        for _ in range(200):
            w = rand_word(rng, 10)
            first = ini(w)
            assert ini(first) == first
            assert content(first) == content(w)
            assert all(occ(first, v) == 1 for v in content(w))

    def test_fin_is_reversed_ini(self):
        rng = random.Random(9)
        for _ in range(200):
            w = rand_word(rng, 10)
            assert fin(w) == Word(ini(Word(w.letters[::-1])).letters[::-1])

    def test_fin_matches_the_last_occurrence_scan(self):
        rng = random.Random(11)
        for _ in range(300):
            w = rand_word(rng, 12, SIX)
            assert fin(w) == reference_fin(w)


class TestSubstitution:
    def test_swap(self):
        swap = Substitution({X: Word([Y]), Y: Word([X])})
        assert swap.apply(parse_word("xyxy")) == parse_word("yxyx")

    def test_identity_endomorphism(self):
        assert Substitution().apply(parse_word("xyxyx")) == parse_word("xyxyx")

    def test_erasing(self):
        erase = Substitution({X: EMPTY})
        assert erase.apply(parse_word("xyxyx")) == parse_word("y^2")

    def test_homomorphism(self):
        rng = random.Random(3)
        for _ in range(200):
            u, v = rand_word(rng, 10), rand_word(rng, 10)
            s = Substitution({X: rand_word(rng, 3), Y: rand_word(rng, 3)})
            assert s.apply(u * v) == s.apply(u) * s.apply(v)
        assert s.apply(EMPTY) == EMPTY

    def test_value_semantics(self):
        a = Substitution({X: parse_word("yy")})
        b = Substitution({X: parse_word("y^2")})
        assert a == b and hash(a) == hash(b)
        with pytest.raises(TypeError, match="maps Variable to Word"):
            Substitution({X: "yy"})


class TestWordAlgebra:
    def test_concatenation_identity(self):
        w = parse_word("xyx")
        assert w * EMPTY == w and EMPTY * w == w

    def test_power(self):
        assert Word([X]) ** 4 == parse_word("x^4")
        assert parse_word("xy") ** 0 == EMPTY
        with pytest.raises(ValueError, match="negative word power"):
            parse_word("xy") ** -1

    def test_shortlex_order(self):
        assert parse_word("z") < parse_word("xy")
        assert parse_word("xy") < parse_word("yx")

    def test_key_sorts_as_the_token_key(self):
        rng = random.Random(13)
        seeded = [rand_word(rng, 8, SIX) for _ in range(300)]
        assert sorted(seeded, key=lambda w: w.key) == sorted(seeded, key=reference_key)

    def test_power_factor_scan(self):
        assert has_kth_power_factor(parse_word("x^12"), 12)
        assert not has_kth_power_factor(parse_word("x^9yx^3"), 12)
        assert not has_kth_power_factor(parse_word("x^6yx^7"), 12)
        assert has_kth_power_factor(parse_word("xyxy"), 2)
        assert not has_kth_power_factor(parse_word("xyx"), 2)
        with pytest.raises(ValueError, match="power must be >= 1"):
            has_kth_power_factor(parse_word("xyx"), 0)
