import hashlib
import itertools
import random

import pytest

from monvar import (
    C,
    LRB,
    MON,
    RRB,
    SL,
    T,
    Builtin,
    BuiltinKind,
    ContentUnbalancedError,
    Identity,
    Join,
    Meet,
    Presentation,
    Presented,
    Rewriter,
    SearchBounds,
    Variable,
    Verdict,
    Word,
    c_normal_form,
    derive,
    explore,
    isoterm_for,
    parse_variety,
    parse_word,
    reference_presentation,
    satisfies,
)
from monvar.varieties import MAX_NESTING

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

SIGMA_X1 = Presentation.of("xyxyx = yxyxx", "xyyxx = yxxyx")
SIGMA_Y1 = Presentation.of("xyxyx = xyyxx")
SIGMA_BAD = Presentation.of("x = xy")
REFERENCE_KINDS = (BuiltinKind.SL, BuiltinKind.C, BuiltinKind.LRB, BuiltinKind.RRB)


def words_over(letters, max_len):
    return [Word(p) for n in range(max_len + 1) for p in itertools.product(letters, repeat=n)]


def words_over_xy(max_len):
    return words_over((X, Y), max_len)


class TestDeciders:
    def test_lrb_by_ini(self):
        assert satisfies(LRB, Identity.parse("xyxy = xyyx")) is Verdict.YES
        assert satisfies(LRB, Identity.parse("yxyxx = xyxyx")) is Verdict.NO

    def test_rrb_by_fin(self):
        assert satisfies(RRB, Identity.parse("xyxy = yxxy")) is Verdict.YES
        assert satisfies(RRB, Identity.parse("xy = yx")) is Verdict.NO

    def test_c_by_normal_form(self):
        assert satisfies(C, Identity.parse("x^2y = yx^3")) is Verdict.YES
        assert satisfies(C, Identity.parse("x = x^2")) is Verdict.NO

    def test_sl_by_content(self):
        assert satisfies(SL, Identity.parse("xy = y^2x^3")) is Verdict.YES
        assert satisfies(SL, Identity.parse("xy = x")) is Verdict.NO

    def test_t_satisfies_everything(self):
        assert satisfies(T, Identity.parse("x = y")) is Verdict.YES
        assert satisfies(T, Identity.parse("1 = x^4")) is Verdict.YES

    def test_rrb_is_reversed_lrb(self):
        for u in words_over_xy(4)[:20]:
            for v in words_over_xy(3):
                assert satisfies(RRB, Identity(u, v)) == satisfies(
                    LRB, Identity(Word(u.letters[::-1]), Word(v.letters[::-1]))
                )


class TestCNormalForm:
    def test_exponent_cap(self):
        assert c_normal_form(parse_word("x^3y")) == parse_word("x^2y")

    def test_empty(self):
        assert c_normal_form(parse_word("1")) == parse_word("1")

    def test_sorts_variables(self):
        assert c_normal_form(parse_word("yx")) == parse_word("xy")

    def test_normal_form_is_reachable(self):
        sigma = reference_presentation(BuiltinKind.C)
        cert = derive(sigma, parse_word("x^3y"), parse_word("x^2y"))
        assert cert is not None
        cert2 = derive(sigma, parse_word("yx"), parse_word("xy"))
        assert cert2 is not None and len(cert2) == 1


class TestComposition:
    def test_join_refutes_through_any_component(self):
        assert satisfies(Join((C, LRB)), Identity.parse("x^2y^2 = y^2x^2")) is Verdict.NO

    def test_join_yes_needs_all_components(self):
        ident = Identity.parse("x^2yx = x^3yx")
        assert satisfies(C, ident) is Verdict.YES
        assert satisfies(LRB, ident) is Verdict.YES
        assert satisfies(Join((C, LRB)), ident) is Verdict.YES

    def test_join_monotone(self):
        for u in words_over_xy(3):
            for v in words_over_xy(3):
                ident = Identity(u, v)
                joined = satisfies(Join((C, LRB)), ident)
                if joined is Verdict.YES:
                    assert satisfies(C, ident) is Verdict.YES
                    assert satisfies(LRB, ident) is Verdict.YES

    def test_meet_from_union_of_presentations(self):
        meet = Meet((Presented(SIGMA_Y1), Presented(SIGMA_X1)))
        assert satisfies(meet, Identity.parse("yxyxx = yxxyx")) is Verdict.YES

    def test_meet_inherits_component_yes(self):
        meet = Meet((T, Presented(SIGMA_X1)))
        assert satisfies(meet, Identity.parse("x = y")) is Verdict.YES

    def test_meet_never_answers_no(self):
        meet = Meet((SL, LRB))
        verdict = satisfies(meet, Identity.parse("xy = x"))
        assert verdict is Verdict.UNKNOWN_COMPOSITION

    def test_presented_unknown_is_not_no(self):
        # RRB satisfies both identities of X1, so lies in its variety, and fails xy = yx
        verdict = satisfies(Presented(SIGMA_X1), Identity.parse("xy = yx"), SearchBounds(6, 3, 100))
        assert verdict is Verdict.NO
        # every built-in model of x = x^3 satisfies this identity, and the class
        # of x^9yx^3 is infinite, so a search that misses within its caps is Unknown
        identity = Identity.parse("x^9yx^3 = x^7yx^5")
        verdict = satisfies(Presented(Presentation.of("x = x^3")), identity, SearchBounds(12))
        assert verdict is Verdict.UNKNOWN_BOUNDS

    def test_join_with_an_unknown_part_is_unknown(self):
        # SL says Yes; every built-in model of x = x^3 satisfies x = x^2, and no search derives it
        join = Join((Presented(Presentation.of("x = x^3")), SL))
        assert satisfies(join, Identity.parse("x = x^2")) is Verdict.UNKNOWN_COMPOSITION


class TestContentBalance:
    # every query on a handle with an unbalanced presented part raises, even
    # where a built-in part decides the composite before that part is asked
    def test_presented_handle_rejects_unbalanced_system(self):
        with pytest.raises(ContentUnbalancedError, match="x = xy is not content-balanced"):
            Presented(SIGMA_BAD)

    def test_join_decided_by_builtin(self):
        with pytest.raises(ContentUnbalancedError):
            satisfies(Join((SL, Presented(SIGMA_BAD))), Identity.parse("x = xy"))

    def test_meet_decided_by_builtin(self):
        with pytest.raises(ContentUnbalancedError):
            satisfies(Meet((LRB, Presented(SIGMA_BAD))), Identity.parse("xy = xyx"))

    def test_join_isoterm_decided_by_first_class(self):
        with pytest.raises(ContentUnbalancedError):
            isoterm_for(Join((MON, Presented(SIGMA_BAD))), parse_word("x"))


class TestModelPruning:
    # A built-in that satisfies every identity of a presentation lies in its
    # variety, so an identity it fails fails there too: the answer is No, the
    # identity has no derivation, and it is not searched.
    EXTENSIONS = ("x = x^3", "x^2 = x", "xy = yx", "xyx = x^2y", "xyx = yx")

    def test_pruned_identities_have_no_derivation(self):
        bounds = SearchBounds(6, 6)
        words = words_over_xy(4)
        for kind in REFERENCE_KINDS:
            basis = reference_presentation(kind)
            for sigma in (basis, *(basis | Presentation.of(e) for e in self.EXTENSIONS)):
                models = [
                    Builtin(k)
                    for k in BuiltinKind
                    if all(satisfies(Builtin(k), ident).is_yes for ident in sigma.identities)
                ]
                handle, pruned = Presented(sigma), 0
                for u, v in itertools.combinations(words, 2):
                    ident = Identity(u, v)
                    if any(satisfies(model, ident).is_no for model in models):
                        pruned += 1
                        assert satisfies(handle, ident, bounds) is Verdict.NO
                        assert derive(sigma, u, v, bounds) is None, (sigma, ident)
                assert pruned > 0

    def assert_no_search(self, sigma, handle, identity, verdict):
        rewriter = Rewriter.of(sigma)
        calls = rewriter.calls
        assert satisfies(handle, identity) is verdict
        assert Rewriter.of(sigma) is rewriter
        assert rewriter.calls == calls

    def test_presented_handle(self):
        # LRB itself is the built-in model that fails xy = yx
        lrb = reference_presentation(BuiltinKind.LRB)
        self.assert_no_search(lrb, Presented(lrb), Identity.parse("xy = yx"), Verdict.NO)

    # The SL basis derives xy = yx, so only stopping at the built-in's No
    # keeps its rewriter idle.
    def test_join_stops_at_builtin_no(self):
        sl = reference_presentation(BuiltinKind.SL)
        self.assert_no_search(sl, Join((LRB, Presented(sl))), Identity.parse("xy = yx"), Verdict.NO)

    def test_meet_stops_at_builtin_yes(self):
        lrb = reference_presentation(BuiltinKind.LRB)
        self.assert_no_search(lrb, Meet((SL, Presented(lrb))), Identity.parse("xy = yx"), Verdict.YES)


def verdict_stream(seed, count):
    """A seeded stream of satisfies/isoterm_for verdicts on built-in,
    presented and (nested) meet/join handles over words in x, y of length <= 4."""
    rng = random.Random(seed)
    words = words_over_xy(4)
    bases = [reference_presentation(kind) for kind in REFERENCE_KINDS]
    extensions = ("x = x^3", "xyx = x^2y", "x^2 = x", "xyx = yx")
    simple = [T, SL, C, LRB, RRB, MON]
    simple += [Presented(basis) for basis in bases]
    simple += [Presented(basis | Presentation.of(e)) for basis, e in zip(bases, extensions)]
    pool = simple + [rng.choice((Meet, Join))((rng.choice(simple), rng.choice(simple))) for _ in range(16)]
    pool += [rng.choice((Meet, Join))((rng.choice(pool), rng.choice(pool))) for _ in range(8)]
    bounds = SearchBounds(6, 6)
    for _ in range(count):
        handle = rng.choice(pool)
        if rng.random() < 0.75:
            yield satisfies(handle, Identity(rng.choice(words), rng.choice(words)), bounds)
        else:
            yield isoterm_for(handle, rng.choice(words), bounds)


def test_verdict_stream_digest():
    # Re-pinned when a presented handle began to answer No where one of its
    # built-in models fails the identity: 344 of the 1,000 verdicts went from
    # Unknown to No and one from Unknown to Yes, and none changed otherwise.
    verdicts = "".join(f"{verdict.value}\n" for verdict in verdict_stream(0, 1000))
    digest = hashlib.sha256(verdicts.encode()).hexdigest()
    assert digest == "b4965e6b1f65630fa46091735dd59ac31bfff5d5ebb4d6d3e5cee322ab98698e"


class TestMon:
    def test_mon_satisfies_only_trivial_identities(self):
        for u in words_over_xy(3):
            for v in words_over_xy(3):
                verdict = satisfies(MON, Identity(u, v))
                if u == v:
                    assert verdict is Verdict.YES
                else:
                    assert verdict is not Verdict.YES

    def test_every_word_is_an_isoterm_for_mon(self):
        for text in ("1", "x", "xyxy", "x^9yx^3"):
            assert isoterm_for(MON, parse_word(text)) is Verdict.YES


class TestIsoterms:
    def test_builtin_answers(self):
        assert isoterm_for(SL, parse_word("x")) is Verdict.NO
        assert isoterm_for(SL, parse_word("1")) is Verdict.YES
        assert isoterm_for(C, parse_word("x")) is Verdict.YES
        assert isoterm_for(C, parse_word("x^2")) is Verdict.NO
        assert isoterm_for(C, parse_word("xy")) is Verdict.NO
        assert isoterm_for(LRB, parse_word("1")) is Verdict.YES
        assert isoterm_for(LRB, parse_word("x")) is Verdict.NO
        assert isoterm_for(T, parse_word("1")) is Verdict.NO

    def test_builtin_isoterms_match_exact_classes(self):
        # the builtin answer must agree with bounded class exploration: a
        # non-isoterm has a second class member within strict caps
        bounds = SearchBounds(8, 8)
        for kind in (BuiltinKind.SL, BuiltinKind.C, BuiltinKind.LRB, BuiltinKind.RRB):
            sigma = reference_presentation(kind)
            for text in ("1", "x", "x^2", "xy", "xyx"):
                w = parse_word(text)
                reachable = explore(sigma, w, bounds).words
                if isoterm_for(Builtin(kind), w) is Verdict.YES:
                    assert reachable == {w}
                else:
                    assert len(reachable) > 1

    def test_join_isoterm_with_separating_decider(self):
        join = Join((LRB, Presented(SIGMA_X1)))
        assert isoterm_for(join, parse_word("yxyxx")) is Verdict.YES

    def test_join_isoterm_no_when_components_agree(self):
        # both components identify xyxyx with yxyxx, so the join does too
        join = Join((Presented(SIGMA_X1), Presented(SIGMA_X1)))
        assert isoterm_for(join, parse_word("xyxyx")) is Verdict.NO

    def test_meet_isoterm_needs_every_component(self):
        meet = Meet((Presented(SIGMA_Y1), Join((LRB, Presented(SIGMA_X1)))))
        assert isoterm_for(meet, parse_word("yxyxx")) is Verdict.YES
        with_sl = Meet((SL, Presented(SIGMA_Y1)))
        assert isoterm_for(with_sl, parse_word("yxyxx")) is Verdict.NO

    def test_join_without_presented_class_is_unknown(self):
        assert isoterm_for(Join((SL, C)), parse_word("xy")) is Verdict.UNKNOWN_COMPOSITION

    def test_meet_with_an_unknown_part_is_unknown(self):
        # xy is an isoterm for the presented part; the join part is undecided
        meet = Meet((Join((SL, C)), Presented(Presentation.of("xyxyx = xyyxx"))))
        assert isoterm_for(meet, parse_word("xy")) is Verdict.UNKNOWN_COMPOSITION

    def test_join_isoterm_with_an_undecided_member(self):
        # the class {xyxyx, yxyxx} is complete; LRB satisfies x = x^3 and
        # fails xyxyx = yxyxx, so the join's class is {xyxyx}
        join = Join((Presented(SIGMA_X1), Presented(Presentation.of("x = x^3"))))
        assert isoterm_for(join, parse_word("xyxyx")) is Verdict.YES
        # every built-in model of xy = y^2xy (T, SL, RRB) satisfies xyxyx = yxyxx,
        # and its classes are infinite, so the member yxyxx stays undecided
        join = Join((Presented(SIGMA_X1), Presented(Presentation.of("xy = y^2xy"))))
        assert isoterm_for(join, parse_word("xyxyx")) is Verdict.UNKNOWN_COMPOSITION

    def test_join_abandons_an_incomplete_class_at_its_first_pruning(self):
        # xyyx has a successor longer than 6 under each part, so neither class
        # is complete within the caps, and each search ends at its first word
        parts = (Presented(Presentation.of("xy = xyx")), Presented(Presentation.of("xy = yxy")))
        rewriters = [Rewriter.of(part.presentation) for part in parts]
        calls = [rewriter.calls for rewriter in rewriters]
        verdict = isoterm_for(Join(parts), parse_word("xyyx"), SearchBounds(6, 6))
        assert verdict is Verdict.UNKNOWN_COMPOSITION
        assert [rewriter.calls - before for rewriter, before in zip(rewriters, calls)] == [1, 1]


class TestHandleExpressions:
    def test_builtin_names(self):
        assert parse_variety("LRB") == LRB
        assert parse_variety("MON") == MON

    def test_composition(self):
        handle = parse_variety("meet(SL, join(C, LRB))")
        assert handle == Meet((SL, Join((C, LRB))))

    def test_file_reference(self, tmp_path):
        path = tmp_path / "system.ids"
        path.write_text("xy = yx\n")
        handle = parse_variety(f"join(LRB, @{path})")
        assert isinstance(handle, Join)
        assert handle.parts[1] == Presented(Presentation.of("xy = yx"))

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            parse_variety("XYZ")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ValueError):
            parse_variety("meet(SL, C) extra")
        with pytest.raises(ValueError, match="expected ',' or '\\)'"):
            parse_variety("meet(join(SL) C)")
        with pytest.raises(ValueError, match="empty file reference"):
            parse_variety("@")

    def test_nesting_cap(self):
        at_cap = "meet(" * MAX_NESTING + "SL" + ")" * MAX_NESTING
        assert isinstance(parse_variety(at_cap), Meet)
        with pytest.raises(ValueError, match="nested deeper"):
            parse_variety("join(" + at_cap + ")")

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            Meet(())
        with pytest.raises(ValueError, match="join of an empty list"):
            Join(())


class TestDeciderOracleSmoke:
    # a small version of the full decider/oracle sweep in the acceptance
    # suite: all pairs of words of length <= 3 over two and three letters
    def test_deciders_agree_with_search(self):
        for letters, bounds in (((X, Y), SearchBounds(8, 8)), ((X, Y, Z), SearchBounds(6, 6))):
            words = words_over(letters, 3)
            for kind in (BuiltinKind.SL, BuiltinKind.C, BuiltinKind.LRB, BuiltinKind.RRB):
                sigma = reference_presentation(kind)
                handle = Builtin(kind)
                for u in words:
                    reachable = explore(sigma, u, bounds).words
                    for v in words:
                        assert satisfies(handle, Identity(u, v)).is_yes == (v in reachable), (kind, u, v)
