import hashlib
import itertools
import random

import pytest

from monvar import (
    EMPTY,
    BuiltinKind,
    ContentUnbalancedError,
    DerivationCertificate,
    ExactClass,
    Identity,
    NotClosed,
    NotConnected,
    Presentation,
    Rewriter,
    SearchBounds,
    Substitution,
    Variable,
    Word,
    class_closure_verify,
    default_bounds,
    derive,
    enumerate_class,
    explore,
    format_certificate,
    format_word,
    isoterm_exact,
    match_pattern,
    one_step_successors,
    parse_certificate,
    parse_word,
    reference_presentation,
    verify_certificate,
)
from monvar import rewriting
from monvar.rewriting import clear_successor_cache

X, Y = Variable("x"), Variable("y")

POWER = Presentation.of("x = x^3")
SIGMA_X1 = Presentation.of("xyxyx = yxyxx", "xyyxx = yxxyx")
SIGMA_Y1 = Presentation.of("xyxyx = xyyxx")
SIGMA_E = Presentation.of("x^2 = x^3", "x^2y = xyx", "x^2y^2 = y^2x^2")


def brute_force_matches(pattern, target):
    """All substitutions reproducing target, by enumerating image tuples.

    Any image only uses letters of the target, and image lengths must solve
    occ_1*len_1 + ... + occ_k*len_k = len(target); everything satisfying that
    equation is tried.
    """
    variables = list(dict.fromkeys(pattern.letters))
    if not variables:
        return {Substitution()} if len(target) == 0 else set()
    counts = [pattern.letters.count(v) for v in variables]
    alphabet = sorted(set(target.letters)) or []
    total = len(target)
    results = set()

    def assign(i, remaining, images):
        if i == len(variables):
            if remaining == 0:
                subst = Substitution(dict(zip(variables, images)))
                if subst.apply(pattern) == target:
                    results.add(subst)
            return
        for length in range(remaining // counts[i] + 1):
            for letters in itertools.product(alphabet, repeat=length):
                assign(i + 1, remaining - counts[i] * length, images + [Word(letters)])

    assign(0, total, [])
    return results


class TestMatchPattern:
    def test_two_block_splits(self):
        matches = match_pattern(parse_word("xy"), parse_word("x^2y"))
        expected = {
            Substitution({X: parse_word(a), Y: parse_word(b)})
            for a, b in [("1", "x^2y"), ("x", "xy"), ("x^2", "y"), ("x^2y", "1")]
        }
        assert matches == expected

    def test_square_cannot_match_odd(self):
        assert match_pattern(parse_word("x^2"), parse_word("xyx")) == set()

    def test_no_match_across_distinct_profiles(self):
        # occurrence counts 3/2 cannot be reassembled into 2/3 counts
        assert match_pattern(parse_word("xyxyx"), parse_word("yxyxx")) == set()

    def test_domain_is_pattern_content(self):
        for subst in match_pattern(parse_word("xyx"), parse_word("xyx")):
            assert subst.domain == frozenset({X, Y})

    def test_empty_pattern_matches_only_empty(self):
        assert match_pattern(parse_word("1"), parse_word("1")) == {Substitution()}
        assert match_pattern(parse_word("1"), parse_word("x")) == set()

    def test_against_brute_force(self):
        rng = random.Random(2024)
        for _ in range(150):
            pattern = Word(rng.choices([X, Y], k=rng.randint(0, 4)))
            target = Word(rng.choices([X, Y, Variable("z")], k=rng.randint(0, 5)))
            assert match_pattern(pattern, target) == brute_force_matches(pattern, target)


class TestSuccessors:
    def test_power_growth(self):
        succ = one_step_successors(parse_word("x"), POWER)
        assert set(succ) == {parse_word("x"), parse_word("x^3")}

    def test_five_letter_class_jump(self):
        succ = one_step_successors(parse_word("xyxyx"), SIGMA_X1)
        assert set(succ) == {parse_word("xyxyx"), parse_word("yxyxx")}

    def test_empty_word_is_fixed(self):
        succ = one_step_successors(EMPTY, Presentation.of("xy = yx"))
        assert set(succ) == {EMPTY}

    def test_steps_replay(self):
        for word in (parse_word("xyxy"), parse_word("x^2y^2")):
            for q, step in one_step_successors(word, SIGMA_E).items():
                assert step.source(SIGMA_E) == word
                assert step.target(SIGMA_E) == q

    def test_unbalanced_system_rejected(self):
        with pytest.raises(ContentUnbalancedError):
            one_step_successors(parse_word("xy"), Presentation.of("xy = x"))

    def test_symmetry(self):
        rng = random.Random(31)
        for sigma in (POWER, SIGMA_E, SIGMA_X1):
            for _ in range(40):
                p = Word(rng.choices([X, Y], k=rng.randint(0, 6)))
                for q in one_step_successors(p, sigma):
                    assert p in one_step_successors(q, sigma)


def reference_successors(p, sigma):
    """Every q = a.t'.b with p = a.m.b and (m, t') an instance of an
    identity read either way, the instances found by brute force."""
    found = set()
    for ident in sigma.identities:
        for src, dst in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
            for i in range(len(p) + 1):
                for j in range(i, len(p) + 1):
                    for subst in brute_force_matches(src, p[i:j]):
                        found.add(p[:i] * subst.apply(dst) * p[j:])
    return found


class TestSuccessorOracle:
    # x2 and x10 sort as "x10" < "x2", unlike their indices
    NAMES = (Variable("x2"), Variable("x10"), Variable("y"))

    def random_system(self, rng):
        identities = []
        for _ in range(rng.randint(1, 2)):
            variables = rng.sample(self.NAMES, rng.randint(1, 3))
            sides = []
            for _ in range(2):
                letters = variables + rng.choices(variables, k=rng.randint(0, 2))
                rng.shuffle(letters)
                sides.append(Word(letters))
            identities.append(Identity(*sides))
        return Presentation(tuple(identities))

    def test_successor_sets_match_brute_force(self):
        rng = random.Random(5081)
        for _ in range(60):
            sigma = self.random_system(rng)
            for _ in range(4):
                p = Word(rng.choices(self.NAMES, k=rng.randint(0, 5)))
                successors = one_step_successors(p, sigma)
                assert set(successors) == reference_successors(p, sigma), (sigma, p)
                for q, step in successors.items():
                    assert step.source(sigma) == p and step.target(sigma) == q

    def test_certificates_replay_and_round_trip(self):
        rng = random.Random(7219)
        count = 0
        for _ in range(40):
            sigma = self.random_system(rng)
            u = Word(rng.choices(self.NAMES, k=rng.randint(0, 5)))
            bounds = SearchBounds(8, 4, 200)
            reached = sorted(explore(sigma, u, bounds).words, key=lambda w: w.key)
            for v in rng.sample(reached, min(3, len(reached))):
                cert = derive(sigma, u, v, bounds)
                assert verify_certificate(sigma, cert, u, v).ok, (sigma, u, v)
                assert parse_certificate(format_certificate(cert)) == cert
                count += len(cert)
        assert count >= 40

    def test_capped_successors_are_the_uncapped_ones_within_the_cap(self):
        # growing, shrinking and mixed-sign (x^2y = xy^2) orientations
        rng = random.Random(6113)
        systems = [Presentation.of("x^2y = xy^2"), POWER, Presentation.of("xyx = xy"), SIGMA_E]
        systems += [self.random_system(rng) for _ in range(40)]
        overflowed = 0
        for sigma in systems:
            rewriter = Rewriter(sigma)  # not shared, so every call expands afresh
            for _ in range(4):
                _, s = rewriting._encode(Word(rng.choices(self.NAMES, k=rng.randint(0, 5))))
                everything = rewriter._successors(s)
                assert everything.cap is None
                for cap in range(1, len(s) + 4):
                    limit = max(cap, len(s))
                    entry = rewriter._successors(s, limit)
                    # same codes in the same order, each with its uncapped link
                    within = [(q, link) for q, link in everything.successors if len(q) <= limit]
                    assert list(entry.successors) == within, (sigma, s, limit)
                    # a cap is kept exactly when a longer successor was left out
                    overflow = len(within) < len(everything.successors)
                    assert entry.cap == (limit if overflow else None), (sigma, s, limit)
                    overflowed += overflow
        assert overflowed >= 100
        # a start word longer than the cap still expands within its own length
        power = explore(Presentation.of("x = x^2"), parse_word("x^5"), SearchBounds(3))
        assert power.words == {parse_word(w) for w in ("x", "x^2", "x^3", "x^5")}
        assert not power.saturated
        # and its own length prunes nothing: xyx is alone in its class
        alone = explore(Presentation.of("x^2 = x^3"), parse_word("xyx"), SearchBounds(2))
        assert alone.words == {parse_word("xyx")} and alone.saturated

    def test_class_and_certificates_follow_word_key_order(self):
        a, b = Variable("x2"), Variable("x10")  # Word.key puts b first
        sigma = Presentation.of("xy = yx")
        start = Word((a, a, b, b))
        exploration = explore(sigma, start, SearchBounds(4, 8))
        # reference breadth-first search, every level and successor list
        # sorted by Word.key
        parents = {start: None}
        frontier = [start]
        while frontier:
            reached = []
            for p in frontier:
                for q, step in sorted(one_step_successors(p, sigma).items(), key=lambda item: item[0].key):
                    if q not in parents:
                        parents[q] = (p, step)
                        reached.append(q)
            frontier = sorted(reached, key=lambda w: w.key)
        enumeration = enumerate_class(start, sigma, SearchBounds(4, 8))
        assert enumeration.complete and enumeration.words == exploration.words == set(parents)
        for target in parents:
            steps = []
            cursor = target
            while parents[cursor] is not None:
                cursor, step = parents[cursor]
                steps.append(step)
            assert exploration.certificate_to(target) == DerivationCertificate(start, tuple(reversed(steps)))
        # baba is first reached from bbaa, the least of its parents by Word.key;
        # ordering x2 before x10 would pick abab instead
        chain = exploration.certificate_to(Word((b, a, b, a))).words(sigma)
        assert chain == [start, Word((b, b, a, a)), Word((b, a, b, a))]


class TestRewriter:
    def test_equal_presentations_share_one_rewriter(self):
        shared = Rewriter.of(Presentation.of("xy = yx", "x^2 = x"))
        assert Rewriter.of(Presentation.of("yx = xy", "x = x^2")) is shared
        clear_successor_cache()
        assert Rewriter.of(Presentation.of("xy = yx", "x^2 = x")) is not shared

    def test_unbalanced_system_has_no_rewriter(self):
        with pytest.raises(ContentUnbalancedError):
            Rewriter.of(Presentation.of("xy = x"))

    def test_counters(self):
        clear_successor_cache()
        rewriter = Rewriter.of(SIGMA_X1)
        assert (rewriter.calls, rewriter.hits, rewriter.misses, rewriter.memoised) == (0, 0, 0, 0)
        first = explore(SIGMA_X1, parse_word("xyxyx"))
        # a saturated closure expands each of its words once
        assert first.saturated and len(first.parents) == 2
        assert (rewriter.calls, rewriter.hits, rewriter.misses, rewriter.memoised) == (2, 0, 2, 2)
        explore(SIGMA_X1, parse_word("xyxyx"))
        assert (rewriter.calls, rewriter.hits, rewriter.misses, rewriter.memoised) == (4, 2, 2, 2)
        assert isoterm_exact(parse_word("yxyxx"), SIGMA_X1) is False
        assert (rewriter.calls, rewriter.hits, rewriter.misses) == (5, 3, 2)

    def test_memo_entry_budget_is_shared_and_kept(self, monkeypatch):
        clear_successor_cache()
        monkeypatch.setattr(rewriting, "MAX_MEMO_ENTRIES", 5)
        bounds = SearchBounds(8, 8)
        power, commuting = Rewriter.of(POWER), Rewriter.of(SIGMA_E)
        capped = [explore(POWER, parse_word("x"), bounds), explore(SIGMA_E, parse_word("xyxy"), bounds)]
        # one entry per memoised word and one per successor it holds
        entries = sum(1 + len(entry.successors) for rewriter in (power, commuting) for entry in rewriter._memo.values())
        assert entries == rewriting._memo_entries <= 5
        assert commuting.misses > 5
        clear_successor_cache()
        monkeypatch.undo()
        assert capped == [explore(POWER, parse_word("x"), bounds), explore(SIGMA_E, parse_word("xyxy"), bounds)]

    def test_registry_drops_its_oldest_rewriter(self):
        clear_successor_cache()
        first = Rewriter.of(Presentation.of("x = x^2"))
        for k in range(3, 3 + rewriting._MAX_REWRITERS):
            Rewriter.of(Presentation.of(f"x = x^{k}"))
        assert Rewriter.of(Presentation.of("x = x^2")) is not first
        clear_successor_cache()

    def test_evicted_rewriter_memoises_nothing(self):
        clear_successor_cache()
        evicted = Rewriter.of(POWER)
        explore(POWER, parse_word("x"), SearchBounds(8, 8))
        assert evicted.memoised > 0 and rewriting._memo_entries > 0
        for k in range(3, 3 + rewriting._MAX_REWRITERS):
            Rewriter.of(Presentation.of(f"x^2 = x^{k}"))
        # eviction empties the memo and takes its entries off the budget count
        assert (evicted.memoised, rewriting._memo_entries) == (0, 0)
        misses = evicted.misses
        _, code = rewriting._encode(parse_word("x"))
        assert "\0" * 3 in [q for q, _link in evicted._successors(code).successors]
        assert (evicted.misses, evicted.memoised, rewriting._memo_entries) == (misses + 1, 0, 0)
        clear_successor_cache()

    def test_caps_interplay_as_with_a_fresh_registry(self):
        # a memo warmed at one cap answers smaller, larger and uncapped
        # requests exactly as a fresh registry does
        cases = [
            (Presentation.of("x^2y = xy^2"), "x^2y"),
            (Presentation.of("xyx = xy"), "xyx"),
            (POWER, "x^2"),
            (SIGMA_E, "xyx"),
        ]
        for sigma, text in cases:
            start = parse_word(text)
            warm = explore(sigma, start, SearchBounds(4, 6))

            def explored(cap):
                found = explore(sigma, start, SearchBounds(cap, 6))
                return found.parents, found.saturated

            queries = [lambda cap=cap: explored(cap) for cap in (2, 3, 6, 8, 3)]
            queries.append(lambda: {w: one_step_successors(w, sigma) for w in warm.words})
            queries.append(lambda: class_closure_verify(warm.words, start, sigma))
            queries.append(lambda: explored(4))
            fresh = []
            for query in queries:
                clear_successor_cache()
                fresh.append(query())
            clear_successor_cache()
            explore(sigma, start, SearchBounds(4, 6))
            assert [query() for query in queries] == fresh, sigma
        clear_successor_cache()
        sigma, start = Presentation.of("x^2y = xy^2"), parse_word("x^2y")
        words = explore(sigma, start, SearchBounds(4)).words
        assert class_closure_verify(words, start, sigma) == NotClosed(start, parse_word("x^4y"))
        clear_successor_cache()


class TestDerive:
    def test_power_word_two_steps(self):
        cert = derive(POWER, parse_word("x^9yx^3"), parse_word("x^7yx^5"), SearchBounds(13, 4))
        assert cert is not None and len(cert) == 2
        assert verify_certificate(POWER, cert, parse_word("x^9yx^3"), parse_word("x^7yx^5")).ok

    def test_reflexivity(self):
        cert = derive(SIGMA_E, parse_word("xyxy"), parse_word("xyxy"))
        assert cert is not None and len(cert) == 0

    def test_three_step_chain(self):
        sigma = SIGMA_X1 | SIGMA_Y1
        cert = derive(sigma, parse_word("yxyxx"), parse_word("yxxyx"), SearchBounds(6, 4))
        assert cert is not None and len(cert) == 3
        chain = cert.words(sigma)
        assert chain == [parse_word(w) for w in ("yxyxx", "xyxyx", "xyyxx", "yxxyx")]

    def test_not_found_on_saturated_space(self):
        # odd powers only, so x^2 is never reached
        assert derive(POWER, parse_word("x"), parse_word("x^2"), SearchBounds(9, 10)) is None

    def test_symmetric_derivability(self):
        b = SearchBounds(8, 8)
        there = derive(SIGMA_E, parse_word("xyxy"), parse_word("y^2x^2"), b)
        back = derive(SIGMA_E, parse_word("y^2x^2"), parse_word("xyxy"), b)
        assert there is not None and back is not None
        rev = there.reversed(SIGMA_E)
        assert verify_certificate(SIGMA_E, rev, parse_word("y^2x^2"), parse_word("xyxy")).ok

    def test_derive_matches_exploration(self):
        b = SearchBounds(8, 8)
        exp = explore(SIGMA_E, parse_word("xyxy"), b)
        for target in sorted(exp.words, key=lambda w: w.key)[:10]:
            cert = derive(SIGMA_E, parse_word("xyxy"), target, b)
            assert cert is not None
            assert verify_certificate(SIGMA_E, cert, parse_word("xyxy"), target).ok


class TestVerifyCertificate:
    def test_check_is_true_exactly_when_ok(self):
        cert = derive(POWER, parse_word("x"), parse_word("x^3"), SearchBounds(5, 2))
        for check in (verify_certificate(POWER, cert), verify_certificate(Presentation(), cert)):
            assert bool(check) is check.ok
        assert verify_certificate(POWER, cert) and not verify_certificate(Presentation(), cert)

    def test_rejects_tampered_substitution(self):
        cert = derive(POWER, parse_word("x^9yx^3"), parse_word("x^7yx^5"), SearchBounds(13, 4))
        step = cert.steps[0]
        from dataclasses import replace

        tampered = DerivationCertificate(
            cert.start,
            (replace(step, subst=Substitution({X: parse_word("x^2")})),) + cert.steps[1:],
        )
        check = verify_certificate(POWER, tampered)
        assert not check.ok and check.step_index == 0

    def test_rejects_wrong_claimed_start(self):
        cert = derive(POWER, parse_word("x"), parse_word("x^3"), SearchBounds(5, 2))
        check = verify_certificate(POWER, cert, expect_start=parse_word("x^3"))
        assert not check.ok and check.step_index is None and "starts at" in check.reason

    def test_rejects_wrong_claimed_end(self):
        cert = DerivationCertificate(parse_word("xy"))
        check = verify_certificate(POWER, cert, expect_end=parse_word("yx"))
        assert not check.ok

    def test_rejects_repeated_words(self):
        forth = derive(POWER, parse_word("x"), parse_word("x^3"), SearchBounds(5, 2))
        back = forth.reversed(POWER)
        loop = DerivationCertificate(parse_word("x"), forth.steps + back.steps)
        check = verify_certificate(POWER, loop)
        assert not check.ok and "repeated" in check.reason

    def test_rejects_bad_identity_index(self):
        cert = derive(POWER, parse_word("x"), parse_word("x^3"), SearchBounds(5, 2))
        check = verify_certificate(Presentation(), cert)
        assert not check.ok and check.step_index == 0


class TestClassVerdicts:
    def test_exact_two_element_class(self):
        verdict = class_closure_verify(
            {parse_word("xyxyx"), parse_word("yxyxx")}, parse_word("xyxyx"), SIGMA_X1
        )
        assert isinstance(verdict, ExactClass)

    def test_exact_power_word_class(self):
        sigma = Presentation.of("x^9yx^3 = x^6yx^7", "x^7yx^5 = x^4yx^9")
        verdict = class_closure_verify(
            {parse_word("x^9yx^3"), parse_word("x^6yx^7")}, parse_word("x^9yx^3"), sigma
        )
        assert isinstance(verdict, ExactClass)

    def test_not_closed_witness(self):
        verdict = class_closure_verify(
            {parse_word("xyxyx")}, parse_word("xyxyx"), Presentation.of("xyxyx = yxyxx")
        )
        assert verdict == NotClosed(parse_word("xyxyx"), parse_word("yxyxx"))

    def test_not_connected_witness(self):
        members = {parse_word("xyxyx"), parse_word("yxyxx"), parse_word("z^3")}
        verdict = class_closure_verify(members, parse_word("xyxyx"), SIGMA_X1)
        assert verdict == NotConnected(parse_word("z^3"))

    def test_exact_path_shaped_class(self):
        # x^2y - xyx - yx^2: yx^2 lies len(members) - 1 steps from x^2y
        sigma = Presentation.of("x^2y = xyx", "xyx = yx^2")
        members = {parse_word("x^2y"), parse_word("xyx"), parse_word("yx^2")}
        verdict = class_closure_verify(members, parse_word("x^2y"), sigma)
        assert verdict == ExactClass(frozenset(members))

    def test_base_word_must_be_member(self):
        with pytest.raises(ValueError):
            class_closure_verify({parse_word("xy")}, parse_word("yx"), POWER)

    def test_exact_class_members_stay_inside(self):
        verdict = class_closure_verify(
            {parse_word("xyyxx"), parse_word("yxxyx")}, parse_word("xyyxx"), SIGMA_X1
        )
        assert isinstance(verdict, ExactClass)
        for member in verdict.words:
            assert set(one_step_successors(member, SIGMA_X1)) <= verdict.words

    @staticmethod
    def reference_verdict(candidate, w, sigma):
        """Closure first, over members and then successors in Word.key order;
        then breadth-first reachability from w."""
        members = sorted(candidate, key=lambda u: u.key)
        for member in members:
            for q in sorted(one_step_successors(member, sigma), key=lambda u: u.key):
                if q not in candidate:
                    return NotClosed(member, q)
        reached, frontier = {w}, [w]
        while frontier:
            frontier = [q for p in frontier for q in one_step_successors(p, sigma) if q not in reached]
            reached.update(frontier)
        for member in members:
            if member not in reached:
                return NotConnected(member)
        return ExactClass(frozenset(candidate))

    def test_verdicts_match_reference(self):
        systems = [SIGMA_X1, SIGMA_Y1, SIGMA_E, POWER, Presentation.of("xy = yx"), Presentation.of("xy = xyx")]
        extras = [parse_word("z^2"), parse_word("xz"), EMPTY]
        rng = random.Random(2203)
        kinds = {ExactClass: 0, NotClosed: 0, NotConnected: 0}
        for _ in range(300):
            sigma = rng.choice(systems)
            w = Word(rng.choices((X, Y), k=rng.randint(0, 5)))
            enumeration = sorted(enumerate_class(w, sigma, SearchBounds(7, 3, 30)).words, key=lambda u: u.key)
            candidate = {w} | set(rng.sample(enumeration, rng.randint(0, len(enumeration))))
            if rng.random() < 0.3:
                candidate |= set(enumeration)
            if rng.random() < 0.4:
                candidate |= set(rng.sample(extras, rng.randint(1, 2)))
            if rng.random() < 0.2:
                candidate.add(Word(rng.choices((X, Y), k=rng.randint(0, 5))))
            base = w if rng.random() < 0.75 else rng.choice(sorted(candidate, key=lambda u: u.key))
            verdict = class_closure_verify(candidate, base, sigma)
            # dataclass equality compares witnesses and ExactClass word sets as sets
            assert verdict == self.reference_verdict(candidate, base, sigma), (sigma, base, candidate)
            kinds[type(verdict)] += 1
        assert min(kinds.values()) >= 30, kinds

    def test_not_closed_wins_over_not_connected(self):
        # xyxyx is unreachable from z and its successor yxyxx escapes
        members = {parse_word("z"), parse_word("xyxyx")}
        verdict = class_closure_verify(members, parse_word("z"), Presentation.of("xyxyx = yxyxx"))
        assert verdict == NotClosed(parse_word("xyxyx"), parse_word("yxyxx"))


class TestIsoterms:
    def test_isoterm_for_one_identity_system(self):
        assert isoterm_exact(parse_word("yxyxx"), SIGMA_Y1)

    def test_single_letter_isoterm(self):
        assert isoterm_exact(parse_word("x"), Presentation.of("x^2 = x^3"))

    def test_square_is_not_isoterm(self):
        assert not isoterm_exact(parse_word("x^2"), Presentation.of("x^2 = x^3"))

    def test_isoterm_iff_singleton_enumeration(self):
        for word, sigma in [
            (parse_word("yxyxx"), SIGMA_Y1),
            (parse_word("x^2"), Presentation.of("x^2 = x^3")),
            (parse_word("x"), Presentation.of("x^2 = x^3")),
        ]:
            enumeration = enumerate_class(word, sigma, SearchBounds(12, 10))
            singleton = enumeration.complete and enumeration.words == frozenset({word})
            assert isoterm_exact(word, sigma) == singleton


class TestEnumerateClass:
    def test_capped_infinite_class_still_reaches(self):
        enumeration = enumerate_class(parse_word("xyxy"), SIGMA_E, SearchBounds(6, 10))
        assert not enumeration.complete
        assert parse_word("yxyx") in enumeration.words

    def test_odd_powers_exceed_cap(self):
        enumeration = enumerate_class(parse_word("x"), POWER, SearchBounds(7, 10, 100))
        assert not enumeration.complete
        assert enumeration.words == {parse_word(w) for w in ("x", "x^3", "x^5", "x^7")}

    def test_complete_singleton(self):
        enumeration = enumerate_class(parse_word("yxyxx"), SIGMA_Y1)
        assert enumeration.complete
        assert enumeration.words == frozenset({parse_word("yxyxx")})

    def test_complete_matches_exact_class(self):
        enumeration = enumerate_class(parse_word("xyxyx"), SIGMA_X1)
        assert enumeration.complete
        verdict = class_closure_verify(enumeration.words, parse_word("xyxyx"), SIGMA_X1)
        assert isinstance(verdict, ExactClass)


class TestPresentations:
    def test_orientation_and_dedup(self):
        sigma = Presentation.of("yx = xy", "xy = yx", "xy = yx")
        assert len(sigma) == 1
        assert sigma.identities[0] == Identity(parse_word("xy"), parse_word("yx"))

    def test_file_format_round_trip(self):
        text = "# system\nx^2 = x^3\n\nxy = yx  # commutative\n"
        sigma = Presentation.parse(text)
        assert len(sigma) == 2
        assert Presentation.parse(sigma.format()) == sigma

    def test_bad_identity_line(self):
        with pytest.raises(ValueError):
            Presentation.parse("xy == yx")


class TestCertificateSerialization:
    def test_round_trip(self):
        certs = [
            derive(POWER, parse_word("x^9yx^3"), parse_word("x^7yx^5"), SearchBounds(13, 4)),
            derive(SIGMA_X1 | SIGMA_Y1, parse_word("yxyxx"), parse_word("yxxyx"), SearchBounds(6, 4)),
            DerivationCertificate(parse_word("xy")),
        ]
        for cert in certs:
            assert parse_certificate(format_certificate(cert)) == cert

    def test_parsed_copy_verifies(self):
        sigma = SIGMA_X1 | SIGMA_Y1
        cert = derive(sigma, parse_word("yxyxx"), parse_word("yxxyx"), SearchBounds(6, 4))
        again = parse_certificate(format_certificate(cert))
        assert verify_certificate(sigma, again, parse_word("yxyxx"), parse_word("yxxyx")).ok

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_certificate("step: nonsense\n")

    def test_rejects_binding_without_equals(self):
        text = "start: x\nstep: prefix=1 identity=0 direction=forward subst=x suffix=1\n"
        with pytest.raises(ValueError, match="bad substitution binding"):
            parse_certificate(text)


class TestBounds:
    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchBounds(0)
        with pytest.raises(ValueError):
            SearchBounds(5, max_depth=0)

    def test_default_bounds_cover_arguments_and_sides(self):
        b = default_bounds(SIGMA_X1, parse_word("x^9yx^3"))
        assert b.max_word_length == 26

    def test_search_fills_an_unset_length_cap(self):
        assert SearchBounds() == SearchBounds(None, 10, 1_000_000)
        with pytest.raises(ValueError):
            SearchBounds(0)
        w = parse_word("x^9yx^3")
        for depth in (1, 10):
            used = explore(SIGMA_X1, w, SearchBounds(max_depth=depth)).bounds
            assert used == SearchBounds(default_bounds(SIGMA_X1, w).max_word_length, depth)


# SHA-256 of the certificate texts of acceptance criterion 7's decider sweep
# (every pair of words of length <= 3 over {x, y} under the four reference
# bases, bounds len 10 / depth 8), in (kind, u, v) order.  Any change in
# breadth-first order or in which step is recorded for a successor shows here.
CRITERION_7_CERTIFICATES_SHA256 = "b85fda141ef9f435852d192e12ddb0fafcd2ea225deef3482b5c1e20d3312d12"


def test_criterion_7_certificates_are_byte_identical():
    bounds = SearchBounds(max_word_length=10, max_depth=8, max_states=10**6)
    words = [Word(p) for n in range(4) for p in itertools.product((X, Y), repeat=n)]
    digest = hashlib.sha256()
    count = 0
    for kind in (BuiltinKind.SL, BuiltinKind.C, BuiltinKind.LRB, BuiltinKind.RRB):
        sigma = reference_presentation(kind)
        for u in words:
            searched = explore(sigma, u, bounds)
            for v in words:
                cert = searched.certificate_to(v)
                if cert is not None:
                    count += 1
                    text = f"{kind.value}: {format_word(u)} = {format_word(v)}\n{format_certificate(cert)}"
                    digest.update(text.encode())
    assert count == 218
    assert digest.hexdigest() == CRITERION_7_CERTIFICATES_SHA256
