import dataclasses
import gc
import hashlib
import itertools
import math
import random
import weakref
from functools import lru_cache

import pytest

from monvar import (
    EMPTY,
    Builtin,
    ContentUnbalancedError,
    DerivationCertificate,
    ExactClass,
    Identity,
    NotClosed,
    NotConnected,
    Presentation,
    RewriteStep,
    Rewriter,
    SearchBounds,
    Substitution,
    Variable,
    Word,
    class_closure_verify,
    content,
    default_bounds,
    derive,
    explore,
    format_certificate,
    format_word,
    isoterm_exact,
    match_pattern,
    one_step_successors,
    parse_certificate,
    parse_word,
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

    def test_more_variables_than_one_loop_nest_holds(self):
        pattern = Word([Variable(f"x{i}") for i in range(25)])
        target = parse_word("xy")
        matches = match_pattern(pattern, target)
        # xy goes to one variable, or x and y to two in order: 25 + 300 ways
        assert len(matches) == 325
        assert all(subst.apply(pattern) == target for subst in matches)
        # (xy)^1500 against itself: x, y to x, y, or one of them to xy and
        # the other to 1
        long = parse_word("xy" * 1500)
        matches = match_pattern(long, long)
        assert len(matches) == 3 and all(subst.apply(long) == long for subst in matches)

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

    def test_each_word_is_its_own_successor_by_the_first_rule(self):
        # prefix 1, suffix p and every image empty, under the first identity
        # read forward; a presentation with no rule gives no successor at all
        kinds = (Builtin.SL, Builtin.C, Builtin.LRB, Builtin.RRB)
        systems = [*(kind.basis for kind in kinds), POWER, SIGMA_E, SIGMA_X1, Presentation.of("1 = 1"), Presentation.of("zx = xz")]
        words = [EMPTY, *(parse_word(w) for w in ("x", "xy", "yx^2y", "x^2yxy"))]
        for sigma in systems:
            first = Substitution(dict.fromkeys(content(sigma.identities[0].lhs), EMPTY))
            for p in words:
                assert one_step_successors(p, sigma)[p] == RewriteStep(EMPTY, p, 0, True, first), (sigma, p)
        for p in (EMPTY, parse_word("xy")):
            assert one_step_successors(p, Presentation()) == {}

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


def reference_matches(runs, slots, s, start):
    """Every (end, images) with the pattern runs (as made by _pattern)
    matching s[start:end] under slot j -> images[j], in depth-first order:
    each variable's first run tries images of increasing length, and later
    runs must repeat the chosen image.  This is the generic matcher the
    compiled kernels replace, kept as their reference."""
    n = len(s)
    last = len(runs) - 1
    images = [""] * slots
    found = []
    frames = []  # (run index, position, image length)
    k, pos = 0, start
    while True:
        while k <= last:
            slot, repeat, first, _ = runs[k]
            if first and k == last:
                # the final run holds the last slot's only occurrences: every
                # image that fits ends a match, so they are listed without frames
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
        # backtrack to the latest first run that can take a longer image
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


def reference_expand(sigma, s, cap):
    """The memo entry Rewriter._expand(s, cap) must give, by building every
    successor of every match and dropping s and those longer than cap, with
    each link's rule given as (identity index, forward, variables by slot)."""
    found = {}
    overflow = False
    shapes = set()
    for index, ident in enumerate(sigma.identities):
        for forward in (True, False):
            src, dst = (ident.lhs, ident.rhs) if forward else (ident.rhs, ident.lhs)
            runs, variables = rewriting._pattern(src.letters)
            slot = {v: j for j, v in enumerate(variables)}
            # a rule that is an earlier one with its variables renamed adds no link
            shape = (runs, tuple(slot[v] for v in dst.letters))
            if shape in shapes:
                continue
            shapes.add(shape)
            for i in range(len(s) + 1):
                for end, images in reference_matches(runs, len(variables), s, i):
                    q = s[:i] + "".join(images[slot[v]] for v in dst.letters) + s[end:]
                    if len(q) > cap:
                        overflow = True
                    elif q not in found and q != s:
                        found[q] = (i, end, (index, forward, variables), images)
    order = sorted(found, key=lambda q: (len(q), q))
    return [(q, found[q]) for q in order], cap if overflow else None


def resolved(rewriter, s, entry):
    """The rewriter entry of the word code s in reference_expand's form, each
    successor's step read through rewriter._step: prefix end, suffix start,
    the rule as (identity index, forward, variables by slot), and the images
    by slot as codes."""
    alphabet = tuple(Variable(f"a{k}") for k in range(max(map(ord, s), default=-1) + 1))
    code = {v: chr(k) for k, v in enumerate(alphabet)}
    variables = {(rule.identity_index, rule.forward): rule.variables for rule in rewriter._rules}
    successors = []
    for q in entry.successors:
        step = rewriter._step(alphabet, s, q)
        slots = variables[step.identity_index, step.forward]
        subst = dict(step.subst.items())
        images = tuple("".join(code[v] for v in subst[x].letters) for x in slots)
        rule = (step.identity_index, step.forward, slots)
        successors.append((q, (len(step.prefix), len(s) - len(step.suffix), rule, images)))
    return successors, entry.cap


def reference_explore(sigma, start, bounds, stop_at=None):
    """The parents and saturation explore must give: breadth-first search
    with every level and successor list sorted by Word.key, each successor
    admitted unless seen, longer than the length cap or past the state cap,
    stopping once stop_at is admitted."""
    parents = {start: None}
    if stop_at == start:
        return parents, False
    frontier = [start]
    pruned = False
    for _ in range(bounds.max_depth):
        reached = []
        for p in frontier:
            for q, step in sorted(one_step_successors(p, sigma).items(), key=lambda item: item[0].key):
                if q in parents:
                    continue
                if len(q) > bounds.max_word_length or len(parents) >= bounds.max_states:
                    pruned = True
                    continue
                parents[q] = (p, step)
                reached.append(q)
                if q == stop_at:
                    return parents, False
        frontier = sorted(reached, key=lambda w: w.key)
    return parents, not frontier and not pruned


def reference_first_pruning(sigma, start, bounds):
    """Where reference_explore first prunes: how many words it has expanded
    then, the last of them, and its words in insertion order when it began
    expanding that word and when it pruned; None if it prunes nothing."""
    parents = {start: None}
    frontier = [start]
    expanded = 0
    for _ in range(bounds.max_depth):
        reached = []
        for p in frontier:
            expanded += 1
            before = list(parents)
            for q in sorted(one_step_successors(p, sigma), key=lambda w: w.key):
                if q in parents:
                    continue
                if len(q) > bounds.max_word_length or len(parents) >= bounds.max_states:
                    return expanded, p, before, list(parents)
                parents[q] = p
                reached.append(q)
        frontier = sorted(reached, key=lambda w: w.key)
    return None


def reference_certificate(parents, start, target):
    steps = []
    cursor = target
    while parents[cursor] is not None:
        cursor, step = parents[cursor]
        steps.append(step)
    return DerivationCertificate(start, tuple(reversed(steps)))


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

    def test_successors_commute_with_renaming_letters(self):
        # for a permutation pi of a word's letters, the successors of pi(w)
        # are pi(q), each by pi(step): the same identity and direction, with
        # pi applied to the prefix, suffix and images; then a word over more
        # than 256 variables, whose codes run past chr(255)
        rng = random.Random(2917)
        cases = []
        for _ in range(60):
            sigma = self.random_system(rng)
            cases += [(sigma, Word(rng.choices(self.NAMES, k=rng.randint(1, 6)))) for _ in range(4)]
        many = [Variable(f"x{k}") for k in range(300)]
        cases.append((Presentation.of("x^2 = x^3"), Word([v for v in many for _ in range(rng.randint(1, 2))])))
        renamed = 0
        for sigma, w in cases:
            letters = sorted(set(w.letters), key=lambda v: v.name)
            pi = dict(zip(letters, rng.sample(letters, len(letters))))

            def rename(word):
                return Word([pi[v] for v in word.letters])

            def rename_step(step):
                subst = Substitution({v: rename(image) for v, image in step.subst.items()})
                return RewriteStep(rename(step.prefix), rename(step.suffix), step.identity_index, step.forward, subst)

            clear_successor_cache()
            expected = {rename(q): rename_step(step) for q, step in one_step_successors(w, sigma).items()}
            assert one_step_successors(rename(w), sigma) == expected, (sigma, w, pi)
            renamed += rename(w) != w
        assert renamed >= 100 and len(expected) > 100, (renamed, len(expected))

    def test_certificates_replay_and_round_trip(self):
        rng = random.Random(7219)
        count = 0
        for _ in range(40):
            sigma = self.random_system(rng)
            u = Word(rng.choices(self.NAMES, k=rng.randint(0, 5)))
            bounds = SearchBounds(8, 4, 200)
            explored = explore(sigma, u, bounds)
            reached = sorted(explored.words, key=lambda w: w.key)
            for v in rng.sample(reached, min(3, len(reached))):
                cert = derive(sigma, u, v, bounds)
                assert verify_certificate(sigma, cert, u, v).ok, (sigma, u, v)
                assert parse_certificate(format_certificate(cert)) == cert
                count += len(cert)
                # taken again once the memo is emptied, from a copy with the
                # same parents and an empty step table, the explored
                # certificate rebuilds the shape entries on its path
                first = explored.certificate_to(v)
                runs = Rewriter.of(sigma).kernel_runs
                clear_successor_cache()
                again = dataclasses.replace(explored).certificate_to(v)
                assert again == first == cert and verify_certificate(sigma, again, u, v).ok, (sigma, u, v)
                assert (Rewriter.of(sigma).kernel_runs > runs) == (len(cert) > 0), (sigma, u, v)
        assert count >= 40

    def fixed_and_seeded_systems(self, rng):
        # growing, shrinking and mixed-sign (x^2y = xy^2) orientations
        systems = [Presentation.of("x^2y = xy^2"), POWER, Presentation.of("xyx = xy"), SIGMA_E]
        return systems + [self.random_system(rng) for _ in range(40)]

    def test_capped_successors_are_the_uncapped_ones_within_the_cap(self):
        rng = random.Random(6113)
        systems = self.fixed_and_seeded_systems(rng)
        overflowed = 0
        for sigma in systems:
            rewriter = Rewriter(sigma)
            for _ in range(4):
                _, s = rewriting._encode(Word(rng.choices(self.NAMES, k=rng.randint(0, 5))))
                clear_successor_cache()  # so every request below expands afresh
                everything = rewriter._successors(s)
                assert everything.cap is None
                links = dict(resolved(rewriter, s, everything)[0])
                for cap in range(1, len(s) + 4):
                    limit = max(cap, len(s))
                    clear_successor_cache()
                    entry = rewriter._successors(s, limit)
                    # same codes in the same order, each with its uncapped link
                    within = [q for q in everything.successors if len(q) <= limit]
                    assert list(entry.successors) == within, (sigma, s, limit)
                    assert resolved(rewriter, s, entry)[0] == [(q, links[q]) for q in within], (sigma, s, limit)
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

    def test_kernels_expand_as_the_generic_matcher(self):
        # the fixed and seeded systems of the capped-successor test, then a
        # repeated first run, the empty identity, 25 nested variables, 21
        # with a growing and a shrinking slot on each side of the cut between
        # chained functions, and sides too long to compile as one nest or one
        # + chain
        rng = random.Random(6113)
        systems = self.fixed_and_seeded_systems(rng)
        cases = [(sigma, Word(rng.choices(self.NAMES, k=rng.randint(0, 5)))) for sigma in systems for _ in range(4)]
        reversal = [Variable(f"x{i}") for i in range(25)]
        x0, x3 = reversal[0], reversal[3]
        cases += [
            (Presentation.of("x^2y = yx^2"), parse_word("x^2yx^2y")),
            (Presentation.of("1 = 1"), parse_word("xyx")),
            (Presentation((Identity(Word(reversal), Word(reversal[::-1])),)), parse_word("xy")),
            (
                Presentation((Identity(Word([*reversal[:20], x0, reversal[20], x3]), Word([*reversal[:21], x3, x3])),)),
                parse_word("xyx"),
            ),
            (Presentation.of("x^3000 = x^3001"), parse_word("x^5")),
            (Presentation.of(f"{'xy' * 1500} = {'yx' * 1500}"), parse_word("xy")),
        ]
        for sigma, word in cases:
            rewriter = Rewriter(sigma)
            _, s = rewriting._encode(word)
            for cap in [*range(max(1, len(s)), len(s) + 4), math.inf]:
                clear_successor_cache()  # so every kernel runs
                entry = rewriter._expand(s, cap)
                # codes, order and links (rule and images included) and the kept cap
                assert resolved(rewriter, s, entry) == reference_expand(sigma, s, cap), (sigma, word, cap)

    def test_shared_shape_memos_change_no_answer(self):
        # pairs that share rule shapes under another identity index,
        # orientation or variable names, then seeded systems paired with their
        # identities reversed and their variables renamed
        rng = random.Random(4211)
        pairs = [
            (Builtin.SL.basis, Builtin.C.basis),
            (Presentation.of("xy = yx"), Presentation.of("yx = xy", "x^2 = x")),
            (Presentation.of("x^2y = xy^2"), Presentation.of("yx^2 = y^2x")),
            (Presentation.of("xy = yx"), Presentation.of("x^2 = x", "zx = xz")),
        ]
        # both rules rewrite xy to yx, each first in one of the two orders
        commuting = (Presentation.of("xy = yx", "xyz = zyx"), Presentation.of("xyz = zyx", "xy = yx"))
        pairs += [commuting, commuting[::-1]]
        rename = dict(zip(self.NAMES, self.NAMES[1:] + self.NAMES[:1]))

        def renamed(w):
            return Word([rename[v] for v in w.letters])

        for _ in range(12):
            sigma = self.random_system(rng)
            other = tuple(Identity(renamed(i.lhs), renamed(i.rhs)) for i in reversed(sigma.identities))
            pairs.append((sigma, Presentation(other)))
        warm_checks = steps = 0
        for a, b in pairs:
            shared = len({rule.shape for rule in Rewriter(a)._rules} & {rule.shape for rule in Rewriter(b)._rules})
            assert shared > 0, (a, b)
            for _ in range(3):
                word = Word(rng.choices(self.NAMES, k=rng.randint(1, 5)))
                _, s = rewriting._encode(word)
                for cap in (len(s) + 1, math.inf):
                    expected = reference_expand(a, s, cap)
                    # the shape memo cold, then filled by b at a smaller cap,
                    # a larger cap and no cap
                    for fill in ("cold", len(s), len(s) + 3, math.inf):
                        clear_successor_cache()
                        if fill != "cold":
                            Rewriter.of(b)._expand(s, fill)
                        rewriter = Rewriter.of(a)
                        runs = rewriter.kernel_runs
                        assert resolved(rewriter, s, rewriter._expand(s, cap)) == expected, (a, b, word, cap, fill)
                        if fill == math.inf:
                            # complete matches serve every cap: only a's own shapes run
                            assert rewriter.kernel_runs - runs == len(rewriter._rules) - shared
                            warm_checks += 1
                # certificates are the same text whether or not b filled the memo
                bounds = SearchBounds(6, 4, 100)
                clear_successor_cache()
                reached = sorted(explore(a, word, bounds).words, key=lambda w: w.key)
                for v in rng.sample(reached, min(2, len(reached))):
                    texts = []
                    for fill in (None, SearchBounds(5, 3, 40), SearchBounds(8, 3, 40)):
                        clear_successor_cache()
                        if fill is not None:
                            explore(b, word, fill)
                        texts.append(format_certificate(derive(a, word, v, bounds)))
                    assert texts[0] == texts[1] == texts[2], (a, b, word, v)
                    steps += texts[0].count("step:")
        assert warm_checks >= 50 and steps >= 100, (warm_checks, steps)
        # whichever order filled the memo, xy -> yx names each one's identity 0
        substs = {commuting[0]: "x=x,y=y", commuting[1]: "x=1,y=x,z=y"}
        for order in (commuting, commuting[::-1]):
            clear_successor_cache()
            for sigma in order:
                (step,) = format_certificate(derive(sigma, parse_word("xy"), parse_word("yx"))).splitlines()[1:]
                assert " identity=0 " in step and f" subst={substs[sigma]} " in step, (sigma, step)
        clear_successor_cache()

    def test_answers_do_not_depend_on_the_memo_budget(self, monkeypatch):
        # seeded queries answer alike with the default budget and with room
        # for 5 or 64 entries, and the count stays exact and within the cap
        rng = random.Random(9157)
        queries = []
        for sigma in [POWER, SIGMA_E, *(self.random_system(rng) for _ in range(16))]:
            for _ in range(2):
                u = Word(rng.choices(self.NAMES, k=rng.randint(1, 5)))
                bounds = SearchBounds(7, 4, 60)
                reached = sorted(explore(sigma, u, bounds).words, key=lambda w: w.key)
                queries.append(lambda sigma=sigma, u=u: list(one_step_successors(u, sigma).items()))
                queries.append(lambda sigma=sigma, u=u, b=bounds: explore(sigma, u, b).words)
                queries.append(lambda sigma=sigma, u=u, b=bounds: explore(sigma, u, b).saturated)
                for v in rng.sample(reached, min(2, len(reached))):
                    queries.append(lambda sigma=sigma, u=u, v=v, b=bounds: format_certificate(derive(sigma, u, v, b)))
                for candidate in ({u}, set(reached), set(reached[: len(reached) // 2 + 1]) | {u}):
                    queries.append(lambda sigma=sigma, u=u, c=candidate: class_closure_verify(c, u, sigma))
        clear_successor_cache()
        expected = [query() for query in queries]
        verdicts = {type(answer) for answer in expected}
        assert {ExactClass, NotClosed} <= verdicts and len(queries) >= 250, (verdicts, len(queries))
        memoise, shared_sizes = rewriting._memoise, []

        def memoise_checked(key, entry):
            # the shared codes and links outgrow the budget by at most the
            # code and link of each successor of the entry just shared
            shared_sizes.append(len(rewriting._SHARED))
            assert shared_sizes[-1] <= rewriting.MAX_MEMO_ENTRIES + 2 * len(entry.successors)
            memoise(key, entry)

        monkeypatch.setattr(rewriting, "_memoise", memoise_checked)
        for budget in (5, 64):
            clear_successor_cache()
            shared_sizes.clear()
            monkeypatch.setattr(rewriting, "MAX_MEMO_ENTRIES", budget)
            for query, answer in zip(queries, expected):
                assert query() == answer, budget
                assert memo_entries() == rewriting._memo_entries <= budget
            assert max(shared_sizes) >= budget, budget  # so it was emptied on the way
        clear_successor_cache()

    def test_rewriter_entries_list_codes_and_shape_entries_map_them_to_links(self):
        # after seeded searches and class checks under the reference bases
        # and seeded systems, every rewriter entry is a shortlex tuple of the
        # codes of its word's other successors, and every rule shape's entry
        # maps those codes to (prefix end, image lengths by slot) links
        rng = random.Random(8821)
        kinds = (Builtin.SL, Builtin.C, Builtin.LRB, Builtin.RRB)
        systems = [kind.basis for kind in kinds] + [self.random_system(rng) for _ in range(12)]
        clear_successor_cache()
        for sigma in systems:
            for _ in range(3):
                u = Word(rng.choices(self.NAMES, k=rng.randint(1, 5)))
                bounds = SearchBounds(rng.randint(5, 8), 4, 80)
                reached = sorted(explore(sigma, u, bounds).words, key=lambda w: w.key)
                for v in rng.sample(reached, min(2, len(reached))):
                    derive(sigma, u, v, bounds)
                class_closure_verify(set(reached[: rng.randint(1, len(reached))]) | {u}, u, sigma)
        rewriters = shapes = capped = 0
        for (owner, s), entry in rewriting._MEMO.items():
            assert s not in entry.successors, (owner, s)
            if isinstance(owner, str):  # a rewriter's rule shapes, not one shape
                codes = entry.successors
                assert isinstance(codes, tuple) and all(isinstance(q, str) for q in codes), (owner, s)
                assert list(codes) == sorted(codes, key=lambda q: (len(q), q)), (owner, s)
                rewriters += 1
            else:
                assert isinstance(entry.successors, dict), (owner, s)
                runs, dst = owner  # the rewritten side's runs, the replacing side's slot runs
                slots = sum(first for _, _, first, _ in runs)
                for q, link in entry.successors.items():
                    assert isinstance(q, str) and isinstance(link, tuple), (owner, s, q)
                    assert len(link) == 1 + slots and all(type(part) is int for part in link), (owner, s, q)
                    # the link rebuilds q: the replacing side's images, sliced
                    # out of s, between s[:start] and where the runs end
                    start, *lengths = link
                    images, at = [], start
                    for slot, repeat, first, _ in runs:
                        if first:
                            images.append(s[at : at + lengths[slot]])
                        at += repeat * lengths[slot]
                    assert s[:start] + "".join(images[j] * r for j, r in dst) + s[at:] == q, (owner, s, q)
                shapes += 1
            if entry.cap is not None:
                assert max(map(len, entry.successors), default=0) <= entry.cap, (owner, s)
                capped += 1
        assert rewriting._memo_entries == sum(1 + len(entry.successors) for entry in rewriting._MEMO.values())
        assert min(rewriters, shapes, capped) >= 1000, (rewriters, shapes, capped)
        # across all entries, equal codes are one object and so are equal
        # links, and values recur, so sharing them saves objects
        first: dict = {}
        for entry in rewriting._MEMO.values():
            for q in entry.successors:
                assert first.setdefault(q, q) is q, q
            if isinstance(entry.successors, dict):
                for link in entry.successors.values():
                    assert first.setdefault(link, link) is link, link
        assert len(first) < sum(len(entry.successors) for entry in rewriting._MEMO.values())
        assert rewriting._SHARED
        clear_successor_cache()
        assert not rewriting._MEMO and not rewriting._SHARED

    def test_class_and_certificates_follow_word_key_order(self):
        a, b = Variable("x2"), Variable("x10")  # Word.key puts b first
        sigma = Presentation.of("xy = yx")
        start = Word((a, a, b, b))
        exploration = explore(sigma, start, SearchBounds(4, 8))
        parents, saturated = reference_explore(sigma, start, SearchBounds(4, 8))
        enumeration = explore(sigma, start, SearchBounds(4, 8))
        assert saturated and enumeration.saturated and enumeration.words == exploration.words == set(parents)
        for target in parents:
            assert exploration.certificate_to(target) == reference_certificate(parents, start, target)
        # baba is first reached from bbaa, the least of its parents by Word.key;
        # ordering x2 before x10 would pick abab instead
        chain = exploration.certificate_to(Word((b, a, b, a))).words(sigma)
        assert chain == [start, Word((b, b, a, a)), Word((b, a, b, a))]

    def test_state_cap_admits_successors_in_word_key_order(self):
        # when the state cap binds, the words admitted are the first in
        # breadth-first Word.key order, and so are their certificates
        rng = random.Random(3307)
        capped = 0
        for _ in range(30):
            sigma = self.random_system(rng)
            start = Word(rng.choices(self.NAMES, k=rng.randint(1, 5)))
            reached = sorted(explore(sigma, start, SearchBounds(7, 4, 60)).words, key=lambda w: w.key)
            for stop_at in [None, *rng.sample(reached, min(2, len(reached)))]:
                for max_states in range(1, 9):
                    bounds = SearchBounds(7, 4, max_states)
                    exploration = explore(sigma, start, bounds, stop_at)
                    parents, saturated = reference_explore(sigma, start, bounds, stop_at)
                    assert (exploration.words, exploration.saturated) == (set(parents), saturated), (sigma, start)
                    for target in parents:
                        expected = reference_certificate(parents, start, target)
                        assert exploration.certificate_to(target) == expected, (sigma, start, stop_at, max_states)
                    capped += len(parents) == max_states < len(reached)
        assert capped >= 100, capped

    def test_complete_only_gives_up_exactly(self):
        # complete_only changes no saturated closure; otherwise it stops while
        # expanding the first word whose successors prune, holding a prefix of
        # the full search's words: none of that word's successors when its
        # memo entry has a cap, else those before the first pruned one
        rng = random.Random(6143)
        bounds_list = (SearchBounds(4, 6), SearchBounds(2, 6), SearchBounds(6, 4, 12))
        saturated = gave_up = at_cap = 0
        for _ in range(40):
            sigma = self.random_system(rng)
            rewriter = Rewriter.of(sigma)
            for _ in range(3):
                start = Word(rng.choices(self.NAMES, k=rng.randint(1, 4)))
                for bounds in bounds_list:
                    full = explore(sigma, start, bounds)
                    calls = rewriter.calls
                    early = explore(sigma, start, bounds, complete_only=True)
                    expanded = rewriter.calls - calls
                    # the reference's own lookups replace capped entries
                    memo, owner = rewriting._MEMO, rewriter._owner
                    caps = {s: memo[owner, s].cap for s in early.parents if (owner, s) in memo}
                    first_pruning = reference_first_pruning(sigma, start, bounds)
                    assert early.saturated == full.saturated, (sigma, start, bounds)
                    if first_pruning is None:
                        assert list(early.parents.items()) == list(full.parents.items())
                        saturated += full.saturated
                        continue
                    keys = list(early.parents)
                    assert keys == list(full.parents)[: len(keys)], (sigma, start, bounds)
                    last, p, before, after = first_pruning
                    capped = caps[rewriting._encode(p)[1]] is not None
                    assert expanded == last, (sigma, start, bounds)
                    assert [rewriting._word(early.alphabet, s) for s in keys] == (before if capped else after)
                    gave_up += 1
                    at_cap += capped
        assert saturated >= 20 and at_cap >= 100 and gave_up - at_cap >= 50, (saturated, gave_up, at_cap)


def memo_entries():
    """The entries the memo counts: one per word, one per successor."""
    return sum(1 + len(entry.successors) for entry in rewriting._MEMO.values())


def memoised(rewriter):
    """The words whose successors the memo holds for rewriter."""
    return sum(owner == rewriter._owner for owner, _ in rewriting._MEMO)


class TestRewriter:
    def test_equal_presentations_share_memo_entries(self):
        # each presentation object has its own rewriter, and an equal one
        # reads the entries the first one made
        clear_successor_cache()
        first = Presentation.of("xy = yx", "x^2 = x")
        second = Presentation.of("yx = xy", "x = x^2")
        assert Rewriter.of(first) is Rewriter.of(first) and Rewriter.of(second) is not Rewriter.of(first)
        bounds = SearchBounds(4, 6)
        explored = explore(first, parse_word("xyx"), bounds)
        assert Rewriter.of(first).misses > 0
        assert explore(second, parse_word("xyx"), bounds) == explored
        rewriter = Rewriter.of(second)
        assert (rewriter.calls, rewriter.misses, rewriter.kernel_runs) == (Rewriter.of(first).calls, 0, 0)
        clear_successor_cache()

    def test_unbalanced_system_has_no_rewriter(self):
        # every call raises, so nothing is cached for the system
        unbalanced = Presentation.of("xy = x")
        for _ in range(2):
            with pytest.raises(ContentUnbalancedError):
                Rewriter.of(unbalanced)

    def test_counters(self):
        clear_successor_cache()
        sigma = Presentation(SIGMA_X1.identities)  # a fresh object, so a fresh rewriter
        rewriter = Rewriter.of(sigma)
        assert (rewriter.calls, rewriter.hits, rewriter.misses, memoised(rewriter)) == (0, 0, 0, 0)
        first = explore(sigma, parse_word("xyxyx"))
        # a saturated closure expands each of its words once
        assert first.saturated and len(first.parents) == 2
        assert (rewriter.calls, rewriter.hits, rewriter.misses, memoised(rewriter)) == (2, 0, 2, 2)
        explore(sigma, parse_word("xyxyx"))
        assert (rewriter.calls, rewriter.hits, rewriter.misses, memoised(rewriter)) == (4, 2, 2, 2)
        assert isoterm_exact(parse_word("yxyxx"), sigma) is False
        assert (rewriter.calls, rewriter.hits, rewriter.misses) == (5, 3, 2)

    def test_memo_entry_budget_is_shared_and_kept(self, monkeypatch):
        clear_successor_cache()
        monkeypatch.setattr(rewriting, "MAX_MEMO_ENTRIES", 5)
        bounds = SearchBounds(8, 8)
        capped = [explore(POWER, parse_word("x"), bounds)]
        # one entry per memoised word and one per successor it holds, for
        # rewriters and rule shapes alike, all within the one budget
        assert memo_entries() == rewriting._memo_entries <= 5
        capped.append(explore(SIGMA_E, parse_word("xyxy"), bounds))
        assert memo_entries() == rewriting._memo_entries <= 5
        assert Rewriter.of(SIGMA_E).misses > 5
        clear_successor_cache()
        assert not rewriting._MEMO and rewriting._memo_entries == 0
        monkeypatch.undo()
        assert capped == [explore(POWER, parse_word("x"), bounds), explore(SIGMA_E, parse_word("xyxy"), bounds)]

    def test_memo_budget_evicts_the_oldest_entries(self, monkeypatch):
        bounds = SearchBounds(8, 8)
        clear_successor_cache()
        explore(POWER, parse_word("x"), bounds)
        explore(SIGMA_Y1, parse_word("xyxyx"), bounds)
        before = list(rewriting._MEMO)
        power = Rewriter.of(POWER)
        grow = power._rules[0]  # x -> x^3
        _, s = rewriting._encode(parse_word("x^7"))
        # x^9 was left out of x^7's entry and of its x -> x^3 match
        assert rewriting._MEMO[power._owner, s].cap == rewriting._MEMO[grow.shape, s].cap == 8
        # with no room to spare, rebuilding them with no cap makes them the
        # newest entries, and the oldest leave to make room
        monkeypatch.setattr(rewriting, "MAX_MEMO_ENTRIES", rewriting._memo_entries)
        power._successors(s)
        rebuilt = [(grow.shape, s), (power._owner, s)]
        after = list(rewriting._MEMO)
        assert after[-2:] == rebuilt and rewriting._MEMO[power._owner, s].cap is None
        rest = [key for key in before if key not in rebuilt]
        assert 0 < len(rest) - len(after[:-2]) and after[:-2] == rest[len(rest) - len(after[:-2]) :]
        assert memo_entries() == rewriting._memo_entries <= rewriting.MAX_MEMO_ENTRIES
        clear_successor_cache()

    def test_dropping_a_rewriter_evicts_no_memo_entry(self):
        # a rewriter goes with its presentation object, and its entries stay:
        # after 256 other presentations, an equal one rebuilt reads them all
        clear_successor_cache()
        bounds = SearchBounds(8, 8)
        dropped = Presentation.of("x = x^3")
        explored = explore(dropped, parse_word("x"), bounds)
        assert Rewriter.of(dropped).misses > 0
        del dropped
        entries = rewriting._memo_entries
        for k in range(3, 3 + 256):
            Rewriter.of(Presentation.of(f"x^2 = x^{k}"))
        assert rewriting._memo_entries == entries
        rebuilt = Presentation.of("x = x^3")
        assert explore(rebuilt, parse_word("x"), bounds) == explored
        assert (Rewriter.of(rebuilt).misses, Rewriter.of(rebuilt).kernel_runs) == (0, 0)
        clear_successor_cache()

    def test_kernels_past_the_bound_share_one_matcher(self, monkeypatch):
        # a kernel compiles nothing and goes with its _kernel entry: more
        # replacing sides of one rewritten side than the bound leave _kernel
        # at its bound and compile one matcher, and a rule of a dropped shape
        # built again gets a new kernel on the same matcher that explores
        # alike; it runs on a new _kernel cache with the same bound, so that
        # the module's own keeps the kernels rewriters on shared presentations
        # hold
        kernel = rewriting._kernel
        monkeypatch.setattr(rewriting, "_kernel", lru_cache(maxsize=kernel.cache_info().maxsize)(kernel.__wrapped__))
        clear_successor_cache()
        bounds = SearchBounds(8, 8)
        dropped = Presentation.of("x = x^3")
        explored = explore(dropped, parse_word("x"), bounds)
        grow = Rewriter.of(dropped)._rules[0].kernel
        del dropped
        bound = rewriting._kernel.cache_info().maxsize
        runs, _ = rewriting._pattern(parse_word("xy").letters)
        compiled = rewriting._matcher.cache_info().misses
        for k in range(1, bound + 2):  # xy -> yx^k, more shapes than the bound
            assert rewriting._kernel(runs, ((1, 1), (0, k))).func is rewriting._matcher(runs)
        assert rewriting._kernel.cache_info().currsize == bound
        assert rewriting._matcher.cache_info().misses <= compiled + 1
        clear_successor_cache()
        rebuilt = Presentation.of("x = x^3")
        again = Rewriter.of(rebuilt)._rules[0].kernel
        assert again is not grow and again.func is grow.func
        assert explore(rebuilt, parse_word("x"), bounds) == explored
        clear_successor_cache()

    def test_dropped_presentation_is_freed_without_the_collector(self):
        # a presentation and its rewriter form no reference cycle, so
        # reference counting alone frees a dropped presentation
        enabled = gc.isenabled()
        gc.disable()
        try:
            dropped = Presentation.of("x = x^3")
            explore(dropped, parse_word("x"), SearchBounds(8, 8))
            alive = weakref.ref(dropped)
            del dropped
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_rules_of_one_shape_share_a_kernel(self):
        # fresh presentations, so all three rewriters are built here, from
        # one state of _kernel's cache: SL's and C's bases, and a renaming
        sl = Rewriter.of(Presentation.of("x^2 = x", "xy = yx"))
        c = Rewriter.of(Presentation.of("x^2 = x^3", "xy = yx"))
        renamed = Rewriter.of(Presentation.of("zx = xz"))

        def commuting(rewriter):
            (rule,) = [r for r in rewriter._rules if r.variables == (X, Y)]
            return rule.kernel

        assert commuting(sl) is commuting(c)
        # xy = yx and zx = xz differ only in their variables' names
        assert renamed._rules[0].kernel is commuting(sl)
        assert rewriting._kernel.cache_info().maxsize is not None

    def test_kernel_runs_skip_shapes_another_rewriter_matched(self):
        clear_successor_cache()
        sl_sigma = Presentation.of("x^2 = x", "xy = yx")
        # a fresh copy of C's basis {x^2 = x^3, xy = yx}, so its counters start at 0
        c_sigma = Presentation(Builtin.C.basis.identities)
        sl, c = Rewriter.of(sl_sigma), Rewriter.of(c_sigma)
        _, s = rewriting._encode(parse_word("x^2y"))
        sl._successors(s, 3)
        assert sl.kernel_runs == len(sl._rules) == 3
        # C shares only xy = yx with SL, so only its two x^2 = x^3 rules run
        c._successors(s, 3)
        assert c.kernel_runs == 2
        c._successors(s, 3)  # a hit runs nothing
        assert (c.hits, c.kernel_runs) == (1, 2)
        # with no cap, only the matches that left a successor out run again:
        # x^2 -> x^3 for C, then x -> x^2 for SL
        c._successors(s)
        sl._successors(s)
        assert (c.kernel_runs, sl.kernel_runs) == (3, 4)
        for rewriter, sigma in ((sl, sl_sigma), (c, c_sigma)):
            assert resolved(rewriter, s, rewriter._successors(s)) == reference_expand(sigma, s, math.inf)
        clear_successor_cache()

    def test_renamed_words_run_no_kernel(self):
        # yx^2y and xy^2x rename to each other, so once yx^2y's successors are
        # built, xy^2x's run no kernel, in the same rewriter or another one
        # whose rules have the same shapes; one whose rules have them in the
        # same order (renaming x < y to t < z keeps every orientation) reads
        # the same entries, so it makes no miss either
        clear_successor_cache()
        e = Rewriter.of(Presentation(SIGMA_E.identities))  # a fresh object, so a fresh rewriter
        renamed = Rewriter.of(Presentation.of("t^2 = t^3", "t^2z = tzt", "t^2z^2 = z^2t^2"))
        reordered = Rewriter.of(Presentation.of("z^2 = z^3", "z^2t = ztz", "z^2t^2 = t^2z^2"))
        assert renamed._owner == e._owner != reordered._owner
        _, yx = rewriting._encode(parse_word("yx^2y"))
        _, xy = rewriting._encode(parse_word("xy^2x"))
        e._successors(yx)
        assert e.kernel_runs == len(e._rules)
        entry = e._successors(xy)
        assert (e.misses, e.kernel_runs) == (2, len(e._rules))
        assert renamed._successors(xy) == entry and (renamed.misses, renamed.kernel_runs) == (0, 0)
        assert reordered._successors(xy) == entry and (reordered.misses, reordered.kernel_runs) == (1, 0)
        assert resolved(e, xy, entry) == reference_expand(SIGMA_E, xy, math.inf)
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

    def test_content_mismatch_is_none_without_a_search(self):
        clear_successor_cache()
        rewriter = Rewriter.of(SIGMA_E)
        calls = rewriter.calls
        assert derive(SIGMA_E, parse_word("x"), parse_word("xy")) is None
        assert derive(SIGMA_E, parse_word("xy^2"), parse_word("x^2"), SearchBounds(8, 8)) is None
        # explore itself ends at once when stop_at has other content or is its start
        x, xy, xyxy = parse_word("x"), parse_word("xy"), parse_word("xyxy")
        apart = explore(SIGMA_E, x, stop_at=xy)
        assert xy not in apart and (apart.words, apart.saturated) == ({x}, False)
        home = explore(SIGMA_E, xyxy, stop_at=xyxy)
        assert (home.words, home.saturated) == ({xyxy}, False)
        assert home.certificate_to(xyxy) == DerivationCertificate(xyxy)
        assert derive(SIGMA_E, xyxy, xyxy) == DerivationCertificate(xyxy)
        assert rewriter.calls == calls
        with pytest.raises(ContentUnbalancedError):
            derive(Presentation.of("xy = x"), parse_word("x"), parse_word("xy"))

    def test_derive_matches_exploration(self):
        b = SearchBounds(8, 8)
        exp = explore(SIGMA_E, parse_word("xyxy"), b)
        assert all(target in exp for target in exp.words)
        # other content, and a reached code over other letters
        assert parse_word("x") not in exp and parse_word("zwzw") not in exp
        for target in sorted(exp.words, key=lambda w: w.key)[:10]:
            cert = derive(SIGMA_E, parse_word("xyxy"), target, b)
            assert cert is not None
            assert verify_certificate(SIGMA_E, cert, parse_word("xyxy"), target).ok


class TestStepTable:
    def test_certificates_of_one_exploration_share_their_common_steps(self):
        exploration = explore(POWER, parse_word("x"), SearchBounds(9, 4))
        # x -> x^3, then x^3 -> x^5 and x^3 -> x^7
        five = exploration.certificate_to(parse_word("x^5"))
        seven = exploration.certificate_to(parse_word("x^7"))
        assert len(five) == len(seven) == 2
        assert five.steps[0] is seven.steps[0] and five.steps[1] != seven.steps[1]
        assert all(a is b for a, b in zip(five.steps, exploration.certificate_to(parse_word("x^5")).steps))

    def test_certificates_after_the_memo_is_emptied_are_unchanged(self):
        start = parse_word("xyxy")
        exploration = explore(SIGMA_E, start, SearchBounds(8, 4))
        targets = sorted(exploration.words, key=lambda w: w.key)[:40]
        # each from its own empty step table, with the memo filled
        before = {v: dataclasses.replace(exploration).certificate_to(v) for v in targets}
        for v in targets[::2]:
            exploration.certificate_to(v)
        clear_successor_cache()
        # half the paths' steps come from the table, the rest are rebuilt
        for v in targets:
            cert = exploration.certificate_to(v)
            assert cert == before[v] and format_certificate(cert) == format_certificate(before[v])
            assert verify_certificate(SIGMA_E, cert, start, v).ok


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

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda step: dataclasses.replace(step, prefix=step.prefix * parse_word("x")),
            lambda step: dataclasses.replace(step, suffix=parse_word("y") * step.suffix),
            lambda step: dataclasses.replace(step, forward=not step.forward),
        ],
        ids=["prefix", "suffix", "direction"],
    )
    def test_rejects_a_later_step_that_does_not_replay(self, tamper):
        cert = derive(POWER, parse_word("x^9yx^3"), parse_word("x^7yx^5"), SearchBounds(13, 4))
        assert len(cert) == 2 and verify_certificate(POWER, cert).ok
        tampered = DerivationCertificate(cert.start, (cert.steps[0], tamper(cert.steps[1])))
        check = verify_certificate(POWER, tampered)
        assert not check.ok and check.step_index == 1
        assert check.reason == f"step does not replay from {format_word(cert.words(POWER)[1])}"

    def test_rejects_a_word_repeated_at_a_later_step(self):
        # x -> x^3 -> x^5 -> x^3
        forth = derive(POWER, parse_word("x"), parse_word("x^5"), SearchBounds(7, 3))
        assert len(forth) == 2
        loop = DerivationCertificate(parse_word("x"), forth.steps + forth.reversed(POWER).steps[:1])
        check = verify_certificate(POWER, loop)
        assert not check.ok and check.step_index == 2 and check.reason == "repeated word x^3 in the chain"

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
            enumeration = sorted(explore(sigma, w, SearchBounds(7, 3, 30)).words, key=lambda u: u.key)
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
            enumeration = explore(sigma, word, SearchBounds(12, 10))
            singleton = enumeration.saturated and enumeration.words == frozenset({word})
            assert isoterm_exact(word, sigma) == singleton


class TestEnumerateClass:
    def test_capped_infinite_class_still_reaches(self):
        enumeration = explore(SIGMA_E, parse_word("xyxy"), SearchBounds(6, 10))
        assert not enumeration.saturated
        assert parse_word("yxyx") in enumeration.words

    def test_odd_powers_exceed_cap(self):
        enumeration = explore(POWER, parse_word("x"), SearchBounds(7, 10, 100))
        assert not enumeration.saturated
        assert enumeration.words == {parse_word(w) for w in ("x", "x^3", "x^5", "x^7")}

    def test_complete_singleton(self):
        enumeration = explore(SIGMA_Y1, parse_word("yxyxx"))
        assert enumeration.saturated
        assert enumeration.words == frozenset({parse_word("yxyxx")})

    def test_complete_matches_exact_class(self):
        enumeration = explore(SIGMA_X1, parse_word("xyxyx"))
        assert enumeration.saturated
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
        # a step by a variable-free identity such as 1 = 1 binds nothing
        text = "start: x\nstep: prefix=1 identity=0 direction=forward subst= suffix=x\n"
        assert parse_certificate(text).steps[0].subst == Substitution()
        assert format_certificate(parse_certificate(text)) == text

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

    def test_rejects_a_variable_bound_twice(self):
        text = "start: x\nstep: prefix=1 identity=0 direction=forward subst=x=y,x=x,y=x suffix=1\n"
        with pytest.raises(ValueError, match="repeated substitution binding of x"):
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
    for kind in (Builtin.SL, Builtin.C, Builtin.LRB, Builtin.RRB):
        sigma = kind.basis
        for u in words:
            searched = explore(sigma, u, bounds)
            for v in words:
                cert = searched.certificate_to(v)
                if cert is not None:
                    count += 1
                    text = f"{kind.name}: {format_word(u)} = {format_word(v)}\n{format_certificate(cert)}"
                    digest.update(text.encode())
    assert count == 218
    assert digest.hexdigest() == CRITERION_7_CERTIFICATES_SHA256
