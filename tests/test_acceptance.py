"""Acceptance suite.

One test per acceptance criterion, each printing a single pass line on
success (run with -s to see them live).  Runtime caps are asserted with the
functional content, so a regression in either fails the criterion.
"""

import itertools
import random
import time

import pytest

from monvar import (
    Builtin,
    ElementProperty,
    ExactClass,
    Identity,
    Presentation,
    SearchBounds,
    Substitution,
    Variable,
    Word,
    builtin_catalog,
    check_implications,
    class_closure_verify,
    elements_with,
    explore,
    format_certificate,
    has_property,
    is_sublattice,
    isoterm_exact,
    match_pattern,
    parse_certificate,
    parse_word,
    run_scenario,
    satisfies,
    verify_certificate,
)
from monvar.rewriting import clear_successor_cache

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture(scope="module")
def reports():
    return {name: run_scenario(name) for name in ("S1", "S2", "S3", "S4")}


def _passline(cid, message):
    print(f"\nACCEPTANCE {cid}: PASS  ({message})")


def test_criterion_1_scenario_s1(reports):
    clear_successor_cache()
    started = time.perf_counter()
    report = run_scenario("S1")
    elapsed = time.perf_counter() - started

    assert report.status == "PASS"
    assert len(report.checks) == 8
    assert all(c.verdict == "VERIFIED" for c in report.checks)
    sigma_x = Presentation.of("xyxyx = yxyxx", "xyyxx = yxxyx")
    first = class_closure_verify(
        {parse_word("xyxyx"), parse_word("yxyxx")}, parse_word("xyxyx"), sigma_x
    )
    second = class_closure_verify(
        {parse_word("xyyxx"), parse_word("yxxyx")}, parse_word("xyyxx"), sigma_x
    )
    assert first == ExactClass(frozenset({parse_word("xyxyx"), parse_word("yxyxx")}))
    assert second == ExactClass(frozenset({parse_word("xyyxx"), parse_word("yxxyx")}))
    assert report.conclusion and "strictly below" in report.conclusion
    assert elapsed < 10.0
    _passline(1, f"S1 PASS, 8/8 checks, strict-inclusion certificate emitted, {elapsed:.3f}s")


def test_criterion_2_scenario_s2(reports):
    clear_successor_cache()
    started = time.perf_counter()
    report = run_scenario("S2")
    elapsed = time.perf_counter() - started

    assert report.status == "PASS"
    sigma_x = Presentation.of("x^9yx^3 = x^6yx^7", "x^7yx^5 = x^4yx^9")
    u_class = class_closure_verify(
        {parse_word("x^9yx^3"), parse_word("x^6yx^7")}, parse_word("x^9yx^3"), sigma_x
    )
    v_class = class_closure_verify(
        {parse_word("x^7yx^5"), parse_word("x^4yx^9")}, parse_word("x^7yx^5"), sigma_x
    )
    assert isinstance(u_class, ExactClass) and isinstance(v_class, ExactClass)

    power_sigma, power_cert = report.artifacts[0]
    assert power_sigma == Presentation.of("x = x^3")
    assert len(power_cert) <= 3
    assert verify_certificate(power_sigma, power_cert, parse_word("x^9yx^3"), parse_word("x^7yx^5")).ok

    assert isoterm_exact(parse_word("x^9yx^3"), Presentation.of("x^6yx^7 = x^4yx^9"))
    scan_check = next(c for c in report.checks if c.cid == "6")
    assert scan_check.verdict == "VERIFIED"
    assert elapsed < 30.0
    _passline(2, f"S2 PASS, power derivation in {len(power_cert)} steps, 12th-power scan negative, {elapsed:.3f}s")


def test_criterion_3_scenario_s3(reports):
    report = reports["S3"]
    assert report.status == "PASS_WITH_ASSUMPTIONS"
    assumptions = [c for c in report.checks if c.verdict == "ASSUMED"]
    assert len(assumptions) == 1
    rest = [c for c in report.checks if c.verdict != "ASSUMED"]
    assert all(c.verdict == "VERIFIED" for c in rest)

    shaped_check = next(c for c in report.checks if c.cid == "1")
    assert shaped_check.verdict == "VERIFIED"
    assert "xyxy = yxyx" in shaped_check.evidence
    _passline(3, "S3 PASS_WITH_ASSUMPTIONS, one assumption, shaped identity certified")


def test_criterion_4_decider_oracle_equivalence():
    started = time.perf_counter()
    words = [Word(p) for n in range(5) for p in itertools.product((X, Y), repeat=n)]
    assert len(words) == 31
    bounds = SearchBounds(max_word_length=10, max_depth=8, max_states=10**6)
    contradictions = []
    confirmed = 0
    for kind in (Builtin.SL, Builtin.C, Builtin.LRB, Builtin.RRB):
        sigma = kind.basis
        handle = kind
        for u in words:
            # one bounded search per start word answers every pair (u, v):
            # the breadth-first tree is exactly what derive(u, v) walks
            searched = explore(sigma, u, bounds)
            for v in words:
                decider_yes = satisfies(handle, Identity(u, v)).is_yes
                cert = searched.certificate_to(v)
                if decider_yes:
                    if cert is None or not verify_certificate(sigma, cert, u, v).ok:
                        contradictions.append((kind, u, v, "decider Yes but no certificate"))
                    else:
                        confirmed += 1
                elif cert is not None:
                    contradictions.append((kind, u, v, "search proved a decider No pair"))
        clear_successor_cache()
    elapsed = time.perf_counter() - started
    assert contradictions == []
    assert confirmed == 517 + 159 + 275 + 275
    assert elapsed < 120.0
    _passline(4, f"4 deciders x 961 pairs, 0 contradictions, {confirmed} certificates, {elapsed:.1f}s")


def _brute_force_matches(pattern, target):
    variables = list(dict.fromkeys(pattern.letters))
    if not variables:
        return {Substitution()} if len(target) == 0 else set()
    counts = [pattern.letters.count(v) for v in variables]
    alphabet = sorted(set(target.letters))
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

    assign(0, len(target), [])
    return results


def test_criterion_5_match_pattern_against_brute_force():
    started = time.perf_counter()
    rng = random.Random(173641)
    discrepancies = 0
    for _ in range(1000):
        pattern = Word(rng.choices((X, Y), k=rng.randint(0, 4)))
        target = Word(rng.choices((X, Y, Z), k=rng.randint(0, 5)))
        if match_pattern(pattern, target) != _brute_force_matches(pattern, target):
            discrepancies += 1
    elapsed = time.perf_counter() - started
    assert discrepancies == 0
    _passline(5, f"1000 randomized pairs, 0 discrepancies, {elapsed:.1f}s")


def test_criterion_6_lattice_suite():
    builtin_catalog.cache_clear()
    started = time.perf_counter()
    catalog = builtin_catalog()

    violations = []
    for lattice in catalog:
        violations.extend(check_implications(lattice))
    assert violations == []

    for lattice in catalog:
        assert is_sublattice(lattice, elements_with(lattice, ElementProperty.NEUTRAL))
        assert is_sublattice(lattice, elements_with(lattice, ElementProperty.STANDARD))
        assert has_property(lattice, lattice.bottom, ElementProperty.NEUTRAL)
        assert has_property(lattice, lattice.top, ElementProperty.NEUTRAL)

    from monvar import m3

    assert elements_with(m3(), ElementProperty.DISTRIBUTIVE) == {"0", "1"}

    dual_pairs = [
        (ElementProperty.STANDARD, ElementProperty.COSTANDARD),
        (ElementProperty.DISTRIBUTIVE, ElementProperty.CODISTRIBUTIVE),
        (ElementProperty.LOWER_MODULAR, ElementProperty.UPPER_MODULAR),
    ]
    self_dual = (ElementProperty.NEUTRAL, ElementProperty.MODULAR, ElementProperty.CANCELLABLE)
    for lattice in catalog:
        dual = lattice.dual()
        for prop, coprop in dual_pairs:
            assert elements_with(lattice, prop) == elements_with(dual, coprop), lattice.name
        for prop in self_dual:
            assert elements_with(lattice, prop) == elements_with(dual, prop), lattice.name

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passline(
        6,
        f"{len(catalog)} lattices: implications clean, sublattice and duality facts hold, {elapsed:.1f}s",
    )


def test_criterion_7_certificate_integrity(reports):
    proved = []
    for name in ("S1", "S2", "S3"):
        proved.extend(reports[name].artifacts)

    # fresh certificates from the decider sweep on short words
    bounds = SearchBounds(max_word_length=10, max_depth=8, max_states=10**6)
    words = [Word(p) for n in range(4) for p in itertools.product((X, Y), repeat=n)]
    for kind in (Builtin.SL, Builtin.C, Builtin.LRB, Builtin.RRB):
        sigma = kind.basis
        for u in words:
            searched = explore(sigma, u, bounds)
            for v in words:
                cert = searched.certificate_to(v)
                if cert is not None:
                    proved.append((sigma, cert))
    clear_successor_cache()

    assert len(proved) > 200
    failures = 0
    for sigma, cert in proved:
        if not verify_certificate(sigma, cert).ok:
            failures += 1
            continue
        again = parse_certificate(format_certificate(cert))
        if again != cert or not verify_certificate(sigma, again).ok:
            failures += 1
    assert failures == 0
    _passline(7, f"{len(proved)} certificates re-verified, including serialization round-trips")
