import hashlib

import pytest

from monvar import (
    E_PRESENTATION,
    Identity,
    Presentation,
    SearchBounds,
    Variable,
    balance_identity,
    content,
    derive,
    find_shaped_identity,
    ini,
    occ,
    parse_certificate,
    format_certificate,
    parse_word,
    run_scenario,
    verify_certificate,
)

X, Y = Variable("x"), Variable("y")


class TestBalanceIdentity:
    def test_documented_shape(self):
        result = balance_identity(parse_word("xy"), parse_word("yxy"))
        assert result.lhs == parse_word("x^2yx^2y^3")
        assert result.rhs == parse_word("xyxyx^2y^2")
        for side in (result.lhs, result.rhs):
            assert occ(side, X) == 4 and occ(side, Y) == 4

    def test_already_balanced_input(self):
        result = balance_identity(parse_word("xyxy"), parse_word("xyyx"))
        assert result.lhs == parse_word("xyxy") * parse_word("x^3y^3")
        assert result.rhs == parse_word("xyyx") * parse_word("x^3y^3")
        for side in (result.lhs, result.rhs):
            assert occ(side, X) == 5 and occ(side, Y) == 5

    def test_counts_equal_and_at_least_two(self):
        pairs = [("xy", "yxy"), ("xyxy", "xyyx"), ("x^2y", "yx"), ("xy^3", "y^2xy")]
        for left, right in pairs:
            result = balance_identity(parse_word(left), parse_word(right))
            counts = {
                occ(result.lhs, X),
                occ(result.lhs, Y),
                occ(result.rhs, X),
                occ(result.rhs, Y),
            }
            assert len(counts) == 1 and counts.pop() >= 2
            assert result.lhs != result.rhs
            assert content(result.lhs) == content(result.rhs) == frozenset({X, Y})

    def test_result_follows_from_input_and_power_identities(self):
        u1, v1 = parse_word("xy"), parse_word("yxy")
        result = balance_identity(u1, v1)
        system = Presentation(
            (
                Identity(u1, v1),
                Identity(parse_word("x^2"), parse_word("x^2")),
                Identity(parse_word("x^2"), parse_word("x^3")),
            )
        )
        cert = derive(system, result.lhs, result.rhs, SearchBounds(10, 6))
        assert cert is not None
        assert verify_certificate(system, cert, result.lhs, result.rhs).ok

    def test_rejects_trivial_input(self):
        with pytest.raises(ValueError):
            balance_identity(parse_word("xy"), parse_word("xy"))

    def test_rejects_wrong_content(self):
        with pytest.raises(ValueError):
            balance_identity(parse_word("xz"), parse_word("zx"))

    def test_rejects_collapsing_input(self):
        with pytest.raises(ValueError, match="collapsed"):
            balance_identity(parse_word("xyx"), parse_word("xy"))


class TestFindShapedIdentity:
    def test_e_system(self):
        found = find_shaped_identity(E_PRESENTATION, 2)
        assert found is not None
        assert (found.lhs, found.rhs) == (parse_word("xyxy"), parse_word("yxyx"))
        assert ini(found.lhs) != ini(found.rhs)
        assert verify_certificate(E_PRESENTATION, found.certificate, found.lhs, found.rhs).ok

    def test_commutative_system(self):
        sigma = Presentation.of("x^2 = x^3", "xy = yx")
        found = find_shaped_identity(sigma, 2)
        assert found is not None
        assert (found.lhs, found.rhs) == (parse_word("xyxy"), parse_word("yxyx"))

    def test_single_variable_system_has_none(self):
        assert find_shaped_identity(Presentation.of("x^2 = x^3"), 2) is None

    def test_shape_constraints_hold(self):
        found = find_shaped_identity(E_PRESENTATION, 2)
        for side in (found.lhs, found.rhs):
            assert len(side) == 4
            assert occ(side, X) == 2 and occ(side, Y) == 2
            letters = [v.name for v in side.letters]
            assert "".join(letters).count("xx") == 0
            assert "".join(letters).count("yy") == 0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            find_shaped_identity(E_PRESENTATION, 1)


class TestScenarioS1:
    def test_passes_with_eight_checks(self):
        report = run_scenario("S1")
        assert report.status == "PASS"
        assert len(report.checks) == 8
        assert all(c.verdict == "VERIFIED" for c in report.checks)

    def test_emits_strict_inclusion_certificate(self):
        report = run_scenario("S1")
        assert report.conclusion is not None
        assert "strictly below" in report.conclusion
        assert "yx^2yx = yxyx^2" in report.conclusion

    def test_render_format(self):
        text = run_scenario("S1").render()
        assert text.splitlines()[0].startswith("SCENARIO S1")
        assert "STATUS: PASS" in text
        assert sum(1 for line in text.splitlines() if line.startswith("CHECK ")) == 8
        assert all(
            line.endswith(("VERIFIED", "FAILED", "ASSUMED"))
            for line in text.splitlines()
            if line.startswith("CHECK ")
        )


class TestScenarioS2:
    def test_passes(self):
        report = run_scenario("S2")
        assert report.status == "PASS"
        assert all(c.verdict == "VERIFIED" for c in report.checks)

    def test_power_derivation_is_short(self):
        report = run_scenario("S2")
        power_sigma, power_cert = report.artifacts[0]
        assert len(power_cert) <= 3
        assert verify_certificate(
            power_sigma, power_cert, parse_word("x^9yx^3"), parse_word("x^7yx^5")
        ).ok


class TestScenarioS3:
    def test_passes_with_exactly_one_assumption(self):
        report = run_scenario("S3")
        assert report.status == "PASS_WITH_ASSUMPTIONS"
        assumptions = [c for c in report.checks if c.verdict == "ASSUMED"]
        assert len(assumptions) == 1
        others = [c for c in report.checks if c.verdict != "ASSUMED"]
        assert others and all(c.verdict == "VERIFIED" for c in others)

    def test_assumption_is_the_inequivalence_step(self):
        report = run_scenario("S3")
        assumed = next(c for c in report.checks if c.verdict == "ASSUMED")
        assert "xtxyxy" in assumed.description and "tx^2yxy" in assumed.description


class TestScenarioS4:
    def test_passes(self):
        report = run_scenario("S4")
        assert report.status == "PASS"
        assert all(c.verdict == "VERIFIED" for c in report.checks)


class TestScenarioPlumbing:
    def test_verify_output_is_byte_identical(self):
        # SHA-256 of `monvar verify` stdout as first pinned by the benchmark
        # oracle; any change to a rendered report shows here
        stdout = "".join(run_scenario(name).render() + "\n" for name in ("S1", "S2", "S3", "S4"))
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        assert digest == "7a1622d5e12f897f3198edfc9d35fb7f7e64bc01c1e5fd2d24b8bd73430140d4"

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_scenario("S9")

    def test_all_artifacts_replay_after_round_trip(self):
        for name in ("S1", "S2", "S3"):
            report = run_scenario(name)
            assert report.artifacts
            for sigma, cert in report.artifacts:
                assert verify_certificate(sigma, cert).ok
                again = parse_certificate(format_certificate(cert))
                assert again == cert and verify_certificate(sigma, again).ok
