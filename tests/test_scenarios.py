import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

import monvar
from monvar import (
    E_PRESENTATION,
    Identity,
    Presentation,
    ShapedIdentity,
    Variable,
    Word,
    derive,
    explore,
    find_shaped_identity,
    format_word,
    ini,
    occ,
    parse_certificate,
    format_certificate,
    parse_word,
    run_scenario,
    verify_certificate,
)

X, Y = Variable("x"), Variable("y")

# find_shaped_identity(E, k): the identity and the SHA-256 of its certificate text
E_SHAPED = {
    2: ("xyxy", "yxyx", "a54dd65ea6e2ba63959f6cf28f148a7b809461fe94dd9ac12b4ce9cfcbff4819"),
    3: ("x^2yxy^2", "yx^2yxy", "c0e98e1d7f169fc9d6c3d2b4f53b6ff7ea62df75bb7c1830faa176ff40eee426"),
    4: ("x^3yxy^3", "yx^3yxy^2", "205c7c41478808cccbee9a83d4a9417d82fadfbece004e58a64817acfd658be0"),
    5: ("x^4yxy^4", "yx^4yxy^3", "b4dc039df328299aecfdb2babb589e39e8d589024f31f480e7029392cff672b1"),
}

# the process's own peak RSS in MB: getrusage's ru_maxrss would carry over
# the peak of the test process that started it
_PEAK_RSS_AT_K3 = """
from monvar import E_PRESENTATION, find_shaped_identity
assert find_shaped_identity(E_PRESENTATION, 3) is not None
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
"""


def _reference_shape_ok(w, k):
    letters = "".join(v.name for v in w.letters)
    return (
        sorted(set(letters)) == ["x", "y"]
        and letters.count("x") == k
        and letters.count("y") == k
        and "x" * k not in letters
        and "y" * k not in letters
    )


def reference_shaped_identity(sigma, k):
    """The full-class scan: explore each x-first candidate's whole class and
    take the shortlex-least shaped member whose ini differs."""
    candidates = []
    for positions in combinations(range(2 * k), k):
        letters = [Y] * (2 * k)
        for pos in positions:
            letters[pos] = X
        w = Word(letters)
        if _reference_shape_ok(w, k) and w.letters[0] == X:
            candidates.append(w)
    candidates.sort(key=lambda w: w.key)
    for u in candidates:
        result = explore(sigma, u)
        partners = [v for v in result.words if v != u and _reference_shape_ok(v, k) and ini(v) != ini(u)]
        if partners:
            v = min(partners, key=lambda w: w.key)
            return ShapedIdentity(u, v, result.certificate_to(v))
    return None


def _balanced_systems(seed, count):
    """Systems of 1-2 identities over {x, y}: each side has 2-4 letters and
    uses both, and the other side is a shuffle of it."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        identities = []
        for _ in range(rng.randint(1, 2)):
            letters = [X, Y] + [rng.choice((X, Y)) for _ in range(rng.randint(0, 2))]
            rng.shuffle(letters)
            other = letters[:]
            rng.shuffle(other)
            identities.append(Identity(Word(letters), Word(other)))
        systems.append(Presentation(tuple(identities)))
    return systems


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

    @pytest.mark.parametrize("k", sorted(E_SHAPED))
    def test_e_identities_and_certificates_are_pinned(self, k):
        lhs, rhs, digest = E_SHAPED[k]
        found = find_shaped_identity(E_PRESENTATION, k)
        assert (format_word(found.lhs), format_word(found.rhs)) == (lhs, rhs)
        text = format_certificate(found.certificate)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        again = parse_certificate(text)
        assert again == found.certificate and format_certificate(again) == text
        assert verify_certificate(E_PRESENTATION, found.certificate, found.lhs, found.rhs).ok

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from procfs")
    def test_k3_search_stays_under_50_mb(self, tmp_path):
        src = str(Path(monvar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_AT_K3], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 50

    @pytest.mark.parametrize("k", (2, 3))
    def test_matches_the_full_class_scan(self, k):
        # the full scan of E and of the commutative system takes over a second
        # each at k = 3; E's k = 3 answer is the pin above, which it gave
        fixed = [E_PRESENTATION, Presentation.of("x^2 = x^3", "xy = yx")] if k == 2 else []
        systems = [*fixed, Presentation.of("x^2 = x^3"), *_balanced_systems(2, 40)]
        shaped = [Word(w) for w in product((X, Y), repeat=2 * k) if _reference_shape_ok(Word(w), k)]
        least = min((w for w in shaped if w.letters[0] == Y), key=lambda w: w.key)
        paths = set()
        for sigma in systems:
            got = find_shaped_identity(sigma, k)
            want = reference_shaped_identity(sigma, k)
            if want is None:
                assert got is None
                paths.add("none")
                continue
            assert (got.lhs, got.rhs, got.certificate) == (want.lhs, want.rhs, want.certificate)
            paths.add("least" if want.rhs == least else "later")
        # at k = 2, yxyx is the only shaped word that starts with y
        assert paths == ({"least", "later", "none"} if k > 2 else {"least", "none"})


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

    @pytest.mark.parametrize("k", sorted(E_SHAPED))
    def test_union_derivation_at_default_caps(self, k):
        # |xtu| = 2k + 2, so a length cap of 8 misses this from k = 4 on
        shaped = find_shaped_identity(E_PRESENTATION, k)
        xt, tx = parse_word("xt"), parse_word("tx")
        xtu, txu, xtv, txv = xt * shaped.lhs, tx * shaped.lhs, xt * shaped.rhs, tx * shaped.rhs
        sigma_x = Presentation((Identity(xtu, txu), Identity(xtv, txv)))
        sigma_y = Presentation((Identity(txu, txv),))
        cert = derive(sigma_y | sigma_x, xtu, xtv)
        assert cert is not None and len(cert) == 3
        assert verify_certificate(sigma_y | sigma_x, cert, xtu, xtv).ok


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
