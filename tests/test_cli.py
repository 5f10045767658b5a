import csv
import io
import json
import re

import pytest

from monvar import ElementProperty
from monvar.cli import main
from monvar.lattices import MAX_ELEMENTS
from monvar.scenarios import FAILED, Report


@pytest.fixture
def power_system(tmp_path):
    path = tmp_path / "power.ids"
    path.write_text("x = x^3\n")
    return str(path)


@pytest.fixture
def class_system(tmp_path):
    path = tmp_path / "classes.ids"
    path.write_text("# two-element classes\nxyxyx = yxyxx\nxyyxx = yxxyx\n")
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "n5.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["0", "a", "b", "c", "1"],
                "covers": [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]],
            }
        )
    )
    return str(path)


class TestDeriveCommand:
    def test_proved(self, power_system, capsys):
        code = main(
            ["derive", "--system", power_system, "--lhs", "x^9yx^3", "--rhs", "x^7yx^5", "--max-len", "13"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Proved (2 steps)")
        assert "start: x^9yx^3" in out
        assert "-> x^7yx^5" in out

    def test_not_found(self, power_system, capsys):
        code = main(["derive", "--system", power_system, "--lhs", "x", "--rhs", "x^2", "--max-len", "9"])
        assert code == 1
        assert "NotFoundWithinBounds" in capsys.readouterr().out

    def test_bad_word_is_an_error(self, power_system, capsys):
        code = main(["derive", "--system", power_system, "--lhs", "x^0", "--rhs", "x"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        code = main(["derive", "--system", "/nonexistent.ids", "--lhs", "x", "--rhs", "x"])
        assert code == 2

    def test_long_identity_proves_in_one_step(self, tmp_path, capsys):
        # the matcher's stack depth does not grow with the 1200-letter pattern
        path = tmp_path / "long.ids"
        path.write_text("x^1200 = x^1201\n")
        code = main(["derive", "--system", str(path), "--lhs", "x^1200", "--rhs", "x^1201"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Proved (1 steps)")
        assert "step: prefix=1 identity=0 direction=forward subst=x=x suffix=1" in out
        assert main(["isoterm", "--variety", f"@{path}", "--word", "x^1200"]) == 0
        assert capsys.readouterr().out.strip() == "No"


class TestClassCommand:
    def test_complete_class(self, class_system, capsys):
        code = main(["class", "--system", class_system, "--word", "xyxyx"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Complete: 2 words")
        assert "xyxyx" in out and "yxyx^2" in out

    def test_cap_exceeded(self, power_system, capsys):
        code = main(["class", "--system", power_system, "--word", "x", "--max-len", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("CapExceeded")


class TestVerdictCommands:
    def test_satisfies_builtin(self, capsys):
        assert main(["satisfies", "--variety", "LRB", "--lhs", "xyxy", "--rhs", "xyyx"]) == 0
        assert capsys.readouterr().out.strip() == "Yes"

    def test_satisfies_join_no(self, capsys):
        assert main(["satisfies", "--variety", "join(C, LRB)", "--lhs", "x^2y^2", "--rhs", "y^2x^2"]) == 0
        assert capsys.readouterr().out.strip() == "No"

    def test_satisfies_unknown(self, tmp_path, capsys):
        # LRB lies in MON and fails xy = yx
        assert main(["satisfies", "--variety", "MON", "--lhs", "xy", "--rhs", "yx"]) == 0
        assert capsys.readouterr().out.strip() == "No"
        # every built-in model of x = x^3 holds here, and the derivation needs length 13
        path = tmp_path / "power.ids"
        path.write_text("x = x^3\n")
        argv = ["satisfies", "--variety", f"@{path}", "--lhs", "x^9yx^3", "--rhs", "x^7yx^5", "--max-len", "12"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "Unknown (bounds)"

    def test_unbalanced_part_is_an_error(self, tmp_path, capsys):
        # SL alone refutes x = xy, but the presented part is still rejected
        path = tmp_path / "bad.ids"
        path.write_text("x = xy\n")
        assert main(["satisfies", "--variety", f"join(SL, @{path})", "--lhs", "x", "--rhs", "xy"]) == 2
        assert capsys.readouterr().err.strip() == "error: identity x = xy is not content-balanced"

    def test_isoterm_with_file_reference(self, class_system, capsys):
        code = main(["isoterm", "--variety", f"join(LRB, @{class_system})", "--word", "yxyxx"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Yes"

    def test_bounds_flags_reach_the_query(self, class_system, capsys):
        # a depth cap of 1 leaves the class exploration unsaturated, so the
        # join cannot be decided
        code = main(
            ["isoterm", "--variety", f"join(LRB, @{class_system})", "--word", "yxyxx", "--max-depth", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "Unknown (composition)"
        code = main(
            ["satisfies", "--variety", f"@{class_system}", "--lhs", "xyxyx", "--rhs", "yxxyx", "--max-depth", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "Unknown (bounds)"

    def test_one_bounds_flag_keeps_the_other_caps(self, tmp_path, capsys):
        # the default length cap comes from the identities and words each
        # search sees, so passing a default cap changes nothing; each part of
        # the second join takes its own (6 and 8), not one from both parts
        (tmp_path / "pump.ids").write_text("x = x^5\nx^5y = yx^5\n")
        (tmp_path / "a.ids").write_text("x = x^3\nx^2y = yx^2\n")
        (tmp_path / "b.ids").write_text("xyx = x^2y\nx^2 = x^4\n")
        cases = [
            ("join(SL, @{0}/pump.ids)", "xy", "yx", "Yes"),
            ("join(@{0}/a.ids, @{0}/b.ids)", "xyx", "x^2y", "Unknown (composition)"),
        ]
        for variety, lhs, rhs, verdict in cases:
            query = ["satisfies", "--variety", variety.format(tmp_path), "--lhs", lhs, "--rhs", rhs]
            for flags in ([], ["--max-depth", "10"], ["--max-states", "1000000"]):
                assert main(query + flags) == 0
                assert capsys.readouterr().out.strip() == verdict, (variety, flags)

    def test_bad_variety_expression(self, capsys):
        assert main(["isoterm", "--variety", "nope", "--word", "x"]) == 2

    def test_deep_nesting_is_an_error(self, capsys):
        code = main(["satisfies", "--variety", "meet(" * 3000, "--lhs", "x", "--rhs", "x"])
        assert code == 2
        assert "nested deeper than" in capsys.readouterr().err


class TestLatticeCommand:
    def test_single_query(self, pentagon_file, capsys):
        code = main(["lattice", "--file", pentagon_file, "--element", "b", "--property", "modular"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_element_without_property_is_an_error(self, pentagon_file, capsys):
        assert main(["lattice", "--file", pentagon_file, "--element", "b"]) == 2
        assert "must be given together" in capsys.readouterr().err

    def test_table(self, pentagon_file, capsys):
        code = main(["lattice", "--file", pentagon_file, "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("element")
        assert len(out.splitlines()) == 6
        header, *rows = out.splitlines()
        tokens = [(m.start(), m.group()) for m in re.finditer(r"\S+", header)]
        assert tokens[0] == (0, "element")
        assert [name for _, name in tokens[1:]] == [p.value for p in ElementProperty]
        for row in rows:
            # each mark starts at its property's header column
            cells = [(m.start(), m.group()) for m in re.finditer(r"\S+", row)][1:]
            assert [start for start, _ in cells] == [start for start, _ in tokens[1:]]
            assert {mark for _, mark in cells} <= {"yes", "no"}

    def test_csv_rows(self, pentagon_file, capsys):
        code = main(["lattice", "--file", pentagon_file, "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b,modular,false" in out.splitlines()
        assert "0,neutral,true" in out.splitlines()

    def test_csv_quotes_labels_with_separators(self, tmp_path, capsys):
        path = tmp_path / "quoted.json"
        labels = ["0", "a,b", 'say "hi"', "two\nlines"]
        covers = [["0", "a,b"], ["a,b", 'say "hi"'], ['say "hi"', "two\nlines"]]
        path.write_text(json.dumps({"elements": labels, "covers": covers}))
        code = main(["lattice", "--file", str(path), "--csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        assert len(rows) == len(labels) * len(ElementProperty)
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows[:: len(ElementProperty)]] == labels

    @pytest.mark.parametrize(
        "data",
        [
            {"elements": [0, 1, 2], "covers": [[0, 1], [1, 2]]},
            {"elements": "ab", "covers": [["a", "b"]]},
            {"elements": ["a", "b"], "covers": [["a", ["b"]]]},
            {"elements": [str(k) for k in range(MAX_ELEMENTS + 1)], "covers": []},
        ],
    )
    def test_malformed_json_is_an_error(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["lattice", "--file", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_property_lists_every_choice(self, pentagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "--file", pentagon_file, "--element", "b", "--property", "bogus"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "invalid choice" in err
        assert re.findall(r"[\w-]+", err.split("choose from", 1)[1]) == [p.value for p in ElementProperty]

    def test_implications(self, pentagon_file, capsys):
        code = main(["lattice", "--file", pentagon_file, "--implications"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "no violations"


class TestVerifyCommand:
    def test_single_scenario(self, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        code = main(["verify", "S1", "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "SCENARIO S1" in out and "STATUS: PASS" in out
        written = report_path.read_text()
        assert "SCENARIO S1" in written and "STATUS: PASS" in written
        assert "CONCLUSION" in written
        assert written == out

    def test_s3_passes_with_assumptions(self, capsys):
        code = main(["verify", "S3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "STATUS: PASS_WITH_ASSUMPTIONS" in out
        assert sum(1 for line in out.splitlines() if line.endswith("ASSUMED")) == 1

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        def failing(name):
            report = Report(name, "a scenario whose check fails")
            report.add("a check that fails", FAILED, "forced")
            return report

        monkeypatch.setattr("monvar.cli.run_scenario", failing)
        code = main(["verify", "S1"])
        assert code == 1
        assert "STATUS: FAIL" in capsys.readouterr().out.splitlines()
