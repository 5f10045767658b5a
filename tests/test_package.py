"""The package surface, and the rewriting side running without numpy."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import monvar
import monvar.lattices
from monvar.cli import main

LATTICE_EXPORTS = (
    "ElementProperty",
    "FiniteLattice",
    "LatticeError",
    "PROPERTY_IMPLICATIONS",
    "boolean_cube",
    "build_lattice",
    "builtin_catalog",
    "chain",
    "check_implications",
    "elements_with",
    "has_property",
    "is_sublattice",
    "lattice_from_json",
    "load_lattice_file",
    "m3",
    "n5",
    "product",
    "search_element_counterexample",
    "with_new_bottom",
    "with_new_top",
)

EXPORTS = LATTICE_EXPORTS + (
    "Builtin",
    "BuiltinKind",
    "C",
    "CertificateCheck",
    "Check",
    "ContentUnbalancedError",
    "DerivationCertificate",
    "EMPTY",
    "E_PRESENTATION",
    "ExactClass",
    "Exploration",
    "Identity",
    "Join",
    "LRB",
    "MON",
    "Meet",
    "NotClosed",
    "NotConnected",
    "Presentation",
    "Presented",
    "RRB",
    "Report",
    "RewriteStep",
    "Rewriter",
    "SCENARIO_NAMES",
    "SL",
    "SearchBounds",
    "ShapedIdentity",
    "Substitution",
    "T",
    "Variable",
    "VarietyHandle",
    "Verdict",
    "Word",
    "WordSyntaxError",
    "c_normal_form",
    "class_closure_verify",
    "content",
    "default_bounds",
    "derive",
    "enumerate_class",
    "explore",
    "fin",
    "find_shaped_identity",
    "format_certificate",
    "format_word",
    "has_kth_power_factor",
    "ini",
    "isoterm_exact",
    "isoterm_for",
    "match_pattern",
    "occ",
    "one_step_successors",
    "parse_certificate",
    "parse_variety",
    "parse_word",
    "reference_presentation",
    "run_scenario",
    "satisfies",
    "verify_certificate",
)


class TestSurface:
    def test_every_export_resolves_and_is_listed(self):
        for name in EXPORTS:
            assert getattr(monvar, name) is not None
        assert set(EXPORTS) <= set(dir(monvar))

    def test_lattice_names_are_the_lattice_module_objects(self):
        assert set(LATTICE_EXPORTS) == set(monvar.lattices.__all__)
        for name in LATTICE_EXPORTS:
            assert getattr(monvar, name) is getattr(monvar.lattices, name)

    def test_from_import(self):
        from monvar import ElementProperty, build_lattice, derive

        assert build_lattice is monvar.lattices.build_lattice
        assert ElementProperty.LOWER_MODULAR.value == "lower-modular"
        assert derive is monvar.rewriting.derive

    def test_star_import(self):
        namespace = {}
        exec("from monvar import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            monvar.no_such_name
        assert not hasattr(monvar, "no_such_name")


# Runs each argv through main() and prints [exit code, stdout] per command as JSON.
_RUN_COMMANDS = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
import monvar, monvar.cli, monvar.lattices
assert monvar.ElementProperty("modular") in {prop for pair in monvar.PROPERTY_IMPLICATIONS for prop in pair}
results = []
for argv in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = monvar.cli.main(argv)
    results.append([code, buffer.getvalue()])
print(json.dumps(results))
"""

_VERIFY_S4 = """
import sys
import monvar.cli, monvar.lattices
assert "numpy" not in sys.modules
assert monvar.cli.main(["verify", "S4"]) == 0
assert "numpy" in sys.modules
"""

_BUILD_A_LATTICE = """
import sys
import monvar.lattices
assert "numpy" not in sys.modules
monvar.chain(2)
assert "numpy" in sys.modules
"""

REWRITING_COMMANDS = [
    ["derive", "--system", "power.ids", "--lhs", "x^9yx^3", "--rhs", "x^7yx^5", "--max-len", "13"],
    ["class", "--system", "power.ids", "--word", "x", "--max-len", "9"],
    ["satisfies", "--variety", "join(C, LRB)", "--lhs", "x^2y^2", "--rhs", "y^2x^2"],
    ["isoterm", "--variety", "join(LRB, @power.ids)", "--word", "yxyxx"],
    ["verify", "S1"],
]


def _python(code, cwd, *args):
    src = str(Path(monvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True)


class TestWithoutNumpy:
    def test_rewriting_commands_never_import_numpy(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "power.ids").write_text("x = x^3\n")
        done = _python(_RUN_COMMANDS, tmp_path, json.dumps(REWRITING_COMMANDS))
        assert done.returncode == 0, done.stderr
        isolated = json.loads(done.stdout.splitlines()[-1])

        monkeypatch.chdir(tmp_path)
        for argv, (code, out) in zip(REWRITING_COMMANDS, isolated):
            assert main(argv) == code
            assert capsys.readouterr().out == out
        assert [code for code, _ in isolated] == [0, 0, 0, 0, 0]

    def test_s4_loads_numpy(self, tmp_path):
        done = _python(_VERIFY_S4, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "SCENARIO S4" in done.stdout
        done = _python(_BUILD_A_LATTICE, tmp_path)
        assert done.returncode == 0, done.stderr
