"""Equational reasoning over monoid varieties.

Words and substitutions over a free monoid, one-step rewriting with
replayable derivation certificates, exact congruence-class and isoterm
computation for content-balanced identity systems, word-problem deciders
for benchmark varieties with meet/join composition, finite-lattice
special-element analysis, and scripted end-to-end verification scenarios.
"""

from .words import (
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
from .rewriting import (
    CertificateCheck,
    ContentUnbalancedError,
    DerivationCertificate,
    ExactClass,
    Exploration,
    Identity,
    NotClosed,
    NotConnected,
    Presentation,
    RewriteStep,
    Rewriter,
    SearchBounds,
    class_closure_verify,
    default_bounds,
    derive,
    enumerate_class,
    explore,
    format_certificate,
    isoterm_exact,
    match_pattern,
    one_step_successors,
    parse_certificate,
    verify_certificate,
)
from .varieties import (
    C,
    LRB,
    MON,
    RRB,
    SL,
    T,
    Builtin,
    BuiltinKind,
    Join,
    Meet,
    Presented,
    VarietyHandle,
    Verdict,
    c_normal_form,
    isoterm_for,
    parse_variety,
    reference_presentation,
    satisfies,
)
from .scenarios import (
    Check,
    E_PRESENTATION,
    Report,
    SCENARIO_NAMES,
    ShapedIdentity,
    find_shaped_identity,
    run_scenario,
)

__version__ = "0.1.0"

# The lattice side is the only user of numpy, so its names load
# monvar.lattices on first access rather than with the package.
_LATTICE_NAMES = frozenset({
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
})

# A star import still brings the lattice names, and so loads numpy.
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LATTICE_NAMES)


def __getattr__(name: str):
    if name in _LATTICE_NAMES:
        from . import lattices

        return getattr(lattices, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LATTICE_NAMES})
