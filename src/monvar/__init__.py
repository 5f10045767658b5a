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
    reverse,
)
from .rewriting import (
    CertificateCheck,
    ClassEnumeration,
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
from .lattices import (
    ElementProperty,
    FiniteLattice,
    LatticeError,
    PROPERTY_IMPLICATIONS,
    boolean_cube,
    build_lattice,
    builtin_catalog,
    chain,
    check_implications,
    elements_with,
    has_property,
    is_sublattice,
    lattice_from_json,
    load_lattice_file,
    m3,
    n5,
    product,
    search_element_counterexample,
    with_new_bottom,
    with_new_top,
)
from .scenarios import (
    Check,
    E_PRESENTATION,
    Report,
    SCENARIO_NAMES,
    ShapedIdentity,
    balance_identity,
    find_shaped_identity,
    run_scenario,
)

__version__ = "0.1.0"
