"""Span tracing of monvar's public functions, installed from outside the program.

`Tracer.install` swaps each function named in TRACED for a wrapper in every
`monvar.*` module namespace that holds it (`derive` is held by rewriting,
varieties, scenarios, cli and the package itself).  monvar calls its own
functions through module globals, so nested calls such as derive -> explore
produce nested spans.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "monvar.words": ("parse_word", "format_word"),
    "monvar.rewriting": (
        "explore",
        "derive",
        "class_closure_verify",
        "isoterm_exact",
        "verify_certificate",
        "format_certificate",
        "parse_certificate",
    ),
    "monvar.varieties": ("satisfies", "isoterm_for"),
    "monvar.lattices": (
        "builtin_catalog",
        "build_lattice",
        "product",
        "check_implications",
        "elements_with",
        "has_property",
        "is_sublattice",
    ),
    "monvar.scenarios": ("run_scenario", "find_shaped_identity"),
}


def _cert_arg(args, kwargs):
    return kwargs["cert"] if "cert" in kwargs else args[1]


# Work counts read from return values (and, for certificates, the argument).
_INFO = {
    "rewriting.explore": lambda a, k, r: [len(r.parents), r.saturated],
    "rewriting.derive": lambda a, k, r: r is not None,
    "rewriting.verify_certificate": lambda a, k, r: [r.ok, len(_cert_arg(a, k))],
    "varieties.satisfies": lambda a, k, r: r.value,
    "varieties.isoterm_for": lambda a, k, r: r.value,
    "lattices.build_lattice": lambda a, k, r: len(r),
    "lattices.product": lambda a, k, r: len(r),
    "scenarios.run_scenario": lambda a, k, r: [r.scenario, sum(c.verdict == "VERIFIED" for c in r.checks)],
}

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for modname, names in TRACED.items():
            module = importlib.import_module(modname)
            layer = modname.split(".")[1]
            holders = [m for n, m in list(sys.modules.items()) if n == "monvar" or n.startswith("monvar.")]
            for attr in names:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for holder in holders:
                    if holder.__dict__.get(attr) is original:
                        setattr(holder, attr, wrapper)
        report = importlib.import_module("monvar.scenarios").Report
        report.render = self._wrap("scenarios.render", report.render)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _outermost_total(spans, names) -> tuple[int, float]:
    """Calls and inclusive seconds of spans in `names` with no ancestor in `names`."""
    calls, total = 0, 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            calls += 1
            total += span[END] - span[START]
    return calls, total


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def summarize(spans) -> tuple[dict, dict]:
    """Per-layer metrics and the exact work counts that must repeat run to run."""
    by_name: dict[str, list[list]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def count(name):
        return len(by_name.get(name, ()))

    def total(*names):
        return _outermost_total(spans, set(names))[1]

    explores = by_name.get("rewriting.explore", [])
    derives = by_name.get("rewriting.derive", [])
    cert_checks = by_name.get("rewriting.verify_certificate", [])
    builds = by_name.get("lattices.build_lattice", []) + by_name.get("lattices.product", [])
    scenario_runs = by_name.get("scenarios.run_scenario", [])
    verdict_names = {"varieties.satisfies", "varieties.isoterm_for"}
    variety_spans = [s for s in spans if s[NAME] in verdict_names]
    answers = Counter(
        s[INFO] for s in variety_spans
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] not in verdict_names
    )
    answered = sum(answers.values())
    states = sum(s[INFO][0] for s in explores)
    explore_s = total("rewriting.explore")
    closure_calls, closure_s = _outermost_total(spans, {"rewriting.class_closure_verify", "rewriting.isoterm_exact"})
    scenario_s = {f"scenarios.{n}_s": 0.0 for n in ("S1", "S2", "S3", "S4")}
    for s in scenario_runs:
        scenario_s[f"scenarios.{s[INFO][0]}_s"] += s[END] - s[START]

    metrics = {
        "words.parse_calls": count("words.parse_word"),
        "words.parse_s": total("words.parse_word"),
        "words.format_calls": count("words.format_word"),
        "words.format_s": total("words.format_word"),
        "rewriting.explore_calls": len(explores),
        "rewriting.explore_s": explore_s,
        "rewriting.states_visited": states,
        "rewriting.states_per_s": _share(states, explore_s),
        "rewriting.saturated_share": _share(sum(s[INFO][1] for s in explores), len(explores)),
        "rewriting.derive_calls": len(derives),
        "rewriting.derive_s": total("rewriting.derive"),
        "rewriting.derive_found_share": _share(sum(s[INFO] for s in derives), len(derives)),
        "rewriting.closure_verify_calls": closure_calls,
        "rewriting.closure_verify_s": closure_s,
        "rewriting.cert_verify_calls": len(cert_checks),
        "rewriting.cert_verify_s": total("rewriting.verify_certificate"),
        "rewriting.cert_steps": sum(s[INFO][1] for s in cert_checks),
        "rewriting.cert_text_s": total("rewriting.format_certificate", "rewriting.parse_certificate"),
        "varieties.satisfies_calls": count("varieties.satisfies"),
        "varieties.isoterm_calls": count("varieties.isoterm_for"),
        "varieties.self_s": sum(s[END] - s[START] - child_time[i] for i, s in enumerate(spans) if s[NAME] in verdict_names),
        "varieties.unknown_bounds_share": _share(answers["unknown (bounds)"], answered),
        "varieties.unknown_composition_share": _share(answers["unknown (composition)"], answered),
        "lattices.catalog_s": total("lattices.builtin_catalog"),
        "lattices.build_calls": len(builds),
        "lattices.build_s": total("lattices.build_lattice", "lattices.product"),
        "lattices.elements": sum(s[INFO] for s in builds),
        "lattices.property_s": total("lattices.check_implications", "lattices.elements_with", "lattices.has_property"),
        "lattices.sublattice_s": total("lattices.is_sublattice"),
        **scenario_s,
        "scenarios.find_shaped_s": total("scenarios.find_shaped_identity"),
        "scenarios.render_s": total("scenarios.render"),
        "scenarios.checks_verified": sum(s[INFO][1] for s in scenario_runs),
    }
    work = {
        "calls": dict(sorted(Counter(s[NAME] for s in spans).items())),
        "rewriting.states_visited": states,
        "rewriting.derive_calls": len(derives),
        "rewriting.cert_steps": metrics["rewriting.cert_steps"],
        "lattices.elements": metrics["lattices.elements"],
        "verdicts": dict(sorted(Counter(s[INFO] for s in variety_spans).items())),
    }
    return metrics, work
