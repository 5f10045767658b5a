"""The benchmark's workloads, driven through monvar's public API.

Every call goes through an attribute of the `monvar` package (`monvar.explore`,
not a name imported from it) so that the traced run sees it.  Inputs come from
the seed alone; expected answers come from `oracles`, never from monvar.

A pass returns one record per op: (seconds, decided, failure or None).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import random
from time import perf_counter

import monvar
import monvar.cli

import oracles

# closure_sweep ----------------------------------------------------------------


def closure_inputs(seed: int, pass_index: int, max_len: int, max_depth: int):
    """Every (presentation, start word) pair in an order drawn from the seed
    and the pass, with the closed-form answer for each of the 31 targets."""
    sigmas = {kind: monvar.Presentation.of(*oracles.REFERENCE_BASIS[kind]) for kind in oracles.KINDS}
    words = {w: monvar.parse_word(oracles.word_text(w)) for w in oracles.ALL_WORDS}
    ops = []
    for kind in oracles.KINDS:
        for u in oracles.ALL_WORDS:
            targets = tuple((v, words[v], oracles.holds(kind, u, v)) for v in oracles.ALL_WORDS)
            ops.append((kind, sigmas[kind], u, words[u], targets))
    random.Random(f"closure_sweep:{seed}:{pass_index}").shuffle(ops)
    return ops, monvar.SearchBounds(max_word_length=max_len, max_depth=max_depth)


def closure_op(kind, sigma, u, u_word, targets, bounds, texts):
    """Explore u's bounded closure; every closed-form Yes needs a certificate
    that replays and survives the text round trip, and no closed-form No may
    be reached.  Decided means the closure saturated (an exact class)."""
    found = monvar.explore(sigma, u_word, bounds)
    pair = f"{kind}: {u or 1} = "
    for v, v_word, expect_yes in targets:
        cert = found.certificate_to(v_word)
        if not expect_yes:
            if cert is not None:
                return found.saturated, f"search proved the decider-No pair {pair}{v or 1}"
            continue
        if cert is None:
            return found.saturated, f"no certificate for the decider-Yes pair {pair}{v or 1}"
        if not monvar.verify_certificate(sigma, cert, u_word, v_word).ok:
            return found.saturated, f"certificate for {pair}{v or 1} does not replay"
        text = monvar.format_certificate(cert)
        parsed = monvar.parse_certificate(text)
        if parsed != cert or monvar.format_certificate(parsed) != text:
            return found.saturated, f"certificate for {pair}{v or 1} does not round-trip through text"
        texts[kind, u, v] = text
    return found.saturated, None


def closure_pass(inputs, tracer=None):
    """Op records, and the SHA-256 of every certificate text in (kind, u, v)
    order, which does not depend on the op order."""
    ops, bounds = inputs
    records, texts = [], {}
    for index, (kind, sigma, u, u_word, targets) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        started = perf_counter()
        try:
            decided, failure = closure_op(kind, sigma, u, u_word, targets, bounds, texts)
        except Exception as exc:  # an exception is a failed op, not a crashed run
            decided, failure = False, f"{kind}: {u or 1}: {type(exc).__name__}: {exc}"
        records.append((perf_counter() - started, decided, failure))
    digest = hashlib.sha256()
    for kind in oracles.KINDS:
        for u in oracles.ALL_WORDS:
            for v in oracles.ALL_WORDS:
                if (kind, u, v) in texts:
                    digest.update(f"{kind}: {u or 1} = {v or 1}\n{texts[kind, u, v]}".encode())
    return records, digest.hexdigest()


def closure_confirmed_pairs(inputs) -> int:
    return sum(expect for *_, targets in inputs[0] for _, _, expect in targets)


# variety_queries --------------------------------------------------------------

_COMBINERS = (("meet", monvar.Meet, oracles.meet_kinds), ("join", monvar.Join, oracles.join_kinds))


def _handle_pool(rng: random.Random):
    """(label, handle, join-set) triples with a fixed make-up and seeded members:
    the six builtins; per kind, the reference basis alone and with one added
    identity the closed form accepts; per combiner, two composites each of
    builtin/builtin, builtin/presented and presented/presented parts."""
    builtins = [(name, getattr(monvar, name), frozenset({name})) for name in oracles.BUILTINS]
    presented = []
    for kind in oracles.KINDS:
        basis = oracles.REFERENCE_BASIS[kind]
        for texts in (basis, basis + (oracles.equivalent_identity(kind, rng),)):
            label = f"{kind}{{{', '.join(texts)}}}"
            presented.append((label, monvar.Presented(monvar.Presentation.of(*texts)), frozenset({kind})))
    composites = []
    for name, combiner, combine in _COMBINERS:
        for left, right in ((builtins, builtins), (builtins, presented), (presented, presented)):
            for _ in range(2):
                a, b = rng.choice(left), rng.choice(right)
                label = f"{name}({a[0]}, {b[0]})"
                composites.append((label, combiner((a[1], b[1])), combine(a[2], b[2])))
    return builtins + presented + composites


@functools.cache
def _pairs_by_answer(kinds: frozenset, want: bool) -> tuple:
    """Word pairs whose closed-form answer is `want`, or every pair when there
    are none (T satisfies everything)."""
    pairs = [(u, v) for u in oracles.ALL_WORDS for v in oracles.ALL_WORDS]
    return tuple(p for p in pairs if oracles.satisfies(kinds, *p) == want) or tuple(pairs)


def query_inputs(seed: int, pass_index: int, rounds: int, max_len: int, max_depth: int):
    """A seeded query stream.  Each round draws a new handle pool, so most
    presented systems are new to the successor memo, and gives every handle
    three `satisfies` queries (one closed-form Yes, one No, and a third that
    alternates between them by round, which fixes the mix of early-stopping
    and exhausted searches) and one `isoterm_for` query, in shuffled order."""
    rng = random.Random(f"variety_queries:{seed}:{pass_index}")
    words = {w: monvar.parse_word(oracles.word_text(w)) for w in oracles.ALL_WORDS}
    queries = []
    for round_index in range(rounds):
        pool = _handle_pool(rng)
        batch = []
        for label, handle, kinds in pool:
            for want in (True, False, round_index % 2 == 0):
                u, v = rng.choice(_pairs_by_answer(kinds, want))
                batch.append((f"satisfies({label}, {u or 1} = {v or 1})", "satisfies", handle,
                              monvar.Identity(words[u], words[v]), oracles.satisfies(kinds, u, v)))
            w = rng.choice(oracles.ALL_WORDS)
            batch.append((f"isoterm_for({label}, {w or 1})", "isoterm", handle, words[w], oracles.isoterm(kinds, w)))
        rng.shuffle(batch)
        queries.extend(batch)
    return queries, monvar.SearchBounds(max_word_length=max_len, max_depth=max_depth)


def query_pass(inputs, tracer=None):
    """A Yes or No that contradicts the closed form fails the op; Unknown is
    undecided but sound."""
    queries, bounds = inputs
    records = []
    for index, (label, kind, handle, arg, expected) in enumerate(queries):
        if tracer is not None:
            tracer.op_id = index
        started = perf_counter()
        try:
            if kind == "satisfies":
                verdict = monvar.satisfies(handle, arg, bounds)
            else:
                verdict = monvar.isoterm_for(handle, arg, bounds)
            decided = not verdict.is_unknown
            failure = None
            if decided and verdict.is_yes != expected:
                failure = f"{label} = {verdict}, closed form says {'Yes' if expected else 'No'}"
        except Exception as exc:  # an exception is a failed op, not a crashed run
            decided, failure = False, f"{label}: {type(exc).__name__}: {exc}"
        records.append((perf_counter() - started, decided, failure))
    return records


# verify_cli (in-process, for the traced run) ----------------------------------


def verify_in_process(tracer=None):
    """`monvar verify` through `monvar.cli.main` with stdout captured."""
    if tracer is not None:
        tracer.op_id = 0
    buffer = io.StringIO()
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = monvar.cli.main(["verify"])
    except Exception as exc:  # an exception is a failed op, not a crashed run
        return [(perf_counter() - started, False, f"{type(exc).__name__}: {exc}")], 0
    elapsed = perf_counter() - started
    stdout = buffer.getvalue().encode()
    problems = oracles.verify_output_problems(code, stdout)
    return [(elapsed, code in (0, 1), "; ".join(problems) or None)], len(stdout)
