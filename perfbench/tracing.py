"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public library functions at the module attributes through
which callers reach them (``ibr.literal_update``, ``cli.literal_update``,
``games.is_nash``, ...), so the library itself is untouched. A span records
its op id, its own id, its parent span, a ``layer.function`` name, and its
start and end on ``time.perf_counter``. Spans and counts are recorded only
while an op is open, so set-up and the benchmark's correctness checks stay
out of the trace. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict, namedtuple
from contextlib import contextmanager
from typing import Callable, Iterable

Span = namedtuple("Span", "op id parent name start end")

OP = "op"  # name of the span that covers a whole op
POSTERIOR_SPANS = ("listener.literal_update", "listener.closed_form_posterior")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def trace_op(self, op: int):
        """Open the root span of op ``op``; library spans nest under it."""
        root = self._next_id
        self._next_id += 1
        self.op = op
        self._stack.append(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(op, root, None, OP, start, end))
            self.op = None

    def timed(self, name: str, fn: Callable,
              on_result: Callable[[object], dict] | None = None) -> Callable:
        """Wrap ``fn`` so that each call inside an op records a span.

        ``on_result`` maps the return value to counts added to ``counts``.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.op, span_id, parent, name, start, end))
            if on_result is not None:
                self.counts.update(on_result(result))
            return result
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that each call inside an op adds one to ``counts[name]``.

        For functions called too often for a span apiece.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per line: the field names, then one line per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(Span._fields) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _size(key: str) -> Callable[[object], dict]:
    return lambda result: {key: len(result)}


def install(tracer: Tracer) -> None:
    """Wrap the library's public functions at every module that calls them."""
    from vaguetalk import cli, games, ibr, messages, scenarios, schema, speaker

    spans = [
        # (modules whose attribute callers use, attribute, span name, counts)
        ((messages, schema, scenarios), "precise_alternatives",
         "messages.precise_alternatives", _size("messages.menu_size")),
        ((messages, schema, scenarios), "vague_alternatives",
         "messages.vague_alternatives", _size("messages.menu_size")),
        ((ibr, cli, scenarios), "literal_update", "listener.literal_update", None),
        ((scenarios,), "closed_form_posterior", "listener.closed_form_posterior", None),
        ((ibr,), "literal_listener_strategy", "ibr.literal_listener_strategy", None),
        ((ibr,), "iterate", "ibr.iterate",
         lambda trace: {"ibr.levels": len(trace.levels) - 1}),
        ((ibr,), "speaker_response", "ibr.speaker_response", None),
        ((ibr,), "listener_response", "ibr.listener_response", None),
        ((ibr,), "check_fixed_point", "ibr.check_fixed_point", None),
        ((speaker, cli, scenarios), "utility_table", "speaker.utility_table", None),
        ((cli, scenarios), "best_index", "speaker.best_index", None),
        ((cli,), "softmax_speaker", "speaker.softmax_speaker", None),
        ((scenarios,), "run_named_scenario", "scenarios.run_named_scenario", None),
        ((scenarios,), "optimality_search", "scenarios.optimality_search", None),
        ((scenarios,), "joint_enumeration_posterior",
         "scenarios.joint_enumeration_posterior", None),
        ((games,), "generate_mixed_candidates", "games.generate_mixed_candidates",
         _size("games.candidates")),
        ((games,), "mixed_dominance_check", "games.mixed_dominance_check",
         lambda report: {"games.checked": len(report.entries),
                         "games.verified": report.n_verified}),
        ((games,), "enumerate_pure_equilibria", "games.enumerate_pure_equilibria",
         _size("games.pure_equilibria")),
        ((games,), "is_nash", "games.is_nash", None),
        ((games,), "expected_payoff", "games.expected_payoff", None),
        ((games,), "speaker_meaning", "games.speaker_meaning", None),
        ((games,), "question_precision", "games.question_precision", None),
        ((games,), "precisify", "games.precisify", None),
        ((schema,), "load_scenario", "schema.load_scenario", None),
        ((schema,), "load_game", "schema.load_game", None),
        ((cli,), "main", "cli.main", None),
    ]
    for owners, attr, name, on_result in spans:
        for owner in owners:
            tracer.patch(owner, attr,
                         lambda fn, name=name, on_result=on_result:
                         tracer.timed(name, fn, on_result))
    for owner in (ibr, speaker, scenarios):
        tracer.patch(owner, "kl_divergence",
                     lambda fn: tracer.counted("prob.kl_calls", fn))
    # each call of a scenario's cached interpreter is a span, so a call with
    # no posterior span under it is an interpretation served by the cache
    tracer.patch(scenarios.Scenario, "interpreter",
                 lambda method: lambda sc: tracer.timed("listener.interpret", method(sc)))


@contextmanager
def traced_op(tracer: Tracer, op: int):
    """Wrap the library, open the root span of op ``op``, unwrap afterwards."""
    install(tracer)
    try:
        with tracer.trace_op(op):
            yield
    finally:
        tracer.restore()


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    op_total: dict[int, float] = defaultdict(float)
    op_self: dict[int, float] = defaultdict(float)
    by_id = {s.id: s for s in spans}
    parents = {s.parent for s in spans}
    hits = direct = 0
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
        op_self[s.op] += own[s.id]
        if s.name == OP:
            op_total[s.op] = s.end - s.start
        elif s.name == "listener.interpret" and s.id not in parents:
            hits += 1
        elif s.name in POSTERIOR_SPANS and by_id[s.parent].name != "listener.interpret":
            direct += 1
    for op, duration in op_total.items():
        # the self times of an op's spans partition its duration
        if abs(op_self[op] - duration) > 1e-6:
            raise RuntimeError(f"op {op}: self times sum to {op_self[op]}, "
                                 f"op took {duration}")

    def ms(*names: str) -> float:
        return 1000.0 * sum(total[n] for n in names) / n_ops

    def per_op(n: float) -> float:
        return n / n_ops

    requested = calls["listener.interpret"] + direct
    checked = tracer.counts["games.checked"]
    out = {
        "messages.menu_ms": ms("messages.precise_alternatives", "messages.vague_alternatives"),
        "messages.menu_size": per_op(tracer.counts["messages.menu_size"]),
        "listener.posteriors": per_op(sum(calls[n] for n in POSTERIOR_SPANS)),
        "listener.posterior_ms": ms(*POSTERIOR_SPANS),
        "listener.reuse_ratio": hits / requested if requested else 0.0,
        "ibr.l0_ms": ms("ibr.literal_listener_strategy"),
        "ibr.speaker_response_ms": ms("ibr.speaker_response"),
        "ibr.listener_response_ms": ms("ibr.listener_response"),
        "ibr.check_ms": ms("ibr.check_fixed_point"),
        "ibr.levels": per_op(tracer.counts["ibr.levels"]),
        "speaker.utility_table_calls": per_op(calls["speaker.utility_table"]),
        "speaker.utility_table_ms": ms("speaker.utility_table"),
        "prob.kl_calls": per_op(tracer.counts["prob.kl_calls"]),
        "scenarios.report_ms": ms("scenarios.run_named_scenario"),
        "scenarios.oracle_calls": per_op(calls["scenarios.joint_enumeration_posterior"]),
        "scenarios.oracle_ms": ms("scenarios.joint_enumeration_posterior"),
        "games.candidates_ms": ms("games.generate_mixed_candidates"),
        "games.candidates": per_op(tracer.counts["games.candidates"]),
        "games.enumerate_ms": ms("games.enumerate_pure_equilibria"),
        "games.pure_equilibria": per_op(tracer.counts["games.pure_equilibria"]),
        "games.nash_checks": per_op(calls["games.is_nash"]),
        "games.nash_ms": ms("games.is_nash"),
        "games.verified_ratio": tracer.counts["games.verified"] / checked if checked else 0.0,
        "games.dominance_self_ms": 1000.0 * per_op(sum(
            own[s.id] for s in spans if s.name == "games.mixed_dominance_check")),
        "schema.load_ms": ms("schema.load_scenario", "schema.load_game"),
        "schema.loads": per_op(calls["schema.load_scenario"] + calls["schema.load_game"]),
        "cli.main_ms": ms("cli.main"),
        "trace.op_ms": ms(OP),
        "trace.unattributed_ms": 1000.0 * per_op(layer_self[OP]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1000.0 * per_op(layer_self[layer])
    return out


#: library modules that get a self-time metric; ``op`` self time is unattributed
LAYERS = ("messages", "listener", "speaker", "ibr", "scenarios", "games", "schema", "cli")
