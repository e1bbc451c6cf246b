"""Spans and counters recorded from outside the qbpm package.

``instrumented(tracer)`` replaces the public functions and methods of
``qbpm.qstate``, ``qbpm.circuit``, ``qbpm.propagator``,
``qbpm.classical_bpm``, ``qbpm.scenarios`` and ``qbpm.cli`` with wrappers
that open a span around the call, including the names that ``qbpm.cli``
and ``qbpm.scenarios`` bind with ``from ... import``.  Everything is
restored on exit.  Spans stay in memory; ``layer_metrics`` reduces them to
per-op medians and ``dump`` writes them out once at the end.

A circuit built through a traced build function is registered with its segment
bounds (QFT, transfer phase, inverse QFT), taken from ``len(build_qft(n))``
and ``len(decompose_monomial(n, p))``.  ``Circuit.run`` then reaches
``StateVector.apply_sequence`` once per segment, so the three stages are
timed separately without any timer inside the package.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import weakref
from contextlib import contextmanager
from time import perf_counter_ns

from qbpm import circuit as qcircuit
from qbpm import classical_bpm, cli, propagator, qft, qstate, scenarios

_AMPLITUDE_BYTES = 16  # complex128
_SEGMENTS = ("qft", "transfer", "iqft")


class Tracer:
    """In-memory span and counter store for one traced loop."""

    def __init__(self) -> None:
        # (span_id, name, start_ns, end_ns, parent_id, op_id)
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._segments = weakref.WeakKeyDictionary()  # Circuit -> segment list
        self._layout_cache: dict[tuple, list] = {}
        self._pending_segments = None
        self._building = False

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    def count(self, name: str, value: float, op_id: int | None = None) -> None:
        key = (self.op_id if op_id is None else op_id, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def dump(self, path) -> None:
        counts = [[op, name, value] for (op, name), value in sorted(self.counts.items())]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)

    # -- circuit segment bookkeeping -------------------------------------

    def _register(self, built, n: int, polynomial, axes: int) -> None:
        orders = (2,) if polynomial is None else tuple(sorted(polynomial.orders))
        key = (n, orders, axes, len(built))
        layout = self._layout_cache.get(key)
        if layout is None:
            layout = _segment_layout(built, n, orders, axes)
            self._layout_cache[key] = layout
        self._segments[built] = layout
        transfer = sum(b - a for name, a, b, _ in layout if name == "transfer")
        self.count("propagator.gates_built", len(built))
        self.count("propagator.transfer_gates", transfer)


def _gate_bytes(gate, n_states: int) -> int:
    """Computed bytes one gate reads and writes: touched amplitudes x 16 B x 2."""
    if isinstance(gate, qcircuit.Hadamard):
        touched = n_states
    elif isinstance(gate, qcircuit.Swap):
        touched = n_states // 2
    else:  # diagonal phase: amplitudes whose listed qubits are all 1
        touched = n_states >> len(gate.qubits)
    return touched * _AMPLITUDE_BYTES * 2


def _segment_layout(built, n: int, orders: tuple[int, ...], axes: int) -> list:
    n_qft = len(qft.build_qft(n))
    n_transfer = sum(len(propagator.decompose_monomial(n, p)) for p in orders)
    per_axis = 2 * n_qft + n_transfer
    if len(built) != axes * per_axis:
        raise RuntimeError(
            f"circuit has {len(built)} gates, expected {axes} x (2 x {n_qft} + {n_transfer})"
        )
    gates = built.gates
    layout = []
    for axis in range(axes):
        base = axis * per_axis
        bounds = (base, base + n_qft, base + n_qft + n_transfer, base + per_axis)
        for name, a, b in zip(_SEGMENTS, bounds, bounds[1:]):
            nbytes = sum(_gate_bytes(g, 1 << built.n_qubits) for g in gates[a:b])
            layout.append((name, a, b, nbytes))
    return layout


# -- wrappers ---------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _build_wrapper(tracer: Tracer, fn, axes: int):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer._building:  # build_qbpm_circuit_2d calls build_qbpm_circuit
            return fn(*args, **kwargs)
        tracer._building = True
        try:
            with tracer.span("propagator.build"):
                built = fn(*args, **kwargs)
        finally:
            tracer._building = False
        bound = signature.bind(*args, **kwargs).arguments
        n = bound["n"] if axes == 1 else bound["n_per_axis"]
        tracer._register(built, n, bound.get("polynomial"), axes)
        return built

    return wrapper


def _circuit_run(tracer: Tracer, fn):
    @functools.wraps(fn)
    def run(self, state):
        layout = tracer._segments.get(self)
        if layout is None:
            raise RuntimeError("circuit was not built through a traced build function")
        with tracer.span("circuit.run"):
            tracer._pending_segments = layout
            try:
                return fn(self, state)
            finally:
                tracer._pending_segments = None

    return run


def _apply_sequence(tracer: Tracer, fn):
    @functools.wraps(fn)
    def apply_sequence(self, gates):
        layout, tracer._pending_segments = tracer._pending_segments, None
        if layout is None:
            raise RuntimeError("apply_sequence called outside a traced Circuit.run")
        gates = list(gates)
        state = self
        for name, a, b, nbytes in layout:
            with tracer.span("qstate.apply_" + name):
                state = fn(state, gates[a:b])
            tracer.count("qstate.gates_applied", b - a)
            tracer.count("qstate.bytes_computed", nbytes)
        return state

    return apply_sequence


def _sample(tracer: Tracer, fn):
    @functools.wraps(fn)
    def sample(self, n_shots, seed):
        with tracer.span("qstate.sample"):
            counts = fn(self, n_shots, seed)
        tracer.count("qstate.sample_calls", 1)
        tracer.count("qstate.shots_drawn", n_shots)
        return counts

    return sample


@contextmanager
def instrumented(tracer: Tracer):
    """Route every traced qbpm entry point through ``tracer`` while active."""
    state_vector = qstate.StateVector
    patches = [
        (state_vector, "apply_sequence", _apply_sequence(tracer, state_vector.apply_sequence)),
        (state_vector, "sample", _sample(tracer, state_vector.sample)),
        (
            qstate.SampleCounts,
            "frequencies",
            _spanned(tracer, "qstate.frequencies", qstate.SampleCounts.frequencies),
        ),
        (qcircuit.Circuit, "run", _circuit_run(tracer, qcircuit.Circuit.run)),
    ]
    build_1d = _build_wrapper(tracer, propagator.build_qbpm_circuit, axes=1)
    build_2d = _build_wrapper(tracer, propagator.build_qbpm_circuit_2d, axes=2)
    by_name = {
        "build_qbpm_circuit": build_1d,
        "build_qbpm_circuit_2d": build_2d,
        "propagate_1d": _spanned(tracer, "classical_bpm.propagate", classical_bpm.propagate_1d),
        "propagate_2d": _spanned(tracer, "classical_bpm.propagate", classical_bpm.propagate_2d),
        "rmse": _spanned(tracer, "classical_bpm.rmse", classical_bpm.rmse),
        "error_analysis": _spanned(
            tracer, "scenarios.error_analysis", scenarios.error_analysis
        ),
        "waist_from_counts": _spanned(tracer, "scenarios.waist", scenarios.waist_from_counts),
        "waist_from_field": _spanned(tracer, "scenarios.waist", scenarios.waist_from_field),
        "double_slit_initial": _spanned(
            tracer, "scenarios.fields", scenarios.double_slit_initial
        ),
        "double_slit_analytic": _spanned(
            tracer, "scenarios.fields", scenarios.double_slit_analytic
        ),
        "gaussian_initial_2d": _spanned(
            tracer, "scenarios.fields", scenarios.gaussian_initial_2d
        ),
        "main": _spanned(tracer, "cli.main", cli.main),
    }
    for module in (propagator, classical_bpm, scenarios, cli):
        for name, wrapper in by_name.items():
            if name in vars(module):
                patches.append((module, name, wrapper))
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


# -- reduction --------------------------------------------------------------

# metric name = span name + "_s": per-op total duration of that span
_TIMED_SPANS = (
    "qstate.apply_qft",
    "qstate.apply_transfer",
    "qstate.apply_iqft",
    "qstate.sample",
    "qstate.frequencies",
    "propagator.build",
    "circuit.run",
    "classical_bpm.propagate",
    "classical_bpm.rmse",
    "scenarios.error_analysis",
    "scenarios.waist",
    "scenarios.fields",
    "bench.reference",
)
_SELF_SPANS = {"scenarios.self_s": "scenarios.error_analysis", "cli.self_s": "cli.main"}
_COUNTS = (
    "qstate.gates_applied",
    "qstate.bytes_computed",
    "qstate.sample_calls",
    "qstate.shots_drawn",
    "propagator.gates_built",
    "propagator.transfer_gates",
    "cli.bytes_written",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op medians of every layer's time, self time and counters.

    Also ``op_s`` (median traced op) and ``trace.op_self_frac``, the
    median share of an op that no child span covers.
    """
    child_ns: dict[int, int] = {}
    for _, _, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    per_op: dict[int, dict[str, float]] = {}
    for span_id, name, start, end, _, op in tracer.spans:
        if op is None:
            continue
        totals = per_op.setdefault(op, {})
        duration = (end - start) * 1e-9
        self_time = duration - child_ns.get(span_id, 0) * 1e-9
        totals[name] = totals.get(name, 0.0) + duration
        totals[name + ":self"] = totals.get(name + ":self", 0.0) + self_time
    for (op, name), value in tracer.counts.items():
        per_op.setdefault(op, {})[name] = value

    def median(fn) -> float:
        return statistics.median(fn(totals) for totals in per_op.values())

    metrics = {span + "_s": median(lambda t, s=span: t.get(s, 0.0)) for span in _TIMED_SPANS}
    for metric, span in _SELF_SPANS.items():
        metrics[metric] = median(lambda t, s=span: t.get(s + ":self", 0.0))
    for name in _COUNTS:
        metrics[name] = median(lambda t, n=name: t.get(n, 0))

    def apply_s(t) -> float:
        return sum(t.get("qstate.apply_" + s, 0.0) for s in _SEGMENTS)

    metrics["qstate.gbps_computed"] = median(
        lambda t: t.get("qstate.bytes_computed", 0) / apply_s(t) / 1e9 if apply_s(t) else 0.0
    )
    metrics["cli.write_mb_per_s"] = median(
        lambda t: t.get("cli.bytes_written", 0) / t["cli.main:self"] / 1e6
        if t.get("cli.main:self")
        else 0.0
    )
    metrics["op_s"] = median(lambda t: t["op"])
    metrics["trace.op_self_frac"] = median(lambda t: t["op:self"] / t["op"])
    return metrics
