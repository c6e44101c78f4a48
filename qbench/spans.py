"""Span recording around qnearest's public functions, from outside ``src/``.

The tracer swaps each public function for a timing wrapper in every
``qnearest`` module namespace that holds it. Internal calls resolve through
module globals (``qnearest.builder.apply_controlled``,
``qnearest.measure.build_layout``), so the wrappers see them as well as the
benchmark's own calls. Dataclass validation runs through ``__post_init__``,
which is wrapped on the class.

Spans are kept in memory as tuples and written once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# A recorded span: (span id, parent id or None, search id, phase, name,
# start ns, end ns, info). ``phase`` is "search" for spans under the timed
# ``run_search`` call and "check" for the caller's rendering and checking.
SID, PARENT, SEARCH, PHASE, NAME, START, END, INFO = range(8)

LAYERS = ("cli", "builder", "gates", "state", "measure", "oracle")

# (span name, module, attribute). The attribute is looked up in ``module``
# and its object is replaced wherever any qnearest module holds it.
FUNCTIONS = (
    ("cli.run_search", "qnearest.cli", "run_search"),
    ("cli.render", "qnearest.cli", "render_search_document"),
    ("builder.build_layout", "qnearest.builder", "build_layout"),
    ("builder.superposition_gates", "qnearest.builder", "superposition_gates"),
    ("builder.copy_gates", "qnearest.builder", "copy_gates"),
    ("builder.comparison_gates", "qnearest.builder", "comparison_gates"),
    ("builder.build_circuit", "qnearest.builder", "build_circuit"),
    ("builder.execute_circuit", "qnearest.builder", "execute_circuit"),
    ("builder.run", "qnearest.builder", "run"),
    ("builder.load_superposition", "qnearest.builder", "load_superposition"),
    ("builder.apply_comparison_stage", "qnearest.builder", "apply_comparison_stage"),
    ("gates.rx", "qnearest.gates", "rx"),
    ("gates.hadamard", "qnearest.gates", "hadamard"),
    ("gates.fourier", "qnearest.gates", "fourier"),
    ("gates.pauli_x", "qnearest.gates", "pauli_x"),
    ("state.apply", "qnearest.state", "apply_controlled"),
    ("state.init_basis_state", "qnearest.state", "init_basis_state"),
    ("state.marginal", "qnearest.state", "marginal_probabilities"),
    ("measure.index_distribution", "qnearest.measure", "index_distribution"),
    ("measure.decide", "qnearest.measure", "decide"),
    ("measure.sample", "qnearest.measure", "sample"),
    ("oracle.scan", "qnearest.oracle", "classical_nearest"),
    ("oracle.closed_form", "qnearest.oracle", "closed_form_generalized"),
    ("oracle.closed_form", "qnearest.oracle", "closed_form_paper"),
)

# (span name, module, class): validation in the class's ``__post_init__``.
VALIDATORS = (
    ("builder.problem", "qnearest.builder", "SearchProblem"),
    ("gates.validate", "qnearest.gates", "Gate"),
)

# Spans that build a circuit (layout and gate lists); the outermost one of a
# nest is counted as circuit-construction time.
CONSTRUCTION = frozenset({
    "builder.build_circuit", "builder.build_layout", "builder.superposition_gates",
    "builder.copy_gates", "builder.comparison_gates",
})
GATE_CONSTRUCTORS = frozenset({"gates.rx", "gates.hadamard", "gates.fourier", "gates.pauli_x"})
GATE_LISTS = {
    "builder.superposition_gates": "superposition",
    "builder.copy_gates": "copy",
    "builder.comparison_gates": "comparison",
}
APPLY_KINDS = ("H", "F", "X", "RX")


def gate_kind(matrix) -> str:
    """Name the gate a matrix came from: H, F (Fourier), X (shift) or RX.

    The search circuits use exactly these four constructors; a shift has a
    zero top-left entry, the Hadamard a real negative bottom-right one.
    """
    if matrix[0, 0] == 0:
        return "X"
    if matrix.shape[0] > 2:
        return "F"
    corner = matrix[1, 1]
    return "H" if corner.imag == 0 and corner.real < 0 else "RX"


class Tracer:
    """Records spans for one run; install it with :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.search = 0
        self.phase = "search"
        self.last_state = None  # final state of the latest run or execute_circuit

    def _wrap(self, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter_ns
        is_apply = name == "state.apply"
        gate_list = name in GATE_LISTS
        keeps_state = name in ("builder.run", "builder.execute_circuit")

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
            info = None
            span_name = name
            if is_apply:
                state = args[0] if args else kwargs["state"]
                controls = args[1] if len(args) > 1 else kwargs["controls"]
                matrix = args[3] if len(args) > 3 else kwargs["matrix"]
                dims = state.layout.dims
                amps = state.amplitudes.size
                block = amps
                for site, _digit in controls:
                    block //= dims[site]
                span_name = "state.apply." + gate_kind(matrix)
                info = (amps, block)
            elif gate_list:
                info = len(result)
            elif keeps_state:
                self.last_state = result
            spans.append((sid, parent, self.search, self.phase, span_name, start, end, info))
            return result

        return wrapper

    def installed(self):
        """Context manager that swaps the wrappers in and restores the originals."""
        return _Installation(self._wrap)


class PeakProbe:
    """Peak traced bytes of the state-building and sampling calls.

    Needs ``tracemalloc`` running; NumPy reports its array buffers to it.
    Each wrapped call resets the peak, so the calls must not nest.
    """

    WATCHED = {"builder.run": "state", "state.marginal": "state", "measure.sample": "sample"}

    def __init__(self) -> None:
        self.peaks: dict[str, int] = defaultdict(int)  # per-search maximum
        self.totals: dict[str, int] = defaultdict(int)  # summed over searches

    def end_search(self) -> None:
        for key, value in self.peaks.items():
            self.totals[key] += value
        self.peaks.clear()

    def _wrap(self, name: str, fn):
        key = self.WATCHED.get(name)
        if key is None:
            return fn

        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[key] = max(self.peaks[key], peak)

        return wrapper

    def installed(self):
        return _Installation(self._wrap)


class _Installation:
    def __init__(self, wrap) -> None:
        self.wrap = wrap
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "qnearest" or k.startswith("qnearest.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, module, cls_name in VALIDATORS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__["__post_init__"]
            self.undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self.wrap(name, original)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered, cursor = 0, lo
        for c_start, c_end in sorted(children.get(s[SID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, hi)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s[SID]] = (hi - lo) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def spans_over_wall(spans, selfs: dict[int, int], walls_ns: dict[int, int]) -> list[int]:
    """Searches whose search-phase self times sum to more than their wall time."""
    total: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PHASE] == "search":
            total[s[SEARCH]] += selfs[s[SID]]
    return sorted(k for k, v in total.items() if v > walls_ns.get(k, 0))


def layer_metrics(spans, selfs: dict[int, int], searches: int, wall_ns: int) -> dict[str, float]:
    """Per-search means of the per-layer metrics, and each layer's share of
    the summed search wall time (``wall_ns``); ``selfs`` from :func:`self_times`."""
    by_sid = {s[SID]: s for s in spans}
    per = 1.0 / searches
    ms = 1e-6 * per
    out: dict[str, float] = defaultdict(float)
    for kind in APPLY_KINDS:
        out[f"state.apply.{kind}.calls"] = 0.0
        out[f"state.apply.{kind}.ms"] = 0.0
    share: dict[str, int] = {layer: 0 for layer in LAYERS}
    sample_self = apply_ns = amp_gates = block_amps = 0
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        if s[PHASE] == "check":
            if name == "oracle.closed_form" and s[PARENT] is None:
                out["oracle.closed_form.ms"] += dur * ms
            elif name == "cli.render":
                out["cli.render.ms"] += dur * ms
            continue
        share[layer_of(name)] += selfs[s[SID]]
        if name.startswith("state.apply."):
            kind = name.rsplit(".", 1)[1]
            out[f"state.apply.{kind}.calls"] += per
            out[f"state.apply.{kind}.ms"] += dur * ms
            apply_ns += dur
            amp_gates += s[INFO][0]
            block_amps += s[INFO][1]
        elif name in CONSTRUCTION:
            parent = by_sid.get(s[PARENT])
            if parent is None or parent[NAME] not in CONSTRUCTION:
                out["builder.build_circuit.ms"] += dur * ms
            if name == "builder.build_layout":
                out["builder.layout.calls_per_search"] += per
            if name in GATE_LISTS:
                out[f"builder.gates.{GATE_LISTS[name]}"] += s[INFO] * per
        elif name in GATE_CONSTRUCTORS:
            out["gates.construct.calls"] += per
            out["gates.construct.ms"] += dur * ms
        elif name in ("builder.problem", "state.marginal", "measure.index_distribution",
                      "oracle.scan"):
            out[name + ".ms"] += dur * ms
        elif name == "measure.sample":
            out["measure.sample.ms"] += dur * ms
            sample_self += selfs[s[SID]]
    out["state.amp_gates"] = amp_gates * per
    out["state.ns_per_amp_gate"] = apply_ns / amp_gates if amp_gates else 0.0
    # two passes (read and write) of 16-byte amplitudes over each gate's
    # controlled block: a model from array sizes, not a hardware count
    out["state.bytes_computed"] = 32.0 * block_amps * per
    for layer, ns in share.items():
        out[f"share.{layer}"] = ns / wall_ns
    out["share.measure.sample"] = sample_self / wall_ns
    for key in ("builder.problem.ms", "builder.build_circuit.ms", "builder.layout.calls_per_search",
                "builder.gates.superposition", "builder.gates.copy", "builder.gates.comparison",
                "gates.construct.calls", "gates.construct.ms", "cli.render.ms",
                "measure.index_distribution.ms", "measure.sample.ms", "state.marginal.ms",
                "oracle.scan.ms", "oracle.closed_form.ms"):
        out.setdefault(key, 0.0)
    return dict(out)


def write_spans(path, spans) -> None:
    """Write all spans, once, at the end of a run: gzip'd JSON lines, a
    header naming the fields, then one array per span."""
    fields = ["id", "parent", "search", "phase", "name", "start_ns", "end_ns", "info"]
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": fields}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
