"""Spans recorded around clockring's public functions, from outside the package.

The tracer replaces each listed function in every ``clockring`` namespace
that holds it.  ``from .spectral import ground_energy`` gives
``clockring.promise`` its own binding, and ``ground_energy`` reaches
``low_spectrum`` through the ``clockring.spectral`` module global, so both
bindings must be replaced for the nested call to be seen.  Methods are
replaced on their class.  Leaving the ``installed()`` block restores the
original objects, so untraced passes run unmodified code.

Spans stay in memory; ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Metric group -> (module, attribute) of every function timed for it.
# "Class.method" names a method replaced on its class.
LAYERS = {
    "circuit.schedule": [
        ("circuit", "random_schedule"),
        ("circuit", "schedule_from_placements"),
    ],
    "basis.orbit": [
        ("basis", "orbit_label_walk"),
        ("basis", "slot_edges"),
        ("basis", "enumerate_legal_orbit"),
    ],
    "hamiltonian.parts": [
        ("hamiltonian", "standard_parts"),
        ("hamiltonian", "build_h_comp_bond"),
        ("hamiltonian", "build_h_form_bond"),
        ("hamiltonian", "build_h_input_bond"),
        ("hamiltonian", "build_h_output_bond"),
    ],
    "hamiltonian.assemble": [
        ("hamiltonian", "assemble"),
        ("hamiltonian", "assemble_part"),
        ("hamiltonian", "assemble_total"),
    ],
    "hamiltonian.check": [
        ("hamiltonian", "build_shift_operator"),
        ("hamiltonian", "check_translation_invariance"),
        ("hamiltonian", "RingOperator.hermiticity_residual"),
        ("hamiltonian", "LocalTerm.hermiticity_residual"),
    ],
    "hamiltonian.export": [
        ("hamiltonian", "export_triplets"),
        ("hamiltonian", "parse_triplets"),
    ],
    "spectral.solve": [
        ("spectral", "low_spectrum"),
        ("spectral", "ground_energy"),
        ("spectral", "gap"),
    ],
    "spectral.restrict": [
        ("spectral", "restrict"),
        ("spectral", "orbit_block_indices"),
    ],
    "spectral.frozen": [
        ("spectral", "frozen_config_indices"),
        ("spectral", "frozen_excluded_submatrix"),
    ],
    "oracle.history": [
        ("oracle", "simulate_history"),
        ("oracle", "HistoryState.history_vector"),
    ],
    "oracle.expect": [("oracle", "expectations")],
    "oracle.plain": [("oracle", "reject_probability")],
    "promise.constants": [("promise", "auto_constants")],
    "promise.self": [
        ("promise", "separation_experiment"),
        ("promise", "decide"),
    ],
}

PACKAGE = "clockring"
COMPLEX_BYTES = 16


def csr_bytes(dim: int, nnz: int) -> int:
    """Computed size of a complex CSR matrix: data, column indices, row pointers."""
    index_bytes = 4 if max(dim, nnz) < 2 ** 31 else 8
    return nnz * (COMPLEX_BYTES + index_bytes) + (dim + 1) * index_bytes


def _observe_assembly(args, kwargs, result):
    return {"dim": result.dim, "nnz": result.nnz, "csr_bytes": csr_bytes(result.dim, result.nnz)}


def _observe_solve(args, kwargs, result):
    operator = args[0] if args else kwargs["operator"]
    mat = operator.matrix if hasattr(operator, "matrix") else operator
    return {
        "dim": int(mat.shape[0]),
        "method": result.method,
        "residual": float(result.residuals.max()),
    }


def _observe_history(args, kwargs, result):
    state = args[0]
    steps = state.n_steps + 1
    return {"history_bytes": steps * int(result.size) * COMPLEX_BYTES}


def _observe_export(args, kwargs, result):
    return {"text_bytes": len(result)}


# Counts taken from arguments and results, keyed by function name, or by
# layer for every function of it; everything else records time only.
OBSERVERS = {
    "hamiltonian.assemble": _observe_assembly,
    "spectral.low_spectrum": _observe_solve,
    "oracle.HistoryState.history_vector": _observe_history,
    "hamiltonian.export_triplets": _observe_export,
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    job: str
    parent: int | None
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of a listed function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        observe = OBSERVERS.get(name) or OBSERVERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, layer, self.job, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.counts = observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        targets = []
        for layer, entries in LAYERS.items():
            for module_name, attr in entries:
                home = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    targets.append((layer, f"{module_name}.{attr}", [(owner, meth)], getattr(owner, meth)))
                else:
                    original = getattr(home, attr)
                    holders = [
                        (mod, key) for mod in modules
                        for key, value in vars(mod).items() if value is original
                    ]
                    targets.append((layer, f"{module_name}.{attr}", holders, original))
        try:
            for layer, name, holders, original in targets:
                wrapper = self._wrap(layer, name, original)
                for owner, key in holders:
                    self._saved.append((owner, key, original))
                    setattr(owner, key, wrapper)
            yield self
        finally:
            while self._saved:
                owner, key, original = self._saved.pop()
                setattr(owner, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def outermost(spans: list[Span]) -> list[Span]:
    """Spans with no ancestor in the same layer: one per layer-level call."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out
