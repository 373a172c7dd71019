"""Outside-in layer tracing for the traced benchmark run.

Nothing inside the program records spans yet, so the traced run wraps
the public functions at each layer boundary from here: a wrapper is
installed as the module attribute (or class attribute) at the place the
program looks the function up, and kernels are timed through a
:class:`~repro.backend.NumericBackend` subclass installed with
``set_backend`` before any session exists.  Untraced runs install
nothing.

Each span records its name, start, end, parent span and the request (or
phase) it belongs to; spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus its child spans'
durations, accumulated per thread as the stack unwinds.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: Span name -> the functions it wraps, as ``module:attribute`` or
#: ``module:Class.method``.  The span names are the per-layer metric
#: stems (``<name>_s`` self seconds, ``<name>_calls``).
SPAN_SITES: Dict[str, Tuple[str, ...]] = {
    # serve: the wire codec on both ends of the socket
    "serve.codec": (
        "repro.serve.server:encode_frame",
        "repro.serve.server:decode_frame",
        "repro.serve.server:request_from_dict",
        "repro.serve.server:response_to_dict",
        "repro.serve.client:encode_frame",
        "repro.serve.client:decode_frame",
        "repro.serve.client:request_to_dict",
        "repro.serve.client:response_from_dict",
    ),
    # service
    "service.explain_many": ("repro.service.service:ExplanationService.explain_many",),
    "service.commit": ("repro.service.service:ExplanationService.commit",),
    "service.rebase": ("repro.service.registry:EngineRegistry.rebase",),
    # explain: drivers, estimators, overlays, candidates, decisions
    "explain.driver": (
        "repro.explain.factual:FactualExplainer.explain_skills",
        "repro.explain.factual:FactualExplainer.explain_query",
        "repro.explain.factual:FactualExplainer.explain_collaborations",
        "repro.explain.counterfactual:CounterfactualExplainer.explain_skill_removal",
        "repro.explain.counterfactual:CounterfactualExplainer.explain_skill_addition",
        "repro.explain.counterfactual:CounterfactualExplainer.explain_query_augmentation",
        "repro.explain.counterfactual:CounterfactualExplainer.explain_link_addition",
        "repro.explain.counterfactual:CounterfactualExplainer.explain_link_removal",
    ),
    "explain.shap": ("repro.explain.shap:kernel_shap", "repro.explain.shap:exact_shap"),
    "explain.masked_inputs": ("repro.explain.factual:masked_inputs",),
    "explain.beam": ("repro.explain.counterfactual:beam_search_counterfactuals",),
    "explain.candidates": (
        "repro.explain.counterfactual:skill_removal_candidates",
        "repro.explain.counterfactual:skill_addition_candidates",
        "repro.explain.counterfactual:query_augmentation_candidates",
        "repro.explain.counterfactual:link_addition_candidates",
        "repro.explain.counterfactual:link_removal_candidates",
    ),
    "explain.decide": (
        "repro.explain.targets:RelevanceTarget.decide_with_order_scored",
        "repro.explain.targets:MembershipTarget.decide_with_order_scored",
    ),
    # search: probe engine and delta sessions
    "search.engine": (
        "repro.search.engine:ProbeEngine.probe",
        "repro.search.engine:ProbeEngine.probe_batch",
    ),
    "search.session": tuple(
        f"repro.search.engine:{cls}.{method}"
        for cls in ("GcnDeltaSession", "PageRankDeltaSession")
        for method in ("scores", "scores_batch", "scores_multi", "scores_localized")
    ),
    # team formation
    "team.form": (
        "repro.team.engine:CoverTeamDeltaSession.form",
        "repro.team.engine:CoverTeamDeltaSession.warm",
    ),
    # graph
    "graph.flips": ("repro.graph.overlay:NetworkOverlay.flips",),
    "graph.apply_perturbations": ("repro.explain.counterfactual:apply_perturbations",),
    "graph.neighborhood": (
        "repro.graph.network:CollaborationNetwork.neighborhood",
        "repro.graph.overlay:NetworkOverlay.neighborhood",
    ),
    "graph.apply_delta": ("repro.graph.network:CollaborationNetwork.apply_delta",),
    # set-up modules
    "graph.stream_build": ("repro.graph.generators:synthesize_network_streaming",),
    "datasets.build": ("repro.datasets:dblp_like",),
    "embeddings.train": (
        "repro.exes:train_ppmi_embedding",
        "repro.embeddings.ppmi:train_ppmi_embedding",
    ),
    "search.fit": ("repro.search.gcn:GcnExpertRanker.fit",),
    "linkpred.train": (
        "repro.exes:train_gae",
        "repro.linkpred.heuristics:HeuristicLinkPredictor.fit",
    ),
}

#: Spans that also count the bytes of their arguments and results.
BYTE_COUNTED = ("serve.codec",)

#: Kernels timed through the timing backend, each as ``backend.<kernel>``.
KERNELS = (
    "spmv",
    "spmm",
    "matmul",
    "power_iteration",
    "power_iteration_stacked",
    "ppr_delta_push",
    "authority_iteration",
    "gcn_forward",
    "gcn_forward_blocks",
    "block_diag_csr",
    "gather_rows",
    "row_dot",
    "gather_dots",
)


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "bytes")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[Tuple, float] = defaultdict(float)
        self.calls: Dict[Tuple, int] = defaultdict(int)
        self.bytes: Dict[Tuple, int] = defaultdict(int)


def _nbytes(value) -> int:
    """Bytes held by a numpy array, a scipy sparse matrix or a wire frame
    (0 otherwise)."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    data = getattr(value, "data", None)
    if data is not None and hasattr(value, "indptr"):
        return data.nbytes + value.indices.nbytes + value.indptr.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """In-memory span recorder.

    ``phase`` names what the process is doing — ``"setup"``, a request
    index, ``("commit", j)`` — and is stamped on every span that ends
    while it is set."""

    def __init__(self, process: str = "main") -> None:
        self.process = process
        self.phase = "setup"
        self.spans: List[Tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name: str, fn, count_bytes: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][0] if stack else None
            frame = [next(tracer._ids), 0.0, count_bytes]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                # Stamped at the end: a server learns which request a
                # frame belongs to only once the frame is decoded.
                phase = tracer.phase
                stack.pop()
                duration = end - start
                key = (name, _phase_kind(phase))
                state.self_s[key] += duration - frame[1]
                state.calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((frame[0], name, start, end, parent, phase))
            # Only the outermost byte-counted call adds its operands: a
            # blocked GCN forward hands the same arrays to the single one.
            if count_bytes and not (stack and stack[-1][2]):
                state.bytes[key] += (
                    _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(result)
                )
            return result

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, count_bytes: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count_bytes))
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every site in :data:`SPAN_SITES` and install the timing
        backend.  Call before any delta session is built."""
        from repro.backend import set_backend

        for name, sites in SPAN_SITES.items():
            for site in sites:
                module_name, path = site.split(":")
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                self._patch(owner, attr, name, count_bytes=name in BYTE_COUNTED)
        set_backend(timing_backend(self))
        return self

    def uninstall(self) -> None:
        from repro.backend import set_backend

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        set_backend(None)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{phase kind: {span name: {"self_s", "calls", "bytes"}}}`` over
        every thread, with phase kinds ``setup``, ``request``, ``commit``
        and ``other``."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for (name, kind), seconds in list(state.self_s.items()):
                row = out.setdefault(kind, {}).setdefault(
                    name, {"self_s": 0.0, "calls": 0, "bytes": 0}
                )
                row["self_s"] += seconds
                row["calls"] += state.calls[(name, kind)]
                row["bytes"] += state.bytes.get((name, kind), 0)
        return out

    def inclusive_by_phase(self) -> Dict:
        """Summed duration of each phase's outermost spans (the time the
        traced program covered), keyed by phase."""
        ids = {span[0] for span in self.spans}
        out: Dict = defaultdict(float)
        for sid, name, start, end, parent, phase in self.spans:
            if parent is None or parent not in ids:
                out[phase] += end - start
        return dict(out)

    def span_records(self) -> List[list]:
        return [
            [self.process, sid, name, start, end, parent, _freeze(phase)]
            for sid, name, start, end, parent, phase in self.spans
        ]


def _phase_kind(phase) -> str:
    if isinstance(phase, int):
        return "request"
    if isinstance(phase, tuple) and phase and phase[0] == "commit":
        return "commit"
    if phase == "setup":
        return "setup"
    return "other"


def _freeze(phase):
    return list(phase) if isinstance(phase, tuple) else phase


def timing_backend(tracer: Tracer):
    """A numpy backend whose every kernel call is a ``backend.<kernel>``
    span that also counts operand and result bytes."""
    from repro.backend import NumpyBackend

    methods = {}
    for kernel in KERNELS:
        original = getattr(NumpyBackend, kernel)
        methods[kernel] = tracer.wrap(f"backend.{kernel}", original, count_bytes=True)
    cls = type("TimingNumpyBackend", (NumpyBackend,), methods)
    return cls()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Per-kind latency keys reported as ``explain.<key>.p50_s``.
KIND_KEYS = tuple(
    f"search.{kind}"
    for kind in ("skills", "query", "collaborations", "cf_skills", "cf_query", "cf_collaborations")
) + tuple(f"team.{kind}" for kind in ("cf_skills", "cf_query", "cf_collaborations"))

#: Kernels reported one by one (the rest only count towards
#: ``backend.kernel_s``).
REPORTED_KERNELS = (
    "gcn_forward_blocks",
    "gcn_forward",
    "power_iteration",
    "power_iteration_stacked",
    "ppr_delta_push",
    "spmm",
    "spmv",
    "matmul",
)

#: Timed names reported as ``<name>_s`` and ``<name>_calls``.
TIMED = (
    "serve.codec",
    "service.commit",
    "service.rebase",
    "explain.driver",
    "explain.shap",
    "explain.masked_inputs",
    "explain.beam",
    "explain.candidates",
    "explain.decide",
    "search.engine",
    "search.session",
    "team.form",
    "graph.flips",
    "graph.apply_perturbations",
    "graph.neighborhood",
    "graph.apply_delta",
) + tuple(f"backend.{k}" for k in REPORTED_KERNELS)

#: Set-up spans reported per set-up (mean over the run's set-ups).
SETUP_TIMED = {
    "graph.stream_build": "graph.stream_build_s",
    "datasets.build": "datasets.build_s",
    "embeddings.train": "embeddings.train_s",
    "search.fit": "search.fit_s",
    "linkpred.train": "linkpred.train_s",
}


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    units: Dict[str, Tuple[str, str]] = {}
    for name in TIMED:
        units[f"{name}_s"] = ("s", "lower")
        units[f"{name}_calls"] = ("count", "lower")
    units.update(
        {
            "serve.wire_s": ("s", "lower"),
            "serve.bytes": ("B", "lower"),
            "serve.boot_s": ("s", "lower"),
            "service.overhead_s": ("s", "lower"),
            "service.commit_p50_s": ("s", "lower"),
            "service.memo_retained_share": ("share", "higher"),
            "service.engine_builds": ("count", "lower"),
            "service.session_builds": ("count", "lower"),
            "service.fallbacks": ("count", "lower"),
            "service.rss_ready_mib": ("MiB", "lower"),
            "explain.coalitions": ("count", "lower"),
            "explain.probes": ("count", "lower"),
            "search.memo_hit_share": ("share", "higher"),
            "search.states_per_flush": ("count", "higher"),
            "search.plans.exact": ("count", "higher"),
            "search.plans.sampled": ("count", "higher"),
            "search.plans.global": ("count", "lower"),
            "search.max_residual_bound": ("l1", "lower"),
            "search.localized_mismatches": ("count", "lower"),
            "backend.kernel_s": ("s", "lower"),
            "backend.kernel_share": ("share", "higher"),
            "backend.bytes_moved": ("B", "lower"),
            "trace.unattributed_share": ("share", "lower"),
            "trace.overhead": ("share", "lower"),
        }
    )
    for stem in SETUP_TIMED.values():
        units[stem] = ("s", "lower")
    for key in KIND_KEYS:
        units[f"explain.{key}.p50_s"] = ("s", "lower")
    return units


def layer_metrics(totals: Dict, n_setups: int, request_wall_s: float) -> Dict[str, float]:
    """Self seconds, calls and kernel bytes from :meth:`Tracer.totals`
    (request and commit phases; set-up spans per set-up).

    ``backend.kernel_share`` divides the kernel time of the request phase
    alone by the requests' summed latency ``request_wall_s``: commit
    rebases run kernels too, but outside any request."""
    runtime: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "bytes": 0}
    )
    for kind in ("request", "commit"):
        for name, row in totals.get(kind, {}).items():
            for field in ("self_s", "calls", "bytes"):
                runtime[name][field] += row[field]
    out: Dict[str, float] = {}
    for name in TIMED:
        out[f"{name}_s"] = runtime[name]["self_s"] if name in runtime else 0.0
        out[f"{name}_calls"] = runtime[name]["calls"] if name in runtime else 0
    out["service.overhead_s"] = runtime["service.explain_many"]["self_s"]
    kernels = [name for name in runtime if name.startswith("backend.")]
    out["backend.kernel_s"] = sum(runtime[name]["self_s"] for name in kernels)
    out["backend.bytes_moved"] = sum(runtime[name]["bytes"] for name in kernels)
    request_kernel_s = sum(
        row["self_s"]
        for name, row in totals.get("request", {}).items()
        if name.startswith("backend.")
    )
    out["backend.kernel_share"] = request_kernel_s / request_wall_s
    setup = totals.get("setup", {})
    for span, stem in SETUP_TIMED.items():
        out[stem] = setup[span]["self_s"] / max(n_setups, 1) if span in setup else 0.0
    return out


#: Layers of the table, in the order a request crosses them.
LAYERS = ("serve", "service", "explain", "search", "backend", "graph", "team")


def layer_table(totals: Dict, request_wall_s: float, unattributed_s: float, overhead: float) -> str:
    """The per-workload layer table of the request phase."""
    rows: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
    for name, row in totals.get("request", {}).items():
        layer = name.split(".")[0]
        if layer in rows:
            rows[layer][0] += row["self_s"]
            rows[layer][1] += row["calls"]
    lines = [f"{'layer':<12}{'self_s':>12}{'calls':>12}{'share':>9}"]
    for layer in LAYERS:
        seconds, calls = rows[layer]
        share = seconds / request_wall_s if request_wall_s else 0.0
        lines.append(f"{layer:<12}{seconds:>12.4f}{int(calls):>12d}{share:>9.1%}")
    share = unattributed_s / request_wall_s if request_wall_s else 0.0
    lines.append(f"{'unattributed':<12}{unattributed_s:>12.4f}{'':>12}{share:>9.1%}")
    lines.append(f"request wall time {request_wall_s:.4f} s; tracing overhead {overhead:+.1%} (untraced/traced throughput - 1)")
    return "\n".join(lines)
