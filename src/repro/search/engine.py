"""The incremental probe engine: multi-ranker delta scoring + probe memoization.

ExES's explanation search is throughput-bound on probes — thousands of
``decide(person, q', G')`` calls against the ranker, where each ``(q', G')``
differs from the base inputs by 1–5 flips.  The seed implementation paid a
full network deep copy plus a from-scratch rebuild of every derived artifact
(skill incidence, node features, adjacency, idf statistics) for every single
probe.  This module makes probes O(Δ) for **all four shipped rankers**:

* :class:`DeltaSession` — the per-(ranker, base-network-version) protocol.
  A session caches the base network's derived artifacts once and serves
  every :class:`~repro.graph.overlay.NetworkOverlay` over that base with
  delta patches instead of rebuilds.  Rankers open sessions through
  :meth:`~repro.search.base.ExpertSearchSystem.delta_session`; dispatch
  happens inside ``scores`` so overlays are delta-scored wherever they
  appear — beam search, SHAP value functions, candidate generation, and
  anything routed through ``ExES.probe_engine``.

  Per-ranker implementations:

  - :class:`GcnDeltaSession` — cached base features per query and the
    base ``A+I`` tiled down a block diagonal; a flush of up to
    :data:`_BATCH_GROUP` probes splices every edge flip into the tiles in
    one :func:`_flip_csr` call, normalizes ``D^-1/2 (A+I) D^-1/2`` once
    and re-derives only the feature rows whose skills flipped.
  - :class:`PageRankDeltaSession` — cached transition operator (adjacency +
    out-degrees) and, per query, the restart counts and base solution; a
    probe patches the restart vector / degrees in O(Δ) and warm-starts
    power iteration from the base solution.
  - :class:`HitsDeltaSession` — cached root-set indicator and base-set
    support counts per query; skill and edge flips update both in O(Δ),
    and the restricted base-set adjacency is sliced *sparse* from the
    cached global CSR (never the seed's dense m×m allocation).
  - :class:`TfidfDeltaSession` — idf statistics fit once per base-network
    version (never on perturbed profiles), the base profile matrix and
    per-query score vector cached; a skill flip re-scores one profile row.

  Contract: session scores match the ranker's from-scratch ``full_rebuild``
  scores to 1e-9 (verified per ranker in ``tests/search/test_engine.py``).

  Every session also answers ``scores_multi`` — many queries against one
  overlay, the shape of a SHAP sweep that masks query terms while the
  network stays fixed — and ``scores_batch`` — one query against many
  overlays.  The GCN runs either as one block-diagonal forward per flush,
  PageRank as stacked warm-started power iterations through shared
  ``(n, k)`` spmm kernels, and TF-IDF gathers its patched profile rows
  once; HITS loops :meth:`DeltaSession.scores`.  Under a localized scope
  (:func:`~repro.runtime.localized_scope`) PageRank alone has a plan of
  its own, a bounded-error forward push; every other session answers
  with its exact global kernel and reports the plan as ``global``.

* :class:`ProbeEngine` — cross-explainer memoization of decision probes,
  keyed on ``(person, query, frozenset(flips))``, plus a second score-level
  memo keyed on ``(query, flips, base version)``: the ranker's score
  vector for a probed state is person-independent, so once any explainer
  scores a ``(query subset, overlay)`` state, every other explainer (or
  another person's SHAP sweep over the same masks) reuses the vector and
  pays only the O(n log n) decision, never the forward.
  ``full_rebuild=True`` is the escape hatch: overlays are materialized into
  real networks before probing, restoring the seed code path exactly —
  including seed *behaviour* quirks like the TF-IDF ranker's per-call idf
  refit on the perturbed profiles.  The 1e-9 parity reference for a delta
  session is therefore ``full_rebuild=True`` on the *ranker*, which keeps
  the overlay (and its base-pinned statistics) visible to the plain path.

All bounded caches here evict one least-recently-used entry at capacity
(:class:`_LruCache`) — the PR-1 wholesale ``.clear()`` caused a cold-cache
cliff mid-search.  Sessions and memos are version-stamped: if the base
network mutates, the session is rebuilt and the memo is cleared on the next
probe.
"""

from __future__ import annotations

import abc
import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend import get_backend
from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import Query, as_query
from repro.runtime import (
    LocalizedSpec,
    active_localized,
    check_budget,
    delta_bypassed,
    fault_point,
)

_MAX_QUERY_CACHE = 512  # per-session distinct base-query states
_MAX_MEMO = 200_000  # per-engine memoized probe outcomes
_MAX_SCORE_MEMO = 2_048  # per-engine memoized score *vectors* (n floats each)
_MAX_PATCH_CACHE = 128  # per-session patched operators, keyed by flip set
_MAX_SEMANTIC_CACHE = 4_096  # per-session solved subproblems (rows/solutions)
_BATCH_GROUP = 8  # overlays per batched GCN forward (bounds block size)
# The fused-vs-sequential break-even thresholds (TF-IDF gather row count,
# PageRank stacking size) are *backend cost hints* — see
# ``NumericBackend.tfidf_gather_min_rows`` / ``pagerank_stack_min_people``
# in ``repro.backend.base``; sessions read them off ``self.backend``.
# Sweep cap for the localized forward-push PageRank kernel: residual mass
# decays geometrically by the damping factor per sweep, so reaching
# epsilon * (1 - damping) from an O(1) seed takes ~log_{1/d}(1/eps)
# sweeps (~40 at d=0.5, eps=1e-9); the cap only trips degenerate cases,
# which fall back to the exact global kernel.
_LOCALIZED_MAX_SWEEPS = 200


@dataclass(frozen=True)
class LocalizedPlan:
    """How one probe's scores were produced under a localized scope.

    * ``mode`` — ``"exact"`` (PageRank proved the probe equals the base
      solution, or nobody matches the query), ``"sampled"`` (bounded-error
      forward-push with a certified ``residual_bound``), or ``"global"``
      (the cone exceeded the spec's ceiling, or the session has no
      localized path — the exact global kernel ran).
    * ``cone_size`` / ``n_people`` — touched-node count vs the network.
    * ``epsilon`` / ``residual_bound`` — sampled mode only: the requested
      l1 allowance and the certified bound actually achieved
      (``residual_bound <= epsilon``); None for exact/global plans.
    """

    mode: str
    cone_size: int
    n_people: int
    epsilon: Optional[float] = None
    residual_bound: Optional[float] = None


class _LruCache:
    """Bounded mapping with least-recently-used single-entry eviction.

    The PR-1 caches evicted by wholesale ``.clear()`` at capacity, so the
    probe that tipped a cache over made every state the search was still
    actively revisiting pay a cold rebuild.  Overflow now evicts exactly
    one entry — the least recently touched — and hot keys survive.

    Every operation holds a lock: delta sessions are shared across the
    explanation service's shards (``ExplanationService.explain_many``
    flushes independent probe groups on a thread pool), and an unguarded
    ``get``'s lookup + ``move_to_end`` could interleave with another
    shard's eviction of the same key.  The lock guards only the ordered
    dict's bookkeeping — entry *values* are computed outside it, and a
    double-compute under contention is benign (both threads derive the
    same deterministic value).
    """

    __slots__ = ("capacity", "_data", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            data = self._data
            try:
                value = data[key]
            except KeyError:
                return None
            data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            elif len(data) >= self.capacity:
                data.popitem(last=False)
            data[key] = value

    def pop(self, key) -> None:
        with self._lock:
            self._data.pop(key, None)

    def rekey(self, new_key) -> None:
        """Replace every key by ``new_key(key)``, dropping those it maps
        to None, in one pass under the lock: the survivors are built in
        LRU order and swapped in whole.  ``new_key`` must not touch this
        cache."""
        with self._lock:
            moved = ((new_key(key), value) for key, value in self._data.items())
            self._data = OrderedDict((k, v) for k, v in moved if k is not None)

    def keys(self) -> List:
        with self._lock:
            return list(self._data.keys())

    def values(self) -> List:
        with self._lock:
            return list(self._data.values())

    def items(self) -> List:
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


def _csr_keys(indptr: np.ndarray, indices: np.ndarray, stride: int) -> np.ndarray:
    """``row * stride + col`` of every stored entry of a canonical CSR
    (sorted indices, no duplicates; ``stride`` at least its column
    count), so the keys ascend and ``searchsorted`` finds an entry's
    position."""
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return rows * stride + indices


def _degree_scaled(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, deg: np.ndarray
) -> np.ndarray:
    """``data`` of ``D^-1/2 A D^-1/2`` for the CSR ``A`` with row sums
    ``deg``: ``(a * s[row]) * s[col]``, ``s = 1 / sqrt(max(deg, 1e-12))``
    — the formula, floor and multiply order of
    :meth:`CollaborationNetwork.normalized_adjacency`'s two diagonal
    matmuls, without their intermediate sparse products."""
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    return (data * np.repeat(inv_sqrt, np.diff(indptr))) * inv_sqrt[indices]


def _edge_flip_arrays(
    flip_sets: Sequence[Dict[Tuple[int, int], bool]], n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, signs)`` of every edge flip of ``flip_sets``, the flips
    of set ``i`` offset by ``i * n`` onto the ``i``-th diagonal block of
    a block-diagonal stack; the sign is +1.0 for an added edge and −1.0
    for a removed one."""
    sizes = [len(flips) for flips in flip_sets]
    pairs = chain.from_iterable(chain.from_iterable(flip_sets))
    ends = np.fromiter(pairs, np.int64, 2 * sum(sizes)).reshape(-1, 2)
    if len(sizes) > 1:
        ends += np.repeat(np.arange(len(sizes), dtype=np.int64) * n, sizes)[:, None]
    added = np.fromiter(chain.from_iterable(f.values() for f in flip_sets), bool)
    return ends[:, 0], ends[:, 1], np.where(added, 1.0, -1.0)


def _flip_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    keys: np.ndarray,
    stride: int,
    flips: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of a canonical CSR plus a ±1 at both
    ``(u, v)`` and ``(v, u)`` of every flip in ``flips``
    (:func:`_edge_flip_arrays`); ``keys`` is :func:`_csr_keys` of the
    input under ``stride``.

    Bit for bit the matrix scipy's ``adj + delta`` gives for the symmetric
    ±1 ``delta``, in one ``searchsorted`` merge: a flipped entry that
    exists gets the same single float add, one that sums to zero is
    dropped, a new one is inserted in key order, and ``indptr``
    is rebuilt from the per-row counts.  The result is canonical too —
    sorted, no stored zeros, a from-scratch build's layout — so every
    spmv/spmm over it, and every walk over its ``indptr``/``indices``
    (the HITS support patch), matches a rebuilt adjacency exactly.  Flips
    are distinct off-diagonal pairs, as overlays and commits record them.
    Input arrays the flips leave as they were come back as they are
    (read-only to the caller)."""
    u, v, signs = flips
    flip_keys = np.concatenate((u * stride + v, v * stride + u))
    order = flip_keys.argsort()
    flip_keys = flip_keys[order]
    signs = np.concatenate((signs, signs))[order]
    pos = keys.searchsorted(flip_keys)
    hit = np.zeros(pos.size, dtype=bool)
    if keys.size:
        hit = keys.take(pos, mode="clip") == flip_keys
    at = pos[hit]
    summed = data[at] + signs[hit]
    zero = summed == 0.0
    gone = at[zero]
    if not zero.all():  # stored entries that stay take their new values
        data = data.copy()
        data[at] = summed
    new = ~hit
    n_new = int(np.count_nonzero(new))
    if not gone.size and not n_new:
        return indptr, indices, data
    rows = flip_keys // stride
    counts = np.diff(indptr)
    if gone.size:
        counts -= np.bincount(rows[hit][zero], minlength=counts.size)
        keep = np.ones(indices.size, dtype=bool)
        keep[gone] = False
        indices, data = indices[keep], data[keep]
    if n_new:
        counts += np.bincount(rows[new], minlength=counts.size)
        # Output slot of each new entry: its merge position, less the
        # dropped entries before it, plus the new entries before it.
        slot = pos[new]
        slot += np.arange(n_new) - gone.searchsorted(slot)
        old = np.ones(indices.size + n_new, dtype=bool)
        old[slot] = False
        merged_indices = np.empty(old.size, dtype=indices.dtype)
        merged_indices[old] = indices
        merged_indices[slot] = flip_keys[new] % stride
        merged_data = np.empty(old.size)
        merged_data[old] = data
        merged_data[slot] = signs[new]
        indices, data = merged_indices, merged_data
    indptr = np.zeros_like(indptr)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices, data


def _edge_key(edge_flips: Dict[Tuple[int, int], bool]) -> FrozenSet:
    """Hashable identity of an overlay's edge-flip set — the cache key for
    every adjacency-side patch a session computes."""
    return frozenset(edge_flips.items())


class DeltaSession(abc.ABC):
    """Per-(ranker, frozen base network) delta-scoring cache.

    Opened once per base-network version through the ranker's
    :meth:`~repro.search.base.ExpertSearchSystem.delta_session` factory,
    then serves every overlay over that base.  ``scores(query, overlay)``
    must equal the ranker's from-scratch ``full_rebuild`` scores on the
    same overlay to 1e-9 — the parity contract every implementation is
    tested against.
    """

    #: Cache attributes :meth:`warm_state` snapshots — the per-class
    #: inventory of what makes a session "warm" for spill/restore.
    _SPILL_CACHES: Tuple[str, ...] = ()

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        self.ranker = ranker
        self.base = base
        self.base_version = base.version
        # Captured once so the session's kernel-path decisions (and their
        # cost hints) stay stable for its whole lifetime even if the
        # process-wide backend is swapped mid-run.
        self.backend = get_backend()
        # _csr_keys of the one base CSR this session flips edges on
        self._flip_keys: Optional[np.ndarray] = None

    def _flipped_csr(
        self, adj: sp.csr_matrix, edge_flips: Dict[Tuple[int, int], bool]
    ) -> sp.csr_matrix:
        """``adj`` with ``edge_flips`` applied (:func:`_flip_csr`).  ``adj``
        is the session's base CSR, fixed for the session's whole life, so
        its position keys are computed once, on the first flip."""
        n = adj.shape[1]
        if self._flip_keys is None:
            self._flip_keys = _csr_keys(adj.indptr, adj.indices, n)
        flips = _edge_flip_arrays([edge_flips], n)
        indptr, indices, data = _flip_csr(
            adj.indptr, adj.indices, adj.data, self._flip_keys, n, flips
        )
        return sp.csr_matrix((data, indices, indptr), shape=adj.shape)

    def valid_for(self, base: CollaborationNetwork) -> bool:
        """Is this session still usable for ``base``?  False once the base
        mutates (version drift)."""
        return base is self.base and base.version == self.base_version

    # ------------------------------------------------------------------
    # warm-state spill/restore
    # ------------------------------------------------------------------
    def warm_state(self) -> Dict[str, List]:
        """Snapshot of the LRU caches named in ``_SPILL_CACHES`` as
        ``{attr: [(key, value), ...]}`` — the registry spill payload."""
        return {
            name: getattr(self, name).items() for name in self._SPILL_CACHES
        }

    def load_warm_state(self, state: Dict[str, List]) -> None:
        """Refill the ``_SPILL_CACHES`` from a :meth:`warm_state`
        snapshot (insertion order preserves the spilled LRU order)."""
        for name in self._SPILL_CACHES:
            cache = getattr(self, name)
            for key, value in state.get(name, []):
                cache.put(key, value)

    @abc.abstractmethod
    def scores(self, query: Query, overlay: NetworkOverlay) -> np.ndarray:
        """Scores for the overlaid network, patched from the base caches
        in O(Δ) — never through ``overlay.materialize()``."""

    def scores_batch(
        self, query: Query, overlays: Iterable[NetworkOverlay]
    ) -> List[np.ndarray]:
        """Scores for a *group* of overlays over the same base and query.

        The default just loops :meth:`scores`; sessions whose scorer
        benefits from batching (the GCN's stacked multi-probe forward, the
        baselines' shared-operator kernels) override this, and
        :meth:`ProbeEngine.probe_batch` flushes probe groups through it."""
        return [self.scores(query, overlay) for overlay in overlays]

    def scores_multi(
        self, queries: Sequence[Query], overlay: NetworkOverlay
    ) -> List[np.ndarray]:
        """Scores for *many queries* against one pinned overlay.

        The multi-query counterpart of :meth:`scores_batch`: the overlay's
        feature/adjacency patches are computed once and every query is
        answered against them.  The default loops :meth:`scores`, which
        already shares the per-flip-set patch caches; sessions with a
        genuinely stacked multi-query kernel override this."""
        return [self.scores(query, overlay) for query in queries]

    def scores_localized(
        self, query: Query, overlay: NetworkOverlay, spec: LocalizedSpec
    ) -> Tuple[np.ndarray, LocalizedPlan]:
        """``(scores, plan)`` for one probe under a localized scope.

        Implementations must keep the *scores* contract intact: an
        ``"exact"`` plan's vector equals :meth:`scores` to the 1e-9 parity
        band, a ``"sampled"`` plan's vector is within its certified
        ``residual_bound`` (l1) of it.  The default has no localized path
        and answers with the global kernel; PageRank alone overrides it."""
        return self.scores(query, overlay), self._global_plan()

    def _global_plan(self) -> LocalizedPlan:
        n = self.base.n_people
        return LocalizedPlan(mode="global", cone_size=n, n_people=n)


class GcnDeltaSession(DeltaSession):
    """Cached probe inputs for one (GCN ranker, frozen base network) pair.

    Built once per base-network version; serves every overlay over that
    base with O(Δ) feature/adjacency patches instead of full rebuilds.
    Every forward — one probe, a flush of up to :data:`_BATCH_GROUP`
    overlays or queries, a base score vector — is assembled by
    :meth:`_stacked_inputs` over ``_BATCH_GROUP`` copies of the base
    ``A+I`` tiled down the diagonal once, at build.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        vocab = ranker._feature_vocab
        fm = ranker._feature_matrix
        if vocab is None or fm is None:
            raise RuntimeError(
                "ranker must be fitted before opening a GcnDeltaSession"
            )
        super().__init__(ranker, base)
        self._vocab: Dict[str, int] = vocab
        self._fm: np.ndarray = fm
        n, k = base.n_people, _BATCH_GROUP
        a_hat = (base.adjacency_csr() + sp.identity(n, format="csr")).tocsr()
        # A+I and its degrees as k diagonal blocks: a flush of j blocks
        # reads the first j tiles, keyed with one stride for every j.
        tile = sp.block_diag([a_hat] * k, format="csr")
        indptr, indices, data = tile.indptr, tile.indices, tile.data
        self._tile = (indptr, indices, data, _csr_keys(indptr, indices, k * n))
        self._tile_deg = np.tile(np.asarray(a_hat.sum(axis=1)).ravel(), k)
        # The flip-free operator of j blocks, j = 1..k: flushes without
        # edge flips (base scores, skill-only overlays) reuse it whole.
        scaled = _degree_scaled(indptr, indices, data, self._tile_deg)
        op = sp.csr_matrix((scaled, indices, indptr), shape=tile.shape)
        self._base_ops = [op[: j * n, : j * n] for j in range(1, k + 1)]
        # query -> (base feature matrix, normalized query vector)
        self._feat_cache = _LruCache(_MAX_QUERY_CACHE)
        # query -> base score vector
        self._score_cache = _LruCache(_MAX_QUERY_CACHE)

    _SPILL_CACHES = ("_feat_cache", "_score_cache")

    def valid_for(self, base: CollaborationNetwork) -> bool:
        """Also invalid once the ranker was refit (new vocabulary)."""
        return super().valid_for(base) and self.ranker._feature_vocab is self._vocab

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def scores(self, query: Query, overlay: NetworkOverlay) -> np.ndarray:
        if not query:
            # The ranker's plain path short-circuits empty queries to zero
            # scores before any forward; direct session consumers
            # (multi-query flushes) must see the same semantics.
            return np.zeros(self.base.n_people)
        if not overlay.skill_flips() and not overlay.edge_flips():
            return self._base_scores(query).copy()
        return self._forward([(query, overlay)])[0]

    def scores_batch(
        self, query: Query, overlays: Iterable[NetworkOverlay]
    ) -> List[np.ndarray]:
        """Batched multi-probe forward: overlays without flips answer from
        the cached base scores, the rest run in :data:`_BATCH_GROUP`-sized
        groups, each one block-diagonal forward — amortizing the per-call
        dense/sparse kernel overhead that dominates per-probe forwards."""
        overlays = list(overlays)
        stacked = [
            i
            for i, ov in enumerate(overlays)
            if query and (ov.skill_flips() or ov.edge_flips())
        ]
        blocks = [(query, overlays[i]) for i in stacked]
        scored = dict(zip(stacked, self._forward(blocks)))
        # The rest: empty queries (zeros) or flip-free overlays (base scores).
        return [
            scored[i] if i in scored else self.scores(query, ov)
            for i, ov in enumerate(overlays)
        ]

    def scores_multi(
        self, queries: Sequence[Query], overlay: NetworkOverlay
    ) -> List[np.ndarray]:
        """Stacked multi-*query* forward over one pinned overlay: each
        :data:`_BATCH_GROUP`-sized group of distinct queries runs as one
        block-diagonal forward, every block carrying the overlay's patches
        — the same stacking as :meth:`scores_batch` with the roles of
        query and overlay swapped."""
        queries = list(queries)
        if not overlay.skill_flips() and not overlay.edge_flips():
            # Pure query sweep over the base network: every query is a
            # cached base forward.
            return [self.scores(q, overlay) for q in queries]
        # Empty query subsets short-circuit to zeros exactly like the
        # ranker's plain path; only distinct real queries join the
        # stacked forward.
        nonempty = list(dict.fromkeys(q for q in queries if q))
        scored = dict(zip(nonempty, self._forward([(q, overlay) for q in nonempty])))
        n = self.base.n_people
        return [scored[q].copy() if q else np.zeros(n) for q in queries]

    # A GCN probe has no localized plan: localized scopes take the
    # base-class global plan.  The name stays in the class ``__dict__``
    # because perfbench/trace.py wraps every ``search.session`` site
    # through it (``--trace 1`` raises ``KeyError`` on a missing name).
    scores_localized = DeltaSession.scores_localized

    def _base_scores(self, query: Query) -> np.ndarray:
        """The base network's score vector for ``query`` (cached per
        query; callers copy before handing it out)."""
        hit = self._score_cache.get(query)
        if hit is None:
            hit = self._forward([(query, NetworkOverlay(self.base))])[0]
            self._score_cache.put(query, hit)
        return hit

    def _forward(
        self, blocks: Sequence[Tuple[Query, NetworkOverlay]]
    ) -> List[np.ndarray]:
        """One caller-owned score vector per ``(query, overlay)`` block, in
        :data:`_BATCH_GROUP`-sized flushes: a lone block runs
        ``gcn_forward``, a group one ``gcn_forward_blocks``."""
        scorer = self.ranker._scorer
        out: List[np.ndarray] = []
        for start in range(0, len(blocks), _BATCH_GROUP):
            chunk = blocks[start : start + _BATCH_GROUP]
            feats, adj = self._stacked_inputs(chunk)
            if len(chunk) == 1:
                out.append(self.backend.gcn_forward(scorer, feats, adj).copy())
            else:
                out += self.backend.gcn_forward_blocks(scorer, feats, adj, len(chunk))
        return out

    def _stacked_inputs(
        self, blocks: Sequence[Tuple[Query, NetworkOverlay]]
    ) -> Tuple[np.ndarray, sp.csr_matrix]:
        """Stacked ``(k·n, d)`` node features and the block-diagonal
        ``(k·n, k·n)`` operator ``D^-1/2 (A+I) D^-1/2`` for ``k <=
        _BATCH_GROUP`` ``(query, overlay)`` blocks, in one array pass.

        Every block's edge flips go into the first ``k`` base tiles in one
        :func:`_flip_csr` call, the degrees take one ``bincount``, and the
        whole operator is normalized at once (:func:`_degree_scaled`); a
        flush without edge flips takes the cached flip-free operator.
        Block ``i`` therefore holds exactly the entries, values and order
        of ``overlay_i.materialize().normalized_adjacency()``.  Feature
        block ``i`` is the query's cached base features with the rows of
        people whose skills the overlay flips re-derived by
        :meth:`_feature_row_values`."""
        k, n = len(blocks), self.base.n_people
        flip_sets = [overlay.edge_flips() for _, overlay in blocks]
        if any(flip_sets):
            size = k * n
            indptr, indices, data, keys = self._tile
            indptr = indptr[: size + 1]
            nnz = int(indptr[-1])
            flips = _edge_flip_arrays(flip_sets, n)
            ends, signs = np.concatenate(flips[:2]), np.tile(flips[2], 2)
            deg = self._tile_deg[:size] + np.bincount(ends, signs, size)
            indptr, indices, data = _flip_csr(
                indptr, indices[:nnz], data[:nnz], keys[:nnz], _BATCH_GROUP * n, flips
            )
            adj = sp.csr_matrix(
                (_degree_scaled(indptr, indices, data, deg), indices, indptr),
                shape=(size, size),
            )
        else:
            adj = self._base_ops[k - 1]

        bases = [self._base_features(query) for query, _ in blocks]
        feats = np.concatenate([base_feats for base_feats, _ in bases])
        dim = self._fm.shape[1]
        for i, ((query, overlay), (_, q_vec)) in enumerate(zip(blocks, bases)):
            for p in {p for p, _ in overlay.skill_flips()}:
                centroid, match, sim = self._feature_row_values(
                    overlay.skills(p), query, q_vec
                )
                feats[i * n + p, :dim] = centroid
                feats[i * n + p, dim:] = match, sim
        return feats, adj

    def _base_features(self, query: Query) -> Tuple[np.ndarray, np.ndarray]:
        hit = self._feat_cache.get(query)
        if hit is None:
            feats = self.ranker._node_features(query, self.base)
            q_vec = self.ranker._query_vector(query)
            hit = (feats, q_vec)
            self._feat_cache.put(query, hit)
        return hit

    def _feature_row_values(
        self, skills: FrozenSet[str], query: Query, q_vec: np.ndarray
    ) -> Tuple[np.ndarray, float, float]:
        """(centroid, match fraction, query similarity) of one person's
        feature row, derived from their full skill set.

        The kernel every probe patch goes through: the row is recomputed
        from the person's embedding rows in sorted column order, summed
        from +0.0 one row after another — bit for bit the accumulation of
        the sparse incidence product that built the base sums — instead
        of adding/subtracting embedding rows
        on a cached sum: incremental subtraction leaves ~1e-16 residue
        that the ``max(norm, 1e-12)`` division below can amplify past the
        1e-9 parity contract when a person's in-vocab skills all cancel."""
        cols = sorted(
            col for col in (self._vocab.get(s) for s in skills) if col is not None
        )
        if cols:
            centroid = np.add.reduce(self._fm[cols], axis=0) / float(len(cols))
        else:
            centroid = np.zeros(self._fm.shape[1])
        n_terms = len(query)
        # Empty queries keep a zero match fraction, matching the plain
        # path's ``if query:`` guard in ``_node_features``.
        match = len(skills & query) / n_terms if n_terms else 0.0
        norm = float(np.linalg.norm(centroid))
        sim = float(centroid @ q_vec) / max(norm, 1e-12)
        return centroid, match, sim


class PageRankDeltaSession(DeltaSession):
    """O(Δ) probes for :class:`~repro.search.pagerank.PageRankExpertRanker`.

    The transition operator (base adjacency CSR + out-degrees) is cached
    once; per query the raw restart counts and the base solution are
    cached.  A probe patches the restart counts per query-term skill flip
    (exact integer arithmetic, so the normalized restart vector matches a
    from-scratch build bit-for-bit), applies a sparse ±1 delta to the
    adjacency/degrees per edge flip, and warm-starts power iteration from
    the base solution.  If the base solve hit the iteration cap without
    converging, the probe falls back to a cold start so it keeps parity
    with the cold-started reference path.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        super().__init__(ranker, base)
        self._adj = base.adjacency_csr()
        self._out_degree = np.asarray(self._adj.sum(axis=1)).ravel()
        self._dangling = np.flatnonzero(self._out_degree == 0)
        # query -> (restart counts, base solution or None, converged)
        self._query_cache = _LruCache(_MAX_QUERY_CACHE)
        # edge-flip set -> (patched adjacency, patched out-degrees): shared
        # across every query probed against the same overlay.
        self._op_cache = _LruCache(_MAX_PATCH_CACHE)
        # (edge-flip set, |q|, restart counts) -> converged solution.  The
        # walk depends only on (restart, operator), so SHAP masks that
        # flip skills *outside* the query — or re-probe the same state for
        # another person — resolve without a single power iteration.
        self._solution_cache = _LruCache(_MAX_SEMANTIC_CACHE)

    _SPILL_CACHES = ("_query_cache", "_op_cache", "_solution_cache")

    def _patched_operator(
        self, edge_flips: Dict[Tuple[int, int], bool]
    ) -> Tuple[sp.csr_matrix, np.ndarray]:
        """(adjacency, out-degrees) with the edge flips applied, cached
        per flip set."""
        key = _edge_key(edge_flips)
        hit = self._op_cache.get(key)
        if hit is None:
            adj = self._flipped_csr(self._adj, edge_flips)
            out_degree = self._out_degree.copy()
            for (u, v), added in edge_flips.items():
                w = 1.0 if added else -1.0
                out_degree[u] += w
                out_degree[v] += w
            hit = (adj, out_degree)
            self._op_cache.put(key, hit)
        return hit

    def _patched_row(
        self, u: int, flips: Dict[Tuple[int, int], bool]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of ``u``'s adjacency row with its edge flips
        applied — the O(row) substitute for a full patched CSR (flips
        touch a handful of rows; every other row reads the shared base).
        A removed edge stays as an explicit zero, matching the merged
        operator the global kernels build."""
        s, e = self._adj.indptr[u], self._adj.indptr[u + 1]
        cols = self._adj.indices[s:e]
        vals = self._adj.data[s:e].copy()
        add_cols: List[int] = []
        add_vals: List[float] = []
        for (a, b), added in flips.items():
            if u == a:
                other = b
            elif u == b:
                other = a
            else:
                continue
            w = 1.0 if added else -1.0
            j = int(np.searchsorted(cols, other))
            if j < cols.size and int(cols[j]) == other:
                vals[j] += w
            else:
                add_cols.append(other)
                add_vals.append(w)
        if add_cols:
            cols = np.concatenate(
                [cols, np.asarray(add_cols, dtype=cols.dtype)]
            )
            vals = np.concatenate([vals, np.asarray(add_vals)])
            order = np.argsort(cols, kind="stable")
            cols, vals = cols[order], vals[order]
        return cols, vals

    @staticmethod
    def _restart_from_counts(
        counts: np.ndarray, n_terms: int
    ) -> Optional[np.ndarray]:
        """Normalized restart distribution, or None when nobody matches —
        the same two-step division the ranker's plain path performs."""
        if n_terms == 0:
            return None
        restart = counts / float(n_terms)
        total = restart.sum()
        if total == 0:
            return None
        return restart / total

    def _base_state(self, query: Query):
        hit = self._query_cache.get(query)
        if hit is None:
            # Through the cached skill-incidence CSC: O(nnz of the query's
            # columns), bit-identical to the per-holder loop (+1.0 adds).
            counts = self.base.match_counts(query)
            restart = self._restart_from_counts(counts, len(query))
            if restart is None:
                hit = (counts, None, True)
            else:
                solution, converged = self.ranker._power_iteration(
                    restart, self._adj, self._out_degree
                )
                hit = (counts, solution, converged)
            self._query_cache.put(query, hit)
        return hit

    def _probe_counts(
        self, query: Query, overlay: NetworkOverlay, counts: np.ndarray
    ) -> Tuple[np.ndarray, bool]:
        """(match counts with the overlay's query-term skill flips applied,
        whether any flip was relevant)."""
        relevant = [
            (p, added)
            for (p, s), added in overlay.skill_flips().items()
            if s in query
        ]
        if not relevant:
            return counts, False
        counts = counts.copy()
        for p, added in relevant:
            counts[p] += 1.0 if added else -1.0
        return counts, True

    def _resolve(
        self, query: Query, overlay: NetworkOverlay, ekey: FrozenSet
    ) -> Tuple[Optional[np.ndarray], Optional[Tuple]]:
        """(result, pending walk) for one probe.  ``result`` is the final
        score vector when the probe resolves without iterating (no
        matching restart, untouched base state, or a converged-solution
        memo hit); otherwise ``pending = (restart, warm start, memo key)``
        describes the power iteration still to run.  The single resolution
        pipeline behind ``scores``/``scores_batch``/``scores_multi`` — the
        sequential and stacked paths must never drift apart."""
        base_counts, base_solution, base_converged = self._base_state(query)
        counts, relevant = self._probe_counts(query, overlay, base_counts)
        restart = self._restart_from_counts(counts, len(query))
        if restart is None:
            return np.zeros(self.base.n_people), None
        if not ekey and not relevant and base_solution is not None:
            return base_solution.copy(), None
        skey = (ekey, len(query), counts.tobytes())
        cached = self._solution_cache.get(skey)
        if cached is not None:
            return cached.copy(), None
        warm = base_solution if base_converged else None
        return None, (restart, warm, skey)

    def _finish(self, solution: np.ndarray, converged: bool, skey: Tuple) -> np.ndarray:
        """Cache a finished walk and return a caller-owned vector.  Only
        converged iterates are state functions of (restart, operator); a
        capped run depends on its start and must not be replayed for a
        probe that would have started elsewhere."""
        if converged:
            self._solution_cache.put(skey, solution)
            return solution.copy()
        return solution

    def _solve_pending(
        self, pending: List[Tuple[int, Tuple]], ekey: FrozenSet
    ) -> List[Tuple[int, np.ndarray]]:
        """Run the walks of ``(slot, (restart, warm, memo key))`` entries
        over one shared (patched) operator — a sequential power iteration
        per entry on small networks, a stacked ``(n, k)`` iteration
        otherwise (each column starting exactly where its sequential loop
        would: its own warm start when one exists, its restart
        otherwise).  The choice depends *only* on the network size
        (the backend's ``pagerank_stack_min_people`` cost hint — the
        stacked kernel's dense bookkeeping loses to plain spmv walks on
        small networks), never on how many walks share the flush: a
        composition-sensitive choice would change a walk's kernel path
        (and its last-ulp rounding) with the chunk it happened to be
        flushed in, and the shared score memo would then serve whichever
        rounding was computed first."""
        if not ekey:
            adj, out_degree = self._adj, self._out_degree
        else:
            adj, out_degree = self._patched_operator(dict(ekey))
        if self.base.n_people < self.backend.pagerank_stack_min_people:
            out = []
            for i, (restart, warm, skey) in pending:
                solution, converged = self.ranker._power_iteration(
                    restart, adj, out_degree, warm_start=warm
                )
                out.append((i, self._finish(solution, converged, skey)))
            return out
        restarts = np.stack([r for (_, (r, _, _)) in pending], axis=1)
        starts = np.stack(
            [(r if w is None else w) for (_, (r, w, _)) in pending], axis=1
        )
        solutions, converged = self.ranker._power_iteration_multi(
            restarts, adj, out_degree, starts=starts
        )
        return [
            (i, self._finish(solutions[:, j].copy(), converged[j], skey))
            for j, (i, (_, _, skey)) in enumerate(pending)
        ]

    def scores(self, query: Query, overlay: NetworkOverlay) -> np.ndarray:
        if self.base.n_people == 0:
            return np.zeros(0)
        ekey = _edge_key(overlay.edge_flips())
        result, pending = self._resolve(query, overlay, ekey)
        if result is not None:
            return result
        return self._solve_pending([(0, pending)], ekey)[0][1]

    def scores_localized(
        self, query: Query, overlay: NetworkOverlay, spec: LocalizedSpec
    ) -> Tuple[np.ndarray, LocalizedPlan]:
        """Bounded-error forward push instead of a full power iteration.

        The probe solution decomposes as ``p' = p0 + delta`` where the
        correction solves ``delta = s + damping * M' @ delta`` with the
        O(Δ)-sparse seed ``s = (1-d)(r' - r0) + d[(A'ᵀD'⁻¹ - A0ᵀD0⁻¹)p0
        + dang'(p0)·r' - dang0(p0)·r0]`` — the derivation uses only
        ``p0 = (1-d)r0 + d·M0·p0``, i.e. that the cached base solution is
        a fixed point, so a capped (non-converged) base solve falls back
        to the global kernel.  The backend's ``ppr_delta_push`` runs
        residual sweeps over the seed's cone and certifies
        ``||delta_exact - delta||_1 <= residual_l1 / (1-d) <= epsilon``;
        the reported ``residual_bound`` adds 1e-9 slack for the base
        iterate's own convergence-tolerance defect."""
        n = self.base.n_people
        exact0 = LocalizedPlan(mode="exact", cone_size=0, n_people=n)
        if n == 0:
            return np.zeros(0), exact0
        ekey = _edge_key(overlay.edge_flips())
        base_counts, base_solution, base_converged = self._base_state(query)
        counts, relevant = self._probe_counts(query, overlay, base_counts)
        restart = self._restart_from_counts(counts, len(query))
        if restart is None:
            return np.zeros(n), exact0
        if not ekey and not relevant and base_solution is not None:
            return base_solution.copy(), exact0
        if base_solution is not None and not base_converged:
            return self.scores(query, overlay), self._global_plan()
        d = self.ranker.damping
        r0 = self._restart_from_counts(base_counts, len(query))
        p0 = base_solution if base_solution is not None else np.zeros(n)
        if ekey:
            # O(Δ) operator view: patched degrees plus per-row overrides
            # for the flipped endpoints — never the full patched CSR the
            # global kernels build (its csr+csr merge is O(nnz), dwarfing
            # a small-cone push).
            flips = dict(ekey)
            deg_p = self._out_degree.copy()
            for (u, v), added in flips.items():
                w = 1.0 if added else -1.0
                deg_p[u] += w
                deg_p[v] += w
            touched = sorted({u for edge in flips for u in edge})
            overrides = {u: self._patched_row(u, flips) for u in touched}
        else:
            deg_p = self._out_degree
            touched = []
            overrides = None
        if relevant or r0 is None:
            seed = (1.0 - d) * (restart if r0 is None else restart - r0)
        else:
            # Edge-only probes leave the restart counts untouched, so the
            # (1-d)(r' - r0) term is exactly zero.
            seed = np.zeros(n)
        # Only flipped-edge endpoints' rows (and degrees) differ, so
        # (M' - M0) @ p0 is supported on their neighborhoods alone.
        for u in touched:
            pu = float(p0[u])
            if pu == 0.0:
                continue
            cols_u, vals_u = overrides[u]
            if deg_p[u] > 0 and cols_u.size:
                seed[cols_u] += (d * pu / deg_p[u]) * vals_u
            s1, e1 = self._adj.indptr[u], self._adj.indptr[u + 1]
            if self._out_degree[u] > 0:
                seed[self._adj.indices[s1:e1]] -= (
                    d * pu / self._out_degree[u]
                ) * self._adj.data[s1:e1]
        dang_idx = self._dangling
        dang0 = float(p0[dang_idx].sum()) if dang_idx.size else 0.0
        dang_p = dang0
        for u in touched:
            was = self._out_degree[u] == 0
            now = deg_p[u] == 0
            if was and not now:
                dang_p -= float(p0[u])
            elif now and not was:
                dang_p += float(p0[u])
        if dang_p != 0.0:
            seed += (d * dang_p) * restart
        if dang0 != 0.0 and r0 is not None:
            seed -= (d * dang0) * r0
        support = np.flatnonzero(seed)
        if support.size == 0:
            # The probe provably equals the base fixed point (e.g. a
            # relevant add and remove that cancel in the restart).
            return p0.copy(), exact0
        # No precheck on support size: the seed may be wide but thin (a
        # flipped hub's whole row at ~p0[u]/deg per entry) and the kernel
        # caps the *solve set* — the nodes it actually admits — not the
        # boundary residual it leaves in place.
        max_nodes = max(_BATCH_GROUP, int(n * spec.max_cone_fraction))
        r_idx = np.flatnonzero(restart)
        pushed = self.backend.ppr_delta_push(
            support,
            seed[support],
            self._adj,
            deg_p,
            r_idx,
            restart[r_idx],
            damping=d,
            epsilon=spec.epsilon,
            max_sweeps=_LOCALIZED_MAX_SWEEPS,
            max_nodes=max_nodes,
            row_overrides=overrides,
        )
        if pushed is None:
            return self.scores(query, overlay), self._global_plan()
        delta, res_l1, cone = pushed
        return p0 + delta, LocalizedPlan(
            mode="sampled",
            cone_size=cone,
            n_people=n,
            epsilon=spec.epsilon,
            residual_bound=res_l1 / (1.0 - d) + 1e-9,
        )

    def scores_batch(
        self, query: Query, overlays: Iterable[NetworkOverlay]
    ) -> List[np.ndarray]:
        """Stacked warm-started power iterations: probes sharing an edge
        flip set share a patched transition operator, and their restart
        vectors advance together through ``(n, k)`` spmm kernels (converged
        columns freeze exactly where their sequential loop would break).

        Small networks (below the backend's ``pagerank_stack_min_people``
        cost hint) fall back to the sequential loop, base state hoisted:
        with walks this cheap the grouping machinery and stacked kernels
        cost more than they amortize, so batching must not be allowed to
        lose."""
        overlays = list(overlays)
        if len(overlays) <= 1:
            return [self.scores(query, ov) for ov in overlays]
        if self.base.n_people == 0:
            return [np.zeros(0) for _ in overlays]
        if self.base.n_people < self.backend.pagerank_stack_min_people:
            out: List[np.ndarray] = []
            for overlay in overlays:
                ekey = _edge_key(overlay.edge_flips())
                result, pending = self._resolve(query, overlay, ekey)
                if result is None:
                    result = self._solve_pending([(0, pending)], ekey)[0][1]
                out.append(result)
            return out
        results: List[Optional[np.ndarray]] = [None] * len(overlays)
        groups: Dict[FrozenSet, List[Tuple[int, Tuple]]] = {}
        for i, overlay in enumerate(overlays):
            ekey = _edge_key(overlay.edge_flips())
            results[i], pending = self._resolve(query, overlay, ekey)
            if pending is not None:
                groups.setdefault(ekey, []).append((i, pending))
        for ekey, items in groups.items():
            for i, solution in self._solve_pending(items, ekey):
                results[i] = solution
        return results  # type: ignore[return-value]

    def scores_multi(
        self, queries: Sequence[Query], overlay: NetworkOverlay
    ) -> List[np.ndarray]:
        """Many queries against one pinned overlay: the patched operator
        is derived once, each query patches its own restart counts, and
        all non-trivial walks advance as one stacked iteration (each
        warm-started from its *own* query's base solution)."""
        queries = list(queries)
        if len(queries) <= 1:
            return [self.scores(q, overlay) for q in queries]
        if self.base.n_people == 0:
            return [np.zeros(0) for _ in queries]
        ekey = _edge_key(overlay.edge_flips())
        results: List[Optional[np.ndarray]] = [None] * len(queries)
        pending: List[Tuple[int, Tuple]] = []
        for i, query in enumerate(queries):
            results[i], walk = self._resolve(query, overlay, ekey)
            if walk is not None:
                pending.append((i, walk))
        if pending:
            for i, solution in self._solve_pending(pending, ekey):
                results[i] = solution
        return results  # type: ignore[return-value]


class HitsDeltaSession(DeltaSession):
    """O(Δ) probes for :class:`~repro.search.hits.HitsExpertRanker`.

    Per query the session caches the root-set indicator, the base-set
    *support* counts ``support[v] = [v in root] + |N(v) ∩ root|`` (so
    ``support > 0`` is exactly base-set membership), and the per-person
    query-term match counts.  Skill flips on query terms update the
    indicator/support through the cached adjacency rows; edge flips update
    support through the ±1 delta — both O(Δ·deg).  The restricted base-set
    adjacency is then sliced sparse from the (patched) global CSR and the
    standard authority iteration runs on it.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        super().__init__(ranker, base)
        self._adj = base.adjacency_csr()
        # query -> (root indicator, support counts, match counts)
        self._query_cache = _LruCache(_MAX_QUERY_CACHE)
        # edge-flip set -> patched global adjacency, shared across queries
        # probed against the same overlay.
        self._adj_cache = _LruCache(_MAX_PATCH_CACHE)
        # (edge-flip set, base-set members) -> authority scores.  The
        # iteration depends only on the sliced submatrix; SHAP coalitions
        # whose flips leave the base set unchanged replay it for free.
        self._auth_cache = _LruCache(_MAX_SEMANTIC_CACHE)

    _SPILL_CACHES = ("_query_cache", "_adj_cache", "_auth_cache")

    def _base_state(self, query: Query):
        hit = self._query_cache.get(query)
        if hit is None:
            # Cached skill-incidence CSC — see PageRankDeltaSession.
            match_counts = self.base.match_counts(query)
            ind = (match_counts > 0).astype(np.float64)
            support = ind + self.backend.spmv(self._adj, ind)
            hit = (ind, support, match_counts)
            self._query_cache.put(query, hit)
        return hit

    def _patched_adjacency(
        self, edge_flips: Dict[Tuple[int, int], bool]
    ) -> sp.csr_matrix:
        if not edge_flips:
            return self._adj
        key = _edge_key(edge_flips)
        hit = self._adj_cache.get(key)
        if hit is None:
            hit = self._flipped_csr(self._adj, edge_flips)
            self._adj_cache.put(key, hit)
        return hit

    def _authority_for(
        self, edge_flips: Dict[Tuple[int, int], bool], members: np.ndarray
    ) -> np.ndarray:
        akey = (_edge_key(edge_flips), members.tobytes())
        hit = self._auth_cache.get(akey)
        if hit is None:
            sub = self._patched_adjacency(edge_flips)[members][:, members]
            hit = self.ranker._authority_scores(sub, members.size)
            self._auth_cache.put(akey, hit)
        return hit

    def _patched_support(
        self,
        support: np.ndarray,
        ind: np.ndarray,
        delta_ind: Dict[int, float],
        edge_flips: Dict[Tuple[int, int], bool],
    ) -> np.ndarray:
        """support' = support + Δind + A·Δind + ΔA·ind'   (all counts are
        small integers in float, so every update below is exact)."""
        if not delta_ind and not edge_flips:
            return support
        support = support.copy()
        indptr, indices = self._adj.indptr, self._adj.indices
        for p, d in delta_ind.items():
            support[p] += d
            support[indices[indptr[p] : indptr[p + 1]]] += d
        for (u, v), added in edge_flips.items():
            w = 1.0 if added else -1.0
            support[u] += w * (ind[v] + delta_ind.get(v, 0.0))
            support[v] += w * (ind[u] + delta_ind.get(u, 0.0))
        return support

    def scores(self, query: Query, overlay: NetworkOverlay) -> np.ndarray:
        n = self.base.n_people
        out = np.zeros(n)
        if n == 0 or not query:
            return out
        ind, support, match_counts = self._base_state(query)
        relevant = [
            (p, added)
            for (p, s), added in overlay.skill_flips().items()
            if s in query
        ]
        if relevant:
            match_counts = match_counts.copy()
            for p, added in relevant:
                match_counts[p] += 1.0 if added else -1.0
        # Root membership changes: only people whose query-term holdings
        # flipped can enter or leave the root set.
        delta_ind: Dict[int, float] = {}
        for p in {p for p, _ in relevant}:
            now = 1.0 if match_counts[p] > 0 else 0.0
            if now != ind[p]:
                delta_ind[p] = now - ind[p]
        edge_flips = overlay.edge_flips()
        support = self._patched_support(support, ind, delta_ind, edge_flips)
        members = np.flatnonzero(support > 0.5)
        if members.size:
            authority = self._authority_for(edge_flips, members)
            match = match_counts[members] / float(len(query))
            out[members] = authority + self.ranker.match_bonus * match
        return out


class TfidfDeltaSession(DeltaSession):
    """O(Δ) probes for :class:`~repro.search.docrank.DocumentExpertRanker`.

    idf statistics are fit once per base-network version (through the
    ranker's per-version model cache — never on perturbed profiles, which
    was the seed defect that let one person's skill flip shift everyone
    else's scores).  The base profile matrix is built once; per query the
    query vector and base score vector are cached.  A probe re-scores only
    the rows of people with skill flips; edge flips are free because the
    document ranker carries no graph signal.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        super().__init__(ranker, base)
        self._model = ranker._profile_model_for(base)
        self._matrix = self._model.matrix(
            [sorted(base.skills(p)) for p in base.people()]
        )
        # query -> (query vector, base score vector)
        self._query_cache = _LruCache(_MAX_QUERY_CACHE)
        # frozenset(skills) -> (cols, vals): a patched profile row depends
        # only on the resulting skill set, and SHAP coalitions cycle
        # through the same handful of per-person skill subsets.
        self._row_cache = _LruCache(_MAX_SEMANTIC_CACHE)

    _SPILL_CACHES = ("_query_cache", "_row_cache")

    def _base_state(self, query: Query):
        hit = self._query_cache.get(query)
        if hit is None:
            q_vec = self._model.vector(sorted(query))
            base_scores = self.backend.spmv(self._matrix, q_vec)
            hit = (q_vec, base_scores)
            self._query_cache.put(query, hit)
        return hit

    def _patched_row(self, skills: FrozenSet[str]) -> Tuple[np.ndarray, np.ndarray]:
        key = frozenset(skills)
        hit = self._row_cache.get(key)
        if hit is None:
            hit = self._model.row(sorted(skills))
            self._row_cache.put(key, hit)
        return hit

    def scores(self, query: Query, overlay: NetworkOverlay) -> np.ndarray:
        q_vec, base_scores = self._base_state(query)
        if not np.any(q_vec):
            return np.zeros(self.base.n_people)
        out = base_scores.copy()
        for p in {p for (p, _) in overlay.skill_flips()}:
            cols, vals = self._patched_row(overlay.skills(p))
            # backend.row_dot, not a BLAS dot: its sequential accumulation
            # is bitwise identical to the fused gather and to the CSR
            # matvec behind ``base_scores``, so single probes and batch
            # flushes of any size agree exactly.
            out[p] = self.backend.row_dot(vals, q_vec[cols]) if cols.size else 0.0
        return out

    def _gather_rows(
        self, entries: List[Tuple[int, int, FrozenSet[str]]]
    ) -> Optional[sp.csr_matrix]:
        """One CSR over all patched profile rows of a flush — the
        multi-row sparse gather both batch kernels share.  ``entries``
        holds ``(slot, person, skills)``; row ``j`` of the result is the
        patched row of ``entries[j]``."""
        if not entries:
            return None
        rows = [self._patched_row(skills) for (_, _, skills) in entries]
        gathered = self.backend.gather_rows(rows, self._model.n_terms)
        return gathered if gathered.nnz else None

    def scores_batch(
        self, query: Query, overlays: Iterable[NetworkOverlay]
    ) -> List[np.ndarray]:
        """Multi-row sparse gathers: every (overlay, flipped person) row of
        the flush is gathered and a single fused ``gather_dots`` kernel
        against the query vector re-scores them all — deduplicated through
        the per-skill-set row memo.  Small flushes (fewer patched rows
        than the backend's ``tfidf_gather_min_rows`` cost hint — every
        ``_BATCH_GROUP``-chunked probe-engine flush) skip the gather:
        with so few rows its construction costs more than the per-row
        dot products, so the batched path answers with the sequential
        loop, base state hoisted.  Both kernels accumulate identically
        (see ``NumericBackend.row_dot``), so a flush crossing the
        threshold cannot perturb any probe's values."""
        overlays = list(overlays)
        if len(overlays) <= 1:
            return [self.scores(query, ov) for ov in overlays]
        q_vec, base_scores = self._base_state(query)
        n = self.base.n_people
        if not np.any(q_vec):
            return [np.zeros(n) for _ in overlays]
        results = [base_scores.copy() for _ in overlays]
        entries: List[Tuple[int, int, FrozenSet[str]]] = []
        for i, overlay in enumerate(overlays):
            for p in sorted({p for (p, _) in overlay.skill_flips()}):
                results[i][p] = 0.0  # overwritten below unless the row is empty
                entries.append((i, p, overlay.skills(p)))
        if len(entries) < self.backend.tfidf_gather_min_rows:
            for i, p, skills in entries:
                cols, vals = self._patched_row(skills)
                if cols.size:
                    results[i][p] = self.backend.row_dot(vals, q_vec[cols])
            return results
        rows = [self._patched_row(skills) for (_, _, skills) in entries]
        values = self.backend.gather_dots(rows, q_vec)
        for j, (i, p, _) in enumerate(entries):
            results[i][p] = values[j]
        return results

    def scores_multi(
        self, queries: Sequence[Query], overlay: NetworkOverlay
    ) -> List[np.ndarray]:
        """Many queries against one pinned overlay: the patched rows are
        gathered once and one sparse matrix product against the stacked
        query vectors re-scores every (person, query) pair."""
        queries = list(queries)
        if len(queries) <= 1:
            return [self.scores(q, overlay) for q in queries]
        n = self.base.n_people
        touched = sorted({p for (p, _) in overlay.skill_flips()})
        entries = [(0, p, overlay.skills(p)) for p in touched]
        gathered = self._gather_rows(entries)
        states = [self._base_state(q) for q in queries]
        values = None
        if gathered is not None:
            q_mat = np.stack([q_vec for q_vec, _ in states], axis=1)
            values = self.backend.spmm(gathered, q_mat)  # (|touched|, |queries|)
        results: List[np.ndarray] = []
        for qi, (q_vec, base_scores) in enumerate(states):
            if not np.any(q_vec):
                results.append(np.zeros(n))
                continue
            out = base_scores.copy()
            for j, p in enumerate(touched):
                out[p] = values[j, qi] if values is not None else 0.0
            results.append(out)
        return results


def _fault_key(query, flips) -> Tuple:
    """A run-stable identity for one probe flush, handed to
    :func:`~repro.runtime.fault_point` so a seeded injector faults the
    same states every run regardless of thread interleaving."""
    if isinstance(query, (list, tuple)):
        qpart: Tuple = tuple(tuple(sorted(q)) for q in query)
    else:
        qpart = tuple(sorted(query))
    return (qpart, tuple(sorted(repr(f) for f in flips)))


def _survives_nothing(_delta, _query) -> bool:
    """The retention predicate of a memo with no delta path behind it."""
    return False


def _rekey_memo_entries(memo: _LruCache, delta, survives) -> Tuple[int, int]:
    """Carry a score memo's ``(query, flips, version)`` entries across a
    committed delta: entries whose query ``survives(delta, query)`` move
    to the new version, everything else is dropped.  Returns
    ``(retained, dropped)``.

    Idempotent by construction — entries already stamped with the new
    version are left untouched — so a registry-shared memo reached
    through several engines' re-keys is effectively processed once.  One
    :meth:`_LruCache.rekey` pass; survivors keep their LRU order."""
    verdict = functools.cache(functools.partial(survives, delta))
    counts = [0, 0]  # retained, dropped

    def new_key(key):
        # Keys are (query, flips, version) — localized entries append a
        # ("localized", epsilon) suffix that survives re-keying verbatim.
        if key[2] == delta.new_version:
            return key
        if key[2] == delta.old_version and verdict(key[0]):
            counts[0] += 1
            return (key[0], key[1], delta.new_version) + key[3:]
        counts[1] += 1
        return None

    memo.rekey(new_key)
    return counts[0], counts[1]


class ProbeEngine:
    """Memoized probe dispatcher shared across explainers.

    Wraps one :class:`~repro.explain.targets.DecisionTarget` bound to one
    base network.  ``probe`` answers ``(decision, ordering key)`` — the two
    values Algorithm 1 needs per candidate state — from memory when the
    same ``(person, query, flips)`` state was scored before.  Overlay
    probes that miss the memo reach the ranker as overlays, so every
    delta-scoring ranker serves them through its :class:`DeltaSession`.
    """

    def __init__(
        self,
        target,
        network: CollaborationNetwork,
        memoize: bool = True,
        full_rebuild: bool = False,
        score_memo: Optional[_LruCache] = None,
    ) -> None:
        if isinstance(network, NetworkOverlay):
            # Bind to the overlay's base: probe states derived from the
            # overlay flatten onto that same base, so their flip sets are
            # complete (and thus correct) memo keys against it.
            network = network.base
        self.target = target
        self.base = network
        self.base_version = network.version
        self.memoize = memoize
        self.full_rebuild = full_rebuild
        self.hits = 0  # decision-memo answers (no work at all)
        self.misses = 0  # probes that evaluated the underlying system
        # Decisions derived from a memoized score vector: no ranker
        # evaluation happened, but the decision itself was recomputed
        # (cheap O(n log n) ranking / team re-formation).
        self.score_hits = 0
        self.multi_flushes = 0  # one-overlay multi-query flushes issued
        self.batch_flushes = 0  # same-query multi-overlay flushes issued
        self.flushed_probes = 0  # states scored through those flushes
        self._memo = _LruCache(_MAX_MEMO)
        # (query, flips, base version) -> ranker score vector.  Score
        # vectors are person-independent, so this second memo level lets
        # SHAP sweeps for *different* people (or different explainers
        # sharing the engine) reuse each other's forwards; the version in
        # the key guarantees a vector computed against an older base can
        # never serve a probe after the base mutates.  Score vectors are
        # *target*-independent too (they come from ``target.ranker``), so
        # the EngineRegistry injects one shared memo per (ranker, base)
        # pair — relevance and membership engines, and engines for
        # different team seeds, then reuse each other's forwards.
        self._score_memo = (
            score_memo if score_memo is not None else _LruCache(_MAX_SCORE_MEMO)
        )
        self._empty_overlay: Optional[NetworkOverlay] = None

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(
        self,
        person: int,
        query: Iterable[str],
        network: Optional[CollaborationNetwork] = None,
    ) -> Tuple[bool, float]:
        """(decision, ordering key) for one probe state, memoized."""
        query = as_query(query)
        network = self.base if network is None else network
        key = self._key(person, query, network)
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            scored = self._session_scores(query, network)
            if scored is not None:
                scores, from_memo = scored
                return self._decide_scored(
                    person, query, network, scores, key, from_memo=from_memo
                )
        return self._probe_uncached(person, query, network, key)

    def _probe_uncached(
        self, person: int, query: Query, network, key: Optional[Tuple]
    ) -> Tuple[bool, float]:
        # One system evaluation: charge the active request budget before
        # the work.  No fault point here — this is (part of) the clean
        # reference path the degradation ladder retries on.
        check_budget(1)
        if self.full_rebuild and isinstance(network, NetworkOverlay):
            network = network.materialize()
        result = self.target.decide_with_order(person, query, network)
        self.misses += 1
        if key is not None:
            self._memo.put(key, result)
        return result

    def _overlay_for(self, network) -> Optional[NetworkOverlay]:
        """``network`` as an overlay a delta session over this base can
        serve: overlays over the base pass through, the base itself probes
        as an empty overlay (so its per-query artifacts live in the same
        session caches), foreign networks return None."""
        if isinstance(network, NetworkOverlay):
            if (
                network.base is self.base
                and network.base_version == self.base_version
            ):
                return network
            return None
        if network is self.base:
            if (
                self._empty_overlay is None
                or self._empty_overlay.base_version != self.base.version
            ):
                self._empty_overlay = NetworkOverlay(self.base)
            return self._empty_overlay
        return None

    def _session_scores(
        self, query: Query, network
    ) -> Optional[Tuple[np.ndarray, bool]]:
        """(score vector, served-from-memo?) for one probe state, through
        the two-level memo: (query, flips) score-memo hit first, the
        ranker's delta session on a miss.  None when the state must go
        through the plain ``decide_with_order`` path."""
        if self.full_rebuild:
            return None
        overlay = self._overlay_for(network)
        if overlay is None:
            return None
        spec = active_localized()
        if spec is not None:
            # Localized vectors live under their own memo keys (suffixed
            # with the scope's epsilon): a sampled vector is only valid
            # within its certified bound, so it must never serve an
            # exact-mode probe — and vice versa, exact vectors computed
            # outside the scope are not re-stamped with plan accounting.
            skey = (
                query,
                overlay.flips(),
                self.base_version,
                "localized",
                spec.epsilon,
            )
            cached = self._score_memo.get(skey)
            if cached is not None:
                scores, plan = cached
                spec.record(plan)
                return scores, True
            session = self._batch_session()
            if session is None:
                return None
            check_budget(1)
            fault_point(
                "session.scores",
                key=lambda: _fault_key(query, overlay.flips()),
                engine=self,
            )
            scores, plan = session.scores_localized(query, overlay, spec)
            spec.record(plan)
            self._score_memo.put(skey, (scores, plan))
            return scores, False
        skey = (query, overlay.flips(), self.base_version)
        cached = self._score_memo.get(skey)
        if cached is not None:
            return cached, True
        session = self._batch_session()
        if session is None:
            return None
        check_budget(1)
        fault_point(
            "session.scores",
            key=lambda: _fault_key(query, overlay.flips()),
            engine=self,
        )
        scores = session.scores(query, overlay)
        self._score_memo.put(skey, scores)
        return scores, False

    def probe_batch(
        self, states: Iterable[Tuple[int, Iterable[str], Optional[CollaborationNetwork]]]
    ) -> List[Tuple[bool, float]]:
        """Probe many ``(person, query, network)`` states at once.

        Memo hits (decision-level, then score-level) are answered first.
        The remaining states are grouped along *two axes*: states pinning
        the **same overlay under many queries** flush through one
        :meth:`DeltaSession.scores_multi` call (patches computed once),
        and the rest group by query and flush through
        :meth:`DeltaSession.scores_batch` in :data:`_BATCH_GROUP`-sized
        chunks.
        Each scored vector is decided via
        :meth:`~repro.explain.targets.DecisionTarget.decide_with_order_scored`
        without a second scoring pass and lands in the score memo for
        later probes.  States the batch path cannot serve (foreign
        networks, ``full_rebuild``, rankers without a session) fall back
        to :meth:`probe` semantics one by one.
        """
        resolved = []
        for person, query, network in states:
            query = as_query(query)
            resolved.append(
                (person, query, self.base if network is None else network)
            )
        if active_localized() is not None:
            # Localized plans are per-(query, overlay) cones; the stacked
            # flush kernels are global by construction, so the scope
            # serves states sequentially — each through the localized
            # memo keys and plan accounting.
            return [
                self.probe(person, query, network)
                for person, query, network in resolved
            ]
        results: List[Optional[Tuple[bool, float]]] = [None] * len(resolved)
        session = None if self.full_rebuild else self._batch_session()
        # flips -> [(index, person, query, overlay, memo key)]
        by_flips: Dict[FrozenSet, List[Tuple[int, int, Query, NetworkOverlay, Tuple]]] = {}
        for i, (person, query, network) in enumerate(resolved):
            key = self._key(person, query, network)
            if key is not None:
                cached = self._memo.get(key)
                if cached is not None:
                    self.hits += 1
                    results[i] = cached
                    continue
            overlay = self._overlay_for(network) if session is not None else None
            if overlay is None:
                results[i] = self._probe_uncached(person, query, network, key)
                continue
            flips = overlay.flips()
            if key is not None:
                svec = self._score_memo.get((query, flips, self.base_version))
                if svec is not None:
                    results[i] = self._decide_scored(
                        person, query, network, svec, key, from_memo=True
                    )
                    continue
            by_flips.setdefault(flips, []).append((i, person, query, network, key))

        # Axis 1: one overlay probed under many queries -> one shared
        # multi-query flush with the overlay-side patches computed once.
        by_query: Dict[Query, List[Tuple[int, int, Query, NetworkOverlay, Tuple]]] = {}
        for flips, items in by_flips.items():
            queries: Dict[Query, List[Tuple[int, int, Query, NetworkOverlay, Tuple]]] = {}
            for item in items:
                queries.setdefault(item[2], []).append(item)
            if len(queries) <= 1:
                for item in items:
                    by_query.setdefault(item[2], []).append(item)
                continue
            overlay = self._overlay_for(items[0][3])
            qlist = list(queries)
            check_budget(len(qlist))
            fault_point(
                "session.scores", key=lambda: _fault_key(qlist, flips), engine=self
            )
            score_list = self._flush_multi(session, overlay, qlist)
            for query, scores in zip(qlist, score_list):
                if self.memoize:
                    self._score_memo.put((query, flips, self.base_version), scores)
                for i, person, _, network, key in queries[query]:
                    results[i] = self._decide_scored(
                        person, query, network, scores, key
                    )

        # Axis 2: many overlays under one query -> chunked batched
        # forwards, exactly the PR-3 path.
        for query, items in by_query.items():
            for start in range(0, len(items), _BATCH_GROUP):
                chunk = items[start : start + _BATCH_GROUP]
                check_budget(len(chunk))
                chunk_overlays = [
                    self._overlay_for(net) for (_, _, _, net, _) in chunk
                ]
                fault_point(
                    "session.scores",
                    key=lambda: _fault_key(
                        query,
                        [f for ov in chunk_overlays for f in ov.flips()],
                    ),
                    engine=self,
                )
                score_list = self._flush_batch(session, query, chunk_overlays)
                for (i, person, _, network, key), scores in zip(chunk, score_list):
                    if self.memoize:
                        flips = self._overlay_for(network).flips()
                        self._score_memo.put(
                            (query, flips, self.base_version), scores
                        )
                    results[i] = self._decide_scored(
                        person, query, network, scores, key
                    )
        return results  # type: ignore[return-value]

    def _flush_multi(
        self,
        session: DeltaSession,
        overlay: NetworkOverlay,
        queries: List[Query],
    ) -> List[np.ndarray]:
        """One multi-query flush (budget and fault point already charged
        on this thread): a direct session call."""
        score_list = session.scores_multi(queries, overlay)
        self.multi_flushes += 1
        self.flushed_probes += len(queries)
        return score_list

    def _flush_batch(
        self,
        session: DeltaSession,
        query: Query,
        overlays: List[NetworkOverlay],
    ) -> List[np.ndarray]:
        """One same-query batched flush; a direct session call like
        :meth:`_flush_multi`."""
        score_list = session.scores_batch(query, overlays)
        self.batch_flushes += 1
        self.flushed_probes += len(overlays)
        return score_list

    def _decide_scored(
        self,
        person: int,
        query: Query,
        network,
        scores: np.ndarray,
        key,
        from_memo: bool = False,
    ) -> Tuple[bool, float]:
        """Decide one probe from an already-computed score vector and
        record it in the decision memo.  ``from_memo`` keeps the counters
        honest: a decision derived from a memoized score vector costs no
        ranker evaluation, so it counts as a ``score_hits`` answer, not a
        miss — ``n_probes``/``misses`` stay "unique system evaluations"."""
        result = self.target.decide_with_order_scored(person, query, network, scores)
        if from_memo:
            self.score_hits += 1
        else:
            self.misses += 1
        if key is not None:
            self._memo.put(key, result)
        return result

    def _batch_session(self):
        """The target ranker's delta session over this engine's base, when
        batched overlay scoring is usable at all.  The thread's
        :func:`~repro.runtime.delta_bypass` scope disables it too — the
        service's full-rebuild fallback tier routes *every* probe through
        the plain paths with overlays kept visible."""
        if self.full_rebuild or delta_bypassed():
            return None
        ranker = getattr(self.target, "ranker", None)
        if ranker is None or getattr(ranker, "full_rebuild", False):
            return None
        try:
            return ranker._session_for(self.base)
        except AttributeError:
            return None

    def decide(
        self,
        person: int,
        query: Iterable[str],
        network: Optional[CollaborationNetwork] = None,
    ) -> bool:
        """The decision bit alone (SHAP value functions)."""
        return self.probe(person, query, network)[0]

    # ------------------------------------------------------------------
    # base commits
    # ------------------------------------------------------------------
    def rekey(self, delta) -> Tuple[int, int]:
        """Carry this engine's memo levels across a committed base edit,
        retaining every entry whose query's dependency cone provably
        misses the delta.  Returns ``(retained, dropped)`` score-memo
        entry counts.

        Score vectors survive by the ranker's ``memo_survives``, decisions
        by the target's (the ranker's for relevance, the former's for
        membership): each predicate belongs to the system that computes
        the answer, so no session is built to ask it.

        Must run before the next probe's :meth:`_sync_base` notices the
        version drift and clears wholesale; raises ``ValueError`` when
        the delta does not span this engine's (old → current) versions —
        the registry drops such engines instead."""
        if self.base.version != delta.new_version or (
            self.base_version not in (delta.old_version, delta.new_version)
        ):
            raise ValueError(
                f"delta {delta.old_version}->{delta.new_version} does not "
                f"apply to engine at {self.base_version} "
                f"(base {self.base.version})"
            )
        if delta.is_empty:
            self.base_version = delta.new_version
            return (0, 0)
        ranker = getattr(self.target, "ranker", None)
        if self.full_rebuild or ranker is None or ranker.full_rebuild:
            # No delta path to serve memo hits through: retain nothing.
            scores_survive = decisions_survive = _survives_nothing
        else:
            scores_survive = ranker.memo_survives
            decisions_survive = self.target.memo_survives
        # Decision-memo keys carry no version, so survivors must be
        # provably decision-identical over the new base.  The predicate
        # reads only the query, and the memo holds many keys per query.
        verdict = functools.cache(functools.partial(decisions_survive, delta))
        self._memo.rekey(lambda key: key if verdict(key[1]) else None)
        retained, dropped = _rekey_memo_entries(
            self._score_memo, delta, scores_survive
        )
        self._empty_overlay = None
        self.base_version = delta.new_version
        return (retained, dropped)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def accepts(self, network: CollaborationNetwork) -> bool:
        """Can probes against ``network`` be served by this engine?"""
        return network is self.base or (
            isinstance(network, NetworkOverlay) and network.base is self.base
        )

    @property
    def n_probes(self) -> int:
        """Unique (non-memoized) system evaluations so far.  Decisions
        served from the score-vector memo are *not* counted — they cost
        no ranker evaluation (see ``score_hits``)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered without evaluating the system —
        from the decision memo or from a memoized score vector."""
        total = self.hits + self.score_hits + self.misses
        return (self.hits + self.score_hits) / total if total else 0.0

    def _key(self, person: int, query: Query, network) -> Optional[Tuple]:
        if not self.memoize:
            return None
        self._sync_base()
        if network is self.base:
            flips: frozenset = frozenset()
        elif (
            isinstance(network, NetworkOverlay)
            and network.base is self.base
            and network.base_version == self.base_version
        ):
            flips = network.flips()
        else:
            return None  # foreign network: probe uncached
        spec = active_localized()
        if spec is not None:
            # Sampled decisions may differ from exact ones near ranking
            # ties; a localized scope's decisions never share memo slots
            # with exact-mode probes (see the score-memo key suffix too).
            return (person, query, flips, "localized", spec.epsilon)
        return (person, query, flips)

    def _sync_base(self) -> None:
        if self.base.version != self.base_version:
            # The base mutated since the last probe: every memoized outcome
            # is stale.  Re-stamp and drop both memo levels — but keep the
            # hit/miss counters cumulative, since callers snapshot
            # ``misses`` deltas to report unique probe counts.  (The score
            # memo's keys carry the base version too, so even a stale
            # entry that survived could never be served — clearing here
            # just releases the memory.)
            self._memo.clear()
            self._score_memo.clear()
            self._empty_overlay = None
            self.base_version = self.base.version

    def __repr__(self) -> str:
        return (
            f"ProbeEngine(target={type(self.target).__name__}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"memoize={self.memoize}, full_rebuild={self.full_rebuild})"
        )
