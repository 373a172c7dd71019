"""The skill-labeled collaboration network at the heart of ExES.

The paper (Section 3.1) models a collaboration network ``G = (P, E)`` with
individuals ``P`` as nodes, undirected collaboration edges ``E``, and a skill
set ``S_i ⊂ S`` attached to every individual ``p_i``.  This module implements
that structure with:

* cheap whole-network copies so counterfactual search can probe thousands of
  perturbed variants,
* version-stamped caches for the derived numpy/scipy artifacts the neural
  rankers need (adjacency CSR, normalized adjacency, skill incidence matrix).

Node identity is a dense integer id assigned at insertion time; a display
name is kept alongside for rendering and case studies.

Storage
-------

CSR arrays are the only source of truth: ``_adj_indptr`` / ``_adj_indices``
hold the symmetric adjacency (both directions, rows sorted, no self loops)
and ``_skill_indptr`` / ``_skill_ids`` hold the person→skill relation as
integer ids into ``_skill_vocab`` (rows sorted by id).  Memory is
O(edges + skill assignments) machine words, so the same class serves a
hand-built test fixture and a 1e6-node bench tier.

The arrays are never written in place.  Every edit goes through
:meth:`CollaborationNetwork.apply_delta`, which merges a batch of flips into
fresh arrays — one packed-key array merge per relation, ``u·n+v`` for edges
and ``p·V+id`` for skills — and bumps the version once.  The one-call
mutators (:meth:`~CollaborationNetwork.add_edge`, …) are thin wrappers
around it for hand-built networks; bulk builders
(:meth:`~CollaborationNetwork.from_parts`,
:meth:`~CollaborationNetwork.from_csr`, the generators) build their arrays
in one pass or one ``apply_delta``.

The frozenset reads (:meth:`~CollaborationNetwork.skills`,
:meth:`~CollaborationNetwork.neighbors`, and the membership tests and degree
that read through them) answer from per-person row caches, filled lazily and
reset with the derived caches on every version bump: the rankers and team
formers ask for the same few rows thousands of times per explanation, and a
dictionary hit costs far less than a numpy row slice.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

_NO_PEOPLE = np.empty(0, dtype=np.int64)
_NO_PEOPLE.flags.writeable = False


@dataclass(frozen=True)
class BaseDelta:
    """The structured record of one committed base-network edit batch.

    Emitted by :meth:`~repro.graph.overlay.NetworkOverlay.commit` when an
    overlay's flips are promoted into the base network in place.  The
    engine registry reads it to decide which memoized scores and
    decisions cross the version bump (each system's ``memo_survives``);
    delta sessions never cross it.  Every field is in the canonical flip
    shape the overlay already exposes, sorted for deterministic
    iteration.

    ``skill_flips`` holds ``(person, skill, added)`` triples and
    ``edge_flips`` holds ``(u, v, added)`` with ``u < v`` — exactly the
    edits that turned base version ``old_version`` into ``new_version``.
    """

    old_version: int
    new_version: int
    skill_flips: Tuple[Tuple[int, str, bool], ...]
    edge_flips: Tuple[Tuple[int, int, bool], ...]

    @property
    def is_empty(self) -> bool:
        return not self.skill_flips and not self.edge_flips

    @property
    def skills_changed(self) -> FrozenSet[str]:
        """Skill names whose holder sets changed."""
        return frozenset(s for _, s, _ in self.skill_flips)


class CollaborationNetwork:
    """A mutable, undirected, node-labeled collaboration network.

    Example::

        net = CollaborationNetwork()
        a = net.add_person("Ada", {"databases", "xai"})
        b = net.add_person("Grace", {"compilers"})
        net.add_edge(a, b)
        assert net.has_edge(b, a)
        assert "xai" in net.skills(a)
    """

    __slots__ = (
        "_names",
        "_version",
        "_cache",
        "_name_index",
        "_adj_indptr",
        "_adj_indices",
        "_skill_indptr",
        "_skill_ids",
        "_skill_vocab",
        "_skill_rows",
        "_adj_rows",
    )

    def __init__(self) -> None:
        self._names: List[str] = []
        self._version: int = 0
        self._cache: Dict[str, Tuple[int, object]] = {}
        self._name_index: Optional[Dict[str, int]] = None
        self._adj_indptr = np.zeros(1, dtype=np.int64)
        self._adj_indices = np.empty(0, dtype=np.int32)
        self._skill_indptr = np.zeros(1, dtype=np.int64)
        self._skill_ids = np.empty(0, dtype=np.int32)
        self._skill_vocab: Tuple[str, ...] = ()
        self._skill_rows: Dict[int, FrozenSet[str]] = {}
        self._adj_rows: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        names: Sequence[str],
        skills: Sequence[Iterable[str]],
        edges: Iterable[Tuple[int, int]],
    ) -> "CollaborationNetwork":
        """Build a network from parallel name/skill sequences and an edge
        list in one :meth:`apply_delta`.  A repeated or mirrored edge is
        stored once; a self loop raises ``ValueError`` and an endpoint
        outside ``names`` raises ``IndexError``."""
        if len(names) != len(skills):
            raise ValueError(
                f"names and skills must align: {len(names)} names vs {len(skills)} skill sets"
            )
        n = len(names)
        no_ids = np.empty(0, dtype=np.int32)
        net = cls.from_csr(
            names,
            np.zeros(n + 1, dtype=np.int64),
            no_ids,
            np.zeros(n + 1, dtype=np.int64),
            no_ids.copy(),
            (),
        )
        net.apply_delta(
            [(p, s, True) for p, held in enumerate(skills) for s in set(held)],
            {(u, v, True) if u < v else (v, u, True) for u, v in edges},
        )
        return net

    @classmethod
    def from_csr(
        cls,
        names: Sequence[str],
        adj_indptr: np.ndarray,
        adj_indices: np.ndarray,
        skill_indptr: np.ndarray,
        skill_ids: np.ndarray,
        skill_vocab: Sequence[str],
    ) -> "CollaborationNetwork":
        """Build a network directly from CSR arrays.

        ``adj_indptr``/``adj_indices`` is the symmetric adjacency in CSR
        layout (both directions present, no self loops);
        ``skill_indptr``/``skill_ids`` is the person→skill incidence with
        ids indexing ``skill_vocab``.  Rows are sorted internally, so
        callers may hand over unsorted per-row entries.  This is the
        generators' entry point: no per-person Python container is ever
        materialized.
        """
        n = len(names)
        adj_indptr = np.ascontiguousarray(adj_indptr, dtype=np.int64)
        adj_indices = np.ascontiguousarray(adj_indices, dtype=np.int32)
        skill_indptr = np.ascontiguousarray(skill_indptr, dtype=np.int64)
        skill_ids = np.ascontiguousarray(skill_ids, dtype=np.int32)
        if adj_indptr.shape != (n + 1,) or skill_indptr.shape != (n + 1,):
            raise ValueError("indptr arrays must have length n_people + 1")
        if adj_indptr[-1] != len(adj_indices) or skill_indptr[-1] != len(skill_ids):
            raise ValueError("indptr terminal entry must match indices length")
        if len(adj_indices) % 2:
            raise ValueError("symmetric adjacency must have an even entry count")
        net = cls()
        net._names = list(names)
        net._adj_indptr = adj_indptr
        net._adj_indices = _sort_rows(adj_indptr, adj_indices)
        net._skill_indptr = skill_indptr
        net._skill_ids = _sort_rows(skill_indptr, skill_ids)
        net._skill_vocab = tuple(skill_vocab)
        return net

    @property
    def is_compact(self) -> bool:
        """Always True: CSR arrays are the only storage."""
        return True

    def add_person(self, name: str, skills: Iterable[str] = ()) -> int:
        """Add an individual and return their integer id.

        Growing the node set appends one empty row to each relation; the
        skills then land through :meth:`apply_delta`."""
        pid = self.n_people
        self._names.append(name)
        self._name_index = None
        self._adj_indptr = np.append(self._adj_indptr, self._adj_indptr[-1])
        self._skill_indptr = np.append(self._skill_indptr, self._skill_indptr[-1])
        self._touch()
        self.apply_delta([(pid, s, True) for s in set(skills)], ())
        return pid

    def add_edge(self, u: int, v: int) -> bool:
        """Add an undirected collaboration edge; returns False if it existed."""
        if self.has_edge(u, v):
            return False
        self.apply_delta((), ((u, v, True),))
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove an undirected edge; returns False if it was absent."""
        if not self.has_edge(u, v):
            return False
        self.apply_delta((), ((u, v, False),))
        return True

    def add_skill(self, person: int, skill: str) -> bool:
        """Attach ``skill`` to ``person``; returns False if already present."""
        if self.has_skill(person, skill):
            return False
        self.apply_delta(((person, skill, True),), ())
        return True

    def remove_skill(self, person: int, skill: str) -> bool:
        """Detach ``skill`` from ``person``; returns False if absent."""
        if not self.has_skill(person, skill):
            return False
        self.apply_delta(((person, skill, False),), ())
        return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_people(self) -> int:
        """Number of individuals |P|."""
        return len(self._names)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges |E|."""
        return len(self._adj_indices) // 2

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation (for cache keying)."""
        return self._version

    def people(self) -> range:
        """Iterate over all person ids."""
        return range(len(self._names))

    def name(self, person: int) -> str:
        self._check_person(person)
        return self._names[person]

    def find_person(self, name: str) -> int:
        """Return the id of the first person with this display name."""
        if self._name_index is None:
            index: Dict[str, int] = {}
            for pid, nm in enumerate(self._names):
                index.setdefault(nm, pid)
            self._name_index = index
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"no person named {name!r}") from None

    def skills(self, person: int) -> FrozenSet[str]:
        """The skill set S_i of ``person`` (immutable view)."""
        rows = self._skill_rows
        row = rows.get(person)
        if row is None:
            self._check_person(person)
            vocab = self._skill_vocab
            s, e = self._skill_indptr[person], self._skill_indptr[person + 1]
            row = rows[person] = frozenset([vocab[i] for i in self._skill_ids[s:e].tolist()])
        return row

    def has_skill(self, person: int, skill: str) -> bool:
        return skill in self.skills(person)

    def neighbors(self, person: int) -> FrozenSet[int]:
        """Direct collaborators of ``person``."""
        rows = self._adj_rows
        row = rows.get(person)
        if row is None:
            self._check_person(person)
            s, e = self._adj_indptr[person], self._adj_indptr[person + 1]
            row = rows[person] = frozenset(self._adj_indices[s:e].tolist())
        return row

    def degree(self, person: int) -> int:
        return len(self.neighbors(person))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return v in self.neighbors(u)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as (u, v) with u < v, in
        row order."""
        src = np.repeat(
            np.arange(self.n_people, dtype=np.int64), np.diff(self._adj_indptr)
        )
        upper = src < self._adj_indices
        return zip(src[upper].tolist(), self._adj_indices[upper].tolist())

    def skill_universe(self) -> FrozenSet[str]:
        """The universe of skills S actually attached to some node."""
        cached = self._cache_get("skill_universe")
        if cached is not None:
            return cached  # type: ignore[return-value]
        vocab = self._skill_vocab
        universe = frozenset(vocab[i] for i in np.unique(self._skill_ids).tolist())
        self._cache_put("skill_universe", universe)
        return universe

    def total_skill_assignments(self) -> int:
        """Sum of |S_i| over all individuals (size of the skill relation)."""
        return len(self._skill_ids)

    def people_with_skill(self, skill: str) -> FrozenSet[int]:
        """All individuals holding ``skill``."""
        return frozenset(self._skill_holders(skill).tolist())

    def match_counts(self, query: Iterable[str]) -> np.ndarray:
        """Per-person count of query terms held, as float64.

        The O(nnz) building block behind restart vectors and lexical match
        bonuses: one holder-group slice per term instead of a Python scan
        over holder sets.  Counts are exact small integers, so the result
        is bit-identical to the per-person loop it replaces.
        """
        out = np.zeros(self.n_people)
        for term in query:
            out[self._skill_holders(term)] += 1.0
        return out

    def term_incidence(self, terms: Sequence[str]) -> np.ndarray:
        """``(n_people, len(terms))`` bool: does person ``p`` hold
        ``terms[j]``?  Built from the same cached holder groups as
        :meth:`match_counts` — the greedy team former's per-formation
        cover table."""
        out = np.zeros((self.n_people, len(terms)), dtype=bool)
        for j, term in enumerate(terms):
            out[self._skill_holders(term), j] = True
        return out

    def _skill_holders(self, skill: str) -> np.ndarray:
        """The ids of everyone holding ``skill``, ascending: one group of
        the version-cached holder grouping, empty when nobody holds it."""
        sid = self._vocab_lookup().get(skill)
        if sid is None:
            return _NO_PEOPLE
        cached = self._cache_get("skill_holders")
        if cached is None:
            counts = np.bincount(self._skill_ids, minlength=len(self._skill_vocab))
            indptr = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            rows = np.repeat(
                np.arange(self.n_people, dtype=np.int64), np.diff(self._skill_indptr)
            )
            people = rows[np.argsort(self._skill_ids, kind="stable")]
            cached = (indptr.tolist(), people)
            self._cache_put("skill_holders", cached)
        indptr, people = cached  # type: ignore[misc]
        return people[indptr[sid] : indptr[sid + 1]]

    def _vocab_lookup(self) -> Dict[str, int]:
        """Skill name -> id into ``_skill_vocab``."""
        cached = self._cache_get("vocab_lookup")
        if cached is None:
            cached = {s: i for i, s in enumerate(self._skill_vocab)}
            self._cache_put("vocab_lookup", cached)
        return cached  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # neighborhoods (Pruning Strategy 1: network locality)
    # ------------------------------------------------------------------
    def neighborhood_array(self, person: int, radius: int) -> np.ndarray:
        """N(p_i) as a sorted int64 id array — the O(cone) CSR frontier
        walk behind :meth:`neighborhood`.

        Visited marks live in a version-cached epoch array (one int64 per
        node, reused across calls without clearing), so a walk allocates
        only its own frontier/cone arrays: O(cone) work and memory, never
        O(n) per call.
        """
        self._check_person(person)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        indptr, indices = self._adj_indptr, self._adj_indices
        scratch = self._cache_get("nbh_scratch")
        if scratch is None:
            scratch = (
                threading.Lock(),
                np.full(self.n_people, -1, dtype=np.int64),
                [0],
            )
            self._cache_put("nbh_scratch", scratch)
        lock, epoch, counter = scratch
        with lock:
            counter[0] += 1
            cur = counter[0]
            epoch[person] = cur
            frontier = np.array([person], dtype=np.int64)
            layers = [frontier]
            for _ in range(radius):
                starts = indptr[frontier]
                lens = indptr[frontier + 1] - starts
                total = int(lens.sum())
                if total == 0:
                    break
                shifts = np.cumsum(lens)
                offsets = np.repeat(starts - np.concatenate(([0], shifts[:-1])), lens)
                nbrs = indices[offsets + np.arange(total, dtype=np.int64)]
                fresh = nbrs[epoch[nbrs] != cur]
                if fresh.size == 0:
                    break
                fresh = np.unique(fresh).astype(np.int64)
                epoch[fresh] = cur
                layers.append(fresh)
                frontier = fresh
            out = np.concatenate(layers) if len(layers) > 1 else layers[0]
        return np.sort(out)

    def neighborhood(self, person: int, radius: int) -> FrozenSet[int]:
        """N(p_i): nodes within BFS distance ``radius`` of ``person``, inclusive.

        The paper defines the neighborhood as the induced subgraph of nodes
        within a distance threshold ``d`` (Pruning Strategy 1); ``radius=0``
        is the singleton {p_i}, ``radius=1`` adds immediate collaborators.
        """
        return frozenset(self.neighborhood_array(person, radius).tolist())

    def neighborhood_skills(self, person: int, radius: int) -> FrozenSet[str]:
        """S_N(p_i): the union of skills held inside the ``radius``-neighborhood."""
        nodes = self.neighborhood_array(person, radius)
        indptr, ids, vocab = self._skill_indptr, self._skill_ids, self._skill_vocab
        used = np.unique(np.concatenate([ids[indptr[p] : indptr[p + 1]] for p in nodes.tolist()]))
        return frozenset(vocab[i] for i in used.tolist())

    def edges_within(self, nodes: Iterable[int]) -> List[Tuple[int, int]]:
        """Edges of the subgraph induced by ``nodes``, as (u, v) with u < v."""
        node_set = set(nodes)
        out: List[Tuple[int, int]] = []
        for u in sorted(node_set):
            for v in self._sorted_neighbors(u):
                if u < v and v in node_set:
                    out.append((u, v))
        return out

    def incident_edges(self, person: int) -> List[Tuple[int, int]]:
        """Edges touching ``person``, each as (u, v) with u < v."""
        self._check_person(person)
        return [
            (min(person, v), max(person, v)) for v in self._sorted_neighbors(person)
        ]

    def _sorted_neighbors(self, person: int) -> List[int]:
        s, e = self._adj_indptr[person], self._adj_indptr[person + 1]
        return self._adj_indices[s:e].tolist()

    # ------------------------------------------------------------------
    # derived numpy / scipy artifacts (cached by version)
    # ------------------------------------------------------------------
    def skill_vocabulary(self) -> Tuple[str, ...]:
        """Sorted tuple of the skill universe; index positions are stable
        for a given network version."""
        cached = self._cache_get("skill_vocab")
        if cached is not None:
            return cached  # type: ignore[return-value]
        vocab = tuple(sorted(self.skill_universe()))
        self._cache_put("skill_vocab", vocab)
        return vocab

    def skill_vocabulary_index(self) -> Dict[str, int]:
        """Mapping skill -> column index in :meth:`skill_matrix`."""
        cached = self._cache_get("skill_vocab_index")
        if cached is not None:
            return cached  # type: ignore[return-value]
        index = {s: i for i, s in enumerate(self.skill_vocabulary())}
        self._cache_put("skill_vocab_index", index)
        return index

    def adjacency_csr(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix in CSR form."""
        cached = self._cache_get("adj_csr")
        if cached is not None:
            return cached  # type: ignore[return-value]
        n = self.n_people
        data = np.ones(len(self._adj_indices), dtype=np.float64)
        mat = sp.csr_matrix((data, self._adj_indices, self._adj_indptr), shape=(n, n))
        self._cache_put("adj_csr", mat)
        return mat

    def normalized_adjacency(self) -> sp.csr_matrix:
        """Symmetrically normalized adjacency with self loops:
        ``D^-1/2 (A + I) D^-1/2`` — the GCN propagation operator."""
        cached = self._cache_get("adj_norm")
        if cached is not None:
            return cached  # type: ignore[return-value]
        n = self.n_people
        a_hat = self.adjacency_csr() + sp.identity(n, format="csr")
        deg = np.asarray(a_hat.sum(axis=1)).ravel()
        inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
        d_inv = sp.diags(inv_sqrt)
        mat = (d_inv @ a_hat @ d_inv).tocsr()
        self._cache_put("adj_norm", mat)
        return mat

    def skill_matrix(self, vocab_index: Optional[Dict[str, int]] = None) -> sp.csr_matrix:
        """Node-by-skill 0/1 incidence matrix.

        ``vocab_index`` maps skill string -> column; defaults to this
        network's own vocabulary.  Skills absent from the index are dropped,
        which lets perturbed networks (with added skills) be projected onto a
        base vocabulary.
        """
        if vocab_index is None:
            vocab_index = self.skill_vocabulary_index()
            cached = self._cache_get("skill_matrix_default")
            if cached is not None:
                return cached  # type: ignore[return-value]
            mat = self._build_skill_matrix(vocab_index)
            self._cache_put("skill_matrix_default", mat)
            return mat
        return self._build_skill_matrix(vocab_index)

    def _build_skill_matrix(self, vocab_index: Dict[str, int]) -> sp.csr_matrix:
        lookup = self._vocab_lookup()
        col_map = np.full(len(self._skill_vocab), -1, dtype=np.int64)
        for s, col in vocab_index.items():
            sid = lookup.get(s)
            if sid is not None:
                col_map[sid] = col
        cols = col_map[self._skill_ids]
        keep = cols >= 0
        counts = np.diff(self._skill_indptr)
        rows = np.repeat(np.arange(self.n_people, dtype=np.int64), counts)[keep]
        data = np.ones(int(keep.sum()), dtype=np.float64)
        return sp.csr_matrix(
            (data, (rows, cols[keep])),
            shape=(self.n_people, len(vocab_index)),
        )

    # ------------------------------------------------------------------
    # the one mutation path
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        skill_flips: Iterable[Tuple[int, str, bool]],
        edge_flips: Iterable[Tuple[int, int, bool]],
    ) -> "BaseDelta":
        """Apply a batch of flips in place as ONE version bump.

        This is the commit primitive behind
        :meth:`~repro.graph.overlay.NetworkOverlay.commit` and the one
        mutation path of the network.  Each flip must be applicable
        against the current state (add only what is absent, remove only
        what is present — an overlay's recorded flips satisfy this by
        construction) and name its ``(person, skill)`` or undirected edge
        once; an edge flip may name its endpoints in either order.  Every
        flip is checked before any lands, so a rejected batch leaves the
        network as it was.  ``_version`` advances exactly once so
        consumers see a single old→new delta rather than one bump per
        flip; an empty batch is a no-op that does not bump the version.

        Each relation changes by one merge of sorted packed keys
        (``u·n+v`` in both directions for edges, ``p·V+id`` for skills,
        with new skill names appended to the vocabulary) into fresh
        arrays.  Returns the :class:`BaseDelta`, edge flips canonical
        (``u < v``).
        """
        skill_flips = tuple(sorted(skill_flips))
        edge_flips = tuple(
            sorted((u, v, added) if u < v else (v, u, added) for u, v, added in edge_flips)
        )
        old_version = self._version
        if not skill_flips and not edge_flips:
            return BaseDelta(old_version, old_version, (), ())
        for person, _, _ in skill_flips:
            self._check_person(person)
        for u, v, _ in edge_flips:
            self._check_pair(u, v)
        for kind, flips in (("skill", skill_flips), ("edge", edge_flips)):
            for a, b in zip(flips, flips[1:]):
                if a[:2] == b[:2]:
                    raise ValueError(f"repeated {kind} flip for {a[:2]!r}")
        skills = self._merge_skill_flips(skill_flips) if skill_flips else None
        adjacency = self._merge_edge_flips(edge_flips) if edge_flips else None
        if skills is not None:
            self._skill_indptr, self._skill_ids, self._skill_vocab = skills
        if adjacency is not None:
            self._adj_indptr, self._adj_indices = adjacency
        self._touch()
        return BaseDelta(old_version, self._version, skill_flips, edge_flips)

    def _merge_skill_flips(
        self, flips: Tuple[Tuple[int, str, bool], ...]
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[str, ...]]:
        """``(indptr, ids, vocab)`` with ``flips`` applied; raises on an
        inapplicable flip."""
        lookup = self._vocab_lookup()
        fresh: Dict[str, int] = {}
        base = len(self._skill_vocab)
        ids = [
            lookup[s] if s in lookup else fresh.setdefault(s, base + len(fresh))
            for _, s, _ in flips
        ]
        vocab = self._skill_vocab + tuple(fresh)
        stride = len(vocab)
        added = np.array([a for _, _, a in flips], dtype=bool)
        keys = np.array([p for p, _, _ in flips], dtype=np.int64) * stride + ids
        old = _row_keys(self._skill_indptr, self._skill_ids, stride)
        bad = np.flatnonzero(_contains(old, keys) == added)
        if bad.size:
            person, skill, add = flips[bad[0]]
            raise ValueError(
                f"inapplicable skill flip: cannot {'add' if add else 'remove'} "
                f"{skill!r} {'to' if add else 'from'} person {person}"
            )
        indptr, ids_out = _rows_from_keys(_flip_keys(old, keys, added), self.n_people, stride)
        return indptr, ids_out, vocab

    def _merge_edge_flips(
        self, flips: Tuple[Tuple[int, int, bool], ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` with ``flips`` (canonical) applied; raises
        on an inapplicable flip."""
        n = self.n_people
        us = np.array([u for u, _, _ in flips], dtype=np.int64)
        vs = np.array([v for _, v, _ in flips], dtype=np.int64)
        added = np.array([a for _, _, a in flips], dtype=bool)
        old = _row_keys(self._adj_indptr, self._adj_indices, n)
        bad = np.flatnonzero(_contains(old, us * n + vs) == added)
        if bad.size:
            u, v, add = flips[bad[0]]
            raise ValueError(
                f"inapplicable edge flip: cannot {'add' if add else 'remove'} edge ({u}, {v})"
            )
        keys = np.concatenate((us * n + vs, vs * n + us))
        return _rows_from_keys(_flip_keys(old, keys, np.tile(added, 2)), n, n)

    def state_digest(self) -> str:
        """Content hash of names, skills, and edges (version-independent).

        Two networks with identical structure digest identically even if
        their mutation histories (and so ``version`` counters) differ —
        the binding key the registry spill/restore path uses to decide a
        serialized warm state still matches the live network.  Skills are
        hashed by name, so the vocabulary's id order does not matter.
        """
        h = hashlib.blake2b(digest_size=16)
        vocab = self._skill_vocab
        indptr, ids = self._skill_indptr.tolist(), self._skill_ids.tolist()
        for pid, name in enumerate(self._names):
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            for s in sorted(vocab[i] for i in ids[indptr[pid] : indptr[pid + 1]]):
                h.update(s.encode("utf-8"))
                h.update(b"\x01")
            h.update(b"\x02")
        h.update("".join(f"{u},{v};" for u, v in self.edges()).encode("ascii"))
        return h.hexdigest()

    # ------------------------------------------------------------------
    # copies & export
    # ------------------------------------------------------------------
    def copy(self) -> "CollaborationNetwork":
        """Deep copy of names, skills and adjacency (caches are not copied)."""
        out = CollaborationNetwork()
        out._names = list(self._names)
        out._adj_indptr = self._adj_indptr.copy()
        out._adj_indices = self._adj_indices.copy()
        out._skill_indptr = self._skill_indptr.copy()
        out._skill_ids = self._skill_ids.copy()
        out._skill_vocab = self._skill_vocab
        return out

    def to_networkx(self):
        """Export to a ``networkx.Graph`` with ``name``/``skills`` attributes."""
        import networkx as nx

        g = nx.Graph()
        for pid in self.people():
            g.add_node(pid, name=self._names[pid], skills=self.skills(pid))
        g.add_edges_from(self.edges())
        return g

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on corruption."""
        n = self.n_people
        indptr, indices = self._adj_indptr, self._adj_indices
        if indptr.shape != (n + 1,) or self._skill_indptr.shape != (n + 1,):
            raise ValueError("parallel arrays out of sync")
        if indptr[-1] != len(indices) or self._skill_indptr[-1] != len(self._skill_ids):
            raise ValueError("indptr terminal entry does not match indices length")
        if np.diff(indptr).min(initial=0) < 0 or np.diff(self._skill_indptr).min(initial=0) < 0:
            raise ValueError("indptr not monotone")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge endpoint out of range")
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if np.any(src == indices):
            raise ValueError(f"self loop at node {int(src[src == indices][0])}")
        keys = src * n + indices
        if np.any(np.diff(keys) <= 0):
            raise ValueError("adjacency rows not sorted or hold a repeated edge")
        # Symmetry: the set of directed edges equals its reverse.
        if not np.array_equal(keys, np.sort(indices.astype(np.int64) * n + src)):
            raise ValueError("asymmetric edge in adjacency")
        if len(self._skill_ids):
            if self._skill_ids.min() < 0 or self._skill_ids.max() >= len(self._skill_vocab):
                raise ValueError("skill id out of vocabulary range")
            skill_keys = _row_keys(self._skill_indptr, self._skill_ids, len(self._skill_vocab))
            if np.any(np.diff(skill_keys) <= 0):
                raise ValueError("skill rows not sorted or hold a repeated skill")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._version += 1
        self._skill_rows = {}
        self._adj_rows = {}
        if self._cache:
            self._cache.clear()

    def _cache_get(self, key: str):
        entry = self._cache.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        return None

    def _cache_put(self, key: str, value: object) -> None:
        self._cache[key] = (self._version, value)

    def _check_person(self, person: int) -> None:
        if not (0 <= person < len(self._names)):
            raise IndexError(f"person id {person} out of range [0, {len(self._names)})")

    def _check_pair(self, u: int, v: int) -> None:
        self._check_person(u)
        self._check_person(v)
        if u == v:
            raise ValueError(f"self loops are not allowed (node {u})")

    def __repr__(self) -> str:
        return (
            f"CollaborationNetwork(n_people={self.n_people}, n_edges={self.n_edges}, "
            f"n_skills={len(self.skill_universe())})"
        )


def _sort_rows(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sort each CSR row's entries ascending (stable across rows)."""
    if len(values) == 0:
        return values
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((values, rows))
    return np.ascontiguousarray(values[order])


def _row_keys(indptr: np.ndarray, cols: np.ndarray, stride: int) -> np.ndarray:
    """The packed ``row * stride + col`` keys of a CSR relation, ascending
    when its rows are sorted."""
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    return rows * stride + cols


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each of ``keys`` in ``sorted_keys``."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < len(sorted_keys)
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return hit


def _flip_keys(sorted_keys: np.ndarray, keys: np.ndarray, added: np.ndarray) -> np.ndarray:
    """``sorted_keys`` with ``keys[~added]`` (all present) deleted and
    ``keys[added]`` (all absent) inserted, still ascending."""
    kept = np.delete(sorted_keys, np.searchsorted(sorted_keys, keys[~added]))
    new = np.sort(keys[added])
    return np.insert(kept, np.searchsorted(kept, new), new)


def _rows_from_keys(keys: np.ndarray, n_rows: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, cols)`` of the CSR relation whose sorted packed keys are
    ``keys``."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // stride, minlength=n_rows), out=indptr[1:])
    return indptr, (keys % stride).astype(np.int32)
