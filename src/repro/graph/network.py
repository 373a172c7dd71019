"""The skill-labeled collaboration network at the heart of ExES.

The paper (Section 3.1) models a collaboration network ``G = (P, E)`` with
individuals ``P`` as nodes, undirected collaboration edges ``E``, and a skill
set ``S_i ⊂ S`` attached to every individual ``p_i``.  This module implements
that structure with:

* O(1) skill and adjacency membership tests (sets),
* cheap whole-network copies so counterfactual search can probe thousands of
  perturbed variants,
* version-stamped caches for the derived numpy/scipy artifacts the neural
  rankers need (adjacency CSR, normalized adjacency, skill incidence matrix).

Node identity is a dense integer id assigned at insertion time; a display
name is kept alongside for rendering and case studies.

Storage modes
-------------

A network lives in one of two representations:

* **set mode** (the default): per-person Python sets for skills and
  adjacency.  O(1) membership, cheap in-place mutation — right for the
  interactive / dynamic-network path, but ~100 bytes per entry, which caps
  benches far below the million-node north star.
* **compact mode**: CSR arrays are the source of truth — ``_adj_indptr`` /
  ``_adj_indices`` for adjacency and ``_skill_indptr`` / ``_skill_ids``
  (integer ids into ``_skill_vocab``) for the skill relation.  The frozenset
  accessors (:meth:`skills`, :meth:`neighbors`, …) become lazy adapters that
  materialize one row on demand; membership tests are ``searchsorted`` on
  the sorted row.  Built by :meth:`from_csr` (the streaming generators) or
  :meth:`compact`.

Both modes answer every query identically (same digests, same derived
matrices, same iteration output).  Mutating a compact network *thaws* it
back to set mode first — an intentional densification: the scale path
treats bases as frozen, and commits ride the dynamic-network path.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
        "_skills",
        "_adj",
        "_n_edges",
        "_version",
        "_cache",
        "_name_index",
        # compact-mode source of truth (None while in set mode)
        "_adj_indptr",
        "_adj_indices",
        "_skill_indptr",
        "_skill_ids",
        "_skill_vocab",
    )

    def __init__(self) -> None:
        self._names: List[str] = []
        self._skills: Optional[List[Set[str]]] = []
        self._adj: Optional[List[Set[int]]] = []
        self._n_edges: int = 0
        self._version: int = 0
        self._cache: Dict[str, Tuple[int, object]] = {}
        self._name_index: Optional[Dict[str, int]] = None
        self._adj_indptr: Optional[np.ndarray] = None
        self._adj_indices: Optional[np.ndarray] = None
        self._skill_indptr: Optional[np.ndarray] = None
        self._skill_ids: Optional[np.ndarray] = None
        self._skill_vocab: Optional[Tuple[str, ...]] = None

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
        """Build a network from parallel name/skill sequences and an edge list."""
        if len(names) != len(skills):
            raise ValueError(
                f"names and skills must align: {len(names)} names vs {len(skills)} skill sets"
            )
        net = cls()
        for name, skill_set in zip(names, skills):
            net.add_person(name, skill_set)
        for u, v in edges:
            net.add_edge(u, v)
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
        """Build a network directly in compact mode from CSR arrays.

        ``adj_indptr``/``adj_indices`` is the symmetric adjacency in CSR
        layout (both directions present, no self loops);
        ``skill_indptr``/``skill_ids`` is the person→skill incidence with
        ids indexing ``skill_vocab``.  Rows are sorted internally, so
        callers may hand over unsorted per-row entries.  This is the
        streaming-generator entry point: no per-person Python set is ever
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
        # Sort each row in place: row id ascending, then column ascending.
        adj_indices = _sort_rows(adj_indptr, adj_indices)
        skill_ids = _sort_rows(skill_indptr, skill_ids)
        net = cls()
        net._names = list(names)
        net._skills = None
        net._adj = None
        net._adj_indptr = adj_indptr
        net._adj_indices = adj_indices
        net._skill_indptr = skill_indptr
        net._skill_ids = skill_ids
        net._skill_vocab = tuple(skill_vocab)
        if len(adj_indices) % 2:
            raise ValueError("symmetric adjacency must have an even entry count")
        net._n_edges = len(adj_indices) // 2
        return net

    @property
    def is_compact(self) -> bool:
        """True when CSR arrays (not Python sets) are the source of truth."""
        return self._adj is None

    def compact(self) -> "CollaborationNetwork":
        """Convert to compact mode in place (no version bump — the content
        is identical) and return self.  No-op when already compact."""
        if self.is_compact:
            return self
        n = self.n_people
        vocab = self.skill_vocabulary()
        vocab_index = self.skill_vocabulary_index()
        adj_counts = np.fromiter(
            (len(a) for a in self._adj), dtype=np.int64, count=n
        )
        adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(adj_counts, out=adj_indptr[1:])
        adj_indices = np.empty(int(adj_indptr[-1]), dtype=np.int32)
        for u, nbrs in enumerate(self._adj):
            adj_indices[adj_indptr[u] : adj_indptr[u + 1]] = sorted(nbrs)
        skill_counts = np.fromiter(
            (len(s) for s in self._skills), dtype=np.int64, count=n
        )
        skill_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(skill_counts, out=skill_indptr[1:])
        skill_ids = np.empty(int(skill_indptr[-1]), dtype=np.int32)
        for p, skills in enumerate(self._skills):
            # vocab is sorted, so sorted names <=> sorted ids
            skill_ids[skill_indptr[p] : skill_indptr[p + 1]] = sorted(
                vocab_index[s] for s in skills
            )
        self._adj_indptr = adj_indptr
        self._adj_indices = adj_indices
        self._skill_indptr = skill_indptr
        self._skill_ids = skill_ids
        self._skill_vocab = vocab
        self._skills = None
        self._adj = None
        return self

    def _thaw(self) -> None:
        """Materialize per-person sets from the CSR arrays (compact →
        set mode) so a mutation can proceed.  Content-identical, so the
        version is NOT bumped; derived caches stay valid until the
        mutation itself calls :meth:`_touch`."""
        if not self.is_compact:
            return
        vocab = self._skill_vocab
        skill_indptr, skill_ids = self._skill_indptr, self._skill_ids
        adj_indptr, adj_indices = self._adj_indptr, self._adj_indices
        self._skills = [
            {vocab[i] for i in skill_ids[skill_indptr[p] : skill_indptr[p + 1]].tolist()}
            for p in range(self.n_people)
        ]
        self._adj = [
            set(adj_indices[adj_indptr[p] : adj_indptr[p + 1]].tolist())
            for p in range(self.n_people)
        ]
        self._adj_indptr = None
        self._adj_indices = None
        self._skill_indptr = None
        self._skill_ids = None
        self._skill_vocab = None

    def add_person(self, name: str, skills: Iterable[str] = ()) -> int:
        """Add an individual and return their integer id."""
        self._thaw()
        pid = len(self._names)
        self._names.append(name)
        self._skills.append(set(skills))
        self._adj.append(set())
        self._touch()
        self._name_index = None
        return pid

    def add_edge(self, u: int, v: int) -> bool:
        """Add an undirected collaboration edge; returns False if it existed."""
        self._check_pair(u, v)
        self._thaw()
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._n_edges += 1
        self._touch()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove an undirected edge; returns False if it was absent."""
        self._check_pair(u, v)
        self._thaw()
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._n_edges -= 1
        self._touch()
        return True

    def add_skill(self, person: int, skill: str) -> bool:
        """Attach ``skill`` to ``person``; returns False if already present."""
        self._check_person(person)
        self._thaw()
        if skill in self._skills[person]:
            return False
        self._skills[person].add(skill)
        self._touch()
        return True

    def remove_skill(self, person: int, skill: str) -> bool:
        """Detach ``skill`` from ``person``; returns False if absent."""
        self._check_person(person)
        self._thaw()
        if skill not in self._skills[person]:
            return False
        self._skills[person].discard(skill)
        self._touch()
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
        return self._n_edges

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
        self._check_person(person)
        if self.is_compact:
            s, e = self._skill_indptr[person], self._skill_indptr[person + 1]
            vocab = self._skill_vocab
            return frozenset(vocab[i] for i in self._skill_ids[s:e].tolist())
        return frozenset(self._skills[person])

    def has_skill(self, person: int, skill: str) -> bool:
        self._check_person(person)
        if self.is_compact:
            sid = self._vocab_lookup().get(skill)
            if sid is None:
                return False
            s, e = self._skill_indptr[person], self._skill_indptr[person + 1]
            row = self._skill_ids[s:e]
            j = np.searchsorted(row, sid)
            return bool(j < len(row) and row[j] == sid)
        return skill in self._skills[person]

    def neighbors(self, person: int) -> FrozenSet[int]:
        """Direct collaborators of ``person``."""
        self._check_person(person)
        if self.is_compact:
            s, e = self._adj_indptr[person], self._adj_indptr[person + 1]
            return frozenset(self._adj_indices[s:e].tolist())
        return frozenset(self._adj[person])

    def degree(self, person: int) -> int:
        self._check_person(person)
        if self.is_compact:
            return int(self._adj_indptr[person + 1] - self._adj_indptr[person])
        return len(self._adj[person])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        if self.is_compact:
            s, e = self._adj_indptr[u], self._adj_indptr[u + 1]
            row = self._adj_indices[s:e]
            j = np.searchsorted(row, v)
            return bool(j < len(row) and row[j] == v)
        return v in self._adj[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as (u, v) with u < v."""
        if self.is_compact:
            indptr, indices = self._adj_indptr, self._adj_indices
            for u in range(self.n_people):
                for v in indices[indptr[u] : indptr[u + 1]].tolist():
                    if u < v:
                        yield (u, v)
            return
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def skill_universe(self) -> FrozenSet[str]:
        """The universe of skills S actually attached to some node."""
        cached = self._cache_get("skill_universe")
        if cached is not None:
            return cached  # type: ignore[return-value]
        if self.is_compact:
            vocab = self._skill_vocab
            universe = frozenset(vocab[i] for i in np.unique(self._skill_ids).tolist())
        else:
            universe = frozenset(s for skills in self._skills for s in skills)
        self._cache_put("skill_universe", universe)
        return universe

    def total_skill_assignments(self) -> int:
        """Sum of |S_i| over all individuals (size of the skill relation)."""
        if self.is_compact:
            return len(self._skill_ids)
        return sum(len(s) for s in self._skills)

    def people_with_skill(self, skill: str) -> FrozenSet[int]:
        """All individuals holding ``skill``."""
        if self.is_compact:
            sid = self._vocab_lookup().get(skill)
            if sid is None:
                return frozenset()
            uniq, indptr, people = self._skill_csc_compact()
            j = np.searchsorted(uniq, sid)
            if j >= len(uniq) or uniq[j] != sid:
                return frozenset()
            return frozenset(people[indptr[j] : indptr[j + 1]].tolist())
        index = self._cache_get("skill_index")
        if index is None:
            built: Dict[str, Set[int]] = {}
            for pid, skills in enumerate(self._skills):
                for s in skills:
                    built.setdefault(s, set()).add(pid)
            index = {s: frozenset(ids) for s, ids in built.items()}
            self._cache_put("skill_index", index)
        return index.get(skill, frozenset())  # type: ignore[union-attr]

    def match_counts(self, query: Iterable[str]) -> np.ndarray:
        """Per-person count of query terms held, as float64.

        The O(nnz) building block behind restart vectors and lexical match
        bonuses: one incidence-column slice per term instead of a Python
        scan over holder sets.  Counts are exact small integers, so the
        result is bit-identical to the per-person loop it replaces.
        """
        out = np.zeros(self.n_people)
        for term in query:
            out[self._skill_holders(term)] += 1.0
        return out

    def term_incidence(self, terms: Sequence[str]) -> np.ndarray:
        """``(n_people, len(terms))`` bool: does person ``p`` hold
        ``terms[j]``?  Built from the same cached incidence columns as
        :meth:`match_counts` — the greedy team former's per-formation
        cover table."""
        out = np.zeros((self.n_people, len(terms)), dtype=bool)
        for j, term in enumerate(terms):
            out[self._skill_holders(term), j] = True
        return out

    def _skill_holders(self, skill: str) -> np.ndarray:
        """The ids of everyone holding ``skill``: one column of the
        version-cached skill incidence (compact or set mode), empty when
        nobody holds it."""
        if self.is_compact:
            sid = self._vocab_lookup().get(skill)
            if sid is None:
                return _NO_PEOPLE
            uniq, indptr, people = self._skill_csc_compact()
            j = np.searchsorted(uniq, sid)
            if j < len(uniq) and uniq[j] == sid:
                return people[indptr[j] : indptr[j + 1]]
            return _NO_PEOPLE
        csc = self._cache_get("skill_csc")
        if csc is None:
            csc = self.skill_matrix().tocsc()
            self._cache_put("skill_csc", csc)
        col = self.skill_vocabulary_index().get(skill)
        if col is None:
            return _NO_PEOPLE
        return csc.indices[csc.indptr[col] : csc.indptr[col + 1]]

    def _vocab_lookup(self) -> Dict[str, int]:
        """Compact mode: skill name -> id into ``_skill_vocab``."""
        cached = self._cache_get("compact_vocab_lookup")
        if cached is None:
            cached = {s: i for i, s in enumerate(self._skill_vocab)}
            self._cache_put("compact_vocab_lookup", cached)
        return cached  # type: ignore[return-value]

    def _skill_csc_compact(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compact mode: the skill relation grouped by skill id —
        ``(unique_ids, group_indptr, people)`` so the holders of skill
        ``unique_ids[j]`` are ``people[group_indptr[j]:group_indptr[j+1]]``."""
        cached = self._cache_get("skill_csc_compact")
        if cached is None:
            counts = np.diff(self._skill_indptr)
            rows = np.repeat(np.arange(self.n_people, dtype=np.int64), counts)
            order = np.argsort(self._skill_ids, kind="stable")
            sids = self._skill_ids[order]
            people = rows[order]
            uniq, starts = np.unique(sids, return_index=True)
            indptr = np.append(starts, len(sids)).astype(np.int64)
            cached = (uniq, indptr, people)
            self._cache_put("skill_csc_compact", cached)
        return cached  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # neighborhoods (Pruning Strategy 1: network locality)
    # ------------------------------------------------------------------
    def _adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the symmetric adjacency, rows sorted —
        the compact arrays themselves, or a version-cached build from the
        set representation."""
        if self.is_compact:
            return self._adj_indptr, self._adj_indices
        cached = self._cache_get("adj_arrays")
        if cached is None:
            n = self.n_people
            counts = np.fromiter((len(a) for a in self._adj), dtype=np.int64, count=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int32)
            for u, nbrs in enumerate(self._adj):
                indices[indptr[u] : indptr[u + 1]] = sorted(nbrs)
            cached = (indptr, indices)
            self._cache_put("adj_arrays", cached)
        return cached  # type: ignore[return-value]

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
        indptr, indices = self._adjacency_arrays()
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
        if self.is_compact:
            indptr, ids, vocab = self._skill_indptr, self._skill_ids, self._skill_vocab
            chunks = [ids[indptr[p] : indptr[p + 1]] for p in nodes.tolist()]
            if not chunks:
                return frozenset()
            used = np.unique(np.concatenate(chunks)) if chunks else np.empty(0)
            return frozenset(vocab[i] for i in used.tolist())
        out: Set[str] = set()
        for p in nodes.tolist():
            out.update(self._skills[p])
        return frozenset(out)

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
        if self.is_compact:
            s, e = self._adj_indptr[person], self._adj_indptr[person + 1]
            return self._adj_indices[s:e].tolist()
        return sorted(self._adj[person])

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
        if self.is_compact:
            data = np.ones(len(self._adj_indices), dtype=np.float64)
            mat = sp.csr_matrix(
                (data, self._adj_indices, self._adj_indptr), shape=(n, n)
            )
        else:
            indptr, indices = self._adjacency_arrays()
            data = np.ones(len(indices), dtype=np.float64)
            mat = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
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
        if self.is_compact:
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
        rows_l: List[int] = []
        cols_l: List[int] = []
        for pid, skills in enumerate(self._skills):
            for s in skills:
                col = vocab_index.get(s)
                if col is not None:
                    rows_l.append(pid)
                    cols_l.append(col)
        data = np.ones(len(rows_l), dtype=np.float64)
        return sp.csr_matrix(
            (data, (rows_l, cols_l)), shape=(self.n_people, len(vocab_index))
        )

    # ------------------------------------------------------------------
    # base-delta commits (dynamic networks)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        skill_flips: Iterable[Tuple[int, str, bool]],
        edge_flips: Iterable[Tuple[int, int, bool]],
    ) -> "BaseDelta":
        """Apply a batch of canonical flips in place as ONE version bump.

        This is the commit primitive behind
        :meth:`~repro.graph.overlay.NetworkOverlay.commit`: each flip must
        be applicable against the current state (add only what is absent,
        remove only what is present — an overlay's recorded flips satisfy
        this by construction), all flips land atomically, and ``_version``
        advances exactly once so consumers see a single old→new delta
        rather than one bump per flip.  An empty batch is a no-op that
        does not bump the version.  Returns the :class:`BaseDelta`.
        """
        skill_flips = tuple(sorted(skill_flips))
        edge_flips = tuple(sorted(edge_flips))
        old_version = self._version
        if not skill_flips and not edge_flips:
            return BaseDelta(old_version, old_version, (), ())
        self._thaw()
        for person, skill, added in skill_flips:
            self._check_person(person)
            if (skill in self._skills[person]) == added:
                verb = "add" if added else "remove"
                raise ValueError(
                    f"inapplicable skill flip: cannot {verb} {skill!r} "
                    f"{'to' if added else 'from'} person {person}"
                )
        for u, v, added in edge_flips:
            self._check_pair(u, v)
            if (v in self._adj[u]) == added:
                verb = "add" if added else "remove"
                raise ValueError(
                    f"inapplicable edge flip: cannot {verb} edge ({u}, {v})"
                )
        for person, skill, added in skill_flips:
            if added:
                self._skills[person].add(skill)
            else:
                self._skills[person].discard(skill)
        for u, v, added in edge_flips:
            if added:
                self._adj[u].add(v)
                self._adj[v].add(u)
                self._n_edges += 1
            else:
                self._adj[u].discard(v)
                self._adj[v].discard(u)
                self._n_edges -= 1
        self._touch()
        return BaseDelta(old_version, self._version, skill_flips, edge_flips)

    def state_digest(self) -> str:
        """Content hash of names, skills, and edges (version-independent).

        Two networks with identical structure digest identically even if
        their mutation histories (and so ``version`` counters) differ —
        the binding key the registry spill/restore path uses to decide a
        serialized warm state still matches the live network.  Compact and
        set representations of the same content digest identically.
        """
        h = hashlib.blake2b(digest_size=16)
        for pid, name in enumerate(self._names):
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            for s in self._sorted_skills(pid):
                h.update(s.encode("utf-8"))
                h.update(b"\x01")
            h.update(b"\x02")
        for u in range(self.n_people):
            for v in self._sorted_neighbors(u):
                if u < v:
                    h.update(f"{u},{v};".encode("ascii"))
        return h.hexdigest()

    def _sorted_skills(self, person: int) -> List[str]:
        if self.is_compact:
            s, e = self._skill_indptr[person], self._skill_indptr[person + 1]
            vocab = self._skill_vocab
            return sorted(vocab[i] for i in self._skill_ids[s:e].tolist())
        return sorted(self._skills[person])

    # ------------------------------------------------------------------
    # copies & export
    # ------------------------------------------------------------------
    def copy(self) -> "CollaborationNetwork":
        """Deep copy of names, skills and adjacency (caches are not copied).

        A compact network copies compact — the arrays are duplicated but no
        Python sets are materialized."""
        out = CollaborationNetwork()
        out._names = list(self._names)
        if self.is_compact:
            out._skills = None
            out._adj = None
            out._adj_indptr = self._adj_indptr.copy()
            out._adj_indices = self._adj_indices.copy()
            out._skill_indptr = self._skill_indptr.copy()
            out._skill_ids = self._skill_ids.copy()
            out._skill_vocab = self._skill_vocab
        else:
            out._skills = [set(s) for s in self._skills]
            out._adj = [set(a) for a in self._adj]
        out._n_edges = self._n_edges
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
        if self.is_compact:
            self._validate_compact()
            return
        if not (len(self._skills) == len(self._adj) == n):
            raise ValueError("parallel arrays out of sync")
        count = 0
        for u, nbrs in enumerate(self._adj):
            if u in nbrs:
                raise ValueError(f"self loop at node {u}")
            for v in nbrs:
                if not (0 <= v < n):
                    raise ValueError(f"edge endpoint {v} out of range")
                if u not in self._adj[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")
                count += 1
        if count != 2 * self._n_edges:
            raise ValueError(
                f"edge count mismatch: counted {count // 2}, recorded {self._n_edges}"
            )

    def _validate_compact(self) -> None:
        n = self.n_people
        indptr, indices = self._adj_indptr, self._adj_indices
        if indptr.shape != (n + 1,) or self._skill_indptr.shape != (n + 1,):
            raise ValueError("parallel arrays out of sync")
        if len(indices):
            if indices.min() < 0 or indices.max() >= n:
                raise ValueError("edge endpoint out of range")
        counts = np.diff(indptr)
        if counts.min(initial=0) < 0:
            raise ValueError("adjacency indptr not monotone")
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        if np.any(src == indices):
            bad = int(src[src == indices][0])
            raise ValueError(f"self loop at node {bad}")
        # Symmetry: the multiset of directed edges equals its reverse.
        fwd = np.sort(src * n + indices)
        rev = np.sort(indices.astype(np.int64) * n + src)
        if not np.array_equal(fwd, rev):
            raise ValueError("asymmetric edge in compact adjacency")
        if len(indices) != 2 * self._n_edges:
            raise ValueError(
                f"edge count mismatch: counted {len(indices) // 2}, "
                f"recorded {self._n_edges}"
            )
        if len(self._skill_ids):
            if self._skill_ids.min() < 0 or self._skill_ids.max() >= len(
                self._skill_vocab
            ):
                raise ValueError("skill id out of vocabulary range")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._version += 1
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
