"""Synthetic collaboration-network generation.

The paper evaluates ExES on two real collaboration networks (DBLP and
GitHub, Table 6).  Those datasets are not redistributable here, so we
synthesize networks with the same shape (see DESIGN.md "Substitutions"):

* **community structure** — individuals belong to a handful of topical
  communities (research areas / software ecosystems) and collaborate mostly
  inside them;
* **heavy-tailed degrees** — a small number of prolific collaborators, many
  peripheral ones (degree-corrected preferential attachment inside each
  community);
* **topic-correlated skills** — when skills are attached directly (without
  the corpus pipeline in :mod:`repro.text`), each person samples skills from
  their communities' Zipf-weighted skill pools, giving the locality that
  Pruning Strategy 1 exploits.

The generator is fully deterministic given the recipe's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.network import CollaborationNetwork

_FIRST_NAMES = (
    "Ada", "Alan", "Barbara", "Claude", "Donald", "Edgar", "Frances", "Grace",
    "Hedy", "Ivan", "John", "Katherine", "Leslie", "Margaret", "Niklaus",
    "Olga", "Peter", "Radia", "Shafi", "Tim", "Ursula", "Vint", "Whitfield",
    "Xiaoyun", "Yann", "Zohar", "Andrew", "Bjarne", "Cynthia", "David",
    "Elena", "Fei", "Geoffrey", "Hanna", "Ilya", "Judea", "Kunle", "Lise",
    "Manuel", "Noga", "Oded", "Prabhakar", "Quoc", "Rediet", "Silvio",
    "Tal", "Umesh", "Vered", "Wei", "Yoshua",
)

_LAST_NAMES = (
    "Lovelace", "Turing", "Liskov", "Shannon", "Knuth", "Codd", "Allen",
    "Hopper", "Lamarr", "Sutherland", "Backus", "Johnson", "Lamport",
    "Hamilton", "Wirth", "Tausova", "Naur", "Perlman", "Goldwasser",
    "Berners-Lee", "Franklin", "Cerf", "Diffie", "Wang", "LeCun", "Manna",
    "Yao", "Stroustrup", "Dwork", "Patterson", "Pasqua", "Li", "Hinton",
    "Neumann", "Sutskever", "Pearl", "Olukotun", "Getoor", "Blum", "Alon",
    "Goldreich", "Raghavan", "Le", "Abebe", "Micali", "Rabin", "Vazirani",
    "Shaked", "Zhang", "Bengio",
)


@dataclass(frozen=True)
class NetworkRecipe:
    """Parameters controlling synthetic network generation.

    ``n_people``/``n_edges``/``n_skills`` set the Table 6 shape;
    ``n_communities`` controls modularity; ``intra_community_fraction`` is
    the share of edges placed inside a community; ``degree_exponent`` sets
    the heavy tail of the collaborator-activity distribution;
    ``skills_per_person`` is the mean size of S_i when skills are attached
    directly (the corpus pipeline overrides it).
    """

    n_people: int
    n_edges: int
    n_skills: int
    n_communities: int = 12
    communities_per_person: int = 2
    intra_community_fraction: float = 0.85
    degree_exponent: float = 0.9
    skills_per_person: int = 15
    skills_per_community: int = 60
    skill_zipf_exponent: float = 1.1
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.n_people < 2:
            raise ValueError(f"need at least 2 people, got {self.n_people}")
        max_edges = self.n_people * (self.n_people - 1) // 2
        if not (0 <= self.n_edges <= max_edges):
            raise ValueError(f"n_edges={self.n_edges} outside [0, {max_edges}]")
        if self.n_skills < 1:
            raise ValueError("need at least one skill")
        if not (0.0 <= self.intra_community_fraction <= 1.0):
            raise ValueError("intra_community_fraction must be in [0, 1]")
        if self.n_communities < 1:
            raise ValueError("need at least one community")


@dataclass
class SynthesisResult:
    """A generated network plus the latent structure that produced it.

    The latent community memberships are reused by :mod:`repro.text` to
    generate a publication corpus consistent with the graph, mirroring how
    DBLP skills come from each author's own papers.
    """

    network: CollaborationNetwork
    person_communities: List[Tuple[int, ...]]
    community_skill_pools: List[Tuple[str, ...]]
    skill_vocabulary: Tuple[str, ...]
    recipe: NetworkRecipe = field(repr=False)


def make_person_names(n: int, rng: np.random.Generator) -> List[str]:
    """Deterministic, mostly-unique human-readable names."""
    names: List[str] = []
    seen: Dict[str, int] = {}
    firsts = rng.integers(0, len(_FIRST_NAMES), size=n)
    lasts = rng.integers(0, len(_LAST_NAMES), size=n)
    for i in range(n):
        base = f"{_FIRST_NAMES[firsts[i]]} {_LAST_NAMES[lasts[i]]}"
        count = seen.get(base, 0)
        seen[base] = count + 1
        names.append(base if count == 0 else f"{base} {count + 1}")
    return names


def make_skill_vocabulary(n_skills: int, rng: np.random.Generator) -> Tuple[str, ...]:
    """Generate a CS-flavoured skill vocabulary of exactly ``n_skills`` terms.

    Single-token terms (matching how the paper's TF-IDF extraction yields
    unigram keywords such as "social", "graph", "embedding").
    """
    roots = (
        "graph", "social", "network", "query", "index", "stream", "database",
        "neural", "deep", "learning", "mining", "pattern", "cluster",
        "classification", "embedding", "ranking", "retrieval", "search",
        "vision", "language", "speech", "privacy", "security", "crypto",
        "distributed", "parallel", "cache", "storage", "transaction",
        "consensus", "scheduling", "compiler", "verification", "testing",
        "optimization", "inference", "training", "supervised", "recurrent",
        "convolution", "attention", "transformer", "kernel", "bayesian",
        "sampling", "estimation", "regression", "recommendation", "community",
        "discovery", "knowledge", "ontology", "semantic", "entity", "relation",
        "extraction", "summarization", "translation", "quality", "cleaning",
        "integration", "provenance", "visualization", "analytics", "benchmark",
        "simulation", "hardware", "compression", "encoding", "decoding",
        "routing", "protocol", "wireless", "sensor", "mobile", "cloud",
        "container", "microservice", "api", "frontend", "backend", "web",
        "crawler", "spark", "hadoop", "sql", "nosql", "keyvalue", "document",
        "columnar", "timeseries", "spatial", "temporal", "probabilistic",
        "logic", "automata", "complexity", "approximation", "heuristic",
        "genetic", "reinforcement", "multiagent", "game", "auction", "market",
        "fairness", "ethics", "interpretability", "xai", "counterfactual",
        "causal", "robustness", "adversarial", "federated", "transfer",
        "meta", "fewshot", "zeroshot", "pretraining", "finetuning", "prompt",
        "generation", "diffusion", "gan", "autoencoder", "variational",
        "contrastive", "selfsupervised", "multimodal", "image", "video",
        "audio", "text", "code", "program", "synthesis", "repair", "debugging",
        "profiling", "tracing", "monitoring", "observability", "reliability",
        "availability", "consistency", "replication", "partitioning",
        "sharding", "locking", "concurrency", "versioning", "migration",
        "workflow", "pipeline", "orchestration", "deployment", "statistics",
        "algebra", "geometry", "topology", "spectral", "matrix", "tensor",
        "sparse", "dense", "random", "walk", "motif", "subgraph", "isomorphism",
        "centrality", "influence", "diffusionmodel", "epidemic", "citation",
        "bibliometric", "crowdsourcing", "annotation", "labeling", "evaluation",
        "metric", "precision", "recall", "calibration", "uncertainty",
        "anomaly", "outlier", "fraud", "intrusion", "malware", "forensics",
    )
    suffixes = (
        "", "systems", "models", "theory", "methods", "analysis", "design",
        "engines", "algorithms", "architecture", "frameworks", "processing",
        "management", "applications", "platforms", "services", "structures",
        "languages", "tools", "protocols",
    )
    vocab: List[str] = []
    seen: Set[str] = set()
    for root in roots:
        if len(vocab) >= n_skills:
            break
        if root not in seen:
            seen.add(root)
            vocab.append(root)
    # Compound terms fill out large vocabularies deterministically.
    order = rng.permutation(len(roots) * (len(suffixes) - 1))
    for idx in order:
        if len(vocab) >= n_skills:
            break
        root = roots[idx % len(roots)]
        suffix = suffixes[1 + idx // len(roots)]
        term = f"{root}-{suffix}"
        if term not in seen:
            seen.add(term)
            vocab.append(term)
    counter = 0
    while len(vocab) < n_skills:  # pathological sizes: numbered filler
        term = f"skill{counter:04d}"
        if term not in seen:
            seen.add(term)
            vocab.append(term)
        counter += 1
    return tuple(vocab[:n_skills])


def _assign_communities(
    recipe: NetworkRecipe, rng: np.random.Generator
) -> List[Tuple[int, ...]]:
    """Give each person 1..communities_per_person community memberships."""
    memberships: List[Tuple[int, ...]] = []
    # Community popularity is itself skewed: some areas are much larger.
    popularity = rng.dirichlet(np.full(recipe.n_communities, 0.8))
    for _ in range(recipe.n_people):
        k = int(rng.integers(1, recipe.communities_per_person + 1))
        k = min(k, recipe.n_communities)
        chosen = rng.choice(recipe.n_communities, size=k, replace=False, p=popularity)
        memberships.append(tuple(int(c) for c in sorted(chosen)))
    return memberships


def _build_skill_pools(
    recipe: NetworkRecipe,
    vocabulary: Sequence[str],
    rng: np.random.Generator,
) -> List[Tuple[str, ...]]:
    """Each community draws a Zipf-weighted pool of skills (with overlap)."""
    pools: List[Tuple[str, ...]] = []
    n_vocab = len(vocabulary)
    pool_size = min(recipe.skills_per_community, n_vocab)
    for _ in range(recipe.n_communities):
        idx = rng.choice(n_vocab, size=pool_size, replace=False)
        pools.append(tuple(vocabulary[i] for i in idx))
    return pools


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


#: Accepted-edge chunk size; RNG-neutral (the sampler's draw sequence
#: never depends on it).
_EDGE_CHUNK = 65536


def _edge_key_chunks(
    recipe: NetworkRecipe,
    memberships: Sequence[Tuple[int, ...]],
    rng: np.random.Generator,
) -> "Iterator[np.ndarray]":
    """Degree-corrected community edges + a random inter-community remainder,
    yielded as chunks of packed ``u * n + v`` int64 keys (u < v).

    It draws from ``rng`` in exactly one order and dedupes through an
    integer-key set.  No per-node Python structure is ever materialized
    here — a chunk is a plain int64 array.
    """
    n = recipe.n_people
    activity = rng.permutation(_zipf_weights(n, recipe.degree_exponent))

    community_members: List[List[int]] = [[] for _ in range(recipe.n_communities)]
    for person, comms in enumerate(memberships):
        for c in comms:
            community_members[c].append(person)

    seen: Set[int] = set()
    buffer: List[int] = []
    target_intra = int(round(recipe.n_edges * recipe.intra_community_fraction))

    # Community weight = total member activity; bigger/busier communities
    # host more collaborations.
    comm_weight = np.array(
        [max(activity[m].sum(), 1e-12) if (m := np.array(mem, dtype=int)).size else 0.0
         for mem in community_members]
    )
    eligible = [i for i, mem in enumerate(community_members) if len(mem) >= 2]
    if eligible and target_intra > 0:
        w = comm_weight[eligible]
        w = w / w.sum()
        quotas = rng.multinomial(target_intra, w)
        for comm, quota in zip(eligible, quotas):
            members = np.array(community_members[comm], dtype=int)
            probs = activity[members]
            probs = probs / probs.sum()
            attempts = 0
            placed = 0
            max_pairs = len(members) * (len(members) - 1) // 2
            quota = min(int(quota), max_pairs)
            while placed < quota and attempts < 20 * quota + 50:
                batch = max(quota - placed, 16)
                us = rng.choice(members, size=batch, p=probs)
                vs = rng.choice(members, size=batch, p=probs)
                for u, v in zip(us, vs):
                    if placed >= quota:
                        break
                    if u == v:
                        continue
                    key = int(min(u, v)) * n + int(max(u, v))
                    if key not in seen:
                        seen.add(key)
                        buffer.append(key)
                        placed += 1
                attempts += batch
                if len(buffer) >= _EDGE_CHUNK:
                    yield np.array(buffer, dtype=np.int64)
                    buffer.clear()

    # Random inter-community (or overflow) edges up to the global target.
    global_probs = activity / activity.sum()
    attempts = 0
    max_attempts = 40 * recipe.n_edges + 1000
    while len(seen) < recipe.n_edges and attempts < max_attempts:
        batch = max(recipe.n_edges - len(seen), 64)
        us = rng.choice(n, size=batch, p=global_probs)
        vs = rng.integers(0, n, size=batch)
        for u, v in zip(us, vs):
            if len(seen) >= recipe.n_edges:
                break
            if u == v:
                continue
            key = int(min(u, v)) * n + int(max(u, v))
            if key not in seen:
                seen.add(key)
                buffer.append(key)
        attempts += batch
        if len(buffer) >= _EDGE_CHUNK:
            yield np.array(buffer, dtype=np.int64)
            buffer.clear()
    if buffer:
        yield np.array(buffer, dtype=np.int64)


def _chosen_skills(
    recipe: NetworkRecipe,
    comms: Tuple[int, ...],
    pools: Sequence[Tuple[str, ...]],
    rng: np.random.Generator,
) -> List[str]:
    """One person's S_i draw from their communities' pools."""
    merged: List[str] = []
    for c in comms:
        merged.extend(pools[c])
    merged = sorted(set(merged))
    if not merged:
        return []
    weights = _zipf_weights(len(merged), recipe.skill_zipf_exponent)
    # Skill-count varies around the configured mean.
    lo = max(1, recipe.skills_per_person - 5)
    hi = recipe.skills_per_person + 6
    count = int(rng.integers(lo, hi))
    count = min(count, len(merged))
    chosen = rng.choice(len(merged), size=count, replace=False, p=weights)
    return [merged[idx] for idx in chosen]


def _skill_id_arrays(
    recipe: NetworkRecipe,
    memberships: Sequence[Tuple[int, ...]],
    pools: Sequence[Tuple[str, ...]],
    vocabulary: Tuple[str, ...],
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every person's :func:`_chosen_skills` draw, in id order, collected
    straight into (indptr, ids) CSR arrays over ``vocabulary``."""
    vid = {s: i for i, s in enumerate(vocabulary)}
    indptr = np.zeros(recipe.n_people + 1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    total = 0
    for person in range(recipe.n_people):
        skills = _chosen_skills(recipe, memberships[person], pools, rng)
        if skills:
            chunks.append(np.array([vid[s] for s in skills], dtype=np.int32))
            total += len(skills)
        indptr[person + 1] = total
    ids = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int32)
    )
    return indptr, ids


def synthesize_network(
    recipe: NetworkRecipe,
    attach_skills: bool = True,
) -> SynthesisResult:
    """Generate a collaboration network from ``recipe``.

    With ``attach_skills=False`` the nodes carry no skills; the caller is
    expected to run the corpus + TF-IDF pipeline (:mod:`repro.text`) to
    attach them, which is what the dataset presets in :mod:`repro.datasets`
    do to mirror the paper's extraction methodology.

    Edges stream out of the sampler as packed-key chunks and land in flat
    arrays; skills land as (indptr, ids) arrays; no per-person Python
    container is ever materialized, so peak memory is O(edges + skill
    assignments) machine words — the same build serves the dataset
    presets and the 1e5/1e6-node bench tiers.
    """
    rng = np.random.default_rng(recipe.seed)
    names = make_person_names(recipe.n_people, rng)
    vocabulary = make_skill_vocabulary(recipe.n_skills, rng)
    memberships = _assign_communities(recipe, rng)
    pools = _build_skill_pools(recipe, vocabulary, rng)

    n = recipe.n_people
    # Consume the edge stream fully before skill draws: the draw order
    # (edges first, then skills) fixes every seed's network.
    key_chunks = list(_edge_key_chunks(recipe, memberships, rng))
    keys = (
        np.concatenate(key_chunks) if key_chunks else np.empty(0, dtype=np.int64)
    )
    us = (keys // n).astype(np.int32)
    vs = (keys % n).astype(np.int32)
    src = np.concatenate([us, vs])
    dst = np.concatenate([vs, us])
    adj_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=adj_indptr[1:])
    order = np.lexsort((dst, src))
    adj_indices = dst[order]

    if attach_skills:
        skill_indptr, skill_ids = _skill_id_arrays(
            recipe, memberships, pools, vocabulary, rng
        )
    else:
        skill_indptr = np.zeros(n + 1, dtype=np.int64)
        skill_ids = np.empty(0, dtype=np.int32)

    network = CollaborationNetwork.from_csr(
        names, adj_indptr, adj_indices, skill_indptr, skill_ids, vocabulary
    )
    return SynthesisResult(
        network=network,
        person_communities=memberships,
        community_skill_pools=pools,
        skill_vocabulary=vocabulary,
        recipe=recipe,
    )


#: The historical name of :func:`synthesize_network`, kept for the bench
#: tiers and scripts that build (and trace) it under this name.
synthesize_network_streaming = synthesize_network
