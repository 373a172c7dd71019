"""Dataset presets reproducing the paper's Table 6 shapes.

The paper evaluates on DBLP (17 630 nodes / 128 809 edges / 1 829 skills,
skills = top TF-IDF keywords of each author's papers, ~15 per expert) and
GitHub (3 278 / 15 502 / 863).  Neither dataset is redistributable in this
offline environment, so :func:`dblp_like` and :func:`github_like` generate
synthetic networks with the same statistics through the full pipeline the
paper describes: latent research communities → collaboration graph →
publication corpus → TF-IDF skill extraction (see DESIGN.md,
"Substitutions").

``scale`` shrinks every count proportionally: the benchmarks and tests run
at scale ≈ 0.02–0.05 so the whole suite finishes in minutes, while
``scale=1.0`` reproduces the full Table 6 rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.generators import NetworkRecipe, SynthesisResult, synthesize_network
from repro.graph.network import CollaborationNetwork
from repro.graph.stats import NetworkStats, compute_stats
from repro.text.corpus import CorpusRecipe, ExpertiseCorpus, generate_corpus
from repro.text.tfidf import extract_skills


@dataclass
class DatasetBundle:
    """A generated dataset: the network, its corpus, and provenance."""

    name: str
    network: CollaborationNetwork
    corpus: ExpertiseCorpus
    synthesis: SynthesisResult = field(repr=False)

    def stats(self) -> NetworkStats:
        """Summary statistics of the generated network."""
        return compute_stats(self.network)

    def table6_row(self) -> str:
        """This dataset's row in the style of the paper's Table 6."""
        s = self.stats()
        return f"{self.name:<10} {s.n_nodes:>8} {s.n_edges:>9} {s.n_skills:>8}"


def _build(
    name: str,
    recipe: NetworkRecipe,
    corpus_recipe: CorpusRecipe,
    skills_per_person: int,
) -> DatasetBundle:
    """Run the full §4.1 pipeline: graph → corpus → TF-IDF skills."""
    synthesis = synthesize_network(recipe, attach_skills=False)
    corpus = generate_corpus(synthesis, corpus_recipe)
    network = synthesis.network
    extracted = extract_skills(corpus, network.people(), max_skills=skills_per_person)
    network.apply_delta(
        [(person, skill, True) for person, skills in extracted.items() for skill in skills],
        (),
    )
    return DatasetBundle(
        name=name, network=network, corpus=corpus, synthesis=synthesis
    )


def dblp_like(scale: float = 1.0, seed: int = 13) -> DatasetBundle:
    """DBLP-shaped dataset: Table 6 row 1 at ``scale=1.0``.

    Academic collaboration: dense communities (research areas), ~15 skills
    per author extracted from paper titles/abstracts.
    """
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n_people = max(30, int(round(17630 * scale)))
    n_edges = max(60, int(round(128809 * scale)))
    n_skills = max(60, int(round(1829 * scale ** 0.5)))  # vocab shrinks slower
    recipe = NetworkRecipe(
        n_people=n_people,
        n_edges=n_edges,
        n_skills=n_skills,
        n_communities=max(4, int(round(24 * scale ** 0.5))),
        communities_per_person=2,
        intra_community_fraction=0.85,
        degree_exponent=0.9,
        skills_per_community=min(70, max(25, n_skills // 6)),
        seed=seed,
        name="DBLP",
    )
    corpus_recipe = CorpusRecipe(
        docs_per_person=4.0, tokens_per_doc=40, coauthor_fraction=0.35, seed=seed
    )
    return _build("DBLP", recipe, corpus_recipe, skills_per_person=15)


def github_like(scale: float = 1.0, seed: int = 17) -> DatasetBundle:
    """GitHub-shaped dataset: Table 6 row 2 at ``scale=1.0``.

    Sparser project-collaboration graph, fewer skills per user (repository
    descriptions are shorter than paper abstracts).
    """
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n_people = max(25, int(round(3278 * scale)))
    n_edges = max(45, int(round(15502 * scale)))
    n_skills = max(50, int(round(863 * scale ** 0.5)))
    recipe = NetworkRecipe(
        n_people=n_people,
        n_edges=n_edges,
        n_skills=n_skills,
        n_communities=max(4, int(round(14 * scale ** 0.5))),
        communities_per_person=2,
        intra_community_fraction=0.8,
        degree_exponent=1.0,
        skills_per_community=min(55, max(20, n_skills // 5)),
        seed=seed,
        name="GitHub",
    )
    corpus_recipe = CorpusRecipe(
        docs_per_person=3.0, tokens_per_doc=24, coauthor_fraction=0.3, seed=seed
    )
    return _build("GitHub", recipe, corpus_recipe, skills_per_person=11)


def figure1_network() -> CollaborationNetwork:
    """The 9-researcher example network of the paper's Figure 1.

    Node skills are verbatim from the figure; edges are reconstructed from
    the narrative (Weikum's counterfactual mentions his collaboration with
    Anand; his neighbors hold both related and unrelated skills).
    """
    people: List[Tuple[str, List[str]]] = [
        ("Gerhard Weikum", ["kb", "db", "xai"]),
        ("Avishek Anand", ["xai", "ir", "graphs"]),
        ("Laks V.S. Lakshmanan", ["db", "distributed systems"]),
        ("Krishna P. Gummadi", ["network", "distributed systems", "security"]),
        ("Bernt Schiele", ["ml", "vision", "scene recognition"]),
        ("Anna Rohrbach", ["ml", "vision"]),
        ("Martin Theobald", ["db", "data mining"]),
        ("Nick Koudas", ["db", "stream processing"]),
        ("Divesh Srivastava", ["db", "data quality"]),
    ]
    ids: Dict[str, int] = {name: pid for pid, (name, _) in enumerate(people)}
    edges = [
        ("Gerhard Weikum", "Avishek Anand"),
        ("Gerhard Weikum", "Martin Theobald"),
        ("Gerhard Weikum", "Divesh Srivastava"),
        ("Gerhard Weikum", "Nick Koudas"),
        ("Gerhard Weikum", "Bernt Schiele"),
        ("Avishek Anand", "Laks V.S. Lakshmanan"),
        ("Avishek Anand", "Krishna P. Gummadi"),
        ("Bernt Schiele", "Anna Rohrbach"),
        ("Martin Theobald", "Nick Koudas"),
        ("Divesh Srivastava", "Nick Koudas"),
    ]
    return CollaborationNetwork.from_parts(
        [name for name, _ in people],
        [skills for _, skills in people],
        [(ids[a], ids[b]) for a, b in edges],
    )


def toy_network(n_people: int = 12, seed: int = 0) -> CollaborationNetwork:
    """A tiny deterministic fixture for unit tests and doc examples."""
    import numpy as np

    rng = np.random.default_rng(seed)
    skills_pool = [
        "graph", "social", "mining", "database", "query", "neural",
        "vision", "privacy", "stream", "index",
    ]
    skills = []
    for _ in range(n_people):
        count = int(rng.integers(2, 5))
        picks = rng.choice(len(skills_pool), size=count, replace=False)
        skills.append({skills_pool[j] for j in picks})
    # Ring + chords: connected, degree >= 2, deterministic.
    edges = [(i, (i + 1) % n_people) for i in range(n_people)]
    edges += [(i, i + 2) for i in range(0, n_people - 2, 3)]
    return CollaborationNetwork.from_parts(
        [f"P{i}" for i in range(n_people)], skills, edges
    )
