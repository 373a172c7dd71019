"""Serialization for collaboration networks (JSON and dict round-trips).

Networks serialize to a stable, human-inspectable JSON document so that
generated datasets, case-study fixtures, and experiment inputs can be
checked in or shipped between machines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.graph.network import CollaborationNetwork

_FORMAT_VERSION = 1


def network_to_dict(network: CollaborationNetwork) -> Dict[str, Any]:
    """Convert a network to a JSON-safe dict (skills sorted for stability)."""
    return {
        "format_version": _FORMAT_VERSION,
        "people": [
            {
                "id": pid,
                "name": network.name(pid),
                "skills": sorted(network.skills(pid)),
            }
            for pid in network.people()
        ],
        "edges": sorted(network.edges()),
    }


def network_from_dict(payload: Dict[str, Any]) -> CollaborationNetwork:
    """Rebuild a network from :func:`network_to_dict` output.

    People must be listed with contiguous ids starting at 0 (the generator
    and serializer guarantee this; hand-written files are validated).
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported network format version: {version!r}")
    people = payload["people"]
    for expected_id, person in enumerate(people):
        if person["id"] != expected_id:
            raise ValueError(
                f"person ids must be contiguous from 0; saw {person['id']} at "
                f"position {expected_id}"
            )
    net = CollaborationNetwork.from_parts(
        [person["name"] for person in people],
        [person.get("skills", ()) for person in people],
        [(int(u), int(v)) for u, v in payload.get("edges", ())],
    )
    net.validate()
    return net


def save_network_json(network: CollaborationNetwork, path: Union[str, Path]) -> None:
    """Write the network to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        json.dump(network_to_dict(network), f, indent=1, sort_keys=True)


def load_network_json(path: Union[str, Path]) -> CollaborationNetwork:
    """Read a network previously written by :func:`save_network_json`."""
    with Path(path).open("r", encoding="utf-8") as f:
        return network_from_dict(json.load(f))
