"""Pinned digests of the time graph and of CH+LS outputs.

A change that means to alter these outputs updates the pins and says so;
any other change must leave them byte-identical.
"""

import hashlib
import json

import pytest

from drsync.generator import GeneratorConfig, synthetic_instance
from drsync.search import SearchConfig, construct, local_search
from drsync.timegraph import build_graph, graph_to_dict

from conftest import long_ride_none

# (generator config, generator seed) -> sha256 of the canonical to_dict() JSON
GOLDEN = [
    (GeneratorConfig(4, 4, 3), 7,
     "59506fca5416174c13da29914467190d0ec6b9d271e6d2fde21106348c1416b7"),
    (GeneratorConfig(4, 4, 3), 8,
     "1b24fe24a20ccfc4ac0e261cab9c148410de676218151631617fe3ad5cb063c1"),
    (GeneratorConfig(2, 2, 4, exchange_policy="none"), 0,
     "ee847fb27501c32c1d69c0e0df206d1495e630719891a0327713dee55b0bdb57"),
    (GeneratorConfig(2, 2, 4, exchange_policy="regular_stops"), 0,
     "31ba1c1c7d54a09390b2a5b59165055c22b6cf1fd8a7f46fbcb290333d6e3fec"),
]


# sha256 of the canonical graph_to_dict() JSON for the same four instances;
# "none" and "regular_stops" both build a graph without station copies
GOLDEN_GRAPH = [
    "679ea0bb86ba3c2574b281a305d04ef7a16a5fd0ea113726344543e1019d2840",
    "16dfb643cc447d0aa0fe5ccc88ac53132561d9a3c643bf6244d031aea32831eb",
    "b22370d77dd6eff7d0633faf499644fbe9d0b50081d875b9722123915d936d42",
    "b22370d77dd6eff7d0633faf499644fbe9d0b50081d875b9722123915d936d42",
]


# sha256 of construct's and of local search's to_dict() JSON on
# conftest.long_ride_none, where a crew member who rested aboard steers again
LONG_RIDE_NONE = (
    "c5ed51cdadb57d3e8f77e0bf0520ad1f0091351656a4a9c503f2fd690287f99c",
    "c5ed51cdadb57d3e8f77e0bf0520ad1f0091351656a4a9c503f2fd690287f99c",
)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("config, seed, digest",
                         [(c, s, d) for (c, s, _), d in zip(GOLDEN, GOLDEN_GRAPH)])
def test_graph_digest(config, seed, digest):
    inst = synthetic_instance(config, seed)
    assert _digest(graph_to_dict(build_graph(inst))) == digest


@pytest.mark.parametrize("config, seed, digest", GOLDEN)
def test_ch_ls_output_digest(config, seed, digest):
    inst = synthetic_instance(config, seed)
    g = build_graph(inst)
    out = local_search(construct(inst, g), inst, g, SearchConfig(seed=0))
    blob = json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_crew_resume_digest():
    inst = long_ride_none()
    g = build_graph(inst)
    ch = construct(inst, g)
    out = local_search(ch, inst, g, SearchConfig(seed=0))
    assert (_digest(ch.to_dict()), _digest(out.to_dict())) == LONG_RIDE_NONE
