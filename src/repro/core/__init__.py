"""Consistency protocols: COTEC, OTEC, LOTEC, and the RC extension.

All four protocols share the O2PL substrate and differ only in *what
data moves, when* (§5):

* **COTEC** (Conservative OTEC) — ship every page of the object to the
  acquiring site at each global lock acquisition: the paper's baseline.
* **OTEC** — ship only the pages *updated* since the acquiring site
  last saw them (entry consistency at page grain).
* **LOTEC** — ship only updated pages that the compile-time access
  prediction says the acquiring method needs; mispredicted accesses are
  repaired by demand fetches (the paper's contribution).
* **RC** — nested-object Release Consistency: eagerly push updated
  pages to every caching site at root commit (the comparison the
  paper's §6 announces as "now underway"; implemented here).

The transfer engine (:mod:`repro.core.transfer`) implements Algorithm
4.5: group needed pages by their current owner node and gather them,
possibly from several nodes at once, one request/response pair per
owner.  Gathers complete on the *real* response delivery events (so
injected faults delay installation).
"""

from repro.core.protocol import ConsistencyProtocol
from repro.core.suite import ProtocolSuite
from repro.core.cotec import COTEC
from repro.core.otec import OTEC
from repro.core.hlotec import HomeBasedLOTEC
from repro.core.lotec import LOTEC
from repro.core.rc import ReleaseConsistency
from repro.core.transfer import demand_fetch, gather_pages

PROTOCOLS = {
    "cotec": COTEC,
    "otec": OTEC,
    "lotec": LOTEC,
    "rc": ReleaseConsistency,
    "hlotec": HomeBasedLOTEC,
}


def make_protocol(name: str, **kwargs) -> ConsistencyProtocol:
    """Instantiate a protocol by registry name.

    ``directory`` is accepted for every protocol but consumed only by
    the home-based variant."""
    try:
        cls = PROTOCOLS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}"
        ) from None
    if cls is not HomeBasedLOTEC:
        kwargs.pop("directory", None)
    return cls(**kwargs)


__all__ = [
    "ConsistencyProtocol",
    "ProtocolSuite",
    "COTEC",
    "OTEC",
    "LOTEC",
    "HomeBasedLOTEC",
    "ReleaseConsistency",
    "PROTOCOLS",
    "make_protocol",
    "gather_pages",
    "demand_fetch",
]
