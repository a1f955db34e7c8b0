"""The Global Directory of Objects (GDO).

Per §4.1 the GDO stores, for every shared object, the lock structure of
Figure 1 — ``LockState``, ``ReadCount``, ``HolderPtr`` (the holding
family's ⟨TID,NID⟩ list), ``NonHoldersPtr`` (one waiter per family)
— plus the consistency page map recording which node stores the most
up-to-date version of each page.  The directory is partitioned across
nodes by object id; the holding site caches the holder list so that
intra-family lock traffic stays local (the local/global split of
Algorithms 4.1-4.4).

This reproduction adds waits-for-graph deadlock detection, which the
paper leaves unaddressed (see DESIGN.md, Substitutions): the graph is
read off those lock structures, not stored (:mod:`repro.gdo.deadlock`,
DESIGN §14).  It also adds optional adaptive home migration
(:mod:`repro.gdo.migration`, DESIGN §11) that re-homes hot entries
toward their dominant accessor.
"""

from repro.gdo.entry import (
    DirectoryEntry,
    GrantDecision,
    LockMode,
    LockState,
    PageMapEntry,
    Waiter,
)
from repro.gdo.directory import Directory
from repro.gdo.cache import EntryCacheTracker
from repro.gdo.migration import (
    HomeMigrationManager,
    MigrationConfig,
    MigrationStats,
)

__all__ = [
    "DirectoryEntry",
    "GrantDecision",
    "LockMode",
    "LockState",
    "PageMapEntry",
    "Waiter",
    "Directory",
    "EntryCacheTracker",
    "HomeMigrationManager",
    "MigrationConfig",
    "MigrationStats",
]
