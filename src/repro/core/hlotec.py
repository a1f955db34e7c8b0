"""Home-based LOTEC: the §6 "scope consistency" design point.

Section 6 lists scope consistency among the DSM techniques LOTEC
should compose with.  Scope-consistency systems are typically
*home-based* (each page has a home node that always holds its latest
version); this protocol grafts that discipline onto LOTEC:

* at root commit, every dirty page is **written back** to its object's
  GDO home node, which becomes the page's owner;
* acquisitions therefore gather (predicted ∩ stale) pages from a
  single source — the home — instead of scattering Algorithm 4.5
  requests across past updaters;
* demand fetches likewise hit one node.

The trade: extra write-back bytes on every commit (even when the next
reader is the writer itself) against strictly fewer gather sources —
the opposite corner of the messages-vs-bytes space from plain LOTEC,
which is what makes it a useful comparison protocol.
"""

from __future__ import annotations

from typing import Dict

from repro.core.lotec import LOTEC
from repro.core.transfer import PAGE_GRAIN
from repro.net.message import Message, MessageCategory
from repro.util.errors import ConfigurationError


class HomeBasedLOTEC(LOTEC):
    name = "hlotec"

    def __init__(self, *args, directory=None, **kwargs):
        super().__init__(*args, **kwargs)
        if directory is None:
            raise ConfigurationError(
                "hlotec needs the GDO directory (for home nodes); "
                "construct it through the cluster"
            )
        self.directory = directory

    def on_root_commit(self, root, dirty: Dict, metas) -> None:
        """Write every dirty page back to its object's home node."""
        node = root.node
        source_store = self.stores[node]
        for object_id, pages in dirty.items():
            if not pages:
                continue
            entry = self.directory.entry(object_id)
            home = entry.home_node
            meta = metas(object_id)
            if home == node:
                # Nothing moves, but every dirty page must be cached here.
                source_store.versions_to_ship(object_id, pages)
            else:
                size = (
                    self.sizes.page_data(len(pages))
                    if self.grain == PAGE_GRAIN
                    else self.sizes.object_data(
                        sum(
                            meta.layout.object_bytes_on_page(page)
                            for page in pages
                        )
                    )
                )
                writeback = Message(
                    src=node, dst=home,
                    category=MessageCategory.UPDATE_PUSH,
                    size_bytes=size, object_id=object_id,
                )
                self.network.charge(writeback)
                home_store = self.stores[home]
                home_store.register_object(object_id, meta.layout)
                source_store.ship_pages(object_id, pages, home_store)
            # The home now holds (or already held) the latest version:
            # point the page map at it so gathers are single-source.
            for page in pages:
                entry.page_map[page].owner = home
