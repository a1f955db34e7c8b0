"""Nested-object Release Consistency — the paper's announced extension.

Section 6: "One omission from our simulation studies was the
implementation of a simulated version of Release Consistency for
nested objects.  This work is now underway..."  We implement it: at
root commit the updating site eagerly *pushes* every dirty page to
every other site caching the object (Munin-style eager RC, [CBZ91]),
so acquisitions find local copies already current.

Cold starts (a site that has never cached the object) still pull the
pages they lack at acquisition time, like OTEC; after that, pushes
keep every caching site current.  The cost profile is the opposite of
LOTEC's: few demand transfers, but update bytes multiplied by the
number of caching replicas whether or not they will ever read them.

Cold-start pulls ride the shared gather engine (event-driven
completion, one request/response pair per owner); the commit-time
pushes stay on the synchronous ``charge_group`` path — they are
fire-and-forget and never gate an installation the pushing site waits
on.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.prediction import AccessPrediction
from repro.core.protocol import ConsistencyProtocol
from repro.core.transfer import PAGE_GRAIN
from repro.net.message import Message, MessageCategory
from repro.objects.registry import ObjectMeta


class ReleaseConsistency(ConsistencyProtocol):
    name = "rc"

    def select_pages(self, meta: ObjectMeta, page_map,
                     local_versions: Dict[int, int],
                     prediction: AccessPrediction) -> Set[int]:
        # Steady state: pushes keep caching sites current and this is
        # empty.  Cold start (or a race with an in-flight push): pull
        # whatever is stale, as OTEC would.
        return self.stale_pages(page_map, local_versions)

    def on_root_commit(self, root, dirty: Dict, metas) -> None:
        """Eagerly propagate updates to all other caching sites.

        On a multicast-capable network (§6) the push to all replicas is
        a single transmission; otherwise one unicast per replica."""
        node = root.node
        source_store = self.stores[node]
        for object_id, pages in dirty.items():
            if not pages:
                continue
            meta = metas(object_id)
            replicas = [
                target
                for target, store in self.stores.items()
                if target != node
                and store.has_object(object_id)
                and store.resident_pages(object_id)
            ]
            if not replicas:
                continue
            size = (
                self.sizes.page_data(len(pages))
                if self.grain == PAGE_GRAIN
                else self.sizes.object_data(
                    sum(meta.layout.object_bytes_on_page(p) for p in pages)
                )
            )
            template = Message(
                src=node, dst=replicas[0],
                category=MessageCategory.UPDATE_PUSH,
                size_bytes=size, object_id=object_id,
            )
            self.network.charge_group(template, replicas)
            pushed_bytes = size * (
                1 if self.network.config.multicast else len(replicas)
            )
            for target in replicas:
                versions = source_store.ship_pages(object_id, pages,
                                                   self.stores[target])
            self.tracer.update_push(
                node, object_id, sorted(pages), pushed_bytes, replicas,
                versions=versions,
            )
