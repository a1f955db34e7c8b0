"""On-wire size model for protocol messages.

The paper argues LOTEC's extra messages are "small ones" while the
savings are in page data; to make that trade-off measurable we charge
every message a realistic wire size: a fixed protocol header plus a
payload determined by what the message carries (page bytes, holder-list
entries, page-map entries).  Constants are plausible for a compact
1990s messaging protocol and are configurable for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SizeModel:
    """Computes on-wire sizes for each message kind.

    Attributes:
        header_bytes: fixed per-message protocol header (addressing,
            type, transaction id).
        page_bytes: size of one DSM page.  The paper speaks of objects
            "on the order of one to five pages" and "ten to twenty
            pages"; we default to 4 KiB pages.
        holder_entry_bytes: size of one ``<transaction id, node id>``
            holder-list entry.
        page_map_entry_bytes: size of one page-map entry (page index +
            node id).
        lock_request_bytes: payload of a lock request (object id, mode,
            requester pair).
        ack_bytes: payload of a bare acknowledgement / control message.

    Every message carries one object's payload at most: page requests
    and page data are priced per object and owner, never coalesced.
    """

    header_bytes: int = 40
    page_bytes: int = 4096
    holder_entry_bytes: int = 8
    page_map_entry_bytes: int = 6
    lock_request_bytes: int = 16
    ack_bytes: int = 4

    def __post_init__(self) -> None:
        for name in (
            "header_bytes",
            "page_bytes",
            "holder_entry_bytes",
            "page_map_entry_bytes",
            "lock_request_bytes",
            "ack_bytes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def lock_request(self) -> int:
        return self.header_bytes + self.lock_request_bytes

    def lock_grant(self, holder_entries: int, page_map_entries: int) -> int:
        """Grant message carrying the holder list and the page map.

        Algorithm 4.2: "Send the list pointed to by HolderPtr and the
        object's page map to the requesting transaction's site."
        """
        return (
            self.header_bytes
            + holder_entries * self.holder_entry_bytes
            + page_map_entries * self.page_map_entry_bytes
        )

    def lock_release(self, dirty_entries: int) -> int:
        """Release message with piggybacked dirty-page information."""
        return self.header_bytes + dirty_entries * self.page_map_entry_bytes

    def page_request(self, page_count: int) -> int:
        return self.header_bytes + page_count * self.page_map_entry_bytes

    def page_data(self, page_count: int) -> int:
        return self.header_bytes + page_count * self.page_bytes

    def object_data(self, byte_count: int) -> int:
        """Object-grain transfer (the DSD mode of §4.2): raw bytes, not
        whole pages."""
        return self.header_bytes + byte_count

    def migration_transfer(self, holder_entries: int,
                           page_map_entries: int) -> int:
        """Directory-entry handoff when an entry's home migrates: the
        old home ships the full entry state — holder list plus page
        map — to the new home, same payload shape as a grant."""
        return (
            self.header_bytes
            + holder_entries * self.holder_entry_bytes
            + page_map_entries * self.page_map_entry_bytes
        )

    def control(self) -> int:
        return self.header_bytes + self.ack_bytes
