"""Attribute-to-page layout: the "compiler's" memory image of a class.

Section 4.1 requires the compiler to "know where, in an object's
representation in memory, each attribute is stored" so that predicted
attribute accesses can be mapped to predicted page accesses.  This
module is that piece: it packs a class's attributes (scalars and fixed
arrays) into a contiguous byte image and answers which pages any
attribute — or any array element — occupies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.util.errors import ConfigurationError

#: A slot is the unit of value storage and transfer bookkeeping:
#: ``(attribute name, element index)``.  Scalars are element 0.
Slot = Tuple[str, int]


@dataclass(frozen=True)
class AttributeSpec:
    """Declared shape of one attribute.

    Attributes:
        name: attribute name as used in method bodies (``self.name``).
        size_bytes: bytes per element.
        count: number of elements; 1 for scalars, >1 for fixed arrays.
        default: initial value of each element.
    """

    name: str
    size_bytes: int
    count: int = 1
    default: object = 0

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ConfigurationError(f"invalid attribute name {self.name!r}")
        if self.name.startswith("_"):
            raise ConfigurationError(
                f"attribute {self.name!r}: names starting with '_' are "
                f"reserved for the instrumented self and cannot be read back"
            )
        if self.size_bytes <= 0:
            raise ConfigurationError(
                f"attribute {self.name!r}: size_bytes must be positive"
            )
        if self.count <= 0:
            raise ConfigurationError(
                f"attribute {self.name!r}: count must be positive"
            )

    @property
    def is_array(self) -> bool:
        return self.count > 1

    @property
    def total_bytes(self) -> int:
        return self.size_bytes * self.count


class ObjectLayout:
    """Packs attributes into pages and maps accesses to page sets.

    Attributes are laid out contiguously in declaration order (a simple
    deterministic policy a real compiler could use); no padding is
    inserted, so one page commonly holds several small attributes —
    exactly the situation in which per-attribute access prediction
    (LOTEC) beats per-object transfer (COTEC).
    """

    def __init__(self, attributes: Sequence[AttributeSpec], page_size: int):
        if page_size <= 0:
            raise ConfigurationError("page_size must be positive")
        if not attributes:
            raise ConfigurationError("an object layout needs at least one attribute")
        names = [spec.name for spec in attributes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate attribute names in {names}")
        self.page_size = page_size
        self.attributes: Tuple[AttributeSpec, ...] = tuple(attributes)
        self._by_name: Dict[str, AttributeSpec] = {
            spec.name: spec for spec in self.attributes
        }
        self._offsets: Dict[str, int] = {}
        offset = 0
        for spec in self.attributes:
            self._offsets[spec.name] = offset
            offset += spec.total_bytes
        self.total_bytes = offset
        self.page_count = max(1, math.ceil(self.total_bytes / page_size))
        slots_by_page: List[List[Slot]] = [[] for _ in range(self.page_count)]
        #: slot -> its (never empty) pages; :meth:`slot_pages` checks.
        self.pages_by_slot: Dict[Slot, FrozenSet[int]] = {}
        for spec in self.attributes:
            for index in range(spec.count):
                slot = (spec.name, index)
                pages = self._compute_slot_pages(spec, index)
                self.pages_by_slot[slot] = pages
                for page in pages:
                    slots_by_page[page].append(slot)
        #: page -> the slots whose bytes intersect it, in layout order;
        #: :meth:`slots_on_page` checks the page, a page copy indexes.
        self.slots_by_page: Tuple[Tuple[Slot, ...], ...] = tuple(
            tuple(slots) for slots in slots_by_page
        )
        #: scalar attribute name -> its slot (the proxy's one lookup).
        self.scalar_slots: Dict[str, Slot] = {
            spec.name: (spec.name, 0)
            for spec in self.attributes if not spec.is_array
        }
        #: (reads, writes) -> AccessPrediction memo of ``analysis.predict``.
        self.predictions: Dict[object, object] = {}

    # -- construction helpers ---------------------------------------------

    def _compute_slot_pages(self, spec: AttributeSpec, index: int) -> FrozenSet[int]:
        start = self._offsets[spec.name] + index * spec.size_bytes
        end = start + spec.size_bytes  # exclusive
        first = start // self.page_size
        last = (end - 1) // self.page_size
        return frozenset(range(first, last + 1))

    # -- queries ------------------------------------------------------------

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no attribute {name!r}; have {sorted(self._by_name)}") from None

    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.attributes)

    def offset_of(self, name: str) -> int:
        return self._offsets[name]

    def slot_pages(self, name: str, index: int = 0) -> FrozenSet[int]:
        """Pages occupied by one element of one attribute."""
        try:
            return self.pages_by_slot[(name, index)]
        except KeyError:
            raise KeyError(f"no slot ({name!r}, {index})") from None

    def attribute_pages(self, name: str) -> FrozenSet[int]:
        """Pages occupied by every element of an attribute."""
        spec = self.attribute(name)
        start = self._offsets[name]
        end = start + spec.total_bytes
        first = start // self.page_size
        last = (end - 1) // self.page_size
        return frozenset(range(first, last + 1))

    def pages_for_attributes(self, names: Iterable[str]) -> FrozenSet[int]:
        """Conservative page set for a set of attribute names.

        This is the mapping step of LOTEC's prediction: predicted
        attributes -> predicted pages (§4.1).
        """
        pages: set = set()
        for name in names:
            pages.update(self.attribute_pages(name))
        return frozenset(pages)

    def all_pages(self) -> FrozenSet[int]:
        return frozenset(range(self.page_count))

    def slots_on_page(self, page: int) -> Tuple[Slot, ...]:
        """Slots whose bytes intersect the given page (for transfers)."""
        if not 0 <= page < self.page_count:
            raise KeyError(
                f"page {page} out of range; object has {self.page_count} pages"
            )
        return self.slots_by_page[page]

    def slots_on_pages(self, pages: Iterable[int]) -> Tuple[Slot, ...]:
        seen: Dict[Slot, None] = {}
        for page in sorted(set(pages)):
            for slot in self.slots_on_page(page):
                seen[slot] = None
        return tuple(seen)

    def object_bytes_on_page(self, page: int) -> int:
        """Bytes of real object data on a page (for object-grain / DSD
        transfer sizing, §4.2 — the final page is usually partial)."""
        if page < 0 or page >= self.page_count:
            raise KeyError(f"page {page} out of range")
        start = page * self.page_size
        end = min((page + 1) * self.page_size, self.total_bytes)
        return max(0, end - start)

    def initial_values(self) -> Dict[Slot, object]:
        """Default value for every slot, used when an object is created."""
        values: Dict[Slot, object] = {}
        for spec in self.attributes:
            for index in range(spec.count):
                values[(spec.name, index)] = spec.default
        return values

    def __repr__(self) -> str:
        return (
            f"<ObjectLayout {len(self.attributes)} attrs, "
            f"{self.total_bytes}B over {self.page_count} pages of {self.page_size}B>"
        )
