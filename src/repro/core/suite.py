"""Per-class protocol dispatch.

Section 6 names, as future work, "extensions to support different
consistency protocols ... on a per-class basis."  A
:class:`ProtocolSuite` owns one protocol instance per configured name
and routes every consistency decision by the object's class: hot
write-mostly classes can run eager RC while large read-mostly classes
stay on LOTEC, within one cluster and one lock protocol (O2PL is
shared; only data movement differs per class).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from repro.analysis.prediction import PredictionStats
from repro.core.protocol import ConsistencyProtocol
from repro.objects.registry import ObjectMeta
from repro.util.errors import ConfigurationError


class ProtocolSuite:
    """Routes protocol hooks to the instance owning each class."""

    def __init__(self, default: ConsistencyProtocol,
                 by_class: Dict[str, ConsistencyProtocol]):
        self.default = default
        self.by_class = dict(by_class)

    @classmethod
    def build(cls, factory: Callable[[str], ConsistencyProtocol],
              default_name: str,
              class_protocols: Iterable[Tuple[str, str]]) -> "ProtocolSuite":
        """Instantiate one protocol per distinct name.

        ``factory(name)`` builds a protocol; instances are shared
        between classes configured with the same name (and with the
        default when names coincide), so statistics aggregate naturally.
        """
        instances: Dict[str, ConsistencyProtocol] = {
            default_name: factory(default_name)
        }
        by_class: Dict[str, ConsistencyProtocol] = {}
        for class_name, protocol_name in class_protocols:
            if protocol_name not in instances:
                instances[protocol_name] = factory(protocol_name)
            if class_name in by_class:
                raise ConfigurationError(
                    f"class {class_name!r} mapped to a protocol twice"
                )
            by_class[class_name] = instances[protocol_name]
        return cls(default=instances[default_name], by_class=by_class)

    # -- dispatch -----------------------------------------------------------

    def for_meta(self, meta: ObjectMeta) -> ConsistencyProtocol:
        return self.by_class.get(meta.schema.name, self.default)

    def instances(self) -> Tuple[ConsistencyProtocol, ...]:
        seen = {id(self.default): self.default}
        for protocol in self.by_class.values():
            seen.setdefault(id(protocol), protocol)
        return tuple(seen.values())

    def on_root_commit(self, root, dirty: Dict, metas) -> None:
        """Group the commit's dirty objects by owning protocol."""
        grouped: Dict[int, Dict] = {}
        protocols: Dict[int, ConsistencyProtocol] = {}
        for object_id, pages in dirty.items():
            protocol = self.for_meta(metas(object_id))
            grouped.setdefault(id(protocol), {})[object_id] = pages
            protocols[id(protocol)] = protocol
        for key, protocol_dirty in grouped.items():
            protocols[key].on_root_commit(root, protocol_dirty, metas)

    # -- aggregate statistics ---------------------------------------------------

    @property
    def prediction_stats(self) -> PredictionStats:
        """Merged copy of every instance's prediction counters."""
        merged = PredictionStats()
        for protocol in self.instances():
            merged.merge(protocol.prediction_stats)
        return merged

    @property
    def name(self) -> str:
        names = sorted({p.name for p in self.instances()})
        return names[0] if len(names) == 1 else "+".join(names)

    def snapshot(self) -> Dict[str, object]:
        if len(self.instances()) == 1:
            return self.default.snapshot()
        return {
            "protocol": self.name,
            "instances": [p.snapshot() for p in self.instances()],
        }
