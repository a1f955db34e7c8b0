"""Plan-tree generation: the randomized nested transactions of §5.

A *plan* is the static shape of one root transaction: which object it
runs on, which method, and the tree of sub-invocations underneath.
Plans reference objects by index so that the identical workload can be
instantiated on any number of clusters (one per protocol under
comparison, plus the serial oracle's replay).

Recursion is avoided by construction — a plan never invokes an object
already on its ancestor path — matching the paper's §3.4 choice to
preclude mutually recursive invocations ("our experience has been that
such mutually recursive invocations are infrequent in practice").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.util.rng import SeededRNG
from repro.workload.params import WorkloadParams
from repro.workload.synth import SyntheticClassFactory, SyntheticClassInfo

#: ``pick(path)``: an object index outside ``path``, or ``None``.
ObjectPicker = Callable[[set], Optional[int]]


@dataclass(frozen=True)
class PlanNode:
    """One invocation in a plan tree (object index + method + children).

    ``inject_abort`` makes the synthetic body call ``ctx.abort()`` right
    after its writes — deterministic fault injection for rollback
    testing under load.
    """

    obj_index: int
    method_name: str
    salt: int
    children: Tuple["PlanNode", ...] = ()
    inject_abort: bool = False

    def injects_abort(self) -> bool:
        """Does any invocation in this subtree inject an abort?"""
        return self.inject_abort or any(
            child.injects_abort() for child in self.children
        )

    def size(self) -> int:
        """Number of invocations in this subtree (including self)."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def objects_touched(self) -> frozenset:
        touched = {self.obj_index}
        for child in self.children:
            touched |= child.objects_touched()
        return frozenset(touched)


@dataclass
class Workload:
    """A fully generated workload: classes, object population, plans."""

    params: WorkloadParams
    classes: List[SyntheticClassInfo]
    object_classes: List[int]  # object index -> class index
    plans: List[PlanNode]
    arrival_offsets: List[float]

    @property
    def num_objects(self) -> int:
        return len(self.object_classes)

    def class_of(self, obj_index: int) -> SyntheticClassInfo:
        return self.classes[self.object_classes[obj_index]]

    def with_plans(self, plans: Sequence[PlanNode],
                   arrival_offsets: Optional[Sequence[float]] = None) -> "Workload":
        """Same classes and object population, hand-written plans.

        Lets tests and experiments script *exact* interleavings (a
        specific deadlock, a targeted hot-spot) on top of the generated
        class/object world.  Plans are validated against the population:
        object indexes must exist, method names must be on the object's
        class menu, and no plan may invoke an object already on its
        ancestor path (§3.4 recursion preclusion).
        """
        plans = list(plans)
        self._validate_plans(plans)
        if arrival_offsets is None:
            offsets = [0.0] * len(plans)
        else:
            offsets = list(arrival_offsets)
            if len(offsets) != len(plans):
                raise ValueError(
                    f"{len(offsets)} arrival offsets for {len(plans)} plans"
                )
        return Workload(
            params=self.params, classes=self.classes,
            object_classes=self.object_classes, plans=plans,
            arrival_offsets=offsets,
        )

    def _validate_plans(self, plans: Sequence[PlanNode]) -> None:
        num_objects = self.num_objects
        schemas = [self.classes[index].schema for index in self.object_classes]
        path: set = set()  # objects on the current invocation path

        def visit(plan: PlanNode) -> None:
            obj_index = plan.obj_index
            if not 0 <= obj_index < num_objects:
                raise ValueError(
                    f"plan references object {obj_index}; workload has "
                    f"{num_objects} objects"
                )
            if obj_index in path:
                raise ValueError(
                    f"plan recursively invokes object {obj_index} "
                    f"(precluded, §3.4)"
                )
            schema = schemas[obj_index]
            if plan.method_name not in schema.methods:
                raise ValueError(
                    f"object {obj_index} ({schema.name}) has no method "
                    f"{plan.method_name!r}"
                )
            path.add(obj_index)
            for child in plan.children:
                visit(child)
            path.discard(obj_index)

        for plan in plans:
            visit(plan)


def generate_workload(params: WorkloadParams, seed: int,
                      page_size: int = 4096) -> Workload:
    """Generate classes, object population, and root plans from a seed."""
    rng = SeededRNG(seed).derive("workload")
    factory = SyntheticClassFactory(rng.derive("classes"), page_size)
    classes = [
        factory.make_class(
            name=f"Synth{index}",
            pages=rng.randint(params.pages_min, params.pages_max),
            access_fraction=params.access_fraction,
            write_fraction=params.write_fraction,
        )
        for index in range(params.num_classes)
    ]
    assign_rng = rng.derive("assign")
    object_classes = [
        assign_rng.randint(0, params.num_classes - 1)
        for _ in range(params.num_objects)
    ]
    plan_rng = rng.derive("plans")
    build = plan_builder(plan_rng, params, classes, object_classes,
                         draw_abort=True)
    pick = zipf_picker(plan_rng, params.num_objects, params.skew)
    plans = [build(pick) for _ in range(params.num_roots)]
    arrival_rng = rng.derive("arrivals")
    offsets: List[float] = []
    clock = 0.0
    for _ in plans:
        if params.mean_interarrival_s > 0:
            clock += arrival_rng.expovariate(1.0 / params.mean_interarrival_s)
        offsets.append(clock)
    return Workload(
        params=params, classes=classes, object_classes=object_classes,
        plans=plans, arrival_offsets=offsets,
    )


def plan_builder(rng: SeededRNG, params: WorkloadParams,
                 classes: Sequence[SyntheticClassInfo],
                 object_classes: Sequence[int],
                 draw_abort: bool) -> Callable[[ObjectPicker], PlanNode]:
    """The one plan-tree builder, shared with :mod:`repro.load.engine`.

    Returns ``build(pick)``, which grows one root plan.  ``pick(path)``
    draws an object index outside ``path`` (the current invocation
    path, precluding recursion, §3.4), or ``None`` when none is left.
    Per node the draws are, in order: the method (biased toward
    updaters), the branch count, each child's object and subtree depth
    first, the salt, and — only when ``draw_abort`` — the injected
    abort flag.  The root's object is ``pick`` on an empty path.
    """
    update_fraction = params.update_fraction
    abort_probability = params.abort_probability
    max_depth = params.max_depth
    # Branching decays geometrically with depth so trees stay small but
    # occasionally run deep: one more child while random() < threshold.
    thresholds = []
    for depth in range(max_depth):
        expected = params.mean_branch / (depth + 1)
        thresholds.append(expected / (expected + 1))
    menus = [
        (classes[index].update_methods, classes[index].read_methods)
        for index in object_classes
    ]
    random, maybe, choice, randint = (
        rng.random, rng.maybe, rng.choice, rng.randint
    )

    def node(obj_index: int, depth: int, path: set,
             pick: ObjectPicker) -> PlanNode:
        updaters, readers = menus[obj_index]
        if updaters and (not readers or maybe(update_fraction)):
            method_name = choice(updaters)
        else:
            method_name = choice(readers)
        children: List[PlanNode] = []
        if depth < max_depth:
            threshold = thresholds[depth]
            count = 0
            while random() < threshold and count < 6:
                count += 1
            for _ in range(count):
                child_obj = pick(path)
                if child_obj is None:
                    break
                path.add(child_obj)
                children.append(node(child_obj, depth + 1, path, pick))
                path.discard(child_obj)
        salt = randint(0, (1 << 31) - 1)
        return PlanNode(
            obj_index=obj_index,
            method_name=method_name,
            salt=salt,
            children=tuple(children),
            inject_abort=draw_abort and maybe(abort_probability),
        )

    def build(pick: ObjectPicker) -> PlanNode:
        root_obj = pick(set())
        return node(root_obj, 0, {root_obj}, pick)

    return build


def zipf_picker(rng: SeededRNG, num_objects: int,
                skew: float) -> ObjectPicker:
    """Zipf-skewed object choice avoiding the invocation path.  Bounded
    rejection sampling: heavy skew can make every draw land on an
    ancestor."""
    zipf_index = rng.zipf_index

    def pick(path: set) -> Optional[int]:
        for _ in range(12):
            candidate = zipf_index(num_objects, skew)
            if candidate not in path:
                return candidate
        return pick_outside(rng, num_objects, path)

    return pick


def pick_outside(rng: SeededRNG, num_objects: int,
                 path: set) -> Optional[int]:
    """Uniform choice among the objects not on ``path``, or ``None``:
    the pickers' last resort after their rejection draws."""
    remaining = [i for i in range(num_objects) if i not in path]
    if not remaining:
        return None
    return rng.choice(remaining)
