"""The branch correlation graph (Section 3.5 of the paper).

A *branch* is an ordered pair of basic blocks (X, Y) executed in
sequence; the graph has a node ``N_XY`` for every observed branch and a
directed edge ``E_XYZ`` from ``N_XY`` to ``N_YZ`` for every observed
pair of consecutive branches.  Edge counters are 16-bit (by default)
and weighted toward recent behaviour by periodic exponential decay:
every `decay_period` executions of a branch all its outgoing edge
weights shift right one bit.

The graph is "effectively a depth one per address history table": one
unit of history (the previous branch) selects the node; the node's edge
distribution is the conditional next-branch distribution.
"""

from __future__ import annotations

from .config import TraceCacheConfig
from .states import BranchState, Summary, classify


class BranchEdge:
    """E_XYZ: correlation counter from N_XY toward successor branch
    (Y, Z); `target` is the node N_YZ."""

    __slots__ = ("target", "weight")

    def __init__(self, target: "BranchNode") -> None:
        self.target = target
        self.weight = 0

    def __repr__(self) -> str:
        return f"<edge ->{self.target.key} w={self.weight}>"


class BranchNode:
    """N_XY: a branch context with its correlation edges and state."""

    __slots__ = ("key", "src", "dst", "exec_count", "countdown",
                 "edges", "total", "in_keys", "summary", "predicted",
                 "trace", "dst_block")

    def __init__(self, src: int, dst: int, dst_block,
                 start_state_delay: int) -> None:
        self.key = (src, dst)
        self.src = src
        self.dst = dst
        self.dst_block = dst_block          # BasicBlock for Y (trace use)
        self.exec_count = 0
        self.countdown = start_state_delay  # start-state filter
        self.edges: dict[int, BranchEdge] = {}   # z block id -> edge
        self.total = 0                       # sum of live edge weights
        self.in_keys: set[tuple] = set()     # predecessor node keys
        self.summary: Summary = (BranchState.NEWLY_CREATED, None)
        self.predicted: BranchEdge | None = None  # inline cache
        self.trace = None                    # anchored Trace, if any

    @property
    def state(self) -> BranchState:
        return self.summary[0]

    @property
    def best_successor(self) -> int | None:
        return self.summary[1]

    def edge_probability(self, z: int) -> float:
        """Conditional probability of branch (dst, z) after this branch."""
        if self.total <= 0:
            return 0.0
        edge = self.edges.get(z)
        if edge is None:
            return 0.0
        return edge.weight / self.total

    def best_edge(self) -> BranchEdge | None:
        """The maximally correlated live out-edge (None if none)."""
        best = None
        best_weight = 0
        for edge in self.edges.values():
            if edge.weight > best_weight:
                best_weight = edge.weight
                best = edge
        return best

    def __repr__(self) -> str:
        return (f"<node {self.key} n={self.exec_count} "
                f"{self.summary[0].name}>")


class BranchCorrelationGraph:
    """All branch nodes of one execution, with decay bookkeeping."""

    def __init__(self, config: TraceCacheConfig) -> None:
        self.config = config
        # The config is frozen; read once here instead of through its
        # property on every recorded succession.
        self.counter_max = config.counter_max
        self.nodes: dict[tuple, BranchNode] = {}
        self.decay_count = 0
        self.edges_created = 0
        self.bus = None    # obs EventBus (set by the profiler), or None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(node.edges) for node in self.nodes.values())

    def find(self, src: int, dst: int) -> BranchNode | None:
        return self.nodes.get((src, dst))

    def get_or_create(self, src: int, dst: int, dst_block) -> BranchNode:
        key = (src, dst)
        node = self.nodes.get(key)
        if node is None:
            node = BranchNode(src, dst, dst_block,
                              self.config.start_state_delay)
            self.nodes[key] = node
        return node

    def record_succession(self, prev: BranchNode,
                          node: BranchNode) -> BranchEdge:
        """Count one observation of `node`'s branch following `prev`'s.

        Returns the (possibly new) edge; maintains the inline cache
        (`prev.predicted`) and the node total.
        """
        edge = prev.edges.get(node.dst)
        if edge is None:
            edge = BranchEdge(node)
            prev.edges[node.dst] = edge
            node.in_keys.add(prev.key)
            self.edges_created += 1
        if edge.weight < self.counter_max:
            edge.weight += 1
            prev.total += 1
        predicted = prev.predicted
        if predicted is None or predicted is edge \
                or edge.weight > predicted.weight:
            prev.predicted = edge
        return edge

    def decay(self, node: BranchNode) -> None:
        """Shift all of `node`'s edge weights right one bit.

        Dead edges (weight 0) are removed so stale correlations do not
        linger; the node total and inline cache are rebuilt.

        Counter saturation is reported here rather than on the hot
        succession path: an edge found at the counter cap when its
        decay sweep arrives spent part of the period saturated, which
        is exactly what the event is meant to surface.
        """
        self.decay_count += 1
        bus = self.bus
        if bus is not None and bus.wants("profiler.counter_saturated"):
            cap = self.counter_max
            saturated = [z for z, edge in node.edges.items()
                         if edge.weight >= cap]
            if saturated:
                bus.emit("profiler.counter_saturated", node=node.key,
                         successors=saturated, cap=cap)
        dead: list[int] = []
        total = 0
        best = None
        best_weight = 0
        for z, edge in node.edges.items():
            edge.weight >>= 1
            if edge.weight == 0:
                dead.append(z)
            else:
                total += edge.weight
                if edge.weight > best_weight:
                    best_weight = edge.weight
                    best = edge
        for z in dead:
            edge = node.edges.pop(z)
            edge.target.in_keys.discard(node.key)
        node.total = total
        node.predicted = best

    def classify(self, node: BranchNode) -> Summary:
        return classify(node, self.config.threshold)

    # ------------------------------------------------------------------
    # Graph-level queries used by the trace constructor.
    def strong_predecessors(self, node: BranchNode) -> list[BranchNode]:
        """Predecessors whose edge into `node` is strongly correlated.

        A predecessor P counts when P is out of the start state and its
        summary says its best successor is this node with strength
        STRONG or UNIQUE.
        """
        preds = []
        for key in node.in_keys:
            pred = self.nodes.get(key)
            if pred is None:
                continue
            state, best = pred.summary
            if best == node.dst and (state is BranchState.STRONG
                                     or state is BranchState.UNIQUE):
                preds.append(pred)
        return preds

    def invariant_errors(self) -> list[str]:
        """Structural consistency check (used by tests, not hot paths)."""
        errors = []
        for key, node in self.nodes.items():
            if node.key != key:
                errors.append(f"node {key} stores key {node.key}")
            computed = sum(e.weight for e in node.edges.values())
            if computed != node.total:
                errors.append(
                    f"node {key} total {node.total} != sum {computed}")
            for z, edge in node.edges.items():
                if edge.target.key != (node.dst, z):
                    errors.append(
                        f"edge {key}->{z} targets {edge.target.key}")
                if key not in edge.target.in_keys:
                    errors.append(
                        f"edge {key}->{z} missing back-reference")
                if edge.weight < 0 or edge.weight > self.counter_max:
                    errors.append(
                        f"edge {key}->{z} weight {edge.weight} out of "
                        f"range")
            if node.predicted is not None:
                if node.predicted.weight < max(
                        (e.weight for e in node.edges.values()), default=0):
                    errors.append(f"node {key} inline cache is stale")
        return errors
