"""The persistent profile store: one run's learned state, as data.

A :class:`ProfileStore` is everything the profiling/trace machinery
learned during execution, lifted out of the live object graph into a
schema-pinned JSON document (``*.rprof``):

- **BCG node statistics** — per branch node: execution count, the
  remaining start-state countdown, the decayed out-edge weights, and
  the cached summary (the starvation guard can keep a summary *more*
  informed than a reclassification of the decayed weights would be, so
  summaries are persisted verbatim rather than recomputed at load).
- **Trace-cache entries** — block-id sequences, per-block anchor node
  keys, expected completion probabilities, superblock iteration counts
  and the anchor each trace holds.  Serials are *not* persisted; they
  are a per-cache allocation order and are reissued at load and merge
  time (the "serial collision" conflict a merge must resolve).
- **Link edges** — installed trace-to-trace links, keyed by source
  trace, blocks executed at the exit, and successor block id.
- **Codecache structural keys** — the generated source texts codegen
  compiled.  The source *is* the structural identity of a
  trace shape (:mod:`repro.opt.codecache`), so a warm start can
  ``compile()`` them offline, before the first dispatch.

Two fingerprints pin what a store may legally seed:

- the **program fingerprint** hashes the linked program's structure
  (methods, block layout, opcode stream), because every stored datum
  is keyed by block id and block ids are assigned by the linker;
- the **config fingerprint** hashes the profile-semantics fields of
  :class:`~repro.core.config.TraceCacheConfig` (threshold, delays,
  decay, counter width, trace-length bounds), because counters and
  summaries are only meaningful under the config that produced them.
  Executor-side knobs (compile/link thresholds) are
  deliberately free: a profile is a statement about the *program*, not
  about who runs it.

Loading rejects unknown schemas, malformed documents and fingerprint
mismatches loudly (:class:`ProfileError`) — warm-starting from a
half-understood store is worse than a cold start.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "PROFILE_SCHEMA", "PROFILE_KIND", "ProfileError", "ProfileStore",
    "capture_profile", "config_fingerprint", "program_fingerprint",
]

PROFILE_SCHEMA = 1
PROFILE_KIND = "repro-profile"

#: TraceCacheConfig fields that define profile semantics.  Two configs
#: with equal values here produce interchangeable counter/summary/trace
#: data; everything else (compile/link thresholds) only
#: changes who *consumes* the profile.
CONFIG_FINGERPRINT_FIELDS = (
    "threshold", "start_state_delay", "decay_period", "counter_bits",
    "max_trace_blocks", "min_trace_blocks", "loop_unroll_copies",
    "superblock_iters",
)


class ProfileError(ValueError):
    """A profile store is missing, malformed, wrong-schema, or was
    produced for a different program or config."""


# ----------------------------------------------------------------------
# Fingerprints.

def config_fingerprint(config) -> str:
    """Digest of the profile-semantics fields of a TraceCacheConfig."""
    parts = [f"{name}={getattr(config, name)!r}"
             for name in CONFIG_FINGERPRINT_FIELDS]
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def _operand_token(value) -> str:
    """A deterministic, process-independent token for one instruction
    operand (linked operands are runtime objects; plain ones stay)."""
    if value is None or isinstance(value, (int, float, str, bool)):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_operand_token(v) for v in value) + ")"
    qualified = getattr(value, "qualified_name", None)
    if qualified is not None:
        return f"@{qualified}"
    name = getattr(value, "name", None)
    if name is not None:
        return f"@{name}"
    return f"<{type(value).__name__}>"


def program_fingerprint(program) -> str:
    """Digest of a linked Program's structure.

    Covers method identity, the opcode/operand stream, and the basic-
    block layout (bids, kinds, extents) — everything the stored block-
    id keys depend on.  Stable across processes for the same source.
    """
    digest = hashlib.sha256()
    for method in program.methods:
        digest.update(method.qualified_name.encode())
        for instr in method.code:
            digest.update(instr.op.name.encode())
            digest.update(_operand_token(instr.a).encode())
            digest.update(_operand_token(instr.b).encode())
        for block in method.blocks:
            digest.update(
                f"{block.bid}:{block.kind}:{block.start}:{block.end}"
                .encode())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
@dataclass(slots=True)
class ProfileStore:
    """One persisted profile: fingerprints + learned state, as plain
    JSON-ready data (no live VM objects)."""

    program: str                        # program fingerprint
    config: str                         # config fingerprint
    #: The raw values behind the config fingerprint, kept alongside the
    #: digest so merge/inspect can interpret counters (the 16-bit cap,
    #: the correlation threshold) without the producing config object.
    config_fields: dict = field(default_factory=dict)
    nodes: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    links: list = field(default_factory=list)
    shapes: list = field(default_factory=list)
    runs: int = 1                       # profiles merged into this one
    created: str | None = None
    schema: int = PROFILE_SCHEMA

    # Node record:  {"key": [src, dst], "exec": n, "countdown": c,
    #                "edges": {"<z>": weight, ...},
    #                "state": "STRONG", "best": z | None}
    # Trace record: {"blocks": [bid, ...], "node_keys": [[s, d], ...],
    #                "p": float, "iterations": k,
    #                "anchor": [src, dst] | None}
    # Link record:  {"source": trace-index, "executed": e,
    #                "succ": bid, "target": trace-index}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": PROFILE_KIND,
            "created": self.created,
            "runs": self.runs,
            "program": self.program,
            "config": self.config,
            "config_fields": self.config_fields,
            "bcg": {"nodes": self.nodes},
            "traces": self.traces,
            "links": self.links,
            "shapes": self.shapes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"),
                          sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, doc: dict,
                  source: str = "<dict>") -> "ProfileStore":
        if not isinstance(doc, dict):
            raise ProfileError(f"{source}: not a profile document")
        schema = doc.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ProfileError(
                f"{source}: schema {schema!r} is not the supported "
                f"profile schema {PROFILE_SCHEMA}; regenerate the "
                f"store with --save-profile")
        if doc.get("kind") != PROFILE_KIND:
            raise ProfileError(
                f"{source}: kind {doc.get('kind')!r} is not a "
                f"{PROFILE_KIND}")
        try:
            store = cls(
                program=doc["program"], config=doc["config"],
                config_fields=dict(doc.get("config_fields", {})),
                nodes=list(doc["bcg"]["nodes"]),
                traces=list(doc["traces"]),
                links=list(doc.get("links", [])),
                shapes=list(doc.get("shapes", [])),
                runs=int(doc.get("runs", 1)),
                created=doc.get("created"), schema=schema)
        except (KeyError, TypeError) as error:
            raise ProfileError(
                f"{source}: malformed profile ({error!r})") from None
        store.validate(source)
        return store

    def validate(self, source: str = "<store>") -> None:
        """Structural sanity of the record lists (not fingerprints)."""
        trace_count = len(self.traces)
        for record in self.nodes:
            key = record.get("key")
            if (not isinstance(key, (list, tuple)) or len(key) != 2
                    or not isinstance(record.get("edges"), dict)):
                raise ProfileError(
                    f"{source}: malformed node record {record!r}")
        for record in self.traces:
            if not record.get("blocks") or \
                    len(record.get("node_keys", ())) != \
                    len(record["blocks"]):
                raise ProfileError(
                    f"{source}: malformed trace record {record!r}")
        for record in self.links:
            if not (0 <= record.get("source", -1) < trace_count
                    and 0 <= record.get("target", -1) < trace_count):
                raise ProfileError(
                    f"{source}: link record {record!r} references a "
                    f"trace outside the store")
        for shape in self.shapes:
            if not isinstance(shape, str):
                raise ProfileError(
                    f"{source}: non-text codecache shape "
                    f"{type(shape).__name__}")

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> "ProfileStore":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ProfileError(f"no profile store at {path}") from None
        except json.JSONDecodeError as error:
            raise ProfileError(
                f"{path}: not JSON ({error})") from None
        return cls.from_dict(doc, source=str(path))

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    # ------------------------------------------------------------------
    def check_compatible(self, program, config,
                         source: str = "<store>") -> None:
        """Raise ProfileError unless this store may seed (program,
        config)."""
        want = program_fingerprint(program)
        if self.program != want:
            raise ProfileError(
                f"{source}: profile was recorded for program "
                f"{self.program}, this VM runs {want} (profiles are "
                f"keyed by block ids and do not transfer across "
                f"program shapes)")
        want = config_fingerprint(config)
        if self.config != want:
            raise ProfileError(
                f"{source}: profile config fingerprint {self.config} "
                f"does not match this VM's {want} (fields "
                f"{', '.join(CONFIG_FINGERPRINT_FIELDS)} must agree)")

    def describe(self) -> str:
        anchored = sum(1 for t in self.traces
                       if t.get("anchor") is not None)
        superblocks = sum(1 for t in self.traces
                          if t.get("iterations", 1) > 1)
        return (f"profile schema {self.schema}: program "
                f"{self.program}, config {self.config}, "
                f"{self.runs} run(s) merged, {len(self.nodes)} BCG "
                f"node(s), {len(self.traces)} trace(s) "
                f"({anchored} anchored, {superblocks} superblock(s)), "
                f"{len(self.links)} link(s), {len(self.shapes)} "
                f"compiled shape(s)")


# ----------------------------------------------------------------------
def capture_profile(controller, created: str | None = None) \
        -> ProfileStore:
    """Lift a controller's learned state into a ProfileStore.

    Captures every BCG node that has left its zeroed initial state,
    the whole trace dedup table (unanchored entries still pre-seed the
    hash table and keep link targets resolvable), installed links, and
    the codecache's structural source keys.
    """
    bcg = controller.profiler.bcg
    cache = controller.cache

    nodes = []
    for node in bcg.nodes.values():
        edges = {str(z): edge.weight
                 for z, edge in node.edges.items() if edge.weight > 0}
        state, best = node.summary
        nodes.append({
            "key": list(node.key),
            "exec": node.exec_count,
            "countdown": node.countdown,
            "edges": edges,
            "state": state.name,
            "best": best,
        })

    # Bases before superblocks: a restored superblock announces the
    # base it was grown from, so the base's serial must exist first.
    ordered = sorted(cache.traces.values(),
                     key=lambda t: (t.iterations > 1, t.serial))
    index_of = {id(trace): i for i, trace in enumerate(ordered)}
    traces = []
    for trace in ordered:
        anchor_key = trace.node_keys[0]
        anchor = bcg.nodes.get(anchor_key)
        anchored_here = anchor is not None and anchor.trace is trace
        traces.append({
            "blocks": list(trace.key),
            "node_keys": [list(k) for k in trace.node_keys],
            "p": trace.expected_completion,
            "iterations": trace.iterations,
            "anchor": list(anchor_key) if anchored_here else None,
        })

    links = []
    linker = getattr(controller, "_linker", None)
    if linker is not None:
        serial_to_index = {trace.serial: index_of[id(trace)]
                           for trace in ordered}
        for (serial, executed, succ), target in \
                sorted(linker.links.items()):
            source_index = serial_to_index.get(serial)
            target_index = index_of.get(id(target))
            if source_index is None or target_index is None:
                continue        # severed mid-capture; skip defensively
            links.append({"source": source_index,
                          "executed": executed, "succ": succ,
                          "target": target_index})

    shapes = []
    optimizer = getattr(controller, "optimizer", None)
    codecache = getattr(optimizer, "codecache", None)
    if codecache is not None:
        shapes = sorted(codecache._code)

    config = controller.config
    return ProfileStore(
        program=program_fingerprint(controller.program),
        config=config_fingerprint(config),
        config_fields={name: getattr(config, name)
                       for name in CONFIG_FINGERPRINT_FIELDS},
        nodes=nodes, traces=traces, links=links, shapes=shapes,
        created=created)
