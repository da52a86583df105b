"""The compiled classification artifact: flat arrays, bisect, nothing else.

A :class:`CompiledMatcher` is the serving-side twin of a reduced FDD.
Every internal node of the diagram becomes one contiguous *segment run*
in two parallel arrays:

* ``bounds[off[n] : off[n + 1]]`` — the sorted low endpoints of the
  node's outgoing intervals.  Because FDD edge labels are consistent and
  complete, the intervals of a node tile the field's whole domain, so
  the low endpoints alone determine the containing interval:
  ``bisect_right(bounds, value, lo, hi) - 1`` is its index.
* ``targets[same index]`` — the jump: a non-negative compiled node id,
  or ``-(d + 1)`` encoding terminal decision number ``d``.

The lookup loop therefore touches only ``array`` cells and the
C-implemented :func:`bisect.bisect_right`; no :class:`IntervalSet`
algebra, no node objects, no attribute chasing per edge.  ``d`` fields
cost at most ``d`` bisects per packet regardless of rule count.

Artifacts are immutable by convention, structurally comparable
(``==``), picklable (workers and caches ship *artifacts*, not policy
sources), and account their own memory exactly
(:meth:`CompiledMatcher.size_bytes`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.fields.packet import Packet
from repro.fields.schema import FieldSchema
from repro.policy.decision import Decision

__all__ = ["CompiledMatcher"]

#: Artifact layout version, carried through pickle so a future layout
#: change can refuse (or migrate) stale artifacts instead of
#: misinterpreting them.
FORMAT_VERSION = 1

#: Batches at least this large route through the vectorized kernel once
#: it is built (when numpy is available); smaller batches stay on the
#: scalar loop, whose per-call overhead is lower.
KERNEL_MIN_BATCH = 32

#: Batches at least this large build the kernel when it is not built yet.
#: Building costs a numpy import (135-167 ms) plus the lowering (2-6 ms
#: for 60- to 1,000-rule policies); the kernel then saves 1.4-1.8 us per
#: packet over the scalar loop (1.6-2.2 us against 0.3-0.4 us), so it
#: breaks even at 80-125k packets (2-vCPU x86-64, CPython 3.11, numpy
#: 2.4).  A serving process that classifies many batches builds it once
#: up front with :meth:`CompiledMatcher.batch_kernel`.
KERNEL_CROSSOVER_BATCH = 100_000

#: Sentinel distinguishing "kernel not built yet" from "kernel
#: unavailable" (``None``) in the lazy cache slot.
_KERNEL_UNBUILT = object()


class CompiledMatcher:
    """An immutable flat-array packet classifier.

    Built by :func:`repro.classify.compile_fdd`; see the module
    docstring for the memory layout.  ``root`` follows the same encoding
    as ``targets``: a degenerate diagram whose root is a terminal
    compiles to a matcher with zero nodes and a negative ``root``.
    """

    __slots__ = (
        "schema",
        "_root",
        "_decisions",
        "_node_field",
        "_node_off",
        "_bounds",
        "_targets",
        "_kernel",
    )

    def __init__(
        self,
        schema: FieldSchema,
        root: int,
        decisions: tuple[Decision, ...],
        node_field: array,
        node_off: array,
        bounds: array,
        targets: array,
    ):
        self.schema = schema
        self._root = root
        self._decisions = decisions
        self._node_field = node_field
        self._node_off = node_off
        self._bounds = bounds
        self._targets = targets
        self._kernel = _KERNEL_UNBUILT

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def classify(self, packet: Packet | Sequence[int]) -> Decision:
        """The policy's decision for one packet.

        Exactly :meth:`repro.fdd.fdd.FDD.evaluate` on the compiled
        diagram: follow the unique decision path, one bisect per field.
        """
        node = self._root
        bounds = self._bounds
        targets = self._targets
        off = self._node_off
        fields = self._node_field
        while node >= 0:
            value = packet[fields[node]]
            node = targets[
                bisect_right(bounds, value, off[node], off[node + 1]) - 1
            ]
        return self._decisions[-1 - node]

    def __call__(self, packet: Packet | Sequence[int]) -> Decision:
        return self.classify(packet)

    def batch_kernel(self):
        """The vectorized batch kernel, or ``None`` when unavailable.

        Built on the first call (or by the first batch of at least
        :data:`KERNEL_CROSSOVER_BATCH`) and cached; a derived structure
        that never travels through pickle (workers rebuild it on arrival).
        ``None`` means numpy is missing or the diagram cannot be
        level-lowered — batch calls then use the scalar loop.  See
        :mod:`repro.classify.kernels`.
        """
        if self._kernel is _KERNEL_UNBUILT:
            from repro.classify.kernels import build_batch_kernel

            self._kernel = build_batch_kernel(self)
        return self._kernel

    def _kernel_for(self, size: int):
        """The batch kernel if a ``size``-packet batch should use it.

        A built kernel serves every batch of at least
        :data:`KERNEL_MIN_BATCH`; an unbuilt one is built only for a batch
        of at least :data:`KERNEL_CROSSOVER_BATCH`, which repays the
        numpy import and the lowering.
        """
        if size < KERNEL_MIN_BATCH:
            return None
        if self._kernel is _KERNEL_UNBUILT and size < KERNEL_CROSSOVER_BATCH:
            return None
        return self.batch_kernel()

    def classify_batch(
        self, packets: Iterable[Packet | Sequence[int]]
    ) -> list[Decision]:
        """Decisions for many packets, in input order.

        Batches route through the vectorized kernel when
        :meth:`_kernel_for` says it pays (see
        :mod:`repro.classify.kernels`); otherwise through a Python loop
        with every array bound to a local.
        """
        if not isinstance(packets, (list, tuple)):
            packets = list(packets)
        kernel = self._kernel_for(len(packets))
        if kernel is not None:
            return kernel.classify_batch(packets)
        return self._classify_batch_scalar(packets)

    def _classify_batch_scalar(
        self, packets: Sequence[Packet | Sequence[int]]
    ) -> list[Decision]:
        bisect = bisect_right
        bounds = self._bounds
        targets = self._targets
        off = self._node_off
        fields = self._node_field
        decisions = self._decisions
        root = self._root
        out: list[Decision] = []
        append = out.append
        for packet in packets:
            node = root
            while node >= 0:
                value = packet[fields[node]]
                node = targets[
                    bisect(bounds, value, off[node], off[node + 1]) - 1
                ]
            append(decisions[-1 - node])
        return out

    def tally(
        self, packets: Iterable[Packet | Sequence[int]]
    ) -> dict[Decision, int]:
        """Decision histogram of a batch (the summary ``query --batch``
        and ``serve-bench`` report)."""
        if not isinstance(packets, (list, tuple)):
            packets = list(packets)
        kernel = self._kernel_for(len(packets))
        if kernel is not None:
            return kernel.tally_indices(kernel.classify_indices(kernel.stage(packets)))
        counts: dict[Decision, int] = {}
        for decision in self._classify_batch_scalar(packets):
            counts[decision] = counts.get(decision, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Introspection and accounting
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Compiled internal nodes (terminals fold into ``targets``)."""
        return len(self._node_field)

    @property
    def segment_count(self) -> int:
        """Total interval segments across all nodes (= jump-table cells)."""
        return len(self._bounds)

    @property
    def decisions(self) -> tuple[Decision, ...]:
        """The decision table terminal codes index into."""
        return self._decisions

    def size_bytes(self) -> int:
        """Exact byte size of the artifact's array payload.

        Counts the four flat arrays (the part that scales with diagram
        size); the schema and decision table are shared constants of a
        serving process.  This is the number the content-addressed cache
        accounts against its memory budget.
        """
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self._node_field,
                self._node_off,
                self._bounds,
                self._targets,
            )
        )

    def stats(self) -> dict:
        """Size/shape counters for reports and the serving layer."""
        return {
            "nodes": self.node_count,
            "segments": self.segment_count,
            "decisions": len(self._decisions),
            "fields": len(self.schema),
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------------
    # Equality and pickling
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: identical layout, tables, and schema.

        Two equal matchers are behaviorally indistinguishable — the
        pickle round-trip test asserts equality *and* decision parity.
        """
        if not isinstance(other, CompiledMatcher):
            return NotImplemented
        return (
            self.schema == other.schema
            and self._root == other._root
            and self._decisions == other._decisions
            and self._node_field == other._node_field
            and self._node_off == other._node_off
            and self._bounds == other._bounds
            and self._targets == other._targets
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.schema,
                self._root,
                self._decisions,
                self._bounds.tobytes(),
                self._targets.tobytes(),
            )
        )

    def __getstate__(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "schema": self.schema,
            "root": self._root,
            "decisions": self._decisions,
            "node_field": self._node_field,
            "node_off": self._node_off,
            "bounds": self._bounds,
            "targets": self._targets,
        }

    def __setstate__(self, state: dict) -> None:
        version = state.get("format")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"cannot load CompiledMatcher artifact of format {version!r};"
                f" this build reads format {FORMAT_VERSION}"
            )
        self.schema = state["schema"]
        self._root = state["root"]
        self._decisions = state["decisions"]
        self._node_field = state["node_field"]
        self._node_off = state["node_off"]
        self._bounds = state["bounds"]
        self._targets = state["targets"]
        self._kernel = _KERNEL_UNBUILT

    def __repr__(self) -> str:
        return (
            f"<CompiledMatcher over {self.schema!r}: {self.node_count} nodes,"
            f" {self.segment_count} segments, {self.size_bytes()} B>"
        )
