"""Hierarchical trace spans with energy attribution.

A :class:`Span` is one timed region of work -- a chip search, a bank
stage, one stacked RK4 integration.  Spans nest: entering a span while
another is open makes it a child, so the tree mirrors the call structure
(``chip.search`` > ``bank.stage1`` > ``array.search``).  Each span
carries three observables:

* **wall time** -- measured with ``time.perf_counter`` at enter/exit,
* **modeled delay** -- the simulated latency the physics reported [s],
* **an energy ledger** -- the joules attributed to the span itself.

The accounting invariant the tests assert is *structural*: a span's
:meth:`Span.total_energy` is its own ledger merged with every child's
total, component by component and in creation order, so the root of a
search's span tree reproduces the returned outcome's
:class:`~repro.energy.accounting.EnergyLedger` exactly -- same
components, same floats, same total.  Instrumented code slices an
outcome ledger into per-phase child spans with :meth:`Span.split_energy`
(which preserves that exactness by construction) rather than re-deriving
joules.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from typing import Any

from ..energy.accounting import EnergyLedger
from ..errors import ReproError


class Span:
    """One node of a trace tree.

    Args:
        name: Dotted span name (``"array.search"``); see DESIGN.md for
            the naming scheme.
        attrs: Free-form annotations (rows, batch size, sensing style...).

    Attributes:
        children: Child spans in creation order.
        wall_time: Measured wall-clock duration [s] (0.0 until finished).
        delay: Modeled (simulated) latency [s], if the instrumented code
            reported one.
        energy: This span's *own* energy ledger (children excluded).
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "wall_time",
        "delay",
        "energy",
        "_t_enter",
    )

    def __init__(self, name: str, attrs: Mapping[str, Any] | None = None) -> None:
        if not name:
            raise ReproError("span name must be non-empty")
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.wall_time = 0.0
        self.delay: float | None = None
        self.energy = EnergyLedger()
        self._t_enter: float | None = None

    # -- annotation ---------------------------------------------------------

    def annotate(self, **attrs: Any) -> None:
        """Attach free-form key/value annotations."""
        self.attrs.update(attrs)

    def set_delay(self, delay: float) -> None:
        """Record the modeled latency of the spanned operation [s]."""
        if delay < 0.0:
            raise ReproError(f"modeled delay must be non-negative, got {delay}")
        self.delay = delay

    def add_energy(self, ledger: EnergyLedger) -> None:
        """Merge ``ledger`` into this span's own energy."""
        self.energy.merge(ledger)

    def child(self, name: str, **attrs: Any) -> "Span":
        """Create (and return) an already-finished child span.

        Used for sub-phases whose timing is not separately measured --
        e.g. the per-component energy slices of one search.
        """
        node = Span(name, attrs)
        self.children.append(node)
        return node

    def split_energy(
        self, ledger: EnergyLedger, groups: Mapping[str, str], prefix: str = ""
    ) -> None:
        """Slice ``ledger`` into per-phase child spans, exactly.

        Args:
            ledger: The outcome ledger to attribute (it is only read).
            groups: Component name -> child span name.  Components absent
                from the mapping land in a ``{prefix}other`` child.
            prefix: Prepended to every child span name.

        Iterates the ledger's components in their stored (insertion)
        order and creates/extends child spans in first-touch order, so
        merging the children back together reproduces the ledger's
        component map bit for bit -- the property the span-sum invariant
        tests rely on.
        """
        by_name: dict[str, Span] = {}
        for component, joules in ledger:
            child_name = prefix + groups.get(component, "other")
            node = by_name.get(child_name)
            if node is None:
                node = self.child(child_name)
                by_name[child_name] = node
            node.energy.add(component, joules)

    # -- aggregation --------------------------------------------------------

    def total_energy(self) -> EnergyLedger:
        """This span's ledger merged with every descendant's, in order."""
        out = EnergyLedger()
        out.merge(self.energy)
        for node in self.children:
            out.merge(node.total_energy())
        return out

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` over the subtree, pre-order."""
        yield depth, self
        for node in self.children:
            yield from node.walk(depth + 1)

    def to_dict(self) -> dict[str, Any]:
        """Recursive plain-dict form (the JSON-lines exporter flattens it)."""
        return {
            "name": self.name,
            "wall_time": self.wall_time,
            "delay": self.delay,
            "energy": self.energy.as_dict(),
            "energy_total": self.energy.total,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, wall={self.wall_time:.3e}s, "
            f"E={self.total_energy().total:.3e}J, children={len(self.children)})"
        )


class Tracer:
    """Collects span trees from instrumented code.

    One tracer is active per observability session; instrumented code
    reaches it through :func:`repro.obs.span`, which returns a no-op
    context manager when no session is active.

    Attributes:
        roots: Finished top-level span trees, in completion order.
    """

    __slots__ = ("roots", "_stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span; nests under the innermost open span."""
        node = Span(name, attrs)
        parent = self.current
        if parent is not None:
            parent.children.append(node)
        self._stack.append(node)
        node._t_enter = time.perf_counter()
        try:
            yield node
        finally:
            node.wall_time = time.perf_counter() - node._t_enter
            self._stack.pop()
            if parent is None:
                self.roots.append(node)

    def clear(self) -> None:
        """Drop every collected root (open spans are unaffected)."""
        self.roots.clear()
