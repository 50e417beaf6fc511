"""Size-adaptive set-operation kernels with hub bitmaps.

The functional merge primitives (:mod:`repro.setops.merge`) realize every
intersection and subtraction with numpy's sort-based set routines.  That
is the right *reference*, but it is not how fast mining systems execute:
GPU pattern miners pick a binary-search intersection when one operand is
much smaller than the other, and SISA-style set algebras switch the set
*representation* (sorted list vs. bitmap) per operand.  This module is
the repository's analog — three interchangeable kernels behind one
dispatch layer:

``merge``
    The sort-based numpy path (``np.intersect1d`` / ``np.setdiff1d``
    with ``assume_unique=True``) — robust for balanced operand sizes.
``gallop``
    Binary-search probing (``np.searchsorted``) of the smaller operand
    into the larger: ``O(|small| * log |large|)``, the win when
    ``|a| << |b|`` (e.g. a shrunken candidate set against a hub's
    neighbor list).
``bitmap``
    Packed-uint64 membership bitmaps probed with shift/mask — bitwise
    AND plus popcount, mirroring the paper's result-collector bitvectors
    (section 4.3).  Backed by an optional per-run hub index over the
    top-degree vertices of a :class:`repro.graph.csr.CSRGraph`
    (:meth:`~repro.graph.csr.CSRGraph.hub_bitmap_index`), so probes
    against the heaviest neighbor lists are ``O(|source|)``.

**Contract (docs/KERNELS.md): kernel choice is functional-only.**  Every
kernel returns the bit-identical sorted unique ``int32`` array the merge
reference returns, so hardware timing models fed by these results —
segment pairing, load tables, cycle statistics — are unchanged for every
dispatch policy.  The property tests drive all kernels against the
pure-Python merge oracle, and :class:`KernelPolicy.force_kernel` is the
escape hatch that pins one kernel for oracle comparisons.

Dispatch decisions are tallied in process-wide counters
(:func:`kernel_counters`) surfaced by ``python -m repro.bench
--profile-kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import sanitize
from repro.pattern.plan import OpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.csr import CSRGraph

__all__ = [
    "KernelContext",
    "KernelPolicy",
    "DEFAULT_POLICY",
    "KERNEL_NAMES",
    "SEGMENT_KERNEL_NAMES",
    "ENGINE_NAMES",
    "merge_intersect",
    "merge_subtract",
    "gallop_intersect",
    "gallop_subtract",
    "bitmap_intersect",
    "bitmap_subtract",
    "intersect_adaptive",
    "subtract_adaptive",
    "pack_bitmap",
    "unpack_bitmap",
    "popcount",
    "bitmap_and_count",
    "kernel_counters",
    "reset_kernel_counters",
]

_EMPTY = np.empty(0, dtype=np.int32)

#: The selectable kernel names (``KernelPolicy.force_kernel`` values).
KERNEL_NAMES = ("merge", "gallop", "bitmap")

#: The segmented membership-kernel names
#: (``KernelPolicy.force_segment_kernel`` values; repro.setops.segmented).
SEGMENT_KERNEL_NAMES = ("bitmap", "edgekey", "bisect")

#: The mining-engine execution models (``KernelPolicy.engine`` values).
ENGINE_NAMES = ("frontier", "recursive")


def _as_ids(a: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int32)
    return arr if arr.size else _EMPTY


# ----------------------------------------------------------------------
# Dispatch counters (process-wide; workers of a sharded run each keep
# their own, so --profile-kernels reports the driver process only).
# ----------------------------------------------------------------------

_COUNTERS: dict[str, int] = {}


def _tally(name: str, n: int = 1) -> None:
    # Per-process by design (see the section comment above): counters
    # are a profiling aid, never an input to results or timing.
    _COUNTERS[name] = _COUNTERS.get(name, 0) + n  # noqa: RACE001
    if sanitize.is_active():
        # Sanitizer probe: the adaptive dispatch *sequence* must be
        # identical across double-runs of the same job.
        sanitize.emit("kernel", name)


def kernel_counters() -> dict[str, int]:
    """Snapshot of per-kernel dispatch counts since the last reset.

    Keys are ``"<op>/<kernel>"`` (e.g. ``"intersect/gallop"``) plus the
    frontier engine's ``"frontier/..."`` tallies.
    """
    return dict(_COUNTERS)


def reset_kernel_counters() -> None:
    """Zero all dispatch counters."""
    _COUNTERS.clear()


# ----------------------------------------------------------------------
# The three kernels.  All take sorted duplicate-free id arrays and
# return the identical sorted unique int32 result.
# ----------------------------------------------------------------------


def merge_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ∩ b`` via the sort-based numpy merge (the reference kernel)."""
    a, b = _as_ids(a), _as_ids(b)
    if a.size == 0 or b.size == 0:
        return _EMPTY
    return np.intersect1d(a, b, assume_unique=True)


def merge_subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a − b`` via the sort-based numpy merge (the reference kernel)."""
    a, b = _as_ids(a), _as_ids(b)
    if a.size == 0:
        return _EMPTY
    if b.size == 0:
        return a
    return np.setdiff1d(a, b, assume_unique=True)


def _probe(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean membership of each ``values`` element in sorted ``table``."""
    idx = np.searchsorted(table, values)
    # Out-of-range probes (value > table[-1]) clip to index 0; the
    # equality test is then False because value > table[-1] >= table[0].
    idx[idx == table.size] = 0
    return table[idx] == values


def gallop_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ∩ b`` by binary-searching the smaller operand into the larger.

    ``O(min * log max)`` — the size-skew kernel.  The result is read off
    the smaller operand, which is already sorted, so no re-sort happens.
    """
    a, b = _as_ids(a), _as_ids(b)
    if a.size == 0 or b.size == 0:
        return _EMPTY
    small, large = (a, b) if a.size <= b.size else (b, a)
    return small[_probe(small, large)]


def gallop_subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a − b`` by binary search, probing whichever side is smaller.

    When ``a`` is small its elements probe ``b`` and non-members
    survive; when ``b`` is small its elements locate their positions in
    ``a`` and those positions are masked out.
    """
    a, b = _as_ids(a), _as_ids(b)
    if a.size == 0:
        return _EMPTY
    if b.size == 0:
        return a
    if a.size <= b.size:
        return a[~_probe(a, b)]
    idx = np.searchsorted(a, b)
    in_range = idx < a.size
    pos = idx[in_range]
    hits = pos[a[pos] == b[in_range]]
    if hits.size == 0:
        return a
    keep = np.ones(a.size, dtype=bool)
    keep[hits] = False
    return a[keep]


# -- packed-uint64 bitmap representation --------------------------------

_ONE = np.uint64(1)


def pack_bitmap(ids: np.ndarray, num_bits: int | None = None) -> np.ndarray:
    """Pack sorted unique ids into a little-endian uint64 bit array.

    Bit ``i`` of the result is set iff ``i`` is present in ``ids``.
    ``num_bits`` fixes the domain width (default: ``ids[-1] + 1``).
    """
    ids = _as_ids(ids)
    if num_bits is None:
        num_bits = int(ids[-1]) + 1 if ids.size else 0
    words = np.zeros((num_bits + 63) // 64, dtype=np.uint64)
    if ids.size:
        np.bitwise_or.at(
            words, ids >> 6, _ONE << (ids & 63).astype(np.uint64)
        )
    return words


def unpack_bitmap(words: np.ndarray, num_bits: int | None = None) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`: the sorted ids of all set bits."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    if num_bits is not None:
        bits = bits[:num_bits]
    return np.flatnonzero(bits).astype(np.int32)


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across all words."""
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - numpy < 2.0 fallback

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across all words (byte-LUT fallback)."""
        return int(np.unpackbits(words.view(np.uint8)).sum())


def bitmap_and_count(a_words: np.ndarray, b_words: np.ndarray) -> int:
    """``|A ∩ B|`` of two packed bitmaps: bitwise AND + popcount.

    This is the result-collector micro-operation of paper section 4.3,
    exposed for batch counting and the microbenchmarks.  Widths may
    differ; the overhang of the wider bitmap cannot intersect anything.
    """
    n = min(a_words.size, b_words.size)
    if n == 0:
        return 0
    return popcount(a_words[:n] & b_words[:n])


def _bitmap_probe(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a packed bitmap, as a boolean mask."""
    mask = np.zeros(values.size, dtype=bool)
    # values is sorted, so in-domain entries form a prefix.
    cut = int(np.searchsorted(values, words.size * 64))
    if cut:
        v = values[:cut]
        bit = (words[v >> 6] >> (v & 63).astype(np.uint64)) & _ONE
        mask[:cut] = bit.astype(bool)
    return mask


def bitmap_intersect(
    a: np.ndarray, b: np.ndarray, *, b_words: np.ndarray | None = None
) -> np.ndarray:
    """``a ∩ b`` by probing ``a`` against a packed bitmap of ``b``.

    ``b_words`` supplies a prebuilt bitmap (the hub-index fast path);
    otherwise one is packed on the fly, which only pays off when the
    bitmap is reused — the dispatch layer therefore picks this kernel
    for hub operands, while ``force_kernel="bitmap"`` exercises the
    on-the-fly path for oracle testing.
    """
    a, b = _as_ids(a), _as_ids(b)
    if a.size == 0 or b.size == 0:
        return _EMPTY
    words = pack_bitmap(b) if b_words is None else b_words
    return a[_bitmap_probe(a, words)]


def bitmap_subtract(
    a: np.ndarray, b: np.ndarray, *, b_words: np.ndarray | None = None
) -> np.ndarray:
    """``a − b`` by probing ``a`` against a packed bitmap of ``b``."""
    a, b = _as_ids(a), _as_ids(b)
    if a.size == 0:
        return _EMPTY
    if b.size == 0:
        return a
    words = pack_bitmap(b) if b_words is None else b_words
    return a[~_bitmap_probe(a, words)]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPolicy:
    """Tunable dispatch thresholds (see docs/KERNELS.md).

    Attributes
    ----------
    gallop_ratio:
        Use the gallop kernel when ``|large| >= gallop_ratio * |small|``.
    gallop_min_large:
        ...and the large operand has at least this many elements (below
        that the merge kernel's constant factor wins).
    use_hub_bitmaps:
        Enable the per-run hub-bitmap index; operands that are hub
        neighbor lists are then served by the bitmap kernel.
    hub_max_hubs / hub_min_degree / hub_memory_bytes:
        Hub-index sizing, forwarded to
        :meth:`repro.graph.csr.CSRGraph.hub_bitmap_index`.  The memory
        bound caps ``#hubs * ceil(|V|/64) * 8`` bytes.
    force_kernel:
        ``"merge"``, ``"gallop"``, or ``"bitmap"`` pins every dispatch
        to one kernel (the property-test escape hatch); ``None`` selects
        adaptively.  Forcing also disables the hub index (the forced
        bitmap kernel packs operands on the fly so the oracle sees the
        standalone kernel).
    engine:
        Mining execution model: ``"frontier"`` (breadth-batched NumPy
        levels, the default) or ``"recursive"`` (the per-embedding
        oracle path).  Counting only; listing always recurses.
    frontier_budget_bytes:
        Spill budget for the frontier engine: when materializing the
        next level's embedding matrix (or a fused terminal probe) would
        exceed this many bytes, the frontier is processed in contiguous
        row chunks instead.  Any budget produces identical counts.
    force_segment_kernel:
        ``"bitmap"``, ``"edgekey"``, or ``"bisect"`` pins the segmented
        membership kernel (:mod:`repro.setops.segmented`); ``None``
        selects adaptively.
    segment_bitmap_bytes:
        Ceiling on the dense adjacency bitmap
        (:meth:`repro.graph.csr.CSRGraph.adjacency_bitmap`) the
        segmented dispatch may build; larger graphs fall back to the
        edge-key / bisect kernels.
    tuned:
        Opt into the measured-trial auto-tuner (:mod:`repro.tuning`,
        docs/TUNING.md): counting runs resolve this policy — and the
        plan's vertex order — against the persistent tuned-choice store
        for the (pattern, graph signature) at hand, falling back to
        measured trials on a cold store.  The remaining fields act as
        the *base* policy the tuner seeds its candidate grid from and
        the reference candidate trials are compared against.  Like every
        other knob, ``tuned`` is functional-only: resolved choices are
        verified bit-identical (including per-root sequences) during
        trials.

    Every policy produces bit-identical results; only speed changes.
    """

    gallop_ratio: float = 8.0
    gallop_min_large: int = 64
    use_hub_bitmaps: bool = True
    hub_max_hubs: int = 64
    hub_min_degree: int = 128
    hub_memory_bytes: int = 8 << 20
    force_kernel: str | None = None
    engine: str = "frontier"
    frontier_budget_bytes: int = 128 << 20
    force_segment_kernel: str | None = None
    segment_bitmap_bytes: int = 16 << 20
    tuned: bool = False

    def __post_init__(self) -> None:
        if self.force_kernel is not None and self.force_kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.force_kernel!r}; choose from "
                f"{KERNEL_NAMES}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        if (
            self.force_segment_kernel is not None
            and self.force_segment_kernel not in SEGMENT_KERNEL_NAMES
        ):
            raise ValueError(
                f"unknown segment kernel {self.force_segment_kernel!r}; "
                f"choose from {SEGMENT_KERNEL_NAMES}"
            )
        if self.frontier_budget_bytes < 1:
            raise ValueError("frontier_budget_bytes must be >= 1")


#: The library-wide default policy.
DEFAULT_POLICY = KernelPolicy()


def _pick(a: np.ndarray, b: np.ndarray, policy: KernelPolicy) -> str:
    if policy.force_kernel is not None:
        return policy.force_kernel
    small = min(a.size, b.size)
    large = max(a.size, b.size)
    if large >= policy.gallop_min_large and large >= policy.gallop_ratio * max(
        1, small
    ):
        return "gallop"
    return "merge"


def intersect_adaptive(
    a: np.ndarray,
    b: np.ndarray,
    policy: KernelPolicy = DEFAULT_POLICY,
    *,
    b_words: np.ndarray | None = None,
) -> np.ndarray:
    """``a ∩ b`` through the dispatch layer (see :class:`KernelPolicy`).

    ``b_words`` is the hub-index bitmap of ``b`` when the caller has
    one; it wins the dispatch outright (probing is ``O(|a|)``).
    """
    if policy.force_kernel is None and b_words is not None:
        _tally("intersect/bitmap")
        return bitmap_intersect(a, b, b_words=b_words)
    kernel = _pick(a, b, policy)
    _tally(f"intersect/{kernel}")
    if kernel == "gallop":
        return gallop_intersect(a, b)
    if kernel == "bitmap":
        return bitmap_intersect(a, b)
    return merge_intersect(a, b)


def subtract_adaptive(
    a: np.ndarray,
    b: np.ndarray,
    policy: KernelPolicy = DEFAULT_POLICY,
    *,
    b_words: np.ndarray | None = None,
) -> np.ndarray:
    """``a − b`` through the dispatch layer (see :class:`KernelPolicy`)."""
    if policy.force_kernel is None and b_words is not None:
        _tally("subtract/bitmap")
        return bitmap_subtract(a, b, b_words=b_words)
    kernel = _pick(a, b, policy)
    _tally(f"subtract/{kernel}")
    if kernel == "gallop":
        return gallop_subtract(a, b)
    if kernel == "bitmap":
        return bitmap_subtract(a, b)
    return merge_subtract(a, b)


class KernelContext:
    """Per-run dispatcher binding a graph and its hub-bitmap index.

    The execution engines (functional engine, hardware PEs, software
    cores) create one context per run and route every plan op through
    :meth:`apply_op`.  Passing the operand's *vertex* lets the context
    recognize hub neighbor lists and serve them from packed bitmaps.
    The hub index is built lazily on the first hub-sized operand, so
    runs that never touch a hub pay nothing.
    """

    __slots__ = ("graph", "policy", "_hub", "_hub_ready")

    def __init__(
        self, graph: "CSRGraph", policy: KernelPolicy | None = None
    ) -> None:
        self.graph = graph
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._hub = None
        self._hub_ready = False

    def _hub_words(self, vertex: int | None) -> np.ndarray | None:
        """The packed neighbor bitmap of ``vertex``, if it is a hub."""
        policy = self.policy
        if (
            vertex is None
            or not policy.use_hub_bitmaps
            or policy.force_kernel is not None
            or policy.hub_max_hubs <= 0
        ):
            return None
        if not self._hub_ready:
            self._hub = self.graph.hub_bitmap_index(
                max_hubs=policy.hub_max_hubs,
                min_degree=policy.hub_min_degree,
                memory_bytes=policy.hub_memory_bytes,
            )
            self._hub_ready = True
        return self._hub.words_for(vertex) if self._hub is not None else None

    def intersect(
        self, source: np.ndarray, operand: np.ndarray, vertex: int | None = None
    ) -> np.ndarray:
        return intersect_adaptive(
            source, operand, self.policy, b_words=self._hub_words(vertex)
        )

    def subtract(
        self, source: np.ndarray, operand: np.ndarray, vertex: int | None = None
    ) -> np.ndarray:
        return subtract_adaptive(
            source, operand, self.policy, b_words=self._hub_words(vertex)
        )

    def apply_op(
        self,
        kind: OpKind,
        source: np.ndarray | None,
        operand: np.ndarray,
        *,
        vertex: int | None = None,
    ) -> np.ndarray:
        """Execute one plan op functionally.

        ``INIT_COPY`` returns the operand (the fetched neighbor list);
        ``ANTI_SUBTRACT`` subtracts the *postponed* ancestor's list from
        the source (see :class:`repro.pattern.plan.OpKind`).  Every
        policy gives the identical result — only the kernel executing
        the op changes.
        """
        if kind is OpKind.INIT_COPY:
            _tally("copy")
            return _as_ids(operand)
        if source is None:
            raise ValueError(f"{kind} requires a source set")
        if kind is OpKind.INTERSECT:
            return self.intersect(source, operand, vertex)
        if kind is OpKind.SUBTRACT or kind is OpKind.ANTI_SUBTRACT:
            return self.subtract(source, operand, vertex)
        raise ValueError(f"unknown op kind {kind!r}")
