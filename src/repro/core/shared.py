"""SHARED COMMON blocks and LOCK variables (section 7).

A SHARED COMMON block is "an ordinary Fortran COMMON block, but
allocated in shared memory so that all force members see the same
block"; blocks are allocated statically (at task initiation here, since
a task is the unit that declares them).  LOCK variables hold lock
values controlling CRITICAL regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..flex.memory import Allocation, HeapAllocator
from ..errors import RuntimeLibraryError
from .sizes import LOCK_BYTES

#: Declaration form: name -> (dtype, shape).  A shape of () declares a
#: scalar (a 0-d array, assigned via ``block.x[()] = v``).
CommonSpec = Dict[str, Tuple[str, Union[Tuple[int, ...], int]]]


def _index_bounds(key, shape, region, dims, exact):
    """Extents touched by indexing a (possibly viewed) tracked array.

    ``region`` holds one half-open ``(lo, hi)`` interval per dimension
    of the *root* array; ``dims`` maps each own dimension to its root
    dimension (``-1`` for a ``newaxis`` dimension); ``exact[rd]`` is
    False once a root dimension went through a non-unit-step slice or
    advanced index, after which it can never be narrowed again.  The
    result is conservative: it covers at least every touched element.

    Returns ``(bounds, view_dims, view_exact)`` where ``bounds`` doubles
    as the access extents and the resulting view's region.
    """
    if not isinstance(key, tuple):
        key = (key,)
    if any(k is Ellipsis for k in key):
        explicit = sum(1 for k in key if k is not Ellipsis and k is not None)
        expanded = []
        for k in key:
            if k is Ellipsis:
                expanded.extend([slice(None)] * (len(shape) - explicit))
            else:
                expanded.append(k)
        key = expanded

    bounds = list(region)
    new_exact = list(exact)
    kept = []        # root dim (or -1) per surviving view dimension
    own = 0
    for k in key:
        if k is None:            # np.newaxis: adds a dim, consumes none
            kept.append(-1)
            continue
        if own >= len(dims):
            break
        rd = dims[own]
        n = shape[own]
        own += 1
        if rd < 0:               # indexing into an inserted axis
            if not isinstance(k, (int, np.integer)):
                kept.append(-1)
            continue
        lo, hi = bounds[rd]
        if not exact[rd]:        # inexact: full interval, never narrow
            if not isinstance(k, (int, np.integer)):
                kept.append(rd)
            continue
        if isinstance(k, (int, np.integer)):
            i = int(k)
            if i < 0:
                i += n
            if 0 <= i < n:
                bounds[rd] = (lo + i, lo + i + 1)
            # dim collapses: interval stays pinned, not kept
        elif isinstance(k, slice):
            r = range(*k.indices(n))
            if len(r) == 0:
                bounds[rd] = (lo, lo)
            else:
                bounds[rd] = (lo + min(r), lo + max(r) + 1)
                if r.step != 1:
                    new_exact[rd] = False   # covering interval only
            kept.append(rd)
        else:
            # Advanced index (array/list/mask): covering interval is the
            # whole dim; the result is a copy, so the view attrs computed
            # here are discarded by the caller anyway.
            new_exact[rd] = False
            kept.append(rd)
    kept.extend(dims[own:])
    return tuple(bounds), tuple(kept), tuple(new_exact)


class TrackedArray(np.ndarray):
    """A SHARED COMMON variable with per-access race monitoring.

    Only constructed when race detection is on (blocks declared with no
    monitor hold plain ndarrays -- detection off costs nothing).  Every
    ``__getitem__``/``__setitem__`` reports its conservative element
    extents to the monitor; basic-indexing *views* stay tracked with
    their absolute position in the root array, so ``row = blk.u[i]``
    followed by ``row[j] = v`` reports the right extents.

    Known blind spots (documented, conservative in the "no false
    negative within supported usage" sense): in-place ufuncs on the
    whole array (``blk.u += 1``) and ``np.copyto`` bypass
    ``__setitem__``; advanced indexing returns untracked copies (which
    is semantically right -- writing a copy does not touch shared
    memory).
    """

    def __array_finalize__(self, obj):
        # Never inherit monitoring: ufunc temporaries, copies and
        # reductions must not report phantom accesses.  Tracking is
        # re-attached explicitly (block construction, __getitem__).
        self._pisces_monitor = None
        self._pisces_label = None
        self._pisces_region = None
        self._pisces_dims = None
        self._pisces_exact = None

    def __getitem__(self, key):
        result = super().__getitem__(key)
        mon = self._pisces_monitor
        if mon is None:
            return result
        bounds, vdims, vexact = _index_bounds(
            key, self.shape, self._pisces_region, self._pisces_dims,
            self._pisces_exact)
        mon(self._pisces_label, bounds, False)
        if (type(result) is TrackedArray
                and result.ndim == len(vdims)
                and result.base is not None):
            result._pisces_monitor = mon
            result._pisces_label = self._pisces_label
            result._pisces_region = bounds
            result._pisces_dims = vdims
            result._pisces_exact = vexact
        return result

    def __setitem__(self, key, value):
        mon = self._pisces_monitor
        if mon is not None:
            bounds, _, _ = _index_bounds(
                key, self.shape, self._pisces_region, self._pisces_dims,
                self._pisces_exact)
            mon(self._pisces_label, bounds, True)
        super().__setitem__(key, value)


class SharedCommonBlock:
    """A named COMMON block resident in (simulated) shared memory.

    Variables are numpy arrays; force members all hold references to the
    same object, so plain element assignment is the shared-variable
    communication of the paper.  Attribute access returns the array:

    ``blk.u[i] = 4.0``; scalars are 0-d arrays: ``blk.n[()] = 10``.
    """

    def __init__(self, name: str, spec: CommonSpec, heap: HeapAllocator,
                 monitor=None):
        self._name = name
        self._vars: Dict[str, np.ndarray] = {}
        nbytes = 0
        for var, (dtype, shape) in spec.items():
            if isinstance(shape, int):
                shape = (shape,)
            arr = np.zeros(shape, dtype=dtype)
            if monitor is not None:
                # Race detection on: wrap in a TrackedArray reporting
                # (label, extents, is_write) for every indexed access.
                arr = arr.view(TrackedArray)
                arr._pisces_monitor = monitor
                arr._pisces_label = (name, var)
                arr._pisces_region = tuple((0, n) for n in shape)
                arr._pisces_dims = tuple(range(len(shape)))
                arr._pisces_exact = (True,) * len(shape)
            self._vars[var] = arr
            nbytes += int(arr.nbytes)
        self._nbytes = nbytes
        self._alloc: Optional[Allocation] = heap.alloc(nbytes, tag="shared_common")
        self._heap = heap

    @property
    def block_name(self) -> str:
        return self._name

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def variables(self) -> List[str]:
        return list(self._vars)

    def __getattr__(self, item: str) -> np.ndarray:
        try:
            return self.__dict__["_vars"][item]
        except KeyError:
            raise AttributeError(
                f"SHARED COMMON /{self.__dict__.get('_name', '?')}/ has no "
                f"variable {item!r}") from None

    def __getitem__(self, item: str) -> np.ndarray:
        return self._vars[item]

    def release(self) -> None:
        if self._alloc is not None:
            self._heap.free(self._alloc)
            self._alloc = None

    #: Alias for the explicit-deallocation API (FREE COMMON): releasing
    #: the simulated shared-memory storage is the whole operation -- the
    #: numpy arrays stay readable for post-mortem analysis.
    free = release

    @property
    def freed(self) -> bool:
        return self._alloc is None

    def digest(self) -> Dict[str, int]:
        """Per-variable adler32 content digests (checkpoint validation:
        two VMs at the same schedule position must agree bit-for-bit on
        every SHARED COMMON byte)."""
        import zlib

        def digest(arr: np.ndarray) -> int:
            if arr.dtype == object:
                # TASKID cells hold references: digest the values, not
                # the pointers (which differ from process to process).
                return zlib.adler32(repr(arr.tolist()).encode("utf-8"))
            # adler32 reads the array buffer directly; no tobytes() copy.
            return zlib.adler32(np.ascontiguousarray(arr).data)

        return {var: digest(arr) for var, arr in sorted(self._vars.items())}


@dataclass
class LockState:
    """A LOCK variable: unlocked/locked plus a FIFO of waiting members."""

    name: str
    locked: bool = False
    owner_pid: Optional[int] = None
    waiters: List[object] = field(default_factory=list)  # KernelProcess FIFO
    alloc: Optional[Allocation] = None
    #: Contention statistics for the analysis module.
    acquisitions: int = 0
    contended_acquisitions: int = 0
    #: Virtual time the current holder acquired the lock (the
    #: observability layer derives lock-hold ticks from it).
    acquired_at: int = 0

    @classmethod
    def allocate(cls, name: str, heap: HeapAllocator) -> "LockState":
        return cls(name=name, alloc=heap.alloc(LOCK_BYTES, tag="lock"))

    def release_storage(self, heap: HeapAllocator) -> None:
        if self.alloc is not None:
            heap.free(self.alloc)
            self.alloc = None


class SharedState:
    """Per-task container of SHARED COMMON blocks and LOCK variables."""

    def __init__(self, heap: HeapAllocator, monitor=None):
        self._heap = heap
        #: Access monitor threaded into every declared block when race
        #: detection is on (None otherwise -- plain ndarrays, no cost).
        self.monitor = monitor
        self.commons: Dict[str, SharedCommonBlock] = {}
        self.locks: Dict[str, LockState] = {}
        #: Blocks explicitly freed before task exit (kept for
        #: post-mortem reads; their storage is already released).
        self.freed_commons: List[SharedCommonBlock] = []

    def declare_common(self, name: str, spec: CommonSpec) -> SharedCommonBlock:
        if name in self.commons:
            raise RuntimeLibraryError(f"SHARED COMMON /{name}/ already declared")
        blk = SharedCommonBlock(name, spec, self._heap, monitor=self.monitor)
        self.commons[name] = blk
        return blk

    def free_common(self, name: str) -> SharedCommonBlock:
        """Explicitly deallocate a block before task exit (FREE COMMON).

        The name becomes declarable again; the old block object is kept
        (storage released) so final values stay readable.
        """
        try:
            blk = self.commons.pop(name)
        except KeyError:
            raise RuntimeLibraryError(f"no SHARED COMMON /{name}/") from None
        blk.free()
        self.freed_commons.append(blk)
        return blk

    def common(self, name: str) -> SharedCommonBlock:
        try:
            return self.commons[name]
        except KeyError:
            raise RuntimeLibraryError(f"no SHARED COMMON /{name}/") from None

    def declare_lock(self, name: str) -> LockState:
        if name in self.locks:
            raise RuntimeLibraryError(f"LOCK {name} already declared")
        lk = LockState.allocate(name, self._heap)
        self.locks[name] = lk
        return lk

    def lock(self, name: str) -> LockState:
        if name not in self.locks:
            # Locks may be declared lazily on first use.
            return self.declare_lock(name)
        return self.locks[name]

    def snapshot(self, owner_ordinal=None) -> dict:
        """Digestable state of every block and lock this task owns.

        ``owner_ordinal`` maps a lock's ``owner_pid`` (process-global,
        unstable across hosts) to its run-stable spawn ordinal; waiters
        are counted, not named -- their identities are pinned by the
        process snapshots.
        """
        commons = {name: blk.digest()
                   for name, blk in sorted(self.commons.items())}
        locks = {}
        for name, lk in sorted(self.locks.items()):
            owner = lk.owner_pid
            if owner is not None and owner_ordinal is not None:
                owner = owner_ordinal(owner)
            locks[name] = [bool(lk.locked), owner, len(lk.waiters),
                           int(lk.acquisitions)]
        return {"commons": commons, "locks": locks,
                "freed": sorted(b.block_name for b in self.freed_commons)}

    def release_all(self) -> None:
        """Free the shared-memory storage at task termination.

        The block/lock objects are kept (with storage released) so
        post-mortem analysis can still read final values and lock
        contention statistics.
        """
        for blk in self.commons.values():
            blk.release()
        for lk in self.locks.values():
            lk.release_storage(self._heap)
