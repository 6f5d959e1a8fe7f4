"""NUMA placement modelling (paper §3.1).

The study's kernels run on two-socket machines with the *first-touch*
policy "to ensure that the data is placed close to the core using it".
This module models what that buys: under first-touch, each thread's
slice of the matrix lives on its own socket, so matrix streaming is
socket-local; the x vector, however, is read by *all* threads, so a
fraction of x traffic crosses the socket interconnect no matter how it
is placed.

:class:`NumaModel` extends :class:`~repro.machine.model.PerfModel` with
a remote-access surcharge on each thread's x traffic, added to the
thread times of either model implementation:

* ``first_touch`` — matrix/y local; x pages distributed by the threads
  that touched them first, so on average half of a thread's *remote*
  part of x (columns outside its own block) crosses sockets;
* ``interleaved`` — pages round-robin across sockets: half of *all*
  traffic is remote;
* ``local_only`` — idealised single-socket placement (no surcharge),
  the implicit baseline of :class:`PerfModel`.

Remote accesses pay ``remote_penalty`` × the local byte cost — the
~1.5–2× bandwidth/latency gap of two-socket Epyc/Xeon systems.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArchitectureError
from ..matrix.csr import CSRMatrix
from ..spmv.schedule import Schedule
from .arch import Architecture
from .model import BANDWIDTH_EFFICIENCY, X_BYTES_PER_LOAD, PerfModel

PLACEMENTS = ("local_only", "first_touch", "interleaved")
DEFAULT_REMOTE_PENALTY = 1.7


class NumaModel(PerfModel):
    """Performance model with a two-socket NUMA surcharge on x traffic."""

    def __init__(self, arch: Architecture, placement: str = "first_touch",
                 remote_penalty: float = DEFAULT_REMOTE_PENALTY,
                 **kwargs) -> None:
        if placement not in PLACEMENTS:
            raise ArchitectureError(
                f"unknown placement {placement!r}; pick from {PLACEMENTS}")
        if remote_penalty < 1.0:
            raise ArchitectureError(
                f"remote_penalty must be >= 1, got {remote_penalty}")
        super().__init__(arch, **kwargs)
        self.placement = placement
        self.remote_penalty = remote_penalty

    def _remote_fraction(self, a: CSRMatrix,
                         schedule: Schedule) -> np.ndarray | float:
        """Fraction of each thread's x accesses served by the other
        socket (one entry per thread, or one value for all)."""
        if self.placement == "interleaved":
            return 0.5
        # first touch: x pages owned by the thread whose block initialised
        # them; accesses inside the thread's own column block are local,
        # the rest split evenly between the sockets
        tcount = schedule.nthreads
        nnz_t = np.diff(schedule.entry_start)
        tid = np.repeat(np.arange(tcount, dtype=np.int64), nnz_t)
        cols = a.colidx[schedule.entry_start[0]:schedule.entry_start[-1]]
        block = a.ncols / tcount
        own = (cols >= tid * block) & (cols < (tid + 1) * block)
        local = np.bincount(tid[own], minlength=tcount)
        frac = np.zeros(tcount)
        busy = nnz_t > 0
        frac[busy] = 0.5 * (1.0 - local[busy] / nnz_t[busy])
        return frac

    def _x_surcharge(self, a: CSRMatrix, schedule: Schedule,
                     x_loads: np.ndarray, resid: float) -> np.ndarray | None:
        """Remote x bytes cost ``remote_penalty - 1`` extra, paid on
        the DRAM-side share of each thread's x traffic."""
        if self.arch.sockets < 2 or self.placement == "local_only":
            return None
        frac = self._remote_fraction(a, schedule)
        x_bytes = X_BYTES_PER_LOAD * x_loads
        dram_bw = (self.arch.per_thread_bandwidth(schedule.nthreads)
                   * BANDWIDTH_EFFICIENCY)
        return ((self.remote_penalty - 1.0) * frac * x_bytes
                * (1.0 - resid) / dram_bw)
