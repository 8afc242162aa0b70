"""Dense synchronous-exchange plan, kept verbatim as a test oracle.

This was the production ``sync_exchange_compute`` until the exchange
plan went sparse: it stacks every rank's displacements into a
``(p, p+1)`` matrix and derives the counts/bytes matrices, the gather
indices and the alltoallv accounting from dense ``(p, p)`` arrays.
The production code now builds one entry per nonzero (source,
destination) cell (``repro.core.exchange.sync_exchange_compute``); this
formulation stays here, with the dense alltoallv accounting it used to
call inlined, so ``tests/test_exchange_plan.py`` keeps checking the
sparse plan against it field by field.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import natural_merge_sort_perm, sequential_argsort
from repro.records import concat_batch_arrays


def sync_exchange_compute_dense(stage: list, *, p: int, merge: bool,
                                stable: bool) -> dict:
    """Whole-world compute of the fused synchronous exchange (dense)."""
    start = max(e[1] for e in stage)
    batches = [e[0][0] for e in stage]
    D = np.stack([e[0][1] for e in stage])            # (p, p+1) bounds
    C = np.diff(D, axis=1)                            # counts[src, dst]
    widths = np.array([b.row_nbytes for b in batches], dtype=np.int64)
    S = C * widths[:, None]                           # bytes[src, dst]
    diag = np.diagonal(S)                             # kept, not sent
    send_tot = S.sum(axis=1) - diag
    recv_tot = S.sum(axis=0) - diag
    max_send, max_recv = int(send_tot.max()), int(recv_tot.max())
    total = int(S.sum())
    all_keys, all_cols, offs = concat_batch_arrays(batches)

    # -- gather indices, destination-major in source order --
    starts = offs[:-1][None, :] + D[:, :p].T          # (dst, src)
    lens = C.T                                        # (dst, src)
    flat_lens = lens.ravel()
    N = int(offs[-1])
    excl = np.cumsum(flat_lens) - flat_lens
    G = (np.repeat(starts.ravel() - excl, flat_lens)
         + np.arange(N, dtype=np.int64))
    m_per_dst = C.sum(axis=0)
    bounds = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(m_per_dst, out=bounds[1:])

    # -- final local ordering of every destination, once --
    keys_g = all_keys[G]
    final = np.empty(N, dtype=np.int64)
    for r in range(p):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        seg = keys_g[lo:hi]
        if merge:
            perm = np.argsort(seg, kind="stable")
        elif stable:
            _, perm = natural_merge_sort_perm(seg)
        else:
            perm = sequential_argsort(seg, stable=False)
        final[lo:hi] = G[lo:hi][perm]
    return {
        "t": start,
        "max_send": max_send, "max_recv": max_recv, "total": total,
        "send_tot": send_tot, "recv_tot": recv_tot,
        "recv_all": S.sum(axis=0),                    # includes own chunk
        "S": S,                                       # bytes[src, dst]
        "m": m_per_dst,
        "keys": all_keys, "cols": all_cols,
        "final": final, "bounds": bounds,
    }
