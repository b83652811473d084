"""Fused E-step: log joint, normalization and reduction payload.

Replaces the reference chain (``np.tile`` + one temporary per term +
``log_normalize_rows`` + two ``np.where`` temporaries) with:

1. **one GEMM** ``coefficients.T @ design.T`` writing the log joint
   straight into the pooled workspace buffer (every term's log density
   is linear in the plan's design features);
2. a **fused normalize-and-payload** pass computing the weights, the
   per-class totals ``w_j``, ``sum log Z`` and ``sum w·log w`` using
   only the pooled buffers — the weights are written in place into the
   log-joint buffer and no ``(n, J)`` temporary is ever allocated.

Every pass works on the workspace's **class-major** storage (a C-order
``(J, n)`` array behind the ``(n, J)`` view callers see; see
:mod:`repro.kernels.workspace`): a per-item reduction over the classes
is J elementwise passes over contiguous item rows, never numpy's
per-row inner loop over J elements.

Scoring adds :func:`fused_log_posterior`, the same normalization kept in
log space, and :func:`log_joint_labels`, hard labels from a blocked,
row-major GEMM and row argmax over the log joint; it never normalizes
and draws no workspace.

The ``w log w`` sum uses the identity (per item, with ``s = l - max``
and ``u = exp(s)``, ``z = Σu``)::

    Σ_j w_j log w_j = (Σ_j u_j s_j) / z - log z

which needs no masked logarithm of the weights at all — the ``0 log 0``
convention falls out of the arithmetic because ``u`` underflows to zero
exactly where the reference path's ``np.where`` guard fired.

Numerics: agrees with the reference kernels to ~1e-13 relative (tested
at 1e-10) on data of moderate dynamic range.  The Gaussian terms use the
expanded quadratic ``a·x² + b·x + c``, which loses ~``eps·x²/σ²``
absolute precision — irrelevant for standardized-scale attributes, and
exactly why the reference path is retained for differential testing.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.data.database import Database
from repro.kernels.plan import get_plan
from repro.kernels.workspace import Workspace, get_workspace
from repro.obs import recorder as obs
from repro.util import workhooks
from repro.util.logspace import LOG_FLOOR

if TYPE_CHECKING:  # the kernel layer sits *below* the engine; no runtime
    # import of repro.engine here (keeps the import graph acyclic).
    from repro.engine.classification import Classification

#: Extra scalars appended after the J per-class weights in the E-step
#: reduction payload.  Must match ``repro.engine.wts.N_EXTRA_SLOTS``
#: (cross-checked by tests/kernels); defined here too so the kernel
#: layer stays importable below the engine.
N_EXTRA_SLOTS = 2

_coef = threading.local()  # last (clf, coefficients): built once per cycle

#: Rows per block of :func:`log_joint_labels`.  A divisor of
#: ``repro.data.shards.TILE_ITEMS``, so blocks of an in-memory database
#: and of tile-aligned shards coincide; 1 024 measured fastest
#: (docs/data.md).
LABEL_BLOCK = 1024


def fused_compute_log_joint(
    db: Database, clf: Classification, out: np.ndarray
) -> np.ndarray:
    """Write ``log pi_j + log p(x_i | theta_j)`` into ``out`` in place.

    ``out`` is ``(n_items, n_classes)``; the GEMM writes its transpose,
    which for a workspace buffer is the class-major C-order array.
    """
    plan = get_plan(db, clf.spec)
    last = getattr(_coef, "last", (None, None))
    if last[0] is not clf:
        last = _coef.last = (clf, plan.coefficients(clf.term_params, clf.n_classes))
    class_major = np.matmul(last[1].T, plan.design.T, out=out.T)
    class_major += clf.log_pi[:, None]
    return out


def _shift_and_exp(ws: Workspace):
    """Per item: subtract the class max, clamp, exponentiate, sum.

    Leaves ``s = max(l - max_j l, LOG_FLOOR)`` in the log-joint buffer
    and ``u = exp(s)`` in the scratch buffer; returns the class-major
    ``(s, u)`` views, the item sums ``z`` (in ``ws.row_b``) and the mask
    of total-underflow items (``None`` when there is none).  Rows whose
    every class is ``-inf`` get a zero shift, so their clamped
    exponentials are uniform.
    """
    s = ws.log_joint.T  # (J, n) C-order: reductions over the outer axis
    amax = s.max(axis=0, out=ws.row_a)
    finite = np.isfinite(amax)
    bad = None
    if not finite.all():
        bad = ~finite
        amax[bad] = 0.0
    s -= amax
    # Clamp so exp() underflows cleanly to (sub)zero instead of
    # propagating -inf into the u*s product.
    np.maximum(s, LOG_FLOOR, out=s)
    u = np.exp(s, out=ws.scratch.T)
    z = u.sum(axis=0, out=ws.row_b)
    return s, u, z, bad


def fused_normalize_and_payload(
    ws: Workspace, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize ``ws.log_joint`` rows in place; return ``(wts, payload)``.

    On return the log-joint buffer holds the weights (rows summing to 1)
    and ``payload`` is ``[w_j (J), sum_log_z, sum_w_log_w]``.
    """
    lj = ws.log_joint
    payload = np.empty(n_classes + N_EXTRA_SLOTS, dtype=np.float64)
    if lj.shape[0] == 0:
        payload[:] = 0.0
        return lj, payload
    s, u, z, bad = _shift_and_exp(ws)
    amax = ws.row_a  # the per-item shift
    # Σ_j u_j s_j per item: an in-place product, summed over classes.
    dot = np.multiply(u, s, out=s).sum(axis=0, out=ws.row_c)
    if bad is not None:
        # Total-underflow rows (every class likelihood 0): patch the row
        # to an *exact* uniform before normalizing.  Without this, z is
        # J * exp(LOG_FLOOR) — a subnormal — and the weights / entropy
        # depend on denormal arithmetic (and FTZ hardware zeroes them
        # outright).
        u[:, bad] = 1.0
        z[bad] = float(n_classes)
    np.divide(u, z, out=s)  # weights, in the log-joint buffer
    np.sum(s, axis=1, out=payload[:n_classes])
    np.divide(dot, z, out=dot)
    log_z = np.log(z, out=z)
    if bad is not None:
        # The row's log evidence is floored, never -inf: a single
        # pathological item must not poison the global sum_log_z that
        # drives convergence and scoring.  Its entropy contribution is
        # that of the uniform it normalized to, Σ w log w = -log J
        # (dot - log_z below, with dot patched accordingly).
        log_z[bad] = LOG_FLOOR
        dot[bad] = LOG_FLOOR - np.log(n_classes)
    payload[n_classes] = float(log_z.sum() + amax.sum())
    payload[n_classes + 1] = float(dot.sum() - log_z.sum())
    return lj, payload


def fused_log_posterior(
    ws: Workspace, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize ``ws.log_joint`` rows *in log space*, in place.

    The scoring-side counterpart of :func:`fused_normalize_and_payload`:
    where the training E-step needs probabilities plus the reduction
    payload, inference (:mod:`repro.serve`) needs the per-item log
    posterior and the per-item log evidence.  Returns ``(log_post,
    log_evidence)``:

    * ``log_post`` is the log-joint buffer, now holding
      ``log p(j | x_i)`` (each row log-sum-exps to 0);
    * ``log_evidence`` (aliasing ``ws.row_b``) holds the per-item
      ``log Σ_j exp(log pi_j + log p(x_i | theta_j))``.

    Total-underflow rows follow the training-path convention: the
    posterior is pinned to the exact uniform (``-log J``) and the
    evidence is floored at ``LOG_FLOOR``, never ``-inf``.  Both outputs
    alias pooled workspace buffers — copy before the next same-shape
    E-step on this thread.
    """
    lj = ws.log_joint
    if lj.shape[0] == 0:
        return lj, ws.row_b[:0]
    s, _u, z, bad = _shift_and_exp(ws)
    log_z = np.log(z, out=ws.row_c)
    s -= log_z
    evidence = np.add(log_z, ws.row_a, out=ws.row_b)
    if bad is not None:
        s[:, bad] = -np.log(n_classes)
        evidence[bad] = LOG_FLOOR
    return lj, evidence


def log_joint_labels(db: Database, clf: Classification) -> np.ndarray:
    """Hard labels for ``db``: each item's first maximal log-joint class.

    ``log p(j | x) = log p(j, x) - log Z(x)`` and ``log Z(x)`` is the
    same for every class of an item, so the argmax needs no
    normalization.  The chunk's cached design is cut into
    ``LABEL_BLOCK``-row blocks; each is one row-major GEMM into a reused
    ``(LABEL_BLOCK, J)`` buffer, plus ``log pi`` and a row argmax.  An
    item whose largest log joint is not finite (every class ``-inf``,
    any NaN, or ``+inf``) gets class 0, the argmax of the uniform
    posterior :func:`fused_log_posterior` pins such rows to.
    """
    plan = get_plan(db, clf.spec)
    last = getattr(_coef, "last", (None, None))
    if last[0] is not clf:
        last = _coef.last = (clf, plan.coefficients(clf.term_params, clf.n_classes))
    design, coef = plan.design, last[1]
    n = design.shape[0]
    labels = np.empty(n, dtype=np.int64)
    buf = np.empty((min(n, LABEL_BLOCK), clf.n_classes), dtype=np.float64)
    # log pi repeated per row: one flat add per block instead of a
    # broadcast with a J-element inner loop.
    log_pi = np.broadcast_to(clf.log_pi, buf.shape).copy()
    rows = np.arange(buf.shape[0])
    for lo in range(0, n, LABEL_BLOCK):
        hi = min(lo + LABEL_BLOCK, n)
        block = np.matmul(design[lo:hi], coef, out=buf[: hi - lo])
        block += log_pi[: hi - lo]
        best = np.argmax(block, axis=1, out=labels[lo:hi])
        finite = np.isfinite(block[rows[: hi - lo], best])
        if not finite.all():
            best[~finite] = 0
    return labels


def fused_local_update_wts(
    db: Database, clf: Classification
) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-free E-step over a database block.

    Same contract as :func:`repro.engine.wts.local_update_wts`, with one
    caveat: the returned weight matrix aliases this thread's pooled
    workspace buffer (see :mod:`repro.kernels.workspace` for the
    lifetime rules).
    """
    workhooks.report("wts", db.n_items, clf.n_classes, clf.spec.n_stats)
    obs.current().count("estep.fused")
    ws = get_workspace(db.n_items, clf.n_classes)
    fused_compute_log_joint(db, clf, ws.log_joint)
    return fused_normalize_and_payload(ws, clf.n_classes)
