"""The name left behind by the deleted shared-memory ring.

The processes world used to carry float64/int64 arrays through per-pair
``/dev/shm`` rings.  It measured no faster than the pipe mesh and
carried no traffic on the default decomposition, so it was deleted:
:mod:`repro.mpc.procworld` has one wire, and ``transport="shm"`` is an
alias of the pipe.  ``benchmarks/e2e`` imports :data:`SEGMENT_PREFIX`
to check its own leak glob against it, so the constant stays until the
benchmark drops that check together with the alias.
"""

#: /dev/shm name prefix the ring's segments used; no code creates one now.
SEGMENT_PREFIX = "repro_shm_"
