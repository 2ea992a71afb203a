"""A target that hard-kills its own process on a reachable input.

The virtual MPI substrate runs every rank as a thread of the campaign
process, so ``os._exit`` here takes the *whole tool* down — exactly the
failure mode real MPI targets exhibit (``MPI_Abort`` from C code, a
segfault in a native extension, a launcher ``exit()``).  This target
exists to exercise the supervision layer (:mod:`repro.supervise`): the
concolic search starts from the safe default ``x = 10``, negates the
``x > 0`` sanity branch, and the solver hands back an input that kills
the executing process mid-iteration.

* unsupervised campaigns die on it — run with ``--sandbox``: the
  forked sandbox child dies instead, the supervisor confirms the kill,
  synthesizes a ``worker-killed`` outcome and quarantines the input.

The surviving branches (the ``y`` comparison and the work loop) give the
campaign ordinary coverage to keep making progress on after the killer
input is quarantined.
"""

import os

from repro.concolic.marking import compi_int

INPUT_SPEC = {
    "x": {"default": 10, "lo": -100, "hi": 100},
    "y": {"default": 5, "lo": -100, "hi": 100},
}


def main(mpi, args):
    """Sanity-check ``x``, hard-exit on failure, then do a little work."""
    mpi.Init()
    rank = mpi.Comm_rank(mpi.COMM_WORLD)

    x = compi_int(args["x"], "x")
    y = compi_int(args["y"], "y")

    if x <= 0:                        # condition 0: the kill branch
        # a real target would MPI_Abort / exit() from native code here;
        # bypass Python teardown so no exception can be classified
        os._exit(1)

    if y > 10:                        # condition 1
        work = x + y
    else:
        work = x - y

    i = 0
    while i < x % 7:                  # condition 2: bounded work loop
        work += rank
        i += 1

    mpi.Finalize()
    return 0
