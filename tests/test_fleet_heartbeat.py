"""Fleet heartbeat files: the wedge detector's view of shard liveness."""

import os

from pytest import approx

from repro.fleet.heartbeat import HeartbeatMonitor


def test_heartbeat_monitor_staleness(tmp_path):
    hb_dir = tmp_path / "heartbeats"
    mon = HeartbeatMonitor(str(hb_dir))
    assert mon.age_of("s0") is None  # never checked in: still starting
    HeartbeatMonitor.touch(mon.path_for("s0"))
    touched = os.stat(mon.path_for("s0")).st_mtime
    assert mon.age_of("s0", now=touched + 4.9) == approx(4.9)
    # a fresher shard is judged by its own file, not its sibling's
    HeartbeatMonitor.touch(mon.path_for("s1"))
    os.utime(mon.path_for("s1"), (touched + 10, touched + 10))
    assert mon.age_of("s1", now=touched + 10.5) == approx(0.5)
    assert mon.age_of("s0", now=touched + 10.5) == approx(10.5)
    # a finished shard forgets its heartbeat
    mon.clear("s0")
    assert mon.age_of("s0") is None
    mon.clear("s0")  # clearing twice is harmless
    # cleanup removes the files but keeps the shared directory
    assert mon.cleanup() == 1
    assert hb_dir.is_dir() and not os.listdir(hb_dir)
