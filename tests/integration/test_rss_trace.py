"""``tools/rss_trace.py`` stops quietly when its reader closes the pipe.

``python tools/rss_trace.py | head -6`` must print six lines and end
without a ``BrokenPipeError`` traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "rss_trace.py"


def test_closed_pipe_ends_the_trace_without_a_traceback():
    # Unbuffered, so each row reaches the pipe as it is printed and the
    # write after the close fails mid-run, as under ``| head``.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "--workload", "figure4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        head = [proc.stdout.readline() for _ in range(6)]
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert head[0].startswith("figure4 seed=42")
    assert all(line.endswith("\n") for line in head)
    assert "Traceback" not in stderr, stderr
    assert proc.returncode == 1
