"""Start ``repro.server`` with every served-request layer wrapped in spans.

    python perfbench/launcher.py --spans PATH [server arguments...]

Spans stay in memory; SIGUSR1 writes them to PATH (atomically).  The
server itself is ``repro.server.server.main``, unchanged.
"""

from __future__ import annotations

import signal
import sys

import layers
import spans


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        sys.stderr.write(__doc__)
        return 2
    path, server_args = argv[1], argv[2:]
    recorder = spans.Recorder()
    layers.install_server(recorder)
    signal.signal(signal.SIGUSR1, lambda *__: recorder.dump(path))
    from repro.server.server import main as serve

    return serve(server_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
