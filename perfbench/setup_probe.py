"""Set-up time of one fresh interpreter: import ``gridwave.cli``, run one request.

Usage: python3 setup_probe.py SRC_DIR ARG...

Prints the seconds from just before the import to the end of the request,
which runs with its stdout discarded.  Exits 3 if the request fails.
"""

import io
import sys
import time
from contextlib import redirect_stdout

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from gridwave.cli import main

    with redirect_stdout(io.StringIO()):
        code = main(sys.argv[2:])
    elapsed = time.perf_counter() - started
    print(repr(elapsed))
    sys.exit(0 if code == 0 else 3)
