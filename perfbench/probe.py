"""Set-up probe, run in a fresh interpreter.

    python3 probe.py SRC MODULES ARGV_JSON

Imports the comma-separated cae MODULES from SRC, runs ``cae.cli.main`` on
the warm-up command ARGV_JSON (an empty list skips it) and prints the CPU
seconds the interpreter has used, start-up included.  Only the standard
library and the program are loaded.
"""

import contextlib
import importlib
import io
import json
import sys
import time


def main() -> int:
    src, modules, argv = sys.argv[1], sys.argv[2].split(","), json.loads(sys.argv[3])
    sys.path.insert(0, src)
    for name in modules:
        importlib.import_module(name)
    if argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sys.modules["cae.cli"].main(argv)
        if rc != 0:
            sys.stderr.write(f"warm-up exited {rc}: {err.getvalue()}")
            return 1
    print(time.process_time())
    return 0


if __name__ == "__main__":
    sys.exit(main())
