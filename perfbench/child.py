"""Run the ``nterm`` CLI once and record how long its work took.

Usage: ``python3 perfbench/child.py TIMES_PATH ARG...`` runs what
``python -m nterm.cli ARG...`` runs and writes ``{"import_s", "compute_s"}``
to TIMES_PATH: the import of ``nterm.cli``, then ``main`` (parse_argv, run
and writing the artifact).  ``nterm`` must be importable, for example
through ``PYTHONPATH``.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import nterm.cli

    imported = time.perf_counter()
    code = nterm.cli.main(sys.argv[2:])
    sys.stdout.flush()
    done = time.perf_counter()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": imported - start, "compute_s": done - imported},
                  fh)
    sys.exit(code)
