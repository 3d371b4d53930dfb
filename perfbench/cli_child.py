"""Run ``spdcgauss.cli.main`` on the given arguments, as the installed
``spdc-gauss`` script would.

With ``PERFBENCH_TRACE_OUT`` set, the listed library functions are
wrapped first and their aggregated spans are written to that path as
JSON when ``main`` returns or raises.  Run with ``PYTHONPATH=src`` from
the repository root.
"""

import os
import sys

trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
if not trace_out:
    from spdcgauss.cli import main

    sys.exit(main(sys.argv[1:]))

import json  # noqa: E402

import spdcgauss.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

tracer = Tracer().install()
try:
    code = spdcgauss.cli.main(sys.argv[1:])
finally:
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.metrics(), fh)
sys.exit(code)
