"""One cli-mix request, ``python -m triplepole <arguments>``, in a process
that also measures it.

run.py starts it as ``python3 perfbench/cli_request.py <subcommand> ...`` with
PERFBENCH_OUT, the file for what it measured, in the environment.  An
untraced request samples the python reference loop from the start of the
process (reference.Sampler) and writes the loop's times and the seconds they
took.  A traced request, started with PERFBENCH_PARENT (the request's span
id) and PERFBENCH_JOB (its job id) as well, records spans instead and writes
them and the cost of tracing (`Tracer.cost`).
"""

import json
import os
import runpy
import sys
from pathlib import Path

import reference

out = Path(os.environ["PERFBENCH_OUT"])
if "PERFBENCH_PARENT" not in os.environ:
    sampler = reference.Sampler(["python"])
    sampler.start()
    try:
        runpy.run_module("triplepole", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        out.write_text(json.dumps({"reference": sampler.times, "spent_s": sampler.spent}))

from tracing import Tracer  # noqa: E402 - only a traced request gets here

tracer = Tracer(parent=os.environ["PERFBENCH_PARENT"], job=os.environ["PERFBENCH_JOB"])
with tracer.span("cli.import", "import"):
    import triplepole.cli
tracer.install()
try:
    code = triplepole.cli.main(sys.argv[1:])
finally:
    out.write_text(json.dumps({"spans": tracer.spans, "cost": tracer.cost()}))
sys.exit(code)
