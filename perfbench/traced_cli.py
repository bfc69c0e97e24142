"""Run the renewalrisk CLI with span recording around its layers.

Usage: python3 perfbench/traced_cli.py SPANS.json CLI-ARGS...

Times `import renewalrisk.cli`, installs the recorder, runs the CLI's
`main` with the remaining arguments and writes the spans, the import
time, the absent names and the peak RSS before and after simulation to
SPANS.json.  Exits with the CLI's exit code.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import renewalrisk.cli as cli  # noqa: E402  (timed on purpose)

import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    absent = tracer.install(rec)
    code = cli.main(cli_args)
    doc = {
        "import_s": import_s,
        "absent": absent,
        "rss_before_sim_kb": rec.rss_before_sim_kb,
        "rss_end_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fields": tracer.SPAN_FIELDS,
        "spans": rec.dump(),
    }
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
