"""Set-up probe: interpreter start, `import renewalrisk.cli` and `parse_config`.

Usage: python3 perfbench/setup_probe.py CONFIG.json

Prints CLOCK_MONOTONIC, in seconds, at the moment `parse_config` has
returned, i.e. where the CLI would make its first layer call; the caller
subtracts the time it started this process.
"""

import json
import sys
import time

from renewalrisk.cli import parse_config

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        parse_config(json.load(fh))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
