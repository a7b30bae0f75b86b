"""Set-up time of one workload: import omstirap and load its configs.

    python3 bench/setup_probe.py SRC_DIR REFS_JSON

prints the seconds from before ``import omstirap`` to the last config built.
``run.py`` starts this in fresh interpreters, one after another, because a
module is imported only once per process.
"""

from __future__ import annotations

import json
import sys
import time


def measure(src: str, refs: list) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from omstirap import cli

    for preset, config in refs:
        cli.build_scenario(cli.load_config(preset, config))
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(measure(sys.argv[1], json.loads(sys.argv[2]))))
