"""Set-up time of a fresh process: import helm_bench, load scenarios, solve the
first LQR gain. Prints the seconds this took as its only output line.

Usage: python3 setup_probe.py <src dir> [scenario.ini ...]
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import helm_bench.cli  # noqa: E402,F401  (the CLI module imports every layer)
from helm_bench import config, control  # noqa: E402

scenarios = [config.load_scenario(path) for path in sys.argv[2:]]
if scenarios:
    control.lqr_gain(scenarios[0].params, scenarios[0].controller.lqr)
print(time.perf_counter() - t0)
