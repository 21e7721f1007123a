"""Set up one workload in a fresh interpreter and print the monotonic
clock when its instances are ready.

run.py starts this script several times and takes each reading minus
the clock just before the start as one set-up time: interpreter start,
importing twocst, the structure generators and instance construction.

Usage (from the repository root): python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from recorder import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](Recorder(trace=False), int(sys.argv[2]))
print(repr(time.perf_counter()))
