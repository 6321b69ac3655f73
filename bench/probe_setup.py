"""Child process timed as ``setup_s``: a fresh interpreter imports rtea,
reads the record and builds the solver config, as a library caller does
before the first solve.

    PYTHONPATH=src python3 bench/probe_setup.py RECORD.csv WORKLOAD
"""

import sys

from api import Problem, read_y
from workloads import WORKLOADS

Problem(WORKLOADS[sys.argv[2]], read_y(sys.argv[1]))
