"""One cold start of a benchmark workload, timed by its parent.

Usage: ``python3 perfbench/coldstart.py WORKLOAD`` with ``src`` on
``PYTHONPATH``.  Runs :func:`suite.set_up` and exits.
"""

import sys

import suite

if __name__ == "__main__":
    suite.set_up(suite.WORKLOADS[sys.argv[1]])
