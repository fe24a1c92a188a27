"""End-to-end and per-layer benchmark of the ``repro`` simulator and sweep harness.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout (the program
under test is ``./src/repro``).  ``perfbench/compare.py`` runs a parent
and a change tree alternately with the same benchmark code.
"""

#: Set (to a directory) in traced passes.  Pool workers import
#: ``perfbench/run.py`` as ``__mp_main__`` under the ``spawn`` start
#: method; with this variable set that import installs the worker-side
#: profiler and counters, which are written to the directory at exit.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE"
