"""Home of the two run digests (``report.py``).  Host-time measurement is
``vrbench`` (``BENCHMARK.json``); identity checks are :mod:`repro.gate`."""
