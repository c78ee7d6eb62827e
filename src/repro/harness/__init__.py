"""Experiment harness: ``python -m repro.harness`` makes and checks every
claim-table of EXPERIMENTS.md.

Each ``eNN_*`` function of an ``experiments_*`` module runs a self-contained
simulation study and returns an
:class:`~repro.harness.common.ExperimentResult`; ``__main__`` holds the table
of them.  Importing this package imports none of them.
"""
