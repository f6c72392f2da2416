"""Experiment orchestration (``experiment``) and recorded-session analysis (``gapcalc``).

Nothing is re-exported here: callers import the module they run, so the
session analysis never loads the learners the experiment harness needs.
"""
