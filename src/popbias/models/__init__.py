"""Recommender models: the shared contract and baselines (``base``) and the
three learners (``slim``, ``wrmf``, ``multivae``).

Nothing is re-exported here: callers import the module that defines each name.
"""
