"""Implicit-feedback recommenders with accuracy and popularity-bias measurement.

Nothing is re-exported here: import each name from the module that defines
it, such as the error classes from ``popbias.errors``.
"""

__version__ = "0.1.0"
