"""quper: permutation-spanning variational circuits and the QuPer heuristic.

Each name is imported from the module that defines it, such as
``from quper.gf2 import Permutation``; the package binds none itself.
"""
