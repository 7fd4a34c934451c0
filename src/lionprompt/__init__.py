"""Implicit prompt tuning around a frozen backbone.

Equilibrium prompt blocks solved to a fixed point, softmax blending
gates, and a criticality-partitioned optimizer, all on a small dense
numeric core with hand-written backward rules.
"""
