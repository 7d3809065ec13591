"""Structured pruning toolkit for toy transformer models: closed-form
layer masks (a mask is a bool array over a matrix's units),
temperature-controlled softmax sparsity allocation, and an alternating
divide-and-conquer weight/activation solver, backed by exhaustive and
constrained-solver oracles (struprune.oracle, with the Lagrangian
relaxed mask) in the test suite."""

__version__ = "0.1.0"
