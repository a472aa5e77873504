"""Functional model and dataflow timing model of a tau trigger pipeline."""
