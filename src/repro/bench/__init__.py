"""Benchmark support: workload generator, adapters, report, regression fit."""
