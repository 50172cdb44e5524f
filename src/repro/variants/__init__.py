"""Variant calling (paper Figure 1, pipeline 3) and truth evaluation.

A position-based somatic caller in the Mutect1 family ("most
non-position-based algorithms are still being improved ... Mutect1
remains the standard"). Its purpose in the reproduction is to close the
loop the paper motivates: INDEL realignment exists so that "somatic
variant calls must contain as few errors as possible" -- the
:mod:`repro.variants.evaluation` module measures exactly how much IR
improves calls against the simulator's truth set.
"""
