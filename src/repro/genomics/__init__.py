"""Genomics substrate: sequences, quality scores, reads, references, and IO.

The paper evaluates on the NA12878 genome from the 1000 Genomes Project,
sequenced at 60-65x coverage and aligned to GRCh37. That dataset is not
available offline, so this subpackage provides the synthetic equivalent:
a reference-genome model, an Illumina-like short-read simulator with
configurable error and INDEL rates that emits aligned reads, and
light-weight FASTA and SAM readers and writers -- the formats the
realigner consumes and produces.
"""
