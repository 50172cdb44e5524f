"""Genomics substrate: sequences, quality scores, reads, references, and IO.

The paper evaluates on the NA12878 genome from the 1000 Genomes Project,
sequenced at 60-65x coverage and aligned to GRCh37. That dataset is not
available offline, so this subpackage provides the synthetic equivalent:
a reference-genome model, an Illumina-like short-read simulator with
configurable error and INDEL rates, and light-weight FASTA/FASTQ/SAM
readers and writers so the rest of the system operates on realistic data
structures end to end.
"""
