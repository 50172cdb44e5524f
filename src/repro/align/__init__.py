"""Read pileups over aligned reads.

Primary alignment (the paper's pipeline 1, BWA-MEM: SMEM generation,
suffix-array lookup, Smith-Waterman seed extension) is upstream of INDEL
realignment; the reproduction takes its reads already aligned, from SAM
or the simulator, and only costs that stage (``repro.perf.pipelines``).
What stays here is :mod:`repro.align.pileup` -- per-locus read pileups,
used by the variant caller and by IR target identification.
"""
