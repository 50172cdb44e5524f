"""Native-speed kernel tier: the SWAR hot loop, compiled.

:mod:`repro.engine.bitpack` reproduces the GateKeeper-style 2-bit
XOR+popcount filter (see PAPERS.md), but it executes as a chain of
numpy dispatches: every screening pass materializes ``(C, K, G, Wr)``
tensors and pays interpreter overhead per elementwise op, so per-site
time is dominated by Python/numpy bookkeeping rather than the word
arithmetic the paper's hardware spends its cycles on. This module
closes that gap with a *compiled* implementation of the same pipeline
-- registered as kernel ``"native"`` in
:data:`repro.engine.autotune.KERNELS` -- so the hot loop runs as
machine code over the packed planes:

1. **2-bit pack** in C: the reads in :mod:`repro.engine.bitpack`'s
   layout (32 bases a ``uint64``, N flags, validity masks), ``qlow`` by
   a counting sort of the qualities, and each consensus as sliding-window
   words built in one backward pass: ``win[k]`` holds bases ``k..k+31``
   (a twin their N flags), so word ``w`` of offset ``k`` is ``win[k+32w]``.
2. **XOR+fold SWAR mismatch masks** with the N plane folded in and
   padding lanes masked off -- one ``popcount`` per word gives each
   offset's mismatch *count*.
3. **Seeded pruning** (the paper's Section IV): a one-word pre-scan
   seeds each pair's bound with the exact WHD of its offset with the
   fewest word-0 mismatches. Word-major, each later word's count is then
   added to a live range of offsets in one loop the compiler vectorises,
   narrowed first to those whose ``qlow[cnt]`` (their ``cnt`` smallest
   qualities, a lower bound on the WHD) is within the bound or the
   running minimum; counts only grow, so the pruning is exact.
4. **Exact unpack-and-dot** for the surviving offsets: iterate the set
   mismatch bits and sum the read's qualities at those lanes.

The compiled entry point is a small C translation of those loops (the
**cc** backend), built once with the system C compiler into a cached
shared library and called through ``ctypes``: one call per site, with
the GIL released for all of it, so engine threads run sites
concurrently.

The same library holds the SAM tokenizer, ``repro_ingest_sam``
(:func:`sam_ingester`): one pass over a SAM file's or a served job's
bytes that accepts only what its Python twin,
:func:`repro.genomics.samlite.ingest`, accepts and fills the same
:class:`~repro.genomics.read.ReadBatch` columns (line and field
spans, flag, POS, MAPQ, contig, reference end, CIGAR elements, and the
M-block bases that differ from the reference), so
``repro realign`` reads ``--sam`` once into one buffer, and the server
answers a job no INDEL can change without decoding it.

It is not required: when no C compiler works, the grid function
degrades to the interpreted bitpack kernel, counting
``kernel.native.unavailable`` in telemetry and logging one warning
that says why (disabled, no compiler, the build's first error line, a
load error) -- never an error (the ``REPRO_NATIVE=off`` CI pass pins
this); :func:`sam_ingester` returns ``None``, and SAM bytes are read in
Python. The ``REPRO_NATIVE`` environment variable disables the tier
(``off``) or leaves the default probe (``auto``); any other value is a
``ValueError``.

Warmup: the first call into the backend may pay the one-time
shared-library build. So that this cost cannot land in a timed chunk
or a served request's latency, :func:`warmup_native` compiles and
exercises the site kernel on a tiny site. The engine calls it once,
before it starts its worker threads (:mod:`repro.engine.parallel`), and
the serving plane before it accepts traffic. Warming before the threads
start also keeps the build to one: the probe in :func:`get_backend` is
an unlocked check-then-set, so two threads making their first call
together could each compile the library.

The Figure 4 worked example (``TGAA`` / ``CCTTAGA`` and friends, m=7,
n=4, k=0..3) lands identically to the scalar kernel -- through the
compiled backend when one is available, through the bitpack fallback
otherwise, which is the point:

>>> from repro.experiments.figure4 import build_site
>>> mw, mi = min_whd_grid_native(build_site())
>>> mw.tolist()
[[30, 20], [0, 20], [55, 30]]
>>> mi.tolist()
[[2, 0], [3, 1], [2, 0]]
"""

from __future__ import annotations

import ctypes
import logging
import os
import subprocess
import tempfile
import zlib
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.genomics.read import COLUMNS, ReadBatch
from repro.realign.site import RealignmentSite

logger = logging.getLogger(__name__)

_ENV_NATIVE = "REPRO_NATIVE"
_OFF_MODES = ("off", "none", "0", "disabled")
_NATIVE_MODES = ("auto",) + _OFF_MODES


# ---------------------------------------------------------------------
# the C translation of the grid loops (the "cc" backend)
# ---------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static const uint64_t EVEN = 0x5555555555555555ULL;
static const int64_t WHD_SENTINEL = 2147483647;
static const int32_t QLOW_PAD = 1 << 30;

/* ASCII -> 2-bit code: A=0, C=1, G=2, T=3; N (flagged apart) and
 * anything else share code 0. */
static const uint8_t CODE[256] = {['C'] = 1, ['G'] = 2, ['T'] = 3};

/* One word's XOR+fold mismatch mask, N plane in, padding masked off. */
static inline uint64_t mismatches(uint64_t c, uint64_t cn, uint64_t r,
                                  uint64_t rn, uint64_t v, int64_t track_n)
{
    uint64_t x = c ^ r;
    return (((x | (x >> 1)) & EVEN) | (track_n ? cn ^ rn : 0)) & v;
}

/* Exact WHD of offset k, given win + k: its window word w is win[32w]. */
static int64_t exact_whd(const uint64_t *win, const uint64_t *winn,
    const uint64_t *rw, const uint64_t *rn, const uint64_t *rv,
    const int32_t *rq, int64_t words, int64_t track_n)
{
    int64_t whd = 0;
    for (int64_t w = 0; w < words; w++)
        for (uint64_t m = mismatches(win[32 * w], winn[32 * w], rw[w], rn[w],
                                     rv[w], track_n); m; m &= m - 1)
            whd += rq[w * 32 + (__builtin_ctzll(m) >> 1)];
    return whd;
}

/* SWAR grid: earliest minimum WHD per (consensus, read) pair.  The
 * seed (fewest word-0 mismatches) attains `bound`, so the minimum is
 * <= bound; an offset with qlow[cnt] > bound loses to it strictly, one
 * with qlow[cnt] >= best cannot win a strict < update: abandoning both
 * is exact (an earlier tie with the seed is still evaluated).  Pass 1
 * adds each later word to a live range of offsets at once; counts only
 * grow, so the offsets it leaves out exceed lim already, and the exact
 * step judges the rest in offset order: the grids and the exact count
 * of an offset-at-a-time scan. */
static int64_t swar_grid(
    const uint64_t *win,       /* sum(mlens) consensus window words   */
    const uint64_t *winn,      /* their N-flag twins                  */
    const int64_t *mlens, int64_t num_cons, /* C consensus lengths */
    const uint64_t *rwords,    /* R x Wr packed read bases            */
    const uint64_t *rnmask,    /* R x Wr read N flags                 */
    const uint64_t *rvalid,    /* R x Wr even-bit validity            */
    const int32_t *rquals,     /* R x (Wr*32) qualities, zero padded  */
    const int32_t *qlow,       /* R x qstride sorted-qual prefix sums */
    const int64_t *nlens,      /* R read lengths                      */
    int64_t num_reads, int64_t wr, int64_t qstride, int64_t track_n,
    int32_t *c,                /* max(mlens) whole-read counts        */
    int64_t *out_whd,          /* C x R */
    int64_t *out_idx)          /* C x R */
{
    int64_t exact = 0;
    for (int64_t i = 0; i < num_cons; win += mlens[i], winn += mlens[i], i++)
        for (int64_t j = 0; j < num_reads; j++) {
            const uint64_t *rw = rwords + j * wr;
            const uint64_t *rn = rnmask + j * wr;
            const uint64_t *rv = rvalid + j * wr;
            const int32_t *rq = rquals + j * wr * 32;
            const int32_t *ql = qlow + j * qstride;
            const int64_t K = mlens[i] - nlens[j] + 1;
            const int64_t words = (nlens[j] + 31) / 32;
            /* pass 0: word-0 counts; the earliest of the fewest seeds */
            int32_t fewest = 64;
            for (int64_t k = 0; k < K; k++) {
                c[k] = __builtin_popcountll(mismatches(
                    win[k], winn[k], rw[0], rn[0], rv[0], track_n));
                fewest = c[k] < fewest ? c[k] : fewest;
            }
            int64_t seed = 0;
            while (c[seed] != fewest)
                seed++;
            const int64_t bound = exact_whd(win + seed, winn + seed, rw, rn,
                                            rv, rq, words, track_n);
            int64_t best = WHD_SENTINEL, best_idx = 0, lim = 0;
            exact++;
            /* qlow is nondecreasing: "qlow[cnt] <= bound && qlow[cnt]
             * < best", the condition to keep an offset, is cnt <= lim */
            while (lim < nlens[j] && ql[lim + 1] <= bound)
                lim++;
            /* pass 1, word-major over the live range [lo, hi) */
            int64_t lo = 0, hi = K;
            for (int64_t w = 1; w < words && lo < hi; w++) {
                while (lo < hi && c[lo] > lim)
                    lo++;
                while (lo < hi && c[hi - 1] > lim)
                    hi--;
                const uint64_t *ww = win + 32 * w, *wn = winn + 32 * w;
                for (int64_t k = lo; k < hi; k++)
                    c[k] += __builtin_popcountll(mismatches(
                        ww[k], wn[k], rw[w], rn[w], rv[w], track_n));
            }
            for (int64_t k = lo; k < hi; k++) {
                if (c[k] > lim)
                    continue;
                int64_t whd = k == seed ? bound : exact_whd(
                    win + k, winn + k, rw, rn, rv, rq, words, track_n);
                exact += k != seed;
                if (whd < best) {
                    best = whd;
                    best_idx = k;
                    while (lim >= 0 && ql[lim] >= best)
                        lim--;
                }
            }
            out_whd[i * num_reads + j] = best;
            out_idx[i * num_reads + j] = best_idx;
        }
    return exact;
}

/* 2-bit fold of one sequence, 32 bases a word: base t in bits 2(t%32)
 * and 2(t%32)+1 of word t/32, its N flag on the even bit.  Returns
 * whether any base is N. */
static int64_t pack_bases(const uint8_t *seq, int64_t len, uint64_t *words,
                          uint64_t *nflags)
{
    uint64_t any_n = 0;
    for (int64_t w = 0; w * 32 < len; w++) {
        const uint8_t *s = seq + w * 32;
        int64_t stop = len - w * 32 < 32 ? len - w * 32 : 32;
        uint64_t b = 0, n = 0;
        for (int64_t t = 0; t < stop; t++) {
            b |= (uint64_t)CODE[s[t]] << (2 * t);
            n |= (uint64_t)(s[t] == 'N') << (2 * t);
        }
        words[w] = b;
        nflags[w] = n;
        any_n |= n;
    }
    return any_n != 0;
}

/* Sliding-window words of one sequence in one backward pass: win[k]
 * holds bases k..k+31 (zero past the end) in pack_bases' layout, winn[k]
 * their N flags.  Returns whether any base is N. */
static int64_t pack_windows(const uint8_t *seq, int64_t len, uint64_t *win,
                            uint64_t *winn)
{
    uint64_t b = 0, n = 0, any_n = 0;
    for (int64_t k = len - 1; k >= 0; k--) {
        b = b << 2 | CODE[seq[k]];
        n = n << 2 | (seq[k] == 'N');
        win[k] = b;
        winn[k] = n;
        any_n |= n;
    }
    return any_n != 0;
}

/* One whole site: pack the consensuses into window words and the reads
 * into planes, then fill the C x R grids.  Read j is the nlens[j] bases
 * at buf + seq_at[j], its scores the characters at buf + qual_at[j] less
 * phred (33 for Sanger characters in a SAM buffer, 0 for raw scores).
 * A read's score sum fits int32: 256 bases x 255 at most.
 * Returns the exact offset count, or -1 when the scratch cannot be
 * allocated (grids untouched). */
int64_t repro_native_site(
    const uint8_t *cons_bytes, /* the C consensuses, joined           */
    const int64_t *mlens, int64_t num_cons,
    const uint8_t *buf, const int64_t *seq_at, const int64_t *qual_at,
    int64_t phred,
    const int64_t *nlens, int64_t num_reads,
    int64_t *out_whd,          /* C x R */
    int64_t *out_idx)          /* C x R */
{
    int64_t m_max = 0, m_sum = 0, n_max = 0;
    for (int64_t i = 0; i < num_cons; m_sum += mlens[i], i++)
        m_max = mlens[i] > m_max ? mlens[i] : m_max;
    for (int64_t j = 0; j < num_reads; j++)
        n_max = nlens[j] > n_max ? nlens[j] : n_max;
    const int64_t wr = (n_max + 31) / 32, qstride = n_max + 1;
    const int64_t plane = num_reads * wr;
    uint64_t *scratch = calloc(
        (size_t)((2 * m_sum + 3 * plane) * 8
                 + (plane * 32 + num_reads * qstride + m_max) * 4), 1);
    if (!scratch)
        return -1;
    uint64_t *win = scratch, *winn = win + m_sum;
    uint64_t *rwords = winn + m_sum, *rnmask = rwords + plane;
    uint64_t *rvalid = rnmask + plane;
    int32_t *rquals = (int32_t *)(rvalid + plane);
    int32_t *qlow = rquals + plane * 32;
    int32_t *c = qlow + num_reads * qstride;

    int64_t track_n = 0;
    for (int64_t i = 0, at = 0; i < num_cons; at += mlens[i], i++)
        track_n |= pack_windows(cons_bytes + at, mlens[i], win + at,
                                winn + at);
    int64_t hist[256] = {0};
    for (int64_t j = 0; j < num_reads; j++) {
        const int64_t n = nlens[j];
        track_n |= pack_bases(buf + seq_at[j], n, rwords + j * wr,
                              rnmask + j * wr);
        for (int64_t w = 0; w < wr; w++) {
            int64_t rest = n - 32 * w;
            rvalid[j * wr + w] = rest >= 32 ? EVEN : rest <= 0 ? 0
                                 : EVEN & ((1ULL << (2 * rest)) - 1);
        }
        /* qlow[c]: the c smallest qualities summed, by counting sort;
         * counts past the read's length never index it, so pad loudly */
        int32_t *rq = rquals + j * wr * 32, *ql = qlow + j * qstride;
        const uint8_t *q = buf + qual_at[j];
        uint8_t lo = 255, hi = 0;
        for (int64_t t = 0; t < n; t++) {
            const uint8_t v = (uint8_t)(q[t] - phred);
            rq[t] = v;
            hist[v]++;
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
        int64_t c = 0;
        for (int64_t v = lo; v <= hi; v++)
            for (; hist[v] > 0; hist[v]--, c++)
                ql[c + 1] = ql[c] + v;
        for (c = n + 1; c < qstride; c++)
            ql[c] = QLOW_PAD;
    }
    int64_t exact = swar_grid(win, winn, mlens, num_cons, rwords, rnmask,
                              rvalid, rquals, qlow, nlens, num_reads, wr,
                              qstride, track_n, c, out_whd, out_idx);
    free(scratch);
    return exact;
}

/* ---- the SAM tokenizer (repro_ingest_sam) ---- */

/* A line's columns, in repro.genomics.read's order: col[c * cap + i] is
 * column c of alignment line i. */
enum { LINE_AT, LINE_END, NAME_END, SEQ_AT, QUAL_AT, LENGTH, FLAG, POS,
       MAPQ, CONTIG, END };
/* CIGAR element codes, as repro.genomics.read.OPS orders them */
enum { OP_M, OP_I, OP_D, OP_S };

/* 1 for a nonzero byte, else 0, in byte-wide operations only. */
static inline uint8_t nonzero(uint8_t x)
{
    return (uint8_t)(x | (uint8_t)(0 - x)) >> 7;
}

/* 1..max plain ASCII digits as their value; -1 for anything else (a
 * sign, a space, '_', an empty field, more digits than max). */
static int64_t plain_digits(const uint8_t *s, int64_t len, int64_t max)
{
    int64_t value = 0;
    if (len < 1 || len > max)
        return -1;
    for (int64_t i = 0; i < len; i++) {
        if (s[i] < '0' || s[i] > '9')
            return -1;
        value = value * 10 + (s[i] - '0');
    }
    return value;
}

/* One alignment line of buf, its fields 0..10 at at[f] for len[f]
 * bytes and its newline (or the buffer's end) at eol, checked as
 * samlite.ingest checks it and written to column row i.  Its CIGAR
 * elements go to op[o] (code) and op[op_cap + o] (length) from o = *ops
 * on, written while o < op_cap and counted in *ops always.  -1
 * declines, else whether a mapped read's CIGAR carries an I or D.  The
 * contigs are names[name_at[k] .. name_at[k + 1]) of seq_at[k + 1] -
 * seq_at[k] bases; *last, the contig of the previous mapped line, is
 * tried first. */
static int64_t scan_line(const uint8_t *buf, const uint8_t **at,
    const int64_t *len, const uint8_t *eol, const uint8_t *names,
    const int64_t *name_at, const int64_t *seq_at, int64_t num_contigs,
    int64_t *col, int64_t cap, int64_t i, int64_t *op, int64_t op_cap,
    int64_t *ops, int64_t *last)
{
    const int64_t flag = plain_digits(at[1], len[1], 18);
    const int64_t pos = plain_digits(at[3], len[3], 18);
    const int64_t mapq = plain_digits(at[4], len[4], 18);
    if (flag < 0 || pos < 0 || mapq < 0 || mapq > 254 || len[9] != len[10])
        return -1;
    /* bases in ACGTN, qualities in '!'..'~': reductions that the
     * compiler vectorises (byte-wide, no branch, no table) */
    uint8_t bad = 0;
    const uint8_t *bases = at[9], *quals = at[10];
    for (int64_t k = 0; k < len[9]; k++) {
        const uint8_t b = bases[k];
        bad |= nonzero(b ^ 'A') & nonzero(b ^ 'C') & nonzero(b ^ 'G')
               & nonzero(b ^ 'T') & nonzero(b ^ 'N');
    }
    for (int64_t k = 0; k < len[10]; k++)
        bad |= (uint8_t)(quals[k] - '!') > '~' - '!';
    if (bad)
        return -1;
    col[LINE_AT * cap + i] = at[0] - buf;
    col[LINE_END * cap + i] = eol - buf;
    col[NAME_END * cap + i] = at[0] + len[0] - buf;
    col[SEQ_AT * cap + i] = at[9] - buf;
    col[QUAL_AT * cap + i] = at[10] - buf;
    col[LENGTH * cap + i] = len[9];
    col[MAPQ * cap + i] = mapq;
    const int64_t kept = flag & (0x10 | 0x400);
    /* unmapped: samlite.ingest checks neither its RNAME nor its CIGAR */
    if (flag & 4 || (len[2] == 1 && at[2][0] == '*')
        || (len[5] == 1 && at[5][0] == '*')) {
        col[FLAG * cap + i] = kept | 4;
        col[POS * cap + i] = col[END * cap + i] = 0;
        col[CONTIG * cap + i] = -1;
        return 0;
    }
    int64_t read_len = 0, ref_len = 0, indel = 0;
    const uint8_t *c = at[5], *stop = at[5] + len[5];
    if (c == stop || pos < 1)
        return -1;
    while (c < stop) {
        const uint8_t *digits = c;
        while (c < stop && *c >= '0' && *c <= '9')
            c++;
        const int64_t n = plain_digits(digits, c - digits, 9);
        if (n < 1 || c == stop)
            return -1;
        int64_t code;
        switch (*c++) {
        case 'M': read_len += n; ref_len += n; code = OP_M; break;
        case 'I': read_len += n; indel = 1; code = OP_I; break;
        case 'D': ref_len += n; indel = 1; code = OP_D; break;
        case 'S': read_len += n; code = OP_S; break;
        default: return -1;
        }
        if (*ops < op_cap) {
            op[*ops] = code;
            op[op_cap + *ops] = n;
        }
        (*ops)++;
    }
    if (read_len != len[9])
        return -1;
    int64_t k = *last;
    if (k >= num_contigs || name_at[k + 1] - name_at[k] != len[2]
        || memcmp(names + name_at[k], at[2], (size_t)len[2]) != 0) {
        k = 0;
        while (k < num_contigs && (name_at[k + 1] - name_at[k] != len[2]
               || memcmp(names + name_at[k], at[2], (size_t)len[2]) != 0))
            k++;
        if (k == num_contigs)
            return -1;
        *last = k;
    }
    if (pos - 1 + ref_len > seq_at[k + 1] - seq_at[k])
        return -1;
    col[FLAG * cap + i] = kept;
    col[POS * cap + i] = pos - 1;
    col[CONTIG * cap + i] = k;
    col[END * cap + i] = pos - 1 + ref_len;
    return indel;
}

/* The bases of every mapped, non-duplicate read's M blocks that differ
 * from the reference (seqs, contig k at seq_at[k]): (read, reference
 * position) pairs in read order, written to mism[j] and mism[mism_cap +
 * j] while j < mism_cap.  Returns how many there are. */
static int64_t mismatch_columns(const uint8_t *buf, const int64_t *col,
    int64_t cap, int64_t reads, const int64_t *op_at, const int64_t *op,
    int64_t op_cap, const uint8_t *seqs, const int64_t *seq_at,
    int64_t *mism, int64_t mism_cap)
{
    int64_t found = 0;
    for (int64_t i = 0; i < reads; i++) {
        if (col[CONTIG * cap + i] < 0 || col[FLAG * cap + i] & 0x400)
            continue;
        const uint8_t *q = buf + col[SEQ_AT * cap + i];
        const uint8_t *r = seqs + seq_at[col[CONTIG * cap + i]];
        int64_t ref = col[POS * cap + i];
        for (int64_t o = op_at[i]; o < op_at[i + 1]; o++) {
            const int64_t code = op[o], n = op[op_cap + o];
            if (code == OP_M) {
                int64_t t = 0;
                for (; t < n; t++) {
                    /* skip eight equal bases at a time */
                    uint64_t a, b;
                    if (t + 8 <= n) {
                        memcpy(&a, q + t, 8);
                        memcpy(&b, r + ref + t, 8);
                        if (a == b) {
                            t += 7;
                            continue;
                        }
                    }
                    if (q[t] != r[ref + t]) {
                        if (found < mism_cap) {
                            mism[found] = i;
                            mism[mism_cap + found] = ref + t;
                        }
                        found++;
                    }
                }
            }
            if (code != OP_D)
                q += n;
            if (code == OP_M || code == OP_D)
                ref += n;
        }
    }
    return found;
}

/* SAM lines in one pass: checked, and tokenized into columns.  A file
 * (file != 0) skips '@' header lines and may end in a newline; a served
 * job's body (file == 0) is its lines joined by '\n', and declines a
 * trailing one.  Either declines an empty line, and a file any '\r' (a
 * text-mode read would take it for a line end).  The call accepts only
 * lines samlite.ingest accepts, and declines what it is unsure of: any
 * byte >= 0x80 (so every buffer it accepts is UTF-8), a numeric field
 * that is not 1..18 plain digits.
 *
 * Returns -1 (declined), -2 (a capacity below counts: call again with
 * more room), else whether some mapped read's CIGAR carries an I or D.
 * counts gets the lines (at most, when -2), CIGAR elements and
 * mismatches found; col holds cap rows, op_at cap + 1 (read i's
 * elements are op_at[i] .. op_at[i + 1]).  Contig k is named
 * names[name_at[k] .. name_at[k + 1]) and has bases seqs[seq_at[k] ..
 * seq_at[k + 1]).  The mismatch columns are filled for a file, and for
 * a body with an INDEL: a body without one changes nothing. */
int64_t repro_ingest_sam(const uint8_t *buf, int64_t n, int64_t file,
    const uint8_t *names, const int64_t *index, const uint8_t *seqs,
    int64_t num_contigs, int64_t *work, int64_t cap, int64_t op_cap,
    int64_t *mism, int64_t mism_cap)
{
    /* work: counts[3], then col (COLUMNS x cap), op_at (cap + 1) and op
     * (2 x op_cap); index: name_at (num_contigs + 1), then seq_at */
    int64_t *counts = work, *col = work + 3, *op_at = col + 11 * cap;
    int64_t *op = op_at + cap + 1;
    const int64_t *name_at = index, *seq_at = index + num_contigs + 1;
    uint8_t high = 0, cr = 0;
    for (int64_t i = 0; i < n; i++) {
        high |= buf[i];
        cr |= buf[i] == '\r';
    }
    if (high & 0x80 || (file && cr))
        return -1;
    int64_t reads = 0, ops = 0, verdict = 0, last = 0;
    const uint8_t *p = buf, *end = buf + n;
    while (p < end) {
        const uint8_t *eol = memchr(p, '\n', (size_t)(end - p));
        if (eol == NULL)
            eol = end;
        else if (eol + 1 == end && !file)
            return -1;
        if (!(file && *p == '@') && reads == cap) {
            /* no row left: count the lines, for the call with room */
            counts[0] = reads;
            counts[1] = ops;
            counts[2] = 0;
            for (const uint8_t *q = p; q != NULL && q < end; counts[0]++)
                if ((q = memchr(q, '\n', (size_t)(end - q))) != NULL)
                    q++;
            return -2;
        }
        if (!(file && *p == '@')) {
            const uint8_t *at[11];
            int64_t len[11];
            for (int f = 0; f < 11; f++) {
                const uint8_t *tab = memchr(p, '\t', (size_t)(eol - p));
                if (tab == NULL) {
                    if (f < 10)
                        return -1;  /* fewer than 11 fields */
                    tab = eol;
                }
                at[f] = p;
                len[f] = tab - p;
                p = tab + 1;
            }
            op_at[reads] = ops;
            const int64_t line = scan_line(buf, at, len, eol, names, name_at,
                seq_at, num_contigs, col, cap, reads, op, op_cap, &ops,
                &last);
            if (line < 0)
                return -1;
            verdict |= line;
            reads++;
        }
        if (eol == end)
            break;
        p = eol + 1;
    }
    op_at[reads] = ops;
    counts[0] = reads;
    counts[1] = ops;
    counts[2] = 0;
    if (ops > op_cap)
        return -2;
    if (file || verdict) {
        counts[2] = mismatch_columns(buf, col, cap, reads, op_at, op, op_cap,
                                     seqs, seq_at, mism, mism_cap);
        if (counts[2] > mism_cap)
            return -2;
    }
    return verdict;
}
"""

_CC_FLAGS = ["-O3", "-march=native", "-funroll-loops", "-std=c99",
             "-shared", "-fPIC", "-fno-math-errno"]


def _native_cache_dir() -> Path:
    cache = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache) if cache else Path.home() / ".cache"
    return base / "repro" / "native"


class _CcBackend:
    """The whole-site kernel compiled from C, called through ctypes.

    ``CDLL`` releases the GIL for the length of each call, so one site
    -- packing and grid -- runs off the GIL on an engine thread.
    """

    def __init__(self, lib: ctypes.CDLL):
        def array(dtype):
            return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

        i64 = ctypes.c_int64
        self.site = lib.repro_native_site
        self.site.argtypes = [
            ctypes.c_char_p, array(np.int64), i64,
            ctypes.c_char_p, array(np.int64), array(np.int64), i64,
            array(np.int64), i64, array(np.int64), array(np.int64),
        ]
        self.site.restype = i64
        self.ingest = lib.repro_ingest_sam
        self.ingest.argtypes = [
            ctypes.c_char_p, i64, i64, ctypes.c_char_p, array(np.int64),
            ctypes.c_char_p, i64, array(np.int64), i64, i64,
            array(np.int64), i64,
        ]
        self.ingest.restype = i64


def _find_cc() -> Optional[str]:
    from shutil import which

    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and which(cc):
            return cc
    return None


def _library_path(cc: str, cpu: str) -> Path:
    """Per source, flags, compiler *and* CPU: -march=native builds must
    not be shared between machines (SIGILL instead of the degrade). The
    tag is two zlib checksums, not a hashlib digest: hashlib loads
    OpenSSL, 3.3 MB of resident memory in a process that needs none."""
    key = (_C_SOURCE + " ".join(_CC_FLAGS) + cc + cpu).encode()
    tag = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
    return _native_cache_dir() / f"whd_{tag}.so"


def _load_cc_backend() -> _CcBackend:
    """Compile (once, cached per source and CPU) and load the C kernel.

    Raises ``RuntimeError`` saying why when there is no compiler or the
    build fails; a library that will not load raises ``OSError``.
    """
    cc = _find_cc()
    if cc is None:
        raise RuntimeError("no C compiler found")
    try:  # the CPU feature line: what -march=native compiles for
        with open("/proc/cpuinfo") as handle:
            cpu = next((line for line in handle
                        if line.startswith(("flags", "Features"))), "")
    except OSError:
        cpu = ""
    lib_path = _library_path(cc, os.uname().machine + cpu)
    cache_dir = lib_path.parent
    if not lib_path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
            src = Path(tmp) / "whd.c"
            src.write_text(_C_SOURCE)
            out = Path(tmp) / "whd.so"
            proc = subprocess.run(
                [cc, *_CC_FLAGS, str(src), "-o", str(out)],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                first = proc.stderr.strip().partition("\n")[0]
                raise RuntimeError(
                    f"C build failed: {cc} exited {proc.returncode}"
                    + (f": {first}" if first else ""))
            # Atomic publish: concurrent workers may race the build.
            os.replace(out, lib_path)
    return _CcBackend(ctypes.CDLL(str(lib_path)))


# ---------------------------------------------------------------------
# backend resolution, warmup, availability
# ---------------------------------------------------------------------

#: ``False`` = not probed yet; ``None`` = probed, nothing usable.
_backend = False
_warm = False
_fallback_warned = False
#: Why ``_backend`` is ``None``: the degrade warning states it.
_why_unavailable = ""


def native_mode() -> str:
    """The ``REPRO_NATIVE`` policy, validated.

    A misspelt value must not silently mean ``auto``: ``REPRO_NATIVE=of``
    would run the compiled tier while CI believed it disabled.
    """
    raw = os.environ.get(_ENV_NATIVE, "")
    mode = raw.strip().lower() or "auto"
    if mode not in _NATIVE_MODES:
        raise ValueError(
            f"{_ENV_NATIVE}={raw!r} is not one of {'|'.join(_NATIVE_MODES)}"
        )
    return mode


def _probe_backend():
    """Resolve the compiled backend per ``REPRO_NATIVE``. A backend
    that fails to build or load degrades to ``None``, with the reason
    recorded for the degrade warning; only an unknown ``REPRO_NATIVE``
    value raises."""
    global _why_unavailable
    if native_mode() in _OFF_MODES:
        _why_unavailable = f"{_ENV_NATIVE}=off"
        return None
    try:
        return _load_cc_backend()
    except Exception as error:  # noqa: BLE001 - degrade, never raise
        _why_unavailable = (str(error) if isinstance(error, RuntimeError)
                            else f"load error: {error!r}")
        logger.debug("native backend probe failed: %s", _why_unavailable)
        return None


def get_backend():
    """The resolved compiled backend, or ``None``. Probes at most once
    per process (call :func:`reset_backend` after changing
    ``REPRO_NATIVE`` mid-process -- tests do)."""
    global _backend
    if _backend is False:
        _backend = _probe_backend()
    return _backend


def reset_backend() -> None:
    """Forget the probed backend and warmup state (test hook)."""
    global _backend, _warm, _fallback_warned, _why_unavailable
    _backend = False
    _warm = False
    _fallback_warned = False
    _why_unavailable = ""


def native_available() -> bool:
    """Whether a compiled backend is usable in this process."""
    return get_backend() is not None


def warmup_native() -> bool:
    """Compile and exercise the site kernel once; returns availability.

    Idempotent and exception-safe. The first call may compile the
    shared library; running it here -- before the engine starts its
    threads, or at the serving plane's startup -- keeps that one-time
    cost out of any timed region or served request.
    """
    global _backend, _warm, _why_unavailable
    if _warm:
        return native_available()
    _warm = True
    backend = get_backend()
    if backend is None:
        return False
    try:
        site = RealignmentSite(
            chrom="warmup", start=0,
            consensuses=("CCTTAGA", "CCTAGAA"),
            reads=("TGAA", "NAGA"),
            quals=(np.array([10, 20, 45, 10], dtype=np.uint8),
                   np.array([7, 7, 7, 7], dtype=np.uint8)),
        )
        min_whd_grid_native(site)
    except Exception as error:  # noqa: BLE001 - degrade, never raise
        logger.warning("native kernel warmup failed (%r); "
                       "falling back to bitpack", error)
        _backend = None
        _why_unavailable = f"warmup failed: {error!r}"
        return False
    return True


# ---------------------------------------------------------------------
# the grid function
# ---------------------------------------------------------------------

def min_whd_grid_native(
    site: RealignmentSite, scoring: str = "similarity", telemetry=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 grids through the compiled tier (kernel ``native``):
    one C call packs the site's bases and qualities, read where
    :meth:`~repro.realign.site.RealignmentSite.spans` says they are,
    and runs the grid.

    ``telemetry`` gets ``native.offsets_screened`` (every in-range
    offset) and ``native.offsets_exact`` (each pair's seed plus the
    offsets that survived pruning). With no usable backend the call
    degrades to :func:`repro.engine.bitpack.min_whd_grid_bitpacked`
    (identical grids, its ``bitpack.*`` counters), counts
    ``kernel.native.unavailable`` and warns once per process -- callers
    never see an error. ``scoring`` is the kernel contract's; this
    kernel fills every cell whatever the scoring.
    """
    global _fallback_warned
    backend = get_backend()
    if backend is None:
        if telemetry is not None:
            telemetry.count("kernel.native.unavailable", 1)
        if not _fallback_warned:
            _fallback_warned = True
            logger.warning(
                "native kernel tier unavailable (%s); serving sites "
                "through the interpreted bitpack kernel instead",
                _why_unavailable,
            )
        from repro.engine.bitpack import min_whd_grid_bitpacked

        return min_whd_grid_bitpacked(site, scoring, telemetry)
    C, R = site.num_consensuses, site.num_reads
    out_whd = np.empty((C, R), dtype=np.int64)
    out_idx = np.empty((C, R), dtype=np.int64)
    exact = backend.site(
        "".join(site.consensuses).encode("ascii"),
        np.fromiter(map(len, site.consensuses), dtype=np.int64, count=C),
        C, *site.spans(), site.lengths,
        R, out_whd, out_idx,
    )
    if exact < 0:  # nothing written: the C scratch allocation failed
        raise MemoryError("native kernel: no memory for a site's planes")
    if telemetry is not None:
        telemetry.count("native.offsets_screened", site.total_offsets())
        telemetry.count("native.offsets_exact", exact)
    return out_whd, out_idx


# ---------------------------------------------------------------------
# the SAM tokenizer
# ---------------------------------------------------------------------

_DECLINED, _GROW = -1, -2


def sam_ingester(reference) -> Optional[Callable[..., Optional[ReadBatch]]]:
    """The compiled one-pass reading of SAM bytes against ``reference``,
    or ``None`` when no compiled backend is usable.

    ``ingest(buffer, file=False)`` returns the
    :class:`~repro.genomics.read.ReadBatch` of ``buffer``'s alignment
    lines -- a file's bytes (``file=True``: ``@`` header lines skipped)
    or a served job's body (its lines joined by ``"\\n"``) -- with its
    reads as views of ``buffer``; or ``None`` when the pass declines.
    It accepts only what its Python twin,
    :func:`repro.genomics.samlite.ingest`, accepts on the same bytes and
    ``file`` flag, with the same columns, and declines anything it is
    unsure of (any byte >= 0x80, an empty line, a file's ``\\r``, a
    body's trailing newline, a numeric field that is not 1..18 plain
    digits, a CIGAR outside ``(\\d+[MIDS])+`` with positive lengths,
    ...), which the caller then reads in Python. The batch's
    :meth:`~repro.genomics.read.ReadBatch.mismatches` come from the same
    pass for a file, and for a body that has an INDEL.
    """
    backend = get_backend()
    if backend is None:
        return None
    names = [contig.name.encode("utf-8", "surrogatepass")
             for contig in reference]
    blob = b"".join(names)
    index = np.cumsum([0, *map(len, names), 0,
                       *(len(contig) for contig in reference)],
                      dtype=np.int64)
    index[len(names) + 1:] -= index[len(names)]  # seq_at restarts at 0
    bases = "".join(contig.sequence for contig in reference).encode("ascii")
    contigs, count = tuple(reference.contig_names), len(names)
    call = backend.ingest

    def ingest(buffer: bytes, file: bool = False) -> Optional[ReadBatch]:
        # Room for 128-byte lines (a call with too little is told what
        # it needs); an untouched page costs no memory.
        cap = len(buffer) // 128 + 16
        op_cap, mism_cap = 2 * cap, (8 if file else 2) * cap
        while True:
            work = np.empty(3 + (COLUMNS + 1) * cap + 1 + 2 * op_cap,
                            dtype=np.int64)
            mism = np.empty((2, mism_cap), dtype=np.int64)
            verdict = call(buffer, len(buffer), file, blob, index, bases,
                           count, work, cap, op_cap, mism, mism_cap)
            if verdict != _GROW:
                break
            cap, op_cap, mism_cap = (max(had, need) for had, need in zip(
                (cap, op_cap, mism_cap), work[:3].tolist()))
        if verdict == _DECLINED:
            return None
        reads, found, mismatched = work[:3].tolist()
        columns = work[3:3 + COLUMNS * cap].reshape(COLUMNS, cap)
        op_at = work[3 + COLUMNS * cap:3 + (COLUMNS + 1) * cap + 1]
        ops = work[3 + (COLUMNS + 1) * cap + 1:].reshape(2, op_cap)
        return ReadBatch(
            contigs, buffer=buffer, columns=columns[:, :reads],
            op_at=op_at[:reads + 1], ops=ops[:, :found],
            mismatches=(mism[0, :mismatched], mism[1, :mismatched])
            if file or verdict else None)

    return ingest


__all__ = [
    "get_backend",
    "min_whd_grid_native",
    "native_available",
    "native_mode",
    "reset_backend",
    "sam_ingester",
    "warmup_native",
]
