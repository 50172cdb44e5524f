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

1. **2-bit pack** (host side, reusing :mod:`repro.engine.bitpack`'s
   layout): bases 32-per-``uint64``, an N-flag plane, per-word validity
   masks, bit-identical to the interpreted kernel's packing.
2. **XOR+fold SWAR mismatch masks** with the N plane folded in and
   padding lanes masked off -- one ``popcount`` per word gives each
   offset's mismatch *count*.
3. **Seeded pruning** (the paper's Section IV): a one-word pre-scan
   seeds each pair's bound with the exact WHD of its offset with the
   fewest word-0 mismatches; any offset is abandoned word by word once
   ``qlow[cnt]`` (its ``cnt`` smallest qualities, a lower bound on its
   WHD) exceeds that bound or reaches the running minimum -- exactly.
4. **Exact unpack-and-dot** for the surviving offsets: iterate the set
   mismatch bits and sum the read's qualities at those lanes.

The compiled entry points are a small C translation of those loops
(the **cc** backend), built once with the system C compiler into a
cached shared library and called through ``ctypes``.

It is not required: when no C compiler works, every entry point
degrades to the interpreted bitpack kernel, counting
``kernel.native.unavailable`` in telemetry and logging one warning --
never an error (the ``REPRO_NATIVE=off`` CI pass pins this). The
``REPRO_NATIVE`` environment variable disables the tier (``off``) or
leaves the default probe (``auto``); any other value is a
``ValueError``.

Warmup: the first call into the backend may pay the one-time
shared-library build. So that this cost cannot land in a timed chunk
or a served request's latency, :func:`warmup_native` compiles and
exercises both grid kernels on a tiny site. The engine calls it once,
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
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.bitpack import (
    BASES_PER_WORD,
    _CODE_LUT,
    _ConsensusSet,
    realign_site_bitpacked,
)
from repro.realign.site import RealignmentSite
from repro.realign.whd import (
    SiteResult,
    reads_realignments,
    score_and_select,
)

logger = logging.getLogger(__name__)

_ENV_NATIVE = "REPRO_NATIVE"
_OFF_MODES = ("off", "none", "0", "disabled")
_NATIVE_MODES = ("auto",) + _OFF_MODES

#: Below this ``C * R * K * n`` comparison volume the compiled scalar
#: grid kernel runs instead of the SWAR pipeline: tiny sites spend more
#: in the host-side packing than the word ops save. Both paths are
#: exact, so the threshold affects time only, never output.
_SCALAR_VOLUME_CUTOFF = 4096

#: ``qlow`` rows are padded to the longest read; pad cells are never
#: indexed (a pair's mismatch count cannot exceed its own read length)
#: but are filled with this so an indexing bug screens loudly.
_QLOW_PAD = np.int64(1) << 40


# ---------------------------------------------------------------------
# the C translation of the grid loops (the "cc" backend)
# ---------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>

static const uint64_t EVEN = 0x5555555555555555ULL;
static const int64_t WHD_SENTINEL = 2147483647;

/* One word's XOR+fold mismatch mask, N plane in, padding masked off. */
static inline uint64_t mismatches(uint64_t c, uint64_t cn, uint64_t r,
                                  uint64_t rn, uint64_t v, int64_t track_n)
{
    uint64_t x = c ^ r;
    return (((x | (x >> 1)) & EVEN) | (track_n ? cn ^ rn : 0)) & v;
}

/* Exact WHD of one window: the read's qualities at the set lanes. */
static int64_t exact_whd(const uint64_t *win, const uint64_t *winn,
    const uint64_t *rw, const uint64_t *rn, const uint64_t *rv,
    const int64_t *rq, int64_t wr, int64_t track_n)
{
    int64_t whd = 0;
    for (int64_t w = 0; w < wr; w++)
        for (uint64_t m = mismatches(win[w], winn[w], rw[w], rn[w], rv[w],
                                     track_n); m; m &= m - 1)
            whd += rq[w * 32 + (__builtin_ctzll(m) >> 1)];
    return whd;
}

/* SWAR grid: earliest minimum WHD per (consensus, read) pair.  The
 * seed (fewest word-0 mismatches) attains `bound`, so the minimum is
 * <= bound; an offset with qlow[cnt] > bound loses to it strictly, one
 * with qlow[cnt] >= best cannot win a strict < update: abandoning both
 * is exact (an earlier tie with the seed is still evaluated). */
int64_t repro_native_swar_grid(
    const uint64_t *shifted,   /* C x 32 x W consensus phase tables   */
    const uint64_t *shifted_n, /* C x 32 x W consensus N-flag tables  */
    const int64_t *mlens,      /* C consensus lengths                 */
    int64_t num_cons, int64_t width,
    const uint64_t *rwords,    /* R x Wr packed read bases            */
    const uint64_t *rnmask,    /* R x Wr read N flags                 */
    const uint64_t *rvalid,    /* R x Wr even-bit validity            */
    const int64_t *rquals,     /* R x (Wr*32) qualities, zero padded  */
    const int64_t *qlow,       /* R x qstride sorted-qual prefix sums */
    const int64_t *nlens,      /* R read lengths                      */
    int64_t num_reads, int64_t wr, int64_t qstride,
    int64_t track_n,
    uint64_t *w0, uint64_t *n0, int16_t *c0, /* max(mlens) scratch    */
    int64_t *out_whd,          /* C x R */
    int64_t *out_idx)          /* C x R */
{
    int64_t exact = 0;
    for (int64_t i = 0; i < num_cons; i++) {
        const uint64_t *cons = shifted + i * 32 * width;
        const uint64_t *consn = shifted_n + i * 32 * width;
        /* word 0 of each offset's window, in offset order: vectorises */
        for (int64_t k = 0; k < mlens[i]; k++) {
            w0[k] = cons[(k & 31) * width + (k >> 5)];
            n0[k] = consn[(k & 31) * width + (k >> 5)];
        }
        for (int64_t j = 0; j < num_reads; j++) {
            const uint64_t *rw = rwords + j * wr;
            const uint64_t *rn = rnmask + j * wr;
            const uint64_t *rv = rvalid + j * wr;
            const int64_t *rq = rquals + j * wr * 32;
            const int64_t *ql = qlow + j * qstride;
            int64_t K = mlens[i] - nlens[j] + 1;
            /* pass 0: word-0 counts; the earliest of the fewest seeds */
            int16_t fewest = 64;
            for (int64_t k = 0; k < K; k++) {
                c0[k] = (int16_t)__builtin_popcountll(mismatches(
                    w0[k], n0[k], rw[0], rn[0], rv[0], track_n));
                fewest = c0[k] < fewest ? c0[k] : fewest;
            }
            int64_t seed = 0;
            while (c0[seed] != fewest)
                seed++;
            int64_t at = (seed & 31) * width + (seed >> 5);
            const int64_t bound = exact_whd(cons + at, consn + at, rw, rn,
                                            rv, rq, wr, track_n);
            int64_t best = WHD_SENTINEL, best_idx = 0, lim = 0;
            exact++;
            /* qlow is nondecreasing: "qlow[cnt] <= bound && qlow[cnt]
             * < best", the condition to keep scanning, is cnt <= lim */
            while (lim < nlens[j] && ql[lim + 1] <= bound)
                lim++;
            for (int64_t k = 0; k < K; k++) {
                int64_t cnt = c0[k];
                at = (k & 31) * width + (k >> 5);
                for (int64_t w = 1; w < wr && cnt <= lim; w++)
                    cnt += __builtin_popcountll(mismatches(
                        cons[at + w], consn[at + w], rw[w], rn[w], rv[w],
                        track_n));
                if (cnt > lim)
                    continue;
                int64_t whd = k == seed ? bound : exact_whd(
                    cons + at, consn + at, rw, rn, rv, rq, wr, track_n);
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
    }
    return exact;
}

/* Scalar-fallback grid: the paper's Algorithm 1 loops over raw ASCII
 * bytes, for sites too small to amortize the packing. */
void repro_native_scalar_grid(
    const uint8_t *cons,   /* C x mstride, zero padded */
    const int64_t *mlens,
    int64_t num_cons, int64_t mstride,
    const uint8_t *reads,  /* R x nstride, zero padded */
    const int64_t *nlens,
    int64_t num_reads, int64_t nstride,
    const int64_t *rquals, /* R x nstride */
    int64_t *out_whd,
    int64_t *out_idx)
{
    for (int64_t i = 0; i < num_cons; i++) {
        const uint8_t *cr = cons + i * mstride;
        for (int64_t j = 0; j < num_reads; j++) {
            const uint8_t *rd = reads + j * nstride;
            const int64_t *rq = rquals + j * nstride;
            int64_t n = nlens[j];
            int64_t K = mlens[i] - n + 1;
            int64_t best = WHD_SENTINEL;
            int64_t best_idx = 0;
            for (int64_t k = 0; k < K; k++) {
                int64_t whd = 0;
                for (int64_t t = 0; t < n; t++) {
                    if (cr[k + t] != rd[t])
                        whd += rq[t];
                }
                if (whd < best) {
                    best = whd;
                    best_idx = k;
                }
            }
            out_whd[i * num_reads + j] = best;
            out_idx[i * num_reads + j] = best_idx;
        }
    }
}
"""

_CC_FLAGS = ["-O3", "-march=native", "-funroll-loops", "-std=c99",
             "-shared", "-fPIC", "-fno-math-errno"]


def _native_cache_dir() -> Path:
    cache = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache) if cache else Path.home() / ".cache"
    return base / "repro" / "native"


class _CcBackend:
    """The grid kernels compiled from C, called through ctypes."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL):
        self._swar = lib.repro_native_swar_grid
        self._swar.restype = ctypes.c_int64
        self._scalar = lib.repro_native_scalar_grid
        self._scalar.restype = None

    @staticmethod
    def _ptr(arr: np.ndarray):
        return arr.ctypes.data_as(ctypes.c_void_p)

    def swar_grid(self, shifted, shifted_n, mlens, width, rwords, rnmask,
                  rvalid, rquals, qlow, nlens, wr, qstride, track_n,
                  out_whd, out_idx) -> int:
        # Pass 0's scratch, sized by the site (SiteLimits is configurable)
        w0, n0 = np.empty((2, int(mlens.max())), dtype=np.uint64)
        c0 = np.empty(w0.size, dtype=np.int16)
        return int(self._swar(
            self._ptr(shifted), self._ptr(shifted_n), self._ptr(mlens),
            ctypes.c_int64(mlens.size), ctypes.c_int64(width),
            self._ptr(rwords), self._ptr(rnmask), self._ptr(rvalid),
            self._ptr(rquals), self._ptr(qlow), self._ptr(nlens),
            ctypes.c_int64(nlens.size), ctypes.c_int64(wr),
            ctypes.c_int64(qstride), ctypes.c_int64(int(track_n)),
            self._ptr(w0), self._ptr(n0), self._ptr(c0),
            self._ptr(out_whd), self._ptr(out_idx),
        ))

    def scalar_grid(self, cons, mlens, mstride, reads, nlens, nstride,
                    rquals, out_whd, out_idx) -> None:
        self._scalar(
            self._ptr(cons), self._ptr(mlens),
            ctypes.c_int64(mlens.size), ctypes.c_int64(mstride),
            self._ptr(reads), self._ptr(nlens),
            ctypes.c_int64(nlens.size), ctypes.c_int64(nstride),
            self._ptr(rquals), self._ptr(out_whd), self._ptr(out_idx),
        )


def _find_cc() -> Optional[str]:
    from shutil import which

    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and which(cc):
            return cc
    return None


def _library_path(cc: str, cpu: str) -> Path:
    """Per source, flags, compiler *and* CPU: -march=native builds must
    not be shared between machines (SIGILL instead of the degrade)."""
    tag = hashlib.sha256(
        (_C_SOURCE + " ".join(_CC_FLAGS) + cc + cpu).encode()
    ).hexdigest()[:16]
    return _native_cache_dir() / f"whd_{tag}.so"


def _load_cc_backend() -> Optional[_CcBackend]:
    """Compile (once, cached per source and CPU) and load the C kernels."""
    cc = _find_cc()
    if cc is None:
        return None
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
                logger.debug("native cc build failed: %s", proc.stderr)
                return None
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


def env_number(name: str, parse, default, accept, form: str, env=None):
    """One validated ``REPRO_*`` number from the environment.

    Unset or blank means ``default``; anything ``parse`` rejects or
    ``accept`` refuses is a one-line :class:`ValueError` naming the
    variable, the bad value and the accepted ``form`` -- never
    ``int()``'s traceback from wherever the value was first used.

    >>> env_number("REPRO_CHAOS_SEED", int, 0, lambda n: True,
    ...            "an integer", env={"REPRO_CHAOS_SEED": "abc"})
    Traceback (most recent call last):
        ...
    ValueError: REPRO_CHAOS_SEED='abc' is not an integer
    """
    env = os.environ if env is None else env
    text = env.get(name, "").strip()
    if not text:
        return default
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise ValueError(f"{name}={text!r} is not {form}")
    return value


def _probe_backend():
    """Resolve the compiled backend per ``REPRO_NATIVE``. A backend
    that fails to load degrades to ``None``; only an unknown
    ``REPRO_NATIVE`` value raises."""
    if native_mode() in _OFF_MODES:
        return None
    try:
        return _load_cc_backend()
    except Exception as error:  # noqa: BLE001 - degrade, never raise
        logger.debug("native backend probe failed: %r", error)
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
    global _backend, _warm, _fallback_warned
    _backend = False
    _warm = False
    _fallback_warned = False


def native_available() -> bool:
    """Whether a compiled backend is usable in this process."""
    return get_backend() is not None


def native_backend_name() -> Optional[str]:
    """``"cc"``, or ``None`` when no compiled backend is usable."""
    backend = get_backend()
    return None if backend is None else backend.name


def warmup_native() -> bool:
    """Compile and exercise both grid kernels once; returns availability.

    Idempotent and exception-safe. The first call may compile the
    shared library; running it here -- before the engine starts its
    threads, or at the serving plane's startup -- keeps that one-time
    cost out of any timed region or served request.
    """
    global _backend, _warm
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
        _grids_native(site, backend, force_swar=True)
        _grids_native(site, backend, force_swar=False)
    except Exception as error:  # noqa: BLE001 - degrade, never raise
        logger.warning("native kernel warmup failed (%r); "
                       "falling back to bitpack", error)
        _backend = None
        return False
    return True


# ---------------------------------------------------------------------
# host-side packing + grid entry points
# ---------------------------------------------------------------------

def _pack_reads(
    reads: Sequence[str], quals: Sequence[np.ndarray], lengths: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """All reads padded to one word count, planes ready for the kernel.

    Unlike :class:`repro.engine.bitpack._ReadGroup` (which groups reads
    by word count to keep numpy tensors tight), the compiled kernel
    pays per *valid* word only via the validity mask, so a single
    padded layout is simpler and just as fast. One vectorised pass.
    """
    n_max = int(lengths.max())
    Wr = (n_max + BASES_PER_WORD - 1) // BASES_PER_WORD
    span = Wr * BASES_PER_WORD
    R = len(reads)
    in_len = np.arange(span)[None, :] < lengths[:, None]
    mat = np.zeros((R, span), dtype=np.uint8)
    mat[in_len] = np.frombuffer("".join(reads).encode("ascii"),
                                dtype=np.uint8)
    q8 = np.zeros((R, span), dtype=np.uint8)
    q8[in_len] = np.concatenate(quals)

    def fold(lanes: np.ndarray) -> np.ndarray:
        # four 2-bit lanes a byte, little-endian: bitpack's word layout
        q = lanes.reshape(R, span // 4, 4)
        packed = q[..., 0] | q[..., 1] << 2 | q[..., 2] << 4 | q[..., 3] << 6
        return packed.view("<u8").astype(np.uint64, copy=False)

    words = fold(_CODE_LUT[mat])
    n_flags = mat == ord("N")
    nmask = fold(n_flags.view(np.uint8))
    valid = fold(in_len.view(np.uint8))
    # Sorted-quality prefix sums: qlow[c] bounds the WHD of any offset
    # with c mismatches from below. Pads sort last (Phred <= 93), then
    # read _QLOW_PAD: counts never exceed the read's own length.
    pad = ~in_len[:, :n_max]
    qlow = np.zeros((R, n_max + 1), dtype=np.int64)
    qlow[:, 1:] = np.cumsum(np.sort(np.where(pad, 255, q8[:, :n_max]),
                                    axis=1, kind="stable"), axis=1)
    qlow[:, 1:][pad] = _QLOW_PAD
    return (words, nmask, valid, q8.astype(np.int64), qlow,
            bool(n_flags.any()), Wr)


def _grids_native(
    site: RealignmentSite, backend, force_swar: Optional[bool] = None
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Fill the ``(C, R)`` grids through the compiled backend."""
    C, R = site.num_consensuses, site.num_reads
    cons_arrays = site.consensus_arrays()
    mlens = np.array([a.size for a in cons_arrays], dtype=np.int64)
    nlens = np.fromiter(map(len, site.reads), dtype=np.int64, count=R)
    out_whd = np.empty((C, R), dtype=np.int64)
    out_idx = np.empty((C, R), dtype=np.int64)
    m_max = int(mlens.max())
    n_max = int(nlens.max())
    volume = C * R * (m_max - int(nlens.min()) + 1) * n_max
    use_swar = (volume > _SCALAR_VOLUME_CUTOFF if force_swar is None
                else force_swar)
    if not use_swar:
        cmat = np.zeros((C, m_max), dtype=np.uint8)
        for row, arr in enumerate(cons_arrays):
            cmat[row, : arr.size] = arr
        rmat = np.zeros((R, n_max), dtype=np.uint8)
        qmat = np.zeros((R, n_max), dtype=np.int64)
        for row, (arr, q) in enumerate(zip(site.read_arrays(), site.quals)):
            rmat[row, : arr.size] = arr
            qmat[row, : arr.size] = np.asarray(q, dtype=np.int64)
        backend.scalar_grid(cmat, mlens, m_max, rmat, nlens, n_max,
                            qmat, out_whd, out_idx)
        # The scalar loops evaluate every in-range offset exactly.
        return out_whd, out_idx, int((np.add.outer(mlens, -nlens) + 1)
                                     .clip(min=0).sum())
    (words, nmask, valid, qmat, qlow, reads_have_n,
     Wr) = _pack_reads(site.reads, site.quals, nlens)
    cset = _ConsensusSet.build(cons_arrays, pad_words=Wr + 1)
    track_n = cset.has_n or reads_have_n
    shifted = np.ascontiguousarray(cset.shifted)
    shifted_n = np.ascontiguousarray(cset.shifted_n)
    exact = backend.swar_grid(
        shifted, shifted_n, mlens, shifted.shape[2],
        np.ascontiguousarray(words), np.ascontiguousarray(nmask),
        np.ascontiguousarray(valid), np.ascontiguousarray(qmat),
        np.ascontiguousarray(qlow), nlens, Wr, qlow.shape[1],
        track_n, out_whd, out_idx,
    )
    return out_whd, out_idx, int(exact)


def min_whd_grid_native(
    site: RealignmentSite,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 grids through the compiled tier; drop-in for
    ``min_whd_grid``. Degrades to the interpreted bitpack kernel when
    no backend is usable -- identical output either way.

    >>> from repro.experiments.figure4 import build_site
    >>> from repro.realign.whd import min_whd_grid
    >>> ref = min_whd_grid(build_site())
    >>> got = min_whd_grid_native(build_site())
    >>> bool((got[0] == ref[0]).all() and (got[1] == ref[1]).all())
    True
    """
    backend = get_backend()
    if backend is None:
        from repro.engine.bitpack import min_whd_grid_bitpacked

        return min_whd_grid_bitpacked(site)
    min_whd, min_idx, _ = _grids_native(site, backend)
    return min_whd, min_idx


def realign_site_native(
    site: RealignmentSite,
    scoring: str = "similarity",
    telemetry=None,
) -> SiteResult:
    """Run Algorithms 1 + 2 on one site through the compiled tier.

    Emits the same semantic ``kernel.*`` counters as every other kernel
    plus ``native.offsets_exact`` (each pair's seed plus the offsets
    that survived pruning). With no usable backend the call degrades to
    :func:`repro.engine.bitpack.realign_site_bitpacked`, counting
    ``kernel.native.unavailable`` -- callers never see an error.

    End to end on the Figure 4 site, identically to the scalar kernel:

    >>> from repro.experiments.figure4 import build_site
    >>> from repro.realign.whd import realign_site
    >>> site = build_site()
    >>> realign_site_native(site).same_outputs(realign_site(site))
    True
    """
    global _fallback_warned
    backend = get_backend()
    if backend is None:
        if telemetry is not None:
            telemetry.count("kernel.native.unavailable", 1)
        if not _fallback_warned:
            _fallback_warned = True
            logger.warning(
                "native kernel tier unavailable (no C compiler, or "
                "REPRO_NATIVE=off); serving sites through the "
                "interpreted bitpack kernel instead"
            )
        return realign_site_bitpacked(site, scoring=scoring,
                                      telemetry=telemetry)
    min_whd, min_idx, exact_offsets = _grids_native(site, backend)
    best_cons, scores = score_and_select(min_whd, method=scoring)
    realign, new_pos = reads_realignments(
        min_whd, min_idx, best_cons, site.start
    )
    if telemetry is not None:
        # sum of m - n + 1 over every pair (the site enforces m >= n)
        C, R = min_whd.shape
        offsets_total = (R * sum(map(len, site.consensuses))
                         - C * (sum(map(len, site.reads)) - R))
        telemetry.count("kernel.sites", 1)
        telemetry.count("kernel.grid_cells", int(min_whd.size))
        telemetry.count("kernel.offsets_evaluated", offsets_total)
        telemetry.count("kernel.whd_mass", int(min_whd.sum()))
        telemetry.count("kernel.reads_realigned", int(realign.sum()))
        telemetry.count("kernel.consensus_selected", int(best_cons))
        telemetry.count("native.offsets_screened", offsets_total)
        telemetry.count("native.offsets_exact", exact_offsets)
    return SiteResult(
        best_cons=best_cons,
        scores=scores,
        min_whd=min_whd,
        min_whd_idx=min_idx,
        realign=realign,
        new_pos=new_pos,
    )


__all__ = [
    "env_number",
    "get_backend",
    "min_whd_grid_native",
    "native_available",
    "native_backend_name",
    "native_mode",
    "realign_site_native",
    "reset_backend",
    "warmup_native",
]
