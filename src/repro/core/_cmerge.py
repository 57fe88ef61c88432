"""Optional compiled merge kernel for the uniform pairwise hot path.

The numpy kernels in :mod:`repro.core.fastdist` are memory-bound: every
elementwise pass over an ``(N, 2m)`` intermediate streams hundreds of
megabytes at fleet scale.  The classic two-pointer ECDF merge needs none
of those intermediates -- one register-resident walk per pair -- but it
is a scalar loop, so it only pays off compiled.

This module compiles a ~30-line C kernel at first use with whatever
``cc`` the host already has (no build system, no new dependency) and
loads it through :mod:`ctypes`.  Everything degrades gracefully: if
there is no compiler or compilation fails, :func:`load` returns
``None`` and callers fall back to the pure numpy kernels.  The C path
is an *accelerator*, never a requirement.

Kernel contract (mirrors the fastdist exactness argument): rows are
sorted ascending with one ``+inf`` sentinel appended, so the merge
loop needs no bounds checks; the Eq. (2) integrand over cumulative
counts ``(ca, cb)`` is precomputed into a ``(m+1) x (m+1)`` table
(one rounding per entry, at least as accurate as the scalar
reference), and each merged segment adds ``table[ca][cb] * width``.
Tie order only permutes zero-width segments, so it cannot change the
sum.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile

import numpy as np

__all__ = ["load", "available"]

_SOURCE = r"""
/* data: n rows of m+1 doubles; row = sorted sample, row[m] = +inf.
 * tbl:  (m+1)*(m+1) doubles; tbl[ca*(m+1)+cb] = Eq. (2) integrand
 *       after ca a-observations and cb b-observations.
 * out:  n*n doubles; unnormalized gap integrals, symmetric, diag 0.
 *
 * Indexing trick: after k merge steps ca + cb == k, so the table
 * offset tbl[ca*(m+1) + (k-ca)] collapses to tbl[ca*m + k].  The
 * sentinel makes the take-a test branch-free (inf never wins a <=
 * against a remaining real observation).
 */
void pairwise_gap_integrals(const double *data, long n, long m,
                            const double *tbl, double *out)
{
    long w = m + 1;
    long steps = 2 * m;
    for (long i = 0; i < n; ++i) {
        const double *a = data + i * w;
        for (long j = i + 1; j < n; ++j) {
            const double *b = data + j * w;
            long ca = 0, cb = 0;
            double integ = 0.0;
            double x_prev = a[0] <= b[0] ? a[0] : b[0];
            for (long k = 0; k < steps; ++k) {
                double f = tbl[ca * m + k];
                double av = a[ca], bv = b[cb];
                long take_a = (av <= bv);
                double x = take_a ? av : bv;
                ca += take_a;
                cb += 1 - take_a;
                integ += f * (x - x_prev);
                x_prev = x;
            }
            out[i * n + j] = integ;
            out[j * n + i] = integ;
        }
    }
}
"""

_lib = None
_tried = False


def _compile() -> ctypes.CDLL | None:
    compiler = (shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))
    if compiler is None:
        return None
    workdir = tempfile.mkdtemp(prefix="repro-cmerge-")
    atexit.register(shutil.rmtree, workdir, ignore_errors=True)
    src = os.path.join(workdir, "cmerge.c")
    lib_path = os.path.join(workdir, "cmerge.so")
    with open(src, "w", encoding="utf-8") as handle:
        handle.write(_SOURCE)
    subprocess.run(
        [compiler, "-O3", "-fPIC", "-shared", "-o", lib_path, src],
        check=True, capture_output=True, timeout=120,
    )
    lib = ctypes.CDLL(lib_path)
    double_matrix = np.ctypeslib.ndpointer(dtype=np.float64,
                                           flags="C_CONTIGUOUS")
    lib.pairwise_gap_integrals.argtypes = [
        double_matrix, ctypes.c_long, ctypes.c_long,
        double_matrix, double_matrix,
    ]
    lib.pairwise_gap_integrals.restype = None
    return lib


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable.

    Compilation happens once per process; failures (missing compiler,
    sandboxed tmpdir, ...) are cached as "unavailable" so the cost is
    never paid twice.
    """
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    try:
        _lib = _compile()
    except Exception:
        _lib = None
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be used right now."""
    return load() is not None
