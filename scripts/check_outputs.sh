#!/usr/bin/env bash
# Run a fixed set of prbench CLI calls against the checkout SRC and store,
# per call, its output files, stdout, stderr and exit code under OUT/<case>/.
#
#   scripts/check_outputs.sh SRC OUT
#   scripts/check_outputs.sh --digests OUT
#
# Each call runs in its own case directory with relative paths and one BLAS
# thread, so two OUT directories, say one from a parent checkout and one from
# a change, compare with `diff -r`.  Takes about 60 s on two cores.
#
# --digests runs this script's own checkout into OUT, writes the SHA-256 of
# every file under OUT to OUT/check_outputs.sha256, and diffs that against
# scripts/check_outputs.sha256.  The committed file's first lines name the
# environment its digests hold for: numpy, the OpenBLAS build, the core its
# kernels were chosen for, and the BLAS thread count.  It exits 0 when every
# digest matches and 1 when one differs.  Another environment may give other
# last digits, so there it reports the mismatch, compares no digest and exits
# 0.  A change that means to alter outputs copies OUT/check_outputs.sha256
# over the committed file, whose diff then names the outputs that moved.
set -euo pipefail

digests=""
if [ "$#" -eq 2 ] && [ "$1" = "--digests" ]; then
    digests="$(cd "$(dirname "$0")" && pwd)/check_outputs.sha256"
    set -- "$(dirname "$digests")/.." "$2"
fi
if [ "$#" -ne 2 ] || [ "${1#-}" != "$1" ]; then
    echo "usage: $0 SRC OUT | $0 --digests OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
export OPENBLAS_NUM_THREADS=1 PYTHONPATH="$src/src"

case_() {
    local name=$1
    shift
    mkdir -p "$out/$name"
    (cd "$out/$name" && { python3 -m prbench.cli "$@" --out out >stdout 2>stderr \
        && echo 0 || echo $?; } >exit)
}

# sweeps: both starts with non-converging cells (m=60 at n=50), and momentum 0.9
case_ sweep_spectral sweep --n_list 10,50 --m_list 60,200 --seed_list 0,1,2 --init spectral
case_ sweep_random sweep --n_list 10,50 --m_list 60,200 --seed_list 0,1,2 --init random
case_ sweep_beta sweep --n_list 100 --m_list 256 --seed_list 0,1 --methods gd,polyak,nesterov \
    --beta 0.9 --max_iters 3000
# the bench's 27-cell grid, and a first step whose entries are finite but whose
# squared norm overflows
case_ sweep_bench sweep --n_list 10,50,100 --m_list 200,500,1000 --seed_list 0
case_ sweep_overflow sweep --n_list 10 --m_list 60 --seed_list 0 --eta 1e300
# odd n: each ensemble row drops its last Philox word
case_ sweep_odd sweep --n_list 7,33 --m_list 100,500 --seed_list 0
# the n=100 cell's power iteration fails (exit 2) after the n=10 cell's traces
# are written, and no summary.csv follows
case_ sweep_init_fail sweep --n_list 10,100 --m_list 100 --seed_list 0
# a repeated size (exit 2, no output)
case_ sweep_repeated_n sweep --n_list 10,10 --m_list 60,60 --seed_list 0 --methods gd
case_ run_gd run --n_list 10 --m_list 200 --seed_list 0 --methods gd
case_ run_random run --n_list 50 --m_list 500 --seed_list 3 --methods nesterov --init random
# run reads one seed, so a second is refused (exit 2, no output)
case_ run_two_seeds run --n_list 10 --m_list 200 --seed_list 0,1 --methods gd
# a 128 PiB ensemble, larger than any 64-bit address space: the allocation fails
# at once, touching no page (exit 2)
case_ run_alloc_fail run --n_list 1099511627776 --m_list 16384
case_ headtohead headtohead --n_list 64 --seed_list 0,1,2
# the bench's shape, n=256 and m=14196, whose ensemble spans many sampling chunks
case_ headtohead_bench headtohead --n_list 256 --seed_list 0
# ensembles above objective.SPLIT_MIN_VALUES, whose products split over two
# threads: Nesterov's gradients (6211 x 128), and an odd m whose second half is
# not a multiple of 16 rows
case_ run_nesterov_split run --n_list 128 --seed_list 0 --methods nesterov
case_ run_odd_m_split run --n_list 200 --m_list 4099 --seed_list 0 --methods polyak
# ensembles above objective.SPLIT_T_MIN_VALUES, whose `rows.T @ w` splits by
# columns too: heavy ball at n=257 (14261 x 257, n % 4 = 1), and Nesterov's
# gradients through `gradient_kernel` at the bench's 14196 x 256
case_ run_polyak_split_t run --n_list 257 --seed_list 0 --methods polyak
case_ run_nesterov_split_t run --n_list 256 --seed_list 0 --methods nesterov
case_ slopes slopes --n_list 16,32,64 --seed_list 0,1
case_ oracle oracle
case_ concentration concentration --n_list 100 --m_list 1000 --seed_list 0,1,2
# the concentration bounds need n >= 3 (exit 2)
case_ concentration_n2 concentration --n_list 2
# leave-one-out: the m=256 violation (exit 1), criterion 8's regime, a budget refusal (exit 2)
case_ loo_256 loo --n_list 100 --m_list 256 --seed_list 4 --methods polyak --max_iters 500
case_ loo_461 loo --n_list 100 --m_list 461 --loo_budget_m 461 --seed_list 1 \
    --methods nesterov --max_iters 500
case_ loo_budget loo --n_list 100 --m_list 461
# coded diffraction: defaults, no GD, square and non-square graymap inputs, and
# diverging steps
case_ cdp_default cdp
case_ cdp_no_gd cdp --methods polyak,nesterov
mkdir -p "$out/cdp_image"
python3 -c "import sys; sys.stdout.buffer.write(b'P5\n16 16\n255\n'
    + bytes((7 * i + 3 * (i // 16)) % 256 for i in range(256)))" >"$out/cdp_image/image.pgm"
case_ cdp_image cdp --image image.pgm --mask_count 6 --cdp_iters 40
mkdir -p "$out/cdp_image_rect"
python3 -c "import sys; sys.stdout.buffer.write(b'P5\n20 12\n255\n'
    + bytes((7 * i + 3 * (i // 20)) % 256 for i in range(240)))" >"$out/cdp_image_rect/image.pgm"
case_ cdp_image_rect cdp --image image.pgm --mask_count 6 --cdp_iters 60 --seed_list 2
case_ cdp_diverge cdp --eta 1000
case_ cdp_diverge_no_gd cdp --eta 1000 --methods polyak,nesterov --mask_count 4 --cdp_size 16
mkdir -p "$out/cdp_image_range"
printf 'P2\n2 2\n255\n0 128\n300 -5\n' >"$out/cdp_image_range/image.pgm"
case_ cdp_image_range cdp --image image.pgm --mask_count 2 --cdp_iters 5
# a one-pixel image has n = 1, where the log n step-size defaults are undefined
# (exit 2)
mkdir -p "$out/cdp_one_pixel"
printf 'P2\n1 1\n255\n200\n' >"$out/cdp_one_pixel/image.pgm"
case_ cdp_one_pixel cdp --image image.pgm
# a 257 x 257 synthetic image is over the 2^16-pixel limit (exit 2)
case_ cdp_size_limit cdp --cdp_size 257

if [ -n "$digests" ]; then
    # the environment the outputs hold for, then one `sha256sum` line per file
    python3 - >"$out/check_outputs.sha256" <<'PY'
import ctypes

import numpy as np

blas = ctypes.CDLL(np._core._multiarray_umath.__file__)


def ask(restype, *names):
    for name in names:
        fn = getattr(blas, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = (), restype
            return fn()
    return None


config = ask(ctypes.c_char_p, "scipy_openblas_get_config64_", "scipy_openblas_get_config",
             "openblas_get_config64_", "openblas_get_config")
core = ask(ctypes.c_char_p, "scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
           "openblas_get_corename64_", "openblas_get_corename")
threads = ask(ctypes.c_int, "scipy_openblas_get_num_threads64_",
              "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
              "openblas_get_num_threads")
print(f"# numpy {np.__version__}")
print(f"# BLAS {config.decode() if config else 'not OpenBLAS'}")
print(f"# core {core.decode() if core else 'unknown'}")
print(f"# BLAS threads {threads}")
PY
    (cd "$out" && find . -type f ! -path ./check_outputs.sha256 -printf '%P\0' | LC_ALL=C sort -z \
        | xargs -0 sha256sum) >>"$out/check_outputs.sha256"
    if ! diff <(grep '^#' "$digests") <(grep '^#' "$out/check_outputs.sha256"); then
        echo "environment mismatch: the digests hold for the '<' lines above, this" \
            "environment is on the '>' lines; no digest compared" >&2
        exit 0
    fi
    if ! diff "$digests" "$out/check_outputs.sha256"; then
        echo "outputs differ from $digests" >&2
        exit 1
    fi
    echo "all $(grep -vc '^#' "$digests") digests match $digests"
fi
