#!/bin/bash
# Fails if a binary still calls an AVX-512 intrinsic out of line.
#
#   scripts/check_avx512_inlined.sh path/to/binary
#
# Every `_mm512_*` intrinsic is `#[target_feature(enable = "avx512f")]`; it
# only inlines into a caller compiled with that feature. A kernel that
# reaches the intrinsics outside `Simd::vectorize` (or through a helper that
# is not `#[inline(always)]`) gets one `call` per op to an out-of-line shim
# that loads its operands from the stack, runs one instruction, stores the
# result and returns. This script disassembles the binary, lists every
# function holding such a call with its call count, and exits 1 if there
# is any.
set -euo pipefail

BIN=${1:?usage: $0 path/to/binary}
[ -f "$BIN" ] || { echo "no such binary: $BIN" >&2; exit 2; }
command -v objdump >/dev/null || { echo "objdump not found" >&2; exit 2; }

objdump -d -C --no-show-raw-insn "$BIN" | awk -v bin="$BIN" '
  # Function headers look like: 0000000000065910 <name>:
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    next
  }
  /\tcall / && /<core::core_arch::x86::avx512/ {
    if (calls[fn]++ == 0) fns++
    total++
  }
  END {
    if (total == 0) {
      printf "%s: 0 out-of-line AVX-512 intrinsic calls\n", bin
      exit 0
    }
    for (f in calls) printf "%6d  %s\n", calls[f], f | "sort -rn"
    close("sort -rn")
    printf "%s: %d out-of-line AVX-512 intrinsic calls in %d functions\n", bin, total, fns
    exit 1
  }'
