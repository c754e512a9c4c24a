#!/usr/bin/env python3
"""Fails when an AVX2 kernel (a k_* function) contains a call.

    check_kernel_calls.py <objdump> <object files...>

Disassembles the object of simd_avx2.cpp among the given files (an argument
may hold several paths separated by ';', as CMake's $<TARGET_OBJECTS>
gives them) and reports every call instruction inside a function whose
name starts with k_.  GCC emits no vzeroupper around a call from a kernel
to a local helper that spares some vector registers, so such a kernel
returns with the upper register halves dirty and every legacy-SSE
instruction of its caller pays a transition.  Calls outside the kernels,
such as the static-init guards of the table function, are allowed.  The
rule holds for optimized builds only: unoptimized or instrumented objects
call out by design.
"""

import re
import subprocess
import sys

FUNC = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s+[0-9a-f]+:\s+(\S+)")
RELOC = re.compile(r"^\s+[0-9a-f]+: (R_\S+)\s+(\S+)")


def kernel_name(symbol):
    """The function's unqualified name if it is a kernel, else None."""
    name = symbol.replace("(anonymous namespace)", "")
    name = name.split("(", 1)[0].split("::")[-1]
    return name if name.startswith("k_") else None


def check(objdump, obj):
    """Returns the kernel names in `obj` and one line per call in them."""
    out = subprocess.run([objdump, "-dr", "-C", "--no-show-raw-insn", obj],
                         capture_output=True, text=True, check=True).stdout
    findings, kernels = [], set()
    func, after_call = None, False
    for line in out.splitlines():
        m = FUNC.match(line)
        if m:
            func, after_call = kernel_name(m.group(1)), False
            if func:
                kernels.add(func)
            continue
        if func is None:
            continue
        m = RELOC.match(line)
        if m:
            if after_call:  # the callee, when the linker fills it in
                findings[-1] += f" -> {m.group(2)}"
            after_call = False
            continue
        m = INSN.match(line)
        after_call = bool(m) and m.group(1).startswith("call")
        if after_call:
            findings.append(f"{func}: {line.strip()}")
    return kernels, findings


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    objs = [p for arg in argv[2:] for p in arg.split(";")
            if re.search(r"simd_avx2\.cpp\.o(bj)?$", p)]
    if len(objs) != 1:
        print(f"expected one simd_avx2 object, got {objs}", file=sys.stderr)
        return 2
    kernels, findings = check(argv[1], objs[0])
    if not kernels:
        print(f"no k_* function in {objs[0]}", file=sys.stderr)
        return 1
    for f in findings:
        print(f)
    print(f"{len(kernels)} kernels, {len(findings)} calls")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
