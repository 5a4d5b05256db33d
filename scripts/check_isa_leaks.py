#!/usr/bin/env python3
"""Portability gate for the stencil kernel engine's AVX2 copy (DESIGN.md §16).

    python3 scripts/check_isa_leaks.py [--objdump PROG] libbrickx_stencil.a

kernel_engine_avx2.cc is compiled with -mavx2, and every function it defines
lives in brickx::stencil::avx2. Any other function of the archive that runs
AVX2-only instructions (a %ymm or %zmm operand, a VEX-encoded `v` mnemonic,
or the POPCNT and CRC32 that -mavx2 also enables) is a header inline that
the AVX2 copy emitted out of line under its shared name, such as a DVec
method or Brick::field_data. The linker may pick that copy for the whole
program, and a CPU without AVX2 would then fault in baseline code. A run on
an AVX2 host cannot show this, so the gate reads the machine code instead.

Exits 0 when AVX code exists and all of it is in brickx::stencil::avx2;
exits 1 naming each function outside it (or when no AVX code exists at all,
which means the AVX2 copy was not built as intended).
"""

import argparse
import re
import subprocess
import sys

NAMESPACE = "brickx::stencil::avx2::"
LABEL = re.compile(r"^[0-9a-f]+ <(.*)>:$")
MEMBER = re.compile(r"^(\S+):\s+file format ")
INSN = re.compile(r"^\s+[0-9a-f]+:\s+(\S+)(.*)$")


def qualified_name(label):
    """The function's qualified name: no return type, parameters or
    template arguments (which may mention other namespaces)."""
    name = label.replace("(anonymous namespace)", "{anon}").split("(", 1)[0]
    while True:
        stripped = re.sub(r"<[^<>]*>", "", name)
        if stripped == name:
            break
        name = stripped
    parts = name.split()
    return parts[-1] if parts else name


def uses_avx(mnemonic, operands):
    """VEX/EVEX code, or POPCNT / CRC32, which -mavx2 also enables."""
    return (mnemonic.startswith(("v", "popcnt", "crc32")) or
            "%ymm" in operands or "%zmm" in operands)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("archive")
    ap.add_argument("--objdump", default="objdump")
    a = ap.parse_args()
    out = subprocess.run(
        [a.objdump, "-d", "-C", "--no-show-raw-insn", a.archive],
        check=True, capture_output=True, text=True).stdout

    member, func = "?", None
    inside, leaks = 0, {}
    for line in out.splitlines():
        m = MEMBER.match(line)
        if m:
            member = m.group(1)
            continue
        m = LABEL.match(line)
        if m:
            func = m.group(1)
            counted = False
            continue
        m = INSN.match(line)
        if not m or func is None or not uses_avx(m.group(1), m.group(2)):
            continue
        if qualified_name(func).startswith(NAMESPACE):
            inside += 0 if counted else 1
            counted = True
        else:
            leaks.setdefault((member, func), m.group(1) + m.group(2))

    if inside == 0:
        print(f"check_isa_leaks: no AVX code in {NAMESPACE[:-2]} "
              f"({a.archive}); the AVX2 copy is missing", file=sys.stderr)
        return 1
    for (obj, fn), insn in sorted(leaks.items()):
        print(f"check_isa_leaks: {obj}: {fn} runs AVX outside "
              f"{NAMESPACE[:-2]}: {insn.strip()}", file=sys.stderr)
    if leaks:
        return 1
    print(f"check_isa_leaks: {inside} functions use AVX, all in "
          f"{NAMESPACE[:-2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
