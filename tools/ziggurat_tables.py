"""Recover numpy's ziggurat tables by drawing on chosen PCG64 output words.

    python tools/ziggurat_tables.py > src/predictimands/ziggurat.py

numpy's ``standard_normal`` and ``standard_exponential`` (Marsaglia & Tsang,
J. Stat. Softw. 5(8), 2000) take one 64-bit word on their fast path: a layer
index ``idx`` and an integer ``r``, returning ``r * w[idx]`` when
``r < k[idx]``, else drawing more words. PCG64's output (XSL-RR, O'Neill
2014, HMC-CS-2014-0905) is invertible, so a state whose next output is any
chosen word can be built: pick the high word with the wanted rotation, solve
the low word, step back with the inverse multiplier. A draw on ``r = 1``
gives ``w[idx]``; ``k[idx]`` is the smallest ``r`` whose draw takes more
than one word, found by bisection. A slow layer's ``w`` is
read where its wedge test accepts after one more word. The script prints the
four 256-entry tables as the module ``predictimands.ziggurat``; no table is
probed when predictimands is imported.
"""

from __future__ import annotations

import sys

import numpy as np

MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
MULT_INV = pow(MULT, -1, 1 << 128)
MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1
INC = 0x5851F42D4C957F2D_14057B7EF767814F | 1
#: the normal's word: 8 bits of layer, a sign bit, 52 bits of r;
#: the exponential's: 3 unused bits, 8 bits of layer, 53 bits of r
NORMAL = {"layer_shift": 0, "r_shift": 9, "r_bits": 52}
EXPONENTIAL = {"layer_shift": 3, "r_shift": 11, "r_bits": 53}


def crafted_state(word: int, salt: int = 0) -> int:
    """A PCG64 state (with increment ``INC``) whose next output is ``word``;
    ``salt`` picks one of many such states, which differ in the word after."""
    rot = salt % 64
    hi = rot << 58 | (0x0123_4567_89AB_CDEF * (salt + 1)) & ((1 << 58) - 1)
    lo = ((word << rot | word >> (64 - rot)) & MASK64) ^ hi
    return ((hi << 64 | lo) - INC) * MULT_INV & MASK128


def draw(word: int, kind: str, salt: int = 0) -> tuple:
    """numpy's draw of ``kind`` (a Generator method name) when the next
    output word is ``word``, and the number of words it took."""
    bitgen = np.random.PCG64(0)
    start = crafted_state(word, salt)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": INC},
                    "has_uint32": 0, "uinteger": 0}
    value = float(getattr(np.random.Generator(bitgen), kind)())
    end, state, steps = bitgen.state["state"]["state"], start, 0
    while state != end:
        state = (state * MULT + INC) & MASK128
        steps += 1
    return value, steps


def word_of(layer: int, r: int, layout: dict) -> int:
    return r << layout["r_shift"] | layer << layout["layer_shift"]


def probe(kind: str, layout: dict) -> tuple:
    """The ``w`` (floats) and ``k`` (ints) tables of one distribution."""
    w, k = [], []
    for layer in range(256):
        def fast(r):
            return draw(word_of(layer, r, layout), kind)[1] == 1

        lo, hi = 0, 1 << layout["r_bits"]
        if fast(hi - 1):
            raise RuntimeError(f"{kind} layer {layer}: every r takes the fast path, "
                             "so its threshold is not pinned to one value")
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if fast(mid) else (lo, mid)
        k.append(lo)
        for salt in range(64):
            value, steps = draw(word_of(layer, 1, layout), kind, salt)
            if steps == 1 or steps == 2 and layer > 0:
                w.append(value)
                break
        else:
            raise RuntimeError(f"{kind} layer {layer}: no draw on r = 1 returned r * w")
    return w, k


def tables() -> dict:
    """The four tables as numpy uses them: ``wi`` / ``ki`` of the normal,
    ``we`` / ``ke`` of the exponential."""
    wi, ki = probe("standard_normal", NORMAL)
    we, ke = probe("standard_exponential", EXPONENTIAL)
    return {"WI": wi, "KI": ki, "WE": we, "KE": ke}


def module_text(found: dict) -> str:
    """The source of ``predictimands.ziggurat`` holding ``found``'s tables:
    each float in ``float.hex`` form, each int in hex."""
    lines = ['"""numpy\'s ziggurat tables, recovered from numpy %s by drawing on' % np.__version__,
             "chosen PCG64 words (tools/ziggurat_tables.py, which prints this module).",
             "",
             "``WI`` / ``KI``: each layer's multiplier and fast-path bound of",
             "``standard_normal``; ``WE`` / ``KE``: those of ``standard_exponential``.",
             "tests/test_simulator.py probes numpy again and compares every entry.",
             '"""',
             "",
             "import numpy as np"]
    for name, values in found.items():
        floats = isinstance(values[0], float)
        text = [value.hex() if floats else f"0x{value:014X}" for value in values]
        per_line = 4 if floats else 5
        lines += ["", "", "%s = np.array([%s for h in \"\"\"" % (
            name, "float.fromhex(h)" if floats else "int(h, 16)")]
        lines += [" ".join(text[i:i + per_line]) for i in range(0, len(text), per_line)]
        lines.append('""".split()], np.%s)' % ("float64" if floats else "uint64"))
    lines += ["", "for _table in (%s):" % ", ".join(found), "    _table.flags.writeable = False"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(module_text(tables()))
