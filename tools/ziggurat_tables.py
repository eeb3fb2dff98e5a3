"""Read numpy's ziggurat tables and constants from the static library that
numpy ships, confirm each against numpy's own draws on chosen PCG64 words,
and print them as the module ``predictimands.ziggurat``.

    python tools/ziggurat_tables.py > src/predictimands/ziggurat.py

numpy's ``standard_normal`` and ``standard_exponential`` (Marsaglia & Tsang,
J. Stat. Softw. 5(8), 2000) take one 64-bit word on their fast path: a layer
index ``idx`` and an integer ``r``, returning ``r * w[idx]`` when
``r < k[idx]``. Otherwise layer 0 draws from the tail beyond ``R`` and any
other layer tests the wedge under the density with one more uniform,
``(f[idx - 1] - f[idx]) * u + f[idx] < density(x)``, and starts again with a
fresh word when the test fails (``reference`` below is the whole algorithm).

The tables are local symbols (``wi_double``, ``ki_double``, ``fi_double``,
``we_double``, ``ke_double``, ``fe_double``) of the distributions object in
``numpy/random/lib/libnpyrandom.a``. The constants ``R`` and ``1 / R`` of
the normal and ``R`` of the exponential are 8-byte literals that the two
draws load; among those literals, each constant is the one that reproduces
numpy's tail draws. ``exp(-x * x / 2)`` in double differs from ``fi_double``
in 11 of its 256 entries, so the ``f`` tables cannot be recomputed.

Every entry is then confirmed by drawing with numpy on chosen words.
PCG64's output (XSL-RR, O'Neill 2014, HMC-CS-2014-0905) is invertible, so a
state whose next output is any chosen word can be built: pick the high word
with the wanted rotation, solve the low word, step back with the inverse
multiplier. Choosing the increment as well fixes a second word. Per layer,
``r = 1`` and ``r = k - 1`` must stay on the fast path and ``r = k`` leave
it. Per slow layer, two pairs of words sit where the wedge test turns from
accept to reject, a sixteenth and three quarters of the way up the layer's
density range, so that a change of one ULP in any ``f`` entry moves one of
them (checked for every entry of both tables, in both directions). The
tails are drawn with chosen uniforms. No table is read or probed when
predictimands is imported.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import sys
from pathlib import Path

import numpy as np

MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
MULT_INV = pow(MULT, -1, 1 << 128)
MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1
INC = 0x5851F42D4C957F2D_14057B7EF767814F | 1
#: the normal's word: 8 bits of layer, a sign bit, 52 bits of r;
#: the exponential's: 3 unused bits, 8 bits of layer, 53 bits of r
NORMAL = {"layer_shift": 0, "r_shift": 9, "r_bits": 52}
EXPONENTIAL = {"layer_shift": 3, "r_shift": 11, "r_bits": 53}
#: the library's symbol of each table
SYMBOLS = {"WI": "wi_double", "KI": "ki_double", "FI": "fi_double",
           "WE": "we_double", "KE": "ke_double", "FE": "fe_double"}
CONSTANTS = ("NORMAL_R", "NORMAL_INV_R", "EXPONENTIAL_R")
#: the draws whose literals hold the constants
DRAWS = ("random_standard_normal", "random_standard_exponential")
LIBRARY = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


# ---------------------------------------------------------------------------
# reading the library: an ar archive of relocatable ELF64 objects


def _members(archive: bytes):
    """The (name, bytes) of each member of a GNU ar archive."""
    if not archive.startswith(b"!<arch>\n"):
        raise RuntimeError("not an ar archive")
    pos, names = 8, b""
    while pos < len(archive):
        header = archive[pos:pos + 60]
        name, size = header[:16].rstrip(), int(header[48:58])
        body = archive[pos + 60:pos + 60 + size]
        pos += 60 + size + size % 2
        if name == b"//":
            names = body
        elif name[1:].isdigit():  # "/offset" into the long names
            start = int(name[1:])
            yield names[start:names.index(b"/\n", start)].decode(), body
        elif name != b"/":
            yield name.rstrip(b"/").decode(), body


def _elf(obj: bytes) -> tuple:
    """The sections, the symbols by name and the relocations of a
    little-endian ELF64 object: each section as (name, offset, size), each
    symbol as (section index, value, size), each relocation as (target
    section index, offset, symbol index, addend)."""
    if obj[:6] != b"\x7fELF\x02\x01":
        raise RuntimeError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    entsize, count, names_at = struct.unpack_from("<HHH", obj, 0x3A)
    headers = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * entsize)
               for i in range(count)]

    def string(table, at):
        start = headers[table][4] + at
        return obj[start:obj.index(b"\0", start)].decode()

    sections = [(string(names_at, h[0]), h[4], h[5]) for h in headers]
    symbols, relocations = [], []
    for name, kind, _, _, offset, size, link, info, _, _ in headers:
        if kind == 2:  # SHT_SYMTAB
            for at in range(offset, offset + size, 24):
                sym_name, _, _, shndx, value, sym_size = struct.unpack_from("<IBBHQQ", obj, at)
                symbols.append((string(link, sym_name), shndx, value, sym_size))
        elif kind == 4:  # SHT_RELA
            for at in range(offset, offset + size, 24):
                r_offset, r_info, addend = struct.unpack_from("<QQq", obj, at)
                relocations.append((info, r_offset, r_info >> 32, addend))
    return sections, symbols, relocations


def read_library(path=LIBRARY) -> tuple:
    """The six tables of ``SYMBOLS`` as lists, and the absolute values of the
    8-byte literals that ``DRAWS`` load."""
    for _, obj in _members(Path(path).read_bytes()):
        sections, symbols, relocations = _elf(obj)
        by_name = {name: (shndx, value, size) for name, shndx, value, size in symbols}
        if all(symbol in by_name for symbol in SYMBOLS.values()):
            break
    else:
        raise RuntimeError(f"{path} holds no object with the ziggurat tables")

    def read(shndx, at, size, code):
        start = sections[shndx][1] + at
        return list(struct.unpack(f"<{size // 8}{code}", obj[start:start + size]))

    found = {name: read(*by_name[symbol], "Q" if name.startswith("K") else "d")
             for name, symbol in SYMBOLS.items()}
    # a PC-relative load's addend counts from the end of its 4-byte field
    pc_bias = 4 if struct.unpack_from("<H", obj, 0x12)[0] == 62 else 0  # x86-64
    literals = set()
    for draw in DRAWS:
        shndx, start, size = by_name[draw]
        for target, offset, sym, addend in relocations:
            _, sym_shndx, value, _ = symbols[sym]
            if (target == shndx and start <= offset < start + size
                    and sections[sym_shndx][0] == ".rodata.cst8"):
                literals.add(abs(read(sym_shndx, value + addend + pc_bias, 8, "d")[0]))
    return found, literals


# ---------------------------------------------------------------------------
# numpy's draws on chosen words, and the algorithm they must follow


def _state_with_output(word: int, salt: int) -> int:
    """One of many PCG64 states whose output is ``word``, picked by ``salt``."""
    rot = salt % 64
    hi = rot << 58 | (0x0123_4567_89AB_CDEF * (salt + 1)) & ((1 << 58) - 1)
    lo = ((word << rot | word >> (64 - rot)) & MASK64) ^ hi
    return hi << 64 | lo


def crafted_state(word: int, salt: int = 0) -> int:
    """A PCG64 state (with increment ``INC``) whose next output is ``word``;
    ``salt`` picks one of many such states, which differ in the word after."""
    return (_state_with_output(word, salt) - INC) * MULT_INV & MASK128


def crafted_pair(word: int, second: int, salt: int = 0) -> tuple:
    """A PCG64 (state, increment) whose next two outputs are ``word`` and
    ``second``; ``salt`` picks one of many, which differ in the words after.
    The increment is odd, as numpy's seeding makes it."""
    first = _state_with_output(word, salt)
    after = _state_with_output(second, salt + 1)
    if not (after ^ first) & 1:  # flip bit 0 of both halves: the same output
        after ^= 1 << 64 | 1
    inc = (after - first * MULT) & MASK128
    return (first - inc) * MULT_INV & MASK128, inc


def crafted_after(word: int, second: int, before, salt: int = 0) -> tuple:
    """A PCG64 (state, increment) whose second and third outputs are
    ``word`` and ``second`` and whose first output satisfies ``before``:
    ``crafted_pair``'s salts from ``salt`` on, tried in turn. (Words of
    many zero bits, such as 0 itself, give related first outputs.)"""
    while True:
        state, inc = crafted_pair(word, second, salt)
        start = (state - inc) * MULT_INV & MASK128
        if before(next(words(start, inc))):
            return start, inc
        salt += 1


def words(state: int, inc: int):
    """PCG64's output words from ``state``: step, then XSL-RR."""
    while True:
        state = (state * MULT + inc) & MASK128
        rot, x = state >> 122, (state >> 64 ^ state) & MASK64
        yield (x >> rot | x << (64 - rot)) & MASK64


@functools.lru_cache(maxsize=None)
def numpy_draw(state: int, inc: int, kind: str) -> tuple:
    """numpy's draw of ``kind`` (a Generator method name) from PCG64 at
    (``state``, ``inc``), and the number of words it took."""
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    value = float(getattr(np.random.Generator(bitgen), kind)())
    end, steps = bitgen.state["state"]["state"], 0
    while state != end:
        state = (state * MULT + inc) & MASK128
        steps += 1
    return value, steps


def draw(word: int, kind: str, salt: int = 0) -> tuple:
    """numpy's draw of ``kind`` when the next output word is ``word``, and
    the number of words it took."""
    return numpy_draw(crafted_state(word, salt), INC, kind)


def word_of(layer: int, r: int, layout: dict) -> int:
    return r << layout["r_shift"] | layer << layout["layer_shift"]


def _double(word: int) -> float:
    return (word >> 11) * 2.0**-53


def reference(kind: str, stream, found: dict) -> float:
    """numpy's ``kind`` draw on the words of the iterator ``stream``, with
    the tables and constants of ``found``; Python floats round as C doubles
    and ``math.exp`` / ``math.log1p`` are the C library's."""
    if kind == "standard_normal":
        wi, ki, fi = found["WI"], found["KI"], found["FI"]
        while True:
            word = next(stream)
            idx, rabs = word & 0xFF, word >> 9 & ((1 << 52) - 1)
            x = -(rabs * wi[idx]) if word & 0x100 else rabs * wi[idx]
            if rabs < ki[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -found["NORMAL_INV_R"] * math.log1p(-_double(next(stream)))
                    yy = -math.log1p(-_double(next(stream)))
                    if yy + yy > xx * xx:
                        r = found["NORMAL_R"] + xx
                        return -r if rabs >> 8 & 1 else r
            if (fi[idx - 1] - fi[idx]) * _double(next(stream)) + fi[idx] < math.exp(
                    -0.5 * x * x):
                return x
    we, ke, fe = found["WE"], found["KE"], found["FE"]
    while True:
        word = next(stream) >> 3
        idx, r = word & 0xFF, word >> 8
        x = r * we[idx]
        if r < ke[idx]:
            return x
        if idx == 0:
            return found["EXPONENTIAL_R"] - math.log1p(-_double(next(stream)))
        if (fe[idx - 1] - fe[idx]) * _double(next(stream)) + fe[idx] < math.exp(-x):
            return x


def _counted(stream):
    """``stream`` and a list that holds the number of words taken from it."""
    taken = [0]

    def counting():
        for word in stream:
            taken[0] += 1
            yield word
    return counting(), taken


def _largest_below(low: int, high: int, below) -> int:
    """The largest m in [low, high) with ``below(m)``, for a ``below`` that
    holds up to some m and fails after; ``low - 1`` when it holds nowhere."""
    while low < high:
        mid = (low + high) // 2
        low, high = (mid + 1, high) if below(mid) else (low, mid)
    return low - 1


def _wedge_cases(kind: str, found: dict) -> list:
    """Pairs of (first word, uniform word) on each slow layer of ``kind``,
    just inside and just outside the wedge test's acceptance, a sixteenth
    and three quarters of the way up the layer's density range."""
    normal = kind == "standard_normal"
    layout = NORMAL if normal else EXPONENTIAL
    w, k, f = (found[name + ("I" if normal else "E")] for name in "WKF")
    top = 1 << layout["r_bits"]

    def density(r, layer):
        x = r * w[layer]
        return math.exp(-0.5 * x * x) if normal else math.exp(-x)

    cases = []
    for layer in range(1, 256):
        if k[layer] >= top:
            continue
        width = f[layer - 1] - f[layer]
        for share in (1 / 16, 3 / 4):
            # the density falls as r grows: the last r whose density is
            # still above the target
            target = f[layer] + share * width
            r = max(_largest_below(k[layer], top, lambda r: density(r, layer) > target),
                    k[layer])
            edge = density(r, layer)
            m = _largest_below(0, 1 << 53, lambda m: width * (m * 2.0**-53) + f[layer] < edge)
            word = word_of(layer, r, layout)
            cases += [(word, max(m, 0) << 11), (word, min(m + 1, (1 << 53) - 1) << 11)]
    return cases


def cases(found: dict) -> list:
    """Chosen (kind, state, inc) draws that pin every table entry and
    constant of ``found``."""
    out = []
    for kind, layout, k in (("standard_normal", NORMAL, found["KI"]),
                            ("standard_exponential", EXPONENTIAL, found["KE"])):
        top = 1 << layout["r_bits"]
        for layer in range(256):
            for r in {r for r in (1, k[layer] - 1, k[layer]) if 0 <= r < top}:
                out.append((kind, crafted_state(word_of(layer, r, layout)), INC))
        out += [(kind, *crafted_pair(word, u)) for word, u in _wedge_cases(kind, found)]
        # the tail: uniforms of 0, 1/2, about 1 - 1/e and 1 - 2**-20 (which
        # the normal's tail rejects) after the layer-0 word, each on both
        # sides of the normal's tail sign bit
        for rabs, u in itertools.product((k[0], top - 1, k[0] | 1 << 8),
                                         (0, 1 << 63, 0xA1CA_B8A7_8000_0000,
                                          0xFFFF_F000_0000_0000)):
            for salt in range(4):
                out.append((kind, *crafted_pair(word_of(0, rabs, layout), u, salt)))
    # two uniforms of 0 (words below 2**11) after a normal tail word:
    # 2y = x * x = 0, which the tail rejects
    def tail(word):
        return word & 0xFF == 0 and word >> 9 & ((1 << 52) - 1) >= found["KI"][0]

    out += [("standard_normal", *crafted_after(0x5A5, 0x2C3, tail, salt))
            for salt in (0, 1 << 32)]
    return out


def mismatches(found: dict, chosen=None) -> list:
    """The chosen draws (all of ``cases(found)`` by default) on which numpy
    and ``reference`` on ``found`` disagree, in value bits or words taken."""
    bad = []
    for kind, state, inc in cases(found) if chosen is None else chosen:
        stream, taken = _counted(words(state, inc))
        ours = reference(kind, stream, found)
        value, steps = numpy_draw(state, inc, kind)
        if (struct.pack("<d", ours), taken[0]) != (struct.pack("<d", value), steps):
            bad.append((kind, state, inc))
    return bad


def tables(path=LIBRARY) -> dict:
    """The six tables and three constants as numpy uses them, read from
    ``path`` and confirmed against numpy's draws."""
    found, literals = read_library(path)
    tails = [case for case in cases(found)
             if next(words(*case[1:])) >> (0 if case[0] == "standard_normal" else 3)
             & 0xFF == 0]
    fits = [values for values in itertools.product(sorted(literals), repeat=len(CONSTANTS))
            if not mismatches({**found, **dict(zip(CONSTANTS, values))}, tails)]
    if len(fits) != 1:
        raise RuntimeError(f"{len(fits)} choices of the constants among the literals "
                           f"{sorted(literals)} reproduce numpy's tail draws")
    found.update(zip(CONSTANTS, fits[0]))
    bad = mismatches(found)
    if bad:
        raise RuntimeError(f"numpy {np.__version__} draws otherwise than its own tables "
                           f"on {len(bad)} chosen words, the first {bad[0]}")
    return found


def module_text(found: dict) -> str:
    """The source of ``predictimands.ziggurat`` holding ``found``'s tables
    and constants: each float in ``float.hex`` form, each int in hex."""
    lines = ['"""numpy\'s ziggurat tables and constants, read from numpy %s\'s'
             % np.__version__,
             "``libnpyrandom.a`` and confirmed against its draws on chosen PCG64 words",
             "(tools/ziggurat_tables.py, which prints this module).",
             "",
             "``WI`` / ``KI`` / ``FI``: each layer's multiplier, fast-path bound and",
             "density of ``standard_normal``, whose tail starts at ``NORMAL_R``",
             "(``NORMAL_INV_R`` is its inverse); ``WE`` / ``KE`` / ``FE`` and",
             "``EXPONENTIAL_R``: those of ``standard_exponential``.",
             "tests/test_simulator.py reads and probes numpy again and compares every",
             "entry.",
             '"""',
             "",
             "import numpy as np"]
    for name in ("WI", "KI", "FI", "WE", "KE", "FE"):
        values = found[name]
        floats = not name.startswith("K")
        text = [value.hex() if floats else f"0x{value:014X}" for value in values]
        per_line = 4 if floats else 5
        lines += ["", "", "%s = np.array([%s for h in \"\"\"" % (
            name, "float.fromhex(h)" if floats else "int(h, 16)")]
        lines += [" ".join(text[i:i + per_line]) for i in range(0, len(text), per_line)]
        lines.append('""".split()], np.%s)' % ("float64" if floats else "uint64"))
    lines.append("")
    lines += [f'{name} = float.fromhex("{found[name].hex()}")' for name in CONSTANTS]
    lines += ["", "for _table in (WI, KI, FI, WE, KE, FE):",
              "    _table.flags.writeable = False"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(module_text(tables()))
