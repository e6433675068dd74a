"""JSON (de)serialization for all structure-constant files.

Schemas (schema_version 1; all matrices row-major, scalars in the cyclotomic
serialization {"conductor": n, "coeffs": [[num, den], ...]}, with no other
key; on input a scalar may also be a JSON integer, [p, q], or a string of
ASCII digits with an optional leading "-" and an optional "/" and
denominator, such as "-3" or "4/2"; a leading "+", a decimal point, an
exponent, "_" and spaces are refused):

  matrix    {"rows", "cols", "entries": [scalars]}
  hopf      {"dim", "mult", "unit", "comult", "counit", "antipode"}, never S^-1;
            a legacy "antipode_inv" member is ignored
  braiding  {"dim", "psi": Matrix, "lambda": Scalar}
  bimodule  {"hopf": <ref>, "dim", "mu_l", "mu_r", "nu_l", "nu_r"}
  crossed   {"hopf": <ref>, "dim", "mu_r", "nu_r"}
  calculus  {"hopf": <ref>, "submodule": {"ambient": "ker_counit",
             "generators": [vectors]}}  or  {"hopf": <ref>, "X": bimodule
             fields, "d": Matrix of shape X.dim x H.dim}, never both forms
  classify  {"hopf": <ref>, "candidates": [[vectors]]} ("candidates"
            optional), or a hopf object with "candidates" beside it; a
            calculus bundle is refused

Each of these objects, the "submodule" member among them, may also hold
"kind", "name" and "schema_version", and no other key.

A <ref> is an inline object, a path relative to the referring file, or
"bundled:<name>" for a file shipped with the package under data/.

Reports have one format, written by one writer: keys sorted, each member on
its own line indented two spaces per level, "," between items and ": "
between a key and its value, empty containers as {} and [], strings with
every non-ASCII or control character escaped, and a final newline; this is
the text of json.JSONEncoder(indent=2, sort_keys=True) plus "\n". A report
holds only str-keyed dicts, lists, tuples, str, int, bool and None; anything
else raises TypeError. dumps returns the text; save_json streams it, writing
the top container levels piece by piece.
"""

from __future__ import annotations

import json
from pathlib import Path

from .braiding import BraidedSpace
from .bimodules import CrossedModule, HopfBimodule
from .calculus import FirstOrderCalculus, fodc_from_submodule, universal_fodc
from .cyclotomic import ZERO, Scalar, _div
from .errors import BraidedFormsError, ParseError, TooLarge
from .hopf import HopfAlgebraData, require_hopf
from .matrix import Matrix, hstack

SCHEMA_VERSION = 1

def _keys(*own):
    """An object's own keys and the keys every object may hold."""
    return frozenset((*own, "kind", "name", "schema_version"))


_MATRIX_KEYS = _keys("rows", "cols", "entries")
_HOPF_KEYS = _keys("dim", *HopfAlgebraData.LEGS, "antipode_inv")
_BRAIDING_KEYS = _keys("dim", "psi", "lambda")
_CALCULUS_KEYS = _keys("hopf", "submodule", "X", "d")


def _known(obj, keys, what) -> None:
    """ParseError naming the first key of the object obj outside keys."""
    for key in obj:
        if key not in keys:
            raise ParseError(f"not a {what}: unknown key {key!r}")


def bundled_path(name: str) -> Path:
    """Path of a corpus file shipped with the package."""
    if not name.endswith(".json"):
        name += ".json"
    return Path(__file__).parent / "data" / name


def _integer(x) -> int:
    """An integer field of the input.  A JSON float or bool is refused, since
    int() would truncate 2.7 to 2 or read true as 1."""
    if type(x) is int:
        return x
    if isinstance(x, (bool, float)):
        raise ParseError(f"expected an integer, got {x!r}")
    return int(x)


def _digits(s: str) -> bool:
    """Whether s is one or more ASCII digits."""
    return s.isascii() and s.isdigit()


def scalar_from_obj(obj) -> Scalar:
    """Scalar from the full serialization, an integer, "p/q", or [p, q].  The
    full serialization holds the keys "conductor" and "coeffs" and no other."""
    try:
        if isinstance(obj, dict):
            for key in obj:
                if key not in ("conductor", "coeffs"):
                    raise ParseError(f"not a scalar: {obj!r} (unknown key {key!r})")
            n = obj["conductor"]
            if type(n) is not int:
                n = _integer(n)
            if n < 1:
                raise ParseError(f"conductor must be >= 1, got {n}")
            coords = []
            for p, q in obj["coeffs"]:
                # plain ints skip the call: this loop is most of a large parse
                if type(p) is not int or type(q) is not int:
                    p, q = _integer(p), _integer(q)
                coords.append(p if q == 1 else _div(p, q))
            if n > 1 or len(coords) != 1:
                s = Scalar(n, coords)  # reduced, at conductor 1 if rational
                if s.n > 1:
                    return s
                coords = s.c
            return Scalar.rational(coords[0])  # 0, 1 and -1 are the shared units
        if isinstance(obj, int) and not isinstance(obj, bool):
            return Scalar.rational(obj)
        if isinstance(obj, str):
            # only these forms: Fraction would also read "1e30000000" and
            # build 10**30000000 before any check
            p, slash, q = obj.partition("/")
            if not (_digits(p.removeprefix("-")) and (not slash or _digits(q))):
                raise ParseError(f'not a scalar: {obj!r} (a string scalar is "p" or "p/q")')
            return Scalar.rational(int(p), int(q) if slash else 1)
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            return Scalar.rational(_integer(obj[0]), _integer(obj[1]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a scalar: {obj!r} ({exc})") from exc
    raise ParseError(f"not a scalar: {obj!r}")


_ZERO_OBJ = ZERO.to_obj()


def _is_zero(e) -> bool:
    """Whether e is exactly the serialized zero {"conductor": 1, "coeffs": [[0, 1]]}.
    == alone would also take 1.0 or True for 1 and 0.0 or False for 0, which
    scalar_from_obj refuses."""
    if type(e) is not dict or e != _ZERO_OBJ:
        return False
    (p, q), = e["coeffs"]
    return type(e["conductor"]) is type(p) is type(q) is int


def matrix_from_obj(obj) -> Matrix:
    _known(obj, _MATRIX_KEYS, "matrix")
    rows, cols = _integer(obj["rows"]), _integer(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise ParseError(f"matrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}")
    # most entries of a structure map are the canonical zero, which skips the parser
    return Matrix(rows, cols, [ZERO if _is_zero(e) else scalar_from_obj(e) for e in entries])


def generators_from_obj(vecs, dim: int) -> Matrix:
    """The dim x k matrix whose columns are the k vectors of a list (dim x 0
    for an empty list)."""
    if not isinstance(vecs, list):
        raise ParseError(f"generators must be a list of vectors, got {vecs!r}")
    for vec in vecs:
        if not isinstance(vec, list) or len(vec) != dim:
            raise ParseError(f"generator {vec!r} is not a vector of length {dim}")
    cols = [Matrix.column([scalar_from_obj(e) for e in vec]) for vec in vecs]
    return hstack(cols) if cols else Matrix.zero(dim, 0)


def load_json(path) -> dict:
    # the path is quoted, so a newline or NUL in it cannot break the error line
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    # ValueError covers bad JSON, bytes that are not UTF-8 and a NUL in the
    # path; RecursionError a nesting deeper than the decoder goes
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{str(path)!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{str(path)!r}: top level must be a JSON object")
    return obj


_ESCAPE = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str
_STREAMED_LEVELS = 3  # container levels written piece by piece


def _text(o, indent: str) -> str:
    """The report text of o, whose lines after the first start with `indent`.
    Types are matched exactly, most frequent first; bool is not int here."""
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _ESCAPE(o)
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        return ("{\n" + inner
                + (",\n" + inner).join([_ESCAPE(k) + ": " + _text(o[k], inner) for k in sorted(o)])
                + "\n" + indent + "}")
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join([_text(v, inner) for v in o]) + "\n" + indent + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"a report holds no {t.__name__}: {o!r}")


def _pieces(o, indent: str, levels: int):
    """_text(o, indent) in pieces: the top `levels` container levels piece by
    piece, each subtree below them as one string."""
    t = type(o)
    if levels == 0 or not (t is dict or t is list or t is tuple) or not o:
        yield _text(o, indent)
        return
    inner = indent + "  "
    if t is dict:
        opening, closing = "{", "}"
        members = ((_ESCAPE(k) + ": ", o[k]) for k in sorted(o))
    else:
        opening, closing = "[", "]"
        members = (("", v) for v in o)
    sep = opening + "\n" + inner
    for key, value in members:
        yield sep + key
        yield from _pieces(value, inner, levels - 1)
        sep = ",\n" + inner
    yield "\n" + indent + closing


def save_json(obj, path) -> None:
    # streamed: the whole text of a large report at once would raise the
    # command's peak memory, which the report write can set
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_pieces(obj, "", _STREAMED_LEVELS))
        f.write("\n")


def dumps(obj) -> str:
    return "".join(_pieces(obj, "", _STREAMED_LEVELS)) + "\n"


def _resolve_ref(ref, base_dir):
    """Inline object, relative path, or bundled:<name> -> (obj, its base dir)."""
    if isinstance(ref, dict):
        return ref, base_dir
    if isinstance(ref, str):
        if ref.startswith("bundled:"):
            path = bundled_path(ref[len("bundled:"):])
        else:
            path = Path(base_dir or ".") / ref
        return load_json(path), path.parent
    raise ParseError(f"bad file reference: {ref!r}")


def _wrap(fn, obj, what):
    try:
        return fn(obj)
    except (ParseError, TooLarge):
        raise
    except (KeyError, TypeError, ValueError, AttributeError, BraidedFormsError) as exc:
        raise ParseError(f"bad {what} data: {exc!r}") from exc


def hopf_from_obj(obj) -> HopfAlgebraData:
    def build(o):
        _known(o, _HOPF_KEYS, "Hopf algebra")
        maps = [matrix_from_obj(o[key]) for key in HopfAlgebraData.LEGS]
        return HopfAlgebraData(_integer(o["dim"]), *maps, name=o.get("name", ""))

    return _wrap(build, obj, "hopf")


def braiding_from_obj(obj) -> BraidedSpace:
    def build(o):
        _known(o, _BRAIDING_KEYS, "braiding")
        lam = scalar_from_obj(o["lambda"]) if "lambda" in o else None
        return BraidedSpace(_integer(o["dim"]), matrix_from_obj(o["psi"]), lam)

    return _wrap(build, obj, "braiding")


def load_hopf_ref(ref, base_dir) -> HopfAlgebraData:
    obj, _ = _resolve_ref(ref, base_dir)
    return hopf_from_obj(obj)


def classify_hopf(obj, base_dir) -> HopfAlgebraData:
    """A classify file's base: inline when it has "mult", else its "hopf"."""
    if "mult" in obj:
        return hopf_from_obj({k: v for k, v in obj.items() if k != "candidates"})
    _known(obj, _keys("hopf", "candidates"), "classify file")
    return load_hopf_ref(obj.get("hopf"), base_dir)


def _base_hopf(obj, base_dir, what) -> HopfAlgebraData:
    if "hopf" not in obj:
        raise ParseError(f'{what} needs a "hopf" reference')
    return load_hopf_ref(obj["hopf"], base_dir)


def _structure_from_obj(cls, obj, h, what):
    """A HopfBimodule or CrossedModule over h: "dim" and the maps of cls.LEGS,
    and a "hopf" reference, read by the caller."""
    def build(o):
        _known(o, _keys("hopf", "dim", *cls.LEGS), what)
        dim = _integer(o["dim"])
        maps = [matrix_from_obj(o[key]) for key in cls.LEGS]
        return cls(h, dim, *maps, name=o.get("name", ""))

    return _wrap(build, obj, what)


def bimodule_from_obj(obj, base_dir=None) -> HopfBimodule:
    h = _base_hopf(obj, base_dir, "bimodule file")
    return _structure_from_obj(HopfBimodule, obj, h, "bimodule")


def crossed_from_obj(obj, base_dir=None) -> CrossedModule:
    h = _base_hopf(obj, base_dir, "crossed module file")
    return _structure_from_obj(CrossedModule, obj, h, "crossed module")


def calculus_from_obj(obj, base_dir=None):
    """Calculus bundle -> FirstOrderCalculus, over a base that passes check_hopf."""
    _known(obj, _CALCULUS_KEYS, "calculus bundle")
    if "submodule" in obj and ("X" in obj or "d" in obj):
        raise ParseError('a calculus bundle holds "submodule" or "X" and "d", not both')
    h = require_hopf(_base_hopf(obj, base_dir, "calculus bundle"))
    if "submodule" in obj:
        sub = obj["submodule"]
        if not isinstance(sub, dict) or sub.get("ambient") != "ker_counit":
            raise ParseError('submodule spec needs {"ambient": "ker_counit", "generators": [...]}')
        _known(sub, _keys("ambient", "generators"), "submodule spec")
        univ = universal_fodc(h)
        gens = generators_from_obj(sub.get("generators", []), univ.ker_counit.dim)
        return fodc_from_submodule(univ, gens)
    if "X" in obj and "d" in obj:
        if not isinstance(obj["X"], dict):
            raise ParseError(f'"X" must be a bimodule object, got {obj["X"]!r}')
        # X is over the bundle's checked base, whatever "hopf" member it holds
        x = _structure_from_obj(HopfBimodule, obj["X"], h, "bimodule")
        d = _wrap(matrix_from_obj, obj["d"], "differential")
        if (d.rows, d.cols) != (x.dim, h.dim):
            raise ParseError(f'"d" must be {x.dim}x{h.dim} (X.dim x H.dim), '
                             f'got {d.rows}x{d.cols}')
        return FirstOrderCalculus(h, x, d)
    raise ParseError('calculus bundle needs either "submodule" or explicit "X" and "d"')
