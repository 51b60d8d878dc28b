"""The one decoder of bundle files.

A bundle carries one group action: the split hull data and the acting
group's generators, relators, and labels. This module is the only code that
knows the bundle's JSON layout. It parses each matrix once, reports the JSON
path of the first malformed entry, and passes the parsed values to the
domain constructors, which check the mathematics once. The objects'
`to_json` methods write the same layout back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .actions import AffineElement, GammaActionData
from .hull import SplitHullData
from .lie import NilpotentLieAlgebra, UnipotentGroupData
from .linalg import RationalMatrix


class SchemaError(ValueError):
    """A malformed bundle; the message carries the JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class Bundle:
    name: str
    description: str
    hull: SplitHullData
    gamma: GammaActionData
    expect: dict = field(default_factory=dict)


def _is_int(val) -> bool:
    """JSON integers only: `true` and `false` are not integers here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _want(obj, key, kind, path, optional=False, default=None):
    if key not in obj:
        if optional:
            return default
        raise SchemaError(path, f"missing key '{key}'")
    val = obj[key]
    if not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise SchemaError(f"{path}.{key}",
                          f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _strings(obj, key, path, what="a string"):
    """The optional array of strings under key; [] when absent."""
    vals = _want(obj, key, list, path, optional=True, default=[])
    for i, val in enumerate(vals):
        if not isinstance(val, str):
            raise SchemaError(f"{path}.{key}[{i}]", f"expected {what}")
    return vals


def _row(entries, path):
    """Fractions of a list of integers or fraction strings."""
    out = []
    for j, entry in enumerate(entries):
        if not (_is_int(entry) or isinstance(entry, str)):
            raise SchemaError(f"{path}[{j}]",
                              "entries must be integers or fraction strings")
        try:
            out.append(Fraction(entry))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{path}[{j}]", f"not a fraction: {entry!r}") from None
    return out


def matrix(obj, path) -> RationalMatrix:
    """A matrix given as rows of integers or fraction strings; raises
    SchemaError naming the JSON path of the first bad entry."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(path, "expected a nonempty array of rows")
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise SchemaError(f"{path}[{i}]", "ragged rows")
        rows.append(_row(row, f"{path}[{i}]"))
    if not width:
        raise SchemaError(path, "ragged or empty rows")
    return RationalMatrix(rows)


def _matrix_list(obj, path):
    if not isinstance(obj, list):
        raise SchemaError(path, "expected an array of matrices")
    return tuple(matrix(m, f"{path}[{i}]") for i, m in enumerate(obj))


def _brackets(obj, path):
    """{(i, j): coefficients} from the [i, j, [c, ...]] triples."""
    table = {}
    for k, triple in enumerate(_want(obj, "brackets", list, path)):
        tp = f"{path}.brackets[{k}]"
        try:
            i, j, coeffs = triple
        except (TypeError, ValueError) as exc:
            raise SchemaError(path, f"algebra rejected: {exc}") from None
        for pos, index in enumerate((i, j)):
            if not _is_int(index):
                raise SchemaError(f"{tp}[{pos}]", "expected an integer index")
        if not isinstance(coeffs, list):
            raise SchemaError(f"{tp}[2]", "expected an array of coefficients")
        table[(i, j)] = _row(coeffs, f"{tp}[2]")
    return table


def _algebra(obj, path) -> NilpotentLieAlgebra:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    dim = _want(obj, "dim", int, path)
    if "ambient" not in obj:
        raise SchemaError(path, "missing key 'ambient'")
    ambient = _matrix_list(obj["ambient"], f"{path}.ambient")
    brackets = _brackets(obj, path)
    labels = _strings(obj, "labels", path) if "labels" in obj else None
    try:
        return NilpotentLieAlgebra(dim, brackets, labels=labels, ambient=ambient)
    except (ValueError, TypeError) as exc:
        raise SchemaError(path, f"algebra rejected: {exc}") from None


def _hull(obj, path) -> SplitHullData:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    algebra = _algebra(_want(obj, "lie_algebra", dict, path), f"{path}.lie_algebra")
    d = algebra.ambient[0].rows if algebra.ambient else 0
    u_gens = _matrix_list(_want(obj, "u_generators", list, path),
                          f"{path}.u_generators")
    t_gens = _matrix_list(_want(obj, "t_generators", list, path, optional=True,
                                default=[]), f"{path}.t_generators")
    hols = _want(obj, "hol_matrices", list, path, optional=True)
    hol_mats = None if hols is None else _matrix_list(hols, f"{path}.hol_matrices")
    try:
        return SplitHullData(algebra,
                             UnipotentGroupData(generators=u_gens, dim_ambient=d),
                             t_generators=t_gens, hol_matrices=hol_mats)
    except ValueError as exc:
        raise SchemaError(path, f"hull rejected: {exc}") from None


def _gamma(obj, path, algebra) -> GammaActionData:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    gens = []
    for i, g in enumerate(_want(obj, "generators", list, path)):
        gp = f"{path}.generators[{i}]"
        if not isinstance(g, dict):
            raise SchemaError(gp, "expected an object")
        gens.append((_want(g, "name", str, gp),
                     matrix(_want(g, "translation_matrix", list, gp),
                            f"{gp}.translation_matrix"),
                     matrix(_want(g, "hol_matrix", list, gp), f"{gp}.hol_matrix")))
    relators = _strings(obj, "relators", path, "a word string")
    hirsch_rank = _want(obj, "hirsch_rank", int, path, optional=True)
    labels = _strings(obj, "fitting_labels", path)
    names = [name for name, _, _ in gens]
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}.generators", "duplicate generator names")
    unknown = [lab for lab in labels if lab not in names]
    if unknown:
        raise SchemaError(f"{path}.fitting_labels",
                          f"labels {unknown} name no generator")
    try:
        return GammaActionData(
            algebra, {name: AffineElement(algebra, t, hol) for name, t, hol in gens},
            relators=relators, hirsch_rank=hirsch_rank, fitting_labels=labels)
    except ValueError as exc:
        raise SchemaError(path, f"group data rejected: {exc}") from None


def load_bundle(obj) -> Bundle:
    """Parse and fully validate one bundle object."""
    if not isinstance(obj, dict):
        raise SchemaError("$", "bundle must be a JSON object")
    name = _want(obj, "name", str, "$")
    description = _want(obj, "description", str, "$", optional=True, default="")
    hull = _hull(_want(obj, "hull", dict, "$"), "$.hull")
    gamma = _gamma(_want(obj, "gamma", dict, "$"), "$.gamma", hull.algebra)
    expect = _want(obj, "expect", dict, "$", optional=True, default={})
    return Bundle(name=name, description=description, hull=hull,
                  gamma=gamma, expect=dict(expect))
